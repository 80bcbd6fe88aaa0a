"""Exact integer combinatorics used by every other module.

All arithmetic is arbitrary-precision integer arithmetic; nothing here
touches floating point. Binomials and falling factorials are closed
forms on `math.comb` and `math.perm`, so no product is looped in Python.
"""

from __future__ import annotations

import math

from .errors import PreconditionError


def binomial(n: int, k: int) -> int:
    """C(n, k), computed by `math.comb`.

    Out-of-range k (k < 0 or k > n) yields 0: census and lattice scans probe
    outside the triangle and zero is the consistent extension there. A
    negative n is rejected.
    """
    if n < 0:
        raise PreconditionError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling_factorial(s: int, length: int) -> int:
    """s(s-1)...(s-length+1); the empty product (length 0) is 1.

    For s >= 0 this is `math.perm(s, length)`, which is 0 when length > s
    because the product passes through the factor 0. For s < 0 every factor
    is negative, and negating them gives the rising product
    (-s)(-s+1)...(-s+length-1), so
    s(s-1)...(s-length+1) = (-1)^length * perm(length-s-1, length).
    """
    if length < 0:
        raise PreconditionError(f"falling_factorial: length must be nonnegative, got {length}")
    if s >= 0:
        return math.perm(s, length)
    return (-1) ** length * math.perm(length - s - 1, length)


def fibonacci(i: int) -> int:
    """F_i with F_0 = 0, F_1 = F_2 = 1, by fast doubling."""
    if i < 0:
        raise PreconditionError(f"fibonacci: index must be nonnegative, got {i}")

    def pair(m: int) -> tuple[int, int]:
        # (F_m, F_{m+1})
        if m == 0:
            return 0, 1
        f, g = pair(m >> 1)
        c = f * (2 * g - f)
        d = f * f + g * g
        if m & 1:
            return d, c + d
        return c, d

    return pair(i)[0]

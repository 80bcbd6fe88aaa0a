"""Exact integer combinatorics used by every other module.

All arithmetic is arbitrary-precision integer arithmetic; nothing here
touches floating point. Falling factorials are closed forms on
`math.perm`. Binomials are `math.comb`, except that a large central one
is formed from its prime factorisation: a sieve, Legendre's exponents and
a balanced product tree, looped in Python over the primes up to n (see
`binomial`). Nothing is cached between calls.
"""

from __future__ import annotations

import math
from itertools import chain, compress, islice
from typing import Iterable

from .errors import PreconditionError

# binomial forms C(n,k), k <= n/2, from its prime factorisation only when n <= _MAX_N_PER_K*k
# and k*k >= _MIN_K2_PER_N*n. Timed on 2 CPUs against math.comb, the two break even near
# k = 700-850 at k/n = 1/2 or 0.38, k = 1,000 at 1/4, k = 1,400 at 1/8 and k = 2,700 at 1/16,
# all with k*k/n between 170 and 350; at k/n = 1/50 math.comb is still the faster at n = 300,000.
# Family member 5, C(33552,12815), takes 14-19 ms by math.comb and 1.4-2.2 ms here; member 6,
# C(229970,87840), 0.39-0.54 s and 15-24 ms.
_MAX_N_PER_K = 16
_MIN_K2_PER_N = 512


def binomial(n: int, k: int) -> int:
    """C(n, k).

    Out-of-range k (k < 0 or k > n) yields 0: census and lattice scans probe
    outside the triangle and zero is the consistent extension there. A
    negative n is rejected.

    With k' = min(k, n-k), the value is `math.comb(n, k')` unless k' is
    past the crossover (k'^2 >= _MIN_K2_PER_N * n) and n is not large next
    to it (n <= _MAX_N_PER_K * k'). Then it is the product of p^e over the
    primes p <= n, by Legendre's formula
    e = sum_i (floor(n/p^i) - floor(k'/p^i) - floor((n-k')/p^i)),
    each term being the carry of k' + (n-k') = n in base p at digit i
    (Kummer), so e >= 0; see `_legendre_binomial`. math.comb's time grows
    about quadratically with the bits of the value, while this path costs
    a sieve and one loop over the primes, linear in n, plus a product tree
    of multiplications only (Goetgheluck, "Computing binomial
    coefficients", Amer. Math. Monthly 94, 1987). Since k' <= n/2, the
    value has at least k' bits, so the guard keeps the n-byte sieve within
    _MAX_N_PER_K bytes per bit of the result: C(10**30, 2) never sieves.
    """
    if n < 0:
        raise PreconditionError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    if n <= _MAX_N_PER_K * k and k * k >= _MIN_K2_PER_N * n:
        return _legendre_binomial(n, k)
    return math.comb(n, k)


def _prime_sieve(n: int) -> bytearray:
    """s with s[i] == 1 exactly when i <= n is prime, by Eratosthenes."""
    s = bytearray(2) + bytearray([1]) * (n - 1)
    for p in range(2, math.isqrt(n) + 1):
        if s[p]:
            s[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return s


def _product(factors: Iterable[int]) -> int:
    """The product of factors, each at least 2.

    Runs of 32 factors are multiplied by math.prod while the operands are
    small; the run products are then multiplied pairwise, so that the
    operands of each big multiplication are of like size.
    """
    it = iter(factors)
    level = list(iter(lambda: math.prod(islice(it, 32)), 1))  # only an empty run has product 1
    while len(level) > 1:
        paired = [a * b for a, b in zip(level[::2], level[1::2])]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0] if level else 1


def _legendre_binomial(n: int, k: int) -> int:
    """C(n, k) for 0 <= k <= n/2 as the product of its prime powers.

    With m = n - k >= n/2 the exponent of a prime p is the number of carries
    when adding k and m in base p. A prime in (m, n] divides n!/m! once and
    not k! (p > m >= k): exponent 1. A prime in (n/2, m] has n//p = m//p = 1
    and k//p = 0: exponent 0. A prime above sqrt(n) has one digit term,
    n//p - k//p - m//p, which is 0 or 1. Only the primes up to sqrt(n) sum
    Legendre's series over their powers.
    """
    m = n - k
    sieve = memoryview(_prime_sieve(n))  # its slices below are views, not copies
    r = math.isqrt(n)
    half = n // 2
    candidates = compress(range(r + 1, half + 1), sieve[r + 1 : half + 1])
    middle = [p for p in candidates if n // p - k // p - m // p]
    low = []
    for p in compress(range(2, r + 1), sieve[2 : r + 1]):
        e, q = 0, p
        while q <= n:
            e += n // q - k // q - m // q
            q *= p
        if e:
            low.append(p**e)
    return _product(chain(compress(range(m + 1, n + 1), sieve[m + 1 :]), middle, low))


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

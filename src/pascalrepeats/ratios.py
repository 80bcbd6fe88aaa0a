"""Ratio analysis for C(x,y) = C(x-a,y+b).

At a solution, the ratios of successive binomial coefficients in row x-a
between columns y-a and y+b are squeezed around a fixed algebraic number
zeta, the unique positive root of t^(a+b) - (t+1)^a. This module isolates
zeta in exact rational intervals, produces the rational bracket that pins
it at any solution, and evaluates the ratio identity that characterizes
solutions without computing a single binomial coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import binomial, falling_factorial
from .errors import PreconditionError
from .polynomials import UniPoly, bisect_root


@dataclass(frozen=True)
class ShiftPair:
    """The equation parameters: a is the row shift, b the column shift.

    Degenerate shifts are rejected: a=0 makes every symmetric pair a
    solution and b=0 admits none with y >= 1, so neither carries content.
    """

    a: int
    b: int

    def __post_init__(self):
        # bool is a subclass of int; ShiftPair(True, True) must not read as (1,1)
        if not all(isinstance(c, int) and type(c) is not bool for c in (self.a, self.b)):
            raise PreconditionError("shift components must be integers")
        if self.a < 1 or self.b < 1:
            raise PreconditionError(f"shift components must be >= 1, got ({self.a},{self.b})")

    @property
    def degree(self) -> int:
        return self.a + self.b


@dataclass(frozen=True)
class Interval:
    """Closed rational interval, used as an exact enclosure of a real root."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise PreconditionError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class IrrationalityWitness:
    """Rational-root-test record: every candidate evaluates nonzero."""

    irrational: bool
    candidate_values: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.irrational


def zeta_poly(shift: ShiftPair) -> UniPoly:
    """The defining polynomial t^(a+b) - (t+1)^a, expanded over the integers."""
    d = shift.degree
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    for i in range(shift.a + 1):
        coeffs[i] -= binomial(shift.a, i)
    return UniPoly(coeffs)


def isolate_zeta(shift: ShiftPair, eps: Fraction) -> Interval:
    """Enclose the unique positive root of zeta_poly within width eps.

    Sign-change bisection (polynomials.bisect_root) from [1, 2^(a+b)]:
    the value at 1 is 1 - 2^a < 0 and the leading term dominates at the
    right end, so the initial bracket always straddles the root. Midpoints
    are rational and the root is not (see irrationality_check), so no
    midpoint evaluation can vanish and the enclosure never degenerates:
    it is the one cell [1 + j*w, 1 + (j+1)*w], w = (2^(a+b) - 1)/2^k,
    that holds zeta, k the number of halvings. Past 64 halvings
    bisect_root finds j by integer Newton and proves it with two sign
    tests, so a fine eps costs a few evaluations instead of one per bit.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    p = zeta_poly(shift)
    hi = 2 ** shift.degree
    if not (p.sign_at(1) < 0 < p.sign_at(hi)):
        raise RuntimeError("internal error: initial bisection bracket has no sign change")
    return Interval(*bisect_root(p, Fraction(1), Fraction(hi), eps))


def irrationality_check(shift: ShiftPair) -> IrrationalityWitness:
    """Rational root test on zeta_poly: monic with constant term -1.

    The only rational-root candidates are +-1; both evaluate nonzero, so
    every root, in particular zeta, is irrational.
    """
    p = zeta_poly(shift)
    values = tuple((c, p(c)) for c in (1, -1))
    return IrrationalityWitness(all(v != 0 for _, v in values), values)


def bracket(x: int, y: int, shift: ShiftPair) -> tuple[Fraction, Fraction]:
    """The exact rational pair that encloses zeta at any solution with y > a.

    Returns ((x-a-y-b+1)/(y+b), (x-y)/(y-a+1)); strict enclosure of zeta
    holds whenever (x,y) solves the equation.
    """
    if y <= shift.a:
        raise PreconditionError(f"bracket needs y > a, got y={y}, a={shift.a}")
    lo = Fraction(x - shift.a - y - shift.b + 1, y + shift.b)
    hi = Fraction(x - y, y - shift.a + 1)
    return lo, hi


def ratio_identity_check(x: int, y: int, shift: ShiftPair) -> bool:
    """Exact integer test of the solution identity.

    With r_i = (x-y-i+1)/(y-a+i), the identity is
    sum_{s=0}^{a} C(a,s) * r_1...r_s = r_1...r_{a+b}. Dividing the
    equation by C(x-a, y-a) shows the two sides are C(x,y)/C(x-a,y-a) and
    C(x-a,y+b)/C(x-a,y-a), so equality holds iff C(x,y) = C(x-a,y+b).
    Multiplying both sides by the denominators d_1...d_{a+b} clears them:
    the numerators n_1...n_s are ff(x-y, s), the remaining denominators
    d_{s+1}...d_{a+b} = (y-a+s+1)...(y+b) are ff(y+b, a+b-s), and the
    right side is ff(x-y, a+b), with ff the falling factorial. No binomial
    coefficient of the equation is ever computed here.
    """
    if y <= shift.a or x < y:
        raise PreconditionError(f"ratio_identity_check needs x >= y > a, got x={x}, y={y}, a={shift.a}")
    a, d = shift.a, shift.degree
    lhs = sum(
        binomial(a, s) * falling_factorial(x - y, s) * falling_factorial(y + shift.b, d - s)
        for s in range(a + 1)
    )
    return lhs == falling_factorial(x - y, d)


def row_expansion_check(n: int, k: int, r: int) -> bool:
    """Verify C(n,k) = sum_{s=0}^{r} C(r,s) C(n-r,k-s) exactly.

    Vandermonde's identity, true for every valid input: criterion 8 of the
    acceptance suite checks it on random rows, as a check of `binomial`.
    ratio_identity_check does not rest on it; it clears denominators with
    falling factorials.
    """
    if r > n:
        raise PreconditionError(f"row_expansion_check needs r <= n, got r={r}, n={n}")
    total = sum(binomial(r, s) * binomial(n - r, k - s) for s in range(r + 1))
    return total == binomial(n, k)


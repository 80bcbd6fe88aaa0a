"""The plane curves behind C(x,y) = C(x-a,y+b) and their certification.

Each shift (a,b) yields the integer curve

    F(x,y) = (x-y)(x-y-1)...(x-y-a-b+1) - x(x-1)...(x-a+1)(y+1)...(y+b)

whose lattice points in the triangle region are exactly the equation's
solutions. certify forms F once, with build_curve, and every check is a
function of F alone, reading the degree d = a+b as F's total degree.
Nonsingularity in the affine plane is certified by eliminating y from F
and F_y: a singular point makes R = Res_y(F,F_y) vanish to order at
least 2 at its x-coordinate, and the leading y-coefficient of F is the
constant (-1)^d, so leading-coefficient degeneracy cannot fake a root.
A squarefree R therefore rules every affine singular point out. At
infinity only F's top form T = (x-y)^d - x^a y^b is read.

affine_singular_check is the affine check, and certify runs it once.
It proves the verdict modulo a prime p, on one path, for p = 2^30 - 35
and, only if that proof fails, p = 2^30 - 41: the two largest primes
below 2^30, so that every residue is one digit of a CPython int. With
D = d(d-1), it evaluates the y-columns of F and F_y, formed once for
both primes, at all x0 = 0..D at once, takes the resultant in y over
GF(p) by one Euclid run in lockstep over the points (one batch inverse
per step) and interpolates R mod p. A point whose remainder loses its
leading coefficient mod p leaves the lockstep: its resultant is 0 when
the remainder vanishes, and otherwise it is finished by the scalar
Euclid of one point. Full degree D and a constant gcd(R, R') mod p
prove YES (the argument is in certify's docstring), and the prime that
proved it is the certificate's affine_prime, which its JSON form
prints; a proof that fails at both primes is inconclusive, never a
proven singularity. No exact eliminant is formed. Every shift with
a+b <= 20 is proved at the first prime; should both ever fail, the
two-eliminant proof, a constant gcd of Res_y(F,F_x) and Res_y(F,F_y)
mod p, is the check to add, since it can prove curves with a vertical
flex or two vertical tangents on one line, which this proof cannot.
Nonsingular degree-d curves get genus (d-1)(d-2)/2 and are irreducible
outright.

Sections F(x, y0) are built from F's coefficient columns in y, formed
once per curve by _x_columns: for y0 = u/w the section is
w^deg_y * F(x, u/w), each coefficient in x one integer dot product of
its column with the powers u^j w^(deg_y - j). real_branches isolates
them one by one, continuing each from the sections before it on
integer pairs, and lattice_points_in_box evaluates them at integer x;
infinity_singular_check builds the sections of T's partials at y = 1
the same way.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Iterable, Iterator

from .errors import PreconditionError
from .polynomials import (
    BiPoly,
    UniPoly,
    _gcd_degree_mod,
    _interpolate_mod,
    _linear_product,
    _resultants_mod,
    _values_mod,
    isolate_real_roots,
    unipoly_gcd,
)
from .ratios import Interval, ShiftPair, zeta_poly


class Verdict(str, enum.Enum):
    YES = "yes"
    INCONCLUSIVE = "inconclusive"


class Finiteness(str, enum.Enum):
    PROVEN_FINITE = "ProvenFinite"
    INFINITE_FAMILY = "InfiniteFamily"
    OPEN = "Open"


@dataclass(frozen=True)
class Certificate:
    """Per-curve record: singularity verdicts, genus, finiteness class, and the curve F they read.

    affine_prime is the prime at which affine_singular_check proved the
    affine verdict, or None when it is inconclusive; to_json_dict prints
    it as the affine proof's evidence.
    """

    shift: ShiftPair
    curve: BiPoly = field(repr=False, compare=False)
    degree: int
    affine_nonsingular: Verdict
    affine_prime: int | None
    infinity_nonsingular: Verdict
    genus: int | None
    irreducible: bool | None
    finiteness: Finiteness

    def to_json_dict(self) -> dict:
        p = self.affine_prime
        return {
            "a": self.shift.a,
            "b": self.shift.b,
            "degree": self.degree,
            "affine_nonsingular": self.affine_nonsingular.value,
            "infinity_nonsingular": self.infinity_nonsingular.value,
            "genus": self.genus,
            "irreducible": self.irreducible,
            "finiteness": self.finiteness.value,
            "affine_proof": None if p is None else {"eliminant": "Res_y(F,F_y)", "prime": p},
        }


def build_curve(shift: ShiftPair) -> BiPoly:
    """Expanded F(x,y); lattice zeros with x >= y, x-a >= y+b solve the equation.

    The terms are written out in closed form. With ff(u, a+b) = sum of
    s_k u^k, the left side's x^i y^j term is s_(i+j) C(i+j, i) (-1)^j,
    from the binomial expansion of (x-y)^k. The right side is the outer
    product of the coefficients of ff(x, a) and of (y+1)...(y+b).
    """
    s = _linear_product((-r, 1) for r in range(shift.degree)).coeffs
    terms = {(i, k - i): (-1) ** (k - i) * comb(k, i) * sk for k, sk in enumerate(s) for i in range(k + 1)}
    right_x = _linear_product((-p, 1) for p in range(shift.a)).coeffs
    right_y = _linear_product((q, 1) for q in range(1, shift.b + 1)).coeffs
    for i, ci in enumerate(right_x):
        for j, cj in enumerate(right_y):
            terms[(i, j)] = terms.get((i, j), 0) - ci * cj
    return BiPoly(terms)


# The two largest primes below 2^30: every residue is one 30-bit digit of a
# CPython int, so products of residues and their reductions take the
# interpreter's single-digit paths.
_PRIMES = ((1 << 30) - 35, (1 << 30) - 41)


def affine_singular_check(f: BiPoly) -> int | None:
    """The prime at which the curve F = f is proved to have no affine singular point, or None.

    The proof, certify's (the argument is in its docstring), reads one
    eliminant, R = Res_y(F, F_y): of degree d(d-1) and squarefree mod p,
    it leaves F = F_x = F_y = 0 no affine solution. It is tried at
    p = 2^30 - 35 and, only if it fails there, at p = 2^30 - 41; None
    means it failed at both, which proves nothing. The y-columns of F and
    F_y are formed once for both primes, and no column of F_x is formed.
    """
    columns = [g.coeffs_in() for g in (f, f.partial("y"))]
    return next((p for p in _PRIMES if _affine_nonsingular_mod_p(f, p, columns)), None)


def _affine_nonsingular_mod_p(f: BiPoly, p: int, columns: list[list[UniPoly]]) -> bool:
    """True when the affine proof holds mod the prime p: R = Res_y(f, f_y) of degree d(d-1), squarefree mod p.

    columns holds the coefficients in y of F and F_y, each ascending in y,
    as polynomials in x. False, before R is formed, when the proof's
    preconditions fail: the d(d-1)+1 evaluation points must be distinct
    mod p, and F and F_y must each have a constant y-leading coefficient
    that p does not divide. Otherwise every column is evaluated at all the
    points x0 = 0..d(d-1) at once, one lockstep Euclid over the points
    (_resultants_mod) gives R's values mod p, and R mod p is interpolated
    from them.
    """
    d = f.total_degree
    top = d * (d - 1)
    if top >= p or any(g[-1].degree != 0 or g[-1].leading % p == 0 for g in columns):
        return False
    rows_f, rows_fy = ([_values_mod(c, top + 1, p) for c in g] for g in columns)
    r = UniPoly(_interpolate_mod(_resultants_mod(rows_f, rows_fy, p), p))
    return r.degree == top and _gcd_degree_mod(r, r.derivative(), p) == 0


def infinity_singular_check(f: BiPoly) -> Verdict:
    """Certify the projective closure of the curve F = f has no singular point on z = 0.

    Homogenizing F and restricting its partials to z = 0 leaves T_x, T_y
    and F_(d-1), where T = F_d = (x-y)^d - x^a y^b is F's top form, and a
    singular point at infinity is a common root of the three. T_x and
    T_y alone have none. T_x(1,0) = d, so a common root lies on y = 1,
    where T_x + T_y = -x^(a-1) (a + b x): it is 0 or -a/b. But
    T_x(0,1) = (-1)^(d-1) d - [a = 1] is nonzero, and T_x(-a/b,1) = 0
    would need d^d = (-1)^b a^a b^b, while d^d = (a+b)^a (a+b)^b exceeds
    a^a b^b. The one gcd below proves this for the shift at hand.
    """
    t = f.homogeneous_part(f.total_degree)
    gcd = unipoly_gcd(*(_x_section(_x_columns(t.partial(v)), 1) for v in ("x", "y")))
    return Verdict.YES if gcd.degree == 0 else Verdict.INCONCLUSIVE


def classify_finiteness(shift: ShiftPair) -> Finiteness:
    """Solution-set classification by shift shape.

    a != b gives finitely many solutions; a = b = 1 carries the infinite
    Fibonacci family; a = b > 1 is not settled either way.
    """
    if shift.a != shift.b:
        return Finiteness.PROVEN_FINITE
    if shift.a == 1:
        return Finiteness.INFINITE_FAMILY
    return Finiteness.OPEN


def certify(shift: ShiftPair) -> Certificate:
    """Full certificate: singularity checks, genus when they pass, class.

    F is formed once, and every check below reads it. The affine verdict
    is one call of affine_singular_check: YES, with the prime that proved
    it as affine_prime, when the proof below holds modulo p = 2^30 - 35
    or, if it fails there, modulo p = 2^30 - 41; INCONCLUSIVE, with
    affine_prime None, when it fails at both. The resultants at the D+1
    points are taken together: Euclid over GF(p) runs on rows of
    residues, one row per y-coefficient with one entry per point, with
    one inverse per step for every point's leading coefficient; a point
    whose remainder's leading coefficient vanishes mod p finishes alone
    with the scalar Euclid, or at 0 when its remainder vanishes. The
    values are the per-point ones.

    Let d = a+b, D = d(d-1) and R = Res_y(F, F_y). As polynomials in y,
    F has degree d and leading coefficient (-1)^d, and F_y degree d-1 and
    leading coefficient (-1)^d * d. Since F's is a constant, no point of
    the curve lies at infinity in the y-direction, and the order of R at
    x0 is the sum of the intersection multiplicities I_P(F, F_y) over the
    points P of the curve above x0. At a singular point P,
    I_P(F, F_y) >= m_P(F) * m_P(F_y) >= 2 * 1 (W. Fulton, Algebraic
    Curves, ch. 3), so R has a multiple root at P's x-coordinate. A
    squarefree R, of degree D, proves that no affine point is singular.

    The proof holds at p when: D < p; the y-leading constants of F and
    F_y are prime to p; R mod p has degree exactly D; and gcd(R, R') mod
    p is constant. The first two are checked by _affine_nonsingular_mod_p
    before R is formed. With the leading constants prime to p, Res_y
    commutes with reduction mod p and with evaluation at any x0: the
    resultant over GF(p) of the sections at x0 is R mod p at x0. R has
    x-degree at most D, so its values at the D+1 points x0 = 0..D,
    distinct mod p when D < p, determine it. When R mod p has degree D,
    p does not divide lc(R), and the argument of W. S. Brown (JACM 18,
    1971) applies to R and R': their gcd g over Z divides R, so p does
    not divide lc(g), g mod p keeps its degree and divides gcd(R, R')
    mod p. A constant gcd mod p makes g constant, so R is squarefree.
    D < p also keeps R' mod p at degree D - 1. A failed precondition, a
    degree drop or a nonconstant gcd mod p proves nothing at that prime.
    The converse fails: a smooth curve with a vertical flex, or with two
    vertical tangents on one line x = x0, gives R a multiple root too,
    and is not proved.

    Genus uses the plane-curve formula (d-1)(d-2)/2, valid only for a
    nonsingular curve, so it is present exactly when both verdicts are
    yes; irreducibility then follows (components of a plane curve meet,
    and a meeting point would be singular).
    """
    f = build_curve(shift)
    prime = affine_singular_check(f)
    verdict = Verdict.INCONCLUSIVE if prime is None else Verdict.YES
    infinity = infinity_singular_check(f)
    d = f.total_degree
    nonsingular = verdict is Verdict.YES and infinity is Verdict.YES
    genus = (d - 1) * (d - 2) // 2 if nonsingular else None
    irreducible = True if nonsingular else None
    return Certificate(
        shift=shift,
        curve=f,
        degree=d,
        affine_nonsingular=verdict,
        affine_prime=prime,
        infinity_nonsingular=infinity,
        genus=genus,
        irreducible=irreducible,
        finiteness=classify_finiteness(shift),
    )


_QUAD_CANDIDATES = (
    UniPoly((1, 1, 1)),    # x^2 + x + 1
    UniPoly((1, 3, 1)),    # x^2 + 3x + 1
    UniPoly((-1, -1, 1)),  # x^2 - x - 1
    UniPoly((-1, 1, 1)),   # x^2 + x - 1
)


def quad_factor_test(n: int, r: int) -> UniPoly | None:
    """Real quadratic factor of x^n - (x+1)^r, zeta_poly of the shift (r, n-r), among four candidates.

    Trial-divides by each candidate and keeps a hit only when its
    discriminant is positive: x^2+x+1 divides for many (n,r) but carries
    no real root, and the real-rooted candidates other than x^2-x-1 have
    a root below -1 where x^n - (x+1)^r cannot vanish. The survivor is
    x^2-x-1, exactly when n = 2r.
    """
    if not (n > r >= 1):
        raise PreconditionError(f"quad_factor_test needs n > r >= 1, got n={n}, r={r}")
    p = zeta_poly(ShiftPair(r, n - r))
    for cand in _QUAD_CANDIDATES:
        try:
            p.exact_div(cand)
        except ArithmeticError:
            continue
        c0, c1, _ = cand.coeffs
        if c1 * c1 - 4 * c0 > 0:
            return cand
    return None


def _x_columns(curve: BiPoly) -> list[list[int]]:
    """curve's coefficient of x^i for i = 0..deg_x, each an ascending list in y of length deg_y + 1."""
    dy = curve.degree_in("y")
    columns = [[0] * (dy + 1) for _ in range(curve.degree_in("x") + 1)]
    for (i, j), c in curve.terms.items():
        columns[i][j] = c
    return columns


def _x_section(columns: list[list[int]], u: int, w: int = 1) -> UniPoly:
    """w^deg_y * curve(x, u/w) for w > 0, from _x_columns(curve): the section at y = u/w in integers.

    The powers u^j w^(deg_y - j) are formed once per section, as running
    products, and each coefficient in x is one dot product of its column
    with them.
    """
    powers = [1]
    for _ in columns[0][1:]:
        powers.append(powers[-1] * u)
    if w != 1:
        wp = w
        for j in range(len(powers) - 2, -1, -1):
            powers[j] *= wp
            wp *= w
    return UniPoly([sum(map(operator.mul, column, powers)) for column in columns])


def _continued(before: list[tuple[int, int, list[tuple[int, int]]]], yn: int, yd: int) -> list[tuple[int, int]]:
    """Guesses (u, w) at the roots of the section at y0 = yn/yd, yd > 0, from the sections before it.

    before holds the last one or two sections as (numerator, denominator,
    roots) of their y, each root the left end of its enclosure as
    (numerator, denominator). With two sections of equal root count, the
    i-th root is extrapolated linearly in y through the i-th roots of
    both: r2 + (r2 - r1) * s with s = (y0 - y2)/(y2 - y1), over the product
    of the denominators. s is taken in integers, as sn/sd with sd > 0 and
    neither reduced; the hints are then not in lowest terms, but every
    use of a hint compares its value, so they act as the reduced ones
    would. Otherwise the last section's roots are the guesses; the first
    section has none.
    """
    if not before:
        return []
    y2n, y2d, r2 = before[-1]
    y1n, y1d, r1 = before[0]
    sd = (y2n * y1d - y1n * y2d) * yd  # (y2 - y1) * y1d * y2d * yd
    if len(r1) != len(r2) or sd == 0:
        return r2
    sn = (yn * y2d - y2n * yd) * y1d  # (y0 - y2) * y1d * y2d * yd
    if sd < 0:
        sn, sd = -sn, -sd
    return [(n2 * d1 * sd + (n2 * d1 - n1 * d2) * sn, d1 * d2 * sd) for (n1, d1), (n2, d2) in zip(r1, r2)]


def real_branches(
    shift: ShiftPair,
    y_values: Iterable[Fraction | int],
    width: Fraction = Fraction(1, 10**9),
) -> Iterator[tuple[Fraction, list[Interval]]]:
    """Isolate the real x-branches of the curve above each requested y.

    Yields (y0, enclosures) for each y0 in turn, isolated only when the
    caller asks for it. Every real root of F(x, y0) gets a rational
    enclosure of width at most the requested one (default 1e-9); exact
    rational roots may come back as zero-width intervals. At most a+b
    branches per y.

    F's coefficient columns in y are formed once, and each section
    yd^deg_y * F(x, yn/yd) is built from them in integers (_x_section)
    and isolated by one call of isolate_real_roots. Between the sections
    only integers travel: y0 as its numerator and denominator, and each
    root as the numerator and denominator of its enclosure's left end.

    Sections are continued: along a branch the roots of neighbouring
    sections move smoothly, so each section's roots are extrapolated from
    the two sections before it (see _continued) and handed to
    isolate_real_roots as hints. A hint only picks the cell that Newton
    tries first; the Sturm count and every enclosure are what the section
    gives alone, which is also why hints that are not in lowest terms
    leave every byte as it is.
    """
    columns = _x_columns(build_curve(shift))
    before: list[tuple[int, int, list[tuple[int, int]]]] = []
    for y0 in y_values:
        y0 = Fraction(y0)
        yn, yd = y0.numerator, y0.denominator
        enclosures = isolate_real_roots(_x_section(columns, yn, yd), width, _continued(before, yn, yd))
        before = before[-1:] + [(yn, yd, [(lo.numerator, lo.denominator) for lo, _ in enclosures])]
        yield y0, [Interval(lo, hi) for lo, hi in enclosures]


def lattice_points_in_box(
    shift: ShiftPair,
    x_range: tuple[int, int],
    y_range: tuple[int, int],
) -> list[tuple[int, int]]:
    """All integer zeros of the curve in the closed box, sorted by (y, x).

    Includes points outside the Pascal-triangle domain (negative or
    inverted coordinates); an empty box yields an empty list.
    """
    columns = _x_columns(build_curve(shift))
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    out = []
    for y in range(y_lo, y_hi + 1):
        section = _x_section(columns, y)
        for x in range(x_lo, x_hi + 1):
            if section(x) == 0:
                out.append((x, y))
    return out

"""The plane curves behind C(x,y) = C(x-a,y+b) and their certification.

Each shift (a,b) yields the integer curve

    F(x,y) = (x-y)(x-y-1)...(x-y-a-b+1) - x(x-1)...(x-a+1)(y+1)...(y+b)

whose lattice points in the triangle region are exactly the equation's
solutions. certify forms F once, with build_curve, and every check is a
function of F alone, reading the degree d = a+b as F's total degree.
Nonsingularity in the affine plane is certified by eliminating y: a
singular point forces the two eliminants Res_y(F,F_x) and Res_y(F,F_y)
to share a root, and the leading y-coefficient of F is the constant
(-1)^d, so leading-coefficient degeneracy cannot fake a root. For every
shift with a+b <= 20 the gcd of the two is constant. Should a shift
ever be inconclusive in y, eliminating x, with
`bipoly_resultant(..., "x")`, is the check to add back, together with a
test that reaches it. At infinity, the top form T = (x-y)^d - x^a y^b
and the degree-(d-1) part F_(d-1) are read off F as its homogeneous
parts of degree d and d-1.

certify decides the affine verdict modulo the prime P = 2^61 - 1 first.
With D = d(d-1), it evaluates F, F_x and F_y at x0 = 0..D mod P as
polynomials in y, takes both resultants in y over GF(P) at each point
and interpolates the two eliminants mod P. Full degree D and a constant
gcd mod P prove the YES that the exact path prints (the argument is in
certify's docstring). Otherwise affine_singular_check runs on exact
integers. The exact eliminants are formed only when a Certificate's
eliminants are read, which JSON output does, from the F the Certificate
keeps. Their gcd is proved constant by unipoly_gcd modulo the same P:
when P divides neither leading coefficient, the gcd over Z keeps its
degree mod P and divides the gcd mod P, so a constant gcd mod P is a
constant gcd over Z. Otherwise the exact remainder sequence decides,
with the same result. A nonconstant eliminant gcd is reported as
inconclusive, never as a proven singularity. Nonsingular degree-d curves
get genus (d-1)(d-2)/2 and are irreducible outright.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .combinatorics import binomial
from .errors import PreconditionError
from .polynomials import (
    BiPoly,
    UniPoly,
    _gcd_degree_mod,
    _interpolate_mod,
    _resultant_mod,
    bipoly_resultant,
    isolate_real_roots,
    unipoly_gcd,
)
from .ratios import Interval, ShiftPair


class Verdict(str, enum.Enum):
    YES = "yes"
    INCONCLUSIVE = "inconclusive"


class Finiteness(str, enum.Enum):
    PROVEN_FINITE = "ProvenFinite"
    INFINITE_FAMILY = "InfiniteFamily"
    OPEN = "Open"


@dataclass(frozen=True)
class EliminantData:
    """Res_y(F,F_x) and Res_y(F,F_y), and their gcd."""

    res_fx: UniPoly
    res_fy: UniPoly
    common_factor: UniPoly

    @property
    def verdict(self) -> Verdict:
        """YES exactly when the gcd is constant."""
        return Verdict.YES if self.common_factor.degree == 0 else Verdict.INCONCLUSIVE


@dataclass(frozen=True)
class Certificate:
    """Per-curve record: singularity verdicts, genus, finiteness class, and the curve F they read."""

    shift: ShiftPair
    curve: BiPoly = field(repr=False, compare=False)
    degree: int
    affine_nonsingular: Verdict
    infinity_nonsingular: Verdict
    genus: int | None
    irreducible: bool | None
    finiteness: Finiteness

    @functools.cached_property
    def eliminants(self) -> EliminantData:
        """The exact eliminants of affine_singular_check, formed on first read."""
        return affine_singular_check(self.curve)

    def to_json_dict(self) -> dict:
        def poly_strings(p: UniPoly) -> list[str]:
            return [str(c) for c in p.coeffs]

        e = self.eliminants
        return {
            "a": self.shift.a,
            "b": self.shift.b,
            "degree": self.degree,
            "affine_nonsingular": self.affine_nonsingular.value,
            "infinity_nonsingular": self.infinity_nonsingular.value,
            "genus": self.genus,
            "irreducible": self.irreducible,
            "finiteness": self.finiteness.value,
            "eliminants": [
                {
                    "eliminated": "y",
                    "res_fx": poly_strings(e.res_fx),
                    "res_fy": poly_strings(e.res_fy),
                    "common_factor": poly_strings(e.common_factor),
                }
            ],
        }


def build_curve(shift: ShiftPair) -> BiPoly:
    """Expanded F(x,y); lattice zeros with x >= y, x-a >= y+b solve the equation."""
    x = BiPoly.variable("x")
    y = BiPoly.variable("y")
    left = BiPoly.constant(1)
    for r in range(shift.degree):
        left = left * (x - y - r)
    right = BiPoly.constant(1)
    for p in range(shift.a):
        right = right * (x - p)
    for q in range(1, shift.b + 1):
        right = right * (y + q)
    return left - right


def affine_singular_check(f: BiPoly) -> EliminantData:
    """Certify that F = F_x = F_y = 0 has no affine solution, for the curve F = f.

    A common solution with y-coordinate y0 makes both Res_y(F,F_x) and
    Res_y(F,F_y) vanish at the x-coordinate, so a constant gcd of the two
    eliminants rules every candidate out; the converse does not hold, so a
    nonconstant gcd only yields "inconclusive". Eliminating x instead
    could still prove such a curve smooth (module docstring).
    """
    res_fx = bipoly_resultant(f, f.partial("x"), "y")
    res_fy = bipoly_resultant(f, f.partial("y"), "y")
    return EliminantData(res_fx, res_fy, unipoly_gcd(res_fx, res_fy))


def infinity_singular_check(f: BiPoly) -> Verdict:
    """Certify the projective closure of the curve F = f has no singular point on z = 0.

    Homogenizing F and restricting the three partials to z = 0 leaves the
    binary forms T_x, T_y and F_(d-1), all read off F: its top form
    T = F_d, which is (x-y)^d - x^a y^b, and its degree-(d-1)
    homogeneous part, where d is F's total degree. A singular point at
    infinity is a common projective root of the three. The point [1:0] is
    not on the curve at all, because T(1,0) = 1, so every candidate,
    [0:1] included, lies in the y = 1 chart, where a constant gcd of the
    three sections rules them all out. None of the three forms is zero:
    T_x(1,0) = d, T_y(0,1) = (-1)^d * d, and the y^(d-1) coefficient of
    F_(d-1) is (-1)^d * C(d,2), for every shift.
    """
    d = f.total_degree
    t = f.homogeneous_part(d)
    forms = (t.partial("x"), t.partial("y"), f.homogeneous_part(d - 1))
    tx, ty, fd = (_x_section(g, 1) for g in forms)
    gcd = unipoly_gcd(unipoly_gcd(tx, ty), fd)
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


def _eliminants_mod(f: BiPoly) -> tuple[list[int], list[int]]:
    """Res_y(f,f_x) and Res_y(f,f_y) mod P, ascending, from their values at x0 = 0..d(d-1)."""
    d = f.total_degree
    columns = [g.coeffs_in("y") for g in (f, f.partial("x"), f.partial("y"))]
    res_fx, res_fy = [], []
    for x0 in range(d * (d - 1) + 1):
        fv, fxv, fyv = ([c(x0) for c in col] for col in columns)
        res_fx.append(_resultant_mod(fv, fxv))
        res_fy.append(_resultant_mod(fv, fyv))
    return _interpolate_mod(res_fx), _interpolate_mod(res_fy)


def _affine_nonsingular_mod_p(f: BiPoly) -> bool:
    """True when both eliminants mod P have degree d(d-1) and a constant gcd mod P."""
    d = f.total_degree
    res_fx, res_fy = _eliminants_mod(f)
    return len(res_fx) == len(res_fy) == d * (d - 1) + 1 and _gcd_degree_mod(UniPoly(res_fx), UniPoly(res_fy)) == 0


def certify(shift: ShiftPair) -> Certificate:
    """Full certificate: singularity checks, genus when they pass, class.

    F is formed once, and every check below reads it. The affine
    verdict is first proved modulo P = 2^61 - 1, and no verdict can
    differ from the exact path's. Let d = a+b, D = d(d-1).
    As polynomials in y, F has degree d and leading coefficient (-1)^d,
    F_y has degree d-1 and leading coefficient (-1)^d * d, and F_x has
    degree d-1 and leading coefficient (-1)^(d-1) * d - [a = 1] (the -1
    is x*y^b's, for a = 1). All three are nonzero constants that P does
    not divide, so Res_y commutes with reduction mod P and with
    evaluation at any x0: the resultant over GF(P) of the sections at x0
    is the eliminant mod P at x0. Res_y of total degrees d and d-1 has
    x-degree at most D, so its values at x0 = 0..D determine it. When
    both eliminants mod P have degree exactly D, P divides neither
    integer leading coefficient, and unipoly_gcd's argument applies: the
    integer gcd keeps its degree mod P and divides the gcd mod P, so a
    constant gcd mod P makes the gcd over Z constant, which is the YES
    that affine_singular_check prints. In every other case
    affine_singular_check decides on the exact eliminants. Those are
    formed only when the certificate's eliminants are read (JSON output
    reads them), from the F that the certificate keeps.

    Genus uses the plane-curve formula (d-1)(d-2)/2, valid only for a
    nonsingular curve, so it is present exactly when both verdicts are
    yes; irreducibility then follows (components of a plane curve meet,
    and a meeting point would be singular).
    """
    f = build_curve(shift)
    affine = None if _affine_nonsingular_mod_p(f) else affine_singular_check(f)
    verdict = Verdict.YES if affine is None else affine.verdict
    infinity = infinity_singular_check(f)
    d = f.total_degree
    nonsingular = verdict is Verdict.YES and infinity is Verdict.YES
    genus = (d - 1) * (d - 2) // 2 if nonsingular else None
    irreducible = True if nonsingular else None
    cert = Certificate(
        shift=shift,
        curve=f,
        degree=d,
        affine_nonsingular=verdict,
        infinity_nonsingular=infinity,
        genus=genus,
        irreducible=irreducible,
        finiteness=classify_finiteness(shift),
    )
    if affine is not None:
        object.__setattr__(cert, "eliminants", affine)  # fills the cached property
    return cert


_QUAD_CANDIDATES = (
    UniPoly((1, 1, 1)),    # x^2 + x + 1
    UniPoly((1, 3, 1)),    # x^2 + 3x + 1
    UniPoly((-1, -1, 1)),  # x^2 - x - 1
    UniPoly((-1, 1, 1)),   # x^2 + x - 1
)


def quad_factor_test(n: int, r: int) -> UniPoly | None:
    """Real quadratic factor of x^n - (x+1)^r among the four candidates.

    Trial-divides by each candidate and keeps a hit only when its
    discriminant is positive: x^2+x+1 divides for many (n,r) but carries
    no real root, and the real-rooted candidates other than x^2-x-1 have
    a root below -1 where x^n - (x+1)^r cannot vanish. The survivor is
    x^2-x-1, exactly when n = 2r.
    """
    if not (n > r >= 1):
        raise PreconditionError(f"quad_factor_test needs n > r >= 1, got n={n}, r={r}")
    p = UniPoly.x_power(n) - UniPoly([binomial(r, i) for i in range(r + 1)])
    for cand in _QUAD_CANDIDATES:
        try:
            p.exact_div(cand)
        except ArithmeticError:
            continue
        c0, c1, _ = cand.coeffs
        if c1 * c1 - 4 * c0 > 0:
            return cand
    return None


def _x_section(curve: BiPoly, u: int, w: int = 1) -> UniPoly:
    """w^deg_y * curve(x, u/w) for w > 0: the section at y = u/w in integers."""
    dy = curve.degree_in("y")
    out = [0] * (curve.degree_in("x") + 1)
    for (i, j), c in curve.terms.items():
        out[i] += c * u**j * w**(dy - j)
    return UniPoly(out)


def _continued(before: list[tuple[Fraction, list[tuple[int, int]]]], y0: Fraction) -> list[tuple[int, int]]:
    """Guesses (u, w) at the roots of the section at y0 from the sections before it.

    before holds the last one or two sections as (y, roots), each root
    the left end of its enclosure as (numerator, denominator). With two
    sections of equal root count, the i-th root is extrapolated linearly
    in y through the i-th roots of both: r2 + (r2 - r1)(y0 - y2)/(y2 - y1),
    over the product of the denominators. Otherwise the last section's
    roots are the guesses; the first section has none.
    """
    if not before:
        return []
    y2, r2 = before[-1]
    y1, r1 = before[0]
    if len(r1) != len(r2) or y1 == y2:
        return r2
    s = (y0 - y2) / (y2 - y1)
    sn, sd = s.numerator, s.denominator
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

    Sections are continued: along a branch the roots of neighbouring
    sections move smoothly, so each section's roots are extrapolated from
    the two sections before it (see _continued) and handed to
    isolate_real_roots as hints. A hint only picks the cell that Newton
    tries first; the Sturm count and every enclosure are what the section
    gives alone.
    """
    f = build_curve(shift)
    before: list[tuple[Fraction, list[tuple[int, int]]]] = []
    for y0 in y_values:
        y0 = Fraction(y0)
        section = _x_section(f, y0.numerator, y0.denominator)
        enclosures = isolate_real_roots(section, width, _continued(before, y0))
        before = before[-1:] + [(y0, [(lo.numerator, lo.denominator) for lo, _ in enclosures])]
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
    f = build_curve(shift)
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    out = []
    for y in range(y_lo, y_hi + 1):
        section = _x_section(f, y)
        for x in range(x_lo, x_hi + 1):
            if section(x) == 0:
                out.append((x, y))
    return out

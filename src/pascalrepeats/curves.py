"""The plane curves behind C(x,y) = C(x-a,y+b) and their certification.

Each shift (a,b) yields the integer curve

    F(x,y) = (x-y)(x-y-1)...(x-y-a-b+1) - x(x-1)...(x-a+1)(y+1)...(y+b)

whose lattice points in the triangle region are exactly the equation's
solutions. This module certifies nonsingularity by resultant elimination:
a singular point forces the two eliminants Res(F,F_x) and Res(F,F_y) to
share a root, and the leading y-coefficient of F is the constant
(-1)^(a+b), so leading-coefficient degeneracy cannot fake a root. A
nonconstant eliminant gcd is reported as inconclusive, never as a proven
singularity. Nonsingular degree-d curves get genus (d-1)(d-2)/2 and are
irreducible outright.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .combinatorics import binomial
from .errors import PreconditionError
from .polynomials import (
    BiPoly,
    UniPoly,
    bipoly_resultant,
    isolate_real_roots,
    trial_div,
    unipoly_gcd,
)
from .ratios import Interval, ShiftPair


class Verdict(str, enum.Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


class Finiteness(str, enum.Enum):
    PROVEN_FINITE = "ProvenFinite"
    INFINITE_FAMILY = "InfiniteFamily"
    OPEN = "Open"


@dataclass(frozen=True)
class EliminantData:
    """Resultants of (F,F_x) and (F,F_y) in one elimination direction."""

    eliminated: str
    res_fx: UniPoly
    res_fy: UniPoly
    common_factor: UniPoly


@dataclass(frozen=True)
class AffineReport:
    verdict: Verdict
    primary: EliminantData
    secondary: EliminantData | None


@dataclass(frozen=True)
class Certificate:
    """Per-curve record: singularity verdicts, genus, finiteness class."""

    shift: ShiftPair
    degree: int
    affine_nonsingular: Verdict
    infinity_nonsingular: Verdict
    genus: int | None
    irreducible: bool | None
    finiteness: Finiteness
    eliminants: AffineReport

    def to_json_dict(self) -> dict:
        def poly_strings(p: UniPoly) -> list[str]:
            return [str(c) for c in p.coeffs]

        def eliminant_dict(e: EliminantData) -> dict:
            return {
                "eliminated": e.eliminated,
                "res_fx": poly_strings(e.res_fx),
                "res_fy": poly_strings(e.res_fy),
                "common_factor": poly_strings(e.common_factor),
            }

        out = {
            "a": self.shift.a,
            "b": self.shift.b,
            "degree": self.degree,
            "affine_nonsingular": self.affine_nonsingular.value,
            "infinity_nonsingular": self.infinity_nonsingular.value,
            "genus": self.genus,
            "irreducible": self.irreducible,
            "finiteness": self.finiteness.value,
            "eliminants": [eliminant_dict(self.eliminants.primary)],
        }
        if self.eliminants.secondary is not None:
            out["eliminants"].append(eliminant_dict(self.eliminants.secondary))
        return out


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


def top_form(shift: ShiftPair) -> BiPoly:
    """(x-y)^(a+b) - x^a y^b: the top-degree homogeneous part of the curve."""
    x = BiPoly.variable("x")
    y = BiPoly.variable("y")
    return (x - y) ** shift.degree - x**shift.a * y**shift.b


def _eliminant_data(f: BiPoly, fx: BiPoly, fy: BiPoly, var: str) -> EliminantData:
    res_fx = bipoly_resultant(f, fx, var)
    res_fy = bipoly_resultant(f, fy, var)
    return EliminantData(var, res_fx, res_fy, unipoly_gcd(res_fx, res_fy))


def affine_singular_check(shift: ShiftPair) -> AffineReport:
    """Certify that F = F_x = F_y = 0 has no affine solution.

    A common solution with y-coordinate y0 makes both Res_y(F,F_x) and
    Res_y(F,F_y) vanish at the x-coordinate, so a constant gcd of the two
    eliminants rules every candidate out; the converse does not hold, so a
    nonconstant gcd in both directions only yields "inconclusive".
    """
    f = build_curve(shift)
    fx = f.partial("x")
    fy = f.partial("y")
    primary = _eliminant_data(f, fx, fy, "y")
    if primary.common_factor.degree == 0:
        return AffineReport(Verdict.YES, primary, None)
    secondary = _eliminant_data(f, fx, fy, "x")
    if secondary.common_factor.degree == 0:
        return AffineReport(Verdict.YES, primary, secondary)
    return AffineReport(Verdict.INCONCLUSIVE, primary, secondary)


def infinity_singular_check(shift: ShiftPair) -> Verdict:
    """Certify the projective closure has no singular point on z = 0.

    Homogenizing F and restricting the three partials to z = 0 leaves the
    binary forms T_x, T_y (partials of the top form) and the degree-(d-1)
    homogeneous part of F. They must share no projective root: the points
    [1:0] and [0:1] are checked directly, everything else lives in the
    y = 1 chart where a constant gcd of the dehomogenizations decides.
    """
    f = build_curve(shift)
    d = shift.degree
    t = top_form(shift)
    forms = [t.partial("x"), t.partial("y"), f.homogeneous_part(d - 1)]
    if all(g.evaluate(1, 0) == 0 for g in forms):
        return Verdict.INCONCLUSIVE
    if all(g.evaluate(0, 1) == 0 for g in forms):
        return Verdict.INCONCLUSIVE
    gcd: UniPoly | None = None
    for g in forms:
        if not g:
            continue  # the zero form vanishes everywhere; it constrains nothing
        u = _x_section(g, 1)
        gcd = u if gcd is None else unipoly_gcd(gcd, u)
    if gcd is None or gcd.degree != 0:
        return Verdict.INCONCLUSIVE
    return Verdict.YES


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

    Genus uses the plane-curve formula (d-1)(d-2)/2, valid only for a
    nonsingular curve, so it is present exactly when both verdicts are
    yes; irreducibility then follows (components of a plane curve meet,
    and a meeting point would be singular).
    """
    affine = affine_singular_check(shift)
    infinity = infinity_singular_check(shift)
    d = shift.degree
    nonsingular = affine.verdict is Verdict.YES and infinity is Verdict.YES
    genus = (d - 1) * (d - 2) // 2 if nonsingular else None
    irreducible = True if nonsingular else None
    return Certificate(
        shift=shift,
        degree=d,
        affine_nonsingular=affine.verdict,
        infinity_nonsingular=infinity,
        genus=genus,
        irreducible=irreducible,
        finiteness=classify_finiteness(shift),
        eliminants=affine,
    )


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
        if trial_div(p, cand) is None:
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


def real_branches(
    shift: ShiftPair,
    y_values: Iterable[Fraction | int],
    width: Fraction = Fraction(1, 10**9),
) -> list[tuple[Fraction, list[Interval]]]:
    """Isolate the real x-branches of the curve above each requested y.

    Every real root of F(x, y0) gets a rational enclosure of width at most
    the requested one (default 1e-9); exact rational roots may come back
    as zero-width intervals. At most a+b branches per y.
    """
    f = build_curve(shift)
    out: list[tuple[Fraction, list[Interval]]] = []
    for y0 in y_values:
        y0 = Fraction(y0)
        section = _x_section(f, y0.numerator, y0.denominator)
        roots = [Interval(lo, hi) for lo, hi in isolate_real_roots(section, width)]
        out.append((y0, roots))
    return out


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

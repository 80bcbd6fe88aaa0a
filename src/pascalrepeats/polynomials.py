"""Exact polynomial arithmetic over the integers.

Univariate polynomials are dense coefficient tuples (index = degree);
bivariate polynomials are sparse maps from exponent pairs to coefficients.
The resultant is computed by fraction-free (subresultant) polynomial
remainder sequences, written generically so the same routine serves both
integer coefficients and polynomial coefficients (for bivariate
elimination). Real roots are isolated by Sturm sign variations and
bisection on integer numerators over a common power-of-two denominator;
the Sturm chain is the gcd's primitive remainder sequence with signs
fixed, and UniPoly.sign_at is the one evaluator. No floating point
anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import PreconditionError, ZeroPolynomialError

Scalar = Union[int, Fraction]


def _sgn(v) -> int:
    return (v > 0) - (v < 0)


class UniPoly:
    """Dense univariate polynomial with integer coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "UniPoly":
        return cls((c,))

    @classmethod
    def x_power(cls, e: int, c: int = 1) -> "UniPoly":
        return cls((0,) * e + (c,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, int):
            return UniPoly(c * other for c in self.coeffs)
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self or not other:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise PreconditionError("negative polynomial power")
        out = UniPoly((1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, v: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def sign_at(self, u: int | Fraction, w: int = 1) -> int:
        """Sign of self(u/w) for w > 0, evaluated in integers (no rational blowup).

        u/w need not be in lowest terms: the sum of c_i u^i w^(n-i) has the
        sign of self(u/w) for any positive w. A Fraction u is split into
        its numerator and denominator first.
        """
        if isinstance(u, Fraction):
            u, w = u.numerator, u.denominator * w
        acc = 0
        vp = 1
        for c in reversed(self.coeffs):
            acc = acc * u + c * vp
            vp *= w
        return _sgn(acc)

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def primitive_part(self) -> "UniPoly":
        c = self.content()
        if c in (0, 1):
            return self
        return UniPoly(v // c for v in self.coeffs)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        """Exact polynomial division over the integers; raises if inexact."""
        if not other:
            raise ZeroPolynomialError("division by the zero polynomial")
        if not self:
            return UniPoly()
        dq = self.degree - other.degree
        if dq < 0:
            raise ArithmeticError("inexact polynomial division")
        rem = list(self.coeffs)
        quot = [0] * (dq + 1)
        dl = other.leading
        for i in reversed(range(dq + 1)):
            c = rem[i + other.degree]
            if c == 0:
                continue
            q, r = divmod(c, dl)
            if r:
                raise ArithmeticError("inexact polynomial division")
            quot[i] = q
            for j, dc in enumerate(other.coeffs):
                rem[i + j] -= q * dc
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
        return UniPoly(quot)

    def __repr__(self) -> str:
        return f"UniPoly({format_unipoly(self, 'x')!r})"


def format_unipoly(p: UniPoly, var: str = "x") -> str:
    """Human-readable rendering, highest degree first."""
    if not p:
        return "0"
    parts = []
    for e in range(p.degree, -1, -1):
        c = p.coeffs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = f"{var}" if mag == 1 else f"{mag}*{var}"
        else:
            body = f"{var}^{e}" if mag == 1 else f"{mag}*{var}^{e}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def trial_div(p: UniPoly, d: UniPoly) -> UniPoly | None:
    """Quotient p/d over the integers when the division is exact, else None."""
    try:
        return p.exact_div(d)
    except ArithmeticError:
        return None


# ---------------------------------------------------------------------------
# Generic fraction-free remainder sequences.
#
# The element type R is either int or UniPoly; both support +, -, *, **,
# and an exact-division helper below. Polynomials over R are plain lists of
# R values in ascending order with a nonzero last element.
# ---------------------------------------------------------------------------


def _elem_exact_div(a, b):
    if isinstance(a, UniPoly):
        return a.exact_div(b)
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact coefficient division")
    return q


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _prem(u: list, v: list) -> list:
    """Pseudo-remainder: lc(v)^(deg u - deg v + 1) * u  mod  v."""
    dv = len(v) - 1
    lv = v[-1]
    r = list(u)
    e = len(u) - len(v) + 1
    while len(r) - 1 >= dv and r:
        lead = r[-1]
        shift = len(r) - 1 - dv
        r = [c * lv for c in r[:-1]]
        for j in range(dv):
            r[shift + j] = r[shift + j] - lead * v[j]
        _trim(r)
        e -= 1
    if e > 0:
        f = lv ** e
        r = [c * f for c in r]
    return r


def _resultant_lists(pa: list, pb: list):
    """Resultant of two nonzero polynomials over R by subresultant PRS.

    Sign convention matches the Sylvester determinant with the rows of the
    first argument on top.
    """
    A, B = list(pa), list(pb)
    da, db = len(A) - 1, len(B) - 1
    sign = 1
    if da < db:
        if (da * db) % 2:
            sign = -sign
        A, B = B, A
        da, db = db, da
    one = A[-1] ** 0
    zero = A[-1] * 0
    if db == 0:
        return sign * (B[-1] ** da) if da > 0 else one
    g = one
    h = one
    while True:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if (da % 2) and (db % 2):
            sign = -sign
        R = _prem(A, B)
        if not R:
            return zero  # common factor of positive degree
        div = g * h ** delta
        A = B
        B = [_elem_exact_div(c, div) for c in R]
        g = A[-1]
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = _elem_exact_div(g ** delta, h ** (delta - 1))
        if len(B) - 1 == 0:
            dA = len(A) - 1
            if dA == 1:
                out = B[-1]
            else:
                out = _elem_exact_div(B[-1] ** dA, h ** (dA - 1))
            return sign * out


def unipoly_resultant(p: UniPoly, q: UniPoly) -> int:
    if not p or not q:
        raise ZeroPolynomialError("resultant of a zero polynomial")
    return _resultant_lists(list(p.coeffs), list(q.coeffs))


def _signed_prs(a: UniPoly, b: UniPoly) -> Iterator[UniPoly]:
    """a, b, then the primitive pseudo-remainders up to the last nonzero one.

    Each term is primitive_part(prem(prev, last)) signed to be a positive
    multiple of -rem(prev, last). prem is lc(last)^e * rem with
    e = deg(prev) - deg(last) + 1, so the sign flips unless lc(last) < 0
    and e is odd. Positive multiples leave every sign, hence every Sturm
    sign variation, as in the textbook chain; the last term is a gcd.
    """
    yield a
    while b:
        yield b
        r = UniPoly(_prem(list(a.coeffs), list(b.coeffs))).primitive_part()
        if b.leading > 0 or (a.degree - b.degree) % 2:
            r = -r
        a, b = b, r


def unipoly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Greatest common divisor in Z[x], positive leading coefficient."""
    if not p and not q:
        return UniPoly()
    if not p:
        return q if q.leading > 0 else -q
    if not q:
        return p if p.leading > 0 else -p
    c = math.gcd(p.content(), q.content())
    a, b = p.primitive_part(), q.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    for g in _signed_prs(a, b):
        pass
    if g.leading < 0:
        g = -g
    return g * c


def squarefree_part(p: UniPoly) -> UniPoly:
    """The product of the distinct irreducible factors of p (primitive)."""
    if not p:
        raise ZeroPolynomialError("squarefree part of the zero polynomial")
    pp = p.primitive_part()
    if pp.degree <= 0:
        return UniPoly((1,))
    g = unipoly_gcd(pp, pp.derivative())
    return pp.exact_div(g.primitive_part())


# ---------------------------------------------------------------------------
# Sturm-sequence real root isolation.
# ---------------------------------------------------------------------------


def _variations(chain: list[UniPoly], v: Fraction) -> int:
    signs = [s for s in (q.sign_at(v) for q in chain) if s]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-M, M)."""
    if p.degree < 1:
        raise ZeroPolynomialError("root bound needs positive degree")
    lead = abs(p.leading)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def _split_point(sf: UniPoly, lo: Fraction, hi: Fraction) -> Fraction:
    # a point strictly inside (lo, hi) that is not a root, nearest the middle
    den = 2
    while True:
        for j in sorted(range(1, den, 2), key=lambda j: abs(2 * j - den)):
            m = lo + (hi - lo) * Fraction(j, den)
            if sf.sign_at(m) != 0:
                return m
        den *= 2


def bisect_root(sf: UniPoly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Halve [lo, hi], which holds exactly one root of sf, until hi - lo <= width.

    Keeps the half whose ends differ in sign; a midpoint that is itself a
    root comes back as [m, m]. The ends are integer numerators u, v over
    one denominator w that doubles at each halving, so v - u stays fixed
    and no Fraction is built until the return. The caller checks that
    width is positive.
    """
    w = math.lcm(lo.denominator, hi.denominator)
    u, v = lo.numerator * (w // lo.denominator), hi.numerator * (w // hi.denominator)
    span = (v - u) * width.denominator  # (hi - lo) > width  <=>  span > width.numerator * w
    slo = sf.sign_at(u, w)
    while span > width.numerator * w:
        m = u + v
        w *= 2
        sm = sf.sign_at(m, w)
        if sm == 0:
            return Fraction(m, w), Fraction(m, w)  # landed exactly on a rational root
        if sm == slo:
            u, v = m, 2 * v
        else:
            u, v = 2 * u, m
    return Fraction(u, w), Fraction(v, w)


def isolate_real_roots(p: UniPoly, width: Fraction = Fraction(1, 10**9)) -> list[tuple[Fraction, Fraction]]:
    """Rational enclosures of every real root of p, one per root, ascending.

    Each enclosure has width <= the requested width; an exact rational root
    may come back as a degenerate [r, r] interval. No two enclosures share
    an interior point, but neighbours may share an end, a split point that
    is not a root. Multiplicities are not reported (isolation runs on the
    squarefree part).
    """
    if not p:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if width <= 0:
        raise PreconditionError("enclosure width must be positive")
    if p.degree < 1:
        return []
    sf = squarefree_part(p)
    if sf.degree < 1:
        return []
    chain = list(_signed_prs(sf, sf.derivative()))
    bound = root_bound(sf)
    out: list[tuple[Fraction, Fraction]] = []

    def walk(lo: Fraction, hi: Fraction, nroots: int) -> None:
        if nroots == 0:
            return
        if nroots == 1:
            out.append(bisect_root(sf, lo, hi, width))
            return
        m = _split_point(sf, lo, hi)
        left = _variations(chain, lo) - _variations(chain, m)
        walk(lo, m, left)
        walk(m, hi, nroots - left)

    total = _variations(chain, -bound) - _variations(chain, bound)
    walk(-bound, bound, total)
    return sorted(out)


# ---------------------------------------------------------------------------
# Bivariate polynomials.
# ---------------------------------------------------------------------------

_VARS = ("x", "y")


class BiPoly:
    """Sparse bivariate integer polynomial: {(x_exp, y_exp): coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        clean = {e: c for e, c in (terms or {}).items() if c != 0}
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, var: str) -> "BiPoly":
        if var not in _VARS:
            raise PreconditionError(f"unknown variable {var!r}")
        return cls({(1, 0) if var == "x" else (0, 1): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "BiPoly":
        return BiPoly({e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "BiPoly":
        if isinstance(other, int):
            other = BiPoly.constant(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return BiPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "BiPoly":
        if isinstance(other, int):
            other = BiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        return (-self) + other

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, int):
            return BiPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "BiPoly":
        if e < 0:
            raise PreconditionError("negative polynomial power")
        out = BiPoly.constant(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        idx = _VARS.index(var)
        return max((e[idx] for e in self.terms), default=-1)

    def coefficient(self, i: int, j: int) -> int:
        return self.terms.get((i, j), 0)

    def partial(self, var: str) -> "BiPoly":
        """Formal partial derivative with respect to x or y."""
        if var not in _VARS:
            raise PreconditionError(f"unknown variable {var!r}")
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self.terms.items():
            if var == "x" and i > 0:
                out[(i - 1, j)] = c * i
            elif var == "y" and j > 0:
                out[(i, j - 1)] = c * j
        return BiPoly(out)

    def homogeneous_part(self, d: int) -> "BiPoly":
        return BiPoly({e: c for e, c in self.terms.items() if e[0] + e[1] == d})

    def evaluate(self, x: Scalar, y: Scalar) -> Scalar:
        acc: Scalar = 0
        for (i, j), c in self.terms.items():
            acc += c * x**i * y**j
        return acc

    def coeffs_in(self, var: str) -> list[UniPoly]:
        """Coefficients as polynomials in the other variable, ascending in var."""
        idx = _VARS.index(var)
        d = self.degree_in(var)
        if d < 0:
            return []
        rows: list[dict[int, int]] = [{} for _ in range(d + 1)]
        for (i, j), c in self.terms.items():
            main, other = (i, j) if idx == 0 else (j, i)
            rows[main][other] = c
        out = []
        for row in rows:
            size = max(row) + 1 if row else 0
            cs = [0] * size
            for e, c in row.items():
                cs[e] = c
            out.append(UniPoly(cs))
        return out

    def __repr__(self) -> str:
        return f"BiPoly({format_bipoly(self)!r})"


def format_bipoly(p: BiPoly) -> str:
    """Canonical rendering: graded order, higher x-power first within a degree."""
    if not p:
        return "0"
    keys = sorted(p.terms, key=lambda e: (-(e[0] + e[1]), -e[0]))
    parts = []
    for i, j in keys:
        c = p.terms[(i, j)]
        mag = abs(c)
        factors = []
        if i == 1:
            factors.append("x")
        elif i > 1:
            factors.append(f"x^{i}")
        if j == 1:
            factors.append("y")
        elif j > 1:
            factors.append(f"y^{j}")
        body = "*".join(factors) if factors else str(mag)
        if factors and mag != 1:
            body = f"{mag}*{body}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def bipoly_resultant(p: BiPoly, q: BiPoly, eliminate: str) -> UniPoly:
    """Resultant of p and q with respect to one variable.

    Eliminating y yields a univariate polynomial in x and vice versa. Raises
    ZeroPolynomialError when either input is zero. The sign convention is
    the Sylvester determinant with p's rows first.
    """
    if eliminate not in _VARS:
        raise PreconditionError(f"unknown variable {eliminate!r}")
    if not p or not q:
        raise ZeroPolynomialError("resultant of a zero polynomial")
    pc = p.coeffs_in(eliminate)
    qc = q.coeffs_in(eliminate)
    res = _resultant_lists(pc, qc)
    return res if isinstance(res, UniPoly) else UniPoly((res,))

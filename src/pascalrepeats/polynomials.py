"""Exact polynomial arithmetic over the integers.

Univariate polynomials are dense coefficient tuples (index = degree);
bivariate polynomials are sparse maps from exponent pairs to coefficients.
The resultant, for bivariate elimination, is computed by a
fraction-free (subresultant) polynomial remainder sequence whose
coefficients are univariate polynomials; its pseudo-remainder step is
generic and also serves the integer Sturm chains. unipoly_gcd first
proves a constant gcd modulo the prime 2^61 - 1 when it can, and runs
its exact remainder sequence only when that fails. Over GF(2^61 - 1),
one remainder step serves the gcd degree and a resultant by Euclid with
the Sylvester sign convention, and Newton's forward differences
interpolate a polynomial from its values at 0..n-1; curves.certify
builds its modular eliminants from the two.
Real roots are isolated by Sturm sign variations and bisection on
integer numerators over a common power-of-two denominator; past 64
halvings, or at once from a hint such as a neighbouring section's root,
an integer Newton iteration names the cell the halving would end in,
and two exact sign tests prove it. One signed primitive
remainder sequence of (p, p') is both the Sturm chain and, through its
last term gcd(p, p'), the squarefree part that bisection runs on.
UniPoly.sign_at(u, w), the sign at an integer u over an integer w > 0,
is the one evaluator. One square-and-multiply serves both polynomial
types' powers, and one renderer their text. No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from .errors import PreconditionError, ZeroPolynomialError

Scalar = Union[int, Fraction]


def _sgn(v) -> int:
    return (v > 0) - (v < 0)


def _power(base, e: int, one):
    """base**e by square-and-multiply, for UniPoly and BiPoly alike."""
    if e < 0:
        raise PreconditionError("negative polynomial power")
    out = one
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def _monomial(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _render_terms(terms: Iterable[tuple[int, str]]) -> str:
    """Join nonzero (coefficient, monomial) terms as "3*x^2 - x + 1"; "" is the unit monomial."""
    parts = []
    for c, mono in terms:
        mag = abs(c)
        if not mono:
            body = str(mag)
        else:
            body = mono if mag == 1 else f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


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
        return _power(self, e, UniPoly((1,)))

    def __call__(self, v: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def sign_at(self, u: int, w: int = 1) -> int:
        """Sign of self(u/w) for integers u and w > 0, evaluated in integers.

        u/w need not be in lowest terms: the sum of c_i u^i w^(n-i) has the
        sign of self(u/w) for any positive w. A caller holding a Fraction q
        passes q.numerator and q.denominator.
        """
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
    return _render_terms((p.coeffs[e], _monomial(var, e)) for e in range(p.degree, -1, -1) if p.coeffs[e])


# ---------------------------------------------------------------------------
# Fraction-free remainder sequences.
#
# Polynomials over R are plain lists of R values in ascending order with a
# nonzero last element. _prem and _trim serve R = int (the Sturm chains of
# _signed_prs) and R = UniPoly (bivariate elimination) alike; the
# resultant runs over R = UniPoly only, for bipoly_resultant.
# ---------------------------------------------------------------------------


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


def _resultant_lists(pa: list[UniPoly], pb: list[UniPoly]) -> UniPoly:
    """Resultant of two nonzero polynomials over Z[x] by subresultant PRS.

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
    one = UniPoly((1,))
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
            return UniPoly()  # common factor of positive degree
        div = g * h ** delta
        A = B
        B = [c.exact_div(div) for c in R]
        g = A[-1]
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = (g ** delta).exact_div(h ** (delta - 1))
        if len(B) - 1 == 0:
            dA = len(A) - 1
            if dA == 1:
                out = B[-1]
            else:
                out = (B[-1] ** dA).exact_div(h ** (dA - 1))
            return sign * out


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


_GCD_PRIME = (1 << 61) - 1  # a Mersenne prime


def _rem_mod(a: list[int], b: list[int]) -> list[int]:
    """a mod b over GF(m), m = _GCD_PRIME, in place on a; b's last element is nonzero mod m."""
    m = _GCD_PRIME
    inv = pow(b[-1], -1, m)
    low = b[:-1]
    db = len(low)
    while len(a) > db:
        f = a.pop() * inv % m
        s = len(a) - db
        a[s:] = [(c - f * d) % m for c, d in zip(a[s:], low)]
        _trim(a)
    return a


def _gcd_degree_mod(p: UniPoly, q: UniPoly) -> int:
    """Degree of gcd(p mod m, q mod m) over GF(m), m = _GCD_PRIME, by Euclid; -1 if both vanish."""
    m = _GCD_PRIME
    a = _trim([c % m for c in p.coeffs])
    b = _trim([c % m for c in q.coeffs])
    while b:
        a, b = b, _rem_mod(a, b)
    return len(a) - 1


def _resultant_mod(a: list[int], b: list[int]) -> int:
    """Res(a, b) mod m, m = _GCD_PRIME, for coefficient lists whose last elements are nonzero mod m.

    Euclid over GF(m) with the Sylvester sign convention of
    _resultant_lists. With r = a mod b, Res(a, b) = (-1)^(deg a * deg b)
    Res(b, a), and Res(b, a) = lc(b)^(deg a - deg r) Res(b, r), since a
    and r agree at every root of b. Res(b, 0) = 0 when deg b >= 1, and
    Res(a, c) = c^(deg a) for a constant c.
    """
    m = _GCD_PRIME
    a = [c % m for c in a]
    b = [c % m for c in b]
    out = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        r = _rem_mod(a, b)
        if not r:
            return 0
        if da * db % 2:
            out = -out
        out = out * pow(b[-1], da - len(r) + 1, m) % m
        a, b = b, r
    return out * pow(b[0], len(a) - 1, m) % m


def _interpolate_mod(values: list[int]) -> list[int]:
    """Coefficients mod m, m = _GCD_PRIME, ascending, of the polynomial of degree < n through (i, values[i]).

    Newton's forward-difference form: with n = len(values) <= m, the
    polynomial is the sum over k of (Delta^k v)(0) / k! * x(x-1)...(x-k+1),
    one inverse per order k, expanded by Horner in the falling basis.
    """
    m = _GCD_PRIME
    c = [v % m for v in values]
    n = len(c)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) % m
    fact = 1
    for k in range(2, n):
        fact = fact * k % m
        c[k] = c[k] * pow(fact, -1, m) % m
    out = c[-1:]
    for k in range(n - 2, -1, -1):
        # out = out * (x - k) + c[k]
        out = [(c[k] - k * out[0]) % m] + [(out[i - 1] - k * out[i]) % m for i in range(1, len(out))] + out[-1:]
    return _trim(out)


def unipoly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Greatest common divisor in Z[x], positive leading coefficient.

    A constant gcd is proved modulo the prime P = 2^61 - 1 when P divides
    neither leading coefficient. The gcd g over Z divides p, so lc(g)
    divides lc(p) and P does not divide lc(g): g mod P keeps the degree of
    g. And g mod P divides both p mod P and q mod P, hence their gcd over
    GF(P). So deg g <= deg gcd(p mod P, q mod P), and a constant gcd mod P
    proves deg g = 0. Then g is the gcd of the contents, which is what the
    remainder sequence returns, and no _signed_prs runs. Otherwise (a
    nonconstant gcd mod P, or P dividing a leading coefficient) the exact
    primitive remainder sequence decides.
    """
    if not p and not q:
        return UniPoly()
    if not p:
        return q if q.leading > 0 else -q
    if not q:
        return p if p.leading > 0 else -p
    c = math.gcd(p.content(), q.content())
    if p.leading % _GCD_PRIME and q.leading % _GCD_PRIME and _gcd_degree_mod(p, q) == 0:
        return UniPoly((c,))
    a, b = p.primitive_part(), q.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    for g in _signed_prs(a, b):
        pass
    if g.leading < 0:
        g = -g
    return g * c


# ---------------------------------------------------------------------------
# Sturm-sequence real root isolation.
# ---------------------------------------------------------------------------


def _sign_changes(signs: Iterable[int]) -> int:
    """Changes along a sequence of signs, zeros skipped."""
    nonzero = [s for s in signs if s]
    return sum(1 for s1, s2 in zip(nonzero, nonzero[1:]) if s1 != s2)


def _variations(chain: list[UniPoly], v: Fraction) -> int:
    """Sign changes along the chain's values at v, zeros skipped."""
    return _sign_changes(q.sign_at(v.numerator, v.denominator) for q in chain)


def _real_root_count(chain: list[UniPoly]) -> int:
    """V(-inf) - V(+inf) of the chain, read from its leading coefficients and degrees.

    Near +inf each term has the sign of its leading coefficient lc, near
    -inf the sign of lc*(-1)^deg.
    """
    at_minus = _sign_changes(-_sgn(q.leading) if q.degree % 2 else _sgn(q.leading) for q in chain)
    return at_minus - _sign_changes(_sgn(q.leading) for q in chain)


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-M, M).

    M = 1 + max |c_i / lead|; the leading coefficient is common to every
    term, so one Fraction of the largest |c_i| is the same value.
    """
    if p.degree < 1:
        raise ZeroPolynomialError("root bound needs positive degree")
    return 1 + Fraction(max(abs(c) for c in p.coeffs[:-1]), abs(p.leading))


def _split_point(sf: UniPoly, lo: Fraction, hi: Fraction) -> Fraction:
    # a point strictly inside (lo, hi) that is not a root, nearest the middle
    den = 2
    while True:
        for j in sorted(range(1, den, 2), key=lambda j: abs(2 * j - den)):
            m = lo + (hi - lo) * Fraction(j, den)
            if sf.sign_at(m.numerator, m.denominator) != 0:
                return m
        den *= 2


_SEED_HALVINGS = 64  # plain halvings before, and between, tries of the Newton cell
_GUARD_BITS = 16  # bits Newton carries beyond the cell level
_CELL_TRIES = 4  # cells a Newton index may move through before halving resumes


def _shifted(sf: UniPoly, u: int, d: int, w: int) -> list[int]:
    """Coefficients of q(t) = w^n * sf((u + t*d)/w), n = deg sf, ascending, by Horner."""
    q = [sf.coeffs[-1]]
    wp = 1
    for c in reversed(sf.coeffs[:-1]):
        wp *= w
        q = [u * q[0] + c * wp] + [u * q[i] + d * q[i - 1] for i in range(1, len(q))] + [d * q[-1]]
    return q


def _newton_index(sf: UniPoly, u: int, d: int, w: int, k: int, start: tuple[int, int] | None = None) -> int | None:
    """An estimate of floor(2^k t) for the root t in (0, 1) of q(t) = w^n sf((u + t*d)/w).

    Newton's iteration on q in fixed point: t is an integer T over 2^prec,
    and one Horner pass gives q and q' at T/2^prec, each times 2^prec and
    floored at every step. Without a start, prec starts at 32 and t at
    1/2. Once a step is at most 2^(prec/2), the iterate had about prec/2
    right bits and now has about prec, since Newton's error squares near a
    simple root, so prec doubles, up to the goal of k plus guard bits, and
    a step of at most 2^(goal/2) ends the iteration. That stop suits
    the narrow bracket left by the seed halvings, where the squared error
    carries a small factor; on a whole bracket the factor is large. So a
    start (n, m), a hint at t = n/m, runs at the goal precision at once
    and stops only on a step of at most 2^_GUARD_BITS, one level-k cell.
    None when an iterate leaves [0, 1], q' vanishes, or the steps do not
    settle. The index is only an estimate; _newton_cell proves it or
    moves it.
    """
    q = _shifted(sf, u, d, w)
    goal = max(32, k + _GUARD_BITS)
    if start is None:
        prec, t, settled = 32, 1 << 31, 1 << (goal // 2)
    else:
        prec, t, settled = goal, (start[0] << goal) // start[1], 1 << _GUARD_BITS
    for _ in range(8 + goal.bit_length()):
        a, b = q[-1] << prec, 0
        for c in reversed(q[:-1]):
            b = ((b * t) >> prec) + a
            a = ((a * t) >> prec) + (c << prec)
        if not b:
            return None
        step = (a << prec) // b
        t -= step
        if not 0 <= t <= 1 << prec:
            return None
        if prec == goal:
            if abs(step) <= settled:
                return t >> (prec - k)
        elif abs(step) <= 1 << (prec // 2):
            t <<= min(prec, goal - prec)
            prec = min(2 * prec, goal)
    return None


def _newton_cell(
    sf: UniPoly, u: int, d: int, w: int, k: int, slo: int, start: tuple[int, int] | None = None
) -> tuple[Fraction, Fraction] | None:
    """The level-k cell of the bracket [u, u+d]/w that bisection would return, or None.

    The cells are [u*2^k + j*d, u*2^k + (j+1)*d]/(w*2^k), 0 <= j < 2^k.
    sf has the sign slo left of its root in the bracket and -slo right of
    it, so the cell holds the root exactly when its left end has sign slo
    and its right end -slo; a wrong sign moves j by one toward the root.
    A zero sign is the root itself, a grid point, returned as [r, r].
    start is _newton_index's.
    """
    j = _newton_index(sf, u, d, w, k, start)
    if j is None:
        return None
    base, den = u << k, w << k
    for _ in range(_CELL_TRIES):
        j = min(max(j, 0), (1 << k) - 1)
        left = base + j * d
        s = sf.sign_at(left, den)
        if s == 0:
            return Fraction(left, den), Fraction(left, den)
        if s != slo:
            j -= 1
            continue
        s = sf.sign_at(left + d, den)
        if s == 0:
            return Fraction(left + d, den), Fraction(left + d, den)
        if s == slo:
            j += 1
            continue
        return Fraction(left, den), Fraction(left + d, den)
    return None


def _halvings(span: int, unit: int) -> int:
    """The least k with span <= unit * 2^k: the halvings bisect_root still has to make."""
    return (-(-span // unit) - 1).bit_length()


def bisect_root(
    sf: UniPoly, lo: Fraction, hi: Fraction, width: Fraction, hint: tuple[int, int] | None = None
) -> tuple[Fraction, Fraction]:
    """Halve [lo, hi], which holds exactly one root r of sf, until hi - lo <= width.

    Neither end is a root, and sf changes sign at r (r is simple in every
    caller). Keeps the half whose ends differ in sign; a midpoint that is
    itself a root comes back as [m, m]. The ends are integer numerators
    u, v over one denominator w that doubles at each halving, so v - u
    stays fixed and no Fraction is built until the return. The caller
    checks that width is positive.

    What the halving returns is fixed in advance, which lets a Newton
    cell skip it. Let k be the number of halvings it makes, the least with
    (hi - lo)/2^k <= width, and call lo + i*(hi - lo)/2^k the level-k
    grid. If r is on that grid, it is first a grid point at some level
    l <= k; at level l-1 it lies inside the cell being halved, whose
    midpoint it is, so halving returns [r, r]. Otherwise halving returns
    the one level-k cell with r inside. So once the bracket is 2^-64 of
    its start, _newton_index estimates the index of r's cell by integer
    Newton with doubling precision, and _newton_cell proves the cell with
    two exact sign_at tests or finds r on the grid; both give what the
    halving would. If the tests fail after a few moves of the index,
    halving goes on from the last proved bracket, and the cell is tried
    again 64 halvings later.

    A hint (hu, hw), the rational hu/hw with hw > 0, is a guess at r, such
    as the root of a neighbouring section. When it lies strictly inside
    (lo, hi), Newton starts from it at once, on the whole bracket, and
    _newton_cell tests the level-k cell it names before any halving. The
    proof above does not depend on where Newton started: a cell is
    returned only when its two exact sign tests prove it, or a zero sign
    finds r on the grid. On None the halving runs as without a hint, so a
    bad hint costs time and never changes the result.
    """
    w = math.lcm(lo.denominator, hi.denominator)
    u, v = lo.numerator * (w // lo.denominator), hi.numerator * (w // hi.denominator)
    span = (v - u) * width.denominator  # (hi - lo) > width  <=>  span > width.numerator * w
    slo = sf.sign_at(u, w)
    if hint is not None and span > width.numerator * w:
        hu, hw = hint
        t = (hu * w - u * hw, (v - u) * hw)  # the hint as a fraction of the bracket
        if 0 < t[0] < t[1]:
            cell = _newton_cell(sf, u, v - u, w, _halvings(span, width.numerator * w), slo, t)
            if cell is not None:
                return cell
    newton_at = w << _SEED_HALVINGS
    while span > width.numerator * w:
        if w == newton_at:
            cell = _newton_cell(sf, u, v - u, w, _halvings(span, width.numerator * w), slo)
            if cell is not None:
                return cell
            newton_at <<= _SEED_HALVINGS
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


def isolate_real_roots(
    p: UniPoly, width: Fraction = Fraction(1, 10**9), hints: Sequence[tuple[int, int]] = ()
) -> list[tuple[Fraction, Fraction]]:
    """Rational enclosures of every real root of p, one per root, ascending.

    Each enclosure has width <= the requested width; an exact rational root
    may come back as a degenerate [r, r] interval. No two enclosures share
    an interior point, but neighbours may share an end, a split point that
    is not a root. Multiplicities are not reported.

    One remainder sequence serves both the count and the squarefree part.
    For the primitive part pp, the signed chain of (pp, pp') ends in
    g = gcd(pp, pp'), and sf = pp/g has the distinct roots of p, each
    simple. At a point v with pp(v) != 0, g(v) != 0 too, and dividing
    every term by g(v) keeps the sign variations; the quotients form a
    Sturm sequence of sf. So V(lo) - V(hi) of the chain counts the
    distinct roots in (lo, hi) even when p has repeated roots (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, 2006,
    Thm 2.50). Every point the chain is read at is a split point where
    sf, hence pp, is nonzero. Bisection, split points and the root bound
    use sf.

    The walk starts on (-B, B), B = root_bound(sf), with the count
    V(-inf) - V(+inf) read from the chain's leading coefficients and
    degrees, which evaluates nothing. That is the count on (-B, B): by the
    same theorem, V(-inf) - V(-B) and V(B) - V(+inf) count the distinct
    roots of sf in (-inf, -B] and (B, +inf), and there are none, since
    every real root of sf lies strictly inside (-B, B).

    hints are guesses (u, w) at roots, each the rational u/w with w > 0.
    The walk does not read them: each bracket it hands to bisect_root
    with one root gets the first hint strictly inside it, if any, and
    bisect_root returns the same enclosure with or without it.
    """
    if not p:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if width <= 0:
        raise PreconditionError("enclosure width must be positive")
    if p.degree < 1:
        return []
    pp = p.primitive_part()
    chain = list(_signed_prs(pp, pp.derivative()))
    sf = pp.exact_div(chain[-1].primitive_part())
    bound = root_bound(sf)
    out: list[tuple[Fraction, Fraction]] = []

    def inside(lo: Fraction, hi: Fraction) -> tuple[int, int] | None:
        for hu, hw in hints:
            if lo.numerator * hw < hu * lo.denominator and hu * hi.denominator < hi.numerator * hw:
                return hu, hw
        return None

    def walk(lo: Fraction, hi: Fraction, nroots: int) -> None:
        if nroots == 0:
            return
        if nroots == 1:
            out.append(bisect_root(sf, lo, hi, width, inside(lo, hi)))
            return
        m = _split_point(sf, lo, hi)
        left = _variations(chain, lo) - _variations(chain, m)
        walk(lo, m, left)
        walk(m, hi, nroots - left)

    walk(-bound, bound, _real_root_count(chain))
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
        return _power(self, e, BiPoly.constant(1))

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
    keys = sorted(p.terms, key=lambda e: (-(e[0] + e[1]), -e[0]))
    return _render_terms(
        (p.terms[(i, j)], "*".join(m for m in (_monomial("x", i), _monomial("y", j)) if m)) for i, j in keys
    )


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
    return _resultant_lists(pc, qc)

"""Exact polynomial arithmetic over the integers.

Univariate polynomials are dense coefficient tuples (index = degree);
bivariate polynomials are sparse maps from exponent pairs to coefficients.
The resultant Res_y, which eliminates y, is computed by a
fraction-free (subresultant) polynomial remainder sequence whose
coefficients are univariate polynomials; its pseudo-remainder step is
generic and also serves the integer Sturm chains. The modular kernel
runs over GF(m) for a prime m passed in; curves chooses the primes.
unipoly_gcd is exact: one primitive remainder sequence, with no
modular test. Over GF(m), one remainder step serves a resultant by
Euclid with the Sylvester sign convention, and Newton's forward
differences interpolate a polynomial from its values
at 0..n-1. _resultants_mod runs that Euclid on many points in
lockstep: one row of residues per coefficient, one batch inverse
(_inverses_mod) per step, and the scalar _resultant_mod only for a
point whose remainder loses its leading coefficient. The scalar one is
also curves' squarefree test, Res(R, R') mod p. _values_mod
evaluates a polynomial at 0..n-1 by Horner over the whole row of
points. curves.affine_singular_check builds its modular eliminant from
these. bipoly_resultant, the exact Res_y, runs on no CLI path: it is
the tests' oracle for the modular eliminant.
Real roots are isolated by Sturm sign variations and bisection on
integer numerators over a common power-of-two denominator; past 64
halvings, or at once from a hint such as a neighbouring section's root,
an integer Newton iteration names the cell the halving would end in,
and two exact sign tests prove it. One signed primitive
remainder sequence of (p, p'), as integer lists, is both the Sturm chain
and, through its last term gcd(p, p'), the squarefree part that
bisection runs on. _sturm_chains forms the chains of a block of
polynomials of one degree in lockstep, term for term _signed_prs's; the
walk, _isolate_chain, takes a chain from either. V(-inf) and V(+inf) are
read in one pass over the chain's leading terms. The walk holds its
brackets in integers too, and hands each one-root bracket and the width,
as numerators and denominators, to _bisect, the one bisection, which
search and ratios call with their own integers too. None of these
integers need be in lowest terms: every test compares values.
_sign_at(coeffs, u, w), the sign at u/w for integers u and w > 0, reads
the chain there and serves UniPoly.sign_at, bisection's evaluator.
UniPoly.__call__ gives the exact value where
the value itself is used: zeta_poly at +-1 in irrationality_check, and
a section at each integer x in lattice_points_in_box. _linear_product
expands a product of linear factors into its coefficients. BiPoly has
no ring arithmetic: it holds its terms, and derivatives, homogeneous
parts and coefficient columns are read off them; curves.build_curve
writes F's terms out in closed form. One renderer serves both
polynomial types' text. No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence, Union

from .errors import PreconditionError, ZeroPolynomialError

Scalar = Union[int, Fraction]


def _sgn(v) -> int:
    return (v > 0) - (v < 0)


def _sign_at(coeffs: Sequence[int], u: int, w: int) -> int:
    """Sign at u/w, w > 0, of the polynomial with ascending coefficients coeffs, by integer Horner."""
    acc = 0
    vp = 1
    for c in reversed(coeffs):
        acc = acc * u + c * vp
        vp *= w
    return _sgn(acc)


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
        """self**e by square-and-multiply."""
        if e < 0:
            raise PreconditionError("negative polynomial power")
        out, base = UniPoly((1,)), self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

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
        return _sign_at(self.coeffs, u, w)

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


def _linear_product(pairs: Iterable[tuple[int, int]]) -> UniPoly:
    """The product of the linear polynomials u + v*t, ascending coefficients."""
    out = [1]
    for u, v in pairs:
        out = [u * out[0]] + [u * out[i] + v * out[i - 1] for i in range(1, len(out))] + [v * out[-1]]
    return UniPoly(out)


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


def _signed_prs(a: Sequence[int], b: Sequence[int]) -> Iterator[Sequence[int]]:
    """a, b, then the primitive pseudo-remainders up to the last nonzero one.

    Each term is prem(prev, last) divided by the gcd of its coefficients
    and signed to be a positive multiple of -rem(prev, last). prem is
    lc(last)^e * rem with e = deg(prev) - deg(last) + 1, so the sign flips
    unless lc(last) < 0 and e is odd; one division by the negated gcd
    makes both changes. Positive multiples leave every sign, hence every
    Sturm sign variation, as in the textbook chain; the last term is a gcd.
    """
    yield a
    while b:
        yield b
        r = _prem(a, b)
        g = math.gcd(*r)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            g = -g
        a, b = b, [c // g for c in r]


def _sturm_chains(sections: Sequence[UniPoly]) -> list[tuple[UniPoly, list[Sequence[int]]]]:
    """(pp, _signed_prs(pp, pp')'s chain, term for term) for each of sections of one degree n >= 1.

    The chains are formed in lockstep. Rows are coefficient indices and
    columns are sections, so each step is one comprehension per row, and
    map(math.gcd, *rows) gives every section's content, then every
    remainder's gcd. While each remainder drops the degree by one, the
    degree parity is odd for the whole block, so _signed_prs's sign rule
    divides every remainder by its negated gcd. prem(a, b) is then two
    steps of pseudo-division, taken without trimming: a vanishing lead in
    the second only multiplies by lc(b), the factor that _prem applies at
    its end as lc(b)^e, so the result equals _prem's. A section whose
    remainder has leading coefficient 0, because the remainder vanishes
    (repeated roots) or the degree drops by more than one, leaves the
    block, and scalar _signed_prs finishes its chain from its current pair.
    """
    rows = list(zip(*(s.coeffs for s in sections)))
    g = list(map(math.gcd, *rows))
    a = [[c // d for c, d in zip(row, g)] for row in rows]
    b = [[i * c for c in row] for i, row in enumerate(a) if i]
    out = [(UniPoly(col), [col]) for col in zip(*a)]
    live = list(range(len(out)))
    zero = [0] * len(live)
    while live:
        for k, col in zip(live, zip(*b)):
            out[k][1].append(col)
        if len(b) == 1:
            break
        la, lb = a[-1], b[-1]
        r = [[x * l - y * m for x, y, l, m in zip(ar, br, lb, la)] for ar, br in zip(a[:-1], [zero] + b[:-1])]
        t = r[-1]
        r = [[x * l - s * y for x, y, l, s in zip(rr, br, lb, t)] for rr, br in zip(r[:-1], b)]
        if not all(r[-1]):
            for i, c in enumerate(r[-1]):
                if not c:
                    out[live[i]][1].extend(list(_signed_prs([row[i] for row in a], [row[i] for row in b]))[2:])
            keep = [i for i, c in enumerate(r[-1]) if c]
            live = [live[i] for i in keep]
            b, r = ([[row[i] for i in keep] for row in m] for m in (b, r))
        g = [-d for d in map(math.gcd, *r)]
        a, b = b, [[c // d for c, d in zip(row, g)] for row in r]
    return out


def _rem_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """a mod b over GF(m), m prime, in place on a; b's last element is nonzero mod m."""
    inv = pow(b[-1], -1, m)
    low = b[:-1]
    db = len(low)
    while len(a) > db:
        f = a.pop() * inv % m
        s = len(a) - db
        a[s:] = [(c - f * d) % m for c, d in zip(a[s:], low)]
        _trim(a)
    return a


def _resultant_mod(a: Sequence[int], b: Sequence[int], m: int) -> int:
    """Res(a, b) mod m, m prime, for coefficient lists whose last elements are nonzero mod m.

    Euclid over GF(m) with the Sylvester sign convention of
    _resultant_lists. With r = a mod b, Res(a, b) = (-1)^(deg a * deg b)
    Res(b, a), and Res(b, a) = lc(b)^(deg a - deg r) Res(b, r), since a
    and r agree at every root of b. Res(b, 0) = 0 when deg b >= 1, and
    Res(a, c) = c^(deg a) for a constant c.
    """
    a = [c % m for c in a]
    b = [c % m for c in b]
    out = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        r = _rem_mod(a, b, m)
        if not r:
            return 0
        if da * db % 2:
            out = -out
        out = out * pow(b[-1], da - len(r) + 1, m) % m
        a, b = b, r
    return out * pow(b[0], len(a) - 1, m) % m


def _values_mod(p: UniPoly, n: int, m: int) -> list[int]:
    """p(x0) mod m at x0 = 0..n-1: Horner over the whole row of points in integers, then one reduction."""
    cs = p.coeffs
    row = [cs[-1] if cs else 0] * n
    for c in reversed(cs[:-1]):
        row = [v * x0 + c for v, x0 in zip(row, range(n))]
    return [v % m for v in row]


def _inverses_mod(row: list[int], m: int) -> list[int]:
    """Inverses mod m, m prime, of a nonempty row of nonzero residues, from one pow.

    Montgomery's batch inversion (Math. Comp. 48, 1987): with the prefix
    products P_i = row[0]...row[i], 1/row[i] = P_(i-1) / P_i and
    1/P_(i-1) = row[i] / P_i, so one inverse of the whole product serves
    every entry.
    """
    prefix = list(accumulate(row, lambda u, v: u * v % m))
    inv = pow(prefix[-1], -1, m)
    out = [inv] * len(row)
    for i in range(len(row) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % m
        inv = inv * row[i] % m
    out[0] = inv
    return out


def _resultants_mod(a: list[list[int]], b: list[list[int]], m: int) -> list[int]:
    """Res(a_i, b_i) mod m, m prime, at every point i at once: _resultant_mod in lockstep.

    a and b hold one row of residues per coefficient, ascending, with one
    entry per point, so a[j][i] is the y^j coefficient of a_i; their last
    rows are nonzero at every point, and neither is changed. The points
    walk Euclid together while each remainder keeps its nominal length,
    len(b) - 1 or len(a) when a is the shorter: one batch inverse of b's
    leading row per step, one comprehension per coefficient row, and the
    sign and lc(b) factors of _resultant_mod, common exponents for all.
    A point whose remainder's leading coefficient vanishes leaves before
    the next inversion. Its resultant is 0 when the whole remainder
    vanishes. Otherwise it takes lc(b)^(nominal - actual length) more,
    for the exponent deg a - len(r) + 1 of the remainder it really has,
    and finishes on its own with _resultant_mod on (b, r).
    """
    out = [0] * len(a[0])
    live = list(range(len(out)))  # the points still in the lockstep, in row order
    acc = [1] * len(out)  # each live point's factor so far, up to the common sign
    sign = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        lead = b[-1]
        r = a[:]
        if da >= db:
            inv = _inverses_mod(lead, m)
            low = b[:-1]
            for s in range(da - db, -1, -1):
                q = [t * v % m for t, v in zip(r.pop(), inv)]
                for j, row in enumerate(low, s):
                    r[j] = [(c - u * v) % m for c, u, v in zip(r[j], q, row)]
        if da * db % 2:
            sign = -sign
        if 0 in r[-1]:
            keep = []
            for i, c in enumerate(r[-1]):
                if c:
                    keep.append(i)
                    continue
                column = _trim([row[i] for row in r])
                if column:
                    rest = _resultant_mod([row[i] for row in b], column, m)
                    out[live[i]] = sign * acc[i] * pow(lead[i], da - len(column) + 1, m) * rest % m
            if not keep:
                return out
            live, acc = [live[i] for i in keep], [acc[i] for i in keep]
            b = [[row[i] for i in keep] for row in b]
            r = [[row[i] for i in keep] for row in r]
            lead = b[-1]
        for _ in range(da - len(r) + 1):
            acc = [u * v % m for u, v in zip(acc, lead)]
        a, b = b, r
    for i, u, c in zip(live, acc, b[0]):
        out[i] = sign * u * pow(c, len(a) - 1, m) % m
    return out


def _interpolate_mod(values: list[int], m: int) -> list[int]:
    """Coefficients mod m, m prime, ascending, of the polynomial of degree < n through (i, values[i]).

    Newton's forward-difference form: with n = len(values) <= m, the
    polynomial is the sum over k of (Delta^k v)(0) / k! * x(x-1)...(x-k+1).
    One inverse, of (n-1)!, gives every 1/k! on the walk down, as
    1/(k-1)! = k/k!; the sum is expanded by Horner in the falling basis.
    """
    c = [v % m for v in values]
    n = len(c)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) % m
    fact = 1
    for k in range(2, n):
        fact = fact * k % m
    inv = pow(fact, -1, m)  # 1/(n-1)!, or 1 when n <= 2
    for k in range(n - 1, 1, -1):
        c[k] = c[k] * inv % m
        inv = inv * k % m
    out = c[-1:]
    for k in range(n - 2, -1, -1):
        # out = out * (x - k) + c[k]
        out = [(c[k] - k * out[0]) % m] + [(out[i - 1] - k * out[i]) % m for i in range(1, len(out))] + out[-1:]
    return _trim(out)


def unipoly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Greatest common divisor in Z[x], positive leading coefficient.

    The last term of the signed primitive remainder sequence of the
    primitive parts (_signed_prs), times the gcd of the contents.
    """
    if not p and not q:
        return UniPoly()
    if not p:
        return q if q.leading > 0 else -q
    if not q:
        return p if p.leading > 0 else -p
    a, b = p.primitive_part(), q.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    for last in _signed_prs(a.coeffs, b.coeffs):
        pass
    g = UniPoly(last)
    if g.leading < 0:
        g = -g
    return g * math.gcd(p.content(), q.content())


# ---------------------------------------------------------------------------
# Sturm-sequence real root isolation.
# ---------------------------------------------------------------------------


def _sign_changes(signs: Iterable[int]) -> int:
    """Changes along a sequence of signs, zeros skipped."""
    nonzero = [s for s in signs if s]
    return sum(1 for s1, s2 in zip(nonzero, nonzero[1:]) if s1 != s2)


def _variations(chain: list[Sequence[int]], u: int, w: int) -> int:
    """Sign changes along the chain's values at u/w, w > 0, zeros skipped."""
    return _sign_changes(_sign_at(q, u, w) for q in chain)


def _variations_at_infinity(chain: list[Sequence[int]]) -> tuple[int, int]:
    """(V(-inf), V(+inf)) in one pass over the chain's leading terms.

    Near +inf each term has the sign of its leading coefficient, near -inf
    that sign times (-1)^deg; deg = len - 1 is odd when len is even. No
    term is zero there, so no sign is skipped.
    """
    v_minus = v_plus = 0
    for i, q in enumerate(chain):
        plus = q[-1] > 0
        minus = plus ^ (len(q) % 2 == 0)
        if i:
            v_plus += plus ^ last_plus
            v_minus += minus ^ last_minus
        last_plus, last_minus = plus, minus
    return v_minus, v_plus


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-M, M).

    M = 1 + max |c_i / lead|; the leading coefficient is common to every
    term, so M is the one Fraction (|lead| + max |c_i|)/|lead|.
    """
    if p.degree < 1:
        raise ZeroPolynomialError("root bound needs positive degree")
    lead = abs(p.leading)
    return Fraction(lead + max(map(abs, p.coeffs[:-1])), lead)


_SEED_HALVINGS = 64  # plain halvings before, and between, tries of the Newton cell
_GUARD_BITS = 16  # bits Newton carries beyond the cell level
_CELL_TRIES = 4  # cells a Newton index may move through before halving resumes
_HINT_BITS = 64  # the precision Newton starts at, when its goal is above twice this


def _shifted(sf: UniPoly, u: int, d: int, w: int) -> list[int]:
    """Coefficients of q(t) = w^n * sf((u + t*d)/w), n = deg sf, ascending, by Horner."""
    q = [sf.coeffs[-1]]
    wp = 1
    for c in reversed(sf.coeffs[:-1]):
        wp *= w
        q = [u * q[0] + c * wp] + [u * q[i] + d * q[i - 1] for i in range(1, len(q))] + [d * q[-1]]
    return q


def _newton_index(sf: UniPoly, u: int, d: int, w: int, k: int, start: tuple[int, int]) -> int | None:
    """An estimate of floor(2^k t) for the root t in (0, 1) of q(t) = w^n sf((u + t*d)/w).

    Newton's iteration on q in fixed point, from t = n/m for the start
    (n, m): t is an integer T over 2^prec, and one Horner pass gives q and
    q' at T/2^prec, each times 2^prec and floored at every step. prec
    starts at the goal of k plus guard bits when that goal is at most
    2 * _HINT_BITS, and otherwise at _HINT_BITS: at a fine goal every step
    at the goal precision would cost a full-width Horner pass, while a
    coarse goal gains nothing from a doubling or two. Once a step is at
    most 2^(prec/2), the iterate had about prec/2 right bits and now has
    about prec, since Newton's error squares near a simple root, so prec
    doubles, up to the goal. A step of at most 2^_GUARD_BITS at the goal
    precision, one level-k cell, ends the iteration; a looser stop, such
    as a step of 2^(goal/2), lets the squared error's factor, large on a
    whole bracket, name a cell far off. None when an iterate leaves
    [0, 1], q' vanishes, or the steps do not settle. The index is only an
    estimate; _newton_cell proves it or moves it.
    """
    q = _shifted(sf, u, d, w)
    goal = max(32, k + _GUARD_BITS)
    prec = goal if goal <= 2 * _HINT_BITS else _HINT_BITS
    t = (start[0] << prec) // start[1]
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
            if abs(step) <= 1 << _GUARD_BITS:
                return t >> (prec - k)
        elif abs(step) <= 1 << (prec // 2):
            t <<= min(prec, goal - prec)
            prec = min(2 * prec, goal)
    return None


def _newton_cell(
    sf: UniPoly, u: int, d: int, w: int, k: int, slo: int, start: tuple[int, int]
) -> tuple[int, int, int] | None:
    """The level-k cell of the bracket [u, u+d]/w that bisection would return, as (left, right, den), or None.

    The cells are [u*2^k + j*d, u*2^k + (j+1)*d]/(w*2^k), 0 <= j < 2^k.
    sf has the sign slo left of its root in the bracket and -slo right of
    it, so the cell holds the root exactly when its left end has sign slo
    and its right end -slo; a wrong sign moves j by one toward the root.
    A zero sign is the root itself, a grid point, returned as [r, r].
    _newton_index names the first j from start, a place in the bracket.
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
            return left, left, den
        if s != slo:
            j -= 1
            continue
        s = sf.sign_at(left + d, den)
        if s == 0:
            return left + d, left + d, den
        if s == slo:
            j += 1
            continue
        return left, left + d, den
    return None


def _halvings(span: int, unit: int) -> int:
    """The least k with span <= unit * 2^k: the halvings _bisect still has to make."""
    return (-(-span // unit) - 1).bit_length()


def _bisect(
    sf: UniPoly, u: int, v: int, w: int, wn: int, wd: int, hint: tuple[int, int] | None = None
) -> tuple[int, int, int]:
    """Halve [u/w, v/w], w > 0, to width wn/wd, as (lo numerator, hi numerator, denominator).

    The bracket holds exactly one root r of sf, neither end is a root, and
    sf changes sign at r (r is simple in every caller). Each halving keeps
    the half whose ends differ in sign; a midpoint that is itself a root
    comes back as [m, m, den]. The ends stay integer numerators over a w
    that doubles at each halving, so v - u stays fixed. The caller checks
    that the width is positive.

    What the halving returns is fixed in advance, which lets a Newton
    cell skip it. Let k be the number of halvings it makes, the least with
    (v - u)/(w*2^k) <= wn/wd, and call (u*2^k + i*(v - u))/(w*2^k) the
    level-k grid. If r is on that grid, it is first a grid point at some
    level l <= k; at level l-1 it lies inside the cell being halved, whose
    midpoint it is, so halving returns [r, r]. Otherwise halving returns
    the one level-k cell with r inside. So _newton_index estimates the
    index of r's cell by integer Newton, and _newton_cell proves the cell
    with two exact sign tests or finds r on the grid; both give what the
    halving would. The proof does not depend on where Newton started.

    The cell is tried in one place, at the top of the halving loop. A
    hint (hu, hw), the rational hu/hw with hw > 0, is a guess at r, such
    as the root of a neighbouring section. When it lies strictly inside
    the bracket, the first try comes at once, on the whole bracket, with
    Newton starting from the hint's place in it. Otherwise the first try
    comes after _SEED_HALVINGS halvings, from the middle of what is left.
    If a try fails after a few moves of the index, halving goes on from
    the last proved bracket, and the next try comes _SEED_HALVINGS
    halvings later, from the middle. So a bad hint costs time and never
    changes the result.

    Every test compares values: the bracket's span against the width as
    (v - u)*wd against wn*w, signs at u/w, and the hint's place in the
    bracket by cross-multiplication. So u, v, w, wn/wd and the hint need
    not be in lowest terms, and a common factor leaves k, the level-k
    grid and the enclosure's value as they are.
    """
    span = (v - u) * wd  # (v - u)/w > wn/wd  <=>  span > wn * w
    slo = sf.sign_at(u, w)
    start, newton_at = (1, 2), w << _SEED_HALVINGS
    if hint is not None:
        hu, hw = hint
        t = (hu * w - u * hw, (v - u) * hw)  # the hint as a fraction of the bracket
        if 0 < t[0] < t[1]:
            start, newton_at = t, w
    while span > wn * w:
        if w == newton_at:
            cell = _newton_cell(sf, u, v - u, w, _halvings(span, wn * w), slo, start)
            if cell is not None:
                return cell
            start, newton_at = (1, 2), w << _SEED_HALVINGS
        m = u + v
        w *= 2
        sm = sf.sign_at(m, w)
        if sm == 0:
            return m, m, w  # landed exactly on a rational root
        if sm == slo:
            u, v = m, 2 * v
        else:
            u, v = 2 * u, m
    return u, v, w


def isolate_real_roots(
    p: UniPoly, width: Fraction = Fraction(1, 10**9), hints: Sequence[tuple[int, int]] = ()
) -> list[tuple[Fraction, Fraction]]:
    """Rational enclosures of every real root of p, one per root, ascending.

    Each enclosure has width <= the requested width; an exact rational root
    may come back as a degenerate [r, r] interval. No two enclosures share
    an interior point, but neighbours may share an end, a split point that
    is not a root. Multiplicities are not reported.

    One remainder sequence serves both the count and the squarefree part.
    Here _signed_prs forms it; the walk, _isolate_chain, also reads the
    chains that _sturm_chains forms for a block of plot sections at once.
    For the primitive part pp, the signed chain of (pp, pp') ends in
    g = gcd(pp, pp'), and sf = pp/g has the distinct roots of p, each
    simple. At a point v with pp(v) != 0, g(v) != 0 too, and dividing
    every term by g(v) keeps the sign variations; the quotients form a
    Sturm sequence of sf. So V(lo) - V(hi) of the chain counts the
    distinct roots in (lo, hi) even when p has repeated roots (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, 2006,
    Thm 2.50). A constant last term means gcd(pp, pp') = 1: pp is
    squarefree, and sf is pp itself, since pp/g = +-pp has the same roots
    and no division need run. Bisection and the root bound use sf.

    A bracket (u/w, v/w), integers with w > 0, comes with V(u/w). One with
    several roots is split at the point nearest its middle among
    (u + (v - u)*j/den)/w, j odd, for the least den = 2, 4, ... where pp
    is nonzero; the halves, over w*den, are walked left first, the right
    one with V there, from a stack, so that roots closer than 2^-1000 need
    no recursion. The chain is read only at such split points.

    The walk starts on (-B, B), B = root_bound(sf), with the count
    V(-inf) - V(+inf), and V(-inf) as the left reading, both read in one
    pass over the chain's leading coefficients and degrees, which
    evaluates nothing.
    That is the count on (-B, B): by the same theorem, V(-inf) - V(-B)
    and V(B) - V(+inf) count the distinct roots of sf in (-inf, -B] and
    (B, +inf), and there are none, since every real root of sf lies
    strictly inside (-B, B).

    hints are guesses (u, w) at roots, each the rational u/w with w > 0.
    The walk does not read them: each bracket with one root goes to
    _bisect as the walk's own integers u, v and w and the width's
    numerator and denominator, with the first hint strictly inside it,
    if any, and comes back with the same enclosure with or without it.
    Only the two ends of each enclosure become Fractions. None of these integers need be in lowest terms, nor the
    hints: every test on them compares values, so a common factor
    changes no enclosure.
    """
    if not p:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    if width <= 0:
        raise PreconditionError("enclosure width must be positive")
    if p.degree < 1:
        return []
    pp = p.primitive_part()
    return _isolate_chain(pp, list(_signed_prs(pp.coeffs, pp.derivative().coeffs)), width, hints)


def _isolate_chain(
    pp: UniPoly, chain: list[Sequence[int]], width: Fraction, hints: Sequence[tuple[int, int]]
) -> list[tuple[Fraction, Fraction]]:
    """isolate_real_roots's walk, on a primitive pp of positive degree and the signed chain of (pp, pp').

    The chain is _signed_prs's, formed alone by isolate_real_roots or
    with a block of sections by _sturm_chains; width is positive.
    """
    sf = pp if len(chain[-1]) == 1 else pp.exact_div(UniPoly(chain[-1]).primitive_part())
    bound = root_bound(sf)
    out: list[tuple[Fraction, Fraction]] = []
    v_minus, v_plus = _variations_at_infinity(chain)
    n, d = bound.numerator, bound.denominator
    wn, wd = width.numerator, width.denominator
    stack = [(-n, n, d, v_minus - v_plus, v_minus)]
    while stack:
        u, v, w, nroots, v_lo = stack.pop()
        if nroots == 1:
            hint = next(((hu, hw) for hu, hw in hints if u * hw < hu * w < v * hw), None)
            lo, hi, den = _bisect(sf, u, v, w, wn, wd, hint)
            out.append((Fraction(lo, den), Fraction(hi, den)))
        elif nroots > 1:
            den = 2
            while not any(
                _sign_at(pp.coeffs, m := u * den + (v - u) * j, w * den)
                for j in sorted(range(1, den, 2), key=lambda j: abs(2 * j - den))
            ):
                den *= 2
            w *= den
            v_m = _variations(chain, m, w)
            left = v_lo - v_m
            stack.append((m, v * den, w, nroots - left, v_m))
            stack.append((u * den, m, w, left, v_lo))
    return out


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

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        idx = _VARS.index(var)
        return max((e[idx] for e in self.terms), default=-1)

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

    def coeffs_in(self) -> list[UniPoly]:
        """Coefficients in y, as polynomials in x, ascending in y."""
        d = self.degree_in("y")
        if d < 0:
            return []
        rows: list[dict[int, int]] = [{} for _ in range(d + 1)]
        for (i, j), c in self.terms.items():
            rows[j][i] = c
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


def bipoly_resultant(p: BiPoly, q: BiPoly) -> UniPoly:
    """Res_y(p, q), a univariate polynomial in x.

    No CLI path calls it: certify proves its verdict from Res_y(F, F_y)
    mod p alone. It is the tests' exact oracle for that eliminant, and a
    function the benchmark's trace mode names. Raises ZeroPolynomialError
    when either input is zero. The sign convention is the Sylvester
    determinant with p's rows first.
    """
    if not p or not q:
        raise ZeroPolynomialError("resultant of a zero polynomial")
    return _resultant_lists(p.coeffs_in(), q.coeffs_in())

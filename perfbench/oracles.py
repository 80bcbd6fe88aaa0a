"""Expected outputs for the benchmark's operations.

Nothing here imports pascalrepeats: every expectation comes from a source
independent of the code being timed.

- Searches: a per-row solver built on the monotonicity of
  R(x) = C(x-a,y+b)/C(x,y) in x (R(x+1)/R(x) > 1 because bX + ay > 0 with
  X = x+1), so each row y has at most one solution, found by walking to
  the crossing R = 1. Shift (1,1) uses the closed-form Fibonacci family.
- Binomial values: math.comb.
- Census: the known table of values with N(t) >= 6 and a math.comb
  search for the occurrences of any t.
- Certificates: the degree, both singularity verdicts and the genus
  (d-1)(d-2)/2, plus the printed curve compared with an independent
  expansion of the product form.
- Zeta enclosures: exact signs of t^(a+b) - (t+1)^a at both endpoints.
- Plot rows: a Sturm count of real roots and an exact sign change within
  the printed precision around every printed root.

Run these in a process with the int-to-string limit lifted; the process
that runs the operations keeps the default limit and sees only digests.
"""

from __future__ import annotations

import hashlib
import math
from decimal import Decimal, localcontext
from fractions import Fraction

# N(t) for every t <= 10**12 with N(t) >= 6 (Singmaster 1975; Blokhuis,
# Brouwer and de Weger 2017 searched much further), plus the family value
# C(104,39) = C(103,40). The benchmark's tests re-derive the table below
# 10**9 by an independent tally.
KNOWN_REPEATS = {
    120: 6,
    210: 6,
    1540: 6,
    3003: 8,
    7140: 6,
    11628: 6,
    24310: 6,
    61218182743304701891431482520: 6,
}
KNOWN_COMPLETE_TO = 10**12


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Rows of C(x,y) = C(x-a,y+b).
# ---------------------------------------------------------------------------


def fibonacci(i: int) -> int:
    f, g = 0, 1
    for _ in range(i):
        f, g = g, f + g
    return f


def family_nk(i: int) -> tuple[int, int]:
    """Member i: C(n+1,k+1) = C(n,k+2), n = F(2i+2)F(2i+3)-1, k = F(2i)F(2i+3)-1."""
    f23 = fibonacci(2 * i + 3)
    return fibonacci(2 * i + 2) * f23 - 1, fibonacci(2 * i) * f23 - 1


def _row_sign(x: int, y: int, a: int, b: int) -> int:
    """Sign of C(x-a,y+b) - C(x,y) for x >= y+a+b, by the product form."""
    left = 1
    for i in range(a + b):
        left *= x - y - i
    right = 1
    for i in range(a):
        right *= x - i
    for q in range(1, b + 1):
        right *= y + q
    return (left > right) - (left < right)


def row_solutions(a: int, b: int, y_max: int) -> list[tuple[int, int]]:
    """Every (x, y) with 0 <= y <= y_max solving C(x,y) = C(x-a,y+b), by (y, x).

    Solutions need x-a >= y+b. On that range R(x) increases strictly from
    R(y+a+b) = 1/C(y+a+b,y) <= 1 without bound, so each row has one
    crossing; the walk starts from the previous row's crossing plus its
    last increment, which lands within a step or two of the new one.
    """
    d = a + b
    out = []
    cross = prev_cross = None
    for y in range(y_max + 1):
        lo = y + d
        x = lo if cross is None else max(lo, 2 * cross - prev_cross - 1)
        s = _row_sign(x, y, a, b)
        while s > 0 and x > lo:
            x -= 1
            s = _row_sign(x, y, a, b)
        while s < 0:
            x += 1
            s = _row_sign(x, y, a, b)
        # x is the smallest x >= lo with R(x) >= 1 (R(lo) <= 1 stops the
        # downward walk at lo at the latest)
        if s == 0:
            out.append((x, y))
        prev_cross, cross = (cross if cross is not None else x), x
    return out


def family_solutions(y_max: int) -> list[tuple[int, int]]:
    """Shift (1,1): the trivial (2,0) and the family points (n+1, k+1)."""
    out = [(2, 0)]
    i = 1
    while True:
        n, k = family_nk(i)
        if k + 1 > y_max:
            return out
        out.append((n + 1, k + 1))
        i += 1


def search_text(points: list[tuple[int, int]]) -> str:
    lines = []
    for x, y in points:
        value = math.comb(x, y)
        suffix = " (trivial)" if value <= 1 else ""
        lines.append(f"x={x} y={y} value={value}{suffix}\n")
    lines.append(f"{len(points)} solution(s)\n")
    return "".join(lines)


def intersect_text(points: list[tuple[int, int]]) -> str:
    return "".join(f"x={x} y={y}\n" for x, y in points) + f"{len(points)} intersection point(s)\n"


def family_text(i_max: int) -> str:
    lines = []
    for i in range(1, i_max + 1):
        n, k = family_nk(i)
        lines.append(f"i={i} n={n} k={k} value={math.comb(n + 1, k + 1)}\n")
    return "".join(lines)


def verify_text(records: int) -> str:
    return f"ok: {records} record(s) verified\n"


def solution_record(a: int, b: int, x: int, y: int) -> dict:
    """A cache line as the CLI writes it, for a known solution."""
    value = math.comb(x, y)
    if math.comb(x - a, y + b) != value:
        raise ValueError(f"({x},{y}) does not solve shift ({a},{b})")
    return {"a": a, "b": b, "x": str(x), "y": str(y), "value": str(value), "trivial": value <= 1}


# ---------------------------------------------------------------------------
# Census.
# ---------------------------------------------------------------------------


def occurrences(t: int) -> list[tuple[int, int]]:
    """Every (n, k) with C(n, k) = t, t >= 2, by math.comb and bisection."""
    occ = {(t, 1), (t, t - 1)}
    k = 2
    while math.comb(2 * k, k) <= t:
        # C(n,k) >= (n-k)^k / k!, so n <= (k! t)^(1/k) + k
        root = math.exp((math.lgamma(k + 1) + math.log(t)) / k)
        hi = max(2 * k, min(t, int(root * (1 + 1e-9)) + k + 2))
        lo = 2 * k
        while lo < hi:
            mid = (lo + hi) // 2
            if math.comb(mid, k) < t:
                lo = mid + 1
            else:
                hi = mid
        if math.comb(lo, k) == t:
            occ.update({(lo, k), (lo, lo - k)})
        k += 1
    return sorted(occ)


def census_line(t: int) -> str:
    occ = occurrences(t)
    if t in KNOWN_REPEATS and len(occ) != KNOWN_REPEATS[t]:
        raise AssertionError(f"occurrence search disagrees with the known N({t})")
    body = " ".join(f"({n},{k})" for n, k in occ)
    return f"t={t} count={len(occ)} occurrences: {body}\n"


def census_scan_text(t_max: int, m_min: int) -> str:
    if t_max > KNOWN_COMPLETE_TO or m_min < 6:
        raise ValueError("the known table covers only t <= 10**12 with N(t) >= 6")
    hits = sorted(t for t, n in KNOWN_REPEATS.items() if t <= t_max and n >= m_min)
    return "".join(census_line(t) for t in hits)


# ---------------------------------------------------------------------------
# Curves, zeta and plot rows, checked as properties of the printed output.
# ---------------------------------------------------------------------------


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def curve_terms(a: int, b: int) -> dict:
    """{(i, j): c} of (x-y)...(x-y-a-b+1) - x...(x-a+1)(y+1)...(y+b)."""
    left = {(0, 0): 1}
    for r in range(a + b):
        left = _poly_mul(left, {(1, 0): 1, (0, 1): -1, (0, 0): -r})
    right = {(0, 0): 1}
    for p in range(a):
        right = _poly_mul(right, {(1, 0): 1, (0, 0): -p})
    for q in range(1, b + 1):
        right = _poly_mul(right, {(0, 1): 1, (0, 0): q})
    out = dict(left)
    for e, c in right.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def parse_bipoly(text: str) -> dict:
    """Terms of a printed polynomial such as 'x^3 - 3*x^2*y + 2*y - 5'."""
    terms: dict = {}
    for raw in text.replace(" - ", " + -").split(" + "):
        sign = -1 if raw.startswith("-") else 1
        coeff, i, j = 1, 0, 0
        for factor in raw.lstrip("-").split("*"):
            if factor.isdigit():
                coeff = int(factor)
            elif factor == "x" or factor.startswith("x^"):
                i = int(factor[2:]) if "^" in factor else 1
            elif factor == "y" or factor.startswith("y^"):
                j = int(factor[2:]) if "^" in factor else 1
            else:
                raise ValueError(f"unexpected factor {factor!r}")
        if (i, j) in terms:
            raise ValueError(f"repeated monomial x^{i}*y^{j}")
        terms[(i, j)] = sign * coeff
    return terms


def check_certificate(text: str, a: int, b: int) -> str | None:
    """None if the `curve --certify` text output is right, else the reason."""
    fields = dict(line.split(" = ", 1) for line in text.splitlines())
    d = a + b
    expected = {
        "degree": str(d),
        "affine_nonsingular": "yes",
        "infinity_nonsingular": "yes",
        "genus": str((d - 1) * (d - 2) // 2),
    }
    for key, value in expected.items():
        if fields.get(key) != value:
            return f"{key} = {fields.get(key)!r}, expected {value!r}"
    if parse_bipoly(fields.get("F(x,y)", "")) != curve_terms(a, b):
        return "printed curve differs from the product form"
    return None


def _zeta_sign(q: Fraction, a: int, b: int) -> int:
    return _sign(q ** (a + b) - (q + 1) ** a)


def check_zeta(text: str, a: int, b: int, width: Fraction) -> str | None:
    fields = dict(line.split(" = ", 1) for line in text.splitlines())
    lo, hi = Fraction(fields["lo"]), Fraction(fields["hi"])
    if not (0 < lo <= hi and hi - lo <= width):
        return "enclosure is empty, negative or too wide"
    if not (_zeta_sign(lo, a, b) < 0 < _zeta_sign(hi, a, b)):
        return "enclosure does not straddle the positive root"
    with localcontext() as ctx:
        ctx.prec = 15
        mid = (lo + hi) / 2
        decimal = str(Decimal(mid.numerator) / Decimal(mid.denominator))
    if fields.get("decimal") != decimal:
        return f"decimal = {fields.get('decimal')!r}, expected {decimal!r}"
    return None


def _eval(coeffs: list, v):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def real_root_count(coeffs: list[int]) -> int:
    """Distinct real roots of an integer polynomial, by Sturm's theorem."""
    p0 = _trim([Fraction(c) for c in coeffs])
    if len(p0) <= 1:
        return 0
    chain = [p0, _trim([i * c for i, c in enumerate(p0)][1:])]
    while len(chain[-1]) > 1:
        r = list(chain[-2])
        v = chain[-1]
        while len(r) >= len(v):
            q = r[-1] / v[-1]
            shift = len(r) - len(v)
            for j, c in enumerate(v):
                r[shift + j] -= q * c
            r.pop()
            _trim(r)
        if not r:
            break
        chain.append([-c for c in r])
    bound = 1 + max(abs(c / p0[-1]) for c in p0[:-1])

    def variations(v) -> int:
        signs = [s for s in (_sign(_eval(q, v)) for q in chain) if s]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(-bound) - variations(bound)


def check_plot(text: str, a: int, b: int, y_lo: int, y_hi: int) -> str | None:
    """Plot rows: every real x-root of F(x, y) once, ascending, within 1e-12.

    A printed x is the midpoint of an enclosure of width <= 1e-13 rounded
    to 12 places, so the root lies within 0.55e-12 of it.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "y,x":
        return "missing y,x header"
    rows: dict[int, list[Fraction]] = {}
    for line in lines[1:]:
        ys, xs = line.split(",")
        y = Fraction(ys)
        if y.denominator != 1:
            return f"unexpected y {ys}"
        rows.setdefault(int(y), []).append(Fraction(xs))
    terms = curve_terms(a, b)
    tol = Fraction(1, 10**12)
    for y in range(y_lo, y_hi + 1):
        coeffs = [0] * (a + b + 1)
        for (i, j), c in terms.items():
            coeffs[i] += c * y**j
        xs = rows.pop(y, [])
        if len(xs) != real_root_count(coeffs):
            return f"y={y}: {len(xs)} roots printed, Sturm count differs"
        if any(x2 - x1 <= 2 * tol for x1, x2 in zip(xs, xs[1:])):
            return f"y={y}: roots not ascending and separated"
        for x in xs:
            if _eval(coeffs, x) != 0 and _sign(_eval(coeffs, x - tol)) * _sign(_eval(coeffs, x + tol)) >= 0:
                return f"y={y}: no root within 1e-12 of {x}"
    if rows:
        return f"rows for unexpected y values {sorted(rows)[:3]}"
    return None

"""The proved tube of search against the row walk it skips.

Above its first rows, search proves for each block of rows two lines
L < phi < U around the rows' real crossings phi(y), and checks only the
rows where an integer fits between them. The row walk, which finds every
row's crossing, is the reference: whatever the block schedule, the two
must list the same solutions. The candidate recursion is checked against
a scan of its residues, the sign proof against exact values of the
product form along its line, and a proof made to fail must fall back to
the walk. At the production block starts Descartes' rule alone decides
every line, so no proof fails there.
"""

from __future__ import annotations

import importlib
import json
import time
from fractions import Fraction
from math import perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pascalrepeats.cli import main
from pascalrepeats.errors import PreconditionError
from pascalrepeats.polynomials import UniPoly
from pascalrepeats.ratios import ShiftPair
from pascalrepeats.search import equality_check, search
from test_bisect_reference import plain_halving

search_mod = importlib.import_module("pascalrepeats.search")


@settings(max_examples=60, deadline=None)
@given(a=st.integers(1, 8), b=st.integers(1, 8), y_max=st.integers(1, 3000), y_start=st.integers(16, 40))
@example(a=1, b=1, y_max=3000, y_start=16)
@example(a=1, b=1, y_max=3000, y_start=17)
@example(a=1, b=1, y_max=3000, y_start=23)
@example(a=1, b=3, y_max=3000, y_start=16)
@example(a=8, b=8, y_max=3000, y_start=16)
@example(a=2, b=1, y_max=31, y_start=16)
def test_tube_lists_the_walks_solutions(a, b, y_max, y_start):
    shift = ShiftPair(a, b)
    walk = list(search_mod._row_solutions(shift, y_max))
    assert list(search_mod._tube_solutions(shift, y_max, y_start)) == walk


@pytest.mark.parametrize("y_start", [16, 17, 256])
def test_walked_rows_and_proved_blocks_tile_the_range(y_start, monkeypatch):
    covered = []
    walk, block = search_mod._row_solutions, search_mod._block_solutions

    def walking(shift, y_max, y_lo=0):
        covered.append((y_lo, y_max))
        return walk(shift, y_max, y_lo)

    def proving(shift, y0, y1, known):
        found = block(shift, y0, y1, known)
        if found is not None:
            covered.append((y0, y1))
        return found

    monkeypatch.setattr(search_mod, "_row_solutions", walking)
    monkeypatch.setattr(search_mod, "_block_solutions", proving)
    list(search_mod._tube_solutions(ShiftPair(2, 3), 5000, y_start))
    # in order, each range starts right after the one before, from row 0 to 5000
    assert covered[0][0] == 0 and covered[-1][1] == 5000
    assert all(lo == hi + 1 for (_, hi), (lo, _) in zip(covered, covered[1:]))


@pytest.mark.parametrize("y_start", [17, 39, 40, 272, 273, 935])
def test_solution_rows_on_block_edges(y_start):
    # the (1,1) solutions at y = 39, 272 and 1869 as the first row of a
    # block (17: blocks from 17 double to [272, 543]; 39; 272), the last
    # walked row (40, 273) and the last row of a block (935: [935, 1869])
    shift = ShiftPair(1, 1)
    walk = list(search_mod._row_solutions(shift, 3000))
    assert [y for _, y in walk if y > 5] == [39, 272, 1869]
    assert list(search_mod._tube_solutions(shift, 3000, y_start)) == walk


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(1, 300))
@example(data=None, m=1)
def test_least_row_is_the_first_residue_in_range(data, m):
    if data is None:
        p = q = lo = hi = 0
    else:
        p = data.draw(st.integers(0, 3 * m))
        q = data.draw(st.integers(-3 * m, 3 * m))
        lo = data.draw(st.integers(0, m - 1))
        hi = data.draw(st.integers(lo, m - 1))
    # (p*z + q) mod m repeats with period m, so a scan of one period decides
    scan = next((z for z in range(m) if lo <= (p * z + q) % m <= hi), None)
    assert search_mod._least_row(p, q, m, lo, hi) == scan


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(3, 200))
def test_rows_between_are_the_rows_with_an_integer_inside(data, m):
    p = data.draw(st.integers(-2 * m, 2 * m))
    q_lo = data.draw(st.integers(-3 * m, 3 * m))
    q_hi = q_lo + data.draw(st.integers(2, m - 1))
    y0 = data.draw(st.integers(0, 50))
    y1 = y0 + data.draw(st.integers(0, 2 * m))
    scan = [
        (x, y)
        for y in range(y0, y1 + 1)
        for x in range((p * y + q_lo) // m, (p * y + q_hi) // m + 2)
        if p * y + q_lo < m * x < p * y + q_hi
    ]
    assert list(search_mod._rows_between(p, q_lo, q_hi, m, y0, y1)) == scan


def test_least_row_on_power_of_two_moduli():
    # the tube's lines live on a 2^k grid; a 2^40 modulus is out of reach of a scan,
    # so each answer is checked by its residue and by the residues just before it
    m = 1 << 40
    for p, q, lo in [(3**25, 12345, m - 1000), ((1 << 39) + 1, 7, m - 3), (m - 1, 0, m - 2)]:
        z = search_mod._least_row(p, q, m, lo, m - 1)
        assert z is not None and lo <= (p * z + q) % m
        assert all((p * w + q) % m < lo for w in range(max(0, z - 2000), z))


def test_line_through_a_solution_has_no_sign():
    # x = y + 10 meets the (1,3) curve at its solution (15, 5)
    shift = ShiftPair(1, 3)
    assert equality_check(15, 5, shift)
    assert search_mod._line_sign(shift, 1, 10, 1, 4, 6) == 0
    # at a block's end the line's polynomial loses its top coefficient
    assert search_mod._line_sign(shift, 1, 10, 1, 3, 5) == 0
    assert search_mod._line_sign(shift, 1, 10, 1, 5, 7) == 0


def product_form(shift: ShiftPair, x: Fraction, y: Fraction) -> Fraction:
    """F(x,y) = ff(x-y, a+b) - ff(x, a) * ff(y+b, b) at rational x and y."""
    left = right = Fraction(1)
    for i in range(shift.degree):
        left *= x - y - i
    for i in range(shift.a):
        right *= x - i
    for j in range(1, shift.b + 1):
        right *= y + j
    return left - right


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(1, 6),
    b=st.integers(1, 6),
    y0=st.integers(0, 300),
    rows=st.integers(2, 300),
    k=st.integers(0, 40),
    lift=st.integers(-12, 12),
    nudge=st.integers(-3, 3),
    ts=st.lists(st.fractions(0, 1, max_denominator=1000), max_size=5),
)
@example(a=2, b=3, y0=100, rows=100, k=8, lift=0, nudge=-300, ts=[])
@example(a=2, b=3, y0=100, rows=100, k=8, lift=0, nudge=300, ts=[])
def test_a_line_sign_is_the_sign_along_the_whole_block(a, b, y0, rows, k, lift, nudge, ts):
    # the chord through phi at the block's ends on the 2^-k grid, moved by lift/4 of its
    # sagitta at the middle row and by nudge grid steps: from 0 to 1 sagitta toward the
    # middle it crosses phi twice, and its ends alone would name a sign. A nonzero sign
    # must be F's along the line at every y of the block.
    shift = ShiftPair(a, b)
    y1, ym = y0 + rows, y0 + rows // 2
    f0, fm, f1 = (search_mod._crossing_point(y, shift, y + shift.degree, k)[1] for y in (y0, ym, y1))
    p = (f1 - f0) // rows
    q = f0 - p * y0
    q += lift * (fm - p * ym - q) // 4 + nudge
    big_m = 1 << k
    s = search_mod._line_sign(shift, p, q, big_m, y0, y1)
    assert s in (-1, 0, 1)
    if s:
        for t in [Fraction(0), Fraction(1), Fraction(rows // 2, rows), *ts]:
            y = y0 + rows * t
            f = product_form(shift, (p * y + q) / big_m, y)
            assert (f > 0) - (f < 0) == s, (t, f)


def test_a_line_with_one_sign_at_both_ends_but_not_between_has_no_sign():
    # x = 3 - 3y crosses two branches of the (1,1) curve between y = 0 and y = 2
    shift = ShiftPair(1, 1)
    values = [product_form(shift, 3 - 3 * y, y) for y in (Fraction(0), Fraction(1, 2), Fraction(2))]
    assert values == [3, Fraction(-9, 4), 39]
    assert search_mod._line_sign(shift, -3, 3, 1, 0, 2) == 0


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 6) for b in range(1, 7 - a)])
def test_descartes_decides_every_block_at_the_production_starts(a, b, monkeypatch):
    # a block whose proof fails is halved and walked, which is correct but slow;
    # from the production start, to y = 10^30, every line proof succeeds
    outcomes = []
    block = search_mod._block_solutions

    def recording(*args):
        outcomes.append(block(*args))
        return outcomes[-1]

    monkeypatch.setattr(search_mod, "_block_solutions", recording)
    list(search_mod._tube_solutions(ShiftPair(a, b), 10**30))
    assert outcomes and all(o is not None for o in outcomes)


def test_a_failed_proof_falls_back_to_the_walk(monkeypatch):
    # every phi moved up by one: the lower line then lies above phi, so
    # every proof fails, and blocks halve below 16 rows and are walked
    real = search_mod._crossing_point
    shift = ShiftPair(2, 3)

    def nudged(y, s, guess, bits):
        m, phi = real(y, s, guess, bits)
        return m, phi + (1 << bits)

    outcomes = []
    block = search_mod._block_solutions

    def recording(*args):
        outcomes.append(block(*args))
        return outcomes[-1]

    monkeypatch.setattr(search_mod, "_crossing_point", nudged)
    monkeypatch.setattr(search_mod, "_block_solutions", recording)
    got = list(search_mod._tube_solutions(shift, 3000, 16))
    assert outcomes and all(o is None for o in outcomes)
    assert got == list(search_mod._row_solutions(shift, 3000))


def test_tube_finds_the_known_far_rows():
    # the repeats 6, 10, 120 and 3003 as shifts with a+b <= 7, and the
    # (1,1) family past the walked rows, to y = 10^30
    far = 10**30
    for a, b, want in [(2, 1, [(6, 1)]), (5, 1, [(10, 1)]), (6, 1, [(16, 2)]), (1, 3, [(15, 5)]), (1, 2, [])]:
        got = [(s.x, s.y) for s in search(ShiftPair(a, b), far) if not s.trivial]
        assert got == want, (a, b)
    family = [(s.x, s.y) for s in search(ShiftPair(1, 1), 20000) if not s.trivial]
    assert family == [(15, 5), (104, 39), (714, 272), (4895, 1869), (33552, 12815)]


def test_equality_check_refuses_products_past_the_budget(tmp_path, capsys):
    record = {"a": 5000, "b": 1, "x": "1" + "0" * 1000, "y": "1", "value": "1", "trivial": True}
    cache = tmp_path / "cache.jsonl"
    cache.write_text(json.dumps(record) + "\n")
    start = time.perf_counter()
    assert main(["verify", "--cache", str(cache)]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: line 1: record outside the solution domain: "
        "equality_check does not form products of over 1048576 bits\n"
    )
    with pytest.raises(PreconditionError):
        equality_check(10**1000, 1, ShiftPair(20000, 1))
    # a product of (a+b)*bits(x) = 1,048,576 bits is still formed
    assert not equality_check(1 << 131071, 1, ShiftPair(7, 1))


def test_search_y_max_bound_refuses_before_any_row(monkeypatch, capsys):
    monkeypatch.setattr("pascalrepeats.cli.search", lambda *a: pytest.fail("searched"))
    assert main(["search", "--a", "2", "--b", "3", "--y-max", str(1 << 256)]) == 1
    assert capsys.readouterr() == ("", "error: search --y-max must be below 2^256\n")


def _row_polynomial(y: int, shift: ShiftPair) -> UniPoly:
    """The product form's left minus right side along row y, as a polynomial in x."""
    left, right = UniPoly([1]), UniPoly([perm(y + shift.b, shift.b)])
    for i in range(shift.degree):
        left = left * UniPoly([-y - i, 1])
    for i in range(shift.a):
        right = right * UniPoly([-i, 1])
    return left - right


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (1, 4), (6, 6), (63, 3)])
def test_hinted_crossing_points_equal_plain_halving_on_the_block_rows(a, b):
    # the three rows of every block from the production start to y = 2^20: there k <= 64 but in the
    # last block, so without the midpoint hint bisect_root would only halve
    shift = ShiftPair(a, b)
    d = shift.degree
    y0 = size = max(search_mod._TUBE_START, search_mod._TUBE_ROWS_PER_DEGREE * d)
    while y0 <= 1 << 20:
        y1 = min(y0 + size - 1, 1 << 20)
        k = 2 * y1.bit_length() + search_mod._TUBE_GUARD_BITS
        for y in (y0, (y0 + y1) // 2, y1):
            m, equal = search_mod._row_crossing(y, shift, y + d)
            if equal:
                expected = m << k
            else:
                lo, _ = plain_halving(_row_polynomial(y, shift), Fraction(m - 1), Fraction(m), Fraction(1, 1 << k))
                expected = (lo.numerator << k) // lo.denominator
            assert search_mod._crossing_point(y, shift, y + d, k) == (m, expected), (y, k)
        y0, size = y1 + 1, 2 * size


def test_hinted_crossing_points_keep_a_search_to_15050_under_100_evaluations(monkeypatch):
    # plain halving on every block row took 864 sign evaluations here
    calls = []
    real = UniPoly.sign_at

    def counting(self, u, w=1):
        calls.append(u)
        return real(self, u, w)

    monkeypatch.setattr(UniPoly, "sign_at", counting)
    assert [(s.x, s.y) for s in search(ShiftPair(2, 3), 15050)] == [(5, 0)]
    assert 0 < len(calls) <= 100

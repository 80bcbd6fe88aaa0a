import importlib
import json
import math
import random
from collections import defaultdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pascalrepeats import census as census_mod
from pascalrepeats.census import (
    MultiplicityRecord,
    _bracket_start,
    _float_start,
    _kth_root,
    intersect_curves,
    multiplicity,
    scan_high_multiplicity,
)
from pascalrepeats.errors import PreconditionError
from pascalrepeats.ratios import ShiftPair
from pascalrepeats.search import equality_check

search_mod = importlib.import_module("pascalrepeats.search")


def tally_census(t_max: int) -> dict[int, set[tuple[int, int]]]:
    """Oracle: every occurrence of every value up to t_max, by direct walk.

    Rows up to 2*t_max suffice: beyond that even C(n,1) exceeds t_max, and
    interior entries grow monotonically along rows and columns.
    """
    occ: dict[int, set[tuple[int, int]]] = defaultdict(set)
    n = 1
    while n <= 2 * t_max:
        row_has_small = False
        for k in range(1, n // 2 + 1):
            v = math.comb(n, k)
            if v > t_max:
                break
            row_has_small = True
            occ[v].add((n, k))
            occ[v].add((n, n - k))
        if not row_has_small and n > t_max:
            break
        n += 1
    return occ


def test_multiplicity_known_small_values():
    assert multiplicity(2).count == 1
    assert multiplicity(2).occurrences == ((2, 1),)
    assert multiplicity(6).count == 3
    assert multiplicity(6).occurrences == ((4, 2), (6, 1), (6, 5))
    assert multiplicity(10).count == 4
    assert multiplicity(210).count == 6


def test_multiplicity_of_120_names_the_three_rows():
    rec = multiplicity(120)
    assert rec.count == 6
    for pos in [(120, 1), (16, 2), (10, 3)]:
        assert pos in rec.occurrences


def test_multiplicity_of_3003_is_eight():
    rec = multiplicity(3003)
    assert rec.count == 8
    assert (15, 5) in rec.occurrences
    assert (14, 6) in rec.occurrences
    assert (78, 2) in rec.occurrences
    assert (3003, 1) in rec.occurrences


def test_multiplicity_occurrences_are_sorted_and_valid():
    for t in (6, 120, 3003, 7140):
        rec = multiplicity(t)
        assert rec.occurrences == tuple(sorted(rec.occurrences))
        assert rec.count == len(rec.occurrences)
        for n, k in rec.occurrences:
            assert math.comb(n, k) == t


def test_multiplicity_agrees_with_exhaustive_tally():
    oracle = tally_census(2000)
    for t in range(2, 301):
        rec = multiplicity(t)
        assert set(rec.occurrences) == oracle[t], t
    # and on every value that repeats beyond the edges
    for t, occ in oracle.items():
        if len(occ) >= 3 and t <= 2000:
            assert multiplicity(t).count == len(occ), t


def test_multiplicity_parity_tracks_central_coefficients():
    centrals = {math.comb(2 * k, k) for k in range(1, 8)}
    for t in range(2, 1000):
        rec = multiplicity(t)
        if t in centrals:
            assert rec.count % 2 == 1, t
        else:
            assert rec.count % 2 == 0, t


def test_multiplicity_domain():
    with pytest.raises(PreconditionError):
        multiplicity(1)
    with pytest.raises(PreconditionError):
        multiplicity(0)


def test_scan_high_multiplicity_frozen_results():
    assert [r.t for r in scan_high_multiplicity(10**4, 8)] == [3003]
    assert [r.t for r in scan_high_multiplicity(200, 6)] == [120]
    assert [r.t for r in scan_high_multiplicity(10**5, 6)] == [
        120,
        210,
        1540,
        3003,
        7140,
        11628,
        24310,
    ]


def test_scan_results_carry_consistent_records():
    for rec in scan_high_multiplicity(10**4, 6):
        assert rec.count >= 6
        assert rec.count == multiplicity(rec.t).count
        assert rec.occurrences == multiplicity(rec.t).occurrences


def test_scan_agrees_with_tally_oracle():
    oracle = tally_census(5000)
    want = sorted(t for t, occ in oracle.items() if len(occ) >= 4)
    got = [r.t for r in scan_high_multiplicity(5000, 4)]
    assert got == want


@pytest.fixture(scope="module")
def repeats_to_2e5():
    """(t, N(t), occurrences) for every t <= 2*10^5 with N(t) >= 3, ascending."""
    occ = tally_census(2 * 10**5)
    return [(t, len(occ[t]), tuple(sorted(occ[t]))) for t in sorted(occ) if len(occ[t]) >= 3]


@pytest.mark.parametrize("m_min", range(3, 10))
def test_scan_equals_tally_oracle_for_every_threshold(repeats_to_2e5, m_min):
    # m_min <= 4 takes every value of column 2 as a candidate (t = 6 at n = 4 has N = 3);
    # m_min >= 5 finds every hit in the tally of columns k >= 3
    for t_max in (6, 3003, 2 * 10**5):
        want = [rec for rec in repeats_to_2e5 if rec[0] <= t_max and rec[1] >= m_min]
        got = [(r.t, r.count, r.occurrences) for r in scan_high_multiplicity(t_max, m_min)]
        assert got == want, (t_max, m_min)


@pytest.mark.parametrize("m_min", range(3, 9))
def test_scan_records_are_the_multiplicity_records(repeats_to_2e5, m_min):
    # the scan forms each record from the positions it visited; multiplicity searches every column
    for t_max in (2, 5, 6, 19, 20, 21, 35, 120, 3003, 3004, 24310, 10**5, 2 * 10**5):
        want = [rec for rec in repeats_to_2e5 if rec[0] <= t_max and rec[1] >= m_min]
        got = scan_high_multiplicity(t_max, m_min)
        assert [(r.t, r.count, r.occurrences) for r in got] == want, (t_max, m_min)
        assert got == [multiplicity(t) for t, _, _ in want], (t_max, m_min)


def test_scan_never_searches_a_column(monkeypatch):
    def search(t):
        pytest.fail(f"searched the columns for {t}")

    monkeypatch.setattr(census_mod, "multiplicity", search)
    monkeypatch.setattr(census_mod, "_interior_occurrences", search)
    repeats = [120, 210, 1540, 3003, 7140, 11628, 24310]  # every t <= 3*10^10 with N(t) >= 5
    for m_min in range(3, 9):
        if m_min <= 4:
            assert len(scan_high_multiplicity(10**6, m_min)) > 1413  # every C(n,2) <= 10^6, n >= 5
        else:
            got = [r.t for r in scan_high_multiplicity(3 * 10**10, m_min)]
            assert got == (repeats if m_min <= 6 else [3003])


def column_search_occurrences(t: int) -> tuple[tuple[int, int], ...]:
    """Oracle for N(t): every column k with C(2k,k) <= t searched over all n >= 2k.

    Gallops up the column for an upper end, then bisects; no bound on n is
    assumed beyond monotonicity, so it is independent of the k-th root bracket.
    """
    occ = {(t, 1), (t, t - 1)}
    k = 2
    while math.comb(2 * k, k) <= t:
        lo, hi = 2 * k, 2 * k
        while math.comb(hi, k) < t:
            lo, hi = hi + 1, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            if math.comb(mid, k) < t:
                lo = mid + 1
            else:
                hi = mid
        if math.comb(lo, k) == t:
            occ |= {(lo, k), (lo, lo - k)}
        k += 1
    return tuple(sorted(occ))


entries = st.integers(2, 400).flatmap(lambda n: st.integers(1, n - 1).map(lambda k: math.comb(n, k)))


@settings(max_examples=80, deadline=None)
@given(t=st.one_of(entries, st.integers(2, 10**60)))
def test_multiplicity_matches_full_column_search(t):
    rec = multiplicity(t)
    assert rec.occurrences == column_search_occurrences(t)
    assert rec.count == len(rec.occurrences)


def test_kth_root_on_powers_and_their_neighbours():
    assert [_kth_root(x, 1) for x in (0, 1, 2, 3**200)] == [0, 1, 2, 3**200]
    for k in range(2, 25):
        assert _kth_root(0, k) == 0
        assert _kth_root(1, k) == 1
        for r in (2, 3, 10, 255, 10**6 + 3, 3**200, 2**521 - 1):
            assert _kth_root(r**k, k) == r
            assert _kth_root(r**k - 1, k) == r - 1
            assert _kth_root(r**k + 1, k) == r


# the values known to occur six or more times, 3003 eight times
KNOWN_REPEATS = [120, 210, 1540, 3003, 7140, 11628, 24310, 61218182743304701891431482520]


def least_row(t: int, k: int, start: tuple[int, int]) -> int:
    """The least row n of column k with C(n,k) >= t, stepped up from start = (n0, C(n0,k))."""
    n, c = start
    while c < t:
        n += 1
        c = c * n // (n - k)
    return n


def seed_box() -> list[int]:
    """t from 2 to 1,000 digits, C(n,k) and C(n,k) +- 1 for large k, and the known repeats."""
    rng = random.Random(26)
    box = list(range(2, 300))
    digits = (3, 5, 9, 14, 20, 30, 45, 68, 100, 150, 230, 350, 520, 780, 1000)
    box += [rng.randrange(10 ** (d - 1), 10**d) for d in digits]
    for n, k in [(n, k) for n in (60, 200, 800) for k in (n // 8, n // 3, n // 2)] + [(3400, 1200)]:
        box += [math.comb(n, k) + d for d in (-1, 0, 1)]
    return box + KNOWN_REPEATS


def test_float_start_agrees_with_the_bracket_on_a_declared_box():
    # every column of t below 10^300, and about 60 spread over the columns of a larger t, the
    # first ones and the last ones among them, cover the starts near 2^50, where the float is
    # least precise, and those at the centrals
    fallbacks = low_columns = 0
    for t in seed_box():
        log_t = math.log(t)
        columns = []  # (k, C(2k,k)) for each column k >= 2 with C(2k,k) <= t
        k, central = 2, 6
        while central <= t:
            columns.append((k, central))
            central = central * 2 * (2 * k + 1) // (k + 1)
            k += 1
        if t >= 10**300:
            columns = sorted(set(columns[:20] + columns[-20:] + columns[:: len(columns) // 20]))
        for k, central in columns:
            want = least_row(t, k, _bracket_start(t, k))
            start = _float_start(t, log_t, k, central)
            if start is not None:
                n0, c0 = start
                assert 2 * k <= n0 <= want and c0 == math.comb(n0, k) <= t, (t, k)
                assert least_row(t, k, start) == want, (t, k)
            if want < 2**40:
                low_columns += 1
                fallbacks += start is None
    # below 2^40 the float is within a hundredth of a row, so the bracket is almost never needed
    assert fallbacks <= low_columns // 100, (fallbacks, low_columns)


def test_multiplicity_without_float_starts_is_the_same(monkeypatch):
    box = [t for t in seed_box() if t < 10**100]
    want = [multiplicity(t) for t in box]
    monkeypatch.setattr(census_mod, "_float_start", lambda t, log_t, k, central: None)
    assert [multiplicity(t) for t in box] == want


def test_scan_domain():
    with pytest.raises(PreconditionError):
        scan_high_multiplicity(1, 3)
    with pytest.raises(PreconditionError):
        scan_high_multiplicity(100, 2)


def test_multiplicity_record_json_dict_uses_strings_for_big_values():
    rec = multiplicity(3003)
    d = rec.to_json_dict()
    assert d["t"] == "3003"
    assert d["count"] == 8
    assert ["15", "5"] in d["occurrences"] or ("15", "5") in [tuple(o) for o in d["occurrences"]]
    json.dumps(d)


def test_intersect_curves_known_crossing():
    pts = intersect_curves(ShiftPair(104, 1), ShiftPair(110, 2), 200)
    assert (120, 1) in pts
    for x, y in pts:
        assert equality_check(x, y, ShiftPair(104, 1))
        assert equality_check(x, y, ShiftPair(110, 2))


def double_filter(s1: ShiftPair, s2: ShiftPair, x_max: int) -> list[tuple[int, int]]:
    """Oracle: every (x,y) of the box that solves both equations, sorted by (y, x)."""
    return sorted(
        (
            (x, y)
            for x in range(x_max + 1)
            for y in range(x + 1)
            if equality_check(x, y, s1) and equality_check(x, y, s2)
        ),
        key=lambda p: (p[1], p[0]),
    )


def test_intersect_curves_matches_direct_double_filter():
    # large-a pairs: the walk ends after a few rows, the first ones y <= a
    for s1, s2, x_max in [
        (ShiftPair(1, 1), ShiftPair(1, 3), 300),
        (ShiftPair(63, 3), ShiftPair(64, 4), 200),
        (ShiftPair(63, 3), ShiftPair(64, 4), 78),  # the crossing (78,2) sits on the bound
        (ShiftPair(104, 1), ShiftPair(110, 2), 200),
        (ShiftPair(2, 3), ShiftPair(1, 4), 5),  # the trivial (5,0) is row 0's crossing, on the bound
        (ShiftPair(2, 3), ShiftPair(1, 4), 4),
    ]:
        assert intersect_curves(s1, s2, x_max) == double_filter(s1, s2, x_max)


@settings(max_examples=200, deadline=None)
@given(
    a1=st.integers(1, 8),
    b1=st.integers(1, 8),
    a2=st.integers(1, 8),
    b2=st.integers(1, 8),
    x_max=st.integers(1, 150),
)
def test_intersect_curves_is_the_double_filter(a1, b1, a2, b2, x_max):
    s1, s2 = ShiftPair(a1, b1), ShiftPair(a2, b2)
    assume(s1 != s2)
    assert intersect_curves(s1, s2, x_max) == double_filter(s1, s2, x_max)


def test_intersect_to_a_million_makes_a_few_hundred_row_crossings(monkeypatch):
    # The rows of (1,1) up to _last_row, about 382,000, are covered by the
    # tube: 256 walked rows, then three crossings per proved block.
    calls = 0
    crossing = search_mod._row_crossing

    def counting_crossing(y, shift, guess):
        nonlocal calls
        calls += 1
        return crossing(y, shift, guess)

    monkeypatch.setattr(search_mod, "_row_crossing", counting_crossing)
    assert intersect_curves(ShiftPair(1, 1), ShiftPair(1, 3), 10**6) == [(15, 5)]
    assert calls <= 300


@pytest.mark.parametrize(
    "s1,s2", [((1, 1), (1, 3)), ((5, 1), (5, 2)), ((6, 1), (5, 1))], ids=["1,1-1,3", "5,1-5,2", "6,1-5,1"]
)
def test_intersect_to_a_million_is_the_walk_up_to_the_last_row(s1, s2):
    # hits: 3003 = C(15,5) = C(14,6) = C(14,8), and 10 = C(10,1) = C(5,2) = C(5,3);
    # (6,1) solves at (16,2), 120 = C(16,2) = C(10,3), which (5,1) does not
    s1, s2 = ShiftPair(*s1), ShiftPair(*s2)
    last = search_mod._last_row(s1, 10**6)
    walk = [(x, y) for x, y in search_mod._row_solutions(s1, last) if equality_check(x, y, s2)]
    assert intersect_curves(s1, s2, 10**6) == walk


def test_intersect_curves_rejects_equal_shifts():
    with pytest.raises(PreconditionError):
        intersect_curves(ShiftPair(1, 1), ShiftPair(1, 1), 100)

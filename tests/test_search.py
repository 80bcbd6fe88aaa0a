import importlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pascalrepeats.combinatorics import binomial, fibonacci
from pascalrepeats.errors import PreconditionError
from pascalrepeats.ratios import ShiftPair, isolate_zeta
from pascalrepeats.search import (
    Solution,
    brute_search,
    candidate_window,
    convergent_bracket_check,
    equality_check,
    family_member,
    family_verify,
    search,
)


# the module itself: the package namespace rebinds the name search to the function
search_mod = importlib.import_module("pascalrepeats.search")


def comb0(n: int, k: int) -> int:
    """Oracle-side binomial: 0 outside the triangle, via math.comb."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def oracle_solutions(shift: ShiftPair, x_max: int) -> set[tuple[int, int]]:
    """Every (x, y) in the box solving the equation, straight from math.comb."""
    out = set()
    for x in range(0, x_max + 1):
        for y in range(0, x + 1):
            if comb0(x, y) == comb0(x - shift.a, y + shift.b):
                out.add((y, x))
    return out


# ---------------------------------------------------------------------------
# equality_check
# ---------------------------------------------------------------------------


def test_equality_check_known_points():
    assert equality_check(15, 5, ShiftPair(1, 1))
    assert equality_check(104, 39, ShiftPair(1, 1))
    assert equality_check(6, 1, ShiftPair(2, 1))  # C(6,1) = C(4,2) = 6
    assert equality_check(15, 5, ShiftPair(1, 3))  # C(15,5) = C(14,8) = 3003
    assert not equality_check(16, 5, ShiftPair(1, 1))
    assert not equality_check(10, 4, ShiftPair(2, 1))


def test_equality_check_short_row_fast_path():
    # x - a < y + b makes the right side vanish while the left is >= 1
    assert not equality_check(4, 3, ShiftPair(1, 1))
    assert not equality_check(3, 2, ShiftPair(2, 2))


def test_equality_check_matches_oracle_everywhere_small():
    for a, b in [(1, 1), (2, 1), (1, 2), (3, 2)]:
        shift = ShiftPair(a, b)
        for x in range(0, 80):
            for y in range(0, x + 1):
                assert equality_check(x, y, shift) == (comb0(x, y) == comb0(x - a, y + b))


def test_equality_check_domain():
    with pytest.raises(PreconditionError):
        equality_check(5, -1, ShiftPair(1, 1))
    with pytest.raises(PreconditionError):
        equality_check(4, 5, ShiftPair(1, 1))


def test_equality_check_avoids_binomial_blowup():
    # product form touches a+b factors, not the coefficients themselves,
    # so astronomically placed non-solutions are cheap to reject
    assert not equality_check(10**6, 10**5, ShiftPair(1, 1))


# ---------------------------------------------------------------------------
# candidate_window
# ---------------------------------------------------------------------------


def test_candidate_window_contains_all_known_solutions():
    shift = ShiftPair(1, 1)
    zeta = isolate_zeta(shift, Fraction(1, 2001))
    for x, y in [(15, 5), (104, 39), (714, 272), (4895, 1869)]:
        lo, hi = candidate_window(y, shift, zeta)
        assert lo <= x <= hi


def test_candidate_window_width_stays_small():
    shift = ShiftPair(1, 1)
    zeta = isolate_zeta(shift, Fraction(1, 2001))
    for y in range(2, 2001, 97):
        lo, hi = candidate_window(y, shift, zeta)
        assert hi - lo + 1 <= 7


def test_candidate_window_is_sound_against_oracle_rows():
    # windows must cover every solution row-by-row, whatever the shift
    for a, b in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        shift = ShiftPair(a, b)
        zeta = isolate_zeta(shift, Fraction(1, 500))
        solutions = oracle_solutions(shift, 300)
        for y, x in solutions:
            if y > a:
                lo, hi = candidate_window(y, shift, zeta)
                assert lo <= x <= hi, (a, b, x, y)


# ---------------------------------------------------------------------------
# search and brute_search
# ---------------------------------------------------------------------------


def test_search_agrees_with_oracle_small_boxes():
    # for the large-a shifts most of the box lies in rows y <= a, where the
    # bisection bracket comes from galloping rather than the zeta window
    for a, b in [(1, 1), (2, 1), (1, 2), (2, 3), (63, 3), (64, 4), (104, 1), (110, 2)]:
        shift = ShiftPair(a, b)
        want = oracle_solutions(shift, 200)
        got = {s.key() for s in search(shift, 200) if s.x <= 200}
        assert got == want


@settings(max_examples=60, deadline=None)
@given(a=st.integers(1, 8), b=st.integers(1, 8), x_max=st.integers(1, 120))
def test_search_equals_brute_search_on_random_boxes(a, b, x_max):
    shift = ShiftPair(a, b)
    assert [s for s in search(shift, x_max) if s.x <= x_max] == brute_search(shift, x_max)


def test_brute_search_agrees_with_oracle():
    for a, b in [(1, 1), (2, 2), (3, 1)]:
        shift = ShiftPair(a, b)
        want = oracle_solutions(shift, 150)
        got = {s.key() for s in brute_search(shift, 150)}
        assert got == want


def test_search_first_family_prefix():
    sols = search(ShiftPair(1, 1), 300)
    nontrivial = [(s.x, s.y) for s in sols if not s.trivial]
    assert nontrivial == [(15, 5), (104, 39), (714, 272)]
    values = [s.value for s in sols if not s.trivial]
    assert values[:2] == [3003, binomial(104, 39)]


def test_search_solutions_are_sorted_and_annotated():
    sols = search(ShiftPair(1, 1), 120)
    assert sols == sorted(sols, key=lambda s: s.key())
    for s in sols:
        assert s.value == binomial(s.x, s.y)
        assert s.trivial == (s.value <= 1)
        assert equality_check(s.x, s.y, s.shift)


def test_search_at_most_one_solution_per_deep_row():
    for a, b in [(1, 1), (2, 1), (1, 3)]:
        shift = ShiftPair(a, b)
        sols = search(shift, 400)
        deep = [s.y for s in sols if s.y > a]
        assert len(deep) == len(set(deep))


def test_importing_the_cli_does_not_load_multiprocessing():
    # no search starts a process, whatever --workers says, so nothing loads multiprocessing
    code = (
        "import sys, pascalrepeats.cli\n"
        "print('multiprocessing' in sys.modules)\n"
        "code = pascalrepeats.cli.main(['search', '--a', '2', '--b', '3', '--y-max', '300', '--workers', '2'])\n"
        "print(code, 'multiprocessing' in sys.modules)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the search's own output lies between the two probes
    assert (lines[0], lines[-1]) == ("False", "0 False")


@pytest.mark.parametrize("a,b,y_max", [(1, 1, 20000), (1, 4, 15050), (2, 3, 15050)])
def test_row_walk_costs_at_most_three_evaluations_per_row(a, b, y_max, monkeypatch):
    # An evaluation is one left side ff(x-y, a+b); a, b >= 1 makes every
    # other perm call shorter. The guess from the last two crossings is
    # mostly off by at most one, which costs two evaluations. The walk
    # covers every row here; search walks only its first rows.
    evaluations = 0

    def counting_perm(n, k):
        nonlocal evaluations
        evaluations += k == a + b
        return math.perm(n, k)

    monkeypatch.setattr(search_mod, "perm", counting_perm)
    list(search_mod._row_solutions(ShiftPair(a, b), y_max))
    assert evaluations <= 3 * (y_max + 1)


def test_value_bit_budget_admits_member_six_and_refuses_member_seven(monkeypatch):
    # neither value is formed: member 6 alone takes about 20 ms, member 7 about 0.4 s
    monkeypatch.setattr(search_mod, "binomial", lambda n, k: pytest.fail("formed a value"))
    x, y = (v + 1 for v in search_mod._family_nk(6))
    assert (x, y) == (229970, 87840)
    search_mod._check_value_bits(x, y)
    x, y = (v + 1 for v in search_mod._family_nk(7))
    assert (x, y) == (1576239, 602069)
    with pytest.raises(PreconditionError, match="over 262144 bits"):
        search_mod._check_value_bits(x, y)
    with pytest.raises(PreconditionError, match="over 262144 bits"):
        search_mod._make_solution(x, y, ShiftPair(1, 1))


def test_value_bit_budget_is_silent_on_edges_and_small_values():
    for x, y in [(0, 0), (5, 0), (5, 5), (10**30, 1), (10**30, 10**30 - 1), (400_000, 200_000)]:
        search_mod._check_value_bits(x, y)
    with pytest.raises(PreconditionError):
        search_mod._check_value_bits(10**30, 20_000)


def test_search_perturbed_neighbors_are_rejected():
    # a solution's immediate neighbors never solve the equation
    shift = ShiftPair(1, 1)
    for x, y in [(15, 5), (104, 39)]:
        for dx, dy in [(-1, 0), (1, 0), (0, 1), (1, 1)]:
            assert not equality_check(x + dx, y + dy, shift)


def test_search_validation():
    with pytest.raises(PreconditionError):
        search(ShiftPair(1, 1), 0)


def test_brute_search_empty_box():
    assert brute_search(ShiftPair(1, 1), -1) == []


def test_solution_key_orders_by_column_then_row():
    s1 = Solution(ShiftPair(1, 1), 15, 5, 3003, False)
    s2 = Solution(ShiftPair(1, 1), 104, 39, binomial(104, 39), False)
    assert s1.key() < s2.key()


# ---------------------------------------------------------------------------
# the Fibonacci family
# ---------------------------------------------------------------------------


def test_family_member_first_values():
    m = family_member(1)
    assert (m.n, m.k, m.value) == (14, 4, 3003)
    m2 = family_member(2)
    assert (m2.n, m2.k) == (103, 38)
    m3 = family_member(3)
    assert (m3.n, m3.k) == (713, 271)
    m4 = family_member(4)
    assert (m4.n, m4.k) == (4894, 1868)


def test_family_member_fibonacci_closed_form():
    # stop at i=5: family_member forms the exact value and member 6 already
    # has tens of thousands of digits
    for i in range(1, 6):
        m = family_member(i)
        assert m.n == fibonacci(2 * i + 2) * fibonacci(2 * i + 3) - 1
        assert m.k == fibonacci(2 * i) * fibonacci(2 * i + 3) - 1


def test_family_member_value_is_the_repeated_coefficient():
    for i in (1, 2):
        m = family_member(i)
        assert m.value == math.comb(m.n + 1, m.k + 1)
        assert m.value == math.comb(m.n, m.k + 2)


def test_family_verify_far_beyond_direct_computation():
    # member 12 has coefficients with millions of digits; the product-form
    # verifier must confirm the equality without ever forming them
    assert family_verify(12)


def test_family_verify_small_prefix():
    assert family_verify(1)
    assert family_verify(4)


def test_family_domain():
    with pytest.raises(PreconditionError):
        family_member(0)
    with pytest.raises(PreconditionError):
        family_verify(0)


def test_convergent_bracket_check_initial_members():
    for i in range(1, 7):
        assert convergent_bracket_check(i)

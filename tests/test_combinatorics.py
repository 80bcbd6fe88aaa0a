import importlib
import io
import json
import math
import random

import pytest

from pascalrepeats import cli as cli_mod
from pascalrepeats import combinatorics as comb_mod
from pascalrepeats.combinatorics import binomial, falling_factorial, fibonacci
from pascalrepeats.errors import PreconditionError
from pascalrepeats.ratios import ShiftPair
from pascalrepeats.search import family_member
from pascalrepeats.search import search as run_search

search_mod = importlib.import_module("pascalrepeats.search")


def test_binomial_matches_math_comb_on_a_dense_sweep():
    for n in range(0, 121):
        for k in range(-2, n + 3):
            expected = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == expected


def test_binomial_matches_a_triangle_built_by_addition():
    # an oracle independent of math.comb: rows of Pascal's triangle by the recurrence alone
    row = [1]
    for n in range(0, 201):
        for k in range(-3, n + 4):
            assert binomial(n, k) == (row[k] if 0 <= k <= n else 0), (n, k)
        row = [1] + [row[i] + row[i + 1] for i in range(n)] + [1]


def test_binomial_rejects_negative_row():
    with pytest.raises(PreconditionError):
        binomial(-1, 0)


def test_binomial_out_of_range_column_is_zero():
    assert binomial(10, -1) == 0
    assert binomial(10, 11) == 0


def test_binomial_pascal_recurrence_random():
    rng = random.Random(1003)
    for _ in range(300):
        n = rng.randrange(1, 400)
        k = rng.randrange(0, n + 1)
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_symmetry_random():
    rng = random.Random(1004)
    for _ in range(200):
        n = rng.randrange(0, 500)
        k = rng.randrange(0, n + 1)
        assert binomial(n, k) == binomial(n, n - k)


def counting_legendre(monkeypatch) -> list[tuple[int, int]]:
    """Record the (n, k) of every call binomial makes to its prime-factorisation path."""
    calls = []
    real = comb_mod._legendre_binomial

    def counting(n, k):
        calls.append((n, k))
        return real(n, k)

    monkeypatch.setattr(comb_mod, "_legendre_binomial", counting)
    return calls


def test_legendre_binomial_matches_math_comb_on_every_small_row():
    # the prime ranges (m, n], (n/2, m], (sqrt n, n/2] and [2, sqrt n] degenerate for small n
    for n in range(0, 120):
        for k in range(0, n // 2 + 1):
            assert comb_mod._legendre_binomial(n, k) == math.comb(n, k), (n, k)


def test_prime_sieve_marks_exactly_the_primes():
    sieve = comb_mod._prime_sieve(1000)
    primes = [p for p in range(2, 1001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert [i for i in range(1001) if sieve[i]] == primes
    for n in (0, 1, 2):
        assert list(comb_mod._prime_sieve(n)[: n + 1]) == [0, 0, 1][: n + 1]


def test_binomial_matches_math_comb_across_the_crossover(monkeypatch):
    # k' = min(k, n-k) at 0, 1, 2, n/3 and n/2, at the least k' past the crossover and one
    # below it, and at n/16 (the ratio bound), each at both edges, k = k' and k = n - k'
    # the crossover is at n = 2048 for k' = n/2 and at n = 4608 for k' = n/3
    calls = counting_legendre(monkeypatch)
    for n in [*range(1998, 2098, 4), *range(4558, 4658, 4)]:
        k_cross = math.isqrt(comb_mod._MIN_K2_PER_N * n - 1) + 1
        for kk in (0, 1, 2, n // 3, n // 2, k_cross - 1, k_cross, n // comb_mod._MAX_N_PER_K):
            for k in (kk, n - kk):
                assert binomial(n, k) == math.comb(n, k), (n, k)
    # in each band, k' = n/2 or n/3 took both paths
    for lo, share in ((1998, 2), (4558, 3)):
        taken = {n for n, k in calls if lo <= n < lo + 100 and k == n // share}
        assert 0 < len(taken) < 25, (lo, share)


def test_binomial_matches_math_comb_on_random_rows_up_to_40000(monkeypatch):
    calls = counting_legendre(monkeypatch)
    rng = random.Random(1005)
    for _ in range(30):
        n = rng.randrange(0, 40001)
        k = rng.randrange(-1, n + 2)
        assert binomial(n, k) == (math.comb(n, k) if 0 <= k <= n else 0), (n, k)
    assert len(calls) >= 15


def test_binomial_identities_at_family_member_six_size(monkeypatch):
    # math.comb alone would take about half a second per value here
    calls = counting_legendre(monkeypatch)
    n, k = 229970, 87840
    c = binomial(n, k)
    assert c == binomial(n - 1, k - 1) + binomial(n - 1, k)
    assert c * (n - k) == binomial(n, k + 1) * (k + 1)
    assert c.bit_length() == 220628
    assert len(calls) == 4


def test_binomial_with_n_large_next_to_k_does_not_sieve(monkeypatch):
    # C(170000, 10000) is past the crossover (k'^2 >= 512n) but has n > 16k'
    monkeypatch.setattr(comb_mod, "_prime_sieve", lambda n: pytest.fail(f"sieved to {n}"))
    for n, k in ((10**30, 2), (2**200, 7), (10**18, 10**18 - 3), (170000, 10000)):
        assert binomial(n, k) == math.comb(n, k)


def test_public_callers_form_values_through_binomial(tmp_path, monkeypatch):
    # search, verify and family form every value by binomial, which picks the path: member 4,
    # C(4895,1869), takes the prime factorisation, and C(3003,1), the solution (3003,1) of the
    # shift (2988,4) since 3003 = C(3003,1) = C(15,5), takes math.comb
    calls = counting_legendre(monkeypatch)
    seen = []

    def recording(n, k):
        seen.append((n, k))
        return binomial(n, k)

    monkeypatch.setattr(search_mod, "binomial", recording)  # verify forms its values through search too
    assert family_member(4).value == math.comb(4895, 1869)
    assert [(s.x, s.y, s.value) for s in run_search(ShiftPair(2988, 4), 2)] == [(2992, 0, 1), (3003, 1, 3003)]
    member = [s for s in run_search(ShiftPair(1, 1), 1900) if s.y == 1869]
    assert member and member[0].value == math.comb(4895, 1869)
    path = tmp_path / "cache.jsonl"
    record = {"a": 2988, "b": 4, "x": 3003, "y": 1, "value": 3003, "trivial": False}
    path.write_text(json.dumps(record) + "\n")
    out, err = io.StringIO(), io.StringIO()
    assert cli_mod.dispatch(cli_mod.build_parser().parse_args(["verify", "--cache", str(path)]), out, err) == 0
    assert seen.count((3003, 1)) == 2
    assert seen.count((4895, 1869)) == 2
    assert calls == [(4895, 1869)] * 2


def test_falling_factorial_matches_direct_product():
    for s in [*range(-40, 41), 10**30, -(10**30)]:
        for length in range(0, 21):
            direct = 1
            for i in range(length):
                direct *= s - i
            assert falling_factorial(s, length) == direct, (s, length)


def test_falling_factorial_empty_product_is_one():
    assert falling_factorial(17, 0) == 1
    assert falling_factorial(-5, 0) == 1


def test_fibonacci_initial_segment():
    want = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert [fibonacci(i) for i in range(len(want))] == want


def test_fibonacci_matches_iterative_reference():
    a, b = 0, 1
    for i in range(600):
        assert fibonacci(i) == a
        a, b = b, a + b


def test_fibonacci_doubling_identity():
    # F(2n) = F(n) * (2 F(n+1) - F(n)), a consequence of the matrix form
    for n in range(1, 80):
        assert fibonacci(2 * n) == fibonacci(n) * (2 * fibonacci(n + 1) - fibonacci(n))


def test_fibonacci_rejects_negative_index():
    with pytest.raises(PreconditionError):
        fibonacci(-1)

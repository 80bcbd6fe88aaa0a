import math
import random

import pytest

from pascalrepeats.combinatorics import binomial, falling_factorial, fibonacci
from pascalrepeats.errors import PreconditionError


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

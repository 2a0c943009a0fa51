import math
import random
from itertools import combinations

import pytest

from hodgekit.intlinalg import integer_rank, smith_normal_form

from oracles import fraction_rank


def test_rank_simple_cases():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[2, 3, 5], [7, 11, 13]]) == 2


def test_rank_against_rational_oracle():
    rng = random.Random(20240809)
    for trial in range(200):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        mat = [
            [rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)
        ]
        # inject dependencies half of the time
        if rows >= 2 and trial % 2:
            mat[-1] = [2 * a + 3 * b for a, b in zip(mat[0], mat[rows // 2])]
        assert integer_rank(mat) == fraction_rank(mat), mat


def test_snf_known_values():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[6]]) == [6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def _minor_gcd(mat, k):
    rows = range(len(mat))
    cols = range(len(mat[0]))
    best = 0
    for rsel in combinations(rows, k):
        for csel in combinations(cols, k):
            sub = [[mat[i][j] for j in csel] for i in rsel]
            best = math.gcd(best, _det(sub))
    return best


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def test_snf_matches_minor_gcds():
    # d_1 ... d_k equals gcd of k x k minors; checked on small matrices
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = [
            [rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)
        ]
        factors = smith_normal_form(mat)
        assert len(factors) == integer_rank(mat)
        for i in range(len(factors) - 1):
            assert factors[i + 1] % factors[i] == 0
        product = 1
        for k, d in enumerate(factors, start=1):
            product *= d
            assert product == abs(_minor_gcd(mat, k)), (mat, factors)


def test_a_ragged_matrix_is_refused():
    for call in (integer_rank, smith_normal_form):
        with pytest.raises(ValueError, match="^ragged matrix$"):
            call([[1, 2], [3]])


def test_the_empty_matrix_has_no_invariant_factors():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[]]) == []

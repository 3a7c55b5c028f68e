import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlie.gf import (PrimeField, echelon, echelon_add, lucas_binom,
                        mat_apply_rows, rank, smallest_prime_factor,
                        solve_or_kernel)


def test_prime_field_validates():
    assert PrimeField(7).p == 7
    for bad in (2, 3, 4, 9, 1, 0, 49):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_lucas_examples():
    # C(6,2) = 15 = 1 mod 7, consistent with C(q-1, i) = (-1)^i
    assert lucas_binom(6, 2, 7) == 1
    assert lucas_binom(5, 0, 7) == 1
    # C(10,5) = 252 = 7 * 36
    assert math.comb(10, 5) == 252 and 252 % 7 == 0
    assert lucas_binom(10, 5, 7) == 0
    assert lucas_binom(3, 5, 7) == 0  # k > n


@pytest.mark.parametrize("q", [7, 49])
def test_binomial_q_minus_1_alternates(q):
    for i in range(q):
        assert lucas_binom(q - 1, i, 7) == (1 if i % 2 == 0 else 6)


@given(st.sampled_from([5, 7, 11, 13]), st.integers(0, 13 ** 3),
       st.integers(0, 13 ** 3))
@settings(max_examples=300)
def test_lucas_matches_bigint(p, n, k):
    # math.comb returns 0 for k > n, matching the contract
    assert lucas_binom(n, k, p) == math.comb(n, k) % p


def test_solve_identity():
    sol = solve_or_kernel(((1, 0), (0, 1)), (3, 5), 7)
    assert sol.consistent and sol.solution == (3, 5) and sol.kernel == []


def test_solve_zero_matrix_full_kernel():
    sol = solve_or_kernel(((0, 0), (0, 0)), (0, 0), 7)
    assert sol.consistent and len(sol.kernel) == 2


def test_solve_rank_one():
    # [[1,2],[2,4]] x = (1,2) mod 7: eliminating gives x1 + 2 x2 = 1,
    # one free variable
    sol = solve_or_kernel(((1, 2), (2, 4)), (1, 2), 7)
    assert sol.consistent
    assert sol.solution == (1, 0)
    assert len(sol.kernel) == 1
    assert sol.kernel[0] == (5, 1)


def test_solve_inconsistent():
    sol = solve_or_kernel(((1, 2), (2, 4)), (1, 3), 7)
    assert not sol.consistent


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_or_kernel(((1, 2),), (1, 2), 7)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=200)
def test_solve_roundtrip(m, n, data):
    p = 7
    A = tuple(tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
              for _ in range(m))
    x_true = tuple(data.draw(st.integers(0, p - 1)) for _ in range(n))
    b = tuple(sum(A[i][j] * x_true[j] for j in range(n)) % p for i in range(m))
    sol = solve_or_kernel(A, b, p)
    assert sol.consistent
    for row, bi in zip(A, b):
        assert sum(r * s for r, s in zip(row, sol.solution)) % p == bi
    for v in sol.kernel:
        for row in A:
            assert sum(r * s for r, s in zip(row, v)) % p == 0
    assert len(sol.kernel) == n - rank(A, p)


def test_echelon_and_rank():
    rows = ((1, 2, 3), (2, 4, 6), (0, 1, 1))
    assert rank(rows, 7) == 2
    ech = echelon(rows, 7)
    assert len(ech) == 2 and ech[0][0] == 1  # normalized pivots


def test_mat_apply_rows():
    rows = ((1, 2), (0, 3))   # row per source basis vector
    assert mat_apply_rows(rows, (1, 1), 7) == (1, 5)
    assert mat_apply_rows(rows, (0, 0), 7) == (0, 0)


def test_smallest_prime_factor_brute_force():
    for n in range(2, 201):
        want = next(d for d in range(2, n + 1) if n % d == 0)
        assert smallest_prime_factor(n) == want, n


def test_echelon_add_matches_echelon():
    # the incremental sparse routine keeps the rank and the pivot columns of
    # the dense echelon form, row by row, on random sparse vectors
    rng = random.Random(1)
    for p in (5, 7, 13):
        for _ in range(150):
            n = rng.randint(1, 12)
            rows = [tuple(rng.randrange(1, p) if rng.random() < 0.3 else 0
                          for _ in range(n)) for _ in range(rng.randint(1, 10))]
            basis = []
            for i, r in enumerate(rows):
                added = echelon_add(basis, {j: a for j, a in enumerate(r) if a}, p)
                assert len(basis) == rank(rows[:i + 1], p)
                assert added == (len(basis) > rank(rows[:i], p))
            ref = echelon(rows, p)
            assert sorted(piv for piv, _ in basis) == \
                [next(j for j, a in enumerate(r) if a) for r in ref]
            for piv, row in basis:
                assert row[piv] == 1 and min(row) == piv

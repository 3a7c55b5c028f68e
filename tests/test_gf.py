import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import echelon, kernel, lucas_binom
from thinlie.gf import (PrimeField, echelon_add, mat_apply_rows, rank,
                        smallest_prime_factor, solve_or_kernel)


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


def _taken(vectors, p):
    """The echelon basis of vectors added in order, and the ones taken."""
    basis = []
    return basis, [v for v in vectors if echelon_add(basis, v, p)]


def test_solve_identity():
    basis, taken = _taken([{0: 1}, {1: 1}], 7)
    assert len(taken) == 2
    assert solve_or_kernel(basis, {0: 3, 1: 5}, 7) == (3, 5)
    assert solve_or_kernel(basis, {}, 7) == (0, 0)
    assert kernel(((1, 0), (0, 1)), 7) == []


def test_solve_scaled_basis():
    # pivots 2 and 3 mod 7: each pivot row is its input times the pivot's
    # inverse, minus the earlier inputs, and the solve undoes both
    basis, taken = _taken([{0: 2}, {0: 1, 1: 3}], 7)
    assert [row for _, row, _ in basis] == [{0: 1}, {1: 1}]
    assert [comb for _, _, comb in basis] == [{0: 4}, {0: 1, 1: 5}]
    assert solve_or_kernel(basis, {0: 4, 1: 1}, 7) == (3, 5)


def test_solve_zero_matrix_full_kernel():
    # zero vectors are never taken: the empty basis spans only 0
    basis, taken = _taken([{}, {0: 0, 1: 7}], 7)
    assert basis == [] and taken == []
    assert solve_or_kernel(basis, {0: 0}, 7) == ()
    assert solve_or_kernel(basis, {1: 1}, 7) is None
    assert kernel(((0, 0), (0, 0)), 7) == [(1, 0), (0, 1)]


def test_solve_rank_one():
    # the columns (1, 2) and (2, 4) of [[1, 2], [2, 4]] mod 7: the second
    # is twice the first, so only the first is taken
    basis, taken = _taken([{0: 1, 1: 2}, {0: 2, 1: 4}], 7)
    assert taken == [{0: 1, 1: 2}]
    assert solve_or_kernel(basis, {0: 3, 1: 6}, 7) == (3,)
    assert kernel(((1, 2), (2, 4)), 7) == [(5, 1)]


def test_solve_inconsistent():
    basis, _ = _taken([{0: 1, 1: 2}, {0: 2, 1: 4}], 7)
    assert solve_or_kernel(basis, {0: 1, 1: 3}, 7) is None
    assert solve_or_kernel(basis, {2: 1}, 7) is None


@given(st.sampled_from([5, 7, 13]), st.integers(1, 6), st.integers(1, 8),
       st.data())
@settings(max_examples=200)
def test_solve_roundtrip(p, m, n, data):
    # n random sparse vectors over the keys 0..m-1 go through echelon_add;
    # a random combination of the ones it took is solved back to exactly
    # its coefficients
    vectors = [data.draw(st.dictionaries(st.integers(0, m - 1),
                                         st.integers(1, p - 1), max_size=m))
               for _ in range(n)]
    basis, taken = _taken(vectors, p)
    dense = [tuple(v.get(k, 0) for k in range(m)) for v in vectors]
    assert len(taken) == len(basis) == len(echelon(dense, p)) == rank(dense, p)
    x = tuple(data.draw(st.integers(0, p - 1)) for _ in taken)
    v = {k: sum(c * u.get(k, 0) for c, u in zip(x, taken)) % p
         for k in range(m)}
    sol = solve_or_kernel(basis, v, p)
    assert sol == x
    assert all(sum(c * u.get(k, 0) for c, u in zip(sol, taken)) % p == v[k]
               for k in range(m))
    # the relations among the inputs: n - rank of them, independent
    ker = kernel(tuple(zip(*dense)), p)
    for w in ker:
        assert all(sum(c * u.get(k, 0) for c, u in zip(w, vectors)) % p == 0
                   for k in range(m))
    assert len(ker) == n - len(taken)
    assert rank(ker, p) == len(ker)


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
                assert len(basis) == len(echelon(rows[:i + 1], p))
                assert added == (len(basis) > len(echelon(rows[:i], p)))
            ref = echelon(rows, p)
            assert sorted(piv for piv, _, _ in basis) == \
                [next(j for j, a in enumerate(r) if a) for r in ref]
            for piv, row, _ in basis:
                assert row[piv] == 1 and min(row) == piv

"""The pair checks and the structure writer read bracket values off a
sweep of bracket columns (GradedAlgebra.bracket_columns and mirror_rows)
that keeps two degrees at a time.  The columns equal bracket_basis, the
mirror rows equal _mirror_basis, and the witness lists equal those of the
loops over the bracket_basis memo (helpers.memo_pair_witnesses), capped
and uncapped, on the corpus and on algebras that fail the checks; the
memo stays empty and the memory they take stays O(N)."""

import functools
import tracemalloc

import pytest

from helpers import (P, Q, corrupt_ad_x, forbidden_continuations,
                     memo_pair_witnesses)
from thinlie.engine import PAIR_CHECKS, validate
from thinlie.patterns import compile_pattern, family_pattern

UNCAPPED = 10 ** 9
FORBIDDEN = forbidden_continuations()


def _n7():
    return compile_pattern(family_pattern("a", P, P, 100), 60)[0]


def _bidegree_breaking(L):
    """L with one ad x entry moved onto a basis element of the wrong
    bidegree."""
    for k in range(2, L.N - 1):
        for i, src in enumerate(L.basis(k)):
            want = (src.bidegree[0] + 1, src.bidegree[1])
            for s, tgt in enumerate(L.basis(k + 1)):
                if tgt.bidegree != want:
                    return corrupt_ad_x(L, k, i, s)
    raise AssertionError("no ad x entry to corrupt")


# algebras that fail antisymmetry, jacobi or bidegree, and the checks they fail
FAILING = {"finite_at_92": {"antisymmetry", "jacobi"},
           "no_fake_at_128": {"antisymmetry", "jacobi"},
           "corrupt_ad_x": {"jacobi"},
           "bidegree": {"jacobi", "bidegree"}}


@functools.cache
def failing(name):
    for fname, pattern, N in FORBIDDEN:
        if fname == name:
            return compile_pattern(pattern, N, run_validation=False)[0]
    if name == "corrupt_ad_x":
        return corrupt_ad_x(_n7())
    return _bidegree_breaking(_n7())


def assert_sweeps_match_memo(L):
    """Every column entry is bracket_basis and every mirror row entry is
    _mirror_basis, on every pair of total degree <= N_built."""
    B, comp = L.N_built, L.comp_gids
    mirror = {}
    sweeps = zip(L.bracket_columns(B), L.mirror_rows(B))
    for d, (columns, rows) in enumerate(sweeps, 1):
        lo = comp[d][0]
        for c, column, row in zip(comp[d], columns, rows, strict=True):
            assert len(column) == len(row) == comp[B - d][-1] + 1 - lo
            for g, (value, mirrored) in enumerate(zip(column, row), lo):
                assert value == L.bracket_basis(g, c), (g, c)
                assert mirrored == L._mirror_basis(c, g, mirror), (c, g)
    assert d == B // 2


def assert_witnesses_match_memo(L):
    B = min(L.N, L.N_built)
    want = memo_pair_witnesses(L, B)
    for cap in (1, 10, UNCAPPED):
        rep = validate(L, checks=PAIR_CHECKS, max_witnesses=cap)
        for check in rep.checks:
            assert check.witnesses == want[check.name][:cap], \
                (check.name, cap)
            assert check.ok == (not want[check.name])
    return want


def test_sweeps_match_memo_on_corpus(corpus):
    for name, (L, _, _) in corpus.items():
        assert_sweeps_match_memo(L)


@pytest.mark.parametrize("name", FAILING)
def test_sweeps_match_memo_on_failing(name):
    assert_sweeps_match_memo(failing(name))


def test_witnesses_match_memo_on_corpus(corpus):
    for name, (L, _, _) in corpus.items():
        want = assert_witnesses_match_memo(L)
        assert not any(want.values()), name


@pytest.mark.parametrize("name", FAILING)
def test_witnesses_match_memo_on_failing(name):
    want = assert_witnesses_match_memo(failing(name))
    assert {check for check, w in want.items() if w} == FAILING[name]


def test_jacobi_pair_at_the_last_degree():
    # at N = 155 a witness has deg a = deg b = (B - 1) / 2: the sweep must
    # check the last layer of columns, which has no layer after it
    L, N = failing("no_fake_at_128"), FORBIDDEN[1][2]
    (check,) = validate(L, checks=("jacobi",), max_witnesses=UNCAPPED).checks
    last = (N - 1) // 2
    assert any(L.elements[ga].degree == L.elements[gb].degree == last
               for ga, gb, _ in check.witnesses)


class _Discard:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def test_pair_checks_and_export_take_O_N_memory():
    # the memo path peaked at about 1.9 MB here, and grows as N^2
    L, _ = compile_pattern(family_pattern("a", P, Q, 150), 120,
                           run_validation=False)
    out = _Discard()
    tracemalloc.start()
    try:
        rep = validate(L)
        L.write_structure_json(out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and out.size > 10 ** 5
    assert len(L._memo) == 0
    assert peak < 2 ** 20, peak

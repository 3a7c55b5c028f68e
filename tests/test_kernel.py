"""The bracket kernel on ad rows against the reducing formulation it
replaced (helpers.ReducingKernel): equal bracket values on every basis
pair, and equal uncapped witness lists of the words, antisymmetry and
jacobi checks, hence the same first failing degree."""

import pytest

from helpers import P, ReducingKernel, corrupt_ad_x, forbidden_continuations
from thinlie.engine import validate
from thinlie.patterns import compile_pattern, family_pattern

UNCAPPED = 10 ** 9
CHECKS = ("words", "antisymmetry", "jacobi")
FORBIDDEN = forbidden_continuations()


def _assert_equivalent(L):
    ref = ReducingKernel(L)
    mirror, ref_mirror = {}, {}
    for e1 in L.elements:
        for e2 in L.elements:
            if e1.degree + e2.degree > L.N_built:
                continue
            g1, g2 = e1.gid, e2.gid
            assert L.bracket_basis(g1, g2) == ref.bracket_basis(g1, g2), \
                (g1, g2)
            assert L._mirror_basis(g1, g2, mirror) == \
                ref.mirror_basis(g1, g2, ref_mirror), (g1, g2)
    rep = validate(L, checks=CHECKS, max_witnesses=UNCAPPED)
    want = ref.witnesses(min(L.N, L.N_built))
    for check in rep.checks:
        assert check.witnesses == want[check.name], check.name
    return rep


def test_kernel_matches_reference_on_corpus(corpus):
    for name, (L, _, _) in corpus.items():
        assert _assert_equivalent(L).ok, name


@pytest.mark.parametrize("name,pattern,N", FORBIDDEN,
                         ids=[name for name, _, _ in FORBIDDEN])
def test_kernel_matches_reference_on_forbidden(name, pattern, N):
    # not Lie algebras: the two evaluation orders disagree, so the
    # antisymmetry witnesses pin the order of evaluation too
    L, _ = compile_pattern(pattern, N, run_validation=False)
    rep = _assert_equivalent(L)
    assert {c.name for c in rep.failures()} == {"antisymmetry", "jacobi"}


def test_kernel_matches_reference_on_corrupted_ad():
    n7, _ = compile_pattern(family_pattern("a", P, P, 100), 60)
    rep = _assert_equivalent(corrupt_ad_x(n7))
    assert not rep.ok

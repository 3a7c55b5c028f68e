"""The O(N^2) generator Jacobi check against the O(N^3) triple oracle."""

import pytest

from helpers import (PAIR_CHECKS, WITNESS_GIDS, P, corrupt_ad_x,
                     failure_degrees, forbidden_continuations, jacobi_triples)
from thinlie import engine
from thinlie.engine import (CHECKS, MAXCLASS_CHECKS, NOTTINGHAM_CHECKS,
                            validate)
from thinlie.patterns import compile_pattern, family_pattern

UNCAPPED = 10 ** 9
FORBIDDEN = forbidden_continuations()
# first total degree in which each forbidden continuation breaks Jacobi
FIRST_FAILURE = {"finite_at_92": 93, "no_fake_at_128": 128}
# every total degree of their default-suite witnesses, at max_witnesses 10
FAILURE_DEGREES = {"finite_at_92": [93, 94, 95, 104, 108, 110],
                   "no_fake_at_128": [128, 129, 130, 131, 132, 133, 134, 135,
                                      140]}


def _verdicts(L):
    """(ok, first failing total degree) of jacobi and of the triple oracle."""
    rep = validate(L, checks=("jacobi",), max_witnesses=UNCAPPED)
    degs = failure_degrees(rep, L)
    triples = jacobi_triples(L, L.N)
    first = min((sum(L.elements[g].degree for g in w) for w in triples),
                default=None)
    return [(rep.ok, degs[0] if degs else None), (not triples, first)]


def test_generator_check_matches_triples_on_corpus(corpus):
    for name, (L, _, _) in corpus.items():
        gen, tri = _verdicts(L)
        assert gen == tri == (True, None), name


@pytest.mark.parametrize("name,pattern,N", FORBIDDEN,
                         ids=[name for name, _, _ in FORBIDDEN])
def test_generator_check_matches_triples_on_forbidden(name, pattern, N):
    L, _ = compile_pattern(pattern, N, run_validation=False)
    gen, tri = _verdicts(L)
    assert gen == tri == (False, FIRST_FAILURE[name])


def test_generator_check_matches_triples_on_corrupted_ad():
    n7, _ = compile_pattern(family_pattern("a", P, P, 100), 60)
    gen, tri = _verdicts(corrupt_ad_x(n7))
    assert gen == tri and gen[0] is False


def test_generator_witness_shape():
    _, pattern, N = FORBIDDEN[0]
    L, _ = compile_pattern(pattern, N, run_validation=False)
    (check,) = validate(L, checks=("jacobi",)).checks
    assert check.witnesses
    gens = set(L.comp_gids[1])
    for ga, gb, gs in check.witnesses:
        assert ga <= gb and gs in gens
        assert L.elements[ga].degree + L.elements[gb].degree + 1 <= L.N


def test_default_suites_pair_jacobi_with_antisymmetry():
    # the generator check proves Jacobi only together with antisymmetry;
    # names and order are pinned because deflate artifacts embed the report
    assert NOTTINGHAM_CHECKS == ("dimensions", "covering", "words",
                                 "antisymmetry", "jacobi", "sandwich_y",
                                 "ad_x_power_q", "bidegree")
    assert MAXCLASS_CHECKS == ("dimensions", "covering", "words",
                               "antisymmetry", "jacobi", "bidegree")
    for suite in (NOTTINGHAM_CHECKS, MAXCLASS_CHECKS):
        assert {"antisymmetry", "jacobi"} <= set(suite)
        assert "jacobi_triples" not in suite


def test_registry_holds_every_check_once():
    # validate and _pair_checks read their names off CHECKS, two fields an
    # entry; the tests' WITNESS_GIDS names only checks in it
    suites = set(NOTTINGHAM_CHECKS) | set(MAXCLASS_CHECKS)
    assert suites == set(CHECKS)
    assert "jacobi_triples" not in CHECKS
    assert all(len(entry) == 2 for entry in CHECKS.values())
    assert PAIR_CHECKS == tuple(name for name, (_, in_sweep)
                                in CHECKS.items() if in_sweep)
    assert PAIR_CHECKS == ("antisymmetry", "jacobi")
    assert set(WITNESS_GIDS) <= set(CHECKS)


def test_unknown_check_raises_before_any_check_runs(monkeypatch):
    L, _ = compile_pattern(family_pattern("a", P, P, 40), 20,
                           run_validation=False)

    def ran(*args):
        raise AssertionError("a check ran")

    monkeypatch.setitem(CHECKS, "words", (ran, False))
    with pytest.raises(ValueError, match="'nope'"):
        engine.validate(L, checks=("words", "nope"))


@pytest.mark.parametrize("name,pattern,N", FORBIDDEN,
                         ids=[name for name, _, _ in FORBIDDEN])
def test_failure_degrees_on_forbidden(name, pattern, N):
    L, _ = compile_pattern(pattern, N, run_validation=False)
    assert failure_degrees(validate(L), L) == FAILURE_DEGREES[name]

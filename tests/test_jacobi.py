"""The O(N^2) generator Jacobi check against the O(N^3) triple oracle."""

import pytest

from helpers import P, corrupt_ad_x, forbidden_continuations
from thinlie import engine
from thinlie.engine import (CHECKS, MAXCLASS_CHECKS, NOTTINGHAM_CHECKS,
                            PAIR_CHECKS, validate)
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
    """(ok, first failing total degree) of jacobi and of jacobi_triples."""
    out = []
    for name in ("jacobi", "jacobi_triples"):
        rep = validate(L, checks=(name,), max_witnesses=UNCAPPED)
        degs = rep.failure_degrees(L)
        out.append((rep.ok, degs[0] if degs else None))
    return out


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
    # validate, _pair_checks and failure_degrees read their names off CHECKS
    suites = set(NOTTINGHAM_CHECKS) | set(MAXCLASS_CHECKS)
    assert suites | {"jacobi_triples"} <= set(CHECKS)
    assert PAIR_CHECKS == tuple(name for name, (_, in_sweep, _)
                                in CHECKS.items() if in_sweep)
    assert set(PAIR_CHECKS) == {"antisymmetry", "jacobi", "bidegree"}


def test_unknown_check_raises_before_any_check_runs(monkeypatch):
    L, _ = compile_pattern(family_pattern("a", P, P, 40), 20,
                           run_validation=False)

    def ran(*args):
        raise AssertionError("a check ran")

    monkeypatch.setitem(CHECKS, "words", (ran, False, 0))
    with pytest.raises(ValueError, match="'nope'"):
        engine.validate(L, checks=("words", "nope"))


@pytest.mark.parametrize("name,pattern,N", FORBIDDEN,
                         ids=[name for name, _, _ in FORBIDDEN])
def test_failure_degrees_on_forbidden(name, pattern, N):
    L, _ = compile_pattern(pattern, N, run_validation=False)
    assert validate(L).failure_degrees(L) == FAILURE_DEGREES[name]

"""bench/tracing.py wraps package functions by module and name, and reads
counts off some of their results.  Every name it wraps must resolve on the
package, and every result it reads must have the shape it reads, so a
rename or a changed return fails here, in the test suite, and not only when
the traced benchmark runs.  bench/ is only read."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

from helpers import P, Q, metabelian_sequence
from thinlie import engine
from thinlie.constructions import tensor_construct
from thinlie.maxclass import build_maxclass
from thinlie.patterns import compile_pattern, family_pattern

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # executed from its source text, so no bytecode cache is written there
    mod = types.ModuleType("bench_tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         mod.__dict__)
    return mod


def test_every_traced_name_resolves(tracing):
    # SPANS and COUNTS, plus the two functions the Tracer wraps by hand
    wrapped = [*tracing.SPANS, *tracing.COUNTS, ("engine", "validate"),
               ("engine", "GradedAlgebra.bracket_basis")]
    for module, path in wrapped:
        assert module in tracing.MODULES, (module, path)
        owner, name = tracing._resolve(
            importlib.import_module(f"thinlie.{module}"), path)
        assert callable(getattr(owner, name, None)), f"thinlie.{module}.{path}"


def test_traced_validate_contract(tracing):
    # the per-check spans bind validate's L and checks by name, and time
    # each check of the default suites under its own metric
    params = inspect.signature(engine.validate).parameters
    assert {"L", "checks"} <= set(params)
    suites = set(engine.NOTTINGHAM_CHECKS) | set(engine.MAXCLASS_CHECKS)
    assert suites <= set(tracing.CHECKS)


def test_result_count_readers_accept_real_results(tracing):
    # each RESULT_COUNTS reader runs on what the function it reads really
    # returns, so a changed return shape fails here, not only when the
    # traced benchmark runs
    pattern = family_pattern("a", P, Q, 60)
    L, _ = compile_pattern(pattern, 40, run_validation=False)
    calls = {
        "patterns.compile": lambda fn: fn(pattern, 40, run_validation=False),
        "patterns.lemmas": lambda fn: fn(L),
        "engine.export": lambda fn: fn(L),
    }
    assert set(calls) == set(tracing.RESULT_COUNTS)
    traced = {span: key for key, span in tracing.SPANS.items()}
    for span, (_, read) in tracing.RESULT_COUNTS.items():
        module, path = traced[span]
        owner, name = tracing._resolve(
            importlib.import_module(f"thinlie.{module}"), path)
        count = read(calls[span](getattr(owner, name)))
        assert isinstance(count, int) and count > 0, span


def test_gf_spans_see_calls(tracing):
    # the construction solves its ad rows through gf.solve_or_kernel and the
    # covering check counts ranks through gf.rank: both spans record calls,
    # so a changed signature cannot leave either metric reading 0
    M = build_maxclass(metabelian_sequence(P, 12), 8)
    with tracing.Tracer() as tracer:
        L = tensor_construct(M, Q, 40)
        assert engine.validate(L).ok
    metrics = tracer.layer_metrics()
    assert metrics["gf.solve_or_kernel.calls"] > 0, metrics
    assert metrics["gf.rank.calls"] > 0, metrics

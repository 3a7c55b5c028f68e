"""bench/tracing.py wraps package functions by module and name.  Every name
it wraps must resolve on the package, so a rename fails here, in the test
suite, and not only when the traced benchmark runs.  bench/ is only read."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

from thinlie import engine

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

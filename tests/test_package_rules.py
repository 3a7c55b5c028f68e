"""Rules the package source keeps.  No check that matters may be a bare
assert, because python -O removes assert statements: the package raises
instead.  Starting the CLI loads only what every job runs: the records are
plain classes, so `dataclasses` (and `inspect`, which it pulls in) stays
unloaded, and the construction and derivation layers are imported by the
subcommands that run them.  The package holds what its jobs run: every
function, class and method is named somewhere else in it, but for a
listed few."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from thinlie.derivations import RoundtripReport
from thinlie.engine import (BasisElement, CheckResult, GradedAlgebra,
                            ValidationReport)
from thinlie.gf import PrimeField
from thinlie.patterns import DiamondPattern, DiamondType, LemmaInstance

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thinlie"

# defined in the package and named nowhere else in it, each for a reason
UNREFERENCED = {
    "vec_neg": "bench/tracing.py counts its calls by name",
    "bracket_mirror": "bench/tracing.py counts its calls by name",
    "to_structure_json": "bench/tracing.py times the export by this name",
    "then": "bench/tracing.py times operator composition by this name",
    "verify_leibniz": "awaits its package caller, the round trip's Leibniz "
                      "certificate (ROADMAP item 8)",
}


def test_no_assert_statements_in_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_cli_start_up_leaves_unused_modules_unloaded():
    unwanted = ("dataclasses", "inspect", "thinlie.constructions",
                "thinlie.derivations")
    code = ("import sys, thinlie.cli; "
            f"print(' '.join(m for m in {unwanted!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def _definitions(tree):
    """(name, node) of each top-level def and class, and of each method
    of a top-level class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((sub.name, sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("__"))


def _names(node, skip):
    """Every identifier node reads or imports, outside the subtree skip."""
    if node is skip:
        return set()
    if isinstance(node, ast.Name):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    elif isinstance(node, ast.alias):
        found = {node.name}
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= _names(child, skip)
    return found


def test_every_definition_is_named_elsewhere_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    unnamed = {name for tree in trees for name, node in _definitions(tree)
               if not any(name in _names(other, node) for other in trees)}
    assert unnamed == set(UNREFERENCED)


def test_record_semantics():
    # DiamondType is a value: equal and hashable by (kind, mu)
    a, b = DiamondType.finite(3, 7), DiamondType("finite", 3)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != DiamondType.finite(4, 7) and a != DiamondType.infinite()
    assert DiamondType.fake1() == DiamondType("fake1")
    # patterns compare p, q and entries
    entries = [(7, DiamondType.infinite())]
    one = DiamondPattern(7, 7, list(entries))
    assert one == DiamondPattern(7, 7, list(entries))
    assert one != DiamondPattern(7, 13, list(entries))
    # mutable defaults are per instance
    assert CheckResult("x", True).witnesses is not \
        CheckResult("y", True).witnesses
    assert RoundtripReport().stages is not RoundtripReport().stages
    # an element records its parent and letter, no word; bidegree is a
    # plain attribute, None until the algebra's constructor sets it from
    # the parent's bidegree and the letter
    gens = [BasisElement(0, 1, 0, None, "x"), BasisElement(1, 1, 1, None, "y")]
    e = BasisElement(2, 2, 0, 1, "x")
    assert not hasattr(e, "word") and vars(e)["bidegree"] is None
    GradedAlgebra(PrimeField(7), gens + [e], [(), (0, 1), (2,)],
                  [None, ((0,), (1,))], [None, ((6,), (0,))], N=2)
    assert [g.bidegree for g in gens] == [(1, 0), (0, 1)]
    assert e.bidegree == (1, 1) and vars(e)["bidegree"] == (1, 1)
    # the report is taken positionally, as bench/tracing.py builds it
    checks = [CheckResult("jacobi", True), CheckResult("words", False, [3])]
    rep = ValidationReport(checks)
    assert rep.checks is checks and not rep.ok
    assert [c.name for c in rep.failures()] == ["words"]
    # a lemma instance serializes as exactly its five fields
    assert vars(LemmaInstance("distance", 9, "id", "pass")) == {
        "lemma": "distance", "degree": 9, "identity": "id",
        "status": "pass", "detail": ""}

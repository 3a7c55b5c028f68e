"""Rules the package source keeps.  No check that matters may be a bare
assert, because python -O removes assert statements: the package raises
instead.  Starting the CLI loads only what every job runs: the records are
plain classes, so `dataclasses` (and `inspect`, which it pulls in) stays
unloaded, and the construction and derivation layers, with the bracket
window only they read, are imported by the subcommands that run them.
The package holds what its jobs run: every function, class and method is
named somewhere else in it, but for a listed few; a method is named only
through its own class or an object of unknown class."""

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
    "GradedAlgebra.bracket_mirror": "bench/tracing.py counts its calls by "
                                    "name",
    "GradedAlgebra.to_structure_json": "bench/tracing.py times the export "
                                       "by this name",
    "OperatorFamily.then": "bench/tracing.py times operator composition by "
                           "this name",
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
                "thinlie.derivations", "thinlie.window")
    code = ("import sys, thinlie.cli; "
            f"print(' '.join(m for m in {unwanted!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def _definitions(tree):
    """(owner, name, node) of each top-level def and class, owned by no
    class (None), and of each method of a top-level class that is not a
    dunder, owned by that class's name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, sub.name, sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("__"))


def _names(node, skip, classes, cls=None):
    """(owner, identifier) of every identifier node reads or imports,
    outside the subtree skip.  A bare name or an import has owner "".  An
    attribute read off self has the enclosing class cls as its owner, one
    read off a package class by name has that class, and any other has
    None: its owner is not known."""
    if node is skip:
        return set()
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, ast.Name):
        found = {("", node.id)}
    elif isinstance(node, ast.Attribute):
        base = node.value.id if isinstance(node.value, ast.Name) else None
        found = {(cls if base == "self" else base if base in classes
                  else None, node.attr)}
    elif isinstance(node, ast.alias):
        found = {("", node.name)}
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= _names(child, skip, classes, cls)
    return found


def unnamed_definitions(trees):
    """Owner.name, or name, of each definition that no other node of the
    trees names: a function or class by a bare name, an import or an
    attribute of unknown owner; a method by an attribute read off its own
    class or off an unknown owner, never off another class."""
    classes = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    unnamed = set()
    for tree in trees:
        for owner, name, node in _definitions(tree):
            want = {(owner, name), (None, name)} if owner else \
                {("", name), (None, name)}
            if not any(want & _names(other, node, classes)
                       for other in trees):
                unnamed.add(f"{owner}.{name}" if owner else name)
    return unnamed


def test_every_definition_is_named_elsewhere_in_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    assert unnamed_definitions(trees) == set(UNREFERENCED)


def test_a_method_is_named_only_through_its_own_class():
    # a same-named attribute of another class, read off self or off that
    # class, does not name the method; one read off its own class or off
    # an object of unknown class does
    def unnamed(user):
        return unnamed_definitions([ast.parse(
            "class A:\n    def done(self):\n        return 1\n\n\n"
            "class B:\n    def __init__(self, done):\n"
            "        self.done = done\n\n\nCLASSES = A, B\n\n\n" + user)])

    assert unnamed("def f(b):\n    return B.done, b\n") == {"A.done", "f"}
    for user in ("def f(a):\n    return a.done()\n",
                 "def f():\n    return A.done\n"):
        assert unnamed(user) == {"f"}, user


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
    # a lemma instance serializes as exactly its five fields
    assert vars(LemmaInstance("distance", 9, "id", "pass")) == {
        "lemma": "distance", "degree": 9, "identity": "id",
        "status": "pass", "detail": ""}

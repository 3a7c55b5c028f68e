"""Rules the package source keeps.  No check that matters may be a bare
assert, because python -O removes assert statements: the package raises
instead.  Starting the CLI loads only what every job runs: the records are
plain classes, so `dataclasses` (and `inspect`, which it pulls in) stays
unloaded, and the construction and derivation layers are imported by the
subcommands that run them.  The engine imports, of the package, gf alone.
The package holds what its jobs run: every function, class, method and
field is named somewhere else in it, but for a listed few; a method or a
field is named only through its own class or an object of unknown
class.  Every name a module imports is read in it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from thinlie.derivations import RoundtripReport
from thinlie.engine import (BasisElement, CheckResult, GradedAlgebra,
                            ValidationReport)
from thinlie.patterns import DiamondPattern, DiamondType, LemmaInstance

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thinlie"

# defined in the package and named nowhere else in it, each pinned by
# name in bench/tracing.py and kept for that alone (ROADMAP item 5)
UNREFERENCED = {
    "vec_neg": "bench/tracing.py counts its calls by name",
    "GradedAlgebra.bracket": "bench/tracing.py counts its calls by name; "
                             "the tests use it as an oracle",
    "GradedAlgebra.bracket_mirror": "bench/tracing.py counts its calls by "
                                    "name; the tests read its recursion, "
                                    "_mirror_basis, as an oracle",
    "GradedAlgebra.to_structure_json": "bench/tracing.py times the export "
                                       "by this name; the tests read it as "
                                       "the writer's reference",
    "OperatorFamily.then": "bench/tracing.py times operator composition by "
                           "this name; only the tests call it",
    "OperatorFamily.op_bracket": "bench/tracing.py times the commutator of "
                                 "derivations by this name; only the tests "
                                 "call it",
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


def test_cli_start_up_leaves_unused_modules_unloaded(tmp_path):
    # a deflate job loads the construction layer, which grows elements of
    # the source off its ad rows, and not the derivation layer
    unwanted = ("dataclasses", "inspect", "thinlie.constructions",
                "thinlie.derivations")
    job = ["deflate", "--q", "7", "--r", "7", "--N", "10",
           "--out", str(tmp_path / "out.json")]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for run, want in (("", []),
                      (f"thinlie.cli.main({job!r}); ",
                       ["thinlie.constructions"])):
        code = (f"import sys, thinlie.cli; {run}print(' '.join("
                f"m for m in {unwanted!r} if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == want, run


def test_engine_imports_only_gf():
    # the engine is the bottom layer above the field: of the package it
    # imports gf alone, at any depth, so no fill is reached from it
    tree = ast.parse((PACKAGE / "engine.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("thinlie")):
            module = (node.module or "").removeprefix("thinlie").strip(".")
            imported |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.removeprefix("thinlie.") for a in node.names
                         if a.name.startswith("thinlie")}
    assert imported == {"gf"}, imported


def unused_imports(tree):
    """The names tree's imports bind that no ast.Name of it reads, a
    bare name or the base of an attribute; `from __future__` binds none."""
    bound = {(a.asname or a.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_import_in_the_package_is_used():
    unused = {path.name: unused_imports(ast.parse(
        path.read_text(encoding="utf-8"), str(path)))
        for path in sorted(PACKAGE.glob("*.py"))}
    assert not any(unused.values()), unused
    # a name read as an attribute's base counts; an unread one, a local
    # import included, does not, nor does a same-named attribute
    src = ("from __future__ import annotations\nimport math\n"
           "import os.path\nfrom .gf import rank as r, vec_add\n\n\n"
           "def f(v):\n    from .engine import validate\n"
           "    return os.sep, v.math, vec_add\n")
    assert unused_imports(ast.parse(src)) == ["math", "r", "validate"]


def _definitions(tree):
    """(owner, name, node) of each top-level def and class, owned by no
    class (None), and of each method of a top-level class that is not a
    dunder and each field its __init__ assigns on self (node: the
    assigned attribute), owned by that class's name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                if not sub.name.startswith("__"):
                    yield node.name, sub.name, sub
                elif sub.name == "__init__":
                    yield from (
                        (node.name, t.attr, t) for t in ast.walk(sub)
                        if isinstance(t, ast.Attribute)
                        and isinstance(t.ctx, ast.Store)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self")


def _owner(node, classes, cls):
    """The class of the object node reads: the enclosing class cls for
    self, a package class named bare for itself, else None (not known)."""
    base = node.id if isinstance(node, ast.Name) else None
    return cls if base == "self" else base if base in classes else None


def _names(node, skip, classes, cls=None):
    """(owner, identifier) of every identifier node reads or imports,
    outside the subtree skip.  A bare name or an import has owner "".  An
    attribute has the owner of the object it is read off (_owner).  A
    vars(obj) call reads every field of obj: (owner of obj, "*")."""
    if node is skip:
        return set()
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, ast.Name):
        found = {("", node.id)}
    elif isinstance(node, ast.Attribute):
        found = {(_owner(node.value, classes, cls), node.attr)}
    elif isinstance(node, ast.alias):
        found = {("", node.name)}
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "vars" and node.args:
        found = {(_owner(node.args[0], classes, cls), "*")}
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= _names(child, skip, classes, cls)
    return found


def unnamed_definitions(trees):
    """Owner.name, or name, of each definition that no other node of the
    trees names: a function or class by a bare name, an import or an
    attribute of unknown owner; a method or a field by an attribute read
    off its own class or off an unknown owner, never off another class;
    a field also by a vars() call on such an object."""
    classes = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    unnamed = set()
    for tree in trees:
        for owner, name, node in _definitions(tree):
            want = {(owner, name), (None, name)} if owner else \
                {("", name), (None, name)}
            if isinstance(node, ast.Attribute):
                want |= {(owner, "*"), (None, "*")}
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
            "        self.done = done\n\n\nCLASSES = A, B\n"
            "B_DONE = B.done\n\n\n" + user)])

    assert unnamed("def f(b):\n    return B.done, b\n") == {"A.done", "f"}
    for user in ("def f(a):\n    return a.done()\n",
                 "def f():\n    return A.done\n"):
        assert unnamed(user) == {"f"}, user


def test_a_field_is_named_only_through_its_own_class():
    # a field assigned on self in __init__ is named like a method, and
    # also by vars() on its own object or on one of unknown class; the
    # assignment that defines it does not name it
    def unnamed(user):
        return unnamed_definitions([ast.parse(
            "class A:\n    def __init__(self):\n        self.seen = 1\n\n\n"
            "class B:\n    def __init__(self):\n        self.seen = 2\n"
            "        self.kept = self.seen\n\n\n"
            "CLASSES = A, B\n\n\n" + user)])

    assert unnamed("") == {"A.seen", "B.kept"}
    assert unnamed("def f():\n    return B.kept, A.seen\n") == {"f"}
    assert unnamed("def f(a):\n    return a.kept\n") == {"A.seen", "f"}
    assert unnamed("def f(a):\n    return vars(a)\n") == {"f"}
    assert unnamed("def f():\n    return vars(B)\n") == {"A.seen", "f"}


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
    # an element records its parent and letter, no word and no bidegree;
    # the algebra derives the bidegrees from the parents and letters
    gens = [BasisElement(0, 1, 0, None, "x"), BasisElement(1, 1, 1, None, "y")]
    e = BasisElement(2, 2, 0, 1, "x")
    assert not hasattr(e, "word") and not hasattr(e, "__dict__")
    assert not hasattr(e, "bidegree")
    L = GradedAlgebra(7, gens + [e], [(), (0, 1), (2,)],
                      [None, ((0,), (1,))], [None, ((6,), (0,))], N=2)
    assert L.bidegrees() == [(1, 0), (0, 1), (1, 1)]
    # the report is taken positionally, as bench/tracing.py builds it
    checks = [CheckResult("jacobi", True), CheckResult("words", False, [3])]
    rep = ValidationReport(checks)
    assert rep.checks is checks and not rep.ok
    # a lemma instance serializes as exactly its five fields
    inst = LemmaInstance("distance", 9, "id", "pass")
    assert vars(inst) == inst.to_json() == {
        "lemma": "distance", "degree": 9, "identity": "id",
        "status": "pass", "detail": ""}

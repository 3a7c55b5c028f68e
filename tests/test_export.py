"""The streamed structure writer, GradedAlgebra.write_structure_json, writes
exactly json.dumps(L.to_structure_json(), sort_keys=True, indent=2), at
depth 0 and nested one level deep; the CLI writes the same bytes to stdout
as to its --out file."""

import io
import json

import pytest

from helpers import P, Q, backbone_sequence, metabelian_sequence
from thinlie.cli import main
from thinlie.constructions import (ConstructionError, deflate, nottingham_Nqr,
                                   tensor_construct)
from thinlie.engine import validate
from thinlie.maxclass import SequenceError, build_maxclass
from thinlie.patterns import PatternError, compile_pattern, family_pattern

CORPUS = ("a", "b", "c", "d", "e", "L1q", "L0q", "uniqueness",
          "T72_metabelian", "N77")


def reference(L, depth):
    text = json.dumps(L.to_structure_json(), sort_keys=True, indent=2)
    return text.replace("\n", "\n" + "  " * depth)


def assert_written_as_dumps(L):
    for depth in (0, 1):
        buf = io.StringIO()
        L.write_structure_json(buf, depth)
        assert buf.getvalue() == reference(L, depth), depth


def smallest(build):
    """build(N) at the smallest N >= 1 it accepts."""
    for N in range(1, 100):
        try:
            return build(N)
        except (PatternError, SequenceError, ConstructionError):
            continue
    raise AssertionError("no N below 100 accepted")


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_algebra(corpus, name):
    assert_written_as_dumps(corpus[name][0])


def test_tensor_construction():
    M = build_maxclass(backbone_sequence(60), 40)
    assert_written_as_dumps(tensor_construct(M, Q, 120)[0])


def test_nqr_algebra():
    L, _ = nottingham_Nqr(7, 7, 60)
    assert_written_as_dumps(L)


def test_maxclass_algebra_writes_null_q():
    L = build_maxclass(metabelian_sequence(P, 40), 30)
    assert L.q is None
    assert_written_as_dumps(L)
    buf = io.StringIO()
    L.write_structure_json(buf)
    assert '\n  "q": null,\n' in buf.getvalue()


def test_smallest_N_of_each_builder():
    seq = metabelian_sequence(P, 60)
    M = smallest(lambda N: build_maxclass(seq, N))
    assert M.N == 1
    buf = io.StringIO()
    M.write_structure_json(buf)
    assert '"ad_x": [],' in buf.getvalue()
    assert '"brackets": [],' in buf.getvalue()
    M30 = build_maxclass(seq, 30)
    source, _ = compile_pattern(family_pattern("a", P, 7 * Q, 120), 100,
                                run_validation=False)
    builders = [
        lambda N: compile_pattern(family_pattern("a", P, Q, N + 20), N,
                                  run_validation=False)[0],
        lambda N: tensor_construct(M30, Q, N)[0],
        lambda N: nottingham_Nqr(Q, Q, N)[0],
        lambda N: deflate(source, N),
    ]
    assert_written_as_dumps(M)
    for build in builders:
        assert_written_as_dumps(smallest(build))


def _stdout_and_file(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out.encode(), out.read_bytes()


@pytest.mark.parametrize("argv", [
    ["build", "--family", "a", "--q", "7", "--N", "40"],
    ["export", "--family", "L1q", "--q", "11", "--N", "50"],
    ["deflate", "--q", "7", "--r", "7", "--N", "20"],
])
def test_stdout_matches_out_file(argv, tmp_path, capsys):
    printed, written = _stdout_and_file(argv, tmp_path, capsys)
    assert printed == written
    assert written.endswith(b"}\n")


def test_deflate_document_is_dumps_of_its_parts(tmp_path, capsys):
    _, written = _stdout_and_file(
        ["deflate", "--q", "7", "--r", "7", "--N", "20"], tmp_path, capsys)
    L, pattern = nottingham_Nqr(7, 7, 20)
    doc = {"schema": "thinlie.deflate.v1",
           "structure": L.to_structure_json(),
           "pattern": pattern.to_json(),
           "validation": validate(L).to_json()}
    assert written == (json.dumps(doc, sort_keys=True, indent=2)
                       + "\n").encode()

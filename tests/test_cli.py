import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlie.cli import FAMILIES, main
from thinlie.patterns import family_pattern


def run(argv):
    return main(argv)


def test_build_writes_structure_and_passes(tmp_path, capsys):
    out = tmp_path / "n7.json"
    assert run(["build", "--family", "a", "--q", "7", "--N", "30",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "thinlie.structure.v1"
    assert doc["q"] == 7 and doc["N"] == 30
    err = capsys.readouterr().err
    assert "jacobi: pass" in err


def test_export_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["export", "--family", "e", "--q", "7", "--N", "40",
                    "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_all(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--family", "c", "--q", "7", "--s", "1",
                "--N", "60", "--check", "all", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] and doc["checks"]["axioms"]["ok"]
    assert doc["checks"]["lemmas"]["ok"]
    assert doc["regularity"]["regular"]


def test_verify_distance_only(tmp_path):
    out = tmp_path / "d.json"
    assert run(["verify", "--family", "L1q", "--q", "7", "--N", "40",
                "--check", "distance", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["checks"]["distance"]["ok"]
    assert not doc["regularity"]["regular"]


def _distance_instances(tmp_path, argv):
    out = tmp_path / "d.json"
    assert run(["verify", *argv, "--check", "distance", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["checks"]["distance"]
    assert doc["ok"]
    return doc["instances"]


def test_distance_window_cut_by_the_built_range_names_what_it_tested(tmp_path):
    # built to 99, so ad y is tested on L_98 alone of the window L_98..L_101
    inst = _distance_instances(tmp_path, ["--family", "a", "--q", "7",
                                          "--N", "97"])
    assert inst[-1] == {"lemma": "distance", "degree": 97,
                        "identity": "ad_y vanishes on L_98..L_98",
                        "status": "pass", "detail": ""}
    assert inst[-2]["identity"] == "ad_y vanishes on L_92..L_95"


def test_distance_window_past_the_built_range_is_skipped(tmp_path):
    # built to 50, so ad y is built on no degree of the window L_50..L_53
    inst = _distance_instances(tmp_path, ["--family", "d", "--q", "7",
                                          "--N", "48"])
    assert inst[-1] == {"lemma": "distance", "degree": 49,
                        "identity": "ad_y vanishes on L_50..L_53",
                        "status": "skip",
                        "detail": "ad y is built only on L_1..L_49"}
    assert all(i["status"] == "pass" for i in inst[:-1])


def test_detect_matches_golden(tmp_path):
    out = tmp_path / "p.json"
    assert run(["detect", "--family", "nqr", "--q", "7", "--r", "7",
                "--N", "100", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    import pathlib
    golden = json.loads((pathlib.Path(__file__).parent / "golden" /
                         "n77_pattern.json").read_text())
    assert doc["entries"] == golden["entries"]


def test_roundtrip_cli(tmp_path):
    out = tmp_path / "r.json"
    assert run(["roundtrip", "--family", "uniqueness", "--q", "7", "--s", "1",
                "--N", "120", "--compare-N", "90", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] and doc["extracted_sequence"].startswith("Y" * 11)


def test_roundtrip_rejects_class(tmp_path):
    out = tmp_path / "r.json"
    assert run(["roundtrip", "--family", "a", "--q", "7", "--N", "40",
                "--out", str(out)]) == 4
    assert not json.loads(out.read_text())["pass"]


def test_diagram_formats(tmp_path):
    dot = tmp_path / "g.dot"
    assert run(["diagram", "--family", "a", "--q", "7", "--N", "14",
                "--format", "dot", "--out", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert '"n6_1" [label="(6,1)", xlabel="-1"]' in text
    assert '"n11_2" [label="(11,2)", xlabel="-1"]' in text
    txt = tmp_path / "g.txt"
    assert run(["diagram", "--family", "a", "--q", "7", "--N", "14",
                "--out", str(txt)]) == 0
    assert "diamond type -1" in txt.read_text()


def test_verify_failure_exit_code(tmp_path):
    from thinlie.patterns import DiamondType, normalize
    ent = [(7, DiamondType.finite(-1, 7))]
    ent += [(d, DiamondType.infinite()) for d in range(13, 80, 6)]
    ent += [(85, DiamondType.fake1()), (92, DiamondType.finite(2, 7))]
    ent += [(d, DiamondType.infinite()) for d in range(98, 131, 6)]
    pat = normalize(ent, 7, 7)
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps(pat.to_json()))
    out = tmp_path / "v.json"
    assert run(["verify", "--pattern", str(pfile), "--N", "112",
                "--check", "jacobi", "--out", str(out)]) == 4
    assert not json.loads(out.read_text())["ok"]


def test_build_writes_what_fails_validation(tmp_path, capsys):
    # build validates the algebra it writes: a failing check prints the
    # summary, the structure is written all the same, and the job exits 4.
    # (deflate's embedded report is checked against validate in
    # test_export.test_deflate_document_is_dumps_of_its_parts.)
    from helpers import forbidden_continuations
    _, pattern, N = forbidden_continuations()[0]    # finite at 92, N 112
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps(pattern.to_json()))
    built, exported = tmp_path / "b.json", tmp_path / "e.json"
    job = ["--pattern", str(pfile), "--N", str(N)]
    assert run(["build", *job, "--out", str(built)]) == 4
    assert capsys.readouterr().err == (
        "dimensions: pass\ncovering: pass\nwords: pass\n"
        "antisymmetry: FAIL (7 witnesses)\njacobi: FAIL (10 witnesses)\n"
        "sandwich_y: pass\nad_x_power_q: pass\nbidegree: pass\n")
    assert run(["export", *job, "--out", str(exported)]) == 0
    assert capsys.readouterr().err == ""
    assert built.read_bytes() == exported.read_bytes()


def test_bad_spec_exit_code():
    assert run(["build", "--family", "tq2", "--q", "7", "--N", "30"]) == 2
    assert run(["build", "--q", "7", "--N", "30"]) == 2
    assert run(["build", "--family", "a", "--q", "9", "--N", "30"]) == 2


def test_budget_exit_code(monkeypatch):
    monkeypatch.setenv("THINLIE_MAX_DEGREE", "50")
    assert run(["build", "--family", "a", "--q", "7", "--N", "60"]) == 3


def test_malformed_budget_is_bad_spec(monkeypatch, capsys):
    monkeypatch.setenv("THINLIE_MAX_DEGREE", "abc")
    want = ("bad job specification: THINLIE_MAX_DEGREE must be an integer, "
            "got 'abc'\n")
    for argv in (["build", "--family", "a", "--q", "7", "--N", "10"],
                 ["deflate", "--q", "7", "--r", "7", "--N", "10"]):
        assert run(argv) == 2, argv
        assert capsys.readouterr().err == want, argv


def test_deflate_without_N_is_bad_spec(capsys):
    assert run(["deflate", "--q", "7", "--r", "7"]) == 2
    assert "--N is required" in capsys.readouterr().err


def test_deflate_over_budget_exit_code(monkeypatch, capsys):
    # the same --N check as the subcommands that go through make_algebra
    monkeypatch.setenv("THINLIE_MAX_DEGREE", "50")
    assert run(["deflate", "--q", "7", "--r", "7", "--N", "100"]) == 3
    assert "--N 100 exceeds THINLIE_MAX_DEGREE=50" in capsys.readouterr().err
    assert run(["build", "--family", "a", "--q", "7", "--N", "60"]) == 3
    assert "--N 60 exceeds THINLIE_MAX_DEGREE=50" in capsys.readouterr().err


def test_sequence_file_build(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"schema": "thinlie.sequence.v1", "p": 7,
                               "entries": "Y" * 30}))
    out = tmp_path / "t.json"
    assert run(["build", "--sequence", str(seq), "--q", "7", "--N", "50",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["components"][6]["dims"] == 2     # second diamond at 7


def test_family_spec_file(tmp_path):
    spec = tmp_path / "fam.json"
    spec.write_text(json.dumps({"family": "c", "p": 7, "q": 7, "N": 60,
                                "params": {"s": 1}}))
    out = tmp_path / "c.json"
    assert run(["verify", "--family-spec", str(spec), "--N", "60",
                "--check", "jacobi", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ok"]


def test_diagram_json_format(tmp_path):
    out = tmp_path / "d.json"
    assert run(["diagram", "--family", "a", "--q", "7", "--N", "14",
                "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "thinlie.diagram.v1"
    assert {"degree": 7, "type": "finite:6"} in doc["diamonds"]


def test_pattern_file_build(tmp_path):
    from thinlie.patterns import family_pattern
    pat = family_pattern("e", 7, 7, 80)
    pfile = tmp_path / "pat.json"
    pfile.write_text(json.dumps(pat.to_json()))
    assert run(["detect", "--pattern", str(pfile), "--N", "60"]) == 0


def test_console_entry_point():
    # the package is importable from the child whether or not it is
    # installed, as the suite itself runs from a clean checkout
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = [src] + ([os.environ["PYTHONPATH"]]
                    if os.environ.get("PYTHONPATH") else [])
    proc = subprocess.run(
        [sys.executable, "-m", "thinlie.cli", "diagram", "--family", "a",
         "--q", "7", "--N", "13"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0
    assert "deg    7  dim 2" in proc.stdout


def test_family_spec_without_q_is_bad_spec(tmp_path, capsys):
    spec = tmp_path / "fam.json"
    spec.write_text(json.dumps({"family": "a", "p": 7, "N": 30}))
    assert run(["detect", "--family-spec", str(spec), "--N", "30"]) == 2
    assert "'q'" in capsys.readouterr().err


def test_pattern_entry_without_type_is_bad_spec(tmp_path, capsys):
    pfile = tmp_path / "pat.json"
    pfile.write_text(json.dumps({"p": 7, "q": 7, "entries": [{"degree": 7}]}))
    assert run(["detect", "--pattern", str(pfile), "--N", "30"]) == 2
    assert "'type'" in capsys.readouterr().err
    pfile.write_text(json.dumps({"p": 7, "q": 7,
                                 "entries": [{"degree": 7, "type": 6}]}))
    assert run(["detect", "--pattern", str(pfile), "--N", "30"]) == 2


def test_missing_pattern_file_is_bad_spec(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["detect", "--pattern", str(missing), "--N", "30"]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_roundtrip_short_range_fails_cleanly(tmp_path):
    # q = 49 to N = 60 never reaches a diamond past the second one, so there
    # is no centralizer sequence to extract: a round-trip failure, not a
    # malformed job
    out = tmp_path / "r.json"
    assert run(["roundtrip", "--family", "a", "--q", "49", "--N", "60",
                "--out", str(out)]) == 4
    doc = json.loads(out.read_text())
    assert not doc["pass"] and "too short" in doc["error"]


def test_roundtrip_extraction_failures_exit_4(tmp_path):
    # an algebra in the class whose extraction yields no centralizer
    # sequence, or one that no Lie algebra realizes, is a round-trip
    # failure with a report, not a malformed job
    from helpers import forbidden_continuations
    ((_, no128, _),) = [c for c in forbidden_continuations()
                        if c[0] == "no_fake_at_128"]
    pattern = tmp_path / "no128.json"
    pattern.write_text(json.dumps(no128.to_json()))
    for i, (argv, message) in enumerate([
            (["--family", "L1q", "--q", "7", "--N", "60"],
             "the extraction read XXXXXXXX, no centralizer sequence: "
             "c_2 must be 'Y'"),
            (["--family", "L1q", "--q", "11", "--N", "60"],
             "the extraction read XXXX, no centralizer sequence"),
            (["--pattern", str(pattern), "--N", "155"],
             "the extraction read YYYYYYYYYYYYXYYYYYYYYYYY, which no Lie "
             "algebra realizes")]):
        out = tmp_path / f"r{i}.json"
        assert run(["roundtrip", *argv, "--out", str(out)]) == 4, argv
        doc = json.loads(out.read_text())
        assert doc["pass"] is False and message in doc["error"], argv


def test_input_side_errors_are_bad_spec(tmp_path, capsys):
    docs = {
        "abc.json": {"p": 7, "q": 7,
                     "entries": [{"degree": 7, "type": "finite:abc"}]},
        "fin1.json": {"p": 7, "q": 7,
                      "entries": [{"degree": 7, "type": "finite:1"}]},
        "pat3.json": {"p": 3, "q": 9,
                      "entries": [{"degree": 9, "type": "finite:2"}]},
        "seq3.json": {"p": 3, "entries": "Y" * 30},
        "spec3.json": {"family": "a", "p": 3, "q": 9, "N": 30},
        "spec_c.json": {"family": "c", "p": 7, "q": 7, "N": 30},
        "deg.json": {"p": 7, "q": 7,
                     "entries": [{"degree": 7, "type": "finite:6"},
                                 {"degree": "13", "type": "infinite"}]},
        "seq5.json": {"p": 7, "entries": 5},
        "seq7.json": {"p": 7, "entries": "Y" * 30},
        "met7.json": {"p": 7, "entries": "Y" * 80},
        "s_string.json": {"family": "c", "p": 7, "q": 7, "N": 30,
                          "params": {"s": "1"}},
        "r_string.json": {"family": "nqr", "p": 7, "q": 7, "N": 30,
                          "params": {"r": "7"}},
        "q_param.json": {"family": "a", "p": 7, "q": 7, "N": 30,
                         "params": {"q": 7}},
        "array.json": [{"degree": 7, "type": "finite:6"}],
        "seq_string.json": {"family": "tq2", "p": 7, "q": 7, "N": 30,
                            "params": {"sequence": "Y" * 80}},
        "met5.json": {"p": 5, "entries": "Y" * 80},
    }
    missing, here = str(tmp_path / "missing" / "x.json"), str(tmp_path)
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    f = {name: str(tmp_path / name) for name in docs}
    for argv, message in [
            (["build", "--family", "a", "--p", "3", "--N", "30"],
             "p must be a prime > 3"),
            (["deflate", "--q", "9", "--r", "3", "--N", "10"],
             "p must be a prime > 3"),
            (["detect", "--pattern", f["abc.json"], "--N", "30"],
             "'finite:abc'"),
            (["detect", "--pattern", f["fin1.json"], "--N", "30"],
             "'finite:1'"),
            (["detect", "--pattern", f["pat3.json"], "--N", "30"],
             "p must be a prime > 3"),
            (["build", "--sequence", f["seq3.json"], "--q", "7", "--N", "20"],
             "p must be a prime > 3"),
            (["detect", "--family-spec", f["spec3.json"], "--N", "30"],
             "p must be a prime > 3"),
            (["detect", "--family-spec", f["spec_c.json"], "--N", "30"],
             "needs parameter 's'"),
            (["detect", "--pattern", f["deg.json"], "--N", "30"],
             "must be integers"),
            (["build", "--sequence", f["seq5.json"], "--q", "7", "--N", "20"],
             "must be a string"),
            (["export", "--family", "a", "--q", "7", "--N", "0"],
             "--N must be at least 1"),
            (["roundtrip", "--family", "uniqueness", "--q", "7", "--N", "60",
              "--compare-N", "0"], "--compare-N must be at least 1"),
            (["detect", "--family", "nqr", "--q", "7", "--r", "6",
              "--N", "20"], "r must be a positive power of p"),
            (["detect", "--family", "nqr", "--q", "7", "--r", "1",
              "--N", "20"], "r must be a positive power of p"),
            (["detect", "--family", "nqr", "--q", "9", "--r", "3",
              "--N", "20"], "p must be a prime > 3, got 3"),
            (["build", "--sequence", f["seq7.json"], "--q", "9", "--N", "30"],
             "q must be a power of p greater than 5"),
            (["build", "--sequence", f["seq7.json"], "--q", "5", "--N", "30"],
             "q must be a power of p greater than 5"),
            (["detect", "--family-spec", f["s_string.json"], "--N", "30"],
             "parameter 's' must be an integer"),
            (["detect", "--family-spec", f["r_string.json"], "--N", "30"],
             "parameter 'r' must be an integer"),
            (["detect", "--family-spec", f["q_param.json"], "--N", "30"],
             "unknown family parameter 'q'"),
            (["export", "--family", "c", "--q", "7", "--s", "-1", "--N", "30"],
             "parameter 's' must be at least 1"),
            # a document of the wrong shape is named by the shape expected
            (["verify", "--pattern", f["array.json"], "--N", "30"],
             "malformed pattern document: expected an object with fields p, "
             "q and entries"),
            (["detect", "--family-spec", f["seq_string.json"], "--N", "30"],
             "malformed sequence document: expected an object with fields p "
             "and entries"),
            # a tq2 sequence over another prime is refused, as --sequence
            # refuses a q that is no power of its p
            (["export", "--family", "tq2", "--q", "7", "--sequence",
              f["met5.json"], "--N", "30"],
             "family 'tq2' needs a sequence over p = 7, got one over p = 5"),
            # 0 is a value to check, not a missing flag meaning q = 7; a q
            # with no prime factor is reported as q, not as the p it gives
            (["build", "--family", "a", "--q", "0", "--N", "10"],
             "q must be a power of p greater than 5, got 0"),
            (["build", "--family", "a", "--q", "1", "--N", "10"],
             "q must be a power of p greater than 5, got 1"),
            (["build", "--family", "a", "--q", "-7", "--N", "10"],
             "q must be a power of p greater than 5, got -7"),
            (["deflate", "--q", "0", "--r", "7", "--N", "10"],
             "q must be a power of p greater than 5, got 0"),
            (["deflate", "--p", "7", "--q", "0", "--r", "7", "--N", "10"],
             "q must be a power of p greater than 5, got 0"),
            (["deflate", "--q", "7", "--r", "0", "--N", "10"],
             "r must be a positive power of p"),
            # q r and r powers of p leave q = p^0 = 1, an algebra with no
            # second diamond, refused as family nqr refuses it
            (["deflate", "--q", "1", "--r", "49", "--p", "7", "--N", "5"],
             "q must be a positive power of p = 7, got 1"),
            (["deflate", "--q", "1", "--r", "11", "--p", "11", "--N", "20"],
             "q must be a positive power of p = 11, got 1"),
            (["deflate", "--q", "7", "--N", "10"],
             "deflate needs --q and --r"),
            (["export", "--family", "a", "--p", "0", "--N", "10"],
             "p must be a prime > 3, got 0"),
            (["build", "--family", "a", "--p", "7", "--q", "0", "--N", "10"],
             "q must be a power of p greater than 5, got 0"),
            (["build", "--sequence", f["seq7.json"], "--q", "0", "--N", "10"],
             "q must be a power of p greater than 5, got 0"),
            # N(q, r) has its second diamond in degree q: a smaller --N
            # is refused before anything is built
            (["deflate", "--q", "7", "--r", "7", "--N", "4"],
             "--N 4 is below q = 7"),
            (["deflate", "--q", "7", "--r", "7", "--N", "5"],
             "--N 5 is below q = 7"),
            (["deflate", "--q", "7", "--r", "7", "--N", "6"],
             "--N 6 is below q = 7"),
            (["deflate", "--q", "25", "--r", "5", "--N", "24"],
             "--N 24 is below q = 25"),
            # so do the jobs that read the pattern of an algebra built
            # from a sequence
            (["verify", "--sequence", f["met7.json"], "--q", "7", "--N", "6",
              "--check", "all"], "--N 6 is below q = 7"),
            (["detect", "--sequence", f["met7.json"], "--q", "7", "--N", "6"],
             "--N 6 is below q = 7"),
            (["diagram", "--sequence", f["met7.json"], "--q", "7", "--N", "6"],
             "--N 6 is below q = 7"),
            (["roundtrip", "--sequence", f["met7.json"], "--q", "7",
              "--N", "6"], "--N 6 is below q = 7"),
            (["build", "--family", "a", "--q", "7", "--N", "10",
              "--out", missing],
             f"cannot write --out {missing}: No such file or directory"),
            (["deflate", "--q", "7", "--r", "7", "--N", "10", "--out", here],
             f"cannot write --out {here}: Is a directory")]:
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1, argv


def test_deflate_accepts_N_equal_to_q(tmp_path):
    # the boundary of the --N >= q rule above
    for q, r in ((7, 7), (25, 5)):
        out = tmp_path / f"d{q}.json"
        assert run(["deflate", "--q", str(q), "--r", str(r), "--N", str(q),
                    "--out", str(out)]) == 0, q
        assert json.loads(out.read_text())["structure"]["N"] == q


def test_detect_accepts_sequence_N_equal_to_q(tmp_path):
    # the boundary of the --N >= q rule for an algebra built from a sequence
    seq, out = tmp_path / "met7.json", tmp_path / "pattern.json"
    seq.write_text(json.dumps({"p": 7, "entries": "Y" * 80}))
    assert run(["detect", "--sequence", str(seq), "--q", "7", "--N", "7",
                "--out", str(out)]) == 0
    assert [e["degree"] for e in json.loads(out.read_text())["entries"]] == [7]


def test_internal_value_error_is_not_bad_spec(monkeypatch):
    # a plain ValueError is a fault of the program, not of the job: it is
    # not reported as a malformed job specification
    import thinlie.cli

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(thinlie.cli, "compile_pattern", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["build", "--family", "a", "--q", "7", "--N", "30"])


def test_bad_out_is_rejected_before_the_build(monkeypatch, tmp_path, capsys):
    # an --out that cannot be written exits 2 before anything is built, and
    # a job that exits 2 or 3 leaves an existing --out file as it was
    import thinlie.cli
    import thinlie.constructions

    def unreachable(*args, **kwargs):
        raise AssertionError("the job was built")

    monkeypatch.setattr(thinlie.cli, "compile_pattern", unreachable)
    monkeypatch.setattr(thinlie.constructions, "nottingham_Nqr", unreachable)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"p": 7, "entries": "Y" * 30}))
    missing, here = str(tmp_path / "missing" / "x.json"), str(tmp_path)
    under_file = str(seq / "x.json")
    for argv, out, reason in [
            (["build", "--family", "a", "--q", "7", "--N", "1000"], missing,
             "No such file or directory"),
            (["verify", "--family", "c", "--q", "7", "--N", "30"], here,
             "Is a directory"),
            (["export", "--sequence", str(seq), "--q", "7", "--N", "30"],
             under_file, "Not a directory"),
            (["deflate", "--q", "7", "--r", "7", "--N", "10"], missing,
             "No such file or directory")]:
        assert run(argv + ["--out", out]) == 2, argv
        assert capsys.readouterr().err == (
            f"bad job specification: cannot write --out {out}: {reason}\n")

    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    monkeypatch.setenv("THINLIE_MAX_DEGREE", "50")
    for argv, code in [(["build", "--family", "a", "--q", "0", "--N", "10"], 2),
                       (["build", "--family", "a", "--q", "7", "--N", "60"], 3),
                       (["deflate", "--q", "7", "--r", "7", "--N", "10"], 3)]:
        assert run(argv + ["--out", str(kept)]) == code, argv
        assert kept.read_text() == "kept\n", argv


def test_nqr_family_spec_matches_flags(tmp_path):
    spec = tmp_path / "nqr.json"
    spec.write_text(json.dumps({"family": "nqr", "p": 7, "q": 7, "N": 60,
                                "params": {"r": 7}}))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["export", "--family-spec", str(spec), "--N", "60",
                "--out", str(a)]) == 0
    assert run(["export", "--family", "nqr", "--q", "7", "--r", "7",
                "--N", "60", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_nqr_detect_sha256(tmp_path):
    # the detect output of N(7, 49) to degree 20, byte for byte as it was
    # when the CLI still built family nqr by deflation
    out = tmp_path / "p.json"
    assert run(["detect", "--family", "nqr", "--q", "7", "--r", "49",
                "--N", "20", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "a265c6e8f2d63ebd0cdf1ae59012ff11396426e6cc9a0ccfdf9c111e78171c39"


def test_deflate_source_over_budget(monkeypatch, tmp_path, capsys):
    # N(7, 49) to degree 20 deflates a source compiled to degree
    # 7 (7 (20 + 2) + 7 + 2) + 7 = 1148, over the default cap of 1000
    argv = ["deflate", "--q", "7", "--r", "49", "--N", "20",
            "--out", str(tmp_path / "d.json")]
    monkeypatch.delenv("THINLIE_MAX_DEGREE", raising=False)
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert "1148" in err and "THINLIE_MAX_DEGREE=1000" in err
    monkeypatch.setenv("THINLIE_MAX_DEGREE", "1200")
    assert run(argv) == 0


def test_huge_s_equals_a_large_one(tmp_path):
    # p^s (q - 1) > N already at s = 3 for q = 7, N = 30: a larger s names
    # the same algebra and must not compute p ** s in full
    for family in ("c", "uniqueness"):
        docs = []
        for s in ("3", str(10 ** 12)):
            out = tmp_path / f"{family}{s}.json"
            assert run(["export", "--family", family, "--q", "7", "--s", s,
                        "--N", "30", "--out", str(out)]) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1], family


# -- fuzzing the job surface ----------------------------------------------------

SUBCOMMANDS = ("build", "verify", "detect", "roundtrip", "deflate", "diagram",
               "export")
# valid values first, then out-of-range ones; family specs add strings,
# booleans and nulls
FLAG_VALUES = st.one_of(st.sampled_from([5, 7, 11, 13, 25, 49]),
                        st.integers(-2, 50),
                        st.sampled_from([121, 125, 169, 343, 2401]))
SPEC_VALUES = st.one_of(FLAG_VALUES, st.sampled_from(["1", "7", "x", ""]),
                        st.booleans(), st.none())
FLAGS = ("p", "q", "s", "r", "step", "start_type")


@st.composite
def jobs(draw):
    """argv and the family-spec document (or None) of a random job."""
    argv = [draw(st.sampled_from(SUBCOMMANDS))]
    spec = None
    source = draw(st.sampled_from(("family", "family", "spec", "none")))
    if source == "family":
        argv += ["--family", draw(st.sampled_from(FAMILIES))]
    elif source == "spec":
        names = st.sampled_from(FLAGS[2:] + ("x",))
        spec = {"family": draw(st.sampled_from(FAMILIES)),
                "p": draw(SPEC_VALUES), "q": draw(SPEC_VALUES),
                "params": {k: draw(SPEC_VALUES)
                           for k in draw(st.lists(names, unique=True))}}
    for flag in draw(st.lists(st.sampled_from(FLAGS), unique=True)):
        argv += ["--" + flag.replace("_", "-"), str(draw(FLAG_VALUES))]
    N = draw(st.one_of(st.integers(9, 40), st.integers(0, 40)))
    return argv + ["--N", str(N)], spec


@settings(max_examples=100, deadline=None)
@given(job=jobs())
def test_job_surface_exits_cleanly(job):
    # every job ends with a documented exit code, never with a traceback
    argv, spec = job
    with tempfile.TemporaryDirectory() as tmp:
        if spec is not None:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            argv = argv[:1] + ["--family-spec", path] + argv[1:]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv + ["--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4), (argv, spec)
    assert "Traceback" not in err.getvalue()


# pattern and sequence documents: a valid document with some parts broken
DOC_VALUES = st.one_of(SPEC_VALUES, st.sampled_from([[], {}, [7], {"p": 7}]))
TYPE_VALUES = st.one_of(
    st.sampled_from(["infinite", "fake1", "fake0", "finite:-1", "finite:2",
                     "finite:6", "finite:7", "finite:", "finite:x",
                     "finite:1.5", "fake2", "Infinite", ""]),
    DOC_VALUES)
BASE_PATTERNS = [("uniqueness", 7, 7, {"s": 1}), ("e", 7, 7, {}),
                 ("a", 5, 25, {}), ("c", 11, 11, {"s": 1})]


def _break_entries(draw, entries):
    """entries with one part broken: an entry's key dropped or its value
    replaced, an entry replaced, entries swapped, duplicated or cleared."""
    how = draw(st.sampled_from(("drop_key", "degree", "type", "entry",
                                "swap", "duplicate", "clear")))
    if how == "clear" or not entries:
        return []
    i = draw(st.integers(0, len(entries) - 1))
    j = draw(st.integers(0, len(entries) - 1))
    entry = dict(entries[i]) if isinstance(entries[i], dict) else {}
    if how == "drop_key":
        entry.pop(draw(st.sampled_from(("degree", "type"))), None)
    elif how == "degree":
        entry["degree"] = draw(st.one_of(st.integers(-2, 60), DOC_VALUES))
    elif how == "type":
        entry["type"] = draw(TYPE_VALUES)
    elif how == "entry":
        entry = draw(DOC_VALUES)
    elif how == "swap":
        entries[i], entries[j] = entries[j], entries[i]
        return entries
    elif how == "duplicate":
        return entries[:i + 1] + entries[i:]
    entries[i] = entry
    return entries


@st.composite
def document_jobs(draw):
    """argv and the pattern or sequence document of a random job."""
    family, p, q, kw = draw(st.sampled_from(BASE_PATTERNS))
    if draw(st.booleans()):
        flag = "--pattern"
        doc = family_pattern(family, p, q, 60, **kw).to_json()
        for _ in range(draw(st.integers(0, 2))):
            doc["entries"] = _break_entries(draw, doc["entries"])
    else:
        flag = "--sequence"
        entries = draw(st.one_of(
            st.just("Y" * 20 + "X" + "Y" * 20),
            st.text(alphabet="XYxy Z0", max_size=60)))
        doc = {"schema": "thinlie.sequence.v1", "p": p, "entries": entries}
    broken = draw(st.integers(0, 9))
    if broken == 0:
        doc = draw(DOC_VALUES)
    elif broken <= 3:
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(DOC_VALUES)
    argv = [draw(st.sampled_from(SUBCOMMANDS)), flag]
    if flag == "--sequence" and draw(st.integers(0, 3)):
        argv += ["--q", str(draw(st.sampled_from([q, 7, 25, 49, 11, 5])))]
    for name in draw(st.lists(st.sampled_from(FLAGS), unique=True,
                              max_size=2)):
        argv += ["--" + name.replace("_", "-"), str(draw(FLAG_VALUES))]
    N = draw(st.one_of(st.integers(9, 40), st.integers(0, 40)))
    return argv + ["--N", str(N)], doc


@settings(max_examples=80, deadline=None)
@given(job=document_jobs())
def test_document_surface_exits_cleanly(job):
    # malformed pattern and sequence documents are bad specifications,
    # never tracebacks
    argv, doc = job
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = argv[:2] + [path] + argv[2:]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv + ["--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4), (argv, doc)
    assert "Traceback" not in err.getvalue()


def test_roundtrip_guard_comes_from_the_pattern(tmp_path):
    # the pattern fixes q = 25, so --q 25 must not change the job: both
    # build q + 2 degrees past --N
    pfile = tmp_path / "u25.json"
    pfile.write_text(json.dumps(
        family_pattern("uniqueness", 5, 25, 400, s=1).to_json()))
    docs = []
    for extra in ([], ["--q", "25"]):
        out = tmp_path / f"r{len(extra)}.json"
        assert run(["roundtrip", "--pattern", str(pfile), "--N", "150",
                    *extra, "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    assert docs[0] == docs[1]
    assert docs[0]["pass"] and docs[0]["compare_N"] == 94

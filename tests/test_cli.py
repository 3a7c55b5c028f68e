import json
import os
import subprocess
import sys

from thinlie.cli import main


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


def test_bad_spec_exit_code():
    assert run(["build", "--family", "tq2", "--q", "7", "--N", "30"]) == 2
    assert run(["build", "--q", "7", "--N", "30"]) == 2
    assert run(["build", "--family", "a", "--q", "9", "--N", "30"]) == 2


def test_budget_exit_code(monkeypatch):
    monkeypatch.setenv("THINLIE_MAX_DEGREE", "50")
    assert run(["build", "--family", "a", "--q", "7", "--N", "60"]) == 3


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
    proc = subprocess.run(
        [sys.executable, "-m", "thinlie.cli", "diagram", "--family", "a",
         "--q", "7", "--N", "13"],
        capture_output=True, text=True, env={**os.environ})
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

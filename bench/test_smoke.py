"""Smoke test of the benchmark: every workload at toy sizes, untraced and
traced, must emit every metric and fail no job.

    python3 -m pytest -q bench/test_smoke.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_at_toy_size(workload, tmp_path):
    res = run.run_workload(workload, seed=3, seconds=0, trace=False, toy=True)
    assert set(res["metrics"]) == set(run.E2E_METRICS)
    assert res["metrics"]["failed_ratio"]["value"] == 0, res["failures"]

    spans = tmp_path / "spans.jsonl"
    traced = run.run_workload(workload, seed=3, seconds=0, trace=True,
                              toy=True, spans_path=spans)
    assert set(traced["metrics"]) == set(tracing.LAYER_METRICS)
    assert traced["failed"] == 0, traced["failures"]
    for name, m in traced["metrics"].items():
        if m["unit"] in ("count", "B"):
            assert m["value"] == int(m["value"]), name
    assert traced["metrics"]["cli.out_bytes"]["value"] > 0
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {r["name"] for r in rows} >= {"cli.main", "engine.validate"}
    assert all(r["start"] <= r["end"] and r["job"] for r in rows)


def test_seed_fixes_the_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
    assert workloads.build("corpus", 5) != workloads.build("corpus", 6)


def test_benchmark_json_names_the_emitted_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        {k: run.E2E_METRICS[k] for k in run.BOUNDED_E2E}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        tracing.LAYER_METRICS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("toy", (False, True))
def test_uniqueness_sequence_jobs_reach_an_x(toy, tmp_path):
    """Each job on a uniqueness sequence builds another algebra than the
    metabelian sequence does with the same flags, so its 'X' entries count."""
    jobs, files = workloads.build("corpus", 0, toy)
    workloads.write_files(files, tmp_path)
    seen = 0
    for job in jobs:
        argv = list(job.argv)
        if "--sequence" not in argv:
            continue
        at = argv.index("--sequence") + 1
        if not argv[at].startswith("uniqueness"):
            continue
        digests = []
        for kind in ("uniqueness", "metabelian"):
            argv[at] = argv[at].replace("uniqueness", kind)
            code, _, crash = run.call_main([*argv, "--out", "o.json"],
                                           tmp_path)
            assert code == 0, (job.name, crash)
            digests.append(hashlib.sha256(
                (tmp_path / "o.json").read_bytes()).hexdigest())
        assert digests[0] != digests[1], job.name
        seen += 1
    assert seen == 2

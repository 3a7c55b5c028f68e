"""Benchmark of the thinlie CLI: end-to-end job times and a per-layer trace.

    python3 bench/run.py [--workload axioms|deflation|corpus|all] [--seed N]
                         [--seconds S] [--trace 0|1] [--spans FILE]

Run from anywhere; the package is imported from `src/` next to this
directory, nothing needs installing.  Each workload is a fixed list of CLI
jobs (bench/workloads.py), run one at a time by a single client (a closed
loop: one job process computes at a time).  See bench/README.md.

--trace 0 (default): the workload's jobs, each a subprocess
`python -m thinlie.cli ...`, cycled through for --seconds, with set-up
launches spread over the run.  Prints the end-to-end metrics, built from
each job's median time over the run.
--trace 1: the same jobs in-process through `thinlie.cli.main(argv)`: one
counting pass, then pairs of an untraced pass and a pass with span wrappers;
prints the per-layer metrics (bench/tracing.py).

Every job's exit code and output are checked; mismatches are reported by job
name on stderr.  The line before the last holds the seed and the machine
facts.  The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import OUT_FILE, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"

# end-to-end metric -> unit
E2E_METRICS = {"wall_s": "s", "cpu_s": "s", "job_p50_s": "s",
               "job_max_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
               "failed_ratio": "1"}
# metrics the result line carries (failed_ratio is 0 when all
# is well, so it travels as `failed` / `attempted` instead)
BOUNDED_E2E = tuple(m for m in E2E_METRICS if m != "failed_ratio")

SETUP_EVERY_S = 4.0
JOB_TIMEOUT_S = 150


@dataclass
class JobRun:
    name: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    problem: str | None = None


def machine_facts():
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "git_sha": sha}


class Launcher:
    """The job launcher process (bench/spawner.py) for one run; it runs each
    command to completion in `workdir` with the program on PYTHONPATH."""

    def __init__(self, workdir):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("THINLIE_MAX_DEGREE", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            cwd=workdir, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def run(self, argv, stderr_path=os.devnull):
        """(exit code, wall s, cpu s, peak RSS MB) of one command."""
        req = {"argv": [sys.executable, *argv], "stderr": str(stderr_path),
               "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        code, wall, cpu, rss_kb = json.loads(reply)
        return code, wall, cpu, rss_kb / 1024

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def launch_setup(launcher):
    """Wall time of one Python start that imports thinlie.cli."""
    code, wall, _, _ = launcher.run(["-c", "import thinlie.cli"])
    if code != 0:
        raise RuntimeError(f"importing thinlie.cli failed ({code})")
    return wall


def run_job(job, workdir, launcher, expected):
    out = workdir / OUT_FILE
    out.unlink(missing_ok=True)
    errpath = workdir / "stderr.txt"
    code, wall, cpu, rss = launcher.run(
        ["-m", "thinlie.cli", *job.argv, "--out", OUT_FILE], errpath)
    problem = workloads.check(job, code, out, expected)
    if problem:
        tail = errpath.read_text(errors="replace").strip()[-300:]
        problem += f"; stderr: {tail}" if tail else ""
    return JobRun(job.name, wall, cpu, rss, problem)


def subprocess_run(jobs, workdir, launcher, expected, seconds):
    """(job runs, set-up times) of one measured run.

    The jobs run in list order, cycling through the list: one full pass,
    then on while the next job, at its last time, still ends within
    `seconds` of the start.  The host's speed drifts over seconds to
    minutes, so the set-up launches are spread over the run as well (one
    before the next job once SETUP_EVERY_S has passed since the last), and
    each metric is a median over the whole run.
    """
    launch_setup(launcher)          # warms the file cache; not counted
    start = time.perf_counter()
    runs, setups, last = [], [], {}
    next_setup = start
    for k in itertools.count():
        i = k % len(jobs)
        now = time.perf_counter()
        if k >= len(jobs) and now + last[i] > start + seconds:
            return runs, setups
        if now >= next_setup:
            setups.append(launch_setup(launcher))
            next_setup = time.perf_counter() + SETUP_EVERY_S
        runs.append(run_job(jobs[i], workdir, launcher, expected))
        last[i] = runs[-1].wall


def import_cli():
    """The program's CLI module, imported from the source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from thinlie import cli
    return cli


def call_main(argv, workdir):
    """cli.main(argv) in workdir with its output discarded:
    (exit code, wall s, repr of an uncaught exception or None)."""
    cli = import_cli()
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.chdir(workdir), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code, crash = cli.main(argv), None
    except SystemExit as e:
        code, crash = e.code, None
    except Exception as e:  # a crash fails this job, not the run
        code, crash = 1, repr(e)
    return code, time.perf_counter() - t0, crash


def inprocess_pass(jobs, workdir, expected, tracer=None):
    runs = []
    for job in jobs:
        out = workdir / OUT_FILE
        out.unlink(missing_ok=True)
        gc.collect()
        if tracer:
            tracer.start_job(job.name)
        code, wall, crash = call_main([*job.argv, "--out", OUT_FILE], workdir)
        if tracer:
            tracer.end_job(out.stat().st_size if out.exists() else 0)
        problem = workloads.check(job, code, out, expected)
        if problem and crash:
            problem += f"; raised {crash}"
        runs.append(JobRun(job.name, wall, problem=problem))
    return runs


def job_metrics(runs):
    """The end-to-end job metrics of a run: each job's median wall and CPU
    time over its runs, summed over the jobs (one pass at typical times),
    and their median and maximum over the jobs."""
    table = _job_table(runs)
    walls = [j["wall_s"] for j in table.values()]
    return {"wall_s": sum(walls),
            "cpu_s": sum(j["cpu_s"] for j in table.values()),
            "job_p50_s": statistics.median(walls), "job_max_s": max(walls),
            "peak_rss_mb": max(r.rss_mb for r in runs)}


def repeat(seconds, body):
    """Call body() at least once, and again while another call of the same
    length still ends within `seconds` of the start."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return


def tail_percentile(values):
    """(percentile, value), nearest rank, for the highest of p50/p90/p95/p99
    with at least ten samples beyond it; None when there are too few."""
    xs = sorted(values)
    for pct in (99, 95, 90, 50):
        rank = math.ceil(len(xs) * pct / 100)
        if len(xs) - rank >= 10:
            return pct, xs[rank - 1]
    return None


@contextlib.contextmanager
def scratch_dir(prefix):
    """A fresh directory under .bench_tmp/ in the repository, removed (with
    .bench_tmp/ itself, once empty) on exit."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def run_workload(name, seed, seconds, trace, toy=False, spans_path=None):
    """One measured run; returns the result document."""
    jobs, files = workloads.build(name, seed, toy)
    expected = workloads.load_expected()
    all_runs, samples, values = [], {}, {}
    with scratch_dir(name) as workdir:
        workloads.write_files(files, workdir)
        if trace:
            samples = _traced(jobs, workdir, expected, seconds, all_runs,
                              spans_path)
        else:
            launcher = Launcher(workdir)
            try:
                runs, setups = subprocess_run(jobs, workdir, launcher,
                                              expected, seconds)
            finally:
                launcher.close()
            all_runs.extend(runs)
            values = job_metrics(runs)
            samples["setup_s"] = setups

    failures = [(r.name, r.problem) for r in all_runs if r.problem]
    values |= {k: statistics.median(xs) for k, xs in samples.items()}
    if not trace:
        values["failed_ratio"] = len(failures) / len(all_runs)
    units = tracing.LAYER_METRICS if trace else E2E_METRICS
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in units if k in values}
    return {"workload": name, "seed": seed, "trace": int(trace),
            "correct": not failures, "attempted": len(all_runs),
            "failed": len(failures), "failures": failures,
            "metrics": metrics, "samples": samples,
            "jobs": _job_table(all_runs)}


def _traced(jobs, workdir, expected, seconds, all_runs, spans_path):
    """Per-layer samples: counts from one counting pass, then times from
    pairs of an untraced pass and a pass with span wrappers only."""
    import_cli()
    # wrappers add a frame to each recursive bracket call
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
    start = time.perf_counter()
    counter = tracing.Tracer(count=True)
    with counter:
        all_runs.extend(inprocess_pass(jobs, workdir, expected, counter))
    counts = {k: v for k, v in counter.layer_metrics().items()
              if tracing.LAYER_METRICS[k] != "s"}
    samples = {k: [v] for k, v in counts.items()}
    timers = []

    def one_pair():
        plain = inprocess_pass(jobs, workdir, expected)
        timer = tracing.Tracer()
        with timer:
            traced = inprocess_pass(jobs, workdir, expected, timer)
        all_runs.extend(plain + traced)
        m = {k: v for k, v in timer.layer_metrics().items() if k not in counts}
        m["trace.overhead_s"] = (sum(r.wall for r in traced)
                                 - sum(r.wall for r in plain))
        for k, v in m.items():
            samples.setdefault(k, []).append(v)
        if not timers:
            timers.append(timer)      # keep the first timing pass's spans
    repeat(seconds - (time.perf_counter() - start), one_pair)
    if spans_path:
        timers[0].write_spans(spans_path)
    return samples


def _job_table(runs):
    by = {}
    for r in runs:
        by.setdefault(r.name, []).append(r)
    return {name: {"wall_s": statistics.median(x.wall for x in rs),
                   "cpu_s": statistics.median(x.cpu for x in rs),
                   "rss_mb": max(x.rss_mb for x in rs), "n": len(rs)}
            for name, rs in by.items()}


def report(res):
    """Human-readable summary: every metric by name with its unit."""
    head = (f"== {res['workload']}  seed={res['seed']}  "
            f"trace={res['trace']}  attempted={res['attempted']}  "
            f"failed={res['failed']}")
    print(head)
    for k, m in res["metrics"].items():
        if k in res["samples"]:
            xs = res["samples"][k]
            tail = tail_percentile(xs)
            how = f"median of n={len(xs)}" + (
                f"  p{tail[0]}={tail[1]:.6g}" if tail else "")
        elif k == "failed_ratio":
            how = f"{res['failed']} of {res['attempted']} jobs"
        elif k == "peak_rss_mb":
            how = f"largest of {res['attempted']} job runs"
        else:
            how = f"from per-job medians over {res['attempted']} job runs"
        print(f"  {k:34s} {m['value']:14.6g} {m['unit']:6s} ({how})")
    if not res["trace"]:
        walls = [j["wall_s"] for j in res["jobs"].values()]
        tail = tail_percentile(walls)
        print(f"  per job (median wall s, median cpu s, peak MB, runs); "
              f"{len(walls)} jobs" + (f", p{tail[0]}={tail[1]:.3g} s"
                                      if tail else ""))
        for name, j in res["jobs"].items():
            print(f"    {j['wall_s']:7.3f} {j['cpu_s']:7.3f} "
                  f"{j['rss_mb']:6.1f} {j['n']:3d}  {name}")
    for name, why in res["failures"]:
        print(f"FAIL [{res['workload']}] {name}: {why}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spans", help="write the first traced pass's spans "
                                    "here as JSON lines (with --workload "
                                    "all, one file per workload, suffixed "
                                    "with its name)")
    args = ap.parse_args(argv)
    if not (SRC / "thinlie" / "cli.py").is_file():
        print(f"no thinlie sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    facts = machine_facts()
    results = []
    for name in names:
        spans = args.spans
        if spans and len(names) > 1:
            spans = f"{spans}.{name}"
        res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           spans_path=spans)
        report(res)
        results.append(res)
    print("run: " + json.dumps({"seed": args.seed, "trace": args.trace,
                                "workloads": list(names), "machine": facts},
                               sort_keys=True))

    def prefixed(res):
        return {(k if len(results) == 1 else f"{res['workload']}.{k}"): m
                for k, m in res["metrics"].items()
                if args.trace or k in BOUNDED_E2E}
    line = {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {k: m for r in results for k, m in prefixed(r).items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

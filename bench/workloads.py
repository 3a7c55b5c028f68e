"""The benchmark's workloads: fixed lists of `thinlie` CLI jobs, the input
files they read, and the checks on what they write.

Every job runs with its working directory set to a scratch directory that
holds its input files, so a job's argv names inputs by bare file name and
the job's name (its argv joined by spaces) is the same on every machine.
Each job writes its artifact to OUT_FILE in that directory.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("axioms", "deflation", "corpus")
OUT_FILE = "out.json"
EXPECTED = Path(__file__).with_name("expected.json")

# how a job's output is checked
DIGEST = "digest"        # SHA-256 of the artifact, recorded at baseline
VERDICT = "verdict"      # verdict fields of a report, recorded at baseline
DETECTS = "detects"      # seeded: detect returns the generated pattern
ROUNDTRIPS = "roundtrips"  # seeded: the round trip passes


@dataclass(frozen=True)
class Job:
    argv: tuple
    kind: str = DIGEST
    exit: int = 0
    expect: tuple = ()   # DETECTS: the pattern entries up to --N

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def _job(cmd, kind=DIGEST, exit=0, expect=(), **flags):
    argv = [cmd]
    for key, val in flags.items():
        argv += ["--" + key.replace("_", "-"), str(val)]
    return Job(tuple(argv), kind, exit, tuple(expect))


def _sequence_doc(p, kind, length=80):
    """Two-step centralizer sequences: metabelian (all 'Y'), or the s = 1
    uniqueness backbone ('X' at every multiple of p from 2p on)."""
    entries = "".join("X" if kind == "uniqueness" and i % p == 0
                      and i >= 2 * p else "Y" for i in range(2, length + 2))
    return {"schema": "thinlie.sequence.v1", "p": p, "entries": entries}


def _pattern_doc(p, q, entries):
    return {"schema": "thinlie.pattern.v1", "p": p, "q": q,
            "entries": [{"degree": d, "type": t} for d, t in entries]}


def _forbidden_docs():
    """The two forbidden continuations of the fake diamond at 85 (p = q = 7):
    a finite-type diamond right after it, and an all-infinite continuation
    that omits the fake forced at 128.  Both fail the Jacobi check."""
    head = [(7, "finite:-1")] + [(d, "infinite") for d in range(13, 80, 6)]
    finite_after = head + [(85, "fake1"), (92, "finite:2")] + \
        [(d, "infinite") for d in range(98, 125, 6)]
    no_second_fake = head + [(85, "fake1")] + \
        [(d, "infinite") for d in range(92, 165, 6)]
    return (_pattern_doc(7, 7, finite_after),
            _pattern_doc(7, 7, no_second_fake))


def admissible_entries(p, q, backbone, last):
    """Canonical entries of a pattern all of whose diamonds past the second
    are infinite or fake of type 1: either all infinite (family e), or, at
    q = p, the s = 1 uniqueness backbone, whose fakes sit at the diamond
    indices i >= 2p divisible by p, each followed by a gap of q."""
    def fake(i):
        return backbone and i % p == 0 and i >= 2 * p

    entries = [(q, f"finite:{p - 1}")]
    deg, i = q, 2
    while True:
        deg += q - 1 + (1 if i > 2 and fake(i - 1) else 0)
        if deg > last:
            return entries
        entries.append((deg, "fake1" if fake(i) else "infinite"))
        i += 1


def _seeded_jobs(rng, toy, files):
    """Two random admissible patterns, each fed to detect and roundtrip."""
    jobs = []
    for k in (1, 2):
        p, q = rng.choice([(7, 7), (11, 11), (13, 13), (5, 25)])
        backbone = q == 7 and rng.random() < 0.6
        # the round trip needs about four diamonds past the second to
        # extract a sequence; shorter ranges are reported as failures
        lo = max(40 if toy else 60, 5 * q)
        n = rng.randint(lo, lo + 20) if toy else rng.randint(lo, 200)
        entries = admissible_entries(p, q, backbone, n + 2 * q + 20)
        fname = f"seeded{k}.json"
        files[fname] = _pattern_doc(p, q, entries)
        want = [{"degree": d, "type": t} for d, t in entries if d <= n]
        jobs.append(_job("detect", DETECTS, expect=want, pattern=fname, N=n))
        jobs.append(_job("roundtrip", ROUNDTRIPS, pattern=fname, N=n))
    return jobs


def build(workload, seed, toy=False):
    """(jobs, files) for one workload: the job list in run order, and
    {file name: JSON document} for the inputs the jobs read.

    The seed fixes the seeded patterns of `corpus` and the job order of
    every workload; the same seed gives the same jobs and files.
    """
    rng = random.Random(f"{workload}:{seed}")

    def n(full, small):
        return small if toy else full

    files = {}
    if workload == "axioms":
        jobs = [
            _job("build", family="a", q=7, N=n(200, 30)),
            _job("verify", VERDICT, family="c", q=11, s=2, N=n(150, 40),
                 check="all"),
        ]
    elif workload == "deflation":
        jobs = [
            _job("detect", family="nqr", q=7, r=7, N=n(200, 20)),
            _job("detect", family="nqr", q=7, r=49, N=n(20, 9)),
            _job("deflate", q=25, r=5, N=n(100, 30)),
        ]
    elif workload == "corpus":
        for p, q in ((5, 25), (7, 7)):
            for kind in ("metabelian", "uniqueness"):
                files[f"{kind}{p}.json"] = _sequence_doc(p, kind)
        files["forbidden1.json"], files["forbidden2.json"] = _forbidden_docs()
        files["spec_d.json"] = {"family": "d", "p": 11, "q": 11,
                                "N": n(150, 40),
                                "params": {"s": 1, "step": 1}}
        jobs = [
            # the README jobs at their README sizes
            _job("build", family="a", q=7, N=n(60, 20)),
            _job("verify", VERDICT, family="c", q=7, s=1, N=n(100, 30),
                 check="all"),
            _job("detect", family="nqr", q=7, r=7, N=n(100, 20)),
            _job("roundtrip", VERDICT, family="uniqueness", q=7, s=1,
                 N=n(200, 60), compare_N=n(150, 50)),
            _job("deflate", q=7, r=7, N=n(100, 20)),
            _job("diagram", family="a", q=7, N=14, format="dot"),
            _job("export", family="e", q=7, N=n(80, 20)),
            # short jobs over p in {5, 7, 11, 13} and every subcommand
            _job("verify", VERDICT, family="b", q=25, start_type=2,
                 N=n(120, 40), check="lemmas"),
            _job("verify", VERDICT, family_spec="spec_d.json",
                 N=n(150, 40), check="distance"),
            _job("verify", VERDICT, family="e", q=13, N=n(150, 40),
                 check="lemmas"),
            _job("verify", VERDICT, family="L0q", q=25, N=n(150, 40),
                 check="distance"),
            _job("verify", VERDICT, family="L1q", q=11, N=n(150, 40),
                 check="lemmas"),
            _job("roundtrip", VERDICT, family="uniqueness", q=7, s=1,
                 N=n(600, 100)),
            _job("roundtrip", VERDICT, exit=4, family="a", q=25,
                 N=n(300, 60)),
            # the uniqueness jobs reach far enough into the sequence for
            # tensor_construct to read its first 'X' (c_10 at p = 5, c_14
            # at p = 7); below N of about 10(q - 1) they equal metabelian
            _job("export", sequence="uniqueness5.json", q=25, N=n(300, 250)),
            _job("build", sequence="metabelian5.json", q=25, N=n(100, 40)),
            _job("export", sequence="uniqueness7.json", q=7, N=n(150, 100)),
            _job("build", sequence="metabelian7.json", q=7, N=n(100, 30)),
            _job("export", family="a", q=7, N=n(300, 40)),
            _job("verify", VERDICT, exit=4, pattern="forbidden1.json",
                 N=112, check="jacobi"),
            _job("verify", VERDICT, exit=4, pattern="forbidden2.json",
                 N=155, check="jacobi"),
        ] + _seeded_jobs(rng, toy, files)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs, files


def write_files(files, workdir: Path):
    for fname, doc in files.items():
        (workdir / fname).write_text(json.dumps(doc, indent=1) + "\n")


def verdict(doc):
    """The verdict fields of a verify or roundtrip report.  Witness lists
    and messages are left out, since their shape may legitimately change."""
    if doc.get("schema") == "thinlie.verify.v1":
        return {"ok": doc["ok"],
                "checks": {k: v["ok"] for k, v in doc["checks"].items()},
                "regular": doc["regularity"]["regular"]}
    return {k: doc.get(k) for k in ("pass", "extracted_sequence", "pattern_L",
                                    "pattern_T", "compare_N")}


def observe(job, data: bytes):
    """What a job's artifact is compared on: its digest or its verdict."""
    if job.kind == DIGEST:
        return hashlib.sha256(data).hexdigest()
    return verdict(json.loads(data))


def load_expected():
    return json.loads(EXPECTED.read_text())


def check(job, code, out: Path, expected) -> str | None:
    """None when the job behaved as expected, else the reason it did not."""
    if code != job.exit:
        return f"exit code {code}, expected {job.exit}"
    try:
        data = out.read_bytes()
        if job.kind == DETECTS:
            got = json.loads(data)["entries"]
            return None if got == list(job.expect) else \
                "detected pattern differs from the generated one"
        if job.kind == ROUNDTRIPS:
            return None if json.loads(data).get("pass") is True else \
                "round trip did not pass"
        if job.name not in expected:
            return "no expected output recorded"
        if observe(job, data) != expected[job.name]:
            return f"{job.kind} differs from the recorded baseline"
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"unreadable output: {e!r}"
    return None

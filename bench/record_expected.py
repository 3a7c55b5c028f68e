"""Record the expected outputs of every fixed benchmark job into
bench/expected.json: the SHA-256 digest of each byte-stable artifact and the
verdict fields of each report, at full and toy sizes.

    python3 bench/record_expected.py

Run it only on a commit whose outputs are known to be right; the benchmark
counts any later difference as a failed job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    expected = {}
    with run.scratch_dir("record") as workdir:
        for name in workloads.WORKLOADS:
            for toy in (False, True):
                jobs, files = workloads.build(name, 0, toy)
                workloads.write_files(files, workdir)
                for job in jobs:
                    if job.kind not in (workloads.DIGEST, workloads.VERDICT):
                        continue
                    code, _, crash = run.call_main(
                        [*job.argv, "--out", workloads.OUT_FILE], workdir)
                    if code != job.exit:
                        sys.exit(f"{job.name}: exit {code}, expected {job.exit}"
                                 + (f"; raised {crash}" if crash else ""))
                    data = (workdir / workloads.OUT_FILE).read_bytes()
                    expected[job.name] = workloads.observe(job, data)
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1,
                                             sort_keys=True) + "\n")
    print(f"recorded {len(expected)} jobs in {workloads.EXPECTED}")


if __name__ == "__main__":
    main()

"""Write golden.json: the exit code and stdout sha256 of every benchmark job.

    python3 perfbench/golden.py

Run it only at a commit whose outputs are the reference.  A change that
claims a speed-up must leave every hash as it is: the benchmark counts a
job whose stdout differs as failed.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import BENCH, JOB_TIMEOUT_S, WORKLOADS, all_invariant_jobs, run_process


def main() -> int:
    jobs = [job for wl in WORKLOADS.values() for job in wl.jobs] + all_invariant_jobs()
    golden = {}
    for job in jobs:
        proc = run_process([sys.executable, "-m", "superinv.cli", *job.split()], JOB_TIMEOUT_S)
        if proc.timed_out:
            print("%s: timed out" % job, file=sys.stderr)
            return 1
        golden[job] = {"exit": proc.code, "sha256": hashlib.sha256(proc.stdout).hexdigest()}
        print("%d %s %s" % (proc.code, golden[job]["sha256"][:16], job))
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

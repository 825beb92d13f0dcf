"""Every benchmark job reproduces its golden exit code and stdout hash.

perfbench/golden.json holds the exit code and stdout sha256 of each job the
benchmark runs; the benchmark counts a job whose output differs as failed.
Each job runs here through ``cli.main`` in-process, so an output change
fails the test suite as well.  The benchmark starts a fresh process per job,
so a few jobs also run as fresh processes under two hash seeds: set or dict
order that follows string hashing would show there and not in-process.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from superinv.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("job", sorted(GOLDEN))
def test_golden_output(capsys, job):
    code = main(job.split())
    out = capsys.readouterr().out
    assert code == GOLDEN[job]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[job]["sha256"]


def test_golden_output_does_not_depend_on_the_hash_seed():
    jobs = (
        "relations --family q --n 2 --k 3",
        "pn-trivial --n 3 --k 3",
        "sergeev --n 2 --k 5",
        "keylemma --k 4 --per-type",
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        for job in jobs:
            proc = subprocess.run(
                [sys.executable, "-m", "superinv.cli", *job.split()],
                cwd=ROOT, env=env, capture_output=True, timeout=120,
            )
            assert proc.returncode == GOLDEN[job]["exit"], (seed, job)
            assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[job]["sha256"], (seed, job)

"""Every benchmark job reproduces its golden exit code and stdout hash.

perfbench/golden.json holds the exit code and stdout sha256 of each job the
benchmark runs; the benchmark counts a job whose output differs as failed.
Each job runs here through ``cli.main`` in-process, so an output change
fails the test suite as well.
"""

import hashlib
import json
import pathlib

import pytest

from superinv.cli import main

GOLDEN = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)


@pytest.mark.parametrize("job", sorted(GOLDEN))
def test_golden_output(capsys, job):
    code = main(job.split())
    out = capsys.readouterr().out
    assert code == GOLDEN[job]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[job]["sha256"]

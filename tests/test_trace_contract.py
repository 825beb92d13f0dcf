"""The traced benchmark's call contract holds on small stand-in jobs.

Each workload in perfbench/run.py names functions that a traced run must
call (``must_call``) and must not call (``must_not_call``).  Here every
workload's stand-in jobs run through perfbench/tracer.py, and their summed
call counts must meet that workload's contract, so a change that moves work
out of a traced function is caught before the benchmark runs.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# smaller jobs that reach the same traced functions as each workload's own
STAND_INS = {
    "center": (
        "hc --family gl --m 1 --n 1 --k 2",
        "sergeev --n 1 --k 3",
        "invariant --family gl --m 1 --n 1 --k 2 --perm [2,1]",
    ),
    # at --k 2 project_tensor yields no terms, so pbw_normalize never runs
    "pn-trivial": ("pn-trivial --n 2 --k 3",),
    "relations": ("relations --family p --n 1 --k 2",),
    "brauer": ("brauer --k 3", "keylemma --k 1", "keylemma --k 2 --per-type"),
}


def _load_run():
    """perfbench/run.py as a module; it imports its sibling tracer.py."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name; no bytecode is left in perfbench/
    sys.modules[spec.name] = module
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = write_bytecode
    return module


RUN = _load_run()
MARKER = RUN.MARKER.decode()


def _traced_calls(job: str) -> Counter:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), *job.split()],
        cwd=ROOT, env=RUN.job_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, (job, proc.stderr[-2000:])
    line = next(ln for ln in proc.stderr.splitlines() if ln.startswith(MARKER))
    figures = json.loads(line[len(MARKER):])
    return Counter(
        {name[: -len(".calls")]: v for name, v in figures.items() if name.endswith(".calls")}
    )


def test_every_workload_has_stand_ins():
    assert sorted(STAND_INS) == sorted(RUN.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(STAND_INS))
def test_stand_ins_meet_the_trace_contract(workload):
    calls = Counter()
    for job in STAND_INS[workload]:
        calls += _traced_calls(job)
    wl = RUN.WORKLOADS[workload]
    assert [name for name in wl.must_call if not calls[name]] == []
    assert [name for name in wl.must_not_call if calls[name]] == []

"""The superinv benchmark: drives the real CLI, one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is taken from the ``src`` of the checkout this file sits in,
whatever the working directory.  Each job is a fresh ``python -m
superinv.cli`` process started through ``spawn.py``, in a closed loop with
a single client and ``--jobs`` left at its default of 1.  Every job's
stdout is checked against the golden hashes in ``golden.json``.  With
``--trace 0`` the last stdout line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``tracer.py``);
both are named in the repository's ``BENCHMARK.json``.  A run record is
written to ``perfbench/runs/``.  See ``perfbench/README.md`` for the
workloads, the reference job and how to read the figures.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

JOB_TIMEOUT_S = 60.0
# No job starts later than this after the run began; one that would is
# counted as failed, so a run ends well inside three minutes.
RUN_BUDGET_S = 140.0
SETUP_PROBES_PER_PASS = 2


@dataclass(frozen=True)
class Workload:
    jobs: tuple  # fixed CLI argument strings
    algebras: tuple  # (family, m, n) built by the jobs, for setup_s
    must_call: tuple  # traced functions that must run at least once
    must_not_call: tuple = ()  # traced functions that must never run
    seeded_invariants: bool = False


_SCALARS = ("scalars.Scalar.mul", "scalars.Scalar.add", "scalars.promote")

# Sizes are the baseline ladder stepped down so one pass of a workload
# takes a few seconds, keeping each workload's mix of layers.  Why each
# workload was chosen: perfbench/README.md.
WORKLOADS = {
    "center": Workload(
        jobs=(
            "hc --family gl --m 3 --n 3 --k 3",
            "hc --family osp --m 3 --n 1 --k 5",
            "sergeev --n 2 --k 5",
        ),
        algebras=(("gl", 3, 3), ("osp", 3, 1), ("q", 0, 2), ("gl", 2, 2)),
        must_call=(
            "enveloping.u_multiply",
            "enveloping.pbw_normalize",
            "enveloping.PBWElement.add",
            "enveloping.eta_prime",
            "enveloping.is_central",
            "enveloping.supercommutator",
            "enveloping.harish_chandra_image",
            "schurweyl.str_gelfand",
            "schurweyl.UValuedTensor.mul",
            "schurweyl.sergeev_elements",
            "schurweyl.z_sigma",
            "schurweyl.invariant_tensor",
            "tensors.compose",
            "algebras.build_algebra",
            "cli.main",
        )
        + _SCALARS,
        seeded_invariants=True,
    ),
    "pn-trivial": Workload(
        jobs=("pn-trivial --n 2 --k 4", "pn-trivial --n 3 --k 3"),
        algebras=(("p", 0, 2), ("p", 0, 3)),
        must_call=(
            "enveloping.eta_prime",
            "enveloping.pbw_normalize",
            "enveloping.PBWElement.add",
            "tensoralg.project_tensor",
            "tensoralg.eta",
            "tensors.permute_word",
            "schurweyl.invariant_tensor",
            "brauer.coset_reps",
            "algebras.build_algebra",
            "cli.main",
        )
        + _SCALARS,
        must_not_call=("enveloping.u_multiply", "enveloping.is_central"),
    ),
    "relations": Workload(
        jobs=(
            "relations --family q --n 2 --k 3",
            "relations --family p --n 2 --k 3",
            "relations --family osp --m 3 --n 1 --k 3",
        ),
        algebras=(("q", 0, 2), ("p", 0, 2), ("osp", 3, 1)),
        must_call=(
            "tensors.compose",
            "schurweyl.check_duality_relations",
            "schurweyl.omega_iso",
            "algebras.phi_k",
            "algebras.build_algebra",
            "cli.main",
        )
        + _SCALARS,
        must_not_call=("enveloping.u_multiply",),
    ),
    "brauer": Workload(
        jobs=("brauer --k 7", "keylemma --k 3", "keylemma --k 4 --per-type"),
        algebras=(),
        must_call=(
            "brauer.count_by_type",
            "brauer.closure_type",
            "brauer.coset_reps",
            "brauer.key_lemma_witness",
            "cli.main",
        ),
        must_not_call=_SCALARS,
    ),
}

# The seeded invariant jobs take one permutation of each of these cycle
# types of S_4.  Permutations of one type cost nearly the same, so the seed
# changes which permutations run but hardly how much work they are.
_INVARIANT = "invariant --family gl --m 2 --n 2 --k 4 --perm [%s]"
_CYCLE_TYPES = ((1, 1, 2), (1, 3), (4,))


def _cycle_type(images) -> tuple:
    seen, lengths = set(), []
    for start in range(1, len(images) + 1):
        length = 0
        point = start
        while point not in seen:
            seen.add(point)
            point = images[point - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def invariant_job(images) -> str:
    return _INVARIANT % ",".join(map(str, images))


def all_invariant_jobs() -> list:
    """Every permutation of S_4 as an invariant job, for golden hashes."""
    return [invariant_job(p) for p in itertools.permutations(range(1, 5))]


def workload_jobs(name: str, seed: int) -> list:
    """The argument strings of one pass, in the order the seed gives."""
    rng = random.Random(seed)
    wl = WORKLOADS[name]
    jobs = list(wl.jobs)
    if wl.seeded_invariants:
        perms = list(itertools.permutations(range(1, 5)))
        for ctype in _CYCLE_TYPES:
            jobs.append(invariant_job(rng.choice([p for p in perms if _cycle_type(p) == ctype])))
    rng.shuffle(jobs)
    return jobs


# -- running one process -------------------------------------------------------


@dataclass
class Proc:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool


def job_env() -> dict:
    env = {
        k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SUPERINV_"))
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(cmd: list, timeout: float) -> Proc:
    """Run cmd to completion through spawn.py, which times it from spawn to
    exit and reads its rusage."""
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawn.py"), str(report_w), repr(timeout), *cmd],
            cwd=ROOT, env=job_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            pass_fds=(report_w,), start_new_session=True,
        )
    finally:
        os.close(report_w)
    fds = (proc.stdout.fileno(), proc.stderr.fileno(), report_r)
    chunks = {fd: [] for fd in fds}
    # spawn.py enforces the timeout; this deadline only catches spawn.py itself hanging
    deadline = time.perf_counter() + timeout + 10
    killed = False
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = None if killed else deadline - time.perf_counter()
            if left is not None and left <= 0:
                os.killpg(proc.pid, signal.SIGKILL)
                killed, left = True, None
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    proc.wait()
    os.close(report_r)
    proc.stdout.close()
    proc.stderr.close()
    stdout, stderr, report = (b"".join(chunks[fd]) for fd in fds)
    if not report:
        raise BenchError("spawn.py failed: %s" % _last_line(stderr))
    report = json.loads(report)
    return Proc(
        code=report["code"],
        stdout=stdout,
        stderr=stderr,
        wall_s=report["wall_s"],
        cpu_s=report["cpu_s"],
        maxrss_kb=report["maxrss_kb"],
        timed_out=report["timed_out"],
    )


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _last_line(data: bytes) -> str:
    lines = data.decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


# -- jobs, passes and their checks ----------------------------------------------

MARKER = tracer.MARKER.encode()  # starts the stderr line of a traced job's figures


@dataclass
class JobRun:
    job: str
    traced: bool
    proc: Proc | None  # None: the run budget left no time to start it
    failure: str | None
    ref: Proc | None = None  # the reference job run just before an untraced job
    figures: dict = field(default_factory=dict)

    def to_json(self):
        doc = {"job": self.job, "traced": self.traced, "failure": self.failure}
        if self.proc is not None:
            doc.update(
                exit=self.proc.code,
                wall_s=self.proc.wall_s,
                cpu_s=self.proc.cpu_s,
                maxrss_kb=self.proc.maxrss_kb,
                stdout_bytes=len(self.proc.stdout),
            )
        if self.ref is not None:
            doc.update(ref_wall_s=self.ref.wall_s, ref_cpu_s=self.ref.cpu_s)
        return doc


def check_output(job: str, proc: Proc, golden: dict) -> str | None:
    """Why the job's result is wrong, or None when it matches the golden run."""
    if proc.timed_out:
        return "timed out after %.1f s" % proc.wall_s
    want = golden.get(job)
    if want is None:
        return "no golden output for this job"
    if proc.code != want["exit"]:
        return "exit %d, expected %d: %s" % (proc.code, want["exit"], _last_line(proc.stderr))
    if hashlib.sha256(proc.stdout).hexdigest() != want["sha256"]:
        return "stdout differs from the golden hash"
    if job.startswith("invariant "):
        try:
            central = json.loads(proc.stdout).get("central")
        except ValueError:
            return "stdout is not JSON"
        if central is not True:
            return "verdict central is not true"
    return None


_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import superinv
for spec in json.loads(sys.argv[1]):
    superinv.build_algebra(*spec)
print(json.dumps({"setup_s": time.perf_counter() - t0, "file": superinv.__file__}))
"""


# A fixed pure-Python job, timed just before every untraced job on the same
# CPU.  The shared host this benchmark was defined on changes speed by up to
# a third over tens of seconds, far more than a run can average away; a
# job's time divided by its reference job's cancels most of that (wall_ref,
# cpu_ref).  It must never change: it is the unit of those metrics.
_REFERENCE = """\
from fractions import Fraction
acc, table = Fraction(0), {}
for i in range(1, 15000):
    acc += Fraction(i % 13, i % 7 + 1)
    key = (i % 97, i % 89)
    table[key] = table.get(key, 0) + i
"""


class Runner:
    """Runs jobs under one golden table and one run budget; keeps every run.

    Successive passes run on successive CPUs, with the benchmark process and
    so every job of the pass pinned to that one CPU.
    """

    def __init__(self, golden: dict):
        self.golden = golden
        self.stop_at = time.perf_counter() + RUN_BUDGET_S
        self.runs = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.passes = 0

    def time_left(self) -> float:
        return self.stop_at - time.perf_counter()

    def setup_probe(self, algebras) -> float:
        """A fresh process's time to import superinv and build the algebras."""
        proc = run_process(
            [sys.executable, "-c", _PROBE, json.dumps(algebras)],
            max(min(JOB_TIMEOUT_S, self.time_left()), 1.0),
        )
        if proc.code != 0:
            raise BenchError("setup probe failed: %s" % _last_line(proc.stderr))
        doc = json.loads(proc.stdout)
        if not Path(doc["file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError("superinv was imported from %s, not from %s" % (doc["file"], SRC))
        return doc["setup_s"]

    def job(self, job: str, traced: bool) -> JobRun:
        left = self.time_left()
        if left <= 0:
            run = JobRun(job, traced, None, "not started: run budget exhausted")
        else:
            ref = None
            if not traced:
                ref = run_process([sys.executable, "-c", _REFERENCE], JOB_TIMEOUT_S)
                if ref.code != 0:
                    raise BenchError("the reference job failed: %s" % _last_line(ref.stderr))
            entry = [str(BENCH / "tracer.py")] if traced else ["-m", "superinv.cli"]
            proc = run_process([sys.executable, *entry, *job.split()], min(JOB_TIMEOUT_S, left))
            figures = b""
            if traced:
                proc.stderr, _, figures = proc.stderr.partition(b"\n" + MARKER)
            run = JobRun(job, traced, proc, check_output(job, proc, self.golden), ref)
            if traced and run.failure is None:
                if figures:
                    run.figures = json.loads(figures)
                else:
                    run.failure = "the traced process wrote no figures"
        self.runs.append(run)
        return run

    def run_pass(self, jobs: list, traced: bool) -> list:
        os.sched_setaffinity(0, {self.cpus[self.passes % len(self.cpus)]})
        self.passes += 1
        return [self.job(job, traced) for job in jobs]

    def failures(self) -> list:
        return [r for r in self.runs if r.failure is not None]


def pass_sum(runs, attr: str, per_ref: bool = False) -> float:
    """A time summed over a pass's jobs, each divided by its reference job's
    time if ``per_ref``.  Failed jobs keep their time.
    """
    return sum(
        getattr(r.proc, attr) / (getattr(r.ref, attr) if per_ref else 1)
        for r in runs
        if r.proc is not None
    )


def pass_figures(runs) -> dict:
    """Per-layer figures of one traced pass, summed over its processes."""
    total = {}
    for r in runs:
        for name, value in r.figures.items():
            total[name] = total.get(name, 0) + value
    total["cli.stdout_bytes"] = sum(len(r.proc.stdout) for r in runs if r.proc is not None)
    calls = total.get("enveloping.pbw_normalize.calls", 0)
    total["enveloping.pbw_normalize.repeat_ratio"] = (
        1 - total.get("enveloping.pbw_normalize.distinct_words", 0) / calls if calls else 0.0
    )
    bound = total.get("tensors.compose.pair_bound", 0)
    total["tensors.compose.hit_ratio"] = (
        total.get("tensors.compose.pair_hits", 0) / bound if bound else 0.0
    )
    return total


# -- the two kinds of run ------------------------------------------------------


def rounds(seconds: int, runner: Runner):
    """Count rounds while one more of the average length ends within ``seconds``.

    There is always at least one round, and a run does not overrun its
    length by a whole round.
    """
    start = time.perf_counter()
    end = min(start + seconds, runner.stop_at)
    done = 0
    while True:
        now = time.perf_counter()
        if done and now + (now - start) / done > end:
            return
        yield done
        done += 1


def measure_end_to_end(runner: Runner, wl: Workload, jobs: list, seconds: int):
    """Median figures over the passes that fit in ``seconds``.

    Set-up probes run between the passes, so both sample the host over the
    same stretch of time.
    """
    runner.job(jobs[0], traced=False)  # warm-up: bytecode and file caches
    setup, passes = [], []
    for _ in rounds(seconds, runner):
        setup.extend(runner.setup_probe(wl.algebras) for _ in range(SETUP_PROBES_PER_PASS))
        passes.append(runner.run_pass(jobs, traced=False))
    samples = {
        "wall_ref": [pass_sum(p, "wall_s", per_ref=True) for p in passes],
        "cpu_ref": [pass_sum(p, "cpu_s", per_ref=True) for p in passes],
        "wall_s": [pass_sum(p, "wall_s") for p in passes],
        "cpu_s": [pass_sum(p, "cpu_s") for p in passes],
        "setup_s": setup,
        "peak_rss_mb": [
            max((r.proc.maxrss_kb for r in p if r.proc is not None), default=0) / 1024
            for p in passes
        ],
    }
    figures = {name: statistics.median(v) for name, v in samples.items()}
    counts = {name: len(v) for name, v in samples.items()}
    return figures, counts, {"untraced_pass_wall_s": samples["wall_s"]}, []


def measure_layers(runner: Runner, wl: Workload, jobs: list, seconds: int):
    """Traced passes, each after an untraced one, for ``seconds``."""
    runner.job(jobs[0], traced=False)  # warm-up: bytecode and file caches
    plain, traced = [], []
    for _ in rounds(seconds, runner):
        plain.append(runner.run_pass(jobs, traced=False))
        traced.append(runner.run_pass(jobs, traced=True))
    per_pass = [pass_figures(p) for p in traced]
    problems = []
    figures = {}
    for name in per_pass[0]:
        values = [f.get(name, 0) for f in per_pass]
        if name.endswith("_s"):  # a time
            figures[name] = statistics.median(values)
        else:
            figures[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append("%s differs between traced passes: %s" % (name, values))
    plain_walls = [pass_sum(p, "wall_s") for p in plain]
    traced_walls = [pass_sum(p, "wall_s") for p in traced]
    figures["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    )
    if not runner.failures():
        for name in wl.must_call:
            if figures.get(name + ".calls", 0) <= 0:
                problems.append("%s was never called: its binding was not traced" % name)
        for name in wl.must_not_call:
            if figures.get(name + ".calls", 0) != 0:
                problems.append("%s was called, but this workload must not reach it" % name)
    counts = dict.fromkeys(figures, len(traced))
    record = {"untraced_pass_wall_s": plain_walls, "traced_pass_wall_s": traced_walls}
    return figures, counts, record, problems


# -- the run record ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "superinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


# -- entry point -----------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool):
    """One benchmark run: (result line, run record)."""
    if not (SRC / "superinv" / "cli.py").is_file():
        raise BenchError("no superinv sources under %s" % SRC)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    golden = json.loads((BENCH / "golden.json").read_text())
    wl = WORKLOADS[workload]
    jobs = workload_jobs(workload, seed)

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "jobs": jobs,
        "loadavg_before": os.getloadavg(),
    }
    runner = Runner(golden)
    measure = measure_layers if trace else measure_end_to_end
    figures, counts, walls, problems = measure(runner, wl, jobs, seconds)
    record["loadavg_after"] = os.getloadavg()
    record.update(walls)

    failed = runner.failures()
    metrics = {}
    for m in wanted:
        value = figures.get(m["name"])
        if value is None:
            # a failed traced job leaves no figures; otherwise the name is wrong
            if not failed:
                raise BenchError("BENCHMARK.json names %s, which this run does not measure" % m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    recorded = dict(metrics)
    if not trace:
        # the plain times, which wall_ref and cpu_ref are made from
        recorded.update((name, {"value": figures[name], "unit": "s"}) for name in ("wall_s", "cpu_s"))
    attempted = len(runner.runs)
    record.update(
        attempted=attempted,
        failed=len(failed),
        fail_frac=len(failed) / attempted,
        problems=problems,
        metrics={k: dict(v, n=counts[k]) for k, v in recorded.items()},
        runs=[r.to_json() for r in runner.runs],
    )
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, record


def summary_lines(record: dict) -> list:
    lines = [
        "%s seed %d trace %d: %d jobs run, %d failed, fail_frac %g"
        % (record["workload"], record["seed"], record["trace"], record["attempted"],
           record["failed"], record["fail_frac"])
    ]
    for r in record["runs"]:
        if r["failure"] is not None:
            lines.append("FAILED %s: %s (wall %.3f s)" % (r["job"], r["failure"], r.get("wall_s", 0.0)))
    lines.extend("PROBLEM %s" % p for p in record["problems"])
    for name, m in record["metrics"].items():
        lines.append("%-44s %14.6g %-6s n=%d" % (name, m["value"], m["unit"], m["n"]))
    return lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="superinv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    RUNS.mkdir(exist_ok=True)
    path = RUNS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in summary_lines(record):
        print(line)
    print("run record: %s" % path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one command as a child; report its spawn-to-exit time and rusage.

    python3 -S perfbench/spawn.py REPORT_FD TIMEOUT_S COMMAND...

The command inherits stdin, stdout, stderr and the environment.  When it
ends, one JSON object goes to file descriptor REPORT_FD: ``code`` (exit code, or
minus the signal number), ``wall_s``, ``cpu_s``, ``maxrss_kb`` and
``timed_out``.  A command still running after TIMEOUT_S seconds is killed.

The benchmark starts jobs through this small process, not directly:
Linux charges a child the RSS high-water mark of the process that spawned
it, so ``ru_maxrss`` of a job spawned by the benchmark itself reads the
benchmark's own peak whenever that is the larger.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    report_fd = int(sys.argv[1])
    timeout = float(sys.argv[2])
    cmd = sys.argv[3:]
    os.set_inheritable(report_fd, False)
    timed_out = False

    def on_alarm(signum, frame):
        nonlocal timed_out
        timed_out = True
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    report = {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": timed_out,
    }
    with os.fdopen(report_fd, "w") as out:
        out.write(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print every metric of every workload by name, with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

For each workload: jobs run, failures and fail_frac, then wall_s, cpu_s,
setup_s and peak_rss_mb with their sample counts; with --trace, also a
traced run's per-layer metrics.  Exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import sys

from run import WORKLOADS, BenchError, run, summary_lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", action="store_true", help="add the traced runs")
    args = parser.parse_args(argv)
    all_correct = True
    for name in WORKLOADS:
        for trace in (False, True) if args.trace else (False,):
            try:
                result, record = run(name, args.seed, args.seconds, trace)
            except BenchError as exc:
                print("perfbench: %s" % exc, file=sys.stderr)
                return 1
            all_correct = all_correct and result["correct"]
            print("\n".join(summary_lines(record)) + "\n", flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

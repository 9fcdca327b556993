#!/usr/bin/env python3
"""How steady is the benchmark?  What the benchmark driver checks before
it accepts a benchmark: run every workload N times in driver form, each
time with another seed, and for every end-to-end metric take the
distance between the first and third quartile of the N values as a share
of their median.  Every spread (``setup_s`` excepted) has to stay within
the metric's bound; aim for a third of it.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 100]
                                    [--workload NAME ...] [--out FILE]

Exits 1 when a spread exceeds its bound or an operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from stats import median, spread  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append",
                    choices=list(metrics.WORKLOADS),
                    help="only this workload (may be given more than once)")
    ap.add_argument("--out", metavar="FILE")
    args = ap.parse_args(argv)

    names = args.workload or list(metrics.WORKLOADS)
    values: dict = {w: {m.name: [] for m in metrics.END_TO_END}
                    for w in names}
    walls: dict = {w: [] for w in names}
    failed = 0
    # workloads interleaved, so that a slow stretch lands on all of them
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            t0 = time.monotonic()
            p = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(metrics.RUN_SECONDS),
                 "--trace", "0"], capture_output=True, text=True)
            walls[w].append(time.monotonic() - t0)
            result = json.loads(p.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (p.returncode != 0)
            for name, v in result["metrics"].items():
                values[w][name].append(v["value"])

    report: dict = {"runs": args.runs, "first_seed": args.first_seed,
                    "run_seconds": metrics.RUN_SECONDS, "failed": failed,
                    "workloads": {}}
    over = 0
    for w, per_metric in values.items():
        print(f"== {w}  (a run takes {median(walls[w]):.1f} s, "
              f"at most {max(walls[w]):.1f} s)")
        report["workloads"][w] = {"wall_s": walls[w]}
        for m in metrics.END_TO_END:
            vals = per_metric[m.name]
            sp = spread(vals)
            gated = m.name != "setup_s"
            flag = " OVER ITS BOUND" if gated and sp > m.bound else ""
            over += bool(flag)
            print(f"  {m.name:<16} median {median(vals):>14.6g} {m.unit:<7}"
                  f" spread {sp:7.4f}  bound {m.bound:g}{flag}")
            report["workloads"][w][m.name] = {
                "median": median(vals), "spread": sp, "values": vals}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if over or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""CI engine smoke: run a reduced sweep grid under both simulator
engines and require byte-identical results.

The trace-once / time-many engine (DESIGN.md §13) is a pure
performance substitution: ``--engine compiled`` and ``--engine interp``
must produce the same cycles, instruction counts, final memory/register
state, and derived metrics for every configuration.  This script is the
cross-engine identity gate — it diffs the two sweeps field-by-field
(ignoring only the ``t_*`` wall-clock phase timings, which differ
between engines by definition) and reports the wall-clock ratio as a
perf smoke signal without gating on it (CI runners are too noisy for a
hard threshold; the gated numbers live in benchmarks/bench_sim_perf.py).

It also requires that no configuration of the compiled sweep was timed
by the interpreter fallback: identical numbers prove nothing about the
replay path if the runner quietly interpreted the cell.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.sweep import run_sweep, strip_timings  # noqa: E402
from repro.harness import BatchedRunner                # noqa: E402
from repro.pipeline import Level                       # noqa: E402
from repro.workloads import get_workload               # noqa: E402

#: reduced but shape-diverse: FP DOALL, serial reductions, a search
#: loop with a side exit, and a multi-block simulation-heavy nest
WORKLOADS = ("add", "dotprod", "sum", "maxval", "LWS-1", "NAS-5")
LEVELS = tuple(Level)
WIDTHS = (1, 2, 4, 8)


def main() -> int:
    wls = [get_workload(n) for n in WORKLOADS]

    t0 = time.perf_counter()
    interp = run_sweep(wls, LEVELS, WIDTHS, engine="interp")
    t_interp = time.perf_counter() - t0

    # count the runs the compiled sweep handed to the interpreter
    fallbacks = []
    real_run = BatchedRunner.run

    def counted_run(self, ck):
        out = real_run(self, ck)
        if self.last_fallback:
            fallbacks.append((ck.func.name, int(ck.level),
                              ck.machine.issue_width))
        return out

    BatchedRunner.run = counted_run
    try:
        t0 = time.perf_counter()
        compiled = run_sweep(wls, LEVELS, WIDTHS, engine="compiled")
        t_compiled = time.perf_counter() - t0
    finally:
        BatchedRunner.run = real_run

    if set(interp.results) != set(compiled.results):
        print("FAIL: engines produced different grids")
        return 1

    bad = 0
    for key in sorted(interp.results):
        a = strip_timings(interp.results[key])
        b = strip_timings(compiled.results[key])
        if a != b:
            bad += 1
            for field in a:
                if a[field] != b[field]:
                    print(f"FAIL: {key}: {field}: "
                          f"interp={a[field]!r} compiled={b[field]!r}")
    if bad:
        print(f"FAIL: {bad}/{len(interp.results)} configurations diverge "
              f"between engines")
        return 1

    if fallbacks:
        print(f"FAIL: {len(fallbacks)}/{len(compiled.results)} configurations "
              f"of the compiled sweep were interpreted, first {fallbacks[:5]}")
        return 1

    print(f"OK: {len(interp.results)} configurations byte-identical across "
          f"engines, 0 timed by fallback (interp {t_interp:.2f}s, "
          f"compiled {t_compiled:.2f}s, "
          f"{t_interp / t_compiled:.2f}x end-to-end)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

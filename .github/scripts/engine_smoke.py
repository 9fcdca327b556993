"""CI engine smoke: run a reduced sweep grid under the compiled engine
and the reference interpreter and require byte-identical results.

The trace-once / time-many engine (DESIGN.md §13) times every cell;
the interpreter (``engine="interp"``) is the reference it must match:
the same cycles, instruction counts, final memory/register state, and
derived metrics for every configuration.  This script is the
cross-engine identity gate — it diffs the two sweeps field-by-field
(ignoring only the ``t_*`` wall-clock phase timings, which differ
between engines by definition) and reports the wall-clock ratio as a
perf smoke signal without gating on it (CI runners are too noisy for a
hard threshold; the gated numbers live in benchmarks/bench_sim_perf.py).

It also requires that the compiled sweep never called the interpreter:
identical numbers prove nothing about the replay path if the
interpreter produced both.  The same identity is then required on the
slot-limited machine of ``benchmarks/bench_ablation_slots.py``, every
workload at every level, through ``run_config``.

Run:  python .github/scripts/engine_smoke.py
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro.sim.simulator as simulator                # noqa: E402
from repro.experiments.sweep import (                  # noqa: E402
    run_config, run_sweep, strip_timings,
)
from repro.ir.instructions import Kind                 # noqa: E402
from repro.machine import MachineConfig                # noqa: E402
from repro.pipeline import Level                       # noqa: E402
from repro.workloads import get_workload               # noqa: E402

#: reduced but shape-diverse: FP DOALL, serial reductions, a search
#: loop with a side exit, and a multi-block simulation-heavy nest
WORKLOADS = ("add", "dotprod", "sum", "maxval", "LWS-1", "NAS-5")
LEVELS = tuple(Level)
WIDTHS = (1, 2, 4, 8)
#: bench_ablation_slots.py's machine: one FP add, multiply and divide slot
FP_LIMITED = MachineConfig(
    issue_width=8,
    slot_limits={Kind.FP_ALU: 1, Kind.FP_MUL: 1, Kind.FP_DIV: 1},
)


def _diff(key, a, b) -> bool:
    """Print every field where two stripped results differ."""
    for field in a:
        if a[field] != b[field]:
            print(f"FAIL: {key}: {field}: "
                  f"interp={a[field]!r} compiled={b[field]!r}")
    return a != b


def main() -> int:
    wls = [get_workload(n) for n in WORKLOADS]

    t0 = time.perf_counter()
    interp = run_sweep(wls, LEVELS, WIDTHS, engine="interp")
    t_interp = time.perf_counter() - t0

    # count the compiled sweep's calls into the interpreter
    interp_calls = []
    real_interp = simulator.run_compiled

    def counted(prog, *args, **kwargs):
        interp_calls.append(prog.func.name)
        return real_interp(prog, *args, **kwargs)

    simulator.run_compiled = counted
    try:
        t0 = time.perf_counter()
        compiled = run_sweep(wls, LEVELS, WIDTHS, engine="compiled")
        t_compiled = time.perf_counter() - t0
    finally:
        simulator.run_compiled = real_interp

    if set(interp.results) != set(compiled.results):
        print("FAIL: engines produced different grids")
        return 1

    bad = sum(_diff(key, strip_timings(interp.results[key]),
                    strip_timings(compiled.results[key]))
              for key in sorted(interp.results))
    if bad:
        print(f"FAIL: {bad}/{len(interp.results)} configurations diverge "
              f"between engines")
        return 1

    if interp_calls:
        print(f"FAIL: the compiled sweep called the interpreter "
              f"{len(interp_calls)} times, first {interp_calls[:5]}")
        return 1

    limited_bad = 0
    for w in wls:
        for level in LEVELS:
            a, b = (strip_timings(run_config(w, level, FP_LIMITED,
                                             engine=engine))
                    for engine in ("interp", "compiled"))
            limited_bad += _diff((w.name, int(level), "fp-limited"), a, b)
    if limited_bad:
        print(f"FAIL: {limited_bad} slot-limited configurations diverge "
              f"between engines")
        return 1

    print(f"OK: {len(interp.results)} configurations byte-identical across "
          f"engines, 0 interpreter calls in the compiled sweep (interp "
          f"{t_interp:.2f}s, compiled {t_compiled:.2f}s, "
          f"{t_interp / t_compiled:.2f}x end-to-end); "
          f"{len(wls) * len(LEVELS)} fp-limited configurations identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""CI exact-scheduling smoke: the solver measures the list scheduler.

Three gates over a six-loop corpus slice at Lev4 and Lev5, issue-8,
where each loop is list-scheduled and exactly scheduled
(``repro.optsched.schedule_exactly``) from the same transformed code:

1. **Never worse, honestly labeled** — the exact schedule's inner-loop
   makespan is <= the heuristic's for every (loop, level), and every
   scheduled block carries an ``optimal`` or ``timeout-incumbent``
   proof status (``too-large`` or a missing record fails).
2. **Differential oracle byte-identity** — the two schedules' simulated
   end states must be bit-identical on real data for every loop.
3. **Warm store replay** — rescheduling against the store populated by
   the first pass must answer every non-trivial block and every modulo
   search from the solver cache, with identical results.
"""

import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from pathlib import Path                                      # noqa: E402

from repro.harness import (                                   # noqa: E402
    ilp_transform,
    lower_conv,
    run_compiled_kernel,
    schedule_kernel,
)
from repro.machine import issue8                              # noqa: E402
from repro.optsched import modulo_schedule, schedule_exactly  # noqa: E402
from repro.pipeline import Level                              # noqa: E402
from repro.service.store import ArtifactStore                 # noqa: E402
from repro.workloads import get_workload                      # noqa: E402

LOOPS = ("add", "sum", "dotprod", "LWS-1", "NAS-4", "SRS-6")
LEVELS = (Level.LEV4, Level.LEV5)


def check_config(name: str, level: Level, store) -> int:
    w = get_workload(name)
    machine = issue8()
    tk = ilp_transform(lower_conv(w.build()), level, machine)
    ck_o, proofs = schedule_exactly(tk, machine, store=store, check=True)
    ck_h = schedule_kernel(tk, machine)
    label = f"{name}@{level.label}"
    bad = 0

    if ck_o.inner_makespan > ck_h.inner_makespan:
        print(f"FAIL {label}: exact makespan {ck_o.inner_makespan} > "
              f"heuristic {ck_h.inner_makespan}")
        bad += 1
    statuses = {p["status"] for p in proofs.values()}
    if not proofs or \
            statuses - {"optimal", "timeout-incumbent"}:
        print(f"FAIL {label}: bad proof statuses {statuses}")
        bad += 1

    arrays, scalars = w.make_inputs(0)
    rh = run_compiled_kernel(ck_h, arrays=arrays, scalars=scalars)
    ro = run_compiled_kernel(ck_o, arrays=arrays, scalars=scalars)
    same = (set(rh.arrays) == set(ro.arrays)
            and all(np.array_equal(rh.arrays[k], ro.arrays[k])
                    for k in rh.arrays)
            and rh.scalars == ro.scalars)
    if not same:
        print(f"FAIL {label}: end states diverge between the schedules")
        bad += 1

    ms = modulo_schedule(
        ck_o.sb.body.instrs, machine,
        iterations=ck_o.report.unroll_factor,
        prologue=ck_o.sb.preheader.instrs,
        doall=w.loop_type == "doall", store=store,
    )
    if not (ms.bounds.mii <= ms.ii <= ms.acyclic_makespan):
        print(f"FAIL {label}: II {ms.ii} outside "
              f"[{ms.bounds.mii}, {ms.acyclic_makespan}]")
        bad += 1

    if not bad:
        opt = sum(1 for p in proofs.values() if p["status"] == "optimal")
        print(f"ok {label}: makespan {ck_o.inner_makespan} "
              f"(heur {ck_h.inner_makespan}), "
              f"{opt}/{len(proofs)} blocks proved, "
              f"ii={ms.ii} [{ms.status}], states identical")
    return bad


def check_warm_replay(name: str, level: Level, store) -> int:
    """Second pass: every non-trivial block must hit the solver cache."""
    w = get_workload(name)
    machine = issue8()
    tk = ilp_transform(lower_conv(w.build()), level, machine)
    ck, proofs = schedule_exactly(tk, machine, store=store)
    bad = 0
    for label, p in proofs.items():
        blk = next(b for b in ck.func.blocks if b.label == label)
        if len(blk.instrs) > 1 and not p["cached"]:
            print(f"FAIL {name}@{level.label}: block {label} "
                  f"missed the warm solver cache")
            bad += 1
    ms = modulo_schedule(
        ck.sb.body.instrs, machine,
        iterations=ck.report.unroll_factor,
        prologue=ck.sb.preheader.instrs,
        doall=w.loop_type == "doall", store=store,
    )
    if not ms.cached:
        print(f"FAIL {name}@{level.label}: modulo search missed the cache")
        bad += 1
    return bad


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as d:
        store = ArtifactStore(Path(d) / "solver-store")
        for level in LEVELS:
            for name in LOOPS:
                failures += check_config(name, level, store)
        print("-- warm store replay --")
        for level in LEVELS:
            for name in LOOPS:
                failures += check_warm_replay(name, level, store)
    print(f"optsched smoke: {len(LOOPS) * len(LEVELS)} configs, "
          f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

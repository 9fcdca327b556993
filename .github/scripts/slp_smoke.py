"""CI Lev5 smoke: SLP vectorization is a pure performance substitution.

Two gates:

1. **Cross-engine byte-identity at Lev5** — every corpus workload is
   swept at Lev5 under both simulator engines (the tuple interpreter
   and the block-compiled trace/replay core); cycles, instruction
   counts, and end states must match field-for-field (wall-clock
   phase timings excluded, as in engine_smoke.py).
2. **Fixed-seed vector fuzz** — the fuzzer's vector-shaped templates
   (elementwise pairs, same-array smoothing, integer reduction) are
   pushed through the full differential oracle at Lev4 and Lev5 with
   cross-engine checking on, over a deterministic trip-count ladder
   that straddles the unroll and pack widths.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.check.fuzz import CaseSpec, build_workload  # noqa: E402
from repro.check.oracle import check_workload          # noqa: E402
from repro.experiments.sweep import run_sweep, strip_timings  # noqa: E402
from repro.pipeline import Level                       # noqa: E402
from repro.workloads import all_workloads              # noqa: E402

WIDTHS = (1, 4, 8)
VEC_TEMPLATES = ("pair", "smooth", "isum")
TRIPS = (3, 8, 17, 24)


def engine_identity() -> int:
    wls = all_workloads()
    interp = run_sweep(wls, (Level.LEV5,), WIDTHS, engine="interp")
    compiled = run_sweep(wls, (Level.LEV5,), WIDTHS, engine="compiled")
    if set(interp.results) != set(compiled.results):
        print("FAIL: engines produced different Lev5 grids")
        return 1
    bad = 0
    for key in sorted(interp.results):
        a = strip_timings(interp.results[key])
        b = strip_timings(compiled.results[key])
        if a != b:
            bad += 1
            diffs = [f for f in a if a[f] != b[f]]
            print(f"FAIL {key}: engines diverge on {diffs}")
    print(f"Lev5 cross-engine identity: {len(interp.results)} configs, "
          f"{bad} divergent")
    return 1 if bad else 0


def vector_fuzz() -> int:
    n_checked = 0
    n_div = 0
    for ti, t in enumerate(VEC_TEMPLATES):
        for trip in TRIPS:
            spec = CaseSpec(seed=1000 * ti + trip, trip=trip,
                            outer=0, stmts=(t,), symbolic_bound=False,
                            consts=(1, 2, 3, 5, 2))
            checked, divs = check_workload(
                build_workload(spec), levels=(Level.LEV4, Level.LEV5),
                widths=(1, 8), check_ir=True, cross_engine=True,
            )
            n_checked += checked
            n_div += len(divs)
            for d in divs:
                print(f"FAIL {t} trip={trip}: {d}")
    print(f"vector fuzz: {n_checked} configs over "
          f"{len(VEC_TEMPLATES) * len(TRIPS)} cases, {n_div} divergent")
    return 1 if n_div else 0


def main() -> int:
    return engine_identity() | vector_fuzz()


if __name__ == "__main__":
    raise SystemExit(main())

"""CI smoke-sweep gate: the cells a cold ``repro sweep --store DIR`` just
computed must equal ``results/sweep.json`` on every non-timing field.

Usage: ``sweep_smoke_diff.py DIR A,B,...`` after the cold pass.  The
cells are read back through ``run_sweep(store=DIR)`` — all store hits,
so what is compared is what the cold pass wrote — and held against the
committed grid, so a drift in cycles, instruction or register counts
fails CI here and not only in perfbench.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.sweep import (                       # noqa: E402
    load_sweep, run_sweep, strip_timings,
)
from repro.service.store import ArtifactStore               # noqa: E402
from repro.workloads import get_workload                    # noqa: E402


def main(store_dir: str, names: str) -> int:
    wls = [get_workload(n) for n in names.split(",")]
    got = run_sweep(wls, store=ArtifactStore(store_dir))
    if got.computed:
        print(f"FAIL: {got.computed} cells were not in the store "
              "(run the cold sweep first)")
        return 1
    want = load_sweep()
    bad = 0
    for key, r in sorted(got.results.items()):
        a, b = strip_timings(r), strip_timings(want.results[key])
        if a != b:
            bad += 1
            diff = {f: (b[f], a[f]) for f in a if a[f] != b[f]}
            print(f"FAIL {key}: committed -> computed {diff}")
    print(f"{len(got.results)} cells against results/sweep.json: "
          f"{bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))

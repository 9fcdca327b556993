"""Wall-clock benchmarks of the sweep: per-pass compile cost, cold vs.
warm artifact store, and reference vs. compiled engine over a fixed
small grid, recorded in ``results/BENCH_sweep.json``.

All runs are serial single-process, independent of ``--jobs``
parallelism.  (The repo's gated end-to-end benchmark is ``perfbench/``;
result identity is pinned against ``results/sweep.json`` by
``tests/integration/test_golden_pass_manager.py``.)
"""

import json
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from repro.experiments.sweep import default_cache_path, run_sweep
from repro.pipeline import Level
from repro.service.store import ArtifactStore
from repro.workloads import get_workload

#: small but representative: FP DOALL, reductions, a search loop with
#: side exits, and two simulation-heavy nests (NAS-5, tomcatv-1)
GRID_WORKLOADS = ("add", "dotprod", "sum", "maxval", "NAS-5", "tomcatv-1")
GRID_LEVELS = tuple(Level)
GRID_WIDTHS = (1, 2, 4, 8)


def _update_bench(section: dict) -> Path:
    """Merge one bench section into results/BENCH_sweep.json (the tests
    here each own a disjoint set of top-level keys)."""
    out = default_cache_path().parent / "BENCH_sweep.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        payload = json.loads(out.read_text())
    except (OSError, json.JSONDecodeError):
        payload = {}
    payload.update(section)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def _grid_workloads():
    names = []
    for n in GRID_WORKLOADS:
        try:
            get_workload(n)
            names.append(n)
        except KeyError:
            continue  # keep the bench robust to corpus renames
    return [get_workload(n) for n in names]


def test_sweep_pass_seconds():
    """Per-pass compile-time attribution over the grid (the pass manager
    records wall time for every pass execution) — tracked so a pass that
    regresses in cost shows up in the bench trajectory."""
    wls = _grid_workloads()
    assert len(wls) >= 3
    data = run_sweep(wls, GRID_LEVELS, GRID_WIDTHS)
    pass_seconds = {
        name: round(s, 4)
        for name, s in sorted(data.pass_seconds().items(),
                              key=lambda kv: kv[1], reverse=True)
    }
    assert pass_seconds.get("listsched", 0) > 0
    # register colouring is not a registered pass but rides the same map
    assert pass_seconds.get("regalloc", 0) > 0
    out = _update_bench({
        "grid": {
            "workloads": [w.name for w in wls],
            "levels": [int(lv) for lv in GRID_LEVELS],
            "widths": list(GRID_WIDTHS),
            "configs": len(data.results),
        },
        "pass_seconds": pass_seconds,
    })
    print(f"\n{len(data.results)} configs in {data.elapsed:.2f}s, "
          f"{sum(pass_seconds.values()):.2f}s in passes -> {out}")


def test_warm_store_speedup():
    """Cold ``repro sweep --store DIR`` vs. a warm rerun against the same
    store: the warm sweep reloads every configuration from the
    content-addressed artifact store instead of compiling, and must be
    at least 5x faster with byte-identical results."""
    wls = _grid_workloads()
    n = len(wls) * len(GRID_LEVELS) * len(GRID_WIDTHS)

    def dump(data) -> str:
        return json.dumps([asdict(data.results[k])
                           for k in sorted(data.results)])

    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(Path(tmp) / "store")

        t0 = time.perf_counter()
        cold = run_sweep(wls, GRID_LEVELS, GRID_WIDTHS, store=store)
        t_cold = time.perf_counter() - t0
        assert cold.computed == n and cold.store_hits == 0

        t0 = time.perf_counter()
        warm = run_sweep(wls, GRID_LEVELS, GRID_WIDTHS, store=store)
        t_warm = time.perf_counter() - t0
        assert warm.computed == 0 and warm.store_hits == n

        identical = dump(warm) == dump(cold)
        assert identical, "warm sweep results differ from cold sweep"
        speedup = t_cold / t_warm
        store_bytes = store.total_bytes()

    out = _update_bench({
        "store": {
            "configs": n,
            "cold_s": round(t_cold, 3),
            "warm_s": round(t_warm, 4),
            "speedup": round(speedup, 1),
            "byte_identical": identical,
            "store_bytes": store_bytes,
        },
    })
    print(f"\ncold sweep: {t_cold:.2f}s  warm (store): {t_warm:.3f}s  "
          f"speedup: {speedup:.1f}x  ({n} configs) -> {out}")

    assert speedup >= 5.0, f"warm-store speedup too low: {speedup:.1f}x"


def test_engine_sweep_comparison():
    """Cold sweep under the reference vs. the block-compiled
    trace/replay engine: identical grids, byte-identical results, and
    the wall-clock ratio recorded (simulation is one phase of a sweep —
    compilation and scheduling are shared — so this end-to-end ratio is
    far smaller than the engine-level one in BENCH_sim.json)."""
    wls = _grid_workloads()

    def dump(data) -> str:
        # wall-clock phase costs differ between engines by definition;
        # everything else must be byte-identical
        rows = []
        for k in sorted(data.results):
            d = asdict(data.results[k])
            rows.append({f: v for f, v in d.items()
                         if not f.startswith("t_")})
        return json.dumps(rows)

    # a single ~1.7s sweep has enough wall-clock jitter to swamp the
    # simulation-phase delta; time best-of-3 per engine, alternating
    t_ref = t_compiled = float("inf")
    t_sim_ref = t_sim_compiled = float("inf")
    ref = compiled = None
    for _ in range(3):
        t0 = time.perf_counter()
        ref = run_sweep(wls, GRID_LEVELS, GRID_WIDTHS, engine="interp")
        t_ref = min(t_ref, time.perf_counter() - t0)
        t_sim_ref = min(t_sim_ref, sum(
            r.t_simulate for r in ref.results.values()))

        t0 = time.perf_counter()
        compiled = run_sweep(wls, GRID_LEVELS, GRID_WIDTHS)
        t_compiled = min(t_compiled, time.perf_counter() - t0)
        t_sim_compiled = min(t_sim_compiled, sum(
            r.t_simulate for r in compiled.results.values()))

    identical = dump(ref) == dump(compiled)
    assert identical, "engines disagree on sweep results"
    speedup = t_ref / t_compiled
    out = _update_bench({
        "engine": {
            "configs": len(ref.results),
            "reference_s": round(t_ref, 3),
            "compiled_s": round(t_compiled, 3),
            "speedup": round(speedup, 2),
            "t_simulate_reference_s": round(t_sim_ref, 3),
            "t_simulate_compiled_s": round(t_sim_compiled, 3),
            "t_simulate_speedup": round(t_sim_ref / t_sim_compiled, 2),
            "byte_identical": True,
        },
    })
    print(f"\nsweep engines: reference {t_ref:.2f}s  compiled {t_compiled:.2f}s "
          f"({speedup:.2f}x end-to-end, "
          f"{t_sim_ref / t_sim_compiled:.2f}x on simulation) -> {out}")
    # the end-to-end ratio is mostly compile+schedule noise on this small
    # grid; the phase the engine owns must actually get faster
    assert t_sim_ref / t_sim_compiled >= 1.1, (
        f"compiled engine did not speed up simulation: "
        f"{t_sim_ref / t_sim_compiled:.2f}x"
    )

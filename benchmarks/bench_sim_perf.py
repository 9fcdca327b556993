"""Wall-clock benchmark: block-compiled trace/replay engine vs. the
reference interpreter.

Two measurements, both gated on byte-identical results, recorded in
``results/BENCH_sim.json``:

* **corpus cells** — every (workload, level) cell of a representative
  grid simulated at four issue widths, interpreter (four full
  simulations) vs. the batched engine (execute once through generated
  block code, replay timing per width).  Corpus inputs are small
  (hundred-ish iterations), so set-up — lowering the program (once per
  cell), generating and compiling block code — is a visible fraction of
  the cell and the honest speedup is modest.  Every batched run pays that
  set-up: the engine keeps nothing between runs, which is what a sweep
  cell or a service request sees (each compiles fresh functions).
* **large traces** — the same comparison on scaled kernels (16384-long
  vectors) where the dynamic instruction count amortizes compilation:
  this is the engine's asymptotic regime (generated straight-line code
  plus O(1) steady-state timing replay), and where the >=10x target
  holds.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.experiments.sweep import default_cache_path
from repro.frontend.ast import ArrayDecl, Kernel, Ty, aref, assign, do, var
from repro.harness import (
    BatchedRunner,
    ilp_transform,
    lower_conv,
    run_compiled_kernel,
    schedule_kernel,
)
from repro.machine import MachineConfig
from repro.pipeline import Level
from repro.workloads import get_workload, ints

WIDTHS = (1, 2, 4, 8)
CELL_WORKLOADS = ("add", "dotprod", "sum", "maxval", "NAS-5", "tomcatv-1")
CELL_LEVELS = (Level.CONV, Level.LEV2, Level.LEV4)

_F = Ty.FP


def _update_bench(section: dict) -> Path:
    out = default_cache_path().parent / "BENCH_sim.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        payload = json.loads(out.read_text())
    except (OSError, json.JSONDecodeError):
        payload = {}
    payload.update(section)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def _assert_identical(a, b, ctx):
    assert a.cycles == b.cycles, ctx
    assert a.instructions == b.instructions, ctx
    assert set(a.arrays) == set(b.arrays), ctx
    for name in a.arrays:
        assert np.array_equal(np.asarray(a.arrays[name]),
                              np.asarray(b.arrays[name])), f"{ctx}: {name}"
    assert a.scalars == b.scalars, ctx


def _time_cell(tk, arrays, scalars, repeat=3):
    """One cell, four widths: best-of-``repeat`` (interp s, batched s)
    with results asserted identical.  Both sides start from the
    scheduled kernels and pay all of their own set-up every time."""
    cks = [schedule_kernel(tk.clone(), MachineConfig(issue_width=w))
           for w in WIDTHS]
    t_interp = t_cold = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        base = [run_compiled_kernel(ck, arrays=arrays, scalars=scalars,
                                    engine="interp") for ck in cks]
        t_interp = min(t_interp, time.perf_counter() - t0)
        t0 = time.perf_counter()
        runner = BatchedRunner(cks[0], arrays, scalars)
        got = [runner.run(ck) for ck in cks]
        t_cold = min(t_cold, time.perf_counter() - t0)
    for ck, b, g in zip(cks, base, got):
        _assert_identical(b, g, f"{ck.lowered.func.name}/w{ck.machine.issue_width}")
    return t_interp, t_cold


def test_engine_speedup_corpus_cells():
    cells = {}
    tot_interp = tot_cold = 0.0
    for name in CELL_WORKLOADS:
        w = get_workload(name)
        arrays, scalars = w.make_inputs(0)
        conv = lower_conv(w.build())
        for level in CELL_LEVELS:
            tk = ilp_transform(conv.clone(), level, MachineConfig(issue_width=1))
            t_interp, t_cold = _time_cell(tk, arrays, scalars)
            tot_interp += t_interp
            tot_cold += t_cold
            cells[f"{name}/{level.label}"] = {
                "interp_ms": round(t_interp * 1e3, 3),
                "batched_cold_ms": round(t_cold * 1e3, 3),
                "cold_speedup": round(t_interp / t_cold, 2),
            }
    cold_speedup = tot_interp / tot_cold
    out = _update_bench({
        "corpus_cells": {
            "widths": list(WIDTHS),
            "levels": [lv.label for lv in CELL_LEVELS],
            "interp_s": round(tot_interp, 3),
            "batched_cold_s": round(tot_cold, 3),
            "cold_speedup": round(cold_speedup, 2),
            "identical_results": True,
            "cells": cells,
        },
    })
    print(f"\ncorpus cells: interp {tot_interp*1e3:.1f}ms  "
          f"batched cold {tot_cold*1e3:.1f}ms  "
          f"speedup {cold_speedup:.2f}x -> {out}")
    assert cold_speedup >= 1.5, (
        f"corpus-cell cold engine speedup too low: {cold_speedup:.2f}x"
    )


def _scaled_kernels(n: int):
    """Corpus-shaped kernels with ``n``-long vectors: the trip count is
    the only thing scaled, so the code the engine sees is identical in
    shape to the Table 2 loops."""
    i = var("i")

    def build_daxpy():
        return Kernel(
            "daxpy_big",
            arrays={"X": ArrayDecl(_F, (n,)), "Y": ArrayDecl(_F, (n,))},
            scalars={"a": _F},
            body=[do("i", 1, n, [
                assign(aref("Y", i), aref("Y", i) + var("a") * aref("X", i)),
            ], kind="doall")],
        )

    def build_dot():
        return Kernel(
            "dot_big",
            arrays={"A": ArrayDecl(_F, (n,)), "B": ArrayDecl(_F, (n,))},
            scalars={"s": _F},
            outputs=["s"],
            body=[do("i", 1, n, [
                assign(var("s"), var("s") + aref("A", i) * aref("B", i)),
            ], kind="serial")],
        )

    rng = np.random.default_rng(0)
    return [
        (build_daxpy(),
         {"X": ints(rng, n), "Y": ints(rng, n)}, {"a": 3.0}),
        (build_dot(),
         {"A": ints(rng, n), "B": ints(rng, n)}, {"s": 0.0}),
    ]


def test_engine_speedup_large_traces():
    n = 16384
    kernels = {}
    tot_interp = tot_batch = 0.0
    for kernel, arrays, scalars in _scaled_kernels(n):
        conv = lower_conv(kernel)
        tk = ilp_transform(conv.clone(), Level.LEV4, MachineConfig(issue_width=1))
        t_interp, t_cold = _time_cell(tk, arrays, scalars, repeat=2)
        tot_interp += t_interp
        tot_batch += t_cold
        kernels[kernel.name] = {
            "interp_ms": round(t_interp * 1e3, 2),
            "batched_cold_ms": round(t_cold * 1e3, 2),
            "speedup": round(t_interp / t_cold, 2),
        }
    speedup = tot_interp / tot_batch
    out = _update_bench({
        "large_traces": {
            "n": n,
            "widths": list(WIDTHS),
            "level": "Lev4",
            "interp_s": round(tot_interp, 3),
            "batched_cold_s": round(tot_batch, 3),
            "speedup": round(speedup, 2),
            "identical_results": True,
            "kernels": kernels,
        },
    })
    print(f"\nlarge traces (n={n}): interp {tot_interp*1e3:.1f}ms  "
          f"batched cold {tot_batch*1e3:.1f}ms  speedup {speedup:.2f}x -> {out}")
    assert speedup >= 10.0, f"asymptotic engine speedup too low: {speedup:.2f}x"

"""``grid_cold``: the researcher's path — a cold sweep of the grid.

Untraced, it is ``run_sweep`` as ``repro sweep`` calls it (jobs=1,
check=True, no store, no journal), one call per loop so that each loop's
share of the sweep is timed by itself.  The process is fresh, so the
classical-optimisation, input and program caches all start empty.
Every cell is held against the committed ``results/sweep.json``.

The loops are every third of Table 2's forty (14 loops x 6 levels x 4
widths = 336 cells).  The whole grid takes 17 s a pass; the driver
allows some 37 s a run, and one pass a run is not steady on a shared
machine (see README "Steadiness"), so the grid is cut to a size that is
swept three or four times a run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict

from repro.experiments.sweep import run_sweep
from repro.pipeline import Level
from repro.workloads import all_workloads, check_run

import staged
from common import (
    DATA_SEED, WIDTHS, Rep, cell_mismatch, corpus, reference_rows,
    start_timing,
)

NAME = "grid_cold"
CELLS_PER_LOOP = len(Level) * len(WIDTHS)


@contextmanager
def prepare(profile, seed, scratch=None):
    names = profile.cold_loops or tuple(w.name for w in all_workloads()[::3])
    yield {"workloads": corpus(names, seed), "reference": reference_rows()}


def measure(state, tracer=None) -> Rep:
    rep = Rep(NAME)
    ws = state["workloads"]
    rep.attempted = len(ws) * CELLS_PER_LOOP
    cells: list[dict] = []
    try:
        if tracer is None:
            for w in ws:
                t0 = start_timing()
                data = run_sweep([w], jobs=1, check=True, engine="auto",
                                 seed=DATA_SEED)
                rep.timed("steady", w.name, CELLS_PER_LOOP,
                          time.perf_counter() - t0)
                cells += [asdict(r) for r in data.results.values()]
        else:
            t0 = start_timing()
            _staged_sweep(tracer, ws, rep, cells)
            _, on_path, off_path = tracer.self_seconds()
            # the probes are not the sweep's own work
            rep.wall_s = time.perf_counter() - t0 - off_path
            rep.layers["trace.coverage"] = on_path / rep.wall_s
    except Exception as e:  # one bad cell aborts a serial sweep
        rep.fail(f"sweep aborted: {e!r}", 0)
    # the whole workload is first touch: no cache can answer any of it
    rep.first, rep.first_ops = rep.steady, rep.steady_ops
    check_cells(rep, cells, state["reference"], rep.attempted)
    return rep


def check_cells(rep: Rep, cells: list[dict], reference: dict,
                expected: int) -> None:
    """Every cell present and equal to the committed grid."""
    for c in cells:
        key = (c["workload"], c["level"], c["width"])
        bad = cell_mismatch(c, reference[key])
        if bad:
            rep.fail(f"{key}: {bad}")
        rep.model_cycles += c["cycles"]
    if len(cells) < expected:
        rep.fail(f"{expected - len(cells)} cell(s) missing", expected - len(cells))


def _staged_sweep(tr, ws, rep: Rep, cells: list[dict]) -> None:
    """The sweep's tasks through :mod:`staged`, a span per layer call."""
    counts = staged.Counts()
    for w in ws:
        with tr.span("workloads.build"):
            kernel = w.build()
        conv = staged.lower_conv_staged(tr, kernel, counts)
        with tr.span("workloads.make_inputs"):
            arrays, scalars = w.make_inputs(DATA_SEED)
        for level in Level:
            compiled = staged.compile_cell(tr, conv, level, WIDTHS, counts,
                                           probes=True)
            runs = staged.simulate_cell(
                tr, [ck for ck, _ in compiled], arrays, scalars, counts)
            # outputs are shared by the widths of a replayed cell
            checked = set()
            for (ck, usage), run in zip(compiled, runs):
                if id(run.arrays) not in checked:
                    checked.add(id(run.arrays))
                    with tr.span("workloads.check_run"):
                        check_run(w, run.arrays, run.scalars, arrays, scalars)
                cells.append({
                    "workload": w.name, "level": int(level),
                    "width": ck.machine.issue_width, "cycles": run.cycles,
                    "instructions": run.instructions,
                    "inner_makespan": ck.inner_makespan,
                    "int_regs": usage.int_regs, "fp_regs": usage.fp_regs,
                    "checked": True,
                })
    rep.layers = staged.layer_metrics(tr, counts)

"""``trace_big``: the simulator on long traces — set-up is noise,
executing the generated blocks and replaying the trace per width is
everything.  Four kernels x Conv/Lev4/Lev5 x widths 1/2/4/8.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.harness import BatchedRunner, run_compiled_kernel
from repro.machine import MachineConfig
from repro.pipeline import Level

import bigkernels
import staged
from common import WIDTHS, Rep, start_timing
from spans import NULL

NAME = "trace_big"
LEVELS = (Level.CONV, Level.LEV4, Level.LEV5)


@contextmanager
def prepare(profile, seed, scratch=None):
    rng = np.random.default_rng(seed)
    ks = bigkernels.kernels(profile.big_n)
    yield {
        "kernels": [(k, k.build(), k.inputs(rng)) for k in ks],
        "interp": [(k, k.build(), k.inputs(rng))
                   for k in bigkernels.kernels(profile.interp_n)],
    }


def measure(state, tracer=None) -> Rep:
    rep = Rep(NAME)
    tr = tracer if tracer is not None else NULL
    counts = staged.Counts()
    for k, kernel, (arrays, scalars) in state["kernels"]:
        conv = None
        # untimed: the NumPy reference is the benchmark's own work
        expected = k.reference(arrays, scalars)
        for level in LEVELS:
            unit = f"{k.name}/{level.label}"
            t0 = start_timing()
            if conv is None:
                # the classical stage is level-independent: its cost lands
                # on the kernel's first cell, as in a sweep
                conv = staged.lower_conv_staged(tr, kernel, counts)
            cks = [ck for ck, _ in
                   staged.compile_cell(tr, conv, level, WIDTHS, counts)]
            t_compiled = time.perf_counter()
            if tracer is None:
                runner = BatchedRunner(cks[0], arrays, scalars)
                runs = [runner.run(ck) for ck in cks]
            else:
                runs = staged.simulate_cell(tr, cks, arrays, scalars, counts)
            t1 = time.perf_counter()
            rep.timed("steady", unit, sum(r.instructions for r in runs),
                      t1 - t0)
            rep.first.setdefault(unit, []).append(t_compiled - t0)
            rep.first_ops[unit] = 1
            _check(rep, k, level, runs, expected)
    if tracer is not None:
        _interp_probe(tr, state["interp"], counts, rep)
        rep.layers = staged.layer_metrics(tr, counts)
        # the interpreter probe ran after the timed cells, off the path
        rep.layers["trace.coverage"] = tr.self_seconds()[1] / rep.wall_s
    return rep


def _check(rep: Rep, k, level, runs, expected) -> None:
    rep.attempted += len(runs)
    rep.model_cycles += sum(r.cycles for r in runs)
    # the widths of a cell share one trace: same outputs, same count
    compared: dict[int, str | None] = {}
    for r in runs:
        if id(r.arrays) not in compared:  # replayed widths share outputs
            compared[id(r.arrays)] = bigkernels.mismatch(k, r, expected)
        bad = compared[id(r.arrays)]
        if bad is None and r.instructions != runs[0].instructions:
            bad = (f"{k.name}: widths disagree on the instruction count "
                   f"({r.instructions} vs {runs[0].instructions})")
        if bad:
            rep.fail(f"{level.label}: {bad}")


def _interp_probe(tr, small, counts, rep: Rep) -> None:
    """Off-path: the tuple interpreter on the same kernels (Lev4, issue
    8) at a length it can finish — no ``trace_big`` cell falls back to
    it, so its speed would otherwise go unmeasured."""
    machine = MachineConfig(issue_width=8)
    for k, kernel, (arrays, scalars) in small:
        conv = staged.lower_conv_staged(NULL, kernel, staged.Counts())
        (ck, _), = staged.compile_cell(NULL, conv, Level.LEV4,
                                       (machine.issue_width,), staged.Counts())
        with tr.span("sim.interp", off_path=True):
            run = run_compiled_kernel(ck, arrays, scalars, engine="interp")
        counts.interp_instrs += run.instructions
        rep.attempted += 1
        bad = bigkernels.mismatch(k, run, k.reference(arrays, scalars))
        if bad:
            rep.fail(f"interp: {bad}")

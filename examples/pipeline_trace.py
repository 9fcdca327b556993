"""Watching the pipeline: issue packets and stalls, before and after.

Collects an execution trace of the dot-product loop at Conv (the
accumulation chain stalls the issue-8 machine) and at Lev4 (accumulator
expansion fills the packets), and renders both as cycle diagrams.

Run:  python examples/pipeline_trace.py
"""

import numpy as np

from repro.frontend import ArrayDecl, Kernel, Ty, aref, assign, do, var
from repro.harness import compile_kernel
from repro.machine import issue8
from repro.pipeline import Level
from repro.sim import Memory
from repro.sim.trace import render_packets, render_pipeline, trace_run

N = 32


def build_kernel() -> Kernel:
    i = var("i")
    return Kernel(
        "dot",
        arrays={"A": ArrayDecl(Ty.FP, (N,)), "B": ArrayDecl(Ty.FP, (N,))},
        scalars={"s": Ty.FP},
        outputs=["s"],
        body=[do("i", 1, N,
                 [assign(var("s"), var("s") + aref("A", i) * aref("B", i))],
                 kind="serial")],
    )


def traced_run(level: Level):
    ck = compile_kernel(build_kernel(), level, issue8())
    mem = Memory()
    rng = np.random.default_rng(0)
    A = rng.integers(1, 5, N).astype(float)
    B = rng.integers(1, 5, N).astype(float)
    mem.bind_array("A", A)
    mem.bind_array("B", B)
    s_reg = ck.lowered.scalar_regs["s"]
    res, trace = trace_run(ck.func, issue8(), mem, fregs={s_reg.id: 0.0})
    s = res.fregs[ck.lowered.scalar_regs["s"].id]
    assert np.isclose(s, np.dot(A, B))
    return res, trace


def main() -> None:
    for level in (Level.CONV, Level.LEV4):
        res, trace = traced_run(level)
        print(f"\n================ {level.label}: {res.cycles} cycles, "
              f"IPC {res.ipc:.2f} ================")
        print("\nissue packets (steady state):")
        print(render_packets(trace, start=res.cycles // 2, limit=12))
        print("\npipeline diagram:")
        print(render_pipeline(trace, issue8(), start=res.cycles // 2,
                              n_instrs=14))


if __name__ == "__main__":
    main()

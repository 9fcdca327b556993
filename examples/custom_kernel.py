"""Writing your own kernel: the full API tour.

Defines a new loop nest (not in the corpus) — a damped stencil update with
a conditional clamp — then walks the whole pipeline by hand: lowering,
classical optimization, ILP transformation, scheduling, register-usage
measurement, and simulation, printing the intermediate artifacts.

Run:  python examples/custom_kernel.py
"""

import numpy as np

from repro.frontend import ArrayDecl, Kernel, Ty, aref, assign, do, if_, var
from repro.frontend.lower import lower_kernel
from repro.ir import format_block, format_function, format_schedule
from repro.machine import issue8
from repro.opt.driver import run_conv
from repro.pipeline import Level, apply_ilp_transforms, schedule_function
from repro.regalloc import measure_register_usage
from repro.sim import Memory, simulate

N = 64


def build_kernel() -> Kernel:
    i, t = var("i"), var("t")
    return Kernel(
        "damped_stencil",
        arrays={"U": ArrayDecl(Ty.FP, (N,)), "V": ArrayDecl(Ty.FP, (N,))},
        scalars={"w": Ty.FP, "cap": Ty.FP, "t": Ty.FP},
        body=[
            do("i", 2, N - 1, [
                assign(t, (aref("U", i - 1) + aref("U", i + 1)) * var("w")),
                if_(t > var("cap"), [assign(t, var("cap"))], p_then=0.2),
                assign(aref("V", i), t - aref("U", i)),
            ], kind="doall"),
        ],
    )


def main() -> None:
    kernel = build_kernel()

    # 1. lowering: naive code, one register per scalar, full address math
    lk = lower_kernel(kernel)
    print("=== naive lowering (inner loop) ===")
    print(format_block(lk.func.get_block(lk.inner_header)))

    # 2. the classical (Conv) optimizer
    rep = run_conv(lk.func, lk.counted, lk.live_out_exit)
    print(f"\n=== after Conv ({rep.rewrites('ivsr')} derived IVs, "
          f"{rep.rewrites('dce')} dead instrs removed) ===")
    print(format_block(lk.func.get_block(lk.inner_header)))

    # 3. ILP transformation at Lev4
    machine = issue8()
    counted = lk.counted[lk.inner_header]
    sb, ilp = apply_ilp_transforms(
        lk.func, counted, Level.LEV4, machine, lk.live_out_exit
    )
    print(f"\n=== after Lev4 (unroll x{ilp.unroll_factor}, "
          f"{ilp.rewrites('rename')} renamed, "
          f"{ilp.rewrites('induction')} induction chains) ===")

    # 4. scheduling: issue times for the superblock
    schedules = schedule_function(
        lk.func, machine, lk.live_out_exit, sb=sb, doall=True
    )
    sched = schedules[sb.header]
    print("scheduled superblock (instruction, issue cycle):")
    print(format_schedule(sched.pairs()[:16]))
    print(f"... makespan {sched.makespan} cycles for "
          f"{ilp.unroll_factor} iterations")

    # 5. register usage, the paper's Figure 11 metric
    usage = measure_register_usage(lk.func, lk.live_out_exit)
    print(f"\nregister usage: {usage.int_regs} int + {usage.fp_regs} fp "
          f"= {usage.total}")

    # 6. simulate and check
    mem = Memory()
    rng = np.random.default_rng(7)
    U = rng.integers(1, 9, N).astype(float)
    mem.bind_array("U", U)
    mem.bind_array("V", np.zeros(N))
    regs = lk.scalar_regs
    res = simulate(lk.func, machine, mem,
                   fregs={regs["w"].id: 0.5, regs["cap"].id: 6.0})
    V = mem.read_array("V", (N,))
    expect = np.zeros(N)
    for k in range(1, N - 1):
        tv = (U[k - 1] + U[k + 1]) * 0.5
        tv = min(tv, 6.0)
        expect[k] = tv - U[k]
    assert np.array_equal(V, expect), "simulation disagrees with reference"
    print(f"\nsimulated {res.instructions} instructions in {res.cycles} "
          f"cycles (IPC {res.ipc:.2f}); results verified against NumPy")


if __name__ == "__main__":
    main()

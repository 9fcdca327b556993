"""Quickstart: compile one loop at every transformation level and watch the
cycle count drop.

Builds the paper's running example — C(i) = A(i) + B(i) — in the kernel
language, compiles it at Conv / Lev1 / Lev2 / Lev3 / Lev4 for an issue-8
processor, simulates each binary, and checks the results against NumPy.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.frontend import ArrayDecl, Kernel, Ty, aref, assign, do, var
from repro.harness import compile_kernel, run_compiled_kernel
from repro.ir import format_block
from repro.machine import issue1, issue8
from repro.pipeline import Level

N = 128


def build_kernel() -> Kernel:
    i = var("i")
    return Kernel(
        "vadd",
        arrays={name: ArrayDecl(Ty.FP, (N,)) for name in "ABC"},
        scalars={},
        body=[
            do("i", 1, N,
               [assign(aref("C", i), aref("A", i) + aref("B", i))],
               kind="doall"),
        ],
    )


def main() -> None:
    rng = np.random.default_rng(0)
    A = rng.integers(1, 9, N).astype(float)
    B = rng.integers(1, 9, N).astype(float)

    # the speedup baseline: issue-1 processor, conventional optimization
    base = run_compiled_kernel(
        compile_kernel(build_kernel(), Level.CONV, issue1()),
        arrays={"A": A, "B": B, "C": np.zeros(N)},
    )
    print(f"baseline (issue-1, Conv): {base.cycles} cycles "
          f"({base.cycles / N:.2f} per iteration)\n")

    print(f"{'level':<6}{'cycles':>8}{'cyc/iter':>10}{'speedup':>9}  notes")
    for level in Level:
        ck = compile_kernel(build_kernel(), level, issue8())
        out = run_compiled_kernel(
            ck, arrays={"A": A.copy(), "B": B.copy(), "C": np.zeros(N)}
        )
        assert np.array_equal(out.arrays["C"], A + B), "wrong result!"
        rep = ck.report
        notes = []
        if rep.unroll_factor > 1:
            notes.append(f"unroll x{rep.unroll_factor}")
        if rep.rewrites("rename"):
            notes.append(f"{rep.rewrites('rename')} regs renamed")
        if rep.rewrites("induction"):
            notes.append(
                f"{rep.rewrites('induction')} induction chains expanded")
        if rep.rewrites("combine"):
            notes.append(f"{rep.rewrites('combine')} ops combined")
        print(f"{level.label:<6}{out.cycles:>8}{out.cycles / N:>10.2f}"
              f"{base.cycles / out.cycles:>9.2f}  {', '.join(notes)}")

    # peek at the compiled inner loop at Conv: this is Figure 1(b) of the
    # paper, produced from naive lowering by the classical optimizer
    ck = compile_kernel(build_kernel(), Level.CONV, issue8())
    print("\nConv inner loop (compare with the paper's Figure 1b):")
    print(format_block(ck.sb.body))


if __name__ == "__main__":
    main()

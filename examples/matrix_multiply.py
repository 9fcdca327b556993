"""Matrix multiply: accumulator variable expansion in action (paper Fig. 3).

The inner loop of matrix multiplication is a dot-product reduction; its
accumulation chain is the critical path, so unrolling + renaming alone
barely help.  Accumulator expansion splits the accumulator into one
temporary per unrolled iteration and sums them at the loop exit —
reassociating the reduction to run the adds in parallel.

Run:  python examples/matrix_multiply.py
"""

import numpy as np

from repro.frontend import ArrayDecl, Kernel, Ty, aref, assign, do, var
from repro.harness import compile_kernel, run_compiled_kernel
from repro.ir import format_block
from repro.machine import issue1, issue8
from repro.pipeline import Level

M = K = Np = 12  # C[M,N] = A[M,K] @ B[K,N]


def build_kernel() -> Kernel:
    i, j, k = var("i"), var("j"), var("k")
    s = var("s")
    return Kernel(
        "matmul",
        arrays={
            "A": ArrayDecl(Ty.FP, (M, K)),
            "B": ArrayDecl(Ty.FP, (K, Np)),
            "C": ArrayDecl(Ty.FP, (M, Np)),
        },
        scalars={"s": Ty.FP},
        body=[
            do("j", 1, Np, [
                do("i", 1, M, [
                    assign(s, 0.0),
                    # the reduction: KAP would classify this inner loop as
                    # serial (a recurrence on s)
                    do("k", 1, K,
                       [assign(s, s + aref("A", i, k) * aref("B", k, j))],
                       kind="serial"),
                    assign(aref("C", i, j), s),
                ]),
            ]),
        ],
    )


def main() -> None:
    rng = np.random.default_rng(1)
    A = rng.integers(1, 6, (M, K)).astype(float)
    B = rng.integers(1, 6, (K, Np)).astype(float)

    base = run_compiled_kernel(
        compile_kernel(build_kernel(), Level.CONV, issue1()),
        arrays={"A": A, "B": B, "C": np.zeros((M, Np))},
    )
    print(f"baseline (issue-1, Conv): {base.cycles} cycles")

    for level in (Level.CONV, Level.LEV2, Level.LEV4):
        ck = compile_kernel(build_kernel(), level, issue8())
        out = run_compiled_kernel(
            ck, arrays={"A": A.copy(), "B": B.copy(), "C": np.zeros((M, Np))}
        )
        assert np.allclose(out.arrays["C"], A @ B)
        extra = ""
        if ck.report.rewrites("accumulate"):
            extra = (f"  <- {ck.report.rewrites('accumulate')} "
                     "accumulator(s) expanded")
        print(f"{level.label}: {out.cycles:6d} cycles on issue-8 "
              f"(speedup {base.cycles / out.cycles:.2f}){extra}")

    ck = compile_kernel(build_kernel(), Level.LEV4, issue8())
    print("\nLev4 inner loop (note the independent temporary accumulators,")
    print("summed after the loop — the paper's Figure 3d):")
    print(format_block(ck.sb.body))
    assert ck.sb.exit_block is not None
    print(format_block(ck.sb.exit_block))


if __name__ == "__main__":
    main()

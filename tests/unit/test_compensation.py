"""Targeted semantics tests for superblock side-exit compensation.

The expansions and renaming rewrite only the superblock; when a side exit
is taken mid-pass, stub blocks must re-materialize the original register
state, and off-trace rejoins must re-establish the expanded state.  These
tests force the off-trace paths to execute *frequently* (adversarial
branch probabilities vs. data) and check exact results.
"""

import numpy as np
import pytest

from repro.frontend import ArrayDecl, Kernel, Ty, aref, assign, do, if_, var
from repro.harness import compile_kernel, run_compiled_kernel
from repro.machine import MachineConfig, issue8
from repro.pipeline import Level

N = 29  # not a multiple of any unroll factor


def run(kernel, arrays, scalars, level, width=8, unroll=None):
    ck = compile_kernel(kernel, level, MachineConfig(issue_width=width),
                        unroll_factor=unroll)
    return ck, run_compiled_kernel(
        ck, arrays={k: np.array(v, dtype=float) for k, v in arrays.items()},
        scalars=scalars,
    )


class TestRenamingCompensation:
    def make(self, p_then):
        i, t = var("i"), var("t")
        return Kernel(
            "k",
            arrays={"A": ArrayDecl(Ty.FP, (N,)), "B": ArrayDecl(Ty.FP, (N,))},
            scalars={"t": Ty.FP, "s": Ty.FP},
            outputs=["s"],
            body=[do("i", 1, N, [
                assign(t, aref("A", i)),
                # the trace believes the update is likely; the data makes
                # the side exit fire every other iteration
                if_(t > 4.0, [assign(var("s"), var("s") + t)], p_then=0.9),
                assign(aref("B", i), t * 2.0),
            ], kind="serial")],
        )

    @pytest.mark.parametrize("level", [Level.LEV2, Level.LEV3])
    def test_frequent_side_exits_stay_correct(self, level):
        A = np.array([float(2 + 6 * (k % 2)) for k in range(N)])  # 2,8,2,8...
        _, out = run(self.make(0.9), {"A": A, "B": np.zeros(N)},
                     {"s": 0.0}, level)
        assert np.isclose(out.scalars["s"], A[A > 4.0].sum())
        assert np.array_equal(out.arrays["B"], A * 2.0)


class TestAccumulatorCompensation:
    def make(self):
        i, t = var("i"), var("t")
        return Kernel(
            "k",
            arrays={"A": ArrayDecl(Ty.FP, (N,))},
            scalars={"t": Ty.FP, "s": Ty.FP},
            outputs=["s"],
            body=[do("i", 1, N, [
                assign(t, aref("A", i)),
                assign(var("s"), var("s") + t),     # expanded accumulator
                if_(t > 90.0, [assign(var("s"), var("s") * 0.0)],
                    p_then=0.05),                  # rare reset, off-trace
            ], kind="serial")],
        )

    def test_offtrace_reads_combined_accumulator(self):
        """The off-trace reset *reads and writes* the accumulator: the
        side-exit stub must combine the temporaries first, and the rejoin
        must re-split them."""
        rng = np.random.default_rng(5)
        A = rng.integers(1, 9, N).astype(float)
        A[10] = 99.0  # one reset fires mid-loop
        expect = 0.0
        for v in A:
            expect += v
            if v > 90.0:
                expect = 0.0
        ck, out = run(self.make(), {"A": A}, {"s": 0.0}, Level.LEV4)
        assert np.isclose(out.scalars["s"], expect)

    def test_every_unroll_factor(self):
        rng = np.random.default_rng(6)
        A = rng.integers(1, 9, N).astype(float)
        for unroll in (2, 3, 5, 8):
            ck, out = run(self.make(), {"A": A}, {"s": 0.0},
                          Level.LEV4, unroll=unroll)
            assert np.isclose(out.scalars["s"], A.sum()), unroll


class TestSearchCompensation:
    def make(self, p_then=0.8):
        i, t = var("i"), var("t")
        return Kernel(
            "k",
            arrays={"A": ArrayDecl(Ty.FP, (N,))},
            scalars={"t": Ty.FP, "m": Ty.FP},
            outputs=["m"],
            body=[do("i", 1, N, [
                assign(t, aref("A", i)),
                if_(t < var("m"), [assign(var("m"), t)], p_then=p_then),
            ], kind="serial")],
        )

    def test_min_with_expansion_and_hostile_data(self):
        """Ascending data: every guard takes the side exit, so the combine
        stub runs constantly."""
        A = np.arange(10.0, 10.0 + N)
        ck, out = run(self.make(), {"A": A}, {"m": 1e9}, Level.LEV4)
        assert out.scalars["m"] == 10.0

    def test_min_descending_data_expansion_fires(self):
        A = np.arange(float(N), 0.0, -1.0)
        ck, out = run(self.make(), {"A": A}, {"m": 1e9}, Level.LEV4)
        assert ck.report.rewrites("search") == 1
        assert out.scalars["m"] == 1.0

    def test_min_alternating(self):
        rng = np.random.default_rng(9)
        A = rng.permutation(np.arange(1.0, N + 1.0))
        for level in (Level.LEV2, Level.LEV4):
            _, out = run(self.make(), {"A": A}, {"m": 1e9}, level)
            assert out.scalars["m"] == 1.0, level


class TestInductionRejoin:
    def test_expanded_ivs_survive_offtrace_rejoins(self):
        """Array writes use expanded induction pointers; a frequent
        conditional sends control off-trace, where the original pointers
        advance and the rejoin must re-stagger the temporaries."""
        i, t = var("i"), var("t")
        k = Kernel(
            "k",
            arrays={"A": ArrayDecl(Ty.FP, (N,)), "B": ArrayDecl(Ty.FP, (N,))},
            scalars={"t": Ty.FP, "c": Ty.FP},
            body=[do("i", 1, N, [
                assign(t, aref("A", i)),
                if_(t > var("c"), [assign(t, var("c"))], p_then=0.2),
                assign(aref("B", i), t),
            ], kind="doall")],
        )
        rng = np.random.default_rng(11)
        A = rng.integers(1, 9, N).astype(float)
        ck, out = run(k, {"A": A, "B": np.zeros(N)}, {"c": 5.0}, Level.LEV4)
        assert np.array_equal(out.arrays["B"], np.minimum(A, 5.0))

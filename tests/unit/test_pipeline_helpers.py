"""Tests for pipeline orchestration helpers: transformation levels,
prologue regions, protected registers, and figure-text generation."""

import numpy as np
import pytest

from repro.frontend import ArrayDecl, Kernel, Ty, aref, assign, do, var
from repro.harness import compile_kernel, run_compiled_kernel
from repro.machine import MachineConfig, issue8
from repro.pipeline import (
    Level,
    apply_ilp_transforms,
    prologue_regions,
    protected_registers,
)


def vadd(n=24, kind="doall"):
    i = var("i")
    return Kernel(
        "k",
        arrays={x: ArrayDecl(Ty.FP, (n,)) for x in "ABC"},
        scalars={},
        body=[do("i", 1, n, [assign(aref("C", i), aref("A", i) + aref("B", i))],
                 kind=kind)],
    )


class TestLevels:
    def test_labels(self):
        assert [l.label for l in Level] == [
            "Conv", "Lev1", "Lev2", "Lev3", "Lev4", "Lev5"
        ]

    def test_cumulative_ordering(self):
        assert (Level.CONV < Level.LEV1 < Level.LEV2 < Level.LEV3
                < Level.LEV4 < Level.LEV5)

    def test_reports_accumulate_by_level(self):
        reports = {}
        for level in Level:
            ck = compile_kernel(vadd(), level, issue8())
            reports[level] = ck.report
        assert reports[Level.CONV].unroll_factor == 1
        assert reports[Level.LEV1].unroll_factor > 1
        assert reports[Level.LEV1].rewrites("rename") == 0
        assert reports[Level.LEV2].rewrites("rename") > 0
        assert reports[Level.LEV4].rewrites("induction") >= 1


class TestPrologueRegions:
    def test_straight_only_when_count_divides(self):
        # 24 iterations unroll 8: static preconditioning, no remainder loop
        ck = compile_kernel(vadd(24), Level.LEV2, issue8())
        regions = prologue_regions(ck.func, ck.sb)
        assert all(kind == "straight" for kind, _ in regions)

    def test_loop_region_for_remainder(self):
        # 22 iterations: a precondition loop sits between the relation-
        # establishing preheader and the unrolled body
        ck = compile_kernel(vadd(22), Level.LEV2, issue8())
        regions = prologue_regions(ck.func, ck.sb)
        kinds = [k for k, _ in regions]
        assert "loop" in kinds
        # and the loop region is not first or last (straight code surrounds it)
        assert kinds[0] == "straight"

    def test_regions_cover_dominating_instrs(self):
        ck = compile_kernel(vadd(22), Level.LEV2, issue8())
        regions = prologue_regions(ck.func, ck.sb)
        total = sum(len(instrs) for _, instrs in regions)
        assert total > 0


class TestProtectedRegisters:
    def test_live_around_values_protected(self):
        ck = compile_kernel(vadd(24), Level.LEV2, issue8())
        prot = protected_registers(ck.sb, ck.lowered.live_out_exit)
        # the loop-carried pointer(s) must be protected
        carried = {
            ins.dest for ins in ck.sb.body.instrs
            if ins.dest is not None
        } & prot
        assert carried


NESTED_PRECONDITION = """
function t:
entry:
  r1i = 0
POUT:
  r2i = 0
PIN:
  r2i = r2i + 1
  blt (r2i r9i) PIN
PTAIL:
  r1i = r1i + 1
  blt (r1i r9i) POUT
mid:
  r3i = 0
LOOP:
  r3i = r3i + 1
  blt (r3i r9i) LOOP
exitb:
  halt
"""

SIDE_EXIT = """
function t:
pre:
  r1i = 0
LOOP:
  r2i = r1i + 1
  blt (r2i r9i) SIDE
  r1i = r2i + 0
  blt (r1i r9i) LOOP
exitb:
  halt
SIDE:
  r5i = 1
  r6i = r5i + 1
  halt
"""


def _superblock_over(func, header, preheader=None, exit_block=None):
    """A hand-built SuperblockLoop wrapper for edge-case CFGs."""
    from repro.ir import Block
    from repro.schedule.superblock import SuperblockLoop

    bm = func.block_map()
    return SuperblockLoop(
        func=func,
        body=bm[header],
        preheader=bm[preheader] if preheader else Block("pre"),
        counted=None,
        exit_block=bm[exit_block] if exit_block else None,
    )


class TestPrologueRegionEdgeCases:
    def test_header_first_layout_has_no_regions(self):
        # a loop whose header is the entry block: nothing dominates it
        # in layout, so the prologue is empty (not an error)
        from repro.ir import parse_function

        f = parse_function(
            "function t:\nLOOP:\n  r1i = r1i + 1\n  blt (r1i r9i) LOOP\n"
            "exitb:\n  halt\n"
        )
        sb = _superblock_over(f, "LOOP")
        assert prologue_regions(f, sb) == []

    def test_nested_precondition_loops_keyed_by_innermost_header(self):
        # entry -> outer precondition loop (with a nested inner loop)
        # -> mid -> LOOP.  The inner loop's block must form its own
        # "loop" region (keyed by the innermost header), not be merged
        # with the surrounding outer-loop regions.
        from repro.ir import parse_function

        f = parse_function(NESTED_PRECONDITION)
        sb = _superblock_over(f, "LOOP", exit_block="exitb")
        regions = prologue_regions(f, sb)
        kinds = [k for k, _ in regions]
        # POUT / PIN / PTAIL are three distinct loop regions: PIN's key
        # (the innermost header) differs from POUT's, so no merging
        assert kinds == ["straight", "loop", "loop", "loop", "straight"]
        # every dominating instruction before the header is covered
        assert sum(len(instrs) for _, instrs in regions) == 7

    def test_side_exit_target_with_empty_live_in(self):
        # the side-exit target defines everything it uses, so it
        # contributes nothing to the protected set — only values live
        # around the backedge / at the natural exit are protected
        from repro.ir import parse_function

        f = parse_function(SIDE_EXIT)
        sb = _superblock_over(f, "LOOP", preheader="pre", exit_block="exitb")
        assert sb.side_exit_positions() == [1]
        prot = {str(r) for r in protected_registers(sb, set())}
        assert "r1i" in prot          # live around the backedge
        assert "r9i" in prot          # branch bound, live at the header
        assert "r5i" not in prot      # local to the side-exit target
        assert "r6i" not in prot
        assert "r2i" not in prot      # defined before use in the body


class TestFigureTexts:
    def test_all_artifacts_present(self):
        from repro.experiments.run_all import figure_texts
        from repro.experiments.sweep import load_sweep

        data = load_sweep()
        if data is None:
            pytest.skip("no cached sweep (run python -m repro.experiments.run_all)")
        texts = figure_texts(data)
        expected = {
            "table1_latencies", "table2_corpus",
            "fig08_speedup_issue2", "fig09_speedup_issue4",
            "fig10_speedup_issue8", "fig11_regusage_issue8",
            "fig12_speedup_doall", "fig13_regusage_doall",
            "fig14_speedup_nondoall", "fig15_regusage_nondoall",
            "headline_claims",
        }
        assert expected <= set(texts)
        for text in texts.values():
            assert text.strip()


class TestUnrollFactorOverride:
    @pytest.mark.parametrize("factor", [2, 5, 7])
    def test_explicit_factor_respected_and_correct(self, factor):
        rng = np.random.default_rng(3)
        n = 23
        A = rng.integers(1, 9, n).astype(float)
        B = rng.integers(1, 9, n).astype(float)
        ck = compile_kernel(vadd(n), Level.LEV2, issue8(), unroll_factor=factor)
        assert ck.report.unroll_factor == factor
        out = run_compiled_kernel(ck, arrays={"A": A, "B": B, "C": np.zeros(n)})
        assert np.array_equal(out.arrays["C"], A + B)

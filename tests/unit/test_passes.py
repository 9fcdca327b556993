"""Unit tests for the unified pass manager (:mod:`repro.passes`).

Covers the registry invariants, level gating, ``--disable-pass``
validation and semantics, fixpoint accounting, PassStats recording,
the PipelineReport compatibility properties, and --print-after dumps.
"""

import io

import numpy as np
import pytest

from repro.frontend import ArrayDecl, Kernel, Ty, aref, assign, do, var
from repro.frontend.lower import lower_kernel
from repro.harness import compile_kernel, run_compiled_kernel
from repro.machine import MachineConfig, issue8
from repro.opt.driver import run_conv
from repro.passes import (
    PassManager,
    PassOptions,
    PipelineContext,
    PipelineReport,
)
from repro.passes.stats import PassStats
from repro.passes.registry import (
    DEFAULT_PHASES,
    PHASE_ORDER,
    ablatable_passes,
    all_passes,
    get_pass,
)
from repro.pipeline import Level
from repro.workloads import get_workload


def vadd(n=24, kind="doall"):
    i = var("i")
    return Kernel(
        "k",
        arrays={x: ArrayDecl(Ty.FP, (n,)) for x in "ABC"},
        scalars={},
        body=[do("i", 1, n, [assign(aref("C", i), aref("A", i) + aref("B", i))],
                 kind=kind)],
    )


class TestRegistry:
    def test_phase_order_matches_registry(self):
        assert tuple(PHASE_ORDER) == ("conv", "ilp", "cleanup", "schedule")
        assert set(PHASE_ORDER) == set(DEFAULT_PHASES)

    def test_pass_names_unique(self):
        names = [p.name for p in all_passes()]
        assert len(names) == len(set(names))

    def test_pass_phase_matches_owner(self):
        for phase_name, phase in DEFAULT_PHASES.items():
            for p in phase.passes:
                assert p.phase == phase_name

    def test_get_pass(self):
        assert get_pass("rename").phase == "ilp"
        with pytest.raises(KeyError):
            get_pass("nope")

    def test_structural_passes_not_ablatable(self):
        names = {p.name for p in ablatable_passes()}
        assert "superblock" not in names and "listsched" not in names
        assert "dce" in names and "rename" in names

    def test_ablatable_respects_level_gate(self):
        lev1 = {p.name for p in ablatable_passes(Level.LEV1)}
        lev4 = {p.name for p in ablatable_passes(Level.LEV4)}
        assert "treeheight" not in lev1 and "accumulate" not in lev1
        assert "treeheight" in lev4 and "accumulate" in lev4
        assert "unroll" in lev1

    def test_conv_phase_is_fixpoint(self):
        conv = DEFAULT_PHASES["conv"]
        assert conv.fixpoint and conv.max_rounds == 10
        cleanup = DEFAULT_PHASES["cleanup"]
        assert cleanup.fixpoint and cleanup.max_rounds == 4
        assert DEFAULT_PHASES["ilp"].max_rounds == 1


class TestOptionsValidation:
    @pytest.mark.parametrize("name", [
        "nosuch", "copyprop-global", "cleanup-branch-fold",
        "cleanup-unreachable"])
    def test_unknown_disable_rejected(self, name):
        with pytest.raises(ValueError, match="unknown pass"):
            PassManager(PassOptions(disable=(name,)))

    def test_unknown_print_after_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            PassManager(PassOptions(print_after=("nosuch",)))

    @pytest.mark.parametrize("name", ["superblock", "listsched"])
    def test_structural_disable_refused(self, name):
        with pytest.raises(ValueError, match="structural"):
            PassManager(PassOptions(disable=(name,)))

    def test_options_key_is_sorted_dedup(self):
        opts = PassOptions(disable=("rename", "dce", "rename"))
        assert opts.key == ("dce", "rename")
        # printing flags do not change the result-relevant identity
        assert PassOptions(print_changed=True).key == ()


class TestGatingAndStats:
    def test_level_gates_recorded_in_stats(self):
        names_at = {}
        for level in (Level.CONV, Level.LEV1, Level.LEV2, Level.LEV4):
            ck = compile_kernel(vadd(), level, issue8())
            names_at[level] = {s.name for s in ck.report.stats}
        assert "unroll" not in names_at[Level.CONV]
        assert "unroll" in names_at[Level.LEV1]
        assert "rename" not in names_at[Level.LEV1]
        assert "rename" in names_at[Level.LEV2]
        assert "induction" in names_at[Level.LEV4]
        # structural passes run at every level
        for level in names_at:
            assert "superblock" in names_at[level]
            assert "listsched" in names_at[level]

    def test_stats_rows_are_complete(self):
        ck = compile_kernel(vadd(), Level.LEV4, issue8())
        rep = ck.report
        assert rep.stats, "no PassStats recorded"
        for s in rep.stats:
            assert s.phase in PHASE_ORDER
            assert s.round >= 0 and s.rewrites >= 0 and s.seconds >= 0.0
            assert s.instr_delta == s.instrs_after - s.instrs_before
        # all four phases ran and recorded their round counts
        assert set(rep.phase_rounds) == set(PHASE_ORDER)
        # phases appear in pipeline order in the stats stream
        order = [PHASE_ORDER.index(s.phase) for s in rep.stats]
        assert order == sorted(order)

    def test_conv_fixpoint_round_accounting(self):
        lk = lower_kernel(vadd())
        rep = run_conv(lk.func, lk.counted, lk.live_out_exit)
        # ran to fixpoint: >= 2 rounds, last round made zero rewrites
        assert rep.rounds >= 2
        last = max(s.round for s in rep.phase_stats("conv"))
        assert sum(s.rewrites for s in rep.phase_stats("conv")
                   if s.round == last) == 0
        # a second run over the already-optimized code is a single
        # zero-change round (idempotence)
        rep2 = run_conv(lk.func, lk.counted, lk.live_out_exit)
        assert rep2.rounds == 1

    def test_report_properties_map_to_pass_names(self):
        ck = compile_kernel(get_workload("dotprod").build(), Level.LEV4, issue8())
        rep = ck.report
        assert rep.renamed == rep.rewrites("rename") > 0
        assert rep.accumulators == rep.rewrites("accumulate") == 1
        assert rep.dead == rep.rewrites("dce")
        assert rep.copies == rep.rewrites("coalesce", "copyprop-local")
        assert rep.unroll_factor > 1
        assert rep.rounds == rep.phase_rounds["conv"]

    def test_pass_seconds_aggregation(self):
        ck = compile_kernel(vadd(), Level.LEV4, issue8())
        per_pass = ck.report.pass_seconds()
        assert per_pass["listsched"] == ck.report.seconds("listsched") > 0.0
        sched_only = ck.report.pass_seconds(phases=("schedule",))
        assert set(sched_only) == {"listsched"}

    def test_fork_isolates_downstream_stats(self):
        rep = PipelineReport()
        rep.stats.append(PassStats("dce", "conv", 0, 3, 0.0, 10, 7))
        fork = rep.fork()
        fork.stats.append(PassStats("listsched", "schedule", 0, 5, 0.0, 7, 7))
        assert len(rep.stats) == 1 and len(fork.stats) == 2
        assert fork.dead == rep.dead == 3


class TestDisableSemantics:
    def test_disabled_pass_never_runs(self):
        opts = PassOptions(disable=("dce",))
        ck = compile_kernel(vadd(), Level.LEV2, issue8(), options=opts)
        assert "dce" not in {s.name for s in ck.report.stats}
        assert ck.report.disabled == ("dce",)

    def test_disabled_output_still_correct(self):
        rng = np.random.default_rng(7)
        n = 24
        A, B = rng.standard_normal(n), rng.standard_normal(n)
        full = compile_kernel(vadd(n), Level.LEV2, issue8())
        ablated = compile_kernel(vadd(n), Level.LEV2, issue8(),
                                 options=PassOptions(disable=("dce", "cse")))
        outs = []
        for ck in (full, ablated):
            out = run_compiled_kernel(
                ck, arrays={"A": A, "B": B, "C": np.zeros(n)})
            assert np.array_equal(out.arrays["C"], A + B)
            outs.append(out)
        # the ablated binary really is a different (bigger) program
        assert ablated.lowered.func.n_instrs() >= full.lowered.func.n_instrs()

    def test_disabling_accumulate_changes_schedule(self):
        w = get_workload("dotprod")
        machine = MachineConfig(issue_width=8)
        full = compile_kernel(w.build(), Level.LEV4, machine)
        ablated = compile_kernel(
            w.build(), Level.LEV4, machine,
            options=PassOptions(disable=("accumulate",)))
        assert full.report.accumulators == 1
        assert ablated.report.accumulators == 0
        # without expansion the fp reduction serializes the unrolled body
        assert ablated.inner_makespan > full.inner_makespan


class TestPrintAfter:
    def test_print_after_dumps_ir(self):
        lk = lower_kernel(vadd())
        stream = io.StringIO()
        ctx = PipelineContext(func=lk.func, counted_map=lk.counted,
                              live_out_exit=lk.live_out_exit)
        PassManager(PassOptions(print_after=("dce",)), stream=stream).run_phase(
            "conv", ctx)
        text = stream.getvalue()
        assert "; IR after dce [conv]" in text
        assert f"function {lk.func.name}" in text

    def test_print_changed_only_dumps_rewriting_passes(self):
        lk = lower_kernel(vadd())
        stream = io.StringIO()
        ctx = PipelineContext(func=lk.func, counted_map=lk.counted,
                              live_out_exit=lk.live_out_exit)
        PassManager(PassOptions(print_changed=True), stream=stream).run_phase(
            "conv", ctx)
        dumped = [l for l in stream.getvalue().splitlines()
                  if l.startswith("; IR after")]
        assert dumped
        for line in dumped:
            assert "(0 rewrites)" not in line

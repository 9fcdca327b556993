"""Unit tests for Lev5 superword-level parallelism (pack merging).

The IR-level tests follow the input-IR -> expected-IR idiom: a hand
written superblock goes through :func:`vectorize_superblock` and the
printed result is compared against the expected vector code verbatim
(the printer/parser round-trip pins the concrete syntax too).  The
pipeline-level tests pin the pass's contract with the rest of the
stack: disabling ``slp`` makes Lev5 coincide with Lev4, and the
reassociating reduction shape is flagged so the oracle compares it
within tolerance.
"""

import numpy as np
import pytest

from repro.harness import compile_kernel, run_compiled_kernel
from repro.ir import (
    format_function,
    fp_reg,
    parse_function,
    verify_function,
)
from repro.ir.instructions import Kind
from repro.machine import MachineConfig, unlimited
from repro.passes import PassOptions
from repro.pipeline import Level
from repro.schedule.superblock import SuperblockLoop
from repro.sim import Memory, simulate
from repro.transforms.slp import vectorize_superblock
from repro.workloads import check_run, get_workload


def make_sb(src, header="L", preheader="entry", exit_block="exit"):
    f = parse_function(src)
    bm = f.block_map()
    sb = SuperblockLoop(
        func=f,
        body=bm[header],
        preheader=bm[preheader],
        counted=None,
        exit_block=bm[exit_block],
    )
    return f, sb


def body_text(f, label="L"):
    return "\n".join(
        format_function(f).split(f"{label}:\n", 1)[1].splitlines()
    )


# an unrolled-by-4 scaled copy: four isomorphic load/multiply/store
# lanes on adjacent words, each lane with its own stepped pointer
SCALE4 = """
function t:
entry:
  r1i = 0
  r2i = r1i + 4
  r3i = r1i + 8
  r4i = r1i + 12
L:
  r10f = MEM(A+r1i)
  r11f = MEM(A+r2i)
  r12f = MEM(A+r3i)
  r13f = MEM(A+r4i)
  r14f = r10f * r20f
  r15f = r11f * r20f
  r16f = r12f * r20f
  r17f = r13f * r20f
  MEM(B+r1i) = r14f
  MEM(B+r2i) = r15f
  MEM(B+r3i) = r16f
  MEM(B+r4i) = r17f
  r1i = r1i + 16
  r2i = r2i + 16
  r3i = r3i + 16
  r4i = r4i + 16
  blt (r1i r9i) L
exit:
  halt
"""

SCALE4_PACKED = """\
function t:
entry:
  r1i = 0
  r2i = r1i + 4
  r3i = r1i + 8
  r4i = r1i + 12
L:
  r1vf = vldf.4(A, r1i)
  r2vf = vpackf.4(r20f, r20f, r20f, r20f)
  r3vf = vfmul.4(r1vf, r2vf)
  vstf.4(B, r1i, r3vf)
  r1i = r1i + 16
  r2i = r2i + 16
  r3i = r3i + 16
  r4i = r4i + 16
  blt (r1i r9i) L
exit:
  halt"""


class TestStorePacking:
    def test_packs_to_expected_ir(self):
        f, sb = make_sb(SCALE4)
        n, reassoc = vectorize_superblock(sb, MachineConfig(issue_width=8),
                                          set())
        assert (n, reassoc) == (1, 0)
        assert format_function(f) == SCALE4_PACKED
        verify_function(f)

    def test_packed_ir_round_trips_through_parser(self):
        f, sb = make_sb(SCALE4)
        vectorize_superblock(sb, MachineConfig(issue_width=8), set())
        text = format_function(f)
        again = parse_function(text)
        verify_function(again)
        assert format_function(again) == text

    def test_packed_code_computes_the_same_result(self):
        f, sb = make_sb(SCALE4)
        vectorize_superblock(sb, MachineConfig(issue_width=8), set())
        n = 24
        mem = Memory()
        A = np.arange(1.0, n + 1)
        mem.bind_array("A", A)
        mem.bind_array("B", np.zeros(n))
        simulate(f, unlimited(), mem, iregs={1: 0, 9: 4 * n},
                 fregs={20: 3.0})
        assert np.array_equal(mem.read_array("B", (n,)), A * 3.0)


class TestRefusals:
    def test_strided_stores_are_not_seeds(self):
        # every address stepped by 8 bytes: no adjacent word run exists
        src = (SCALE4
               .replace("r2i = r1i + 4", "r2i = r1i + 8")
               .replace("r3i = r1i + 8", "r3i = r1i + 16")
               .replace("r4i = r1i + 12", "r4i = r1i + 24"))
        f, sb = make_sb(src)
        before = format_function(f)
        assert vectorize_superblock(sb, MachineConfig(issue_width=8),
                                    set()) == (0, 0)
        assert format_function(f) == before

    def test_shared_loads_defined_inside_span_refuse(self):
        # two interleaved streams sharing their loads: the loads are
        # double-used (not packable) and lanes 1..3 of the fallback
        # gather are defined after the insertion point, so both
        # components must be refused rather than miscompiled
        src = """
function t:
entry:
  r1i = 0
  r2i = r1i + 4
L:
  r10f = MEM(A+r1i)
  r11f = MEM(B+r1i)
  r12f = r10f + r11f
  MEM(F+r1i) = r12f
  r13f = r10f - r11f
  MEM(G+r1i) = r13f
  r14f = MEM(A+r2i)
  r15f = MEM(B+r2i)
  r16f = r14f + r15f
  MEM(F+r2i) = r16f
  r17f = r14f - r15f
  MEM(G+r2i) = r17f
  r1i = r1i + 8
  r2i = r2i + 8
  blt (r1i r9i) L
exit:
  halt
"""
        f, sb = make_sb(src)
        before = format_function(f)
        machine = MachineConfig(issue_width=8, vector_lanes=2)
        assert vectorize_superblock(sb, machine, set()) == (0, 0)
        assert format_function(f) == before

    def test_cost_model_declines_under_hostile_latencies(self):
        # the same body that packs by default must be refused when the
        # vector ops are priced above the scalar code they replace
        f, sb = make_sb(SCALE4)
        m = MachineConfig(issue_width=8)
        hostile = MachineConfig(
            issue_width=8,
            latencies={**m.latencies, Kind.VEC_LOAD: 40,
                       Kind.VEC_FMUL: 40, Kind.VEC_STORE: 40},
        )
        before = format_function(f)
        assert vectorize_superblock(sb, hostile, set()) == (0, 0)
        assert format_function(f) == before

    def test_scalar_machine_disables_the_pass(self):
        f, sb = make_sb(SCALE4)
        m = MachineConfig(issue_width=8, vector_lanes=1)
        before = format_function(f)
        assert vectorize_superblock(sb, m, set()) == (0, 0)
        assert format_function(f) == before


REDUCE4 = """
function t:
entry:
  r1i = 0
  r2i = r1i + 4
  r3i = r1i + 8
  r4i = r1i + 12
L:
  r10f = MEM(A+r1i)
  r11f = MEM(A+r2i)
  r12f = MEM(A+r3i)
  r13f = MEM(A+r4i)
  r20f = r20f + r10f
  r21f = r21f + r11f
  r22f = r22f + r12f
  r23f = r23f + r13f
  r1i = r1i + 16
  r2i = r2i + 16
  r3i = r3i + 16
  r4i = r4i + 16
  blt (r1i r9i) L
exit:
  r24f = r20f + r21f
  r25f = r22f + r23f
  r26f = r24f + r25f
  halt
"""

CHAIN4 = REDUCE4.replace(
    """  r20f = r20f + r10f
  r21f = r21f + r11f
  r22f = r22f + r12f
  r23f = r23f + r13f""",
    """  r20f = r20f + r10f
  r20f = r20f + r11f
  r20f = r20f + r12f
  r20f = r20f + r13f""",
).replace(
    """exit:
  r24f = r20f + r21f
  r25f = r22f + r23f
  r26f = r24f + r25f
  halt""",
    """exit:
  halt""",
)


class TestReductionPacking:
    def test_exact_expanded_accumulators_pack(self):
        # four independent accumulators (the accumulate-expansion shape):
        # each vector lane replays exactly one scalar chain, so this
        # variant is bit-identical and must NOT count as reassociating
        f, sb = make_sb(REDUCE4)
        n, reassoc = vectorize_superblock(sb, MachineConfig(issue_width=8),
                                          {fp_reg(26)})
        assert (n, reassoc) == (1, 0)
        text = format_function(f)
        assert "r1vf = vpackf.4(r20f, r21f, r22f, r23f)" in text
        assert "r1vf = vfadd.4(r1vf, r2vf)" in text
        assert "r20f = vextf.4(r1vf, 0)" in text
        assert "r23f = vextf.4(r1vf, 3)" in text
        # the scalar exit combine chain survives untouched
        assert "r26f = r24f + r25f" in text
        verify_function(f)

    def test_exact_reduction_semantics(self):
        f, sb = make_sb(REDUCE4)
        vectorize_superblock(sb, MachineConfig(issue_width=8), {fp_reg(26)})
        n = 24
        mem = Memory()
        A = np.arange(1.0, n + 1)
        mem.bind_array("A", A)
        res = simulate(f, unlimited(), mem, iregs={1: 0, 9: 4 * n},
                       fregs={20: 0.0, 21: 0.0, 22: 0.0, 23: 0.0})
        assert res.fregs[26] == A.sum()

    def test_serial_chain_packs_as_reassociating(self):
        # one serial self-update chain: lane 0 is seeded with the carried
        # value, the other lanes with the additive identity, and the exit
        # re-sums the lanes — fp association changes, so the component is
        # counted in the reassoc slot
        f, sb = make_sb(CHAIN4)
        n, reassoc = vectorize_superblock(sb, MachineConfig(issue_width=8),
                                          {fp_reg(20)})
        assert (n, reassoc) == (1, 1)
        text = format_function(f)
        assert "r1vf = vpackf.4(r20f, 0.0, 0.0, 0.0)" in text
        assert "r20f = r21f + r22f" in text
        verify_function(f)

    def test_serial_chain_semantics(self):
        f, sb = make_sb(CHAIN4)
        vectorize_superblock(sb, MachineConfig(issue_width=8), {fp_reg(20)})
        n = 24
        mem = Memory()
        A = np.arange(1.0, n + 1)
        mem.bind_array("A", A)
        res = simulate(f, unlimited(), mem, iregs={1: 0, 9: 4 * n},
                       fregs={20: 0.0})
        # integer-valued doubles: the re-associated sum is still exact
        assert res.fregs[20] == A.sum()

    def test_dead_self_updates_are_not_packed(self):
        # a self-increment that is live around the backedge but never
        # read after the loop is not a reduction; packing it would emit
        # pure overhead (and, historically, did)
        f, sb = make_sb(CHAIN4)
        # live_out_exit empty: r20f is dead after the loop
        assert vectorize_superblock(sb, MachineConfig(issue_width=8),
                                    set()) == (0, 0)


class TestPipelineIntegration:
    @pytest.mark.parametrize("name", ["add", "dotprod", "SDS-4"])
    def test_disable_slp_reduces_lev5_to_lev4(self, name):
        w = get_workload(name)
        machine = MachineConfig(issue_width=8)
        lev5_off = compile_kernel(w.build(), Level.LEV5, machine,
                                  options=PassOptions(disable=("slp",)))
        lev4 = compile_kernel(w.build(), Level.LEV4, machine)
        assert format_function(lev5_off.func) == format_function(lev4.func)

    def test_lev5_add_vectorizes_and_stays_exact(self):
        w = get_workload("add")
        ck = compile_kernel(w.build(), Level.LEV5,
                            MachineConfig(issue_width=8), check=True)
        assert ck.report.rewrites("slp") > 0
        assert ck.report.slp_reassoc == 0
        arrays, scalars = w.make_inputs(0)
        run = run_compiled_kernel(ck, arrays=arrays, scalars=scalars)
        check_run(w, run.arrays, run.scalars, arrays, scalars)

    def test_dotprod_reassoc_regression(self):
        # with accumulate disabled the dot-product reduction reaches the
        # packer as a serial chain: the reassociating variant must fire,
        # be reported (so the oracle relaxes to the workload tolerance),
        # and still produce a result within that tolerance
        w = get_workload("dotprod")
        ck = compile_kernel(
            w.build(), Level.LEV5, MachineConfig(issue_width=8),
            check=True, options=PassOptions(disable=("accumulate",)),
        )
        assert ck.report.slp_reassoc > 0
        arrays, scalars = w.make_inputs(0)
        run = run_compiled_kernel(ck, arrays=arrays, scalars=scalars)
        check_run(w, run.arrays, run.scalars, arrays, scalars)

    def test_report_forks_carry_reassoc_count(self):
        w = get_workload("dotprod")
        ck = compile_kernel(
            w.build(), Level.LEV5, MachineConfig(issue_width=8),
            options=PassOptions(disable=("accumulate",)),
        )
        assert ck.report.fork().slp_reassoc == ck.report.slp_reassoc

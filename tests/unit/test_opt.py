"""Unit tests for the classical ("Conv") optimizer passes."""

import numpy as np
import pytest

from repro.analysis.loopvars import CountedLoop
from repro.ir import (
    Imm,
    Op,
    format_function,
    fp_reg,
    int_reg,
    parse_function,
    verify_function,
)
from repro.machine import unlimited
from repro.opt.constprop import propagate_constants
from repro.opt.copyprop import coalesce_moves, propagate_copies_local
from repro.opt.cse import eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.driver import run_conv
from repro.opt.ivsr import strength_reduce_ivs
from repro.opt.licm import hoist_loop_invariants
from repro.opt.redundant_mem import eliminate_redundant_memory
from repro.sim import Memory, simulate


def f_of(text):
    return parse_function(text)


class TestConstProp:
    def test_fold_chain(self):
        f = f_of("function t:\nA:\n  r1i = 4\n  r2i = r1i + 6\n  r3i = r2i * 2\n  halt\n")
        propagate_constants(f)
        ins = f.get_block("A").instrs
        assert str(ins[2]) == "r3i = 20"

    def test_identities(self):
        f = f_of(
            "function t:\nA:\n  r2i = r1i + 0\n  r3i = r1i * 1\n  r4i = r1i * 0\n  halt\n"
        )
        propagate_constants(f)
        ins = f.get_block("A").instrs
        assert str(ins[0]) == "r2i = r1i"
        assert str(ins[1]) == "r3i = r1i"
        assert str(ins[2]) == "r4i = 0"

    def test_fp_folding(self):
        f = f_of("function t:\nA:\n  r1f = 2.0\n  r2f = r1f * 3.0\n  halt\n")
        propagate_constants(f)
        assert str(f.get_block("A").instrs[1]) == "r2f = 6.0"

    def test_division_by_zero_not_folded(self):
        f = f_of("function t:\nA:\n  r1i = 4\n  r2i = r1i / 0\n  halt\n")
        propagate_constants(f)
        assert f.get_block("A").instrs[1].op is Op.DIV


class TestCopyProp:
    def test_local(self):
        f = f_of("function t:\nA:\n  r2i = r1i\n  r3i = r2i + 1\n  halt\n")
        propagate_copies_local(f)
        assert str(f.get_block("A").instrs[1]) == "r3i = r1i + 1"

    def test_local_invalidation_on_redefine(self):
        f = f_of(
            "function t:\nA:\n  r2i = r1i\n  r1i = 5\n  r3i = r2i + 1\n  halt\n"
        )
        propagate_copies_local(f)
        # r2i's copy of r1i died when r1i was redefined
        assert str(f.get_block("A").instrs[2]) == "r3i = r2i + 1"

    def test_coalesce_restores_self_update(self):
        f = f_of(
            "function t:\nA:\n  r2f = r1f + r3f\n  r1f = r2f\n  halt\n"
        )
        assert coalesce_moves(f) == 1
        assert str(f.get_block("A").instrs[0]) == "r1f = r1f + r3f"

    def test_coalesce_blocked_by_interleaved_use(self):
        f = f_of(
            "function t:\nA:\n  r2f = r1f + r3f\n  r4f = r1f + r1f\n  r1f = r2f\n  halt\n"
        )
        # moving the write of r1f above the read of r1f would be wrong
        assert coalesce_moves(f) == 0


class TestCSE:
    def test_reuses_expression(self):
        f = f_of(
            "function t:\nA:\n  r3i = r1i + r2i\n  r4i = r1i + r2i\n  halt\n"
        )
        assert eliminate_common_subexpressions(f) == 1
        assert str(f.get_block("A").instrs[1]) == "r4i = r3i"

    def test_commutative_match(self):
        f = f_of(
            "function t:\nA:\n  r3i = r1i + r2i\n  r4i = r2i + r1i\n  halt\n"
        )
        assert eliminate_common_subexpressions(f) == 1

    def test_redefinition_invalidates(self):
        f = f_of(
            "function t:\nA:\n  r3i = r1i + r2i\n  r1i = 5\n  r4i = r1i + r2i\n  halt\n"
        )
        assert eliminate_common_subexpressions(f) == 0

    def test_protected_instruction_skipped(self):
        f = f_of(
            "function t:\nA:\n  r3i = r1i + 1\n  r1i = r1i + 1\n  halt\n"
        )
        inc = f.get_block("A").instrs[1]
        assert eliminate_common_subexpressions(f, {id(inc)}) == 0


class TestDCE:
    def test_removes_dead_chain(self):
        f = f_of(
            "function t:\nA:\n  r1i = 1\n  r2i = r1i + 1\n  MEM(A) = r3i\n  halt\n"
        )
        assert eliminate_dead_code(f) == 2
        assert len(f.get_block("A").instrs) == 2

    def test_keeps_live_out(self):
        f = f_of("function t:\nA:\n  r1i = 1\n  halt\n")
        assert eliminate_dead_code(f, {int_reg(1)}) == 0

    def test_keeps_store_feeding_chain(self):
        f = f_of(
            "function t:\nA:\n  r1i = 1\n  MEM(A) = r1i\n  halt\n"
        )
        assert eliminate_dead_code(f) == 0


class TestLICM:
    def test_hoists_invariant(self):
        f = f_of(
            """
function t:
pre:
L:
  r3i = r1i * r2i
  r4i = r4i + r3i
  r5i = r5i + 1
  blt (r5i r6i) L
exit:
  halt
"""
        )
        n = hoist_loop_invariants(f)
        assert n == 1
        assert any(ins.op is Op.MUL for ins in f.get_block("pre").instrs)

    def test_does_not_hoist_variant(self):
        f = f_of(
            """
function t:
pre:
L:
  r3i = r5i * r2i
  r5i = r5i + 1
  blt (r5i r6i) L
exit:
  halt
"""
        )
        assert hoist_loop_invariants(f) == 0

    def test_does_not_hoist_load_past_store(self):
        f = f_of(
            """
function t:
pre:
L:
  r3f = MEM(A+r2i)
  MEM(A+r5i) = r3f
  r5i = r5i + 4
  blt (r5i r6i) L
exit:
  halt
"""
        )
        assert hoist_loop_invariants(f) == 0


class TestRedundantMem:
    def test_load_after_load(self):
        f = f_of(
            "function t:\nA:\n  r1f = MEM(A+r2i)\n  r3f = MEM(A+r2i)\n  halt\n"
        )
        assert eliminate_redundant_memory(f) == 1
        assert str(f.get_block("A").instrs[1]) == "r3f = r1f"

    def test_load_after_store_forwards(self):
        f = f_of(
            "function t:\nA:\n  MEM(A+r2i) = r1f\n  r3f = MEM(A+r2i)\n  halt\n"
        )
        assert eliminate_redundant_memory(f) == 1
        assert str(f.get_block("A").instrs[1]) == "r3f = r1f"

    def test_intervening_store_blocks(self):
        f = f_of(
            """
function t:
A:
  r1f = MEM(A+r2i)
  MEM(A+r3i) = r4f
  r5f = MEM(A+r2i)
  halt
"""
        )
        assert eliminate_redundant_memory(f) == 0

    def test_dead_store_removed(self):
        f = f_of(
            "function t:\nA:\n  MEM(A+r2i) = r1f\n  MEM(A+r2i) = r3f\n  halt\n"
        )
        assert eliminate_redundant_memory(f) == 1
        assert len(f.get_block("A").instrs) == 2


class TestIVSR:
    def make_loop(self):
        f = f_of(
            """
function t:
entry:
  r1i = 0
L:
  r2i = r1i * 4
  r3f = MEM(A+r2i)
  MEM(B+r2i) = r3f
  r1i = r1i + 1
  blt (r1i r9i) L
exit:
  halt
"""
        )
        blk = f.get_block("L")
        counted = {
            "L": CountedLoop("L", int_reg(1), 1, int_reg(9), blk.instrs[4], blk.instrs[3])
        }
        return f, counted

    def test_creates_pointer_iv_and_retargets_test(self):
        f, counted = self.make_loop()
        n = strength_reduce_ivs(f, counted)
        assert n >= 1
        # the loop test now runs on the derived (byte-offset) register
        assert counted["L"].step == 4
        assert counted["L"].iv == int_reg(2)
        # and the body no longer multiplies
        assert all(ins.op is not Op.MUL for ins in f.get_block("L").instrs)
        verify_function(f)

    def test_semantics_preserved(self):
        f, counted = self.make_loop()
        strength_reduce_ivs(f, counted)
        eliminate_dead_code(f)
        mem = Memory()
        A = np.arange(1.0, 11.0)
        mem.bind_array("A", A)
        mem.bind_array("B", np.zeros(10))
        simulate(f, unlimited(), mem, iregs={9: 10})
        assert np.array_equal(mem.read_array("B", (10,)), A)


class TestDriver:
    def test_conv_reaches_figure1_shape(self):
        """Naive daxpy lowering must optimize to the 6-instruction loop."""
        from repro.frontend import ArrayDecl, Kernel, Ty, aref, assign, do, var
        from repro.frontend.lower import lower_kernel

        n = 16
        i = var("i")
        k = Kernel(
            "vadd",
            arrays={x: ArrayDecl(Ty.FP, (n,)) for x in "ABC"},
            scalars={},
            body=[do("i", 1, n, [assign(aref("C", i), aref("A", i) + aref("B", i))],
                     kind="doall")],
        )
        lk = lower_kernel(k)
        run_conv(lk.func, lk.counted, lk.live_out_exit)
        inner = lk.func.get_block(lk.inner_header)
        assert len(inner.instrs) == 6
        ops = [ins.op for ins in inner.instrs]
        assert ops.count(Op.LDF) == 2 and ops.count(Op.STF) == 1
        assert Op.MUL not in ops

    def test_conv_is_idempotent(self):
        from repro.workloads import get_workload
        from repro.frontend.lower import lower_kernel

        lk = lower_kernel(get_workload("APS-3").build())
        run_conv(lk.func, lk.counted, lk.live_out_exit)
        before = format_function(lk.func)
        rep = run_conv(lk.func, lk.counted, lk.live_out_exit)
        assert format_function(lk.func) == before
        assert rep.rounds == 1

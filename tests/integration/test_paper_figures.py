"""Cycle-exact reproduction of the paper's worked examples.

Every numbered figure with an assembly listing and a cycle count is
reproduced here through the real pipeline:

* Figure 1 — loop unrolling + register renaming: 7 -> 19/3 -> 8/3
* Figure 3 — accumulator variable expansion:     8 -> 14/3 -> 10/3 (acc
  only) -> 8/3 (with induction expansion, the paper's "2.7 cycles")
* Figure 5 — induction variable expansion:       6 -> 8/3 -> 6/3
* Figure 6 — operation combining:                7 -> 5
* Figure 7 — tree height reduction:              22 -> 13

The per-body cycle numbers the paper quotes are schedule makespans of one
(unrolled) loop body on the infinite-resource machine its examples assume.
Functional correctness is checked by executing each compiled loop against
a NumPy reference.
"""

import numpy as np
import pytest

from repro.analysis.loopvars import CountedLoop
from repro.ir import Function, parse_block, parse_function, parse_instr
from repro.ir.loop import find_loops
from repro.ir.operands import Reg, RegClass
from repro.ir.verify import verify_function
from repro.machine import unlimited
from repro.pipeline import Level, apply_ilp_transforms, schedule_function
from repro.schedule.listsched import list_schedule
from repro.schedule.superblock import form_superblock
from repro.sim import Memory, simulate
from repro.transforms.accumulate import expand_accumulators
from repro.transforms.combine import combine_operations
from repro.transforms.rename import rename_superblock
from repro.transforms.treeheight import reduce_tree_height
from repro.transforms.unroll import unroll_counted


def schedule_text(text: str) -> "Schedule":
    body = parse_block(text).instrs
    return list_schedule(body, unlimited())


class TestFigure1:
    """Loop unrolling and register renaming on C(j) = A(j) + B(j)."""

    ORIGINAL = """
      r2f = MEM(A+r1i)
      r3f = MEM(B+r1i)
      r4f = r2f + r3f
      MEM(C+r1i) = r4f
      r1i = r1i + 4
      blt (r1i r5i) L1
    """

    def test_original_7_cycles(self):
        s = schedule_text(self.ORIGINAL)
        assert s.makespan == 7
        # exact issue times from Figure 1(b)
        assert [t for _, t in s.pairs()] == [0, 0, 2, 5, 5, 6]

    def test_unrolled_19_cycles(self):
        body = self.ORIGINAL.replace("blt (r1i r5i) L1", "").strip()
        text = body + "\n" + body + "\n" + body + "\nblt (r1i r5i) L1"
        s = schedule_text(text)
        assert s.makespan == 19

    def test_unrolled_renamed_8_cycles(self):
        s = schedule_text(
            """
            r21f = MEM(A+r11i)
            r31f = MEM(B+r11i)
            r41f = r21f + r31f
            MEM(C+r11i) = r41f
            r12i = r11i + 4
            r22f = MEM(A+r12i)
            r32f = MEM(B+r12i)
            r42f = r22f + r32f
            MEM(C+r12i) = r42f
            r13i = r12i + 4
            r23f = MEM(A+r13i)
            r33f = MEM(B+r13i)
            r43f = r23f + r33f
            MEM(C+r13i) = r43f
            r11i = r13i + 4
            blt (r11i r5i) L1
            """
        )
        assert s.makespan == 8

    def test_pipeline_matches_and_executes(self):
        """Through the real transform pipeline, with simulation checks."""
        for level, expected in [(Level.CONV, 7), (Level.LEV1, 19), (Level.LEV2, 8)]:
            f = parse_function(
                """
function fig1:
entry:
L1:
  r2f = MEM(A+r1i)
  r3f = MEM(B+r1i)
  r4f = r2f + r3f
  MEM(C+r1i) = r4f
  r1i = r1i + 4
  blt (r1i r5i) L1
exit:
  halt
"""
            )
            blk = f.get_block("L1")
            counted = CountedLoop(
                "L1", Reg(1, RegClass.INT), 4, Reg(5, RegClass.INT),
                blk.instrs[5], blk.instrs[4],
            )
            sb, _ = apply_ilp_transforms(f, counted, level, unlimited(), unroll_factor=3)
            scheds = schedule_function(f, unlimited(), sb=sb, doall=True)
            assert scheds[sb.header].makespan == expected, level

            n = 30
            mem = Memory()
            A = np.arange(1.0, n + 1)
            B = np.arange(2.0, n + 2)
            mem.bind_array("A", A)
            mem.bind_array("B", B)
            mem.bind_array("C", np.zeros(n))
            simulate(f, unlimited(), mem, iregs={1: 0, 5: 4 * n})
            assert np.array_equal(mem.read_array("C", (n,)), A + B)


FIG3_SRC = """
function fig3:
entry:
  r1f = MEM(C+r2i)
L1:
  r3f = MEM(A+r4i)
  r5f = MEM(B+r6i)
  r7f = r3f * r5f
  r1f = r1f + r7f
  r4i = r4i + 4
  r6i = r6i + r8i
  blt (r4i r9i) L1
exit:
  MEM(C+r2i) = r1f
  halt
"""


def build_fig3():
    f = parse_function(FIG3_SRC)
    blk = f.get_block("L1")
    counted = CountedLoop(
        "L1", Reg(4, RegClass.INT), 4, Reg(9, RegClass.INT),
        blk.instrs[6], blk.instrs[4],
    )
    return f, counted


def run_fig3(f, n=30):
    mem = Memory()
    A = np.arange(1.0, n + 1)
    B = np.arange(2.0, n + 2)
    mem.bind_array("A", A)
    mem.bind_array("B", B)
    mem.bind_array("C", np.zeros(4))
    res = simulate(f, unlimited(), mem, iregs={2: 0, 4: 0, 6: 0, 8: 4, 9: 4 * n})
    assert np.isclose(mem.read_array("C", (1,))[0], np.dot(A, B))
    return res


class TestFigure3:
    """Accumulator variable expansion on the matrix-multiply inner loop."""

    @pytest.mark.parametrize(
        "level,expected",
        [(Level.CONV, 8), (Level.LEV2, 14), (Level.LEV4, 8)],
    )
    def test_levels(self, level, expected):
        f, counted = build_fig3()
        sb, rep = apply_ilp_transforms(f, counted, level, unlimited(), unroll_factor=3)
        scheds = schedule_function(f, unlimited(), sb=sb)
        assert scheds[sb.header].makespan == expected
        run_fig3(f)
        if level == Level.LEV4:
            assert rep.rewrites("accumulate") == 1
            assert rep.rewrites("induction") == 2

    def test_accumulator_expansion_alone_10_cycles(self):
        """Figure 3(d) exactly: unroll + rename + accumulator expansion."""
        f, counted = build_fig3()
        loop = next(l for l in find_loops(f) if l.header == "L1")
        counted = unroll_counted(f, loop, counted, 3)
        loop = next(l for l in find_loops(f) if l.header == "L1")
        sb = form_superblock(f, loop, counted)
        rename_superblock(sb)
        assert expand_accumulators(sb) == 1
        verify_function(f)
        scheds = schedule_function(f, unlimited(), sb=sb)
        assert scheds["L1"].makespan == 10
        run_fig3(f)


FIG5_SRC = """
function fig5:
entry:
L1:
  r3f = MEM(A+r2i)
  r4f = MEM(B+r2i)
  r5f = r3f * r4f
  MEM(C+r2i) = r5f
  r2i = r2i + r7i
  r1i = r1i + 1
  blt (r1i r6i) L1
exit:
  halt
"""


class TestFigure5:
    """Induction variable expansion on C(j) = A(j)*B(j); j += K."""

    @pytest.mark.parametrize(
        "level,expected",
        [(Level.CONV, 6), (Level.LEV2, 8), (Level.LEV4, 6)],
    )
    def test_levels(self, level, expected):
        f = parse_function(FIG5_SRC)
        blk = f.get_block("L1")
        counted = CountedLoop(
            "L1", Reg(1, RegClass.INT), 1, Reg(6, RegClass.INT),
            blk.instrs[6], blk.instrs[5],
        )
        sb, rep = apply_ilp_transforms(f, counted, level, unlimited(), unroll_factor=3)
        scheds = schedule_function(f, unlimited(), sb=sb, doall=True)
        assert scheds[sb.header].makespan == expected
        if level == Level.LEV4:
            assert rep.rewrites("induction") == 2  # both the counter and the j chain

        n = 30
        mem = Memory()
        A = np.arange(1.0, 2 * n + 1)
        B = np.arange(2.0, 2 * n + 2)
        mem.bind_array("A", A)
        mem.bind_array("B", B)
        mem.bind_array("C", np.zeros(2 * n))
        simulate(f, unlimited(), mem, iregs={1: 1, 2: 0, 6: n + 1, 7: 4})
        C = mem.read_array("C", (2 * n,))
        expect = np.zeros(2 * n)
        expect[:n] = A[:n] * B[:n]
        assert np.array_equal(C, expect)


class TestFigure6:
    """Operation combining."""

    def test_combining_7_to_5_cycles(self):
        body = parse_block(
            """
            r1i = r1i + 4
            r2f = MEM(r1i+8)
            r3f = r2f - 3.2
            fblt (r3f 10.0) L1
            """
        ).instrs
        assert list_schedule(body, unlimited()).makespan == 7
        assert combine_operations(body) == 2
        s = list_schedule(body, unlimited())
        assert s.makespan == 5
        # the load absorbed the increment (address +12) and the branch
        # compares the loaded value directly against 13.2
        rendered = [str(i) for i in body]
        assert "r2f = MEM(r1i+12)" in rendered
        assert "fblt (r2f 13.2) L1" in rendered


class TestFigure7:
    """Tree height reduction of A = B * (C + D) * E * F / G."""

    def test_22_to_13_cycles(self):
        f = Function("thr")
        blk = f.add_block("entry")
        for text in [
            "r1f = r10f + r11f",  # C + D
            "r2f = r1f * r9f",    # * B
            "r3f = r2f * r12f",   # * E
            "r4f = r3f * r13f",   # * F
            "r5f = r4f / r14f",   # / G
        ]:
            blk.append(parse_instr(text))
        f.reindex_regs()
        body = blk.instrs
        assert list_schedule(body, unlimited()).makespan == 22
        assert reduce_tree_height(f, body, unlimited()) == 1
        assert list_schedule(body, unlimited()).makespan == 13

    def test_semantics_preserved(self):
        rng = np.random.default_rng(7)
        vals = {9 + i: float(v) for i, v in enumerate(rng.integers(1, 50, 6))}
        f = Function("thr")
        blk = f.add_block("entry")
        for text in [
            "r1f = r10f + r11f",
            "r2f = r1f * r9f",
            "r3f = r2f * r12f",
            "r4f = r3f * r13f",
            "r5f = r4f / r14f",
            "halt",
        ]:
            blk.append(parse_instr(text))
        f.reindex_regs()
        B, C, D, E, Fv, G = (vals[k] for k in (9, 10, 11, 12, 13, 14))
        expect = B * (C + D) * E * Fv / G
        reduce_tree_height(f, blk.instrs, unlimited())
        res = simulate(f, unlimited(), Memory(), fregs=vals)
        assert np.isclose(res.fregs[5], expect)

"""Unit tests for the simulator: semantics, timing model, memory."""

import numpy as np
import pytest

from repro.ir import Instr, Op, parse_function
from repro.machine import MachineConfig, issue1, issue2, unlimited
from repro.sim import Memory, SimMemoryError, SimulationError, simulate
from repro.ir.instructions import Kind


def run(text, machine=None, mem=None, iregs=None, fregs=None, **kw):
    f = parse_function(text)
    return simulate(f, machine or unlimited(), mem or Memory(),
                    iregs or {}, fregs or {}, **kw)


class TestSemantics:
    def test_int_arithmetic(self):
        res = run(
            """
function t:
A:
  r3i = r1i + r2i
  r4i = r1i - r2i
  r5i = r1i * r2i
  r6i = r1i / r2i
  r7i = r1i % r2i
  r8i = r1i << 2
  r9i = r1i >> 1
  halt
""",
            iregs={1: 17, 2: 5},
        )
        assert res.iregs[3] == 22
        assert res.iregs[4] == 12
        assert res.iregs[5] == 85
        assert res.iregs[6] == 3
        assert res.iregs[7] == 2
        assert res.iregs[8] == 68
        assert res.iregs[9] == 8

    def test_division_truncates_toward_zero(self):
        res = run(
            "function t:\nA:\n  r3i = r1i / r2i\n  r4i = r1i % r2i\n  halt\n",
            iregs={1: -7, 2: 2},
        )
        assert res.iregs[3] == -3  # not floor (-4)
        assert res.iregs[4] == -1

    def test_fp_arithmetic_and_conversion(self):
        res = run(
            """
function t:
A:
  r3f = r1f * r2f
  r4f = r1f / r2f
  r1i = ftoi(r4f)
  r5f = itof(r1i)
  halt
""",
            fregs={1: 7.0, 2: 2.0},
        )
        assert res.fregs[3] == 14.0
        assert res.fregs[4] == 3.5
        assert res.iregs[1] == 3  # truncation
        assert res.fregs[5] == 3.0

    def test_branch_taken_and_not_taken(self):
        res = run(
            """
function t:
A:
  blt (r1i r2i) T
  r3i = 1
  halt
T:
  r3i = 2
  halt
""",
            iregs={1: 5, 2: 9},
        )
        assert res.iregs[3] == 2
        res = run(
            "function t:\nA:\n  bge (r1i r2i) T\n  r3i = 1\n  halt\nT:\n  r3i = 2\n  halt\n",
            iregs={1: 5, 2: 9},
        )
        assert res.iregs[3] == 1

    def test_loop_counts_instructions(self):
        res = run(
            """
function t:
A:
  r1i = 0
L:
  r1i = r1i + 1
  blt (r1i 10) L
""",
        )
        assert res.iregs[1] == 10
        assert res.instructions == 1 + 2 * 10

    def test_memory_round_trip(self):
        mem = Memory()
        mem.bind_array("A", np.array([1.5, 2.5, 3.5]))
        res = run(
            """
function t:
A:
  r1f = MEM(A+4)
  MEM(A+8) = r1f
  halt
""",
            mem=mem,
        )
        assert mem.read_array("A", (3,)).tolist() == [1.5, 2.5, 2.5]

    def test_uninitialized_load_raises(self):
        with pytest.raises(SimMemoryError):
            run("function t:\nA:\n  r1f = MEM(r2i+0)\n  halt\n", iregs={2: 0x4000})

    def test_division_by_zero_raises(self):
        with pytest.raises(SimulationError):
            run("function t:\nA:\n  r3i = r1i / r2i\n  halt\n", iregs={1: 1, 2: 0})

    def test_infinite_loop_guarded(self):
        with pytest.raises(SimulationError):
            run("function t:\nA:\n  jmp A\n", max_cycles=1000)


class TestTimingModel:
    def test_flow_interlock_stalls(self):
        # load (lat 2) feeding an add: the add waits
        mem = Memory()
        mem.bind_array("A", np.array([7], dtype=np.int64))
        res = run(
            "function t:\nB:\n  r1i = MEM(A)\n  r2i = r1i + 1\n  halt\n",
            machine=unlimited(), mem=mem,
        )
        # load at 0, add at 2, halt at 2 -> 3 cycles
        assert res.cycles == 3

    def test_issue_width_limits(self):
        text = "function t:\nA:\n" + "\n".join(
            f"  r{k}i = 1" for k in range(1, 9)
        ) + "\n  halt\n"
        assert run(text, machine=MachineConfig(issue_width=8)).cycles == 2
        assert run(text, machine=issue1()).cycles == 9
        assert run(text, machine=issue2()).cycles == 5

    def test_branch_terminates_packet(self):
        # independent work after a not-taken branch issues the next cycle
        res = run(
            """
function t:
A:
  blt (r1i r1i) A
  r2i = 1
  halt
""",
            machine=unlimited(), iregs={1: 0},
        )
        # branch at 0; mov at 1; halt at 1 -> 2 cycles
        assert res.cycles == 2

    def test_taken_branch_redirects_next_cycle(self):
        res = run(
            """
function t:
A:
  beq (r1i r1i) T
  r2i = 7
T:
  r3i = 1
  halt
""",
            machine=unlimited(), iregs={1: 0},
        )
        assert 2 not in res.iregs
        assert res.cycles == 2

    def test_waw_completion_order(self):
        # a long op followed by a short op to the same register: the short
        # write must complete after, so it stalls
        res = run(
            """
function t:
A:
  r1i = r2i / r3i
  r1i = 5
  halt
""",
            machine=unlimited(), iregs={2: 10, 3: 2},
        )
        assert res.iregs[1] == 5
        # div at 0 completes at 10; mov must issue at >= 10
        assert res.cycles >= 11

    @pytest.mark.parametrize("engine", ["auto", "interp"])
    def test_waw_interlock_is_exact(self, engine):
        # the mov's write must complete strictly after the div's (ready
        # at 10): it issues at 10 - 1 + 1 = 10, not 9, with the halt
        res = run(
            "function t:\nA:\n  r1i = r2i / r3i\n  r1i = 5\n  halt\n",
            machine=unlimited(), iregs={2: 10, 3: 2}, engine=engine,
        )
        assert res.cycles == 11

    def test_war_same_cycle_is_free(self):
        # reader and writer of the same register can share a cycle in order
        res = run(
            """
function t:
A:
  r2i = r1i + 1
  r1i = 9
  halt
""",
            machine=unlimited(), iregs={1: 4},
        )
        assert res.iregs[2] == 5
        assert res.iregs[1] == 9
        # all three (including halt) fit in one in-order packet
        assert res.cycles == 1

    def test_slot_limits(self):
        m = MachineConfig(issue_width=8, slot_limits={Kind.FP_ALU: 1})
        text = "function t:\nA:\n" + "\n".join(
            f"  r{k}f = r9f + r9f" for k in range(1, 5)
        ) + "\n  halt\n"
        res = run(text, machine=m, fregs={9: 1.0})
        assert res.cycles == 4  # one fp add per cycle; halt shares the last

    def test_fast_forward_through_stalls(self):
        res = run(
            """
function t:
A:
  r1f = r2f / r3f
  r4f = r1f + r1f
  halt
""",
            machine=issue1(), fregs={2: 8.0, 3: 2.0},
        )
        # div at 0 (lat 10), add at 10, halt at 11 -> 12
        assert res.cycles == 12


class TestMemoryModel:
    def test_column_major_binding(self):
        mem = Memory()
        a = np.arange(6.0).reshape(2, 3)
        mem.bind_array("A", a)
        # column-major flattening: A[0,0], A[1,0], A[0,1], ...
        base = mem.array_base("A")
        assert mem.load(base) == 0.0
        assert mem.load(base + 4) == 3.0
        assert mem.load(base + 8) == 1.0
        back = mem.read_array("A", (2, 3))
        assert np.array_equal(back, a)

    def test_arrays_do_not_overlap(self):
        mem = Memory()
        mem.bind_array("A", np.ones(10))
        mem.bind_array("B", np.zeros(10))
        assert mem.array_base("B") >= mem.array_base("A") + 40

    def test_unaligned_access_rejected(self):
        mem = Memory()
        mem.bind_array("A", np.ones(2))
        with pytest.raises(SimMemoryError):
            mem.load(mem.array_base("A") + 2)

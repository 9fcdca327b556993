"""Unit tests for the machine model and machine-description files."""

import json

import pytest

from repro.ir.instructions import Kind, Op
from repro.machine import (
    MachineConfig,
    PAPER_LATENCIES,
    from_description,
    issue1,
    issue2,
    issue4,
    issue8,
    load_description,
    to_description,
    unlimited,
)


class TestLatencies:
    def test_table1_values(self):
        m = issue8()
        assert m.latency(Op.ADD) == 1
        assert m.latency(Op.MUL) == 3
        assert m.latency(Op.DIV) == 10
        assert m.latency(Op.REM) == 10
        assert m.latency(Op.FADD) == 3
        assert m.latency(Op.ITOF) == 3
        assert m.latency(Op.FMUL) == 3
        assert m.latency(Op.FDIV) == 10
        assert m.latency(Op.LD) == 2
        assert m.latency(Op.ST) == 1
        assert m.latency(Op.BLT) == 1

    def test_moves_are_single_cycle(self):
        m = issue8()
        assert m.latency(Op.MOV) == 1
        assert m.latency(Op.FMOV) == 1

    def test_every_opcode_reads_its_kind_latency(self):
        from repro.ir.instructions import OP_INFO

        slow = MachineConfig(latencies={
            k: 10 + i for i, k in enumerate(PAPER_LATENCIES)})
        for m in (issue8(), slow, slow.with_width(2)):
            for op in Op:
                want = (1 if op in (Op.MOV, Op.FMOV)
                        else m.latencies[OP_INFO[op].kind])
                assert m.latency(op) == want, op

    def test_presets(self):
        assert issue1().issue_width == 1
        assert issue2().issue_width == 2
        assert issue4().issue_width == 4
        assert issue8().issue_width == 8
        assert unlimited().unlimited

    def test_with_width(self):
        m = issue8().with_width(2)
        assert m.issue_width == 2
        assert m.latency(Op.FDIV) == 10


class TestDescriptions:
    def test_round_trip(self):
        m = MachineConfig(issue_width=4, branch_slots=2,
                          slot_limits={Kind.FP_MUL: 1},
                          speculative_loads=False)
        back = from_description(to_description(m))
        assert back.issue_width == 4
        assert back.branch_slots == 2
        assert back.slot_limits == {Kind.FP_MUL: 1}
        assert not back.speculative_loads
        assert back.latencies == m.latencies

    def test_partial_description_defaults_to_table1(self):
        m = from_description({"issue_width": 2, "latencies": {"FP_DIV": 20}})
        assert m.latency(Op.FDIV) == 20
        assert m.latency(Op.FADD) == PAPER_LATENCIES[Kind.FP_ALU]

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            from_description({"latencies": {"WARP_DRIVE": 1}})

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "slow_divide.json"
        p.write_text(json.dumps({
            "issue_width": 4,
            "latencies": {"INT_DIV": 40, "FP_DIV": 40},
        }))
        m = load_description(p)
        assert m.latency(Op.DIV) == 40
        assert m.issue_width == 4

    def test_custom_machine_changes_timing(self):
        """A slower divide must slow a divide-bound loop: the description
        actually parameterizes code generation + simulation."""
        import numpy as np
        from repro.ir import parse_function
        from repro.sim import Memory, simulate

        f_text = """
function t:
entry:
  r1i = 0
L:
  r2f = MEM(A+r1i)
  r3f = r2f / r4f
  MEM(B+r1i) = r3f
  r1i = r1i + 4
  blt (r1i 64) L
exit:
  halt
"""
        cycles = {}
        for name, desc in (("fast", {}), ("slow", {"latencies": {"FP_DIV": 30}})):
            f = parse_function(f_text)
            mem = Memory()
            mem.bind_array("A", np.ones(16) * 8.0)
            mem.bind_array("B", np.zeros(16))
            m = from_description({"issue_width": 8, **desc})
            cycles[name] = simulate(f, m, mem, fregs={4: 2.0}).cycles
        assert cycles["slow"] > cycles["fast"] + 16 * 10

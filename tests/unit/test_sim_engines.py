"""Differential tests between the two simulator engines.

The block-compiled trace/replay core (``engine="auto"``) must be
observationally identical to the reference (``engine="interp"``: the
sequential reference evaluator timed by ``repro.check.timing``): same
cycles, same instruction counts, same end state, and the same
``SimulationError`` diagnostics — the fast engine is only admissible
because no caller can tell it ran.

Three layers of evidence:

* an engine-vs-engine matrix over nine oracle kernels x all five
  transformation levels x four issue widths;
* the width-batched path (execute once, replay timing per width —
  :class:`repro.harness.BatchedRunner`) against independent full
  simulations of every width, slot-limited machines included;
* error-semantics parity: reads of never-written registers, division
  by zero, loads from unbound words and stores outside memory must
  raise the same exception type with the same message from generated
  block code as from the reference — never a ``NameError`` or
  ``IndexError`` leaking codegen internals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness import (
    BatchedRunner,
    ilp_transform,
    lower_conv,
    run_compiled_kernel,
    schedule_kernel,
)
from repro.ir import parse_function
from repro.ir.block import Block
from repro.ir.function import Function
from repro.ir.instructions import OP_INFO, Instr, Kind, Op
from repro.ir.operands import FImm, Imm, Label, Reg, RegClass
from repro.machine import MachineConfig, unlimited
from repro.pipeline import ALL_LEVELS, Level
from repro.sim import (
    Memory,
    ReplayUnmapped,
    SimMemoryError,
    SimulationError,
    compiled_program,
    exec_plan,
    simulate,
)
from repro.workloads import get_workload

from . import _memory_rule as rule

ORACLE_KERNELS = (
    "add", "sum", "dotprod", "maxval", "merge",
    "LWS-1", "NAS-4", "SRS-1", "TFS-2",
)
WIDTHS = (1, 2, 4, 8)


def _assert_runs_equal(a, b, ctx=""):
    assert a.cycles == b.cycles, f"{ctx}: cycles {a.cycles} != {b.cycles}"
    assert a.instructions == b.instructions, (
        f"{ctx}: instructions {a.instructions} != {b.instructions}"
    )
    assert set(a.arrays) == set(b.arrays), ctx
    for name in a.arrays:
        assert np.array_equal(
            np.asarray(a.arrays[name]), np.asarray(b.arrays[name])
        ), f"{ctx}: array {name} differs"
    assert a.scalars == b.scalars, f"{ctx}: scalars differ"


class TestEngineMatrix:
    """reference vs compiled-block engine across the oracle corpus."""

    @pytest.mark.parametrize("name", ORACLE_KERNELS)
    def test_engines_identical(self, name):
        w = get_workload(name)
        arrays, scalars = w.make_inputs(0)
        conv = lower_conv(w.build())
        for level in ALL_LEVELS:
            tk = ilp_transform(conv.clone(), level, MachineConfig(issue_width=1))
            for width in WIDTHS:
                ck = schedule_kernel(tk.clone(), MachineConfig(issue_width=width))
                interp = run_compiled_kernel(
                    ck, arrays=arrays, scalars=scalars, engine="interp"
                )
                compiled = run_compiled_kernel(
                    ck, arrays=arrays, scalars=scalars, engine="auto"
                )
                _assert_runs_equal(
                    interp, compiled, f"{name}/{level.label}/w{width}"
                )


class TestBatchedReplayVsFullSim:
    """execute-once / replay-per-width vs independent full simulations."""

    @pytest.mark.parametrize("name", ["dotprod", "maxval", "NAS-4", "TFS-2"])
    def test_batched_identical(self, name):
        w = get_workload(name)
        arrays, scalars = w.make_inputs(0)
        conv = lower_conv(w.build())
        for level in (Level.CONV, Level.LEV2, Level.LEV4):
            tk = ilp_transform(conv.clone(), level, MachineConfig(issue_width=1))
            cks = [
                schedule_kernel(tk.clone(), MachineConfig(issue_width=width))
                for width in WIDTHS
            ]
            runner = BatchedRunner(cks[0], arrays, scalars)
            for ck, width in zip(cks, WIDTHS):
                got = runner.run(ck)
                want = run_compiled_kernel(
                    ck, arrays=arrays, scalars=scalars, engine="interp"
                )
                _assert_runs_equal(got, want, f"{name}/{level.label}/w{width}")

    def test_batched_refuses_foreign_schedule(self):
        # a kernel transformed separately shares no instruction objects,
        # so its exits cannot be mapped onto the trace: the runner says
        # so instead of timing something else
        w = get_workload("dotprod")
        arrays, scalars = w.make_inputs(0)
        conv = lower_conv(w.build())
        tk1 = ilp_transform(conv.clone(), Level.LEV4, MachineConfig(issue_width=1))
        tk2 = ilp_transform(conv.clone(), Level.LEV4, MachineConfig(issue_width=1))
        ck1 = schedule_kernel(tk1, MachineConfig(issue_width=1))
        ck2 = schedule_kernel(tk2, MachineConfig(issue_width=8))
        runner = BatchedRunner(ck1, arrays, scalars)
        with pytest.raises(ReplayUnmapped):
            runner.run(ck2)

    def test_batched_replays_slot_limits(self):
        # a slot-limited width of a cell is replayed from the unlimited
        # width-1 trace, identically to simulating it in full
        w = get_workload("sum")
        arrays, scalars = w.make_inputs(0)
        conv = lower_conv(w.build())
        tk = ilp_transform(conv.clone(), Level.LEV2, MachineConfig(issue_width=1))
        base = schedule_kernel(tk.clone(), MachineConfig(issue_width=1))
        limited_machine = MachineConfig(issue_width=4, slot_limits={Kind.LOAD: 1})
        limited = schedule_kernel(tk.clone(), limited_machine)
        runner = BatchedRunner(base, arrays, scalars)
        got = runner.run(limited)
        want = run_compiled_kernel(
            limited, arrays=arrays, scalars=scalars, engine="interp"
        )
        _assert_runs_equal(got, want, "slot-limited replay")


#: ``benchmarks/bench_ablation_slots.py``'s machine, and two more shapes:
#: a memory port, and an FP multiplier beside two integer ALUs
SLOT_LIMITS = {
    "fp-limited": {Kind.FP_ALU: 1, Kind.FP_MUL: 1, Kind.FP_DIV: 1},
    "load-1": {Kind.LOAD: 1},
    "fmul-1-ialu-2": {Kind.FP_MUL: 1, Kind.INT_ALU: 2},
}


class TestSlotLimitedReplay:
    """Replay on slot-limited machines equals the reference: cycles,
    instructions and end state, every level, widths 1/2/4/8."""

    @pytest.mark.parametrize("limits", SLOT_LIMITS)
    @pytest.mark.parametrize("name", ["NAS-1", "SRS-5", "add", "tomcatv-1"])
    def test_corpus(self, name, limits):
        w = get_workload(name)
        arrays, scalars = w.make_inputs(0)
        conv = lower_conv(w.build())
        machines = [MachineConfig(issue_width=wd,
                                  slot_limits=SLOT_LIMITS[limits])
                    for wd in WIDTHS]
        for level in ALL_LEVELS:
            tk = ilp_transform(conv.clone(), level, machines[0])
            cks = [schedule_kernel(tk.clone(), m) for m in machines]
            runner = BatchedRunner(cks[0], arrays, scalars)
            for ck in cks:
                want = run_compiled_kernel(
                    ck, arrays=arrays, scalars=scalars, engine="interp")
                _assert_runs_equal(
                    runner.run(ck), want,
                    f"{name}/{level.label}/w{ck.machine.issue_width}/{limits}")

    @staticmethod
    def _cycles(text, limits, width=4, **kw):
        """Cycles of ``text`` on a ``width``-wide machine with ``limits``,
        after asserting both engines agree on everything."""
        interp, compiled = _run_both(
            text, MachineConfig(issue_width=width, slot_limits=limits), **kw)
        assert (interp.cycles, interp.instructions, interp.iregs,
                interp.fregs) == (compiled.cycles, compiled.instructions,
                                  compiled.iregs, compiled.fregs)
        return interp.cycles

    def test_limit_hit_right_after_an_idle_fast_forward(self):
        # the fadd waits for the load: its packet fast-forwards to cycle
        # 2, then the second fadd finds the one FP_ALU slot taken
        text = """
function t:
A:
  r2f = MEM(A+0)
  r3f = r2f + r1f
  r4f = r1f + r1f
  halt
"""
        kw = dict(fregs={1: 1.5}, mem_fn=_one_slot_memory)
        assert self._cycles(text, {Kind.FP_ALU: 1}, **kw) == 4
        assert self._cycles(text, {}, **kw) == 3

    def test_fall_through_keeps_the_open_packets_slot_counts(self):
        # A's fadd and B's first instructions share one packet: B's fadd
        # must see A's use of the FP_ALU slot across the block boundary
        text = """
function t:
A:
  r2f = r1f + r1f
B:
  r3f = r1f * r1f
  r4f = r1f + r1f
  halt
"""
        assert self._cycles(text, {Kind.FP_ALU: 1}, fregs={1: 2.0}) == 2
        assert self._cycles(text, {}, fregs={1: 2.0}) == 1

    def test_a_branch_closes_a_limited_packet(self):
        # every iteration's fadd opens a fresh packet after the branch: a
        # count carried past the branch would cost a cycle per iteration
        text = """
function t:
A:
  r1i = 0
L:
  r4f = r2f + r3f
  r1i = r1i + 1
  blt (r1i 40) L
X:
  halt
"""
        kw = dict(fregs={2: 1.0, 3: 2.0})
        limited = self._cycles(text, {Kind.FP_ALU: 1}, **kw)
        assert limited == self._cycles(text, {}, **kw)
        assert self._cycles(text, {Kind.FP_ALU: 1, Kind.BRANCH: 1}, **kw) \
            == limited


def _instr_for(op: Op) -> Instr:
    """One well-formed instance of ``op`` over fresh registers."""
    info = OP_INFO[op]
    lanes = 4 if op.is_vector else 0
    classes = info.src_cls * lanes if info.n_srcs < 0 else info.src_cls
    srcs = tuple(Reg(i + 1, cls) for i, cls in enumerate(classes))
    if op in (Op.VEXT, Op.VEXTF):
        srcs = (srcs[0], Imm(0))
    dest = Reg(9, info.dest_cls) if info.dest_cls is not None else None
    target = Label("T") if info.kind in (Kind.BRANCH, Kind.JUMP) else None
    return Instr(op, dest, srcs, target, lanes=lanes)


def test_block_code_exists_for_every_op():
    f = Function("every_op")
    f.blocks = [Block(f"B{i}", [_instr_for(op)]) for i, op in enumerate(Op)]
    f.blocks.append(Block("T", [Instr(Op.HALT)]))
    plan = exec_plan(compiled_program(f, MachineConfig(), {}))
    assert len(plan.block_fns) == len(f.blocks)
    assert [ci.instr.op for ci in plan.instrs] == [*Op, Op.HALT]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_constants_run_on_the_compiled_engine(value):
    f = Function("nonfinite")
    f.blocks = [Block("A", [
        Instr(Op.FADD, Reg(2, RegClass.FP), (Reg(1, RegClass.FP), FImm(value))),
        Instr(Op.FBEQ, None, (Reg(1, RegClass.FP), FImm(value)), Label("A")),
        Instr(Op.HALT),
    ])]
    machine = MachineConfig(issue_width=2)
    plan = exec_plan(compiled_program(f, machine, {}))
    assert "_k0" in plan.source  # bound, not spelled as a literal
    interp, compiled = (
        simulate(f, machine, Memory(), fregs={1: 1.0}, engine=e)
        for e in ("interp", "auto"))
    assert (interp.cycles, interp.instructions) == (
        compiled.cycles, compiled.instructions)
    assert repr(interp.fregs) == repr(compiled.fregs)


@pytest.mark.parametrize("engine", ["compiled", "Interp", ""])
def test_an_unknown_engine_name_is_refused(engine):
    """Only ``"auto"`` and ``"interp"`` name an engine: a typo raises
    instead of running the compiled engine."""
    from repro.harness import evaluate_cell

    f = parse_function("function t:\nA:\n  r1i = 5\n  halt\n")
    with pytest.raises(ValueError, match="unknown engine"):
        simulate(f, unlimited(), engine=engine)
    with pytest.raises(ValueError, match="unknown engine"):
        evaluate_cell(get_workload("add"), Level.CONV,
                      [MachineConfig(issue_width=1)], engine=engine)


def _run_both(text, machine=None, mem_fn=None, iregs=None, fregs=None, **kw):
    """Run one assembly function under both engines; returns (interp,
    compiled) results or raises after asserting error parity."""
    f = parse_function(text)
    machine = machine or unlimited()

    def one(engine):
        mem = mem_fn() if mem_fn else Memory()
        return simulate(f, machine, mem, dict(iregs or {}), dict(fregs or {}),
                        engine=engine, **kw)

    return one("interp"), one("auto")


def _error_both(text, exc_type, machine=None, mem_fn=None, iregs=None,
                fregs=None, **kw):
    """Assert both engines raise ``exc_type`` with the same message;
    returns that message."""
    f = parse_function(text)
    machine = machine or unlimited()
    msgs = []
    for engine in ("interp", "auto"):
        mem = mem_fn() if mem_fn else Memory()
        with pytest.raises(exc_type) as ei:
            simulate(f, machine, mem, dict(iregs or {}), dict(fregs or {}),
                     engine=engine, **kw)
        msgs.append(str(ei.value))
    assert msgs[0] == msgs[1], f"messages diverge: {msgs[0]!r} vs {msgs[1]!r}"
    return msgs[0]


class TestErrorParity:
    """The compiled engine must surface reference-identical errors.

    Regression for the uninitialized-register class of bugs: generated
    block code binds registers to local variables, so a never-written
    register must be detected and reported as a ``SimulationError`` —
    not escape as a ``NameError``/``TypeError`` from the generated
    function's internals.
    """

    def test_uninit_alu_operand(self):
        msg = _error_both(
            "function t:\nA:\n  r3i = r1i + r2i\n  halt\n", SimulationError,
            iregs={1: 4},
        )
        assert "uninitialized register" in msg

    def test_uninit_branch_operand(self):
        msg = _error_both(
            "function t:\nA:\n  blt (r1i r2i) T\n  halt\nT:\n  halt\n",
            SimulationError, iregs={1: 1},
        )
        assert "uninitialized register" in msg

    def test_uninit_equality_branch_operand(self):
        # == / != accept None silently in Python, so the generated code
        # carries an explicit guard for them — cover it separately
        msg = _error_both(
            "function t:\nA:\n  beq (r1i r2i) T\n  halt\nT:\n  halt\n",
            SimulationError, iregs={1: 1},
        )
        assert "uninitialized register" in msg

    def test_uninit_store_value(self):
        msg = _error_both(
            "function t:\nA:\n  MEM(A+0) = r9f\n  halt\n",
            SimulationError,
            mem_fn=_one_slot_memory,
        )
        assert "uninitialized register" in msg

    def test_uninit_store_address(self):
        msg = _error_both(
            "function t:\nA:\n  MEM(r9i+0) = r1i\n  halt\n",
            SimulationError, iregs={1: 7},
        )
        assert "uninitialized register" in msg

    def test_uninit_load_address(self):
        msg = _error_both(
            "function t:\nA:\n  r1f = MEM(r9i+0)\n  halt\n",
            SimulationError,
        )
        assert "uninitialized register" in msg

    def test_division_by_zero(self):
        msg = _error_both(
            "function t:\nA:\n  r3i = r1i / r2i\n  halt\n",
            SimulationError, iregs={1: 1, 2: 0},
        )
        assert "division by zero" in msg

    def test_unmapped_load(self):
        _error_both(
            "function t:\nA:\n  r1f = MEM(r2i+0)\n  halt\n",
            SimMemoryError, iregs={2: 0x4000},
        )

    # -- the memory rule (repro.sim.memory): a load from an unbound word
    # and a store outside [0, top) fault alike in block code of both
    # forms and in the reference, negative addresses included

    @pytest.mark.parametrize("form", ["straight", "loop"])
    @pytest.mark.parametrize("case", sorted(rule.FAULTS))
    def test_memory_fault(self, case, form):
        ops, addr, prefix = rule.FAULTS[case]
        text = rule.function_text(ops, form)
        assert _loops(text, rule.memory) == ([] if form == "straight"
                                             else ["L"])
        msg = _error_both(text, SimMemoryError, mem_fn=rule.memory,
                          iregs={3: addr}, fregs={4: 2.5})
        assert msg.startswith(f"{prefix} {addr:#x}: <"), msg

    @pytest.mark.parametrize("form", ["straight", "loop"])
    @pytest.mark.parametrize("case", sorted(rule.ACCEPTED))
    def test_store_below_the_top_is_accepted(self, case, form):
        addr = rule.ACCEPTED[case]
        interp, compiled = _run_both(
            rule.function_text(rule.STORE_THEN_LOAD, form),
            mem_fn=rule.memory, iregs={3: addr}, fregs={4: 2.5})
        for res in (interp, compiled):
            assert res.fregs[5] == 2.5
            assert res.memory.load(addr) == 2.5
        assert (interp.cycles, interp.instructions) == (
            compiled.cycles, compiled.instructions)

    @pytest.mark.parametrize("op, src", [("", "r1i"), ("f", "r1f")])
    def test_uninit_move_source(self, op, src):
        # an assignment copies None silently, so block code guards moves
        dest = src.replace("1", "2")
        msg = _error_both(f"function t:\nA:\n  {dest} = {src}\n  halt\n",
                          SimulationError)
        assert msg.startswith(
            f"read of uninitialized register: <{op}mov {dest} {src}")

    def test_runaway_loop(self):
        msg = _error_both(
            "function t:\nA:\n  jmp A\n", SimulationError, max_cycles=500,
        )
        assert "exceeded 500 cycles" in msg

    # a two-block loop: the add issues at even cycles, the branch waits
    # for it at odd ones, so the budget runs out on the branch's stall
    # (its block B) or after the taken back edge (its target H)
    TWO_BLOCK_LOOP = ("function t:\nH:\n  r1i = r1i + 1\nB:\n"
                      "  blt (r1i 1000000) H\n  halt\n")

    @pytest.mark.parametrize("max_cycles, block", [(100, "B"), (101, "H")])
    @pytest.mark.parametrize("trip", [1000000, 120])
    def test_runaway_names_the_block_control_is_in(self, max_cycles, block,
                                                   trip):
        # 10**6 trips outrun block code's segment budget, 120 only the
        # replay's cycle budget
        text = self.TWO_BLOCK_LOOP.replace("1000000", str(trip))
        assert _loops(text) == []
        msg = _error_both(text, SimulationError, iregs={1: 0},
                          max_cycles=max_cycles)
        assert msg == f"exceeded {max_cycles} cycles in t (at block {block})"

    def test_a_halt_at_the_budget_is_not_a_runaway(self):
        # the second add waits for the first, and the halt joins its
        # packet at cycle 1, the last the budget allows: the run takes
        # 2 cycles and ends, on both engines (a halt closes no packet
        # the reference checks)
        interp, compiled = _run_both(
            "function t:\nA:\n  r1i = r1i + 1\n  r2i = r1i + 1\n  halt\n",
            iregs={1: 0}, max_cycles=1)
        assert (interp.cycles, interp.instructions) == (
            compiled.cycles, compiled.instructions) == (2, 3)

    def test_healthy_program_identical(self):
        interp, compiled = _run_both(
            """
function t:
A:
  r1i = 0
L:
  r1i = r1i + 1
  blt (r1i 10) L
""",
        )
        assert interp.cycles == compiled.cycles
        assert interp.instructions == compiled.instructions
        assert interp.iregs == compiled.iregs

    # -- faults inside a self-loop block: registers live in locals there,
    # and one write-back must leave the banks as the reference's are

    def test_loop_division_by_zero_on_the_third_iteration(self):
        text = """
function t:
A:
  r1i = 0
L:
  r1i = r1i + 1
  r3i = r2i - r1i
  r4i = r5i / r3i
  blt (r1i 10) L
  halt
"""
        assert _loops(text) == ["L"]
        msg = _error_both(text, SimulationError, iregs={2: 3, 5: 10})
        assert msg.startswith("division by zero: <div r4i r5i r3i")

    def test_loop_side_exit_target_reads_an_uninitialized_register(self):
        text = """
function t:
A:
  r1i = 0
L:
  r1i = r1i + 1
  beq (r1i 5) X
  blt (r1i 10) L
  halt
X:
  r3i = r1i + r9i
  halt
"""
        assert _loops(text) == ["L"]
        msg = _error_both(text, SimulationError)
        assert msg.startswith(
            "read of uninitialized register: <add r3i r1i r9i")

    def test_loop_load_walks_off_an_eight_word_array(self):
        text = """
function t:
A:
  r1i = 0
L:
  r2f = MEM(A+r1i)
  r1i = r1i + 4
  blt (r1i 100) L
  halt
"""
        assert _loops(text, _eight_word_memory) == ["L"]
        msg = _error_both(text, SimMemoryError, mem_fn=_eight_word_memory)
        assert msg.startswith(
            f"load from uninitialized address {0x1000 + 8 * 4:#x}")

    @pytest.mark.parametrize("back_edge", ["jmp L", "blt (r1i 1000000) L"])
    def test_loop_with_a_body_runs_away(self, back_edge):
        text = f"""
function t:
A:
  r1i = 0
L:
  r1i = r1i + 1
  r2i = r1i * 2
  {back_edge}
  halt
"""
        assert _loops(text) == ["L"]
        msg = _error_both(text, SimulationError, max_cycles=300)
        assert msg == "exceeded 300 cycles in t (at block L)"

    def test_loop_exits_before_writing_a_write_only_register(self):
        text = """
function t:
A:
  r1i = 0
L:
  r1i = r1i + 1
  bge (r1i 1) X
  r5i = r1i * 2
  jmp L
X:
  halt
"""
        assert _loops(text) == ["L"]
        interp, compiled = _run_both(text)
        assert 5 not in compiled.iregs
        assert (interp.iregs, interp.cycles, interp.instructions) == (
            compiled.iregs, compiled.cycles, compiled.instructions)
        msg = _error_both(text.replace("X:\n  halt", "X:\n  r6i = r5i + 1"),
                          SimulationError)
        assert msg.startswith(
            "read of uninitialized register: <add r6i r5i 1")

    def test_loop_uninitialized_vector_operand(self):
        text = """
function t:
A:
  r1i = 0
L:
  r1vf = vpackf.2(r1f, r2f)
  r2vf = vfadd.2(r1vf, r3vf)
  r1i = r1i + 1
  blt (r1i 4) L
  halt
"""
        assert _loops(text) == ["L"]
        msg = _error_both(text, SimulationError, fregs={1: 1.0, 2: 2.0})
        assert msg.startswith(
            "read of uninitialized register: <vfadd r2vf r1vf r3vf")

    def test_loop_vector_divide_by_a_zero_lane(self):
        text = """
function t:
A:
  r1i = 0
L:
  r2f = r2f - 0.5
  r1vf = vpackf.2(r1f, r2f)
  r2vf = vfdiv.2(r1vf, r1vf)
  r1i = r1i + 1
  blt (r1i 10) L
  halt
"""
        assert _loops(text) == ["L"]
        msg = _error_both(text, SimulationError, fregs={1: 4.0, 2: 1.0})
        assert msg.startswith("division by zero: <vfdiv r2vf r1vf r1vf")

    def test_loop_side_exit_writes_back_the_end_state(self):
        interp, compiled = _run_both(
            """
function t:
A:
  r1i = 0
L:
  r1i = r1i + 1
  r1f = r1f + 1.5
  r7i = r1i * 3
  r3vf = vpackf.2(r1f, r1f)
  r4vf = vfmul.2(r3vf, r3vf)
  r2f = vextf.2(r4vf, 1)
  beq (r1i 7) X
  blt (r1i 100) L
  halt
X:
  r2i = r1i + r7i
  halt
""",
            fregs={1: 0.0},
        )
        assert (interp.cycles, interp.instructions) == (
            compiled.cycles, compiled.instructions)
        assert interp.iregs == compiled.iregs
        assert repr(interp.fregs) == repr(compiled.fregs)
        assert compiled.iregs[2] == 28 and compiled.fregs[2] == 10.5 ** 2


def _loops(text, mem_fn=None) -> list[str]:
    """Labels of the blocks the compiled engine runs as self-loops."""
    f = parse_function(text)
    mem = mem_fn() if mem_fn else Memory()
    plan = exec_plan(compiled_program(f, unlimited(), mem.symbols))
    return [b.label for b, loop in zip(f.blocks, plan.block_loops) if loop]


def _eight_word_memory():
    m = Memory()
    m.bind_array("A", np.arange(8.0))
    return m


def _one_slot_memory():
    m = Memory()
    m.bind_array("A", np.zeros(4))
    return m

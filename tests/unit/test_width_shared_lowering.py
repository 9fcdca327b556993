"""A cell's widths are one set of instructions in different orders.

``TracedRun`` lowers the cell once and times every other width from the
timing rows of that lowering (``TracedRun.time(func, machine)``); the
public per-width path (``compiled_program`` + ``replay_spec``) and the
timed reference evaluator (``engine="interp"``) are the references.  What is not a reschedule of the traced
program is ``ReplayUnmapped``, from ``time`` and from the runner alike.

The colourer's bit-sliced degrees must pop in the order of the lazy
heap the colourer once used; the heap lives on here as the reference.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush

import pytest

from repro.check.fuzz import random_workload
from repro.harness import (
    BatchedRunner,
    bind_inputs,
    evaluate_cell,
    ilp_transform,
    lower_conv,
    run_compiled_kernel,
    schedule_kernel,
)
from repro.ir.instructions import Kind
from repro.ir.operands import Reg, RegClass
from repro.machine import PAPER_LATENCIES, MachineConfig
from repro.pipeline import Level
from repro.regalloc import color_class
from repro.regalloc.interference import InterferenceGraph, bits
from repro.sim import (
    ReplayUnmapped,
    TracedRun,
    compiled_program,
    exec_plan,
    execute_plan,
    replay,
    replay_spec,
)
from repro.workloads import all_workloads, get_workload

LEVELS = (Level.LEV2, Level.LEV4, Level.LEV5)
WIDTHS = (1, 2, 4, 8)


def _schedules(tk, machines):
    return [schedule_kernel(tk.clone(), m) for m in machines]


def _traced(ck, arrays, scalars) -> TracedRun:
    mem, iregs, fregs = bind_inputs(ck.lowered, arrays, scalars)
    return TracedRun(compiled_program(ck.func, ck.machine, mem.symbols),
                     mem, iregs, fregs)


def _interp(ck, arrays, scalars) -> tuple[int, int]:
    run = run_compiled_kernel(ck, arrays, scalars, engine="interp")
    return run.cycles, run.instructions


def assert_widths_agree(w) -> None:
    """Widths 2/4/8 of every level: shared rows == per-width lowering ==
    reference, from a trace of the width-1 schedule."""
    arrays, scalars = w.make_inputs(0)
    conv = lower_conv(w.build())
    for level in LEVELS:
        tk = ilp_transform(conv.clone(), level, MachineConfig())
        cks = _schedules(tk, [MachineConfig(issue_width=x) for x in WIDTHS])
        first = cks[0]
        trace = _traced(first, arrays, scalars)
        # the reference: its own plan and execution, one lowering a width
        mem, iregs, fregs = bind_inputs(first.lowered, arrays, scalars)
        plan = exec_plan(
            compiled_program(first.func, first.machine, mem.symbols))
        segs, _, _ = execute_plan(plan, mem, iregs, fregs)
        for ck in cks:
            ctx = (w.name, level, ck.machine.issue_width)
            shared = trace.time(ck.func, ck.machine)
            lowered = replay(segs, replay_spec(plan, compiled_program(
                ck.func, ck.machine, mem.symbols)))
            assert shared == lowered == _interp(ck, arrays, scalars), ctx
        assert (trace.cycles, trace.instructions) == trace.time(
            first.func, first.machine)


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_corpus_widths_share_one_lowering(w):
    assert_widths_agree(w)


def test_fuzz_widths_share_one_lowering():
    for seed in range(50):
        assert_widths_agree(random_workload(seed))


class TestWhatIsNotAReschedule:
    """Each target below is outside the shared table: ``time`` and the
    runner both say ``ReplayUnmapped``."""

    @staticmethod
    def _cell(name: str):
        w = get_workload(name)
        arrays, scalars = w.make_inputs(0)
        tk = ilp_transform(lower_conv(w.build()), Level.LEV4, MachineConfig())
        return tk, arrays, scalars

    @pytest.fixture
    def cell(self):
        return self._cell("dotprod")

    def _assert_unmapped(self, first, target, arrays, scalars):
        with pytest.raises(ReplayUnmapped):
            _traced(first, arrays, scalars).time(target.func, target.machine)
        runner = BatchedRunner(first, arrays, scalars)
        with pytest.raises(ReplayUnmapped):
            runner.run(target)
        assert runner.run(first).cycles == _interp(first, arrays, scalars)[0]

    def test_foreign_schedule(self, cell):
        tk, arrays, scalars = cell
        (first,) = _schedules(tk, [MachineConfig(issue_width=1)])
        w = get_workload("dotprod")
        foreign_tk = ilp_transform(lower_conv(w.build()), Level.LEV4,
                                   MachineConfig())
        (foreign,) = _schedules(foreign_tk, [MachineConfig(issue_width=4)])
        self._assert_unmapped(first, foreign, arrays, scalars)

    def test_block_with_an_instruction_dropped(self):
        tk, arrays, scalars = self._cell("add")
        first, short = _schedules(
            tk, [MachineConfig(issue_width=1), MachineConfig(issue_width=4)])
        body = short.sb.body.instrs
        # without a store every register is still defined where it is read
        body.remove(next(i for i in body if i.is_store))
        self._assert_unmapped(first, short, arrays, scalars)

    def test_another_latency_table(self, cell):
        tk, arrays, scalars = cell
        slow_mul = MachineConfig(
            issue_width=4, latencies={**PAPER_LATENCIES, Kind.FP_MUL: 5})
        first, other = _schedules(tk, [MachineConfig(issue_width=1), slow_mul])
        self._assert_unmapped(first, other, arrays, scalars)
        # the public per-width path lowers for the target's own latencies
        mem, iregs, fregs = bind_inputs(first.lowered, arrays, scalars)
        plan = exec_plan(
            compiled_program(first.func, first.machine, mem.symbols))
        segs, _, _ = execute_plan(plan, mem, iregs, fregs)
        assert replay(segs, replay_spec(plan, compiled_program(
            other.func, slow_mul, mem.symbols))) == _interp(
                other, arrays, scalars)

    def test_every_buildable_machine_has_a_replay_model(self, cell):
        tk, arrays, scalars = cell
        limited = MachineConfig(issue_width=4, slot_limits={Kind.LOAD: 1})
        first, a = _schedules(tk, [MachineConfig(issue_width=1), limited])
        trace = _traced(first, arrays, scalars)
        assert trace.time(a.func, a.machine) == _interp(a, arrays, scalars)
        # a latency below one cycle is refused where the machine is built
        with pytest.raises(ValueError, match="latency below 1 cycle"):
            MachineConfig(issue_width=4,
                          latencies={**PAPER_LATENCIES, Kind.INT_ALU: 0})
        with pytest.raises(ValueError, match="slot limit below 1"):
            MachineConfig(issue_width=4, slot_limits={Kind.LOAD: 0})

    def test_cell_of_mixed_latency_tables_is_refused(self):
        machines = [
            MachineConfig(issue_width=1),
            MachineConfig(issue_width=2,
                          latencies={**PAPER_LATENCIES, Kind.FP_MUL: 5}),
        ]
        with pytest.raises(ValueError, match="latency_key"):
            evaluate_cell(get_workload("dotprod"), Level.LEV4, machines)


# ---------------------------------------------------------------------------
# colouring: the bit-sliced degrees pop what the lazy heap popped
# ---------------------------------------------------------------------------


def heap_pop_order(g: InterferenceGraph, cls: RegClass) -> list[int]:
    """The simplification order of the lazy heap ``color_class`` used:
    one entry per degree decrement, stale entries discarded on pop."""
    members = g.node_mask & g.class_mask[cls]
    degree = {i: g.adj[i].bit_count() for i in bits(members)}
    heap = [(d, i) for i, d in degree.items()]
    heapify(heap)
    removed = 0
    order: list[int] = []
    while heap:
        d, i = heappop(heap)
        if removed >> i & 1 or d != degree[i]:
            continue
        removed |= 1 << i
        order.append(i)
        for n in bits(g.adj[i] & ~removed):
            degree[n] -= 1
            heappush(heap, (degree[n], n))
    return order


def random_graph(rng: random.Random) -> InterferenceGraph:
    """Two to four classes of registers; inside a class, edges drawn at a
    density that leaves ties, isolated nodes and a few registers outside
    the node set."""
    classes = list(RegClass)[: rng.randint(2, 4)]
    regs = [Reg(k + 1, cls) for cls in classes
            for k in range(rng.randint(0, 24))]
    index = {r: i for i, r in enumerate(regs)}
    class_mask = dict.fromkeys(RegClass, 0)
    for r, i in index.items():
        class_mask[r.cls] |= 1 << i
    adj = [0] * len(regs)
    density = rng.choice((0.05, 0.2, 0.5, 0.9))
    for i, a in enumerate(regs):
        for j in range(i + 1, len(regs)):
            if regs[j].cls is a.cls and rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    node_mask = 0
    for i, row in enumerate(adj):
        if row or rng.random() < 0.7:  # an edgeless register may be a node
            node_mask |= 1 << i
    return InterferenceGraph(regs, index, adj, node_mask, class_mask)


def test_colourer_pops_in_heap_order():
    rng = random.Random(22)
    seen_isolated = seen_ties = 0
    for _ in range(200):
        g = random_graph(rng)
        for cls in RegClass:
            colors = color_class(g, cls)
            # colours are assigned down the stack: insertion order is the
            # pop order, reversed
            popped = [g.index[r] for r in reversed(colors)]
            assert popped == heap_pop_order(g, cls)
            degrees = [g.adj[i].bit_count() for i in popped]
            seen_isolated += 0 in degrees
            seen_ties += len(set(degrees)) < len(degrees)
            for r, c in colors.items():
                assert all(colors[n] != c for n in g.neighbors(r))
    assert seen_isolated > 50 and seen_ties > 50

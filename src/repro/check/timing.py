"""The cycle reference: in-order issue timing of the executed instruction
stream.

The paper's machine issues in order with register interlocks, and a
branch closes its issue packet (:mod:`repro.machine`), so a run's cycle
count depends only on its dynamic instruction sequence.  The reference
evaluator (:mod:`repro.check.refeval`) produces that sequence; an
:class:`IssueTimer`, whose ``issue`` is its ``on_instr`` hook, times it one
instruction at a time, holding nothing per instruction (``events``, when
given, records ``(cycle, instr)`` issues for :mod:`repro.sim.trace`).

The model: an instruction issues at the first cycle where its register
sources are ready and its write would complete strictly after the
pending write of its destination (WAW: ``ready - latency + 1``); a packet
holds at most ``issue_width`` instructions and each limited kind's slots;
an instruction that cannot join the open packet closes it, unless the
packet is still empty, which then waits for it (the idle-packet
fast-forward); branches and jumps close their packet.  A run takes
``last_issue + 1`` cycles.  Each row comes from the IR and the
:class:`~repro.machine.MachineConfig` alone, never from the compiled
engine's tables, so the oracle's comparison with replay is between two
independent programs.
"""

from __future__ import annotations

import sys

from ..ir.function import Function
from ..ir.instructions import Instr, Op
from ..ir.operands import Reg, RegClass
from ..machine import MachineConfig
from ..sim.errors import SimulationError
from ..sim.memory import Memory
from ..sim.simulator import RunResult
from .refeval import ref_eval

_CLASS = {RegClass.INT: 0, RegClass.FP: 1, RegClass.VINT: 2, RegClass.VFP: 3}


def _key(r: Reg) -> int:
    return r.id << 2 | _CLASS[r.cls]


class IssueTimer:
    """Times the instructions it is handed, in order: ``issue`` is
    :func:`~repro.check.refeval.ref_eval`'s ``on_instr`` hook.  A packet
    that starts past ``max_cycles`` raises the simulator's ``exceeded``
    error, naming the block control is in: that of the instruction that
    waits for the packet or, after a branch, its target if it was taken
    (judged by where execution resumes; a branch to its own fall-through
    counts as taken) and its own block if not."""

    def __init__(self, func: Function, machine: MachineConfig,
                 max_cycles: int = 200_000_000, events: list | None = None):
        slots = {kind: i for i, kind in enumerate(machine.slot_limits)}
        # the first instruction at or after each block: where a taken
        # branch to it resumes
        resume, first = {}, None
        for blk in reversed(func.blocks):
            if blk.instrs:
                first = id(blk.instrs[0])
            resume[blk.label] = first

        def closes(ins: Instr, label: str):
            """(block if not taken, target, target's resume point) of a
            branch or jump; None for what does not close (halt ends the
            run instead)."""
            if not ins.is_control or ins.op is Op.HALT:
                return None
            target = ins.target.name
            return (target if ins.is_jump else label, target, resume[target])

        # per instruction: register sources, dest, latency, slot index and
        # limit of its kind, packet closing, its block
        rows = {
            id(ins): (tuple(_key(s) for s in ins.srcs if isinstance(s, Reg)),
                      _key(ins.dest) if ins.dest is not None else None,
                      machine.latency(ins.op), slots.get(ins.kind),
                      machine.slot_limits.get(ins.kind),
                      closes(ins, blk.label), blk.label)
            for blk in func.blocks for ins in blk.instrs
        }
        self._run = self._packets(rows, machine.issue_width or sys.maxsize,
                                  len(slots), max_cycles, func.name, events)
        next(self._run)
        self.issue = self._run.send

    def result(self) -> tuple[int, int]:
        """``(cycles, instructions)`` of what was issued: ``last_issue +
        1`` cycles.  Raises if the last instruction was a branch whose
        next packet would start past the budget."""
        return self._run.send(None)

    @staticmethod
    def _packets(rows, width, n_slots, max_cycles, name, events):
        def exceeded(label):
            return SimulationError(f"exceeded {max_cycles} cycles in {name} "
                                   f"(at block {label})")

        ready: dict[int, int] = {}  # register -> cycle its value is ready
        get = ready.get
        used = [0] * n_slots
        cycle = issued = n = 0
        last = -1
        closed = None  # closes() of the branch that closed the last packet
        out = None
        while True:
            ins = yield out
            if closed is not None and cycle > max_cycles:
                own, target, at = closed
                taken = at == (None if ins is None else id(ins))
                raise exceeded(target if taken else own)
            closed = None
            if ins is None:
                out = (last + 1, n)
                continue
            srcs, dest, lat, slot, limit, branch, label = rows[id(ins)]
            while True:
                if issued < width:
                    need = cycle
                    for s in srcs:
                        t = get(s, 0)
                        if t > need:
                            need = t
                    if dest is not None and get(dest, 0) - lat + 1 > need:
                        need = get(dest, 0) - lat + 1
                    if need > cycle and not issued:
                        cycle = need  # an idle packet waits for it
                    if need <= cycle and (slot is None or used[slot] < limit):
                        break
                # the open packet closes; the instruction waits for the next
                cycle += 1
                issued = 0
                used = [0] * n_slots
                if cycle > max_cycles:
                    raise exceeded(label)
            if slot is not None:
                used[slot] += 1
            issued += 1
            n += 1
            last = cycle
            if dest is not None:
                ready[dest] = cycle + lat
            if events is not None:
                events.append((cycle, ins))
            if branch is not None:
                cycle += 1
                issued = 0
                used = [0] * n_slots
                closed = branch


def run_reference(
    func: Function,
    machine: MachineConfig,
    memory: Memory | None = None,
    iregs: dict[int, int] | None = None,
    fregs: dict[int, float] | None = None,
    max_cycles: int = 200_000_000,
    events: list | None = None,
) -> RunResult:
    """Run ``func`` on the reference evaluator, timed by an
    :class:`IssueTimer`: the ``RunResult`` the compiled engine must
    reproduce (``simulate(..., engine="interp")``)."""
    memory = memory if memory is not None else Memory()
    timer = IssueTimer(func, machine, max_cycles, events)
    # the timer is the budget: it raises long before the step count would
    res = ref_eval(func, memory, iregs, fregs, max_steps=sys.maxsize,
                   on_instr=timer.issue)
    cycles, instructions = timer.result()
    # registers in id order, as the compiled engine's banks list them
    return RunResult(cycles, instructions,
                     dict(sorted(res.iregs.items())),
                     dict(sorted(res.fregs.items())), memory)

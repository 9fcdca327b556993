"""Execution-driven, cycle-accurate simulation.

Implements the paper's processor model (see :mod:`repro.machine`): in-order
issue of up to ``issue_width`` instructions per cycle, register interlocks
with deterministic latencies, one branch per cycle (a branch terminates its
issue packet), 100% cache hits.

The simulator is *execution driven*: it computes real values, follows real
branch outcomes, and mutates simulated memory, so transformation
correctness is checked at the same time performance is measured.

Every cycle count the repo reports comes from :class:`TracedRun`: block
code (:mod:`repro.sim.blockgen`) executes the program once and
:mod:`repro.sim.replay` times the trace on any machine.  The reference
it is checked against is the sequential evaluator of
:mod:`repro.check.refeval` timed by :mod:`repro.check.timing`, reached
only by naming it (``engine="interp"``, :func:`repro.sim.trace.trace_run`).
Reads of never-written registers surface as :class:`SimulationError`
rather than silently producing zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir.function import Function
from ..machine import MachineConfig
from .blockgen import exec_plan, execute_plan
from .executor import CompiledProgram, compiled_program
from .memory import Memory
from .replay import ReplaySpec, ReplayUnmapped, replay, timing_rows


def check_engine(engine: str) -> None:
    """Refuse an engine name other than ``"auto"`` (the compiled engine)
    and ``"interp"`` (the timed reference): a typo must not run the
    compiled engine silently."""
    if engine not in ("auto", "interp"):
        raise ValueError(f"unknown engine {engine!r} (known: auto, interp)")


@dataclass
class RunResult:
    """Outcome of simulating one function to completion."""

    cycles: int
    instructions: int
    iregs: dict[int, int]
    fregs: dict[int, float]
    memory: Memory

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def simulate(
    func: Function,
    machine: MachineConfig,
    memory: Memory | None = None,
    iregs: dict[int, int] | None = None,
    fregs: dict[int, float] | None = None,
    max_cycles: int = 200_000_000,
    engine: str = "auto",
) -> RunResult:
    """Run ``func`` to completion on the given machine configuration.

    ``iregs`` / ``fregs`` provide live-in register values; ``memory``
    supplies bound arrays and the symbol table.  Execution starts at the
    entry block and ends when control falls off the end of the last block.

    The compiled engine (:class:`TracedRun`, ``engine="auto"``, the
    default) runs it; ``engine="interp"`` names the reference instead
    (:func:`repro.check.timing.run_reference`), whose results are
    bit-identical.  Any other name is a ``ValueError``.
    """
    check_engine(engine)
    memory = memory if memory is not None else Memory()
    if engine == "interp":
        from ..check import timing  # the reference imports this module

        return timing.run_reference(func, machine, memory, iregs, fregs,
                                    max_cycles)
    prog = compiled_program(func, machine, memory.symbols)
    t = TracedRun(prog, memory, iregs or {}, fregs or {}, max_cycles)
    return RunResult(t.cycles, t.instructions, t.iregs, t.fregs, memory)


class TracedRun:
    """The compiled engine: one execution of a program, timed for any
    issue width.

    Construction generates block code for ``prog``, executes it once
    (mutating ``memory``, which it does not keep) and replays the
    recorded trace on ``prog``'s own machine: ``cycles``,
    ``instructions`` and the end-state ``iregs`` / ``fregs`` are exactly
    the reference's.  It owns the plan, the trace and the timing rows
    of the instructions it lowered; nothing outlives it.
    """

    def __init__(
        self,
        prog: CompiledProgram,
        memory: Memory,
        iregs: dict[int, int],
        fregs: dict[int, float],
        max_cycles: int = 200_000_000,
    ):
        self._plan = exec_plan(prog)
        self._rows = timing_rows(prog)
        spec = ReplaySpec(self._plan, prog.machine, prog.func, self._rows)
        segs, ivals, fvals = execute_plan(
            self._plan, memory, iregs, fregs, max_cycles)
        # converted once per cell, not once per replayed width
        self._segs = np.asarray(segs, dtype=np.int64)
        self._max_cycles = max_cycles
        self.iregs, self.fregs = _bank_dict(ivals), _bank_dict(fvals)
        self.cycles, self.instructions = replay(self._segs, spec, max_cycles)

    def time(self, func: Function, machine: MachineConfig) -> tuple[int, int]:
        """``(cycles, instructions)`` of the traced execution under
        ``func``'s schedule on ``machine``.  ``func`` must be a
        reschedule of the traced function — the same instruction objects
        block by block, in any order — and ``machine`` must have the
        traced machine's latencies, which the shared timing rows carry
        (else ``ReplayUnmapped``); its width and slot limits are its
        own."""
        spec = ReplaySpec(self._plan, machine, func, self._rows)
        if machine.latencies != self._plan.prog.machine.latencies:
            raise ReplayUnmapped("latencies differ from the traced machine's")
        return replay(self._segs, spec, self._max_cycles)


def _bank_dict(vals: list) -> dict:
    """Registers that hold a value (live-in or written) as an id->value map."""
    return {i: v for i, v in enumerate(vals) if v is not None}

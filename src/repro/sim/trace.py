"""Execution traces and ASCII pipeline diagrams.

:func:`trace_run` runs a function on the cycle reference
(:mod:`repro.check.timing`) and collects its ``(cycle, instruction)``
issue events (the compiled engine times whole segments and never sees a
single issue); render them with:

* :func:`render_packets` — one line per cycle showing the issue packet
  (what actually went down the pipe together);
* :func:`render_pipeline` — a Gantt-style diagram, instructions down the
  side, cycles across, ``I``/``=`` marking issue and execution latency.

Useful for seeing interlock stalls, branch-packet boundaries, and the
overlap the transformations create.
"""

from __future__ import annotations

from collections import defaultdict

from ..ir.function import Function
from ..ir.instructions import Instr
from ..ir.printer import format_instr
from ..machine import MachineConfig
from .memory import Memory
from .simulator import RunResult


def trace_run(
    func: Function,
    machine: MachineConfig,
    memory: Memory | None = None,
    iregs: dict[int, int] | None = None,
    fregs: dict[int, float] | None = None,
    max_cycles: int = 200_000_000,
) -> tuple[RunResult, list[tuple[int, Instr]]]:
    """Run ``func`` like :func:`repro.sim.simulate` and return its result
    with the issue events ``(cycle, instruction)`` in issue order."""
    from ..check.timing import run_reference  # it imports this package

    trace: list[tuple[int, Instr]] = []
    res = run_reference(func, machine, memory, iregs, fregs, max_cycles,
                        events=trace)
    return res, trace


def render_packets(
    trace: list[tuple[int, Instr]],
    start: int = 0,
    limit: int = 30,
) -> str:
    """Issue packets per cycle (skipping empty stall cycles, which are
    annotated)."""
    by_cycle: dict[int, list[Instr]] = defaultdict(list)
    for cycle, ins in trace:
        by_cycle[cycle].append(ins)
    cycles = sorted(c for c in by_cycle if c >= start)[:limit]
    out = []
    prev = None
    for c in cycles:
        if prev is not None and c > prev + 1:
            out.append(f"          ... {c - prev - 1} stall cycle(s) ...")
        packet = " | ".join(format_instr(i) for i in by_cycle[c])
        out.append(f"cycle {c:>4}: {packet}")
        prev = c
    return "\n".join(out)


def render_pipeline(
    trace: list[tuple[int, Instr]],
    machine: MachineConfig,
    start: int = 0,
    n_instrs: int = 24,
    width: int = 64,
) -> str:
    """Gantt diagram: 'I' at the issue cycle, '=' through completion."""
    events = [(c, i) for c, i in trace if c >= start][:n_instrs]
    if not events:
        return "(empty trace)"
    c0 = events[0][0]
    rows = []
    label_w = max(len(format_instr(i)) for _, i in events) + 2
    header = " " * label_w + "".join(
        str((c0 + k) % 10) for k in range(width)
    )
    rows.append(header)
    for c, ins in events:
        lat = machine.latency(ins.op)
        line = [" "] * width
        off = c - c0
        if off < width:
            line[off] = "I"
            for k in range(1, lat):
                if off + k < width:
                    line[off + k] = "="
        rows.append(f"{format_instr(ins):<{label_w}}" + "".join(line))
    return "\n".join(rows)

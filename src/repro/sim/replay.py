"""Width-batched timing replay: the timing half of the fast engine.

The in-order model's dynamic control trace depends only on *values*,
never on the issue width: branch outcomes are value-determined, and the
dependence graph keeps branches in order, so the sequence of (block,
taken-exit) segments recorded by :mod:`repro.sim.blockgen` is identical
for every width of one (workload, level) cell.  What differs per width
is only the *timing* — issue packing, flow/WAW interlocks, and the
branch-per-cycle rule — plus which speculated instructions sit above
each block's exit in that width's schedule.

So each cell executes once and replays N times.  A replay walks the
segment trace through a tiny timing state machine that mirrors the
interpreter's packet loop exactly:

* state between segments is ``(instructions already issued into the
  open packet, in-flight writes as (register, cycles-until-ready))``;
* a segment transition issues the target schedule's instruction prefix
  for that segment (everything up to and including its exit in *that
  width's* block order), mirroring the interpreter's check order:
  packet-full first, then flow/WAW readiness with the idle-packet
  fast-forward, branches closing their packet;
* transitions are memoized per (segment, entry state): steady-state
  loop iterations hit the memo instead of re-walking instructions;
* when the (segment, state) pair recurs — a periodic steady state —
  the replay matches the whole repeating segment pattern against the
  remaining trace with one vectorized NumPy comparison and skips every
  full period at once (cycle and last-issue advance by exact multiples).

Dropping in-flight writes that completed at or before the segment
boundary is exact *because every latency is at least 1*: a completed
write imposes no flow constraint, and its WAW bound ``ready - lat + 1``
cannot exceed the current cycle.  Machines with a sub-1 latency or with
per-kind slot limits fall back to the full simulator
(:class:`ReplayUnsupported`).

Instruction counts come from the same trace: ``bincount(segments) ·
segment_length`` with per-width segment lengths (a width that speculated
more above an exit issues more instructions — exactly as the full
simulator counts them).
"""

from __future__ import annotations

import numpy as np

from ..ir.function import Function
from ..machine import MachineConfig
from .blockgen import FALL, ExecPlan
from .errors import SimulationError
from .executor import CompiledProgram

#: categories that close an issue packet (branch/jump/halt)
from .executor import C_BRANCH, C_HALT, C_JUMP

_CTRL = (C_BRANCH, C_JUMP, C_HALT)


class ReplayUnsupported(Exception):
    """This machine's timing cannot be replayed; run the full simulator."""


class ReplayUnmapped(Exception):
    """The target is not a reschedule of the traced program: its blocks
    are not permutations of the traced ones, or its latencies differ."""


def timing_rows(prog: CompiledProgram) -> list[dict[int, tuple]]:
    """Per block of ``prog``, instruction identity -> timing row.

    A row is what the packet loop needs of one instruction —
    ``(reg_source_keys, dest_key, latency, closes_packet)`` with
    registers packed to single ints (``bank << 24 | id``) so the
    in-flight dict is int-keyed — no tuple allocation per lookup.  It
    does not depend on the issue width, and width clones share their
    instruction objects: one table serves every reschedule of ``prog``
    on a machine with the same latencies, for as long as ``prog`` keeps
    the instructions alive.
    """
    table = []
    for code in prog.flat:
        rows = {}
        for cat, fn, srcs, rsrcs, db, di, lat, meta in code:
            rk = tuple(
                (rsrcs[x] << 24) | rsrcs[x + 1]
                for x in range(0, len(rsrcs), 2)
            )
            dk = (db << 24) | di if db >= 0 else -1
            rows[id(meta[2])] = (rk, dk, lat, cat in _CTRL)
        table.append(rows)
    return table


class ReplaySpec:
    """One target schedule's view of a plan's segments.

    ``rows[s]`` is the tuple of timing rows (see :func:`timing_rows`)
    the target machine issues for segment ``s``: the target block's
    scheduled order up to and including the exit instruction, or the
    whole block for a fall-through.  ``func`` is the target schedule —
    the traced function or a width clone of it — and ``table`` the
    timing rows of its instructions under ``machine``'s latencies.
    ``seg_len[s]`` is the per-width instruction count.
    """

    def __init__(self, plan: ExecPlan, machine: MachineConfig,
                 func: Function, table: list[dict[int, tuple]]):
        if machine.slot_limits:
            raise ReplayUnsupported("per-kind slot limits")
        if min(machine.latencies.values()) < 1:
            raise ReplayUnsupported("latency below 1 cycle")
        if [b.label for b in func.blocks] != plan.prog.labels:
            raise ReplayUnmapped("block structure differs")
        self.plan = plan
        self.width = machine.issue_width if machine.issue_width > 0 else 1 << 30
        views = []
        for blk, known in zip(func.blocks, table):
            view = tuple(map(known.get, map(id, blk.instrs)))
            if len(view) != len(known) or None in view:
                raise ReplayUnmapped(
                    f"block {blk.label} is not a reschedule of the traced one")
            views.append(view)
        self.rows: list[tuple] = []
        for b, exit_ci in zip(plan.seg_block, plan.seg_exit):
            if exit_ci is FALL:
                self.rows.append(views[b])
                continue
            blk = func.blocks[b]
            try:  # located by identity: ``Instr`` has no ``__eq__``
                p = blk.instrs.index(exit_ci.instr)
            except ValueError:
                raise ReplayUnmapped(
                    f"exit {exit_ci.instr!r} not in target block "
                    f"{blk.label}") from None
            self.rows.append(views[b][: p + 1])
        self.seg_len = np.array([len(r) for r in self.rows], dtype=np.int64)


def replay_spec(plan: ExecPlan, prog: CompiledProgram) -> ReplaySpec:
    """``prog``'s view of ``plan``'s segments: raises
    :class:`ReplayUnsupported` for a machine outside the timing model,
    :class:`ReplayUnmapped` when ``prog`` is not a reschedule of the
    traced program.  ``prog.func`` must still be in the order it was
    lowered in."""
    return ReplaySpec(plan, prog.machine, prog.func, timing_rows(prog))


def _transition(rows: tuple, state: tuple, width: int):
    """Issue one segment's instructions from ``state``; returns
    ``(cycle_delta, last_issue_delta, exit_state)``.

    Mirrors the interpreter's packet loop: packet-full check first, then
    operand/WAW readiness (fast-forwarding an idle packet to the stall
    end, closing a non-empty one), control instructions closing their
    packet.  Cycles are relative to segment entry; ``last_issue_delta``
    is -1 when nothing issued (empty fall-through blocks).
    """
    issued, inflight = state
    ready = dict(inflight)
    get = ready.get
    cycle = 0
    dli = -1
    for rk, dk, lat, closes in rows:
        while True:
            if issued >= width:
                issued = 0
                cycle += 1
                continue
            need = cycle
            for k in rk:
                t = get(k, 0)
                if t > need:
                    need = t
            if dk >= 0:
                t = get(dk, 0) - lat + 1
                if t > need:
                    need = t
            if need > cycle:
                if issued == 0:
                    cycle = need
                else:
                    issued = 0
                    cycle += 1
                    continue
            break
        issued += 1
        dli = cycle
        if dk >= 0:
            ready[dk] = cycle + lat
        if closes:
            # a branch (taken or not), jump, or halt closes the packet
            issued = 0
            cycle += 1
    pruned = [(k, v - cycle) for k, v in ready.items() if v > cycle]
    pruned.sort()
    return cycle, dli, (issued, tuple(pruned))


def replay(
    segs: list[int] | np.ndarray,
    spec: ReplaySpec,
    max_cycles: int = 200_000_000,
) -> tuple[int, int]:
    """Replay a segment trace under ``spec``'s machine; returns
    ``(cycles, instructions)`` — identical to full simulation."""
    arr = np.asarray(segs, dtype=np.int64)
    n = int(arr.size)
    n_instr = 0
    if n:
        counts = np.bincount(arr, minlength=len(spec.seg_len))
        n_instr = int(counts @ spec.seg_len)

    rows = spec.rows
    width = spec.width
    plan = spec.plan
    name = plan.prog.func.name
    labels = plan.prog.labels
    seg_block = plan.seg_block
    memo: dict = {}
    seen: dict = {}
    sl = arr.tolist()
    state = (0, ())
    cycle = 0
    last_issue = -1
    i = 0
    while i < n:
        s = sl[i]
        key = (s, state)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _transition(rows[s], state, width)
        dc, dli, nstate = hit
        prev = seen.get(key)
        if prev is None:
            seen.setdefault(key, (i, cycle))
            if len(seen) > 65536:
                seen.clear()
        else:
            # periodic steady state: the trace from the first occurrence
            # repeats — match whole periods against the remaining trace in
            # one vectorized comparison and skip them all
            j, cj = prev
            p = i - j
            dcyc = cycle - cj
            if p > 0 and dcyc > 0:
                m = (n - i) // p
                if m > 0:
                    tile = arr[i : i + m * p].reshape(m, p)
                    bad = np.flatnonzero(~(tile == arr[j:i]).all(axis=1))
                    if bad.size:
                        m = int(bad[0])
                if m > 0:
                    # each period issues (dcyc > 0 implies a control exit),
                    # so last_issue advances by exactly dcyc per period
                    cycle += m * dcyc
                    last_issue += m * dcyc
                    i += m * p
                    seen.clear()
                    if cycle > max_cycles:
                        raise SimulationError(
                            f"exceeded {max_cycles} cycles in {name} "
                            f"(at block {labels[seg_block[s]]})"
                        )
                    continue
            seen[key] = (i, cycle)
        if dli >= 0:
            last_issue = cycle + dli
        cycle += dc
        state = nstate
        i += 1
        if cycle > max_cycles:
            raise SimulationError(
                f"exceeded {max_cycles} cycles in {name} "
                f"(at block {labels[seg_block[s]]})"
            )
    return last_issue + 1, n_instr

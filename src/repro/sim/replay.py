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
reference's packet model exactly:

* state between segments is ``(instructions already issued into the
  open packet, in-flight writes as (register, cycles-until-ready))``;
  on a machine with per-kind slot limits it also carries the open
  packet's issue count per limited kind (in ``slot_limits`` order) — a
  fall-through into the next block keeps filling the same packet;
* a segment transition issues the target schedule's instruction prefix
  for that segment (everything up to and including its exit in *that
  width's* block order), mirroring the reference timer's check order:
  packet-full first, then flow/WAW readiness with the idle-packet
  fast-forward, then the per-kind slot check (a kind at its limit
  closes the packet), branches closing their packet;
* transitions are memoized per (segment, entry state): steady-state
  loop iterations hit the memo instead of re-walking instructions;
* when the (segment, state) pair recurs — a periodic steady state —
  the replay matches the repeating segment pattern against the trace
  ahead (one period, then galloping NumPy chunks of 16, 32, 64 ...
  periods, up to the first mismatch) and skips every full period at
  once (cycle and last-issue advance by exact multiples).  The pairs
  recorded before a skip stay recorded, so in a nest the outer loop's
  period is found too, and skipped, once the inner one has been.

Dropping in-flight writes that completed at or before the segment
boundary is exact *because every latency is at least 1*: a completed
write imposes no flow constraint, and its WAW bound ``ready - lat + 1``
cannot exceed the current cycle.  :class:`~repro.machine.MachineConfig`
refuses a latency below 1, so every machine the repo can build has a
replay model.

Instruction counts come from the same trace: ``bincount(segments) ·
segment_length`` with per-width segment lengths (a width that speculated
more above an exit issues more instructions — exactly as the full
simulator counts them).
"""

from __future__ import annotations

import numpy as np

from ..ir.function import Function
from ..ir.instructions import Op
from ..machine import MachineConfig
from .blockgen import FALL, ExecPlan
from .errors import SimulationError
from .executor import C_BRANCH, C_HALT, C_JUMP, CONST, CompiledProgram

#: categories that close an issue packet (branch/jump/halt)
_CTRL = (C_BRANCH, C_JUMP, C_HALT)


class ReplayUnsupported(Exception):
    """Nothing raises this any more: every machine has a replay model.
    Kept importable for callers written when some did not."""


class ReplayUnmapped(Exception):
    """The target is not a reschedule of the traced program: its blocks
    are not permutations of the traced ones, or its latencies differ."""


def timing_rows(prog: CompiledProgram) -> list[dict[int, tuple]]:
    """Per block of ``prog``, instruction identity -> timing row.

    A row is what the packet loop needs of one instruction —
    ``(reg_source_keys, dest_key, latency, closes_packet, kind)`` with
    registers packed to single ints (``bank << 24 | id``) so the
    in-flight dict is int-keyed — no tuple allocation per lookup.  It
    does not depend on the issue width, and width clones share their
    instruction objects: one table serves every reschedule of ``prog``
    on a machine with the same latencies, for as long as ``prog`` keeps
    the instructions alive.
    """
    return [
        {id(ci.instr): (
            tuple(bank << 24 | key for bank, key in ci.srcs if bank != CONST),
            ci.dest[0] << 24 | ci.dest[1] if ci.dest is not None else -1,
            ci.lat, ci.cat in _CTRL, ci.kind)
         for ci in blk.code}
        for blk in prog.blocks
    ]


class ReplaySpec:
    """One target schedule's view of a plan's segments.

    ``rows[s]`` is the tuple of timing rows (see :func:`timing_rows`)
    the target machine issues for segment ``s``: the target block's
    scheduled order up to and including the exit instruction, or the
    whole block for a fall-through.  ``func`` is the target schedule —
    the traced function or a width clone of it — and ``table`` the
    timing rows of its instructions under ``machine``'s latencies.
    ``seg_len[s]`` is the per-width instruction count.  ``limits`` is
    the machine's per-kind slot limits (None without any) and ``start``
    the timing state at program entry.
    """

    def __init__(self, plan: ExecPlan, machine: MachineConfig,
                 func: Function, table: list[dict[int, tuple]]):
        if [b.label for b in func.blocks] != plan.prog.labels:
            raise ReplayUnmapped("block structure differs")
        self.plan = plan
        self.func = func
        self.width = machine.issue_width if machine.issue_width > 0 else 1 << 30
        self.limits = dict(machine.slot_limits) or None
        self.start = (0, ()) if self.limits is None else (
            0, (), (0,) * len(self.limits))
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
    :class:`ReplayUnmapped` when ``prog`` is not a reschedule of the
    traced program.  ``prog.func`` must still be in the order it was
    lowered in."""
    return ReplaySpec(plan, prog.machine, prog.func, timing_rows(prog))


def _transition(rows: tuple, state: tuple, width: int, limits):
    """Issue one segment's instructions from ``state``; returns
    ``(cycle_delta, last_issue_delta, exit_state, wait_delta)``.

    Mirrors the reference timer (:mod:`repro.check.timing`): packet-full
    check first, then operand/WAW readiness (fast-forwarding an idle
    packet to the stall end, closing a non-empty one), then — with
    ``limits`` — the per-kind slot check, which closes a packet whose
    slots of that kind are used up; control instructions close their
    packet.  Cycles are relative to segment entry; ``last_issue_delta``
    is -1 when nothing issued (empty fall-through blocks), and
    ``wait_delta`` is the cycle of the last budget check the reference
    makes inside the segment — a packet closed on a waiting
    instruction, or by a branch the segment goes on past — -1 when it
    makes none.
    """
    issued, inflight = state[0], state[1]
    ready = dict(inflight)
    get = ready.get
    used = dict(zip(limits, state[2])) if limits else None
    cycle = 0
    dli = dw = -1
    closed = False
    for rk, dk, lat, closes, kind in rows:
        if closed:
            # a branch closed the packet: the reference checks it here
            dw = cycle
        while True:
            if issued >= width:
                issued = 0
                cycle += 1
                dw = cycle
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
                    dw = cycle
                    continue
            if limits:
                if issued == 0:  # a new packet: no slot of it used yet
                    used = dict.fromkeys(limits, 0)
                lim = limits.get(kind)
                if lim is not None:
                    if used[kind] >= lim:
                        issued = 0
                        cycle += 1
                        dw = cycle
                        continue
                    used[kind] += 1
            break
        issued += 1
        dli = cycle
        if dk >= 0:
            ready[dk] = cycle + lat
        closed = closes
        if closes:
            # a branch (taken or not), jump, or halt closes the packet
            issued = 0
            cycle += 1
    pruned = [(k, v - cycle) for k, v in ready.items() if v > cycle]
    pruned.sort()
    if not limits:
        return cycle, dli, (issued, tuple(pruned)), dw
    counts = tuple(used.values()) if issued else (0,) * len(limits)
    return cycle, dli, (issued, tuple(pruned), counts), dw


def _periods(arr: np.ndarray, j: int, i: int) -> int:
    """How many whole repeats of the period ``arr[j:i]`` start at ``i``.

    Compares one period first, so a candidate that does not repeat
    costs one period; then gallops: compares chunks of 16, 32, 64 ...
    periods and stops at the first mismatching period, so the cost is
    O(periods matched) rather than O(remaining trace) — in a nest the
    inner period recurs once per outer iteration."""
    p = i - j
    pattern = arr[j:i]
    total = (arr.size - i) // p
    if not total or not np.array_equal(arr[i:i + p], pattern):
        return 0
    m = 1
    chunk = 16
    while m < total:
        c = min(chunk, total - m)
        start = i + m * p
        tile = arr[start : start + c * p].reshape(c, p)
        bad = np.flatnonzero((tile != pattern).any(axis=1))
        if bad.size:
            return m + int(bad[0])
        m += c
        chunk *= 2
    return m


def _close_label(spec: ReplaySpec, s: int) -> str | None:
    """The block the reference names when the packet that segment ``s``
    closes starts past the budget: the target of a jump or a taken
    branch; for a branch not taken, its own block — or its target, when
    that resumes where falling through does (the reference judges
    "taken" by where execution resumes).  None when ``s`` does not end
    on a branch or jump: nothing else closes a packet the reference
    checks (a halt ends the run)."""
    plan = spec.plan
    exit_ci = plan.seg_exit[s]
    if exit_ci is not FALL:
        ins = exit_ci.instr
        return None if ins.op is Op.HALT else ins.target.name
    blocks = spec.func.blocks
    b = plan.seg_block[s]
    last = blocks[b].instrs[-1] if blocks[b].instrs else None
    if last is None or not last.is_branch:
        return None
    labels = plan.prog.labels

    def resume(i: int) -> int | None:
        return next((j for j in range(i, len(blocks)) if blocks[j].instrs),
                    None)

    target = last.target.name
    taken = resume(labels.index(target)) == resume(b + 1)
    return target if taken else labels[b]


def replay(
    segs: list[int] | np.ndarray,
    spec: ReplaySpec,
    max_cycles: int = 200_000_000,
) -> tuple[int, int]:
    """Replay a segment trace under ``spec``'s machine; returns
    ``(cycles, instructions)`` — identical to full simulation.

    The budget is checked where the reference checks it: a packet that
    closes on a waiting instruction past ``max_cycles`` names that
    instruction's block, and one closed by a branch or jump names
    :func:`_close_label`'s."""
    arr = np.asarray(segs, dtype=np.int64)
    sl = segs if isinstance(segs, list) else arr.tolist()
    n = int(arr.size)
    n_instr = 0
    if n:
        counts = np.bincount(arr, minlength=len(spec.seg_len))
        n_instr = int(counts @ spec.seg_len)

    rows = spec.rows
    width = spec.width
    limits = spec.limits
    plan = spec.plan
    name = plan.prog.func.name
    labels = plan.prog.labels
    seg_block = plan.seg_block
    memo: dict = {}
    seen: dict = {}
    state = spec.start
    cycle = 0
    last_issue = -1
    i = 0
    while i < n:
        s = sl[i]
        key = (s, state)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _transition(rows[s], state, width, limits)
        dc, dli, nstate, dw = hit
        prev = seen.get(key)
        if prev is None:
            seen.setdefault(key, (i, cycle))
            if len(seen) > 65536:
                seen.clear()
        else:
            # periodic steady state: the trace from the first occurrence
            # repeats — match whole periods against the rest of the trace
            # and skip them all, short of the budget (past it the budget
            # check needs the segment it trips at)
            j, cj = prev
            p = i - j
            dcyc = cycle - cj
            if p > 0 and dcyc > 0:
                m = min(_periods(arr, j, i), (max_cycles - cycle) // dcyc)
                if m > 0:
                    # each period issues (dcyc > 0 implies a control exit),
                    # so last_issue advances by exactly dcyc per period;
                    # the key last occurred where the last skipped period
                    # began, and every other entry stays true, so an
                    # enclosing loop's period is found across the skip
                    seen[key] = (i + (m - 1) * p, cycle + (m - 1) * dcyc)
                    cycle += m * dcyc
                    last_issue += m * dcyc
                    i += m * p
                    continue
            seen[key] = (i, cycle)
        if dli >= 0:
            last_issue = cycle + dli
        entry = cycle
        cycle += dc
        state = nstate
        i += 1
        if cycle > max_cycles:
            if dw >= 0 and entry + dw > max_cycles:
                block = labels[seg_block[s]]
            else:
                block = _close_label(spec, s)
            if block is not None:
                raise SimulationError(
                    f"exceeded {max_cycles} cycles in {name} "
                    f"(at block {block})")
    return last_issue + 1, n_instr

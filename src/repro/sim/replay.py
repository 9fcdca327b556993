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

from .blockgen import FALL, ExecPlan
from .errors import SimulationError
from .executor import CompiledProgram

#: categories that close an issue packet (branch/jump/halt)
from .executor import C_BRANCH, C_HALT, C_JUMP

_CTRL = (C_BRANCH, C_JUMP, C_HALT)


class ReplayUnsupported(Exception):
    """This machine's timing cannot be replayed; run the full simulator."""


class ReplayUnmapped(Exception):
    """A segment exit has no position in the target schedule (the target
    program is not a reschedule of the traced one)."""


class ReplaySpec:
    """One target program's view of a plan's segments.

    ``rows[s]`` is the tuple of timing rows the target machine issues
    for segment ``s``: the target block's scheduled order up to and
    including the exit instruction (located by identity — width clones
    share instruction objects), or the whole block for a fall-through.
    Each row is pre-slimmed to what the packet loop needs —
    ``(reg_source_keys, dest_key, latency, closes_packet)`` with
    registers packed to single ints (``bank << 24 | id``) so the
    in-flight dict is int-keyed — no tuple allocation per lookup.
    ``seg_len[s]`` is the per-width instruction count.
    """

    def __init__(self, plan: ExecPlan, prog: CompiledProgram):
        machine = prog.machine
        if machine.slot_limits:
            raise ReplayUnsupported("per-kind slot limits")
        if min(machine.latencies.values()) < 1:
            raise ReplayUnsupported("latency below 1 cycle")
        ep = plan.prog
        if prog is not ep and prog.labels != ep.labels:
            raise ReplayUnmapped("block structure differs")
        self.plan = plan
        self.prog = prog
        self.width = machine.issue_width if machine.issue_width > 0 else 1 << 30
        rows: list[tuple] = []
        lens: list[int] = []
        pos_maps: dict[int, dict[int, int]] = {}
        slim_cache: dict[int, list[tuple]] = {}

        def slim(b: int) -> list[tuple]:
            out = slim_cache.get(b)
            if out is None:
                out = slim_cache[b] = []
                for cat, fn, srcs, rsrcs, db, di, lat, meta in prog.flat[b]:
                    rk = tuple(
                        (rsrcs[x] << 24) | rsrcs[x + 1]
                        for x in range(0, len(rsrcs), 2)
                    )
                    dk = (db << 24) | di if db >= 0 else -1
                    out.append((rk, dk, lat, cat in _CTRL))
            return out

        for s, b in enumerate(plan.seg_block):
            row = prog.flat[b]
            exit_ci = plan.seg_exit[s]
            if exit_ci is FALL:
                rows.append(tuple(slim(b)))
                lens.append(len(row))
            else:
                pm = pos_maps.get(b)
                if pm is None:
                    pm = pos_maps[b] = {
                        id(r[7][2]): p for p, r in enumerate(row)
                    }
                p = pm.get(id(exit_ci.instr))
                if p is None:
                    raise ReplayUnmapped(
                        f"exit {exit_ci.instr!r} not in target block "
                        f"{prog.labels[b]}"
                    )
                rows.append(tuple(slim(b)[: p + 1]))
                lens.append(p + 1)
        self.rows = rows
        self.seg_len = np.array(lens, dtype=np.int64)


def replay_spec(plan: ExecPlan, prog: CompiledProgram) -> ReplaySpec:
    """``prog``'s view of ``plan``'s segments: raises
    :class:`ReplayUnsupported` for a machine outside the timing model,
    :class:`ReplayUnmapped` when ``prog`` is not a reschedule of the
    traced program."""
    return ReplaySpec(plan, prog)


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
    name = spec.prog.func.name
    labels = spec.prog.labels
    seg_block = spec.plan.seg_block
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

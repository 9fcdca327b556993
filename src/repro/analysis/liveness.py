"""Backward liveness analysis over the CFG.

Used by register renaming (which values are live around the loop), by the
superblock scheduler (what a side exit's target reads limits speculation),
by the expansion transformations (exit fix-up code), and by register-usage
measurement.

Because simulated functions end by falling off the last block, registers
that hold *results* read by the harness after the run would look dead.
Callers pass ``live_out_exit``: the registers considered live at function
exit (the workload's output scalars).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..ir.operands import Reg


@dataclass
class Liveness:
    live_in: dict[str, set[Reg]] = field(default_factory=dict)
    live_out: dict[str, set[Reg]] = field(default_factory=dict)
    #: per-block gen (upward-exposed uses) and kill (defs)
    gen: dict[str, set[Reg]] = field(default_factory=dict)
    kill: dict[str, set[Reg]] = field(default_factory=dict)


def block_gen_kill(instrs) -> tuple[set[Reg], set[Reg]]:
    gen: set[Reg] = set()
    kill: set[Reg] = set()
    for ins in instrs:
        for r in ins.reg_uses():
            if r not in kill:
                gen.add(r)
        for r in ins.reg_defs():
            kill.add(r)
    return gen, kill


def liveness(func: Function, live_out_exit: set[Reg] | None = None) -> Liveness:
    """Iterative backward may-liveness to fixpoint."""
    lv = Liveness()
    live_out_exit = live_out_exit or set()
    succs = func.successor_map()
    labels = list(succs)
    terminal = {lab for lab in labels if not succs[lab]}

    for blk in func.blocks:
        lab = blk.label
        g, k = block_gen_kill(blk.instrs)
        lv.gen[lab] = g
        lv.kill[lab] = k
        lv.live_in[lab] = set(g)
        lv.live_out[lab] = set(live_out_exit) if lab in terminal else set()

    changed = True
    while changed:
        changed = False
        for lab in reversed(labels):
            out = set(live_out_exit) if lab in terminal else set()
            for s in succs[lab]:
                out |= lv.live_in[s]
            if out != lv.live_out[lab]:
                lv.live_out[lab] = out
                changed = True
            new_in = lv.gen[lab] | (out - lv.kill[lab])
            if new_in != lv.live_in[lab]:
                lv.live_in[lab] = new_in
                changed = True
    return lv


def liveness_masks(
    func: Function,
    block_ops: dict[str, list[tuple[int, int]]],
    exit_mask: int,
) -> tuple[dict[str, int], dict[str, int]]:
    """:func:`liveness` over register bitmasks, for callers that number
    the function's registers densely (register colouring).

    ``block_ops`` gives each block's instructions as ``(destination bit
    index or -1, mask of registers read)``; ``exit_mask`` is the
    ``live_out_exit`` set.  Returns ``(live_in, live_out)`` masks keyed by
    block label — the same least fixpoint as :func:`liveness`.
    """
    succs = func.successor_map()
    labels = list(succs)
    gen: dict[str, int] = {}
    kill: dict[str, int] = {}
    for lab in labels:
        g = k = 0
        for d, uses in block_ops[lab]:
            g |= uses & ~k
            if d >= 0:
                k |= 1 << d
        gen[lab], kill[lab] = g, k
    live_in = dict(gen)
    live_out = {lab: 0 if succs[lab] else exit_mask for lab in labels}
    changed = True
    while changed:
        changed = False
        for lab in reversed(labels):
            out = 0 if succs[lab] else exit_mask
            for s in succs[lab]:
                out |= live_in[s]
            new_in = gen[lab] | (out & ~kill[lab])
            if out != live_out[lab] or new_in != live_in[lab]:
                live_out[lab], live_in[lab] = out, new_in
                changed = True
    return live_in, live_out


def live_at_instr_positions(instrs, live_out: set[Reg]) -> list[set[Reg]]:
    """Live set *before* each instruction of a linear sequence, given the
    live-out set at its end.  Index i is the set live entering instrs[i];
    an extra final entry holds live_out itself."""
    n = len(instrs)
    live = [set() for _ in range(n + 1)]
    live[n] = set(live_out)
    cur = set(live_out)
    for i in range(n - 1, -1, -1):
        ins = instrs[i]
        for r in ins.reg_defs():
            cur.discard(r)
        for r in ins.reg_uses():
            cur.add(r)
        live[i] = set(cur)
    return live

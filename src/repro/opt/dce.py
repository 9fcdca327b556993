"""Dead code elimination (global, flow-insensitive mark and sweep).

An instruction is live if it has a side effect (store, control, halt) or
defines a register transitively used by a live instruction or listed in
``live_out_exit`` (workload outputs read by the harness after the run).
Flow-insensitive use counting is conservative and therefore safe.
"""

from __future__ import annotations

from collections import defaultdict

from ..ir.function import Function
from ..ir.instructions import Instr, Op
from ..ir.operands import Reg


def eliminate_dead_code(func: Function, live_out_exit: set[Reg] | None = None) -> int:
    live_out_exit = live_out_exit or set()
    defs_of: dict[Reg, list[Instr]] = defaultdict(list)
    for ins in func.iter_instrs():
        if ins.dest is not None:
            defs_of[ins.dest].append(ins)

    live: set[int] = set()
    work: list[Instr] = []
    for ins in func.iter_instrs():
        if ins.is_store or ins.is_control or ins.op is Op.NOP:
            live.add(id(ins))
            work.append(ins)
        elif ins.dest is not None and ins.dest in live_out_exit:
            live.add(id(ins))
            work.append(ins)
    while work:
        ins = work.pop()
        for r in ins.reg_uses():
            for d in defs_of.get(r, ()):
                if id(d) not in live:
                    live.add(id(d))
                    work.append(d)

    removed = 0
    for blk in func.blocks:
        keep = [ins for ins in blk.instrs if id(ins) in live]
        removed += len(blk.instrs) - len(keep)
        blk.instrs = keep
    return removed

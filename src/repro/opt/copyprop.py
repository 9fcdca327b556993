"""Copy propagation and move coalescing.

Local: within a block, after ``d = s`` every use of ``d`` reads ``s``
until either is redefined.  There is no global form: every register
move the classical phase leaves behind copies or writes a register with
several definitions, or is a loop-carried update read before it is
written (DESIGN.md §10.2).
"""

from __future__ import annotations

from collections import defaultdict

from ..ir.function import Function
from ..ir.instructions import Op
from ..ir.operands import Reg


def propagate_copies_local(func: Function) -> int:
    changed = 0
    for blk in func.blocks:
        copy_of: dict[Reg, Reg] = {}
        for ins in blk.instrs:
            sub = {r: copy_of[r] for r in ins.reg_uses() if r in copy_of}
            if sub:
                ins.replace_uses(sub)
                changed += 1
            d = ins.dest
            if d is None:
                continue
            # invalidate copies broken by this definition
            copy_of.pop(d, None)
            for k in [k for k, v in copy_of.items() if v == d]:
                copy_of.pop(k)
            if ins.op in (Op.MOV, Op.FMOV) and isinstance(ins.srcs[0], Reg):
                s = ins.srcs[0]
                if s != d:
                    copy_of[d] = s
    return changed


def coalesce_moves(func: Function) -> int:
    """Backward move coalescing: rewrite ``t = a op b; ...; s = t`` into
    ``s = a op b`` when ``t`` is a single-use temporary and ``s`` is not
    touched in between.  This restores the ``s = s + x`` self-update shape
    of reductions that expression lowering splits into a temp and a move —
    the shape accumulator expansion recognizes.
    """
    use_count: dict[Reg, int] = defaultdict(int)
    def_count: dict[Reg, int] = defaultdict(int)
    for ins in func.iter_instrs():
        for r in ins.reg_uses():
            use_count[r] += 1
        if ins.dest is not None:
            def_count[ins.dest] += 1

    changed = 0
    for blk in func.blocks:
        i = 0
        while i < len(blk.instrs):
            mov = blk.instrs[i]
            if (
                mov.op not in (Op.MOV, Op.FMOV)
                or not isinstance(mov.srcs[0], Reg)
                or mov.dest is None
            ):
                i += 1
                continue
            t = mov.srcs[0]
            s = mov.dest
            if t == s or use_count[t] != 1 or def_count[t] != 1:
                i += 1
                continue
            # find t's definition earlier in this block
            dpos = None
            for j in range(i - 1, -1, -1):
                ins = blk.instrs[j]
                if ins.dest == t:
                    dpos = j
                    break
                if s in set(ins.reg_uses()) or ins.dest == s or ins.is_control:
                    break  # s touched (or block region ends) before t's def
            if dpos is None:
                i += 1
                continue
            d = blk.instrs[dpos]
            if d.is_control or d.dest != t:
                i += 1
                continue
            d.dest = s
            blk.instrs.pop(i)
            def_count[t] -= 1
            def_count[s] += 1
            use_count[t] -= 1
            changed += 1
            # do not advance i: the next instruction shifted into place
    return changed

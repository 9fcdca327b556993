"""Induction variable strength reduction and elimination.

Turns per-iteration address arithmetic (``t = i*4 + base``) into pointer
induction variables, and — when the original counter becomes otherwise
dead — replaces the loop exit test with a test on the derived variable
(*linear function test replacement*).  This is what produces the paper's
Figure 1(b) loop shape, where the only induction variable left is the
byte-offset register tested directly against a pre-scaled limit.

The pass runs rounds to fixpoint.  Each round:

1. find *basic IVs*: registers whose only in-loop definition is
   ``i = i + c`` (immediate c) in a latch-dominating block;
2. convert *derived expressions*: single-def instructions
   ``x = iv * C | iv + inv | inv + iv | iv - inv | iv << C``
   in latch-dominating blocks, all of whose uses follow the definition —
   each becomes a new IV: initialization cloned into the preheader, the
   defining instruction replaced by a move (cleaned by copy propagation),
   and an increment ``x' += step_x`` placed right after the basic IV's
   increment.

After the rounds, if the loop's counted test is on a basic IV that is
dead apart from its own increment and the test, and some derived IV with
a positive scale exists, the test is rewritten onto the derived IV and
the counter eliminated (by the next DCE).  The ``CountedLoop`` metadata
is updated so unrolling keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.loopvars import CountedLoop
from ..ir.function import Function
from ..ir.instructions import Instr, Op
from ..ir.loop import Loop, dominators, ensure_preheader, find_loops
from ..ir.operands import Imm, Operand, Reg


@dataclass
class _BasicIV:
    reg: Reg
    step: int
    inc: Instr
    inc_block: str


def _find_basic_ivs(func: Function, loop: Loop, dom, latch: str) -> dict[Reg, _BasicIV]:
    defs: dict[Reg, list[tuple[str, Instr]]] = {}
    for lab in loop.blocks:
        for ins in func.get_block(lab).instrs:
            if ins.dest is not None:
                defs.setdefault(ins.dest, []).append((lab, ins))
    out: dict[Reg, _BasicIV] = {}
    for reg, sites in defs.items():
        if len(sites) != 1:
            continue
        lab, ins = sites[0]
        if lab not in dom.get(latch, set()):
            continue
        step = None
        if ins.op is Op.ADD:
            a, b = ins.srcs
            if a == reg and isinstance(b, Imm):
                step = b.value
            elif b == reg and isinstance(a, Imm):
                step = a.value
        elif ins.op is Op.SUB:
            a, b = ins.srcs
            if a == reg and isinstance(b, Imm):
                step = -b.value
        if step is not None and step != 0:
            out[reg] = _BasicIV(reg, step, ins, lab)
    return out


def _uses_follow_def(func: Function, loop: Loop, dom, reg: Reg,
                     def_lab: str, def_ins: Instr) -> bool:
    """Every in-loop use of ``reg`` is strictly after its definition."""
    for lab in loop.blocks:
        blk = func.get_block(lab)
        dpos = None
        if lab == def_lab:
            dpos = blk.instrs.index(def_ins)
        for pos, ins in enumerate(blk.instrs):
            if reg not in set(ins.reg_uses()):
                continue
            if lab == def_lab:
                if pos <= dpos:
                    return False
            elif def_lab not in dom.get(lab, set()):
                return False
    return True


def strength_reduce_ivs(
    func: Function,
    counted: dict[str, CountedLoop] | None = None,
    live_out_exit: set[Reg] | None = None,
) -> int:
    """Run IVSR on every loop of the function.  ``counted`` maps loop
    header labels to their metadata, updated in place by test replacement.
    Returns the number of derived IVs created."""
    total = 0
    for loop in sorted(find_loops(func), key=lambda l: -l.depth):
        if len(loop.latches) != 1:
            continue
        total += _reduce_loop(func, loop, counted or {}, live_out_exit or set())
    return total


def _reduce_loop(
    func: Function,
    loop: Loop,
    counted: dict[str, CountedLoop],
    live_out_exit: set[Reg] = frozenset(),
) -> int:
    latch = loop.latches[0]
    created = 0
    derived_scale: dict[Reg, tuple[_BasicIV, int, Instr]] = {}

    from ..analysis.liveness import liveness

    for _round in range(8):
        dom = dominators(func)
        basics = _find_basic_ivs(func, loop, dom, latch)
        if not basics:
            break
        lv = liveness(func, live_out_exit)
        exit_live: set[Reg] = set()
        for _, tgt in loop.exit_edges(func):
            exit_live |= lv.live_in.get(tgt, set())
        in_loop_defs: dict[Reg, int] = {}
        for lab in loop.blocks:
            for ins in func.get_block(lab).instrs:
                if ins.dest is not None:
                    in_loop_defs[ins.dest] = in_loop_defs.get(ins.dest, 0) + 1

        def invariant(op: Operand) -> bool:
            return not isinstance(op, Reg) or op not in in_loop_defs

        converted = False
        for lab in sorted(loop.blocks):
            if lab not in dom.get(latch, set()):
                continue
            blk = func.get_block(lab)
            for ins in list(blk.instrs):
                d = ins.dest
                if d is None or d in basics or in_loop_defs.get(d, 0) != 1:
                    continue
                # match x = f(iv) patterns
                iv: Reg | None = None
                scale: int | None = None
                if ins.op is Op.MUL:
                    a, b = ins.srcs
                    if isinstance(a, Reg) and a in basics and isinstance(b, Imm):
                        iv, scale = a, b.value
                    elif isinstance(b, Reg) and b in basics and isinstance(a, Imm):
                        iv, scale = b, a.value
                elif ins.op is Op.SHL:
                    a, b = ins.srcs
                    if isinstance(a, Reg) and a in basics and isinstance(b, Imm) \
                            and 0 <= b.value < 31:
                        iv, scale = a, 1 << b.value
                elif ins.op is Op.ADD:
                    a, b = ins.srcs
                    if isinstance(a, Reg) and a in basics and invariant(b):
                        iv, scale = a, 1
                    elif isinstance(b, Reg) and b in basics and invariant(a):
                        iv, scale = b, 1
                elif ins.op is Op.SUB:
                    a, b = ins.srcs
                    if isinstance(a, Reg) and a in basics and invariant(b):
                        iv, scale = a, 1
                if iv is None or scale is None or scale == 0:
                    continue
                other_ok = all(
                    invariant(s) for s in ins.srcs if not (isinstance(s, Reg) and s == iv)
                )
                if not other_ok:
                    continue
                if not _uses_follow_def(func, loop, dom, d, lab, ins):
                    continue
                if d in exit_live:
                    # the temp's exit value would change: as an IV it ends
                    # one step further than the last in-loop computation
                    continue
                biv = basics[iv]
                step_x = biv.step * scale
                if step_x == 0:
                    continue
                # no use of d may follow the basic IV's increment within an
                # iteration, or it would observe the stepped value early
                inc_blk0 = func.get_block(biv.inc_block)
                inc_pos0 = inc_blk0.instrs.index(biv.inc)
                late_use = any(
                    d in set(u.reg_uses())
                    for u in inc_blk0.instrs[inc_pos0 + 1:]
                )
                if late_use:
                    continue
                # 1. initialization: clone the computation into the preheader
                ph = ensure_preheader(func, loop)
                ph.append(ins.copy())
                # 2. increment after the basic IV's increment
                inc_blk = func.get_block(biv.inc_block)
                inc_pos = inc_blk.instrs.index(biv.inc)
                x_inc = Instr(Op.ADD, d, (d, Imm(step_x)))
                inc_blk.insert(inc_pos + 1, x_inc)
                # 3. the in-loop computation disappears
                blk.remove(ins)
                # track the root counter through derived-of-derived chains
                # so test replacement can retarget onto the final pointer
                parent = derived_scale.get(iv)
                if parent is not None:
                    root_biv, parent_scale, _ = parent
                    derived_scale[d] = (root_biv, parent_scale * scale, x_inc)
                else:
                    derived_scale[d] = (biv, scale, x_inc)
                created += 1
                converted = True
        if not converted:
            break

    _replace_linear_test(func, loop, latch, derived_scale, counted)
    return created


def _replace_linear_test(
    func: Function,
    loop: Loop,
    latch: str,
    derived_scale: dict[Reg, tuple[_BasicIV, int, Instr]],
    counted: dict[str, CountedLoop],
) -> None:
    """Linear function test replacement + counter elimination."""
    info = counted.get(loop.header)
    if info is None or not derived_scale:
        return
    latch_blk = func.get_block(latch)
    term = latch_blk.terminator
    if term is None or term is not info.branch:
        return
    iv = info.iv
    # candidates derived directly from the tested counter, positive scale,
    # produced by a MUL/SHL (scale > 1 pointer) or scale 1 with invariant
    # offset; prefer the largest scale (the innermost address stride)
    cands = [
        (d, biv, sc, inc)
        for d, (biv, sc, inc) in derived_scale.items()
        if biv.reg == iv and sc > 0
    ]
    if not cands:
        return
    # the counter must be dead apart from its increment and the test
    for lab in loop.blocks:
        for ins in func.get_block(lab).instrs:
            if ins is info.increment or ins is info.branch:
                continue
            if iv in set(ins.reg_uses()):
                return
    # prefer (at equal scale) a derived IV that has other in-loop uses
    # (an address pointer), so the retargeted test keeps no extra IV alive
    def other_uses(reg: Reg) -> int:
        count = 0
        for lab in loop.blocks:
            for ins in func.get_block(lab).instrs:
                if reg in set(ins.reg_uses()) and ins.dest != reg:
                    count += 1
        return count

    d, biv, sc, x_inc = max(cands, key=lambda c: (c[2], other_uses(c[0])))

    # find d's preheader initialization (the cloned computation): the last
    # preheader instruction defining d
    ph = ensure_preheader(func, loop)
    init = None
    for ins in ph.instrs:
        if ins.dest == d:
            init = ins
    if init is None:
        return
    # x = sc*iv + off  with off = init_value - sc*iv0; the test iv < limit
    # becomes x < sc*limit + off, computed in the preheader as
    # lim' = sc*(limit - iv0) + x0
    lim = func.new_int_reg()
    tmp = func.new_int_reg()
    ph.extend([
        Instr(Op.SUB, tmp, (info.limit, iv)),
        Instr(Op.MUL, tmp, (tmp, Imm(sc))),
        Instr(Op.ADD, lim, (tmp, d)),
    ])
    # rewrite the branch onto (d, lim), preserving operand orientation
    a, b = info.branch.srcs
    if a == iv:
        info.branch.srcs = (d, lim)
    else:
        info.branch.srcs = (lim, d)
    counted[loop.header] = info.clone_for(
        branch=info.branch,
        increment=x_inc,
        iv=d,
        step=biv.step * sc,
        limit=lim,
    )

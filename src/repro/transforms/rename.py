"""Register renaming (paper, Section 2).

    "Register renaming assigns unique registers to different definitions of
    the same register.  A common use of register renaming is to rename
    registers within individual loop bodies of an unrolled loop."

Operates on a superblock loop body.  Every definition gets a fresh virtual
register, except:

* the *last* definition of a register that is live out of the body (around
  the backedge or into the natural exit) keeps the original name, so
  loop-carried values flow without extra copies — exactly the shape of the
  paper's Figure 1(d), where the unrolled induction updates become
  ``r12i = r11i + 4; r13i = r12i + 4; r11i = r13i + 4``;
* pure *accumulator chains* (registers whose every definition is a
  self-update and whose every use is inside those updates) are left alone —
  renaming cannot break a true flow recurrence, and Figure 3(c) shows
  IMPACT leaving the accumulator unrenamed for accumulator expansion to
  handle;
* at each side exit, compensation moves re-materialize the original
  registers that are live at the exit target (see
  :mod:`repro.transforms.compensation`).
"""

from __future__ import annotations

from ..analysis.defuse import DefUse
from ..analysis.liveness import liveness
from ..analysis.loopvars import find_accumulators
from ..ir.function import Function
from ..ir.instructions import Instr, Op
from ..ir.operands import Reg
from ..schedule.superblock import SuperblockLoop
from .compensation import add_side_exit_stub


def _accumulator_chain_regs(body: list[Instr]) -> set[Reg]:
    """Registers forming pure accumulation recurrences (any multiplicity)."""
    out: set[Reg] = set()
    # find_accumulators requires >1 update; for renaming we also keep
    # single-update accumulators stable (renaming them is pure churn)
    from ..analysis.loopvars import _ACC_OPS_ADD, _ACC_OPS_MUL, _is_self_update

    du = DefUse.of(body)
    for reg in du.defs:
        touching = du.touching(reg)
        if any(
            all(_is_self_update(body[i], reg, ops) for i in touching)
            for ops in (_ACC_OPS_ADD, _ACC_OPS_MUL)
        ):
            out.add(reg)
    return out


def rename_superblock(sb: SuperblockLoop, live_out_exit: set[Reg] | None = None) -> int:
    """Rename definitions in the superblock body.  Returns the number of
    fresh registers introduced."""
    func = sb.func
    body = sb.body.instrs
    lv = liveness(func, live_out_exit or set())

    # registers that must hold their value under the original name when the
    # body is left over the backedge or the natural exit
    canonical_out: set[Reg] = set(lv.live_in.get(sb.header, set()))
    if sb.exit_block is not None:
        canonical_out |= lv.live_in.get(sb.exit_block.label, set())
    else:
        canonical_out |= lv.live_out.get(sb.header, set())

    skip = _accumulator_chain_regs(body)

    # positions of the last definition of each register
    last_def: dict[Reg, int] = {}
    for i, ins in enumerate(body):
        if ins.dest is not None:
            last_def[ins.dest] = i

    cur: dict[Reg, Reg] = {}
    fresh = 0
    for i, ins in enumerate(body):
        # rename uses through the current map
        mapping = {r: cur[r] for r in ins.reg_uses() if r in cur and cur[r] != r}
        ins.replace_uses(mapping)

        if ins.is_control and ins.target is not None and i < len(body) - 1:
            # side exit: restore original names for live registers
            target_live = lv.live_in.get(ins.target.name, set())
            comp = [
                Instr(Op.MOV if r.is_int else Op.FMOV, r, (cur[r],))
                for r in sorted(target_live, key=lambda r: (r.cls.value, r.id))
                if cur.get(r, r) != r
            ]
            if comp:
                add_side_exit_stub(func, ins, comp, sb.offtrace, hint="rn")

        d = ins.dest
        if d is None or d in skip:
            continue
        if i == last_def[d] and d in canonical_out:
            ins.dest = d
            cur[d] = d
        else:
            nd = func.new_reg(d.cls)
            ins.dest = nd
            cur[d] = nd
            fresh += 1
    return fresh

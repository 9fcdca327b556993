"""Induction variable expansion (paper, Figure 4 / Figure 5).

After unrolling and renaming, an induction variable appears in the
superblock as a *chain* of single-def registers stepped by a loop-invariant
amount (Figure 5(c))::

    r22i = r21i + r7i
    r23i = r22i + r7i
    r21i = r23i + r7i      # canonical: closes the loop-carried cycle

The chain is still flow dependent.  This pass makes the definitions
independent (Figure 5(d)): the chained adds are deleted, each register
becomes a self-stepping temporary incremented by ``z = k*step`` at the end
of the body, and the preheader pre-computes the staggered start values::

    preheader:  r22i = r21i + r7i ; r23i = r22i + r7i ; r71i = r7i * 3
    body:       ... uses unchanged ...
                r21i += r71i ; r22i += r71i ; r23i += r71i
                blt (...) L1

Off-trace rejoin edges re-establish the staggered registers from the
canonical value; side exits need no compensation of their own because each
chain register now *always* holds the value the original code would have
given it at every point in the body.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.instructions import Instr, Op
from ..ir.operands import Imm, Operand, Reg
from ..schedule.superblock import SuperblockLoop
from .compensation import insert_rejoin_reinit


@dataclass
class InductionChain:
    """A renamed induction chain ``regs[p+1] = regs[p] + step``, closing
    with ``regs[0] = regs[k-1] + step`` (positions in ``def_positions``)."""

    regs: list[Reg]          # [canonical, v1, ..., v_{k-1}]
    step: Operand            # Imm or loop-invariant Reg
    def_positions: list[int]  # positions of the k chained adds, increasing

    @property
    def k(self) -> int:
        return len(self.def_positions)


def find_induction_chains(body: list[Instr]) -> list[InductionChain]:
    """Detect renamed induction chains in a superblock body."""
    defs: dict[Reg, list[int]] = {}
    for i, ins in enumerate(body):
        if ins.dest is not None:
            defs.setdefault(ins.dest, []).append(i)
    single_def = {r: ps[0] for r, ps in defs.items() if len(ps) == 1}
    defined = set(defs)

    def invariant(op: Operand) -> bool:
        return isinstance(op, Imm) or (isinstance(op, Reg) and op not in defined)

    def step_of(ins: Instr, prev: Reg) -> Operand | None:
        """If ``ins`` is ``d = prev + s`` with s loop-invariant, return s."""
        if ins.op is not Op.ADD:
            return None
        a, b = ins.srcs
        if a == prev and invariant(b):
            return b
        if b == prev and invariant(a):
            return a
        return None

    chains: list[InductionChain] = []
    used: set[Reg] = set()
    # canonical register = one whose single def closes a cycle
    for c, pk in sorted(single_def.items(), key=lambda kv: kv[1]):
        if c in used or c.is_fp:
            continue
        # walk backward from the canonical def
        chain_positions = [pk]
        chain_regs = [c]
        ins = body[pk]
        step: Operand | None = None
        cur = ins
        ok = True
        while True:
            prev_candidates = [
                s for s in cur.srcs if isinstance(s, Reg) and s != cur.dest
            ]
            matched = False
            for prev in prev_candidates:
                s = step_of(cur, prev)
                if s is None:
                    continue
                if step is None:
                    step = s
                elif step != s:
                    continue
                if prev == c:
                    matched = True
                    chain_regs.append(prev)
                    break  # cycle closed at the canonical register
                if prev not in single_def or prev in used:
                    continue
                p = single_def[prev]
                if p >= chain_positions[-1]:
                    continue
                chain_positions.append(p)
                chain_regs.append(prev)
                cur = body[p]
                matched = True
                break
            if not matched:
                ok = False
                break
            if chain_regs[-1] == c and len(chain_regs) > 1:
                break
        if not ok or len(chain_positions) < 2:
            continue
        chain_positions.reverse()
        # regs in forward order: canonical first, then v1..v_{k-1}
        chain_regs = chain_regs[::-1][:-1]  # drop duplicate trailing canonical
        assert chain_regs[0] == c
        assert step is not None
        chains.append(InductionChain(chain_regs, step, chain_positions))
        used.update(chain_regs)
    return chains


def expand_inductions(sb: SuperblockLoop) -> int:
    """Apply induction variable expansion to every chain found.

    Returns the number of chains expanded.
    """
    func = sb.func
    body = sb.body.instrs
    chains = find_induction_chains(body)
    if not chains:
        return 0

    init_code: list[Instr] = []  # preheader + rejoin re-init (same code)
    tail_incs: list[Instr] = []
    delete: set[int] = set()

    for ch in chains:
        k = ch.k
        # z = k * step
        if isinstance(ch.step, Imm):
            z: Operand = Imm(k * ch.step.value)
        else:
            z = func.new_int_reg()
            init_code.append(Instr(Op.MUL, z, (ch.step, Imm(k))))
        # staggered starts: v_p = v_{p-1} + step
        for p in range(1, k):
            init_code.append(Instr(Op.ADD, ch.regs[p], (ch.regs[p - 1], ch.step)))
        # end-of-body independent increments
        for r in ch.regs:
            tail_incs.append(Instr(Op.ADD, r, (r, z)))
        delete.update(ch.def_positions)

    # rewrite the body: drop the chained adds, add the tail increments just
    # before the backedge branch
    new_body = [ins for i, ins in enumerate(body) if i not in delete]
    back = new_body.pop()  # the backedge branch
    new_body.extend(tail_incs)
    new_body.append(back)
    sb.body.instrs = new_body

    # preheader initialization
    sb.preheader.extend([ins.copy() for ins in init_code])

    # off-trace rejoins must re-establish the staggered registers (z for a
    # register step is recomputed too — it is loop-invariant, so this is
    # redundant but harmless on the rare path)
    insert_rejoin_reinit(
        func, sb.header, sb.body, lambda: [ins.copy() for ins in init_code]
    )
    return len(chains)

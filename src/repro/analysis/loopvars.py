"""Loop variable classification and counted-loop metadata.

* :class:`CountedLoop` — the canonical counted-loop shape the frontend
  emits and that preconditioned unrolling relies on: a basic induction
  register stepped by a constant in the latch, tested against a
  loop-invariant limit by the backedge branch, with
  ``limit == iv0 + count * step`` exactly (the frontend constructs limits
  that way, and strength reduction preserves the relation).

* accumulator / induction / search variable detection over a superblock
  body, implementing the recognition conditions of the paper's Figure 2
  and Figure 4 algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..ir.instructions import Instr, Op
from .defuse import DefUse
from ..ir.operands import Imm, Operand, Reg


@dataclass
class CountedLoop:
    """Metadata for a canonically-shaped counted inner loop.

    Shape (after lowering, maintained by every pass)::

        header:  ...body...
        latch:   iv = iv + step          # step: positive immediate
                 blt (iv, limit) header  # or ble/bgt/bge with same meaning

    ``branch`` is the backedge branch instruction (identity is stable
    across passes that do not delete it; passes that rewrite it update this
    record).  ``trip_multiple`` records a compile-time guarantee that the
    trip count is a multiple of that value (preconditioning sets it to the
    unroll factor for the main loop).
    """

    header: str
    iv: Reg
    step: int
    limit: Operand
    branch: Instr
    increment: Instr
    trip_multiple: int = 1

    def clone_for(self, branch: Instr, increment: Instr, **kw) -> "CountedLoop":
        return replace(self, branch=branch, increment=increment, **kw)


# ---------------------------------------------------------------------------
# expansion-candidate recognition over a linear superblock body
# ---------------------------------------------------------------------------

#: opcodes that count as "increment/decrement" for accumulator detection:
#: additive updates (the paper's algorithm covers sums; products accumulate
#: through fmul similarly and IMPACT treats both as accumulation ops)
_ACC_OPS_ADD = {Op.ADD, Op.SUB, Op.FADD, Op.FSUB}
_ACC_OPS_MUL = {Op.MUL, Op.FMUL}


@dataclass
class AccumulatorInfo:
    reg: Reg
    #: positions of the accumulation instructions in the body
    updates: list[int]
    #: "add" (sum accumulators, identity 0) or "mul" (product, identity 1)
    kind: str


def _is_self_update(ins: Instr, reg: Reg, ops: set[Op]) -> bool:
    """``reg = reg op other`` (or, for commutative ops, ``other op reg``)."""
    if ins.dest != reg or ins.op not in ops:
        return False
    a, b = ins.srcs
    if a == reg:
        return True
    return bool(ins.info.commutative and b == reg)


def find_accumulators(
    body: list[Instr],
    forbidden: set[Reg] = frozenset(),
) -> list[AccumulatorInfo]:
    """Accumulator variables per the paper's Figure 2 conditions:

    1. every instruction modifying V is an increment/decrement (additive
       self-update; a multiplicative variant is recognized as kind "mul");
    2. V is referenced *only* by those updates;
    3. there is more than one update (otherwise expansion buys nothing).

    ``forbidden`` lists registers that escape the body through side exits
    or off-trace uses — those cannot be expanded safely.
    """
    out: list[AccumulatorInfo] = []
    du = DefUse.of(body)
    for reg in sorted(du.defs, key=lambda r: (r.cls.value, r.id)):
        if reg in forbidden:
            continue
        updates: list[int] = []
        kind: str | None = None
        ok = True
        for i in du.touching(reg):
            ins = body[i]
            if _is_self_update(ins, reg, _ACC_OPS_ADD) and kind in (None, "add"):
                # subtraction only as V = V - x (V on the left)
                if ins.op in (Op.SUB, Op.FSUB) and ins.srcs[0] != reg:
                    ok = False
                    break
                kind = "add"
                updates.append(i)
            elif _is_self_update(ins, reg, _ACC_OPS_MUL) and kind in (None, "mul"):
                kind = "mul"
                updates.append(i)
            else:
                ok = False
                break
        if ok and kind is not None and len(updates) > 1:
            out.append(AccumulatorInfo(reg, updates, kind))
    return out


@dataclass
class InductionInfo:
    reg: Reg
    #: positions of the increment instructions in the body
    updates: list[int]
    #: the loop-invariant immediate step of each increment
    step: int


def find_inductions(
    body: list[Instr],
    forbidden: set[Reg] = frozenset(),
) -> list[InductionInfo]:
    """Induction variables per the paper's Figure 4 conditions:

    1. every instruction modifying V is an increment/decrement;
    2. the step is the same immediate for all increments and loop
       invariant (we require a compile-time immediate);
    3. more than one increment exists.

    Unlike accumulators, V may be (and normally is) used by other
    instructions — address arithmetic, the backedge test, etc.
    """
    out: list[InductionInfo] = []
    regs = {ins.dest for ins in body if ins.dest is not None}
    for reg in sorted(regs, key=lambda r: (r.cls.value, r.id)):
        if reg in forbidden or reg.is_fp:
            continue
        updates: list[int] = []
        step: int | None = None
        ok = True
        for i, ins in enumerate(body):
            if ins.dest != reg:
                continue
            s = _additive_step(ins, reg)
            if s is None:
                ok = False
                break
            if step is None:
                step = s
            elif step != s:
                ok = False
                break
            updates.append(i)
        if ok and step is not None and len(updates) > 1:
            out.append(InductionInfo(reg, updates, step))
    return out


def _additive_step(ins: Instr, reg: Reg) -> int | None:
    """If ``ins`` is ``reg = reg +/- imm``, return the signed step."""
    if ins.dest != reg:
        return None
    if ins.op is Op.ADD:
        a, b = ins.srcs
        if a == reg and isinstance(b, Imm):
            return b.value
        if b == reg and isinstance(a, Imm):
            return a.value
    elif ins.op is Op.SUB:
        a, b = ins.srcs
        if a == reg and isinstance(b, Imm):
            return -b.value
    return None


@dataclass
class SearchInfo:
    """A search (max/min) recurrence in branch-and-update idiom::

        <branch> (V  x) SKIPLABEL      # or (x V); condition keeps V
        V = x                          # update, guarded by the branch

    ``pairs`` lists (branch_pos, update_pos) for each occurrence.
    """

    reg: Reg
    pairs: list[tuple[int, int]]


_SEARCH_BRANCHES = {Op.BLE, Op.BLT, Op.BGE, Op.BGT, Op.FBLE, Op.FBLT, Op.FBGE, Op.FBGT}


def find_search_variables(
    body: list[Instr],
    forbidden: set[Reg] = frozenset(),
) -> list[SearchInfo]:
    """Detect max/min search recurrences.

    The idiom the frontend emits for ``if (x > V) V = x`` in a superblock is
    a side-exit branch that *skips* the update::

        fble (x V) <offtrace>   # taken means "keep current V"
        V = x                   # fmov, executed on the likely path
    or the trace may contain only the branch with the update off-trace; only
    the in-trace form is expandable (the off-trace form leaves V escaping
    through the exit, which ``forbidden`` rules out).
    """
    out: dict[Reg, list[tuple[int, int]]] = {}
    for i, ins in enumerate(body[:-1]):
        if ins.op not in _SEARCH_BRANCHES:
            continue
        upd = body[i + 1]
        if upd.op not in (Op.MOV, Op.FMOV) or upd.dest is None:
            continue
        v = upd.dest
        if v in forbidden:
            continue
        x = upd.srcs[0]
        cmp_ops = set(ins.srcs)
        if not (v in cmp_ops and x in cmp_ops and v != x):
            continue
        out.setdefault(v, []).append((i, i + 1))
    result = []
    for v, pairs in sorted(out.items(), key=lambda kv: (kv[0].cls.value, kv[0].id)):
        # every write of v in the body must be one of the guarded updates
        update_positions = {p for _, p in pairs}
        writes = [i for i, ins in enumerate(body) if ins.dest == v]
        if all(w in update_positions for w in writes) and len(pairs) > 1:
            result.append(SearchInfo(v, pairs))
    return result

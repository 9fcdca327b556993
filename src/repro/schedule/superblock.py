"""Superblock formation for inner loops.

Superblock scheduling (Hwu et al., the paper's code generation strategy)
schedules a *superblock*: a single-entry, multiple-exit straight-line code
region formed from the most likely execution trace.  For an inner loop we:

1. select the likely trace from the loop header to the latch, following
   branch probabilities (``Instr.prob``);
2. perform **tail duplication**: every trace block with a side entrance
   (an in-edge that is not the trace edge from its trace predecessor) is
   duplicated, together with all following trace blocks, and the side
   entrances are retargeted into the duplicate chain — so the trace becomes
   single-entry;
3. merge the trace blocks into one block.  Conditional branches between
   consecutive trace blocks are flipped so the trace falls through and
   off-trace targets become *side exits*.

The result is a :class:`SuperblockLoop`: the loop body is one superblock
whose side exits lead to rarely-executed off-trace blocks, each of which
finishes the current iteration and jumps back to the header.

This runs *after* loop unrolling (the trace then covers all unrolled
iterations) and *before* register renaming and the expansion
transformations, which operate on the superblock's instruction list and
patch side exits with compensation code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.loopvars import CountedLoop
from ..ir.block import Block
from ..ir.function import Function
from ..ir.instructions import Instr, NEGATED_BRANCH, Op
from ..ir.loop import Loop, ensure_preheader
from ..ir.operands import Label, Reg


class FormationError(RuntimeError):
    pass


@dataclass
class SuperblockLoop:
    """An inner loop whose body is a single superblock."""

    func: Function
    body: Block        # the superblock; its label is the loop header
    preheader: Block
    counted: CountedLoop | None
    #: labels of the off-trace blocks (duplicated tails, unlikely arms)
    offtrace: set[str] = field(default_factory=set)
    #: natural-exit block, reached only by falling out of the loop; the
    #: expansion transformations place their exit fix-up code here
    exit_block: Block | None = None

    @property
    def header(self) -> str:
        return self.body.label

    def side_exit_positions(self) -> list[int]:
        """Positions of side-exit branches within the body (all control
        instructions except the final backedge branch)."""
        return [
            i for i, ins in enumerate(self.body.instrs[:-1]) if ins.is_control
        ]

    @property
    def backedge(self) -> Instr:
        term = self.body.instrs[-1]
        if not term.is_branch or term.target is None or term.target.name != self.body.label:
            raise FormationError(
                f"superblock {self.body.label} does not end with its backedge"
            )
        return term


def _likely_successor(func: Function, blk: Block, loop: Loop) -> str:
    """Pick the more likely successor of ``blk`` that stays in the loop."""
    term = blk.terminator
    ft = func.fallthrough_succ(blk)
    if term is not None and term.op is Op.JMP:
        tgt = term.target.name
        if tgt not in loop.blocks:
            raise FormationError(f"trace dead-ends at {blk.label}")
        return tgt
    if term is None or not term.is_branch:
        if ft is None or ft not in loop.blocks:
            raise FormationError(f"trace dead-ends at {blk.label}")
        return ft
    tgt = term.target.name
    p = term.prob if term.prob is not None else 0.5
    cands: list[tuple[float, str]] = []
    if tgt in loop.blocks:
        cands.append((p, tgt))
    if ft is not None and ft in loop.blocks:
        cands.append((1.0 - p, ft))
    if not cands:
        raise FormationError(f"no in-loop successor from {blk.label}")
    # prefer the higher-probability edge; break ties toward fall-through
    cands.sort(key=lambda c: c[0], reverse=True)
    if len(cands) == 2 and cands[0][0] == cands[1][0] and ft is not None:
        return ft
    return cands[0][1]


def select_trace(func: Function, loop: Loop) -> list[str]:
    """Greedy likely path from header to latch (inclusive)."""
    if len(loop.latches) != 1:
        raise FormationError(f"loop {loop.header} has {len(loop.latches)} latches")
    latch = loop.latches[0]
    trace = [loop.header]
    seen = {loop.header}
    cur = loop.header
    bm = func.block_map()
    while cur != latch:
        nxt = _likely_successor(func, bm[cur], loop)
        if nxt in seen:
            raise FormationError(f"trace revisits {nxt}")
        trace.append(nxt)
        seen.add(nxt)
        cur = nxt
        if len(trace) > len(loop.blocks):
            raise FormationError("trace exceeds loop size")
    return trace


def tail_duplicate(func: Function, loop: Loop, trace: list[str]) -> set[str]:
    """Remove side entrances into the trace by duplicating trace suffixes.

    Side entrances are *edges*, not just predecessors: a skip branch inside
    ``trace[i-1]`` that jumps over its own tail to ``trace[i]`` (a triangle
    ``IF``) is a side entrance even though the block is the trace
    predecessor.  The only legitimate entrance into ``trace[i]`` is the
    *final* control transfer of ``trace[i-1]`` (fall-through, trailing
    jump, or terminator branch).

    Returns the labels of newly created duplicate blocks.
    """
    bm = func.block_map()
    tset = set(trace)

    # normalize: every non-trace loop block transfers control explicitly,
    # so fall-through side entrances become retargetable jumps
    for lab in loop.blocks:
        if lab not in tset:
            blk = bm[lab]
            if blk.falls_through:
                func.ensure_fallthrough_jump(blk)

    def entrance_branches(i: int) -> list[Instr]:
        """Side-entrance branch instructions into trace[i]."""
        target = trace[i]
        legit_pred = trace[i - 1]
        out: list[Instr] = []
        for blk in func.blocks:
            for pos, ins in enumerate(blk.instrs):
                if ins.target is None or ins.target.name != target:
                    continue
                is_final = pos == len(blk.instrs) - 1
                if blk.label == legit_pred and is_final:
                    continue  # the trace edge itself
                if blk.label not in loop.blocks:
                    continue  # entries from outside the loop target the
                    # header only (i >= 1 excludes it)
                out.append(ins)
            # fall-through side entrance from a block other than the trace
            # predecessor would be a layout accident; normalization above
            # prevents it for loop blocks
            if (
                blk.label in loop.blocks
                and blk.label != legit_pred
                and func.fallthrough_succ(blk) == target
            ):
                raise FormationError(
                    f"fall-through side entrance {blk.label} -> {target}"
                )
        return out

    i0 = None
    for i in range(1, len(trace)):
        if entrance_branches(i):
            i0 = i
            break
    if i0 is None:
        return set()

    dup_label: dict[str, str] = {}
    new_labels: set[str] = set()
    for lab in trace[i0:]:
        dup_label[lab] = func.new_label(f"{lab}.dup")

    # collect the entrance branches BEFORE creating duplicates (duplicates
    # contain copies of these branches, which must keep their own targets
    # remapped separately)
    entrances = {i: entrance_branches(i) for i in range(i0, len(trace))}

    # create duplicates in order, appended at the end of the function
    for k, lab in enumerate(trace[i0:], start=i0):
        src = bm[lab]
        dup = func.add_block(dup_label[lab])
        new_labels.add(dup.label)
        for ins in src.instrs:
            dup.append(ins.copy())
        # the duplicate of a block that fell through in the trace must jump
        # explicitly (duplicates live at the end of the function)
        ft = func.fallthrough_succ(src)
        if src.falls_through and ft is not None:
            dup.append(Instr(Op.JMP, target=Label(ft)))
        # retarget intra-dup edges: any target that names a duplicated trace
        # block (other than a backedge to the header) moves into the chain
        for ins in dup.instrs:
            if (
                ins.target is not None
                and ins.target.name in dup_label
                and ins.target.name != trace[0]
            ):
                ins.target = Label(dup_label[ins.target.name])

    # retarget the recorded side entrances into the duplicate chain
    for i, branches in entrances.items():
        for ins in branches:
            ins.target = Label(dup_label[trace[i]])
    return new_labels


def merge_trace(func: Function, loop: Loop, trace: list[str]) -> Block:
    """Concatenate the (now single-entry) trace into one superblock.

    Fall-throughs are made explicit first, so merging is purely textual:
    each trace block then ends with either ``jmp X`` or
    ``<cond-branch T>; jmp F``.  A conditional branch *into* the trace is
    flipped so the trace continues by fall-through and the off-trace arm
    becomes a side exit.
    """
    bm = func.block_map()
    for lab in trace:
        func.ensure_fallthrough_jump(bm[lab])
    head = bm[trace[0]]
    for nxt_label in trace[1:]:
        nxt = bm[nxt_label]
        term = head.instrs[-1] if head.instrs else None
        if term is None or term.op is not Op.JMP:
            raise FormationError(f"{head.label} lacks explicit terminator")
        cond = head.instrs[-2] if len(head.instrs) >= 2 else None
        if term.target.name == nxt_label:
            head.instrs.pop()  # continue by concatenation
        elif cond is not None and cond.is_branch and cond.target.name == nxt_label:
            # flip: branch goes off-trace (side exit), trace continues
            cond.op = NEGATED_BRANCH[cond.op]
            if cond.prob is not None:
                cond.prob = 1.0 - cond.prob
            cond.target, term.target = term.target, cond.target
            head.instrs.pop()
        else:
            raise FormationError(
                f"{head.label} does not transfer to trace successor {nxt_label}"
            )
        head.extend(nxt.instrs)
        nxt.instrs = []
        func.remove_block(nxt_label)
    return head


def form_superblock(
    func: Function,
    loop: Loop,
    counted: CountedLoop | None = None,
) -> SuperblockLoop:
    """Convert an inner loop into superblock form (trace + duplication +
    merge) and return its descriptor."""
    preheader = ensure_preheader(func, loop)
    trace = select_trace(func, loop)
    dups = tail_duplicate(func, loop, trace)
    offtrace = (loop.blocks - set(trace)) | dups
    body = merge_trace(func, loop, trace)

    # The merged body ends with [backedge-branch, jmp exit].  Off-trace
    # blocks still sitting between the body and the exit are moved to the
    # end of the function (they all end with explicit control), after which
    # the trailing jump is redundant and is dropped.
    term = body.instrs[-1] if body.instrs else None
    if term is None or term.op is not Op.JMP:
        raise FormationError(f"superblock {body.label} lacks explicit exit jump")
    exit_label = term.target.name
    back = body.instrs[-2] if len(body.instrs) >= 2 else None
    if back is None or not back.is_branch or back.target.name != body.label:
        raise FormationError(f"superblock {body.label} missing backedge branch")

    if offtrace:
        from ..transforms.compensation import ensure_halt_terminated

        ensure_halt_terminated(func)
        moved = [b for b in func.blocks if b.label in offtrace]
        for b in moved:
            func.blocks.remove(b)
        func.blocks.extend(moved)

    # dedicated natural-exit block for transformation fix-up code: reached
    # only when the loop actually ran and exited over the backedge test
    body.instrs.pop()  # drop 'jmp exit'
    exit_block = func.add_block(
        func.new_label(f"{body.label}.post"), index=func.block_index(body.label) + 1
    )
    if func.fallthrough_succ(exit_block) != exit_label:
        exit_block.append(Instr(Op.JMP, target=Label(exit_label)))

    return SuperblockLoop(func, body, preheader, counted, offtrace, exit_block)

"""Structural, type, and dataflow verifier for IR functions.

:func:`verify_function` checks structure after construction and after
every transformation pass to catch malformed IR early:

* operand arity and register classes match the opcode signature;
* branch targets name existing blocks;
* block labels are unique;
* no instruction object appears twice;
* unconditional jumps/branches only as allowed (side exits are permitted —
  superblocks rely on them — but a jump must terminate its block).

:func:`verify_def_before_use` adds a must-define forward dataflow check:
every register read must be written on *every* path from the entry (or be
defined on entry — harness-bound input scalars).  This is the invariant
renaming, the expansions, and scheduling must preserve: a transformation
that moves a use above its definition, or leaves an off-trace path reading
a register only the on-trace path initializes, is a miscompile even when
the hot path happens to execute correctly.

:func:`verify_pipeline` bundles both; the compilation pipeline runs it
between every pass when invoked with ``check=True`` (the CLI ``--check``
flag).
"""

from __future__ import annotations

from .function import Function, reachable_labels
from .instructions import Instr, Kind, Op, OP_INFO, VECTOR_KINDS
from .operands import FImm, Imm, Reg, RegClass, Sym

#: sanity cap on vector widths (well above any machine's vector_lanes)
MAX_LANES = 64


class VerifyError(AssertionError):
    pass


def _operand_class_ok(operand, expected: RegClass) -> bool:
    if isinstance(operand, Reg):
        return operand.cls is expected
    if isinstance(operand, Imm) or isinstance(operand, Sym):
        return expected is RegClass.INT
    if isinstance(operand, FImm):
        return expected is RegClass.FP
    return False


def verify_instr(ins: Instr) -> None:
    info = OP_INFO[ins.op]
    if info.kind in VECTOR_KINDS:
        if not 2 <= ins.lanes <= MAX_LANES:
            raise VerifyError(f"{ins!r}: vector op with lanes={ins.lanes}")
    elif ins.lanes:
        raise VerifyError(f"{ins!r}: scalar op with lanes={ins.lanes}")
    expect = ins.lanes if info.n_srcs < 0 else info.n_srcs
    if len(ins.srcs) != expect:
        raise VerifyError(f"{ins!r}: expected {expect} srcs")
    if (ins.dest is None) != (info.dest_cls is None):
        raise VerifyError(f"{ins!r}: dest presence mismatch")
    if ins.dest is not None and ins.dest.cls is not info.dest_cls:
        raise VerifyError(f"{ins!r}: dest class {ins.dest.cls} != {info.dest_cls}")
    src_cls = info.src_cls
    if info.n_srcs < 0:
        # variadic pack: every source is one lane of the element class
        src_cls = src_cls * ins.lanes
    for i, (src, cls) in enumerate(zip(ins.srcs, src_cls)):
        if not _operand_class_ok(src, cls):
            raise VerifyError(f"{ins!r}: src {i} ({src}) not of class {cls}")
    if ins.op in (Op.VEXT, Op.VEXTF):
        lane = ins.srcs[1]
        if not isinstance(lane, Imm) or not 0 <= lane.value < ins.lanes:
            raise VerifyError(f"{ins!r}: lane index {lane} out of range")
    if info.kind in (Kind.BRANCH, Kind.JUMP):
        if ins.target is None:
            raise VerifyError(f"{ins!r}: control instruction without target")
    elif ins.target is not None:
        raise VerifyError(f"{ins!r}: non-control instruction with target")


def verify_function(func: Function) -> None:
    labels = [b.label for b in func.blocks]
    if len(set(labels)) != len(labels):
        raise VerifyError(f"duplicate block labels in {func.name}")
    label_set = set(labels)

    seen_ids: set[int] = set()
    for blk in func.blocks:
        for idx, ins in enumerate(blk.instrs):
            if id(ins) in seen_ids:
                raise VerifyError(f"instruction {ins!r} appears twice")
            seen_ids.add(id(ins))
            verify_instr(ins)
            if ins.target is not None and ins.target.name not in label_set:
                raise VerifyError(
                    f"{ins!r} targets unknown label {ins.target.name!r}"
                )
            if ins.op is Op.JMP and idx != len(blk.instrs) - 1:
                raise VerifyError(f"jump mid-block in {blk.label}")


def verify_def_before_use(
    func: Function, defined_on_entry: set[Reg] | None = None
) -> None:
    """Every register use must be dominated by a definition on all paths.

    ``defined_on_entry`` lists registers initialized outside the
    instruction stream (the harness binds one per declared kernel scalar —
    ``Function.pinned_regs`` for lowered kernels).  Only blocks reachable
    from the entry are checked, because a block no path reaches never
    executes.  ``tests/unit/test_pass_census.py`` checks that the corpus
    functions have no such block after the conv phase and at Lev5.
    """
    if not func.blocks:
        return
    entry_defs = set(defined_on_entry or ())
    reachable = reachable_labels(func)
    bm = func.block_map()

    # Edge-sensitive def sets: a superblock body takes side exits
    # *mid-block*, so a definition after a side-exit branch does not reach
    # that branch's target.  For every CFG edge record the defs
    # accumulated up to the branching position (fall-through: the whole
    # block).  A target branched to from several positions keeps every
    # edge instance — must-define intersects them all.
    edges: dict[str, list[tuple[str, frozenset[Reg]]]] = {
        lab: [] for lab in reachable
    }
    for blk in func.blocks:
        if blk.label not in reachable:
            continue
        defs: set[Reg] = set()
        for ins in blk.instrs:
            if ins.is_control and ins.target is not None:
                t = ins.target.name
                if t in edges:
                    edges[t].append((blk.label, frozenset(defs)))
            if ins.dest is not None:
                defs.add(ins.dest)
        ft = func.fallthrough_succ(blk)
        if ft is not None and ft in edges:
            edges[ft].append((blk.label, frozenset(defs)))

    # forward must-define dataflow to fixpoint: defined-in of a block is
    # the intersection over incoming edges of (pred defined-in + defs
    # accumulated at the edge's position)
    universe: set[Reg] = set(entry_defs)
    for blk in func.blocks:
        for ins in blk.instrs:
            if ins.dest is not None:
                universe.add(ins.dest)
    defined_in: dict[str, set[Reg]] = {lab: set(universe) for lab in reachable}
    defined_in[func.entry.label] = set(entry_defs)
    changed = True
    while changed:
        changed = False
        for blk in func.blocks:
            lab = blk.label
            if lab not in reachable or lab == func.entry.label:
                continue
            ins_set = set(universe)
            for p, edge_defs in edges[lab]:
                ins_set &= defined_in[p] | edge_defs
            if ins_set != defined_in[lab]:
                defined_in[lab] = ins_set
                changed = True

    for blk in func.blocks:
        if blk.label not in reachable:
            continue
        defined = set(defined_in[blk.label])
        for ins in blk.instrs:
            for r in ins.reg_uses():
                if r not in defined:
                    raise VerifyError(
                        f"{func.name}/{blk.label}: {ins!r} uses {r} before "
                        f"any definition on some path"
                    )
            if ins.dest is not None:
                defined.add(ins.dest)


def verify_pipeline(
    func: Function,
    defined_on_entry: set[Reg] | None = None,
    stage: str = "",
) -> None:
    """Full between-pass invariant check: structure + def-before-use.

    ``stage`` says where in the pipeline the check runs (``"after
    rename"``), for error provenance.
    """
    try:
        verify_function(func)
        verify_def_before_use(func, defined_on_entry)
    except VerifyError as e:
        if stage:
            raise VerifyError(f"[{stage}] {e}") from None
        raise

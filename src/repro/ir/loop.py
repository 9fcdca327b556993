"""Loop structure: dominators, natural-loop discovery, loop descriptors.

The transformations of the paper operate on *inner loops*.  We discover
natural loops from dominator analysis so that passes (LICM, induction
variable strength reduction, unrolling, the expansion transformations) can
reason about preheaders, latches, exits, and nesting depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .block import Block
from .function import Function


def reverse_postorder(func: Function, succs: dict | None = None) -> list[str]:
    """Block labels in reverse postorder from the entry (``succs``: the
    function's ``successor_map()`` when the caller already has it)."""
    if succs is None:
        succs = func.successor_map()
    seen: set[str] = set()
    post: list[str] = []

    # Iterative DFS to avoid recursion limits on long block chains.
    stack: list[tuple[str, int]] = [(func.entry.label, 0)]
    seen.add(func.entry.label)
    while stack:
        lab, i = stack[-1]
        nxt = succs[lab]
        if i < len(nxt):
            stack[-1] = (lab, i + 1)
            s = nxt[i]
            if s not in seen:
                seen.add(s)
                stack.append((s, 0))
        else:
            stack.pop()
            post.append(lab)
    return list(reversed(post))


def dominators(func: Function, succs: dict | None = None) -> dict[str, set[str]]:
    """Classic iterative dominator sets (small CFGs; clarity over speed);
    ``succs`` as in :func:`reverse_postorder`."""
    if succs is None:
        succs = func.successor_map()
    rpo = reverse_postorder(func, succs)
    preds = func.predecessors(succs)
    all_labs = set(rpo)
    entry = func.entry.label
    dom: dict[str, set[str]] = {lab: set(all_labs) for lab in rpo}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for lab in rpo:
            if lab == entry:
                continue
            ps = [p for p in preds[lab] if p in all_labs]
            new = set(all_labs)
            for p in ps:
                new &= dom[p]
            new.add(lab)
            if new != dom[lab]:
                dom[lab] = new
                changed = True
    return dom


@dataclass(eq=False)
class Loop:
    """A natural loop.

    * ``header`` — unique entry block of the loop.
    * ``blocks`` — labels of all blocks in the loop (header included).
    * ``latches`` — blocks with a backedge to the header.
    * ``preheader`` — block outside the loop whose only successor is the
      header and which is the header's only outside predecessor
      (created on demand by :func:`ensure_preheader`).
    * ``exit_edges`` — (from_label, to_label) edges leaving the loop.
    """

    header: str
    blocks: set[str]
    latches: list[str]
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        d, p = 1, self.parent
        while p is not None:
            d += 1
            p = p.parent
        return d

    @property
    def is_innermost(self) -> bool:
        return not self.children

    def exit_edges(self, func: Function) -> list[tuple[str, str]]:
        edges = []
        bm = func.block_map()
        for lab in sorted(self.blocks):
            for s in func.successors(bm[lab]):
                if s not in self.blocks:
                    edges.append((lab, s))
        return edges

    def body_instrs(self, func: Function):
        bm = func.block_map()
        for b in func.blocks:  # layout order for determinism
            if b.label in self.blocks:
                yield from b.instrs

    def __repr__(self) -> str:
        return f"<Loop header={self.header} blocks={sorted(self.blocks)}>"


def find_loops(func: Function) -> list[Loop]:
    """Discover natural loops; returns them with parent/children nesting.

    Loops sharing a header are merged (standard natural-loop convention).
    The result is ordered outermost-first by nesting depth.
    """
    succs = func.successor_map()
    dom = dominators(func, succs)
    bm = func.block_map()

    # backedges: edge u->h where h dominates u
    back: dict[str, list[str]] = {}
    for lab, ss in succs.items():
        for s in ss:
            if s in dom.get(lab, set()):
                back.setdefault(s, []).append(lab)

    preds = func.predecessors(succs)
    loops: list[Loop] = []
    for header, latches in back.items():
        body: set[str] = {header}
        work = [lat for lat in latches if lat != header]
        body.update(latches)
        while work:
            lab = work.pop()
            for p in preds[lab]:
                if p not in body and p in bm:
                    body.add(p)
                    work.append(p)
        loops.append(Loop(header, body, sorted(set(latches))))

    # nesting: loop A is parent of B if B.blocks < A.blocks
    loops.sort(key=lambda l: len(l.blocks), reverse=True)
    for i, inner in enumerate(loops):
        best: Loop | None = None
        for outer in loops:
            if outer is inner:
                continue
            if inner.blocks < outer.blocks:
                if best is None or len(outer.blocks) < len(best.blocks):
                    best = outer
        inner.parent = best
        if best is not None:
            best.children.append(inner)
    loops.sort(key=lambda l: l.depth)
    return loops


def innermost_loops(func: Function) -> list[Loop]:
    return [l for l in find_loops(func) if l.is_innermost]


def ensure_preheader(func: Function, loop: Loop) -> Block:
    """Return the loop's preheader block, creating one if necessary.

    The preheader is the unique out-of-loop predecessor of the header and
    falls through (or jumps) only to the header.
    """
    preds = func.predecessors()
    outside = [p for p in preds[loop.header] if p not in loop.blocks]
    if len(outside) == 1:
        cand = func.get_block(outside[0])
        succs = func.successors(cand)
        if succs == [loop.header]:
            return cand
    # create a fresh preheader immediately before the header in layout
    ph_label = func.new_label(f"{loop.header}.pre")
    idx = func.block_index(loop.header)
    ph = func.add_block(ph_label, index=idx)
    # all out-of-loop edges into the header must be routed through it;
    # branches that targeted the header now target the preheader
    from .operands import Label

    bm = func.block_map()
    for p in outside:
        pb = bm[p]
        for ins in pb.branches():
            if ins.target is not None and ins.target.name == loop.header:
                ins.target = Label(ph_label)
        # fall-through into the header now falls into the preheader, which
        # falls through to the header: layout insertion handles it.
    return ph

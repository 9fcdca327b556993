"""Test-only reference: the set-of-``Reg`` interference builder and
colourer that ``repro.regalloc`` used before its bitset representation,
frozen (first-fit spelled as its definition instead of the used-colour
mask trick).  ``test_regalloc_bitset.py`` holds the production graph
and colouring against it (same nodes, same edges, same colour for every
register); nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.analysis.liveness import liveness
from repro.ir.function import Function
from repro.ir.operands import Reg, RegClass


class ReferenceGraph:
    def __init__(self) -> None:
        self.adj: dict[Reg, set[Reg]] = defaultdict(set)
        self.nodes: set[Reg] = set()

    def add_node(self, r: Reg) -> None:
        self.nodes.add(r)
        self.adj.setdefault(r, set())

    def add_edge(self, a: Reg, b: Reg) -> None:
        if a == b or a.cls is not b.cls:
            return
        self.add_node(a)
        self.add_node(b)
        self.adj[a].add(b)
        self.adj[b].add(a)


def reference_interference(
    func: Function, live_out_exit: set[Reg] | None = None
) -> ReferenceGraph:
    live_out_exit = live_out_exit or set()
    lv = liveness(func, live_out_exit)
    g = ReferenceGraph()
    for ins in func.iter_instrs():
        for r in ins.reg_uses():
            g.add_node(r)
        for r in ins.reg_defs():
            g.add_node(r)
    for blk in func.blocks:
        live = set(lv.live_out[blk.label])
        for ins in reversed(blk.instrs):
            d = ins.dest
            if d is not None:
                for other in live:
                    if other != d and other.cls is d.cls:
                        g.adj[d].add(other)
                        g.adj[other].add(d)
                        g.nodes.add(other)  # live-through regs may be new
                live.discard(d)
            for r in ins.reg_uses():
                live.add(r)
    # function inputs: live-in registers of the entry block are all
    # defined "before" the program and therefore mutually interfere
    entry_live = lv.live_in.get(func.entry.label, set())
    for a in entry_live:
        for b in entry_live:
            g.add_edge(a, b)
    return g


def reference_coloring(g: ReferenceGraph, cls: RegClass) -> dict[Reg, int]:
    """Chaitin simplification order ((degree, id)-minimal node first, by a
    lazy heap), first-fit colours in reverse."""
    nodes = sorted((r for r in g.nodes if r.cls is cls), key=lambda r: r.id)
    degree = {r: len(g.adj[r]) for r in nodes}
    removed: set[Reg] = set()
    stack: list[Reg] = []
    heap = [(degree[r], r.id, r) for r in nodes]
    heapq.heapify(heap)
    while heap:
        d, _, r = heapq.heappop(heap)
        if r in removed or d != degree[r]:
            continue
        removed.add(r)
        stack.append(r)
        for n in g.adj[r]:
            if n not in removed:
                degree[n] -= 1
                heapq.heappush(heap, (degree[n], n.id, n))
    colors: dict[Reg, int] = {}
    for r in reversed(stack):
        used = {colors[n] for n in g.adj[r] if n in colors}
        c = 0
        while c in used:
            c += 1
        colors[r] = c
    return colors

"""Interference graph construction over a whole function.

The modeled processor has an unlimited register file, but the paper's
register allocator "attempts to utilize the least number of registers
required for a given loop.  Therefore, registers are reused as soon as
they become available."  We measure that number by building the
interference graph of the final (scheduled) code and coloring it greedily:
two virtual registers interfere when one is defined at a point where the
other is live.

Registers live into the function (workload inputs) are treated as defined
at entry, so they interfere with each other and with anything live across
their range.

Representation: the function's registers get dense indices ordered by
(class, id), and every register set — gen/kill, live-in/live-out, the
running live set, an adjacency row — is one Python int with bit ``i``
standing for register ``i``.  A definition then costs one ``|=`` of the
live set into its row instead of a hashed set insertion per live
register, and a class is a contiguous run of bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.liveness import liveness_masks
from ..ir.function import Function
from ..ir.operands import Reg, RegClass


def bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class InterferenceGraph:
    #: index -> register, ordered by (class, id)
    regs: list[Reg]
    index: dict[Reg, int]
    #: adj[i]: the registers interfering with ``regs[i]`` — same class
    #: only, never ``i`` itself, symmetric
    adj: list[int]
    #: the graph's nodes: registers that appear in an instruction or have
    #: an edge (a live-through register named only by ``live_out_exit``
    #: is a node exactly when something interferes with it)
    node_mask: int
    #: the index range of each register class
    class_mask: dict[RegClass, int]

    def regs_of(self, mask: int) -> list[Reg]:
        regs = self.regs
        return [regs[i] for i in bits(mask)]

    @property
    def nodes(self) -> set[Reg]:
        return set(self.regs_of(self.node_mask))

    def neighbors(self, r: Reg) -> set[Reg]:
        i = self.index.get(r)
        return set() if i is None else set(self.regs_of(self.adj[i]))

    def degree(self, r: Reg) -> int:
        i = self.index.get(r)
        return 0 if i is None else self.adj[i].bit_count()

    def of_class(self, cls: RegClass) -> list[Reg]:
        """The class's nodes, by ascending id."""
        return self.regs_of(self.node_mask & self.class_mask[cls])


_CLASS_ORDER = {cls: k for k, cls in enumerate(RegClass)}


def build_interference(
    func: Function, live_out_exit: set[Reg] | None = None
) -> InterferenceGraph:
    live_out_exit = live_out_exit or set()
    seen = set(live_out_exit)
    for ins in func.iter_instrs():
        for s in ins.srcs:
            if s.__class__ is Reg:
                seen.add(s)
        if ins.dest is not None:
            seen.add(ins.dest)
    regs = sorted(seen, key=lambda r: (_CLASS_ORDER[r.cls], r.id))
    index = {r: i for i, r in enumerate(regs)}
    n = len(regs)
    class_mask = dict.fromkeys(RegClass, 0)
    for i, r in enumerate(regs):
        class_mask[r.cls] |= 1 << i

    # per block, per instruction: (destination index or -1, mask of uses)
    in_instrs = 0
    block_ops: dict[str, list[tuple[int, int]]] = {}
    for blk in func.blocks:
        ops = []
        for ins in blk.instrs:
            uses = 0
            for s in ins.srcs:
                if s.__class__ is Reg:
                    uses |= 1 << index[s]
            d = -1 if ins.dest is None else index[ins.dest]
            ops.append((d, uses))
            in_instrs |= uses if d < 0 else uses | 1 << d
        block_ops[blk.label] = ops

    exit_mask = 0
    for r in live_out_exit:
        exit_mask |= 1 << index[r]
    live_in, live_out = liveness_masks(func, block_ops, exit_mask)

    # a definition interferes with everything live across it; rows are
    # narrowed to the destination's class (and cleared of the destination
    # itself) once at the end, not at every definition
    defined = [0] * n
    for label, ops in block_ops.items():
        live = live_out[label]
        for d, uses in reversed(ops):
            if d >= 0:
                defined[d] |= live
                live &= ~(1 << d)
            live |= uses

    # function inputs: live-in registers of the entry block are all defined
    # "before" the program and therefore mutually interfere (with
    # everything live wherever they remain live: covered by the def-point
    # rule for other registers; between two never-defined registers the
    # entry clique is what accounts for them)
    entry_live = live_in[func.entry.label]
    for i in bits(entry_live):
        defined[i] |= entry_live

    adj = [
        row & class_mask[regs[i].cls] & ~(1 << i)
        for i, row in enumerate(defined)
    ]
    # symmetrise: transpose the def -> live rows into live -> def
    for i, row in enumerate(list(adj)):
        bit = 1 << i
        while row:  # bits(row), inlined: one step per edge
            low = row & -row
            row ^= low
            adj[low.bit_length() - 1] |= bit

    node_mask = in_instrs
    for i, row in enumerate(adj):
        if row:
            node_mask |= 1 << i
    return InterferenceGraph(regs, index, adj, node_mask, class_mask)

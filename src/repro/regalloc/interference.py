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
from typing import TYPE_CHECKING

import numpy as np

from ..analysis.liveness import liveness_masks
from ..ir.function import Function
from ..ir.operands import Reg, RegClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coloring import RegisterUsage


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


class RegisterNumbering:
    """One dense numbering of a function's registers, shared by every
    reschedule of it.

    The issue widths of a cell schedule the same instruction objects in
    different orders, so the register set, the class ranges and each
    instruction's ``(destination index or -1, mask of uses)`` are the
    same for all of them: they are computed once here, from any one of
    them.  :meth:`graph` builds one reschedule's interference graph from
    them, and :meth:`usage` colours it — once per distinct instruction
    order, so a width that issues in an earlier width's order reuses
    that width's counts.  A function holding an instruction the
    numbered one does not is refused with ``ValueError``.
    """

    def __init__(self, func: Function, live_out_exit: set[Reg] | None = None):
        live_out_exit = live_out_exit or set()
        instrs = list(func.iter_instrs())
        seen = set(live_out_exit)
        for ins in instrs:
            for s in ins.srcs:
                if s.__class__ is Reg:
                    seen.add(s)
            if ins.dest is not None:
                seen.add(ins.dest)
        self.regs = regs = sorted(seen, key=lambda r: (_CLASS_ORDER[r.cls], r.id))
        self.index = index = {r: i for i, r in enumerate(regs)}
        self.class_mask = class_mask = dict.fromkeys(RegClass, 0)
        for i, r in enumerate(regs):
            class_mask[r.cls] |= 1 << i
        # keyed by identity: the instructions stay alive with ``_instrs``
        self._instrs = instrs
        self._ops: dict[int, tuple[int, int]] = {}
        in_instrs = 0
        for ins in instrs:
            uses = 0
            for s in ins.srcs:
                if s.__class__ is Reg:
                    uses |= 1 << index[s]
            d = -1 if ins.dest is None else index[ins.dest]
            self._ops[id(ins)] = (d, uses)
            in_instrs |= uses if d < 0 else uses | 1 << d
        self._in_instrs = in_instrs
        self._exit_mask = 0
        for r in live_out_exit:
            self._exit_mask |= 1 << index[r]
        self._usage: dict[tuple, RegisterUsage] = {}

    def graph(self, func: Function) -> InterferenceGraph:
        """The interference graph of ``func``, a reschedule of the
        numbered function."""
        ops = self._ops
        try:
            block_ops = {blk.label: [ops[id(ins)] for ins in blk.instrs]
                         for blk in func.blocks}
        except KeyError:
            raise ValueError(f"{func.name} is not a reschedule of the "
                             "numbered function") from None
        live_in, live_out = liveness_masks(func, block_ops, self._exit_mask)

        # a definition interferes with everything live across it; rows
        # are narrowed to the destination's class (and cleared of the
        # destination itself) once at the end, not at every definition
        n = len(self.regs)
        defined = [0] * n
        for label, bops in block_ops.items():
            live = live_out[label]
            for d, uses in reversed(bops):
                if d >= 0:
                    defined[d] |= live
                    live &= ~(1 << d)
                live |= uses

        # function inputs: live-in registers of the entry block are all
        # defined "before" the program and therefore mutually interfere
        # (with everything live wherever they remain live: covered by the
        # def-point rule for other registers; between two never-defined
        # registers the entry clique is what accounts for them)
        entry_live = live_in[func.entry.label]
        for i in bits(entry_live):
            defined[i] |= entry_live

        regs, class_mask = self.regs, self.class_mask
        adj = _symmetric([
            row & class_mask[regs[i].cls] & ~(1 << i)
            for i, row in enumerate(defined)
        ])
        node_mask = self._in_instrs
        for i, row in enumerate(adj):
            if row:
                node_mask |= 1 << i
        return InterferenceGraph(regs, self.index, adj, node_mask, class_mask)

    def usage(self, func: Function, check: bool = False) -> RegisterUsage:
        """The registers ``func`` (a reschedule of the numbered
        function) utilizes; ``check=True`` verifies every colouring it
        computes."""
        from .coloring import count_registers

        key = tuple(tuple(map(id, blk.instrs)) for blk in func.blocks)
        usage = self._usage.get(key)
        if usage is None:
            usage = self._usage[key] = count_registers(self.graph(func), check)
        return usage


def _symmetric(rows: list[int]) -> list[int]:
    """``rows | rows^T`` for a square bit matrix of Python-int rows (bit
    ``j`` of row ``i`` is entry ``(i, j)``): one NumPy transpose of the
    unpacked matrix instead of a step per edge."""
    n = len(rows)
    if not n:
        return []
    nbytes = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(row.to_bytes(nbytes, "little") for row in rows),
        dtype=np.uint8).reshape(n, nbytes)
    m = np.unpackbits(packed, axis=1, count=n, bitorder="little")
    m |= m.T
    data = np.packbits(m, axis=1, bitorder="little").tobytes()
    frm = int.from_bytes
    return [frm(data[k:k + nbytes], "little")
            for k in range(0, n * nbytes, nbytes)]


def build_interference(
    func: Function, live_out_exit: set[Reg] | None = None
) -> InterferenceGraph:
    return RegisterNumbering(func, live_out_exit).graph(func)

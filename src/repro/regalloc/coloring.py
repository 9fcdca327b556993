"""Greedy graph coloring and register-usage measurement.

Chaitin-style simplification order (repeatedly remove the minimum-degree
node, color in reverse) with first-fit color choice.  With an unbounded
color supply this never spills; the number of colors used per register
class is the paper's "registers utilized" statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.function import Function
from ..ir.operands import Reg, RegClass
from .interference import InterferenceGraph, RegisterNumbering, bits


def color_class(g: InterferenceGraph, cls: RegClass) -> dict[Reg, int]:
    members = g.node_mask & g.class_mask[cls]
    if not members:
        return {}
    adj = g.adj
    # Simplification stack: repeatedly remove the (degree, id)-minimal
    # node.  Degrees are kept bit-sliced: ``planes[k]`` is the mask of
    # the nodes whose current degree has bit ``k`` set, so removing a
    # node decrements all its live neighbours at once (one ripple-borrow
    # across the planes) and the minimum is found plane by plane, from
    # the top, among the live nodes.  Indices ascend with the id inside
    # a class, so the lowest set bit of the minimal set is the (degree,
    # id) minimum; adjacency rows only ever hold same-class registers,
    # so no class filtering is needed inside.
    planes: list[int] = []
    for i in bits(members):
        d = adj[i].bit_count()
        k = 0
        while d:
            if d & 1:
                while len(planes) <= k:
                    planes.append(0)
                planes[k] |= 1 << i
            d >>= 1
            k += 1
    top = range(len(planes) - 1, -1, -1)
    alive = members
    stack: list[int] = []
    while alive:
        cand = alive
        for k in top:
            low = cand & ~planes[k]
            if low:
                cand = low
        low = cand & -cand
        alive ^= low
        stack.append(low.bit_length() - 1)
        borrow = adj[stack[-1]] & alive
        for k, plane in enumerate(planes):
            if not borrow:
                break
            planes[k] = plane ^ borrow
            borrow &= ~plane
    # first-fit: the lowest color none of whose members is a neighbor
    colored: list[int] = []  # color -> mask of the registers holding it
    colors: dict[Reg, int] = {}
    regs = g.regs
    for i in reversed(stack):
        row = adj[i]
        for c, holders in enumerate(colored):
            if not row & holders:
                colored[c] = holders | 1 << i
                break
        else:
            c = len(colored)
            colored.append(1 << i)
        colors[regs[i]] = c
    return colors


@dataclass
class RegisterUsage:
    """Registers utilized by a compiled function, per class and total.

    Vector registers live in their own file (see ``machine.py``), so they
    are counted separately and default to 0 for scalar-only code."""

    int_regs: int
    fp_regs: int
    vint_regs: int = 0
    vfp_regs: int = 0

    @property
    def total(self) -> int:
        return self.int_regs + self.fp_regs + self.vint_regs + self.vfp_regs


class ColoringError(AssertionError):
    pass


def verify_coloring(g: InterferenceGraph, colors: dict[Reg, int]) -> None:
    """Post-regalloc consistency: a coloring is valid iff every node got a
    color and no interference edge connects two same-colored registers.

    The paper's register statistic is only meaningful if the coloring
    respects interference — a violation means two simultaneously-live
    values would share a physical register, i.e. a silent miscompile on
    real hardware even though the virtual-register simulator runs fine.
    """
    holders: dict[int, int] = {}  # color -> mask of the registers holding it
    colored = 0
    for r, c in colors.items():
        if c < 0:
            raise ColoringError(f"{r}: negative color {c}")
        bit = 1 << g.index[r]
        holders[c] = holders.get(c, 0) | bit
        colored |= bit
    for r, c in colors.items():
        row = g.adj[g.index[r]]
        if row & ~colored:
            n = g.regs_of(row & ~colored)[0]
            raise ColoringError(f"{n} interferes with {r} but is uncolored")
        if row & holders[c]:
            n = g.regs_of(row & holders[c])[0]
            raise ColoringError(
                f"interfering registers {r} and {n} share color {c}"
            )


def count_registers(g: InterferenceGraph, check: bool = False) -> RegisterUsage:
    """Colour every class of ``g``; ``check=True`` verifies each
    colouring."""
    counts = {}
    for cls in RegClass:
        colors = color_class(g, cls)
        if check:
            verify_coloring(g, colors)
        counts[cls] = (max(colors.values()) + 1) if colors else 0
    return RegisterUsage(counts[RegClass.INT], counts[RegClass.FP],
                         counts[RegClass.VINT], counts[RegClass.VFP])


def measure_register_usage(
    func: Function, live_out_exit: set[Reg] | None = None, check: bool = False
) -> RegisterUsage:
    """The registers ``func`` utilizes: the one-function case of a
    :class:`~repro.regalloc.interference.RegisterNumbering`."""
    return RegisterNumbering(func, live_out_exit).usage(func, check)

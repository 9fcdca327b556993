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
from .interference import InterferenceGraph, bits, build_interference


def color_class(g: InterferenceGraph, cls: RegClass) -> dict[Reg, int]:
    members = g.node_mask & g.class_mask[cls]
    if not members:
        return {}
    adj = g.adj
    # Simplification stack: repeatedly remove the (degree, id)-minimal
    # node, from a bucket queue: ``bucket[d]`` is the mask of unremoved
    # nodes whose current degree is ``d``.  Indices ascend with the id
    # inside a class, so the lowest set bit of the lowest non-empty
    # bucket is the (degree, id) minimum; adjacency rows only ever hold
    # same-class registers, so no class filtering is needed inside.
    degree = [0] * members.bit_length()
    bucket = [0] * members.bit_count()  # a degree is below the node count
    for i in bits(members):
        d = degree[i] = adj[i].bit_count()
        bucket[d] |= 1 << i
    alive = members
    stack: list[int] = []
    d = 0
    while alive:
        while not bucket[d]:
            d += 1
        low = bucket[d] & -bucket[d]
        bucket[d] ^= low
        alive ^= low
        i = low.bit_length() - 1
        stack.append(i)
        row = adj[i] & alive
        while row:  # bits(row), inlined: the hot loop of the colourer
            low = row & -row
            row ^= low
            n = low.bit_length() - 1
            dn = degree[n] = degree[n] - 1
            bucket[dn + 1] ^= low
            bucket[dn] |= low
        # the removed node's degree was minimal and its neighbours fell
        # by exactly one, so no bucket below d - 1 can have filled
        if d:
            d -= 1
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


def measure_register_usage(
    func: Function, live_out_exit: set[Reg] | None = None, check: bool = False
) -> RegisterUsage:
    g = build_interference(func, live_out_exit)
    counts = {}
    for cls in RegClass:
        colors = color_class(g, cls)
        if check:
            verify_coloring(g, colors)
        counts[cls] = (max(colors.values()) + 1) if colors else 0
    return RegisterUsage(counts[RegClass.INT], counts[RegClass.FP],
                         counts[RegClass.VINT], counts[RegClass.VFP])

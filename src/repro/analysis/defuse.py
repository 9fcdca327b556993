"""Def-use helpers over linear instruction sequences and whole functions."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..ir.function import Function
from ..ir.instructions import Instr
from ..ir.operands import Reg


@dataclass
class DefUse:
    """Def and use sites of every register in a linear sequence.

    Positions are indices into the sequence the object was built from.
    """

    defs: dict[Reg, list[int]] = field(default_factory=lambda: defaultdict(list))
    uses: dict[Reg, list[int]] = field(default_factory=lambda: defaultdict(list))

    @classmethod
    def of(cls, instrs: list[Instr]) -> "DefUse":
        du = cls()
        for i, ins in enumerate(instrs):
            for r in ins.reg_uses():
                du.uses[r].append(i)
            for r in ins.reg_defs():
                du.defs[r].append(i)
        return du

    def defined(self) -> set[Reg]:
        return set(self.defs)

    def used(self) -> set[Reg]:
        return set(self.uses)

    def touching(self, reg: Reg) -> list[int]:
        """Ascending positions of the instructions that define or use
        ``reg``."""
        return sorted({*self.defs.get(reg, ()), *self.uses.get(reg, ())})

    def single_def(self, reg: Reg) -> int | None:
        d = self.defs.get(reg, [])
        return d[0] if len(d) == 1 else None


def regs_defined(instrs) -> set[Reg]:
    out: set[Reg] = set()
    for ins in instrs:
        out.update(ins.reg_defs())
    return out


def regs_used(instrs) -> set[Reg]:
    out: set[Reg] = set()
    for ins in instrs:
        out.update(ins.reg_uses())
    return out


def func_def_counts(func: Function) -> dict[Reg, int]:
    counts: dict[Reg, int] = defaultdict(int)
    for ins in func.iter_instrs():
        for r in ins.reg_defs():
            counts[r] += 1
    return dict(counts)


def reaching_def_before(instrs: list[Instr], idx: int, reg: Reg) -> int | None:
    """Index of the nearest def of ``reg`` strictly before position ``idx``
    in a linear sequence, or None (value is live-in to the sequence)."""
    for j in range(idx - 1, -1, -1):
        if instrs[j].dest == reg:
            return j
    return None

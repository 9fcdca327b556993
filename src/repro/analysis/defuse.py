"""Def and use sites of the registers of a linear instruction sequence."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

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

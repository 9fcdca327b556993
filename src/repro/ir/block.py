"""Basic blocks.

A block is a labeled straight-line instruction sequence.  Control may leave
a block through any branch instruction it contains (superblocks have side
exits mid-block), through a trailing unconditional jump, or by falling
through to the next block in function layout order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .instructions import Instr, Kind, Op


@dataclass(eq=False)
class Block:
    """A basic block (or superblock: single entry, possibly many exits)."""

    label: str
    instrs: list[Instr] = field(default_factory=list)

    def append(self, ins: Instr) -> Instr:
        self.instrs.append(ins)
        return ins

    def extend(self, instrs: list[Instr]) -> None:
        self.instrs.extend(instrs)

    def insert(self, idx: int, ins: Instr) -> Instr:
        self.instrs.insert(idx, ins)
        return ins

    def remove(self, ins: Instr) -> None:
        self.instrs.remove(ins)

    @property
    def terminator(self) -> Instr | None:
        """Trailing control instruction, if any."""
        if self.instrs and self.instrs[-1].is_control:
            return self.instrs[-1]
        return None

    @property
    def falls_through(self) -> bool:
        """True if control may reach the next block in layout order."""
        t = self.terminator
        return t is None or t.op not in (Op.JMP, Op.HALT)

    def branches(self) -> Iterator[Instr]:
        for ins in self.instrs:
            if ins.is_control:
                yield ins

    def side_exits(self) -> Iterator[Instr]:
        """Branches other than the trailing terminator."""
        for ins in self.instrs[:-1]:
            if ins.is_control:
                yield ins

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def __str__(self) -> str:
        from .printer import format_block

        return format_block(self)

    def __repr__(self) -> str:
        return f"<Block {self.label}: {len(self.instrs)} instrs>"

"""Operand kinds for the repro RISC intermediate representation.

The IR models a load/store RISC instruction set similar to the MIPS R2000,
as assumed by the paper (Section 3.1).  Instructions operate on an unlimited
supply of *virtual registers* split into two classes — integer and floating
point — plus integer and floating-point immediates, symbolic addresses
(array base addresses, resolved by the simulator's symbol table), and
branch-target labels.

Operands are immutable value objects: two ``Reg(3, RegClass.INT)`` are the
same register.  The printer renders them in the paper's notation
(``r3i``, ``r3f``, ``A``, ``L1``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RegClass(enum.Enum):
    """Register class: the machine has separate int, fp, and (for Lev5
    superword-level parallelism) vector-int / vector-fp register files."""

    INT = "i"
    FP = "f"
    VINT = "vi"
    VFP = "vf"

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"RegClass.{self.name}"

    @property
    def is_vector(self) -> bool:
        return self is RegClass.VINT or self is RegClass.VFP

    @property
    def element(self) -> "RegClass":
        """The scalar class of one lane (identity for scalar classes)."""
        if self is RegClass.VINT:
            return RegClass.INT
        if self is RegClass.VFP:
            return RegClass.FP
        return self


# Per-class hash base for Reg.__hash__.  Scalar bases keep the historical
# hash values ((id << 1) | is_fp) bit-identical — deterministic set
# iteration order, and therefore golden schedules, must not move when the
# vector classes are introduced.  Vector bases sit far above any realistic
# register id so vector and scalar registers never collide.
RegClass.INT._hash_base = 0
RegClass.FP._hash_base = 1
RegClass.VINT._hash_base = 0x40000000
RegClass.VFP._hash_base = 0x40000001


@dataclass(frozen=True, slots=True)
class Reg:
    """A virtual register.

    ``id`` is unique *within a class*; ``Reg(1, INT)`` and ``Reg(1, FP)``
    are distinct registers (printed ``r1i`` and ``r1f``).
    """

    id: int
    cls: RegClass

    def __hash__(self) -> int:
        # Registers live in the hottest sets of the compiler (liveness,
        # interference, dependence analysis).  The auto-generated hash
        # goes through a tuple and the enum member's name-string hash;
        # this small-int hash is much cheaper and, as a bonus,
        # independent of PYTHONHASHSEED, so set iteration order is
        # identical in every process.  The per-class base reproduces the
        # historical scalar hashes exactly (see RegClass above).
        return self.cls._hash_base + (self.id << 1)

    def __eq__(self, other) -> bool:
        if other.__class__ is Reg:
            return self.id == other.id and self.cls is other.cls
        return NotImplemented

    def __str__(self) -> str:
        return f"r{self.id}{self.cls.value}"

    def __repr__(self) -> str:
        return str(self)

    @property
    def is_int(self) -> bool:
        return self.cls is RegClass.INT

    @property
    def is_fp(self) -> bool:
        return self.cls is RegClass.FP

    @property
    def is_vector(self) -> bool:
        return self.cls.is_vector


@dataclass(frozen=True, slots=True)
class Imm:
    """Integer immediate operand."""

    value: int

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True, slots=True)
class FImm:
    """Floating-point immediate operand."""

    value: float

    def __str__(self) -> str:
        return repr(float(self.value))

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True, slots=True)
class Sym:
    """A symbolic integer constant — an array base address.

    The simulator resolves symbols through a symbol table built when arrays
    are bound to memory.  For dependence analysis, two distinct symbols are
    guaranteed not to alias (FORTRAN array semantics).
    """

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return str(self)


@dataclass(frozen=True, slots=True)
class Label:
    """A branch-target label naming a basic block."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return str(self)


#: Operands usable where an integer value is expected.
IntOperand = Reg | Imm | Sym
#: Operands usable where a floating-point value is expected.
FpOperand = Reg | FImm
#: Any value operand.
Operand = Reg | Imm | FImm | Sym


def int_reg(i: int) -> Reg:
    """Shorthand for ``Reg(i, RegClass.INT)``."""
    return Reg(i, RegClass.INT)


def fp_reg(i: int) -> Reg:
    """Shorthand for ``Reg(i, RegClass.FP)``."""
    return Reg(i, RegClass.FP)

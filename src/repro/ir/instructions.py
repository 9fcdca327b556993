"""Instruction definitions for the repro IR.

The opcode set is a RISC assembly similar to the MIPS R2000 (paper §3.1):
integer ALU ops, integer multiply/divide/remainder, floating-point
arithmetic, int<->fp conversions, loads/stores with base+offset addressing,
and fused compare-and-branch instructions.

Each opcode carries static metadata (kind, operand classes, commutativity,
whether it may trap) used by the analyses and transformations.  Latencies
are *not* stored here — they belong to the machine model
(:mod:`repro.machine`), because the paper treats them as a processor
parameter (Table 1).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .operands import FImm, Imm, Label, Operand, Reg, RegClass, Sym


class Kind(enum.Enum):
    """Broad structural category of an opcode."""

    INT_ALU = enum.auto()
    INT_MUL = enum.auto()
    INT_DIV = enum.auto()
    FP_ALU = enum.auto()
    FP_MUL = enum.auto()
    FP_DIV = enum.auto()
    FP_CVT = enum.auto()
    LOAD = enum.auto()
    STORE = enum.auto()
    BRANCH = enum.auto()
    JUMP = enum.auto()
    HALT = enum.auto()
    NOP = enum.auto()
    # vector (Lev5 superword-level parallelism); latencies mirror the
    # scalar Table-1 classes of the per-lane operation
    VEC_IALU = enum.auto()
    VEC_IMUL = enum.auto()
    VEC_FALU = enum.auto()
    VEC_FMUL = enum.auto()
    VEC_FDIV = enum.auto()
    VEC_LOAD = enum.auto()
    VEC_STORE = enum.auto()
    VEC_PACK = enum.auto()


#: Kinds that denote vector (multi-lane) operations.
VECTOR_KINDS = frozenset({
    Kind.VEC_IALU, Kind.VEC_IMUL, Kind.VEC_FALU, Kind.VEC_FMUL,
    Kind.VEC_FDIV, Kind.VEC_LOAD, Kind.VEC_STORE, Kind.VEC_PACK,
})


class Op(enum.Enum):
    """Opcodes.  Value is the assembly mnemonic used by printer/parser."""

    # integer ALU (latency class: int ALU)
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"          # shift left logical
    SHRA = "shra"        # shift right arithmetic
    SHRL = "shrl"        # shift right logical
    MOV = "mov"          # integer register/immediate move
    # integer multiply / divide
    MUL = "mul"
    DIV = "div"          # truncating integer division
    REM = "rem"
    # floating point
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMOV = "fmov"
    # conversions
    ITOF = "itof"
    FTOI = "ftoi"        # truncation toward zero
    # memory: address = src0 (base) + src1 (offset)
    LD = "ld"            # integer load
    LDF = "ldf"          # floating-point load
    ST = "st"            # integer store; srcs = (base, offset, value)
    STF = "stf"          # fp store
    # fused compare-and-branch, integer operands
    BLT = "blt"
    BLE = "ble"
    BGT = "bgt"
    BGE = "bge"
    BEQ = "beq"
    BNE = "bne"
    # fused compare-and-branch, fp operands
    FBLT = "fblt"
    FBLE = "fble"
    FBGT = "fbgt"
    FBGE = "fbge"
    FBEQ = "fbeq"
    FBNE = "fbne"
    JMP = "jmp"
    HALT = "halt"
    NOP = "nop"
    # vector memory: ``lanes`` consecutive words starting at base+offset
    VLD = "vld"          # int vector load
    VLDF = "vldf"        # fp vector load
    VST = "vst"          # int vector store; srcs = (base, offset, value)
    VSTF = "vstf"        # fp vector store
    # element-wise vector arithmetic
    VADD = "vadd"
    VSUB = "vsub"
    VMUL = "vmul"
    VFADD = "vfadd"
    VFSUB = "vfsub"
    VFMUL = "vfmul"
    VFDIV = "vfdiv"
    # lane marshalling: gather scalars into a vector / extract one lane
    VPACK = "vpack"      # srcs = lanes int scalars
    VPACKF = "vpackf"    # srcs = lanes fp scalars
    VEXT = "vext"        # srcs = (vector, Imm lane index)
    VEXTF = "vextf"


_INT_BRANCHES = {Op.BLT, Op.BLE, Op.BGT, Op.BGE, Op.BEQ, Op.BNE}
_FP_BRANCHES = {Op.FBLT, Op.FBLE, Op.FBGT, Op.FBGE, Op.FBEQ, Op.FBNE}


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    kind: Kind
    #: number of value source operands (branches: the 2 compared values);
    #: -1 means variadic — arity equals the instruction's ``lanes``
    n_srcs: int
    #: register class of the destination, or None
    dest_cls: RegClass | None
    #: register classes expected of each source operand
    src_cls: tuple[RegClass, ...]
    #: op is commutative in its two sources
    commutative: bool = False
    #: op may raise an architectural exception (div by zero);
    #: such ops are not speculated above branches
    may_trap: bool = False


_I = RegClass.INT
_F = RegClass.FP

OP_INFO: dict[Op, OpInfo] = {
    Op.ADD: OpInfo(Kind.INT_ALU, 2, _I, (_I, _I), commutative=True),
    Op.SUB: OpInfo(Kind.INT_ALU, 2, _I, (_I, _I)),
    Op.AND: OpInfo(Kind.INT_ALU, 2, _I, (_I, _I), commutative=True),
    Op.OR: OpInfo(Kind.INT_ALU, 2, _I, (_I, _I), commutative=True),
    Op.XOR: OpInfo(Kind.INT_ALU, 2, _I, (_I, _I), commutative=True),
    Op.SHL: OpInfo(Kind.INT_ALU, 2, _I, (_I, _I)),
    Op.SHRA: OpInfo(Kind.INT_ALU, 2, _I, (_I, _I)),
    Op.SHRL: OpInfo(Kind.INT_ALU, 2, _I, (_I, _I)),
    Op.MOV: OpInfo(Kind.INT_ALU, 1, _I, (_I,)),
    Op.MUL: OpInfo(Kind.INT_MUL, 2, _I, (_I, _I), commutative=True),
    Op.DIV: OpInfo(Kind.INT_DIV, 2, _I, (_I, _I), may_trap=True),
    Op.REM: OpInfo(Kind.INT_DIV, 2, _I, (_I, _I), may_trap=True),
    Op.FADD: OpInfo(Kind.FP_ALU, 2, _F, (_F, _F), commutative=True),
    Op.FSUB: OpInfo(Kind.FP_ALU, 2, _F, (_F, _F)),
    Op.FMUL: OpInfo(Kind.FP_MUL, 2, _F, (_F, _F), commutative=True),
    Op.FDIV: OpInfo(Kind.FP_DIV, 2, _F, (_F, _F)),
    Op.FMOV: OpInfo(Kind.FP_ALU, 1, _F, (_F,)),
    Op.ITOF: OpInfo(Kind.FP_CVT, 1, _F, (_I,)),
    Op.FTOI: OpInfo(Kind.FP_CVT, 1, _I, (_F,)),
    Op.LD: OpInfo(Kind.LOAD, 2, _I, (_I, _I)),
    Op.LDF: OpInfo(Kind.LOAD, 2, _F, (_I, _I)),
    Op.ST: OpInfo(Kind.STORE, 3, None, (_I, _I, _I)),
    Op.STF: OpInfo(Kind.STORE, 3, None, (_I, _I, _F)),
    Op.BLT: OpInfo(Kind.BRANCH, 2, None, (_I, _I)),
    Op.BLE: OpInfo(Kind.BRANCH, 2, None, (_I, _I)),
    Op.BGT: OpInfo(Kind.BRANCH, 2, None, (_I, _I)),
    Op.BGE: OpInfo(Kind.BRANCH, 2, None, (_I, _I)),
    Op.BEQ: OpInfo(Kind.BRANCH, 2, None, (_I, _I)),
    Op.BNE: OpInfo(Kind.BRANCH, 2, None, (_I, _I)),
    Op.FBLT: OpInfo(Kind.BRANCH, 2, None, (_F, _F)),
    Op.FBLE: OpInfo(Kind.BRANCH, 2, None, (_F, _F)),
    Op.FBGT: OpInfo(Kind.BRANCH, 2, None, (_F, _F)),
    Op.FBGE: OpInfo(Kind.BRANCH, 2, None, (_F, _F)),
    Op.FBEQ: OpInfo(Kind.BRANCH, 2, None, (_F, _F)),
    Op.FBNE: OpInfo(Kind.BRANCH, 2, None, (_F, _F)),
    Op.JMP: OpInfo(Kind.JUMP, 0, None, ()),
    Op.HALT: OpInfo(Kind.HALT, 0, None, ()),
    Op.NOP: OpInfo(Kind.NOP, 0, None, ()),
}

_VI = RegClass.VINT
_VF = RegClass.VFP

OP_INFO.update({
    Op.VLD: OpInfo(Kind.VEC_LOAD, 2, _VI, (_I, _I)),
    Op.VLDF: OpInfo(Kind.VEC_LOAD, 2, _VF, (_I, _I)),
    Op.VST: OpInfo(Kind.VEC_STORE, 3, None, (_I, _I, _VI)),
    Op.VSTF: OpInfo(Kind.VEC_STORE, 3, None, (_I, _I, _VF)),
    Op.VADD: OpInfo(Kind.VEC_IALU, 2, _VI, (_VI, _VI), commutative=True),
    Op.VSUB: OpInfo(Kind.VEC_IALU, 2, _VI, (_VI, _VI)),
    Op.VMUL: OpInfo(Kind.VEC_IMUL, 2, _VI, (_VI, _VI), commutative=True),
    Op.VFADD: OpInfo(Kind.VEC_FALU, 2, _VF, (_VF, _VF), commutative=True),
    Op.VFSUB: OpInfo(Kind.VEC_FALU, 2, _VF, (_VF, _VF)),
    Op.VFMUL: OpInfo(Kind.VEC_FMUL, 2, _VF, (_VF, _VF), commutative=True),
    Op.VFDIV: OpInfo(Kind.VEC_FDIV, 2, _VF, (_VF, _VF)),
    Op.VPACK: OpInfo(Kind.VEC_PACK, -1, _VI, (_I,)),
    Op.VPACKF: OpInfo(Kind.VEC_PACK, -1, _VF, (_F,)),
    Op.VEXT: OpInfo(Kind.VEC_PACK, 2, _I, (_VI, _I)),
    Op.VEXTF: OpInfo(Kind.VEC_PACK, 2, _F, (_VF, _I)),
})


def _ops_of(*kinds: Kind) -> frozenset[Op]:
    return frozenset(op for op, info in OP_INFO.items() if info.kind in kinds)


#: Per-opcode membership tables behind ``Instr``'s structural predicates.
CONTROL_OPS = _ops_of(Kind.BRANCH, Kind.JUMP, Kind.HALT)
LOAD_OPS = _ops_of(Kind.LOAD, Kind.VEC_LOAD)
STORE_OPS = _ops_of(Kind.STORE, Kind.VEC_STORE)
MEM_OPS = LOAD_OPS | STORE_OPS
VECTOR_OPS = _ops_of(*VECTOR_KINDS)

# The predicates are the hottest queries of a compile, and a set lookup
# hashes the opcode through ``Enum.__hash__`` (a Python-level call): each
# member carries its answers as plain attributes instead.
for _op in Op:
    _op.is_control = _op in CONTROL_OPS
    _op.is_load = _op in LOAD_OPS
    _op.is_store = _op in STORE_OPS
    _op.is_mem = _op in MEM_OPS
    _op.is_vector = _op in VECTOR_OPS
del _op

#: element-wise vector op corresponding to each packable scalar op
VECTOR_OP_FOR: dict[Op, Op] = {
    Op.ADD: Op.VADD, Op.SUB: Op.VSUB, Op.MUL: Op.VMUL,
    Op.FADD: Op.VFADD, Op.FSUB: Op.VFSUB, Op.FMUL: Op.VFMUL,
    Op.FDIV: Op.VFDIV,
    Op.LD: Op.VLD, Op.LDF: Op.VLDF, Op.ST: Op.VST, Op.STF: Op.VSTF,
}

#: Branch condition negation, used when superblock formation flips a trace.
NEGATED_BRANCH: dict[Op, Op] = {
    Op.BLT: Op.BGE, Op.BGE: Op.BLT,
    Op.BLE: Op.BGT, Op.BGT: Op.BLE,
    Op.BEQ: Op.BNE, Op.BNE: Op.BEQ,
    Op.FBLT: Op.FBGE, Op.FBGE: Op.FBLT,
    Op.FBLE: Op.FBGT, Op.FBGT: Op.FBLE,
    Op.FBEQ: Op.FBNE, Op.FBNE: Op.FBEQ,
}

#: Branch with swapped comparison operands (a<b  <->  b>a).
SWAPPED_BRANCH: dict[Op, Op] = {
    Op.BLT: Op.BGT, Op.BGT: Op.BLT,
    Op.BLE: Op.BGE, Op.BGE: Op.BLE,
    Op.BEQ: Op.BEQ, Op.BNE: Op.BNE,
    Op.FBLT: Op.FBGT, Op.FBGT: Op.FBLT,
    Op.FBLE: Op.FBGE, Op.FBGE: Op.FBLE,
    Op.FBEQ: Op.FBEQ, Op.FBNE: Op.FBNE,
}

_uid_counter = itertools.count(1)


@dataclass(eq=False)
class Instr:
    """One IR instruction.

    Instructions are mutable objects with identity: the same ``Instr`` may
    not appear twice in a function.  ``uid`` provides a stable ordering for
    deterministic output.

    * ``dest`` — destination register, or None for stores/branches/nop.
    * ``srcs`` — value source operands.  For loads: ``(base, offset)``;
      for stores: ``(base, offset, value)``; for branches the two compared
      values.
    * ``target`` — branch/jump target label.
    """

    op: Op
    dest: Reg | None = None
    srcs: tuple[Operand, ...] = ()
    target: Label | None = None
    #: for branches: static probability the branch is taken (trace selection)
    prob: float | None = None
    #: unrolled-iteration index this instruction came from (0 = original
    #: body); used with the loop's DOALL classification for cross-iteration
    #: memory disambiguation
    tag: int = 0
    #: vector width in elements; 0 for scalar instructions.  Vector memory
    #: ops touch ``lanes`` consecutive words starting at base+offset.
    lanes: int = 0
    uid: int = field(default_factory=lambda: next(_uid_counter))

    # -- structural queries -------------------------------------------------

    @property
    def info(self) -> OpInfo:
        return OP_INFO[self.op]

    @property
    def kind(self) -> Kind:
        return OP_INFO[self.op].kind

    @property
    def is_branch(self) -> bool:
        return OP_INFO[self.op].kind is Kind.BRANCH

    @property
    def is_jump(self) -> bool:
        return self.op is Op.JMP

    @property
    def is_control(self) -> bool:
        return self.op.is_control

    @property
    def is_load(self) -> bool:
        return self.op.is_load

    @property
    def is_store(self) -> bool:
        return self.op.is_store

    @property
    def is_mem(self) -> bool:
        return self.op.is_mem

    @property
    def is_vector(self) -> bool:
        return self.op.is_vector

    @property
    def mem_words(self) -> int:
        """Number of consecutive memory words a memory op touches."""
        return self.lanes if self.lanes > 0 else 1

    @property
    def may_trap(self) -> bool:
        return OP_INFO[self.op].may_trap

    # -- operand access -----------------------------------------------------

    def reg_uses(self) -> Iterator[Reg]:
        """Registers read by this instruction."""
        for s in self.srcs:
            if isinstance(s, Reg):
                yield s

    def reg_defs(self) -> Iterator[Reg]:
        """Registers written by this instruction (0 or 1)."""
        if self.dest is not None:
            yield self.dest

    @property
    def address(self) -> tuple[Operand, Operand] | None:
        """(base, offset) for memory instructions, else None."""
        if self.is_mem:
            return (self.srcs[0], self.srcs[1])
        return None

    @property
    def store_value(self) -> Operand:
        assert self.is_store
        return self.srcs[2]

    def replace_uses(self, mapping: dict[Reg, Operand]) -> None:
        """Rewrite source registers in place according to ``mapping``."""
        if not mapping:
            return
        self.srcs = tuple(
            mapping.get(s, s) if isinstance(s, Reg) else s for s in self.srcs
        )

    def copy(self) -> "Instr":
        """Fresh instruction (new uid) with identical opcode/operands."""
        return Instr(self.op, self.dest, self.srcs, self.target, self.prob,
                     self.tag, self.lanes)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        from .printer import format_instr  # local import: avoid cycle

        return format_instr(self)

    def __repr__(self) -> str:
        return f"<{format_plain(self)} #{self.uid}>"


def format_plain(ins: Instr) -> str:
    """Low-level mnemonic rendering, independent of the pretty printer."""
    parts = [ins.op.value]
    if ins.dest is not None:
        parts.append(str(ins.dest))
    parts.extend(str(s) for s in ins.srcs)
    if ins.target is not None:
        parts.append(str(ins.target))
    return " ".join(parts)


# -- convenience constructors ------------------------------------------------

def make(op: Op, dest: Reg | None = None, srcs: tuple[Operand, ...] = (),
         target: Label | None = None, lanes: int = 0) -> Instr:
    """Construct an instruction, checking arity against opcode metadata.

    Vector opcodes require ``lanes >= 2``; variadic packs take exactly
    ``lanes`` sources.
    """
    info = OP_INFO[op]
    if info.kind in VECTOR_KINDS:
        if lanes < 2:
            raise ValueError(f"{op.value}: vector op needs lanes >= 2")
    elif lanes:
        raise ValueError(f"{op.value}: scalar op cannot carry lanes")
    expect = lanes if info.n_srcs < 0 else info.n_srcs
    if len(srcs) != expect:
        raise ValueError(
            f"{op.value} expects {expect} sources, got {len(srcs)}"
        )
    if (dest is None) != (info.dest_cls is None):
        raise ValueError(f"{op.value}: destination mismatch")
    if info.kind in (Kind.BRANCH, Kind.JUMP) and target is None:
        raise ValueError(f"{op.value}: missing branch target")
    return Instr(op, dest, srcs, target, lanes=lanes)

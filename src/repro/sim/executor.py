"""Compilation of IR instructions into the simulator's internal form.

Each IR instruction is pre-lowered once into a :class:`CompiledInstr`
with:

* resolved source fetch descriptors (register bank + id, or literal value,
  with symbols resolved against the memory's symbol table);
* a destination slot;
* the machine latency;
* a category the block-code generator (:mod:`repro.sim.blockgen`)
  dispatches on.

The semantic tables here (:data:`ALU_SEMANTICS`, :data:`CMP_SEMANTICS`,
:data:`VEC_SEMANTICS`) are what the reference evaluator
(:mod:`repro.check.refeval`) computes; the block code spells the same
operations inline.

Integer semantics are paper-era FORTRAN/C: division and remainder truncate
toward zero; shifts are arithmetic (``shra``) or 64-bit logical (``shrl``).
Floating point is IEEE double.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.block import Block
from ..ir.function import Function
from ..ir.instructions import Instr, Kind, Op
from ..ir.operands import FImm, Imm, Reg, RegClass, Sym
from ..machine import MachineConfig

#: Simulator-engine version: bumped whenever the execution/timing core
#: changes in a way that could alter observable results or their cost
#: profile.  The content-addressed store's CODE_VERSION salt
#: (:mod:`repro.service.keys`) is derived from this, so artifacts
#: produced by an older engine can never be served as current.
ENGINE_VERSION = "sim-3-vector"

# source/dest bank tags.  The vector banks index past the CONST tag so
# ``banks[(bank)]`` tuples can be built as (ivals, fvals, None, vivals,
# vfvals) with CONST operands never indexing a bank.
INT_BANK = 0
FP_BANK = 1
CONST = 2
VINT_BANK = 3
VFP_BANK = 4

_BANK_OF_CLASS = {
    RegClass.INT: INT_BANK,
    RegClass.FP: FP_BANK,
    RegClass.VINT: VINT_BANK,
    RegClass.VFP: VFP_BANK,
}

_MASK64 = (1 << 64) - 1


def _idiv(a: int, b: int) -> int:
    """Truncating integer division (toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _irem(a: int, b: int) -> int:
    return a - b * _idiv(a, b)


#: Scalar semantics shared with the reference evaluator
#: (:mod:`repro.check.refeval`): the differential oracle tests the
#: *compiler transformations*, so both executors must agree on what each
#: opcode computes — any divergence between them is then a transformation
#: or simulator-machinery bug, never an arithmetic-definition mismatch.
_ALU2 = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.MUL: lambda a, b: a * b,
    Op.DIV: _idiv,
    Op.REM: _irem,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << b,
    Op.SHRA: lambda a, b: a >> b,
    Op.SHRL: lambda a, b: (a & _MASK64) >> b,
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FDIV: lambda a, b: a / b,
}

#: public aliases for the shared semantic tables
ALU_SEMANTICS = _ALU2

_CMP = {
    Op.BLT: lambda a, b: a < b,
    Op.BLE: lambda a, b: a <= b,
    Op.BGT: lambda a, b: a > b,
    Op.BGE: lambda a, b: a >= b,
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.FBLT: lambda a, b: a < b,
    Op.FBLE: lambda a, b: a <= b,
    Op.FBGT: lambda a, b: a > b,
    Op.FBGE: lambda a, b: a >= b,
    Op.FBEQ: lambda a, b: a == b,
    Op.FBNE: lambda a, b: a != b,
}

CMP_SEMANTICS = _CMP


def _vmap(f):
    """Lift a scalar binary semantic to element-wise over lane tuples."""
    return lambda a, b: tuple(map(f, a, b))


#: Element-wise vector semantics: per-lane application of the shared
#: scalar definitions, so scalar and vector lanes can never disagree.
_VEC2 = {
    Op.VADD: _vmap(_ALU2[Op.ADD]),
    Op.VSUB: _vmap(_ALU2[Op.SUB]),
    Op.VMUL: _vmap(_ALU2[Op.MUL]),
    Op.VFADD: _vmap(_ALU2[Op.FADD]),
    Op.VFSUB: _vmap(_ALU2[Op.FSUB]),
    Op.VFMUL: _vmap(_ALU2[Op.FMUL]),
    Op.VFDIV: _vmap(_ALU2[Op.FDIV]),
}

VEC_SEMANTICS = _VEC2


# instruction categories for block-code generation
C_ALU = 0
C_LOAD = 1
C_STORE = 2
C_BRANCH = 3
C_JUMP = 4
C_NOP = 5
C_HALT = 6
# vector categories: variadic pack (gather lanes into a tuple), and
# multi-word memory ops (``instr.lanes`` words)
C_ALUN = 9
C_VLOAD = 10
C_VSTORE = 11

#: ops computed by one expression over their operands
_EXPR_OPS = (set(_ALU2) | set(_VEC2)
             | {Op.VEXT, Op.VEXTF, Op.MOV, Op.FMOV, Op.ITOF, Op.FTOI})
_CAT_OF_KIND = {
    Kind.LOAD: C_LOAD, Kind.STORE: C_STORE, Kind.BRANCH: C_BRANCH,
    Kind.VEC_LOAD: C_VLOAD, Kind.VEC_STORE: C_VSTORE,
}
_CAT_OF_OP = {
    Op.VPACK: C_ALUN, Op.VPACKF: C_ALUN,
    Op.JMP: C_JUMP, Op.HALT: C_HALT, Op.NOP: C_NOP,
}


@dataclass(eq=False)
class CompiledInstr:
    """One instruction pre-lowered for block-code generation and timing."""

    __slots__ = ("cat", "srcs", "dest", "lat", "kind", "target", "instr")

    cat: int
    srcs: tuple  # ((bank, key_or_value), ...)
    dest: tuple | None  # (bank, id)
    lat: int
    kind: Kind
    target: str | None
    instr: Instr  # original, for errors and the replay's identity map


def _fetch_desc(operand, symbols: dict[str, int]):
    if isinstance(operand, Reg):
        return (_BANK_OF_CLASS[operand.cls], operand.id)
    if isinstance(operand, Imm):
        return (CONST, operand.value)
    if isinstance(operand, FImm):
        return (CONST, operand.value)
    if isinstance(operand, Sym):
        try:
            return (CONST, symbols[operand.name])
        except KeyError:
            raise KeyError(f"unresolved symbol {operand.name!r}") from None
    raise TypeError(f"bad operand {operand!r}")


def compile_instr(ins: Instr, machine: MachineConfig, symbols: dict[str, int]) -> CompiledInstr:
    op = ins.op
    cat = C_ALU if op in _EXPR_OPS else _CAT_OF_OP.get(
        op, _CAT_OF_KIND.get(ins.kind))
    if cat is None:
        raise AssertionError(f"unhandled opcode {op}")
    assert ins.target is not None or cat not in (C_BRANCH, C_JUMP), ins
    return CompiledInstr(
        cat,
        tuple(_fetch_desc(s, symbols) for s in ins.srcs),
        None if ins.dest is None else (_BANK_OF_CLASS[ins.dest.cls],
                                       ins.dest.id),
        machine.latency(op), ins.kind,
        ins.target.name if ins.target is not None else None, ins)


@dataclass(eq=False)
class CompiledBlock:
    label: str
    code: list[CompiledInstr]
    #: index of the next block in layout order (fall-through), or None
    next_index: int | None


class CompiledProgram:
    """A function lowered for simulation against a given machine + symtab.

    Every instruction becomes a :class:`CompiledInstr` in its
    :class:`CompiledBlock`: operand fetch descriptors with symbols
    resolved, the destination slot and the machine latency.  ``index``
    maps a label to its block index, ``labels`` the reverse.
    ``n_iregs`` / ``n_fregs`` / ``n_viregs`` / ``n_vfregs`` bound the
    register ids referenced, so the block code can use flat list
    register banks instead of dicts (registers are densely reindexed by
    ``Function.reindex_regs``).
    """

    def __init__(self, func: Function, machine: MachineConfig, symbols: dict[str, int]):
        self.func = func
        self.machine = machine
        self.labels: list[str] = [blk.label for blk in func.blocks]
        self.index: dict[str, int] = {
            label: i for i, label in enumerate(self.labels)}
        self.blocks: list[CompiledBlock] = []
        nregs = [0, 0, 0, 0, 0]  # indexed by bank tag (CONST slot unused)
        for i, blk in enumerate(func.blocks):
            code = [compile_instr(ins, machine, symbols) for ins in blk.instrs]
            nxt = i + 1 if i + 1 < len(func.blocks) else None
            self.blocks.append(CompiledBlock(blk.label, code, nxt))
            for ci in code:
                regs = [s for s in ci.srcs if s[0] != CONST]
                if ci.dest is not None:
                    regs.append(ci.dest)
                for bank, key in regs:
                    if key + 1 > nregs[bank]:
                        nregs[bank] = key + 1
        self.n_iregs = nregs[INT_BANK]
        self.n_fregs = nregs[FP_BANK]
        self.n_viregs = nregs[VINT_BANK]
        self.n_vfregs = nregs[VFP_BANK]


def compiled_program(
    func: Function, machine: MachineConfig, symbols: dict[str, int]
) -> CompiledProgram:
    """Lower ``func`` for simulation on ``machine`` against a symbol
    table.  The caller owns the program: nothing else keeps it (or
    ``func``) alive."""
    return CompiledProgram(func, machine, symbols)

"""Constant propagation and folding (local, per block).

Propagates known constant register values forward through each block,
rewrites uses, and folds operations whose inputs are all constants into
moves.  Also applies the safe algebraic identities (x+0, x*1, x*0, x<<0,
x-0, x/1) that naive lowering produces constantly.
"""

from __future__ import annotations

from ..ir.function import Function
from ..ir.instructions import Instr, Op
from ..ir.operands import FImm, Imm, Operand, Reg

_INT_LIMIT = 1 << 31

_INT_FOLD = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.MUL: lambda a, b: a * b,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << b if 0 <= b < 32 else None,
    Op.SHRA: lambda a, b: a >> b if 0 <= b < 64 else None,
}

_FP_FOLD = {
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FDIV: lambda a, b: a / b if b != 0.0 else None,
}


def _fold(ins: Instr) -> Operand | None:
    """Value of ``ins`` if computable at compile time."""
    op = ins.op
    if op in (Op.MOV, Op.FMOV):
        s = ins.srcs[0]
        return s if isinstance(s, (Imm, FImm)) else None
    if op is Op.DIV:
        a, b = ins.srcs
        if isinstance(a, Imm) and isinstance(b, Imm) and b.value != 0:
            q = abs(a.value) // abs(b.value)
            return Imm(-q if (a.value < 0) != (b.value < 0) else q)
        return None
    if op is Op.REM:
        a, b = ins.srcs
        if isinstance(a, Imm) and isinstance(b, Imm) and b.value != 0:
            q = abs(a.value) // abs(b.value)
            q = -q if (a.value < 0) != (b.value < 0) else q
            return Imm(a.value - b.value * q)
        return None
    if op in _INT_FOLD:
        a, b = ins.srcs
        if isinstance(a, Imm) and isinstance(b, Imm):
            v = _INT_FOLD[op](a.value, b.value)
            if v is not None and abs(v) < _INT_LIMIT:
                return Imm(v)
        return None
    if op in _FP_FOLD:
        a, b = ins.srcs
        if isinstance(a, FImm) and isinstance(b, FImm):
            v = _FP_FOLD[op](a.value, b.value)
            if v is not None:
                return FImm(v)
        return None
    if op is Op.ITOF and isinstance(ins.srcs[0], Imm):
        return FImm(float(ins.srcs[0].value))
    return None


def _identity(ins: Instr) -> Operand | None:
    """Algebraic simplification of ``ins`` to a single operand, if any."""
    op = ins.op
    if op in (Op.ADD, Op.FADD):
        a, b = ins.srcs
        if isinstance(b, (Imm, FImm)) and b.value == 0:
            return a
        if isinstance(a, (Imm, FImm)) and a.value == 0:
            return b
    elif op in (Op.SUB, Op.FSUB, Op.SHL, Op.SHRA, Op.SHRL):
        a, b = ins.srcs
        if isinstance(b, (Imm, FImm)) and b.value == 0:
            return a
    elif op in (Op.MUL, Op.FMUL):
        a, b = ins.srcs
        for x, y in ((a, b), (b, a)):
            if isinstance(y, (Imm, FImm)):
                if y.value == 1:
                    return x
                if y.value == 0 and isinstance(y, Imm):
                    return Imm(0)
    elif op in (Op.DIV, Op.FDIV):
        a, b = ins.srcs
        if isinstance(b, (Imm, FImm)) and b.value == 1:
            return a
    return None


def propagate_constants(func: Function) -> int:
    """Local constant propagation + folding.  Returns rewrites made."""
    changed = 0
    for blk in func.blocks:
        known: dict[Reg, Operand] = {}
        for ins in blk.instrs:
            sub = {
                r: known[r]
                for r in ins.reg_uses()
                if r in known
            }
            if sub:
                # only substitute where operand classes allow constants: any
                # slot accepts a constant of its class in this ISA
                ins.replace_uses(sub)
                changed += 1
            folded = _fold(ins)
            if folded is None:
                simplified = _identity(ins)
                if simplified is not None and ins.dest is not None:
                    mv = Op.FMOV if ins.dest.is_fp else Op.MOV
                    ins.op = mv
                    ins.srcs = (simplified,)
                    changed += 1
                    if isinstance(simplified, (Imm, FImm)):
                        folded = simplified
            if folded is not None and ins.dest is not None:
                mv = Op.FMOV if ins.dest.is_fp else Op.MOV
                if ins.op is not mv or ins.srcs != (folded,):
                    ins.op = mv
                    ins.srcs = (folded,)
                    changed += 1
                known[ins.dest] = folded
                continue
            if ins.dest is not None:
                known.pop(ins.dest, None)
    return changed

"""Fluent construction of IR.

The builder keeps a current block and offers one method per operation,
returning the destination register so expressions compose::

    fb = FunctionBuilder("daxpy")
    fb.block("L1")
    x = fb.ldf(Sym("A"), i)
    y = fb.ldf(Sym("B"), i)
    fb.stf(Sym("C"), i, fb.fadd(x, y))
    i2 = fb.add(i, 4, dest=i)
    fb.blt(i2, n, "L1")

Integer/float Python literals are coerced to ``Imm``/``FImm``.
"""

from __future__ import annotations

from .block import Block
from .function import Function
from .instructions import Instr, Op
from .operands import FImm, Imm, Label, Operand, Reg, RegClass, Sym


def _int_op(v) -> Operand:
    if isinstance(v, int):
        return Imm(v)
    if isinstance(v, str):
        return Sym(v)
    return v


def _fp_op(v) -> Operand:
    if isinstance(v, (int, float)):
        return FImm(float(v))
    return v


class FunctionBuilder:
    """Builds a :class:`Function` block by block."""

    def __init__(self, name: str):
        self.func = Function(name)
        self.cur: Block | None = None

    # -- blocks ----------------------------------------------------------

    def block(self, label: str | None = None) -> Block:
        self.cur = self.func.add_block(label)
        return self.cur

    def at(self, blk: Block) -> "FunctionBuilder":
        self.cur = blk
        return self

    def emit(self, ins: Instr) -> Instr:
        assert self.cur is not None, "no current block"
        self.cur.append(ins)
        return ins

    # -- registers --------------------------------------------------------

    def _dest(self, dest: Reg | None, cls: RegClass) -> Reg:
        if dest is None:
            return self.func.new_reg(cls)
        if dest.cls is not cls:
            raise ValueError(f"dest {dest} has wrong class for {cls}")
        return self.func.reserve_reg(dest)

    # -- integer ops --------------------------------------------------------

    def _int2(self, op: Op, a, b, dest: Reg | None) -> Reg:
        d = self._dest(dest, RegClass.INT)
        self.emit(Instr(op, d, (_int_op(a), _int_op(b))))
        return d

    def add(self, a, b, dest: Reg | None = None) -> Reg:
        return self._int2(Op.ADD, a, b, dest)

    def sub(self, a, b, dest: Reg | None = None) -> Reg:
        return self._int2(Op.SUB, a, b, dest)

    def mul(self, a, b, dest: Reg | None = None) -> Reg:
        return self._int2(Op.MUL, a, b, dest)

    def div(self, a, b, dest: Reg | None = None) -> Reg:
        return self._int2(Op.DIV, a, b, dest)

    def rem(self, a, b, dest: Reg | None = None) -> Reg:
        return self._int2(Op.REM, a, b, dest)

    def xor(self, a, b, dest: Reg | None = None) -> Reg:
        return self._int2(Op.XOR, a, b, dest)

    def shl(self, a, b, dest: Reg | None = None) -> Reg:
        return self._int2(Op.SHL, a, b, dest)

    def shra(self, a, b, dest: Reg | None = None) -> Reg:
        return self._int2(Op.SHRA, a, b, dest)

    def shrl(self, a, b, dest: Reg | None = None) -> Reg:
        return self._int2(Op.SHRL, a, b, dest)

    def mov(self, a, dest: Reg | None = None) -> Reg:
        d = self._dest(dest, RegClass.INT)
        self.emit(Instr(Op.MOV, d, (_int_op(a),)))
        return d

    # -- floating point -------------------------------------------------------

    def _fp2(self, op: Op, a, b, dest: Reg | None) -> Reg:
        d = self._dest(dest, RegClass.FP)
        self.emit(Instr(op, d, (_fp_op(a), _fp_op(b))))
        return d

    def fadd(self, a, b, dest: Reg | None = None) -> Reg:
        return self._fp2(Op.FADD, a, b, dest)

    def fsub(self, a, b, dest: Reg | None = None) -> Reg:
        return self._fp2(Op.FSUB, a, b, dest)

    def fmul(self, a, b, dest: Reg | None = None) -> Reg:
        return self._fp2(Op.FMUL, a, b, dest)

    def fdiv(self, a, b, dest: Reg | None = None) -> Reg:
        return self._fp2(Op.FDIV, a, b, dest)

    def fmov(self, a, dest: Reg | None = None) -> Reg:
        d = self._dest(dest, RegClass.FP)
        self.emit(Instr(Op.FMOV, d, (_fp_op(a),)))
        return d

    def itof(self, a, dest: Reg | None = None) -> Reg:
        d = self._dest(dest, RegClass.FP)
        self.emit(Instr(Op.ITOF, d, (_int_op(a),)))
        return d

    def ftoi(self, a, dest: Reg | None = None) -> Reg:
        d = self._dest(dest, RegClass.INT)
        self.emit(Instr(Op.FTOI, d, (_fp_op(a),)))
        return d

    # -- memory ---------------------------------------------------------------

    def ld(self, base, offset=0, dest: Reg | None = None) -> Reg:
        d = self._dest(dest, RegClass.INT)
        self.emit(Instr(Op.LD, d, (_int_op(base), _int_op(offset))))
        return d

    def ldf(self, base, offset=0, dest: Reg | None = None) -> Reg:
        d = self._dest(dest, RegClass.FP)
        self.emit(Instr(Op.LDF, d, (_int_op(base), _int_op(offset))))
        return d

    def st(self, base, offset, value) -> Instr:
        return self.emit(
            Instr(Op.ST, srcs=(_int_op(base), _int_op(offset), _int_op(value)))
        )

    def stf(self, base, offset, value) -> Instr:
        return self.emit(
            Instr(Op.STF, srcs=(_int_op(base), _int_op(offset), _fp_op(value)))
        )

    # -- control ---------------------------------------------------------------

    def _branch(self, op: Op, a, b, target: str, fp: bool) -> Instr:
        conv = _fp_op if fp else _int_op
        return self.emit(Instr(op, srcs=(conv(a), conv(b)), target=Label(target)))

    def blt(self, a, b, target: str) -> Instr:
        return self._branch(Op.BLT, a, b, target, fp=False)

    def ble(self, a, b, target: str) -> Instr:
        return self._branch(Op.BLE, a, b, target, fp=False)

    def bgt(self, a, b, target: str) -> Instr:
        return self._branch(Op.BGT, a, b, target, fp=False)

    def bge(self, a, b, target: str) -> Instr:
        return self._branch(Op.BGE, a, b, target, fp=False)

    def beq(self, a, b, target: str) -> Instr:
        return self._branch(Op.BEQ, a, b, target, fp=False)

    def bne(self, a, b, target: str) -> Instr:
        return self._branch(Op.BNE, a, b, target, fp=False)

    def fblt(self, a, b, target: str) -> Instr:
        return self._branch(Op.FBLT, a, b, target, fp=True)

    def fble(self, a, b, target: str) -> Instr:
        return self._branch(Op.FBLE, a, b, target, fp=True)

    def fbgt(self, a, b, target: str) -> Instr:
        return self._branch(Op.FBGT, a, b, target, fp=True)

    def fbge(self, a, b, target: str) -> Instr:
        return self._branch(Op.FBGE, a, b, target, fp=True)

    def fbeq(self, a, b, target: str) -> Instr:
        return self._branch(Op.FBEQ, a, b, target, fp=True)

    def fbne(self, a, b, target: str) -> Instr:
        return self._branch(Op.FBNE, a, b, target, fp=True)

    def jmp(self, target: str) -> Instr:
        return self.emit(Instr(Op.JMP, target=Label(target)))

    def nop(self) -> Instr:
        return self.emit(Instr(Op.NOP))

    # -- finish ------------------------------------------------------------------

    def build(self, verify: bool = True) -> Function:
        if verify:
            from .verify import verify_function

            verify_function(self.func)
        return self.func

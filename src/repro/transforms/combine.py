"""Operation combining (paper, Section 2; Nakatani & Ebcioglu).

Eliminates the flow dependence between two instructions that each have a
compile-time constant source::

    I1: r1 = r2 op1 C1
    I2: r3 = r1 op2 C2      =>      I2': r3 = r2 op2 (C1 op3 C2)

The current implementation combines exactly the pairs the paper lists:

    (add i, sub i)   ->  (add i, sub i, int compare/branch, load, store)
    (mul i)          ->  (mul i)
    (add f, sub f)   ->  (add f, sub f, fp compare/branch)
    (mul f, div f)   ->  (mul f, div f)

If evaluating the combined constant overflows 32-bit integer range the
transformation is skipped (paper's footnote 1).  When I1's destination is
also its source (``r1 = r1 + 4``), I2 is *exchanged* with I1 so it can read
the pre-update value (Figure 6); the exchange is only done for adjacent
instructions and never moves a branch over a definition that is live at the
branch target.
"""

from __future__ import annotations

from ..ir.instructions import Instr, Kind, Op
from ..ir.operands import FImm, Imm, Operand, Reg

_INT_BRANCHES = {Op.BLT, Op.BLE, Op.BGT, Op.BGE, Op.BEQ, Op.BNE}
_FP_BRANCHES = {Op.FBLT, Op.FBLE, Op.FBGT, Op.FBGE, Op.FBEQ, Op.FBNE}

#: signed 32-bit range (asymmetric: -2^31 is representable, 2^31 is not)
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


def _fits_int32(v: int) -> bool:
    """Whether a combined constant stays a legal immediate (footnote 1)."""
    return INT32_MIN <= v <= INT32_MAX


def _int_additive(ins: Instr) -> tuple[Reg, int] | None:
    """If ``ins`` is ``d = a +/- C`` (int), return (a, signed delta)."""
    if ins.op is Op.ADD:
        a, b = ins.srcs
        if isinstance(a, Reg) and isinstance(b, Imm):
            return a, b.value
        if isinstance(b, Reg) and isinstance(a, Imm):
            return b, a.value
    elif ins.op is Op.SUB:
        a, b = ins.srcs
        if isinstance(a, Reg) and isinstance(b, Imm):
            return a, -b.value
    return None


def _fp_additive(ins: Instr) -> tuple[Reg, float] | None:
    if ins.op is Op.FADD:
        a, b = ins.srcs
        if isinstance(a, Reg) and isinstance(b, FImm):
            return a, b.value
        if isinstance(b, Reg) and isinstance(a, FImm):
            return b, a.value
    elif ins.op is Op.FSUB:
        a, b = ins.srcs
        if isinstance(a, Reg) and isinstance(b, FImm):
            return a, -b.value
    return None


def _int_mul(ins: Instr) -> tuple[Reg, int] | None:
    if ins.op is Op.MUL:
        a, b = ins.srcs
        if isinstance(a, Reg) and isinstance(b, Imm):
            return a, b.value
        if isinstance(b, Reg) and isinstance(a, Imm):
            return b, a.value
    return None


def _fp_mul_div(ins: Instr) -> tuple[Reg, float, bool] | None:
    """(source, constant, is_div) for ``d = a * C`` or ``d = a / C``."""
    if ins.op is Op.FMUL:
        a, b = ins.srcs
        if isinstance(a, Reg) and isinstance(b, FImm):
            return a, b.value, False
        if isinstance(b, Reg) and isinstance(a, FImm):
            return b, a.value, False
    elif ins.op is Op.FDIV:
        a, b = ins.srcs
        if isinstance(a, Reg) and isinstance(b, FImm) and b.value != 0.0:
            return a, b.value, True
    return None


def _rewrite_int_additive_use(i2: Instr, r1: Reg, a: Reg, delta: int) -> bool:
    """Fold ``r1 = a + delta`` into I2's use of r1.  Returns success."""
    op = i2.op
    if op in (Op.ADD, Op.SUB):
        add = _int_additive(i2)
        if add is None or add[0] != r1:
            return False
        total = add[1] + delta
        if not _fits_int32(total):
            return False
        i2.op = Op.ADD
        i2.srcs = (a, Imm(total))
        return True
    if i2.kind in (Kind.LOAD, Kind.STORE):
        base, off = i2.srcs[0], i2.srcs[1]
        rest = i2.srcs[2:]
        if base == r1 and isinstance(off, Imm):
            total = off.value + delta
            if not _fits_int32(total):
                return False
            i2.srcs = (a, Imm(total)) + rest
            return True
        if off == r1 and isinstance(base, Imm):
            total = base.value + delta
            if not _fits_int32(total):
                return False
            i2.srcs = (Imm(total), a) + rest
            return True
        # symbolic base with register offset: MEM(A + r1) cannot absorb an
        # integer into the symbol, but the offset slot can if it is r1 and
        # the base is a symbol or register
        if off == r1:
            # keep base as is, cannot fold constant into a register slot
            return False
        return False
    if i2.op in _INT_BRANCHES:
        x, y = i2.srcs
        if x == r1 and isinstance(y, Imm):
            total = y.value - delta
            if not _fits_int32(total):
                return False
            i2.srcs = (a, Imm(total))
            return True
        if y == r1 and isinstance(x, Imm):
            total = x.value - delta
            if not _fits_int32(total):
                return False
            i2.srcs = (Imm(total), a)
            return True
    return False


def _rewrite_fp_additive_use(i2: Instr, r1: Reg, a: Reg, delta: float) -> bool:
    if i2.op in (Op.FADD, Op.FSUB):
        add = _fp_additive(i2)
        if add is None or add[0] != r1:
            return False
        i2.op = Op.FADD
        i2.srcs = (a, FImm(add[1] + delta))
        return True
    if i2.op in _FP_BRANCHES:
        x, y = i2.srcs
        if x == r1 and isinstance(y, FImm):
            i2.srcs = (a, FImm(y.value - delta))
            return True
        if y == r1 and isinstance(x, FImm):
            i2.srcs = (FImm(x.value - delta), a)
            return True
    return False


def _rewrite_int_mul_use(i2: Instr, r1: Reg, a: Reg, c1: int) -> bool:
    m = _int_mul(i2)
    if m is None or m[0] != r1:
        return False
    total = c1 * m[1]
    if not _fits_int32(total):
        return False
    i2.srcs = (a, Imm(total))
    return True


def _rewrite_fp_muldiv_use(i2: Instr, r1: Reg, a: Reg, c1: float, div1: bool) -> bool:
    md = _fp_mul_div(i2)
    if md is None or md[0] != r1:
        return False
    _, c2, div2 = md
    # (a op1 C1) op2 C2  ==  a * K  with K from the four sign cases
    if not div1 and not div2:
        k = c1 * c2
    elif not div1 and div2:
        k = c1 / c2
    elif div1 and not div2:
        k = c2 / c1
    else:
        k = 1.0 / (c1 * c2)
    if k == 0.0 or k != k or k in (float("inf"), float("-inf")):
        return False
    i2.op = Op.FMUL
    i2.srcs = (a, FImm(k))
    return True


def _try_combine(i1: Instr, i2: Instr) -> bool:
    """Attempt to fold I1's constant into I2 (I2 currently uses I1.dest)."""
    r1 = i1.dest
    assert r1 is not None
    add = _int_additive(i1)
    if add is not None:
        return _rewrite_int_additive_use(i2, r1, add[0], add[1])
    fadd = _fp_additive(i1)
    if fadd is not None:
        return _rewrite_fp_additive_use(i2, r1, fadd[0], fadd[1])
    mul = _int_mul(i1)
    if mul is not None:
        return _rewrite_int_mul_use(i2, r1, mul[0], mul[1])
    fmd = _fp_mul_div(i1)
    if fmd is not None:
        return _rewrite_fp_muldiv_use(i2, r1, fmd[0], fmd[1], fmd[2])
    return False


def combine_operations(
    body: list[Instr], protected: set[Reg] = frozenset()
) -> int:
    """Apply operation combining over a linear body until fixpoint.

    ``protected`` registers are live at side exits; exchanging a branch
    above the definition of one of them is refused.  Returns the number of
    pairs combined.  The body list is mutated in place (the exchange case
    swaps adjacent entries).
    """
    total = 0
    j = 0
    # everything before ``j`` is known not to combine: a rewrite changes
    # only I2 (and, on an exchange, the slot before it), so the scan
    # resumes at the rewritten instruction instead of restarting
    while j < len(body):
        i2 = body[j]
        for r1 in set(i2.reg_uses()):
            # find the reaching definition of r1
            i_def = None
            for i in range(j - 1, -1, -1):
                if body[i].dest == r1:
                    i_def = i
                    break
            if i_def is None:
                continue
            i1 = body[i_def]
            src = next(
                (s for s in i1.srcs if isinstance(s, Reg)), None
            )
            if src is None:
                continue
            needs_swap = src == r1  # I1 overwrites its own source
            if needs_swap:
                # only exchange adjacent instructions, and never hoist a
                # branch over a definition live at its exit target
                if i_def != j - 1:
                    continue
                if i2.is_control and r1 in protected:
                    continue
                if i2.dest is not None and (
                    i2.dest == src or i2.dest == r1
                ):
                    continue
                # the value I2 needs is r1 *before* I1's update, which
                # after the exchange is exactly what r1 holds
                pass
            else:
                # r1 must come from a different register; I2 simply
                # re-reads that register, so it must not be redefined
                # between I1 and I2
                redefined = any(
                    body[t].dest == src for t in range(i_def + 1, j)
                )
                if redefined:
                    continue
            if _try_combine(i1, i2):
                if needs_swap:
                    body[i_def], body[j] = body[j], body[i_def]
                    j = i_def
                total += 1
                break
        else:
            j += 1
    return total

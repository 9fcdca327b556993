"""Symbolic memory disambiguation within a linear code region.

Every memory access address is ``base + offset`` where each part is a
register, symbol, or immediate.  To decide whether two accesses may touch
the same word, addresses are normalized to linear expressions

    addr  =  const  +  sum_k coeff_k * origin_k

where an *origin* is a value the analysis cannot see through: a register
live into the region, or the result of a load / divide / other opaque
instruction, identified by its defining position (or -1 for live-in).
Symbols are origins too (distinct array bases never alias — FORTRAN rule).

Two accesses provably do not alias when their expressions share the same
origin terms and differ by a non-zero constant, or when they use distinct
symbols as bases (arrays are padded apart by the memory binder).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from ..ir.instructions import Instr, Op
from ..ir.operands import Imm, Operand, Reg, Sym


@dataclass(frozen=True)
class AddrExpr:
    """Linear address expression: const + sum(coeff * origin)."""

    const: int
    #: mapping origin -> coefficient; origin is ('reg', reg, def_pos) or
    #: ('sym', name)
    terms: tuple[tuple[object, int], ...]

    def plus(self, other: "AddrExpr") -> "AddrExpr":
        d = dict(self.terms)
        for k, c in other.terms:
            d[k] = d.get(k, 0) + c
            if d[k] == 0:
                del d[k]
        return AddrExpr(self.const + other.const, _norm(d))

    def negated(self) -> "AddrExpr":
        return AddrExpr(-self.const, _norm({k: -c for k, c in self.terms}))

    def scaled(self, m: int) -> "AddrExpr":
        if m == 0:
            return AddrExpr(0, ())
        return AddrExpr(self.const * m, _norm({k: c * m for k, c in self.terms}))

    @cached_property
    def base_syms(self) -> frozenset:
        return frozenset(k[1] for k, _ in self.terms if k[0] == "sym")


def _norm(d: dict) -> tuple:
    return tuple(sorted(d.items(), key=lambda kv: repr(kv[0])))


class AddressAnalysis:
    """Resolves operand values at each position of a linear sequence.

    With a ``prologue`` (the loop preheader), registers live into the body
    are additionally resolved *through* the prologue when the body only
    advances them by uniform self-increments.  The per-pass advance is kept
    symbolic — a ``('pass', step)`` term — so two registers initialized
    ``r13 = r2 + K`` in the preheader and stepped identically in the body
    compare to a constant difference, while registers with different steps
    stay incomparable (conservative).  This mirrors the subscript-level
    independence information the paper's toolchain had from KAP.
    """

    def __init__(self, instrs: list[Instr], prologue=None,
                 space: str = "B", region_kind: str = "straight"):
        """``prologue`` may be a flat instruction list (one straight
        preheader region) or a list of ``(kind, instrs)`` regions, where
        kind is ``"straight"`` (executes linearly once per loop entry) or
        ``"loop"`` (an intervening loop, e.g. a precondition loop, whose
        pass count is unknown — registers it advances uniformly get a
        shared symbolic multiplier so lockstep pairs still cancel)."""
        self.instrs = instrs
        self.space = space
        self.region_kind = region_kind
        #: register -> ascending positions of its definitions
        self._def_positions: dict[Reg, list[int]] = {}
        for i, ins in enumerate(instrs):
            if ins.dest is not None:
                self._def_positions.setdefault(ins.dest, []).append(i)
        #: register -> position of its last definition
        self._all_defs = {r: ps[-1] for r, ps in self._def_positions.items()}
        self._memo: dict[tuple, AddrExpr] = {}
        self._prologue: "AddressAnalysis | None" = None
        if prologue:
            if isinstance(prologue[0], Instr):
                regions = [("straight", list(prologue))]
            else:
                regions = list(prologue)
            last_kind, last_instrs = regions[-1]
            self._prologue = AddressAnalysis(
                last_instrs, regions[:-1] or None,
                space=space + "<", region_kind=last_kind,
            )
        self._advance_memo: dict[Reg, tuple | None] = {}

    def operand_expr(self, operand: Operand, at: int, depth: int = 0) -> AddrExpr:
        """Linear expression for the value of ``operand`` just before
        position ``at``."""
        if isinstance(operand, Imm):
            return AddrExpr(operand.value, ())
        if isinstance(operand, Sym):
            return AddrExpr(0, ((("sym", operand.name), 1),))
        assert isinstance(operand, Reg)
        # the last definition before ``at`` (-1: live into the region)
        positions = self._def_positions.get(operand, ())
        before = bisect_left(positions, at)
        dpos = positions[before - 1] if before else -1
        return self._reg_expr(operand, dpos, depth)

    def _reg_expr(self, reg: Reg, dpos: int, depth: int) -> AddrExpr:
        key = (reg, dpos)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        expr = self._compute_reg_expr(reg, dpos, depth)
        self._memo[key] = expr
        return expr

    def _opaque(self, reg: Reg, dpos: int) -> AddrExpr:
        return AddrExpr(0, ((("reg", self.space, reg, dpos), 1),))

    def _advance(self, reg: Reg) -> tuple | None:
        """The register's per-pass advance as normalized symbolic terms, or
        None if any body definition is not a uniform self-increment."""
        if reg in self._advance_memo:
            return self._advance_memo[reg]
        terms: dict = {}
        result: tuple | None = ()
        for ins in self.instrs:
            if ins.dest != reg:
                continue
            step = None
            sign = 1
            if ins.op is Op.ADD:
                a, b = ins.srcs
                if a == reg and b != reg:
                    step = b
                elif b == reg and a != reg:
                    step = a
            elif ins.op is Op.SUB:
                a, b = ins.srcs
                if a == reg and b != reg:
                    step, sign = b, -1
            if step is None or (isinstance(step, Reg) and step in self._all_defs):
                result = None
                break
            if isinstance(step, Imm):
                key = ("pass", "#imm")
                terms[key] = terms.get(key, 0) + sign * step.value
            elif isinstance(step, Reg):
                key = ("pass", self.space, step)
                terms[key] = terms.get(key, 0) + sign
            else:  # Sym step: loop-invariant constant
                key = ("pass", "sym", step.name)
                terms[key] = terms.get(key, 0) + sign
        if result is None:
            self._advance_memo[reg] = None
            return None
        result = _norm({k: c for k, c in terms.items() if c != 0})
        self._advance_memo[reg] = result
        return result

    def entry_value(self, reg: Reg, depth: int = 0) -> AddrExpr:
        """Value of ``reg`` on entry to this region."""
        if self._prologue is not None and depth <= 64:
            return self._prologue.exit_value(reg, depth + 1)
        return AddrExpr(0, ((("reg", self.space, reg, -1), 1),))

    def exit_value(self, reg: Reg, depth: int = 0) -> AddrExpr:
        """Value of ``reg`` after this region has executed (used by the
        next region / the loop body when resolving its live-ins)."""
        if depth > 64:
            return self._opaque(reg, -2)
        if self.region_kind == "loop":
            if reg not in self._all_defs:
                return self.entry_value(reg, depth)
            adv = self._advance(reg)
            if adv is None:
                return self._opaque(reg, self._all_defs[reg])
            # entry + (unknown pass count) * advance; the multiplier symbol
            # is shared per region, so equal advances cancel in deltas
            scaled = tuple(
                ((("rpass", self.space, key), coeff) for key, coeff in adv)
            )
            return self.entry_value(reg, depth).plus(AddrExpr(0, scaled))
        return self.operand_expr(reg, len(self.instrs), depth)

    def _compute_reg_expr(self, reg: Reg, dpos: int, depth: int) -> AddrExpr:
        if dpos < 0 and self._prologue is not None and depth <= 64:
            adv = self._advance(reg)
            if adv is not None:
                base = self._prologue.exit_value(reg, depth + 1)
                return base.plus(AddrExpr(0, adv))
        if dpos < 0 or depth > 64:
            return self._opaque(reg, dpos)
        ins = self.instrs[dpos]
        op = ins.op
        if op is Op.MOV:
            return self.operand_expr(ins.srcs[0], dpos, depth + 1)
        if op in (Op.ADD, Op.SUB):
            a = self.operand_expr(ins.srcs[0], dpos, depth + 1)
            b = self.operand_expr(ins.srcs[1], dpos, depth + 1)
            return a.plus(b.negated() if op is Op.SUB else b)
        if op is Op.MUL:
            a, b = ins.srcs
            if isinstance(b, Imm):
                return self.operand_expr(a, dpos, depth + 1).scaled(b.value)
            if isinstance(a, Imm):
                return self.operand_expr(b, dpos, depth + 1).scaled(a.value)
            return self._opaque(reg, dpos)
        if op is Op.SHL:
            a, b = ins.srcs
            if isinstance(b, Imm) and 0 <= b.value < 32:
                return self.operand_expr(a, dpos, depth + 1).scaled(1 << b.value)
            return self._opaque(reg, dpos)
        return self._opaque(reg, dpos)

    def address_expr(self, idx: int) -> AddrExpr:
        """Address expression of the memory instruction at ``idx``."""
        ins = self.instrs[idx]
        assert ins.is_mem
        base, off = ins.srcs[0], ins.srcs[1]
        return self.operand_expr(base, idx).plus(self.operand_expr(off, idx))


def may_alias(a: AddrExpr, b: AddrExpr, size_a: int = 1, size_b: int = 1) -> bool:
    """Conservative alias test between two address expressions.

    ``size_a`` / ``size_b`` are access footprints in words (vector memory
    ops touch ``lanes`` consecutive words from their base address).
    """
    # distinct array bases never alias
    sa, sb = a.base_syms, b.base_syms
    if len(sa) == 1 and len(sb) == 1 and sa != sb:
        return False
    if a.terms == b.terms:
        if size_a == 1 and size_b == 1:
            return a.const == b.const
        # byte-range overlap: [const, const + 4*size) half-open intervals
        return a.const < b.const + 4 * size_b and b.const < a.const + 4 * size_a
    return True


def memory_independent(analysis: AddressAnalysis, i: int, j: int) -> bool:
    """True when memory instructions at positions i and j provably do not
    access the same word."""
    return not may_alias(
        analysis.address_expr(i), analysis.address_expr(j),
        analysis.instrs[i].mem_words, analysis.instrs[j].mem_words,
    )

"""Closure-compiled block execution: the value half of the fast engine.

The tuple interpreter in :mod:`repro.sim.simulator` pays a dispatch,
an operand-descriptor unpack, and a readiness check per dynamic
instruction.  For *execution* (computing values, following branches,
mutating memory) none of the timing work is needed, so this module
compiles every basic block into a specialized straight-line Python
function over the flat register banks::

    def _b3(iv, fv, vi, vf, mem):
        fv[2] = mem[(iv[5] + 4096) >> 2]
        fv[3] = fv[2] * fv[1]
        iv[5] = iv[5] + 4
        if iv[5] < iv[6]:
            return 7        # segment id: block 3 exited via this branch
        return 8            # segment id: block 3 fell through

Each function returns a *segment id* identifying how the block exited:
either a specific taken control instruction or the fall-through.  Running
the program is then just chaining block calls and recording segment ids —
the resulting segment sequence is the :class:`ExecPlan`'s compact dynamic
trace, which the timing side (:mod:`repro.sim.replay`) replays per issue
width.

Error semantics are preserved exactly (the interpreter's contract is that
reads of never-written registers raise :class:`SimulationError`, never a
codegen artifact like ``NameError``):

* never-written registers hold ``None``; arithmetic on ``None`` raises
  ``TypeError`` naturally, which the driver maps back — via a
  line-number-to-instruction table — to the interpreter's exact
  ``SimulationError``/``SimMemoryError`` message;
* ``==``/``!=`` comparisons and stores would *silently accept* ``None``,
  so the generator emits explicit guards for equality branches and store
  values (calling ``_ur``/``_us``, which raise the interpreter's
  messages directly);
* division by zero and loads from unbound addresses translate the same
  way (``ZeroDivisionError``/``KeyError`` at a known line).

Every opcode has a generator; :class:`EngineUnsupported` guards only
an ``Op`` added without one.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from ..ir.instructions import Op
from .errors import SimulationError
from .executor import (
    C_ALUN,
    C_BRANCH,
    C_HALT,
    C_JUMP,
    C_LOAD,
    C_NOP,
    C_STORE,
    C_VLOAD,
    C_VSTORE,
    CONST,
    CompiledInstr,
    CompiledProgram,
    FP_BANK,
    INT_BANK,
    VEC_SEMANTICS,
    VFP_BANK,
    VINT_BANK,
    _MASK64,
    _idiv,
    _irem,
)
from .memory import SimMemoryError


class EngineUnsupported(Exception):
    """An instruction has no block-code generator (an ``Op`` added to the
    IR without teaching this module about it)."""


#: sentinel exit for "fell through the end of the block"
FALL = None

_INFIX = {
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*",
    Op.AND: "&", Op.OR: "|", Op.XOR: "^",
    Op.SHL: "<<", Op.SHRA: ">>",
    Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*", Op.FDIV: "/",
}
_HELPER = {Op.DIV: "_idiv", Op.REM: "_irem", Op.SHRL: "_shrl"}
_CMP_INFIX = {
    Op.BLT: "<", Op.BLE: "<=", Op.BGT: ">", Op.BGE: ">=",
    Op.BEQ: "==", Op.BNE: "!=",
    Op.FBLT: "<", Op.FBLE: "<=", Op.FBGT: ">", Op.FBGE: ">=",
    Op.FBEQ: "==", Op.FBNE: "!=",
}
#: comparisons that silently accept None (``==``/``!=`` never raise), so
#: the generated code needs an explicit uninitialized-read guard
_EQNE = {Op.BEQ, Op.BNE, Op.FBEQ, Op.FBNE}

#: element-wise vector ops call shared per-lane helpers so both engines
#: use the identical semantic functions (see executor.VEC_SEMANTICS)
_VHELPER = {
    Op.VADD: "_vadd", Op.VSUB: "_vsub", Op.VMUL: "_vmul",
    Op.VFADD: "_vfadd", Op.VFSUB: "_vfsub", Op.VFMUL: "_vfmul",
    Op.VFDIV: "_vfdiv",
}


def _shrl(a, b):
    return (a & _MASK64) >> b


_BANK_VAR = {INT_BANK: "iv", FP_BANK: "fv", VINT_BANK: "vi", VFP_BANK: "vf"}


def _dest(ci: CompiledInstr) -> str:
    bank, idx = ci.dest
    return f"{_BANK_VAR[bank]}[{idx}]"


class ExecPlan:
    """A program compiled to per-block closures plus its segment table.

    A *segment* is one way one block's execution can end: ``(block,
    exit)`` where ``exit`` is a specific control instruction (taken
    branch / jump / halt) or :data:`FALL`.  The block functions return
    segment ids; the driver chains them and records the id sequence —
    that sequence plus end-state values is the complete observable
    behavior of the run, independent of issue width.
    """

    def __init__(self, prog: CompiledProgram):
        self.prog = prog
        self.seg_block: list[int] = []      # segment -> block index
        self.seg_exit: list = []            # segment -> CompiledInstr | FALL
        self.seg_next: list[int | None] = []  # segment -> next block | None
        self.instrs: list[CompiledInstr] = []  # global instr index -> ci
        self._line_starts: list[int] = []   # parallel: first lineno of instr
        self._line_gi: list[int] = []
        self.filename = f"<simblocks:{prog.func.name}:{id(prog)}>"
        self._consts: dict[str, float] = {}  # global name -> non-finite
        self._build()

    # -- codegen ------------------------------------------------------------

    def _expr(self, desc) -> str:
        """Fetch expression for one operand descriptor (bank, key).  A
        non-finite float has no literal, so it is bound as a global of
        the generated module — the very object the interpreter reads."""
        bank, key = desc
        if bank != CONST:
            return f"{_BANK_VAR[bank]}[{key}]"
        if isinstance(key, float) and not math.isfinite(key):
            name = f"_k{len(self._consts)}"
            self._consts[name] = key
            return name
        return f"({key!r})"

    def _addr_expr(self, s0, s1) -> str:
        """Word-index expression for a load/store address (base + offset)."""
        if s0[0] == CONST and s1[0] == CONST:
            return repr((s0[1] + s1[1]) >> 2)  # fold; >> floors like runtime
        return f"({self._expr(s0)} + {self._expr(s1)}) >> 2"

    def _new_seg(self, block: int, exit_ci, next_block: int | None) -> int:
        self.seg_block.append(block)
        self.seg_exit.append(exit_ci)
        self.seg_next.append(next_block)
        return len(self.seg_block) - 1

    def _build(self) -> None:
        prog = self.prog
        lines: list[str] = []
        emit = lines.append
        for b, blk in enumerate(prog.blocks):
            emit(f"def _b{b}(iv, fv, vi, vf, mem):")
            for ci in blk.code:
                gi = len(self.instrs)
                self.instrs.append(ci)
                stmts = self._gen(ci, b, gi)
                if stmts:
                    self._line_starts.append(len(lines) + 1)
                    self._line_gi.append(gi)
                    for s in stmts:
                        emit("    " + s)
            fall = self._new_seg(b, FALL, blk.next_index)
            emit(f"    return {fall}")
        code = compile("\n".join(lines), self.filename, "exec")
        g = {
            "_idiv": _idiv, "_irem": _irem, "_shrl": _shrl,
            "_flt": float, "_trunc": math.trunc,
            "_ur": self._raise_uninit_read, "_us": self._raise_uninit_store,
            **self._consts,
        }
        for vop, name in _VHELPER.items():
            g[name] = VEC_SEMANTICS[vop]
        exec(code, g)
        self.block_fns = [g[f"_b{b}"] for b in range(len(prog.blocks))]
        self.source = "\n".join(lines)

    def _gen(self, ci: CompiledInstr, b: int, gi: int) -> list[str]:
        op = ci.instr.op
        cat = ci.cat
        if cat == C_NOP:
            return []
        if cat == C_HALT:
            return [f"return {self._new_seg(b, ci, None)}"]
        if cat == C_JUMP:
            tgt = self.prog.index[ci.target]
            return [f"return {self._new_seg(b, ci, tgt)}"]
        if cat == C_BRANCH:
            tgt = self.prog.index[ci.target]
            seg = self._new_seg(b, ci, tgt)
            a, bx = self._expr(ci.srcs[0]), self._expr(ci.srcs[1])
            out = []
            if op in _EQNE:
                checks = [f"{self._expr(s)} is None"
                          for s in ci.srcs if s[0] != CONST]
                if checks:
                    out.append(f"if {' or '.join(checks)}: _ur({gi})")
            out.append(f"if {a} {_CMP_INFIX[op]} {bx}:")
            out.append(f"    return {seg}")
            return out
        if cat == C_LOAD:
            addr = self._addr_expr(ci.srcs[0], ci.srcs[1])
            return [f"{_dest(ci)} = mem[{addr}]"]
        if cat == C_STORE:
            s0, s1, sv = ci.srcs
            addr = self._addr_expr(s0, s1)
            if sv[0] == CONST:
                return [f"mem[{addr}] = {self._expr(sv)}"]
            # interpreter order: fetch value, compute address (TypeError ->
            # uninitialized *read*), THEN reject a None value as an
            # uninitialized *store* — keep the address first here so the
            # read error wins when both apply
            return [
                f"_a = {addr}",
                f"_v = {self._expr(sv)}",
                f"if _v is None: _us({gi})",
                "mem[_a] = _v",
            ]
        if cat == C_VLOAD:
            # fn holds the lane count; lanes occupy consecutive words
            lanes = ci.fn
            words = ", ".join(
                f"mem[_w + {j}]" if j else "mem[_w]" for j in range(lanes)
            )
            return [
                f"_w = {self._addr_expr(ci.srcs[0], ci.srcs[1])}",
                f"{_dest(ci)} = ({words})",
            ]
        if cat == C_VSTORE:
            s0, s1, sv = ci.srcs
            # same commit order as the scalar store: address first (read
            # error wins), then the uninitialized-value guard, then writes
            out = [
                f"_a = {self._addr_expr(s0, s1)}",
                f"_v = {self._expr(sv)}",
                f"if _v is None: _us({gi})",
            ]
            out.extend(
                f"mem[_a + {j}] = _v[{j}]" if j else "mem[_a] = _v[0]"
                for j in range(ci.fn)
            )
            return out
        if cat == C_ALUN:
            # variadic pack: tuple literal; tuple display accepts None
            # silently, so guard every register lane explicitly
            out = []
            checks = [f"{self._expr(s)} is None"
                      for s in ci.srcs if s[0] != CONST]
            if checks:
                out.append(f"if {' or '.join(checks)}: _ur({gi})")
            out.append(
                f"{_dest(ci)} = ({', '.join(self._expr(s) for s in ci.srcs)},)"
            )
            return out
        # ALU (generic C_ALU: two- or one-operand)
        if op in _VHELPER:
            a, bx = self._expr(ci.srcs[0]), self._expr(ci.srcs[1])
            return [f"{_dest(ci)} = {_VHELPER[op]}({a}, {bx})"]
        if op in (Op.VEXT, Op.VEXTF):
            v, lane = self._expr(ci.srcs[0]), self._expr(ci.srcs[1])
            return [f"{_dest(ci)} = {v}[{lane}]"]
        if op in _INFIX:
            a, bx = self._expr(ci.srcs[0]), self._expr(ci.srcs[1])
            return [f"{_dest(ci)} = {a} {_INFIX[op]} {bx}"]
        if op in _HELPER:
            a, bx = self._expr(ci.srcs[0]), self._expr(ci.srcs[1])
            return [f"{_dest(ci)} = {_HELPER[op]}({a}, {bx})"]
        if op in (Op.MOV, Op.FMOV):
            return [f"{_dest(ci)} = {self._expr(ci.srcs[0])}"]
        if op is Op.ITOF:
            return [f"{_dest(ci)} = _flt({self._expr(ci.srcs[0])})"]
        if op is Op.FTOI:
            return [f"{_dest(ci)} = _trunc({self._expr(ci.srcs[0])})"]
        raise EngineUnsupported(f"cannot compile {ci.instr!r}")

    # -- interpreter-identical error raising --------------------------------

    def _raise_uninit_read(self, gi: int):
        raise SimulationError(
            f"read of uninitialized register: {self.instrs[gi].instr!r}"
        )

    def _raise_uninit_store(self, gi: int):
        raise SimulationError(
            f"store of uninitialized register: {self.instrs[gi].instr!r}"
        )

    def translate_error(self, exc: BaseException, iv: list, fv: list,
                        vi: list = (), vf: list = ()):
        """Re-raise ``exc`` (raised inside generated code) exactly as the
        interpreter would have.

        The traceback's deepest frame in the generated module names the
        failing line; the line table maps it to the instruction.  The
        instruction had not committed its destination, so its source
        operands are intact in the banks and can be re-read to build the
        interpreter's message (e.g. the faulting load address).
        """
        lineno = None
        tb = exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code.co_filename == self.filename:
                lineno = tb.tb_lineno
            tb = tb.tb_next
        if lineno is None:
            raise exc
        k = bisect_right(self._line_starts, lineno) - 1
        if k < 0:
            raise exc
        ci = self.instrs[self._line_gi[k]]
        banks = (iv, fv, None, vi, vf)
        vals = [k2 if b2 == CONST else banks[b2][k2] for b2, k2 in ci.srcs]
        ins = ci.instr
        if isinstance(exc, KeyError) and ci.cat in (C_LOAD, C_VLOAD):
            addr = vals[0] + vals[1]
            raise SimMemoryError(
                f"load from uninitialized address {addr:#x}: {ins!r}"
            ) from None
        if isinstance(exc, ZeroDivisionError):
            raise SimulationError(f"division by zero: {ins!r}") from None
        if isinstance(exc, TypeError) and any(v is None for v in vals):
            raise SimulationError(
                f"read of uninitialized register: {ins!r}"
            ) from None
        raise exc


def exec_plan(prog: CompiledProgram) -> ExecPlan:
    """Generate block code for a compiled program.  The plan belongs to
    the caller, like the program it was built from."""
    return ExecPlan(prog)


def execute_plan(
    plan: ExecPlan,
    memory,
    iregs: dict[int, int],
    fregs: dict[int, float],
    max_cycles: int = 200_000_000,
) -> tuple[list[int], list, list]:
    """Run the program valuewise; returns (segment trace, ivals, fvals).

    Mutates ``memory`` exactly as the interpreter would.  The segment
    count is bounded via ``max_cycles``: every control-exit segment costs
    at least one cycle on any machine, and fall-through chains between
    control exits are bounded by the block count, so a run that exceeds
    ``(max_cycles + 2) * (n_blocks + 1)`` segments cannot be within the
    cycle budget on any width and raises the interpreter's runaway error.
    """
    prog = plan.prog
    ni, nf = prog.n_iregs, prog.n_fregs
    if iregs:
        ni = max(ni, max(iregs) + 1)
    if fregs:
        nf = max(nf, max(fregs) + 1)
    iv: list = [None] * ni
    fv: list = [None] * nf
    for r, v in iregs.items():
        iv[r] = v
    for r, v in fregs.items():
        fv[r] = v

    # vector banks have no live-ins (vectors exist only between a pack or
    # vector load and their extracts/stores)
    vi: list = [None] * prog.n_viregs
    vf: list = [None] * prog.n_vfregs

    mem = memory._words
    fns = plan.block_fns
    seg_next = plan.seg_next
    segs: list[int] = []
    append = segs.append
    limit = (max_cycles + 2) * (len(fns) + 1)
    bi: int | None = 0 if fns else None
    try:
        while bi is not None:
            s = fns[bi](iv, fv, vi, vf, mem)
            append(s)
            bi = seg_next[s]
            if len(segs) > limit:
                raise SimulationError(
                    f"exceeded {max_cycles} cycles in {prog.func.name} "
                    f"(at block {prog.labels[plan.seg_block[s]]})"
                )
    except (SimulationError, SimMemoryError):
        raise
    except (TypeError, KeyError, ZeroDivisionError) as e:
        plan.translate_error(e, iv, fv, vi, vf)
        raise
    return segs, iv, fv

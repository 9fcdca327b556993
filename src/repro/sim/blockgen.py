"""Closure-compiled block execution: the value half of the fast engine.

An interpreter pays a dispatch, an operand-descriptor unpack, and a
readiness check per dynamic instruction.  For *execution* (computing
values, following branches, mutating memory) none of the timing work is
needed, so this module compiles every basic block into a specialized
Python function over the flat register banks.  A block that branches or jumps to itself — a
loop body — becomes a ``while`` loop over register locals::

    def _b3(iv, fv, vi, vf, mem, _app, _n):
        iv5, iv6 = _g3iv(iv)        # itemgetter(5, 6)
        fv1, fv2, fv3 = _g3fv(fv)   # itemgetter(1, 2, 3)
        try:
            while True:
                _w = (iv5 + 4096) >> 2
                if _w < 0 or (_v := mem[_w]) is None: raise IndexError
                fv2 = _v
                fv3 = fv2 * fv1
                iv5 = iv5 + 4
                if iv5 < iv6:
                    if _n:          # segment budget left: iterate here
                        _n -= 1
                        _app(7)     # segment id: block 3 took its back edge
                        continue
                    _s = 7
                    break
                _s = 8              # segment id: block 3 fell through
                break
        finally:
            iv[5] = iv5
            _p3fv(fv, (fv2, fv3))   # fv[2], fv[3] = fv2, fv3
        return _s

Every other block is straight-line code on the banks themselves
(``fv[2] = _v`` ... ``return 8``): it runs once per call, so loading
and writing back locals would cost more than the subscripts it saves.

Each function returns a *segment id* identifying how the block exited:
either a specific taken control instruction or the fall-through.  Running
the program is then just chaining block calls and recording segment ids
(a loop block records its own back-edge segments through ``_app``) —
the resulting segment sequence is the :class:`ExecPlan`'s compact dynamic
trace, which the timing side (:mod:`repro.sim.replay`) replays per issue
width.

Error semantics are the reference's exactly (its contract is that
reads of never-written registers raise :class:`SimulationError`, never a
codegen artifact like ``NameError``):

* never-written registers hold ``None``; arithmetic on ``None`` raises
  ``TypeError`` naturally, which the driver maps back — via a
  line-number-to-instruction table — to the reference's exact
  ``SimulationError``/``SimMemoryError`` message;
* a loop block loads every register it reads *or writes* at entry (a
  write-only register still has a local when the block exits before
  writing it) and writes the written ones back in one ``finally``, so
  after an exit or an exception the banks hold the reference's register
  state and ``translate_error`` re-reads intact operands;
* ``==``/``!=`` comparisons, moves and stores would *silently accept*
  ``None``, so the generator emits explicit guards for equality
  branches, move sources and store values (calling ``_ur``/``_us``,
  which raise the reference's messages directly);
* division by zero translates the same way (``ZeroDivisionError`` at a
  known line);
* memory is the :class:`~repro.sim.memory.Memory` word list: a load
  that reads ``None`` (an unbound word) or a negative index (which a
  list would wrap) raises ``IndexError`` explicitly, as indexing past
  the top does by itself; a store checks the negative index, and past
  the top raises by itself.  ``IndexError`` at a load or store line
  becomes the reference's ``load from uninitialized address`` /
  ``store to unmapped address``.

Element-wise vector ops are inline lane tuples (``(a[0] + b[0], a[1] +
b[1], ...)``) with each lane's operator the scalar one of
:data:`~repro.sim.executor.ALU_SEMANTICS`; the reference evaluator's
:data:`~repro.sim.executor.VEC_SEMANTICS` is their reference.  Every
opcode has a generator; :class:`EngineUnsupported` guards only an
``Op`` added without one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import groupby
from operator import itemgetter

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

#: element-wise vector ops: one inline lane per element, with the
#: operator of the scalar op each lane applies (executor.VEC_SEMANTICS
#: lifts the same scalar semantics)
_VLANE = {
    Op.VADD: _INFIX[Op.ADD], Op.VSUB: _INFIX[Op.SUB],
    Op.VMUL: _INFIX[Op.MUL], Op.VFADD: _INFIX[Op.FADD],
    Op.VFSUB: _INFIX[Op.FSUB], Op.VFMUL: _INFIX[Op.FMUL],
    Op.VFDIV: _INFIX[Op.FDIV],
}


def _shrl(a, b):
    return (a & _MASK64) >> b


_BANK_VAR = {INT_BANK: "iv", FP_BANK: "fv", VINT_BANK: "vi", VFP_BANK: "vf"}


def _scatter(idxs):
    """``put(bank, vals)`` stores ``vals`` at ``idxs``: the inverse of
    ``itemgetter(*idxs)``."""
    def put(bank, vals):
        for k, v in zip(idxs, vals):
            bank[k] = v
    return put


class ExecPlan:
    """A program compiled to per-block closures plus its segment table.

    A *segment* is one way one block's execution can end: ``(block,
    exit)`` where ``exit`` is a specific control instruction (taken
    branch / jump / halt) or :data:`FALL`.  The block functions return
    segment ids; the driver chains them and records the id sequence —
    that sequence plus end-state values is the complete observable
    behavior of the run, independent of issue width.  ``block_loops[b]``
    says block ``b`` is a self-loop, whose function also takes the
    trace's ``append`` and a segment budget (see :func:`execute_plan`).
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
        self._movers: dict = {}  # global name -> loop-block load/store
        self._local = False  # registers are locals (loop block being built)
        self._build()

    # -- codegen ------------------------------------------------------------

    def _reg(self, bank: int, idx: int) -> str:
        var = _BANK_VAR[bank]
        return f"{var}{idx}" if self._local else f"{var}[{idx}]"

    def _dest(self, ci: CompiledInstr) -> str:
        return self._reg(*ci.dest)

    def _expr(self, desc) -> str:
        """Fetch expression for one operand descriptor (bank, key).  A
        non-finite float has no literal, so it is bound as a global of
        the generated module — the very object the reference reads."""
        bank, key = desc
        if bank != CONST:
            return self._reg(bank, key)
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

    def _exit(self, seg: int, b: int) -> list[str]:
        """Statements that leave block ``b`` through segment ``seg``.  In
        a loop block a back edge records itself and iterates while the
        budget ``_n`` lasts; any other exit breaks out to the write-back."""
        if not self._local:
            return [f"return {seg}"]
        if self.seg_next[seg] == b:
            return ["if _n:", "    _n -= 1", f"    _app({seg})",
                    "    continue", f"_s = {seg}", "break"]
        return [f"_s = {seg}", "break"]

    def _moves(self, b: int, regs: list, load: bool) -> list[str]:
        """Loop block ``b``'s statements that load the sorted ``(bank,
        idx)`` pairs ``regs`` into locals (``load``) or store them back:
        one per bank, through an ``itemgetter`` / :func:`_scatter` global
        when the bank has several — a statement per register would make
        ``compile`` the larger part of a short cell's set-up."""
        out = []
        for bank, grp in groupby(regs, key=itemgetter(0)):
            idxs = [idx for _, idx in grp]
            var = _BANK_VAR[bank]
            if len(idxs) == 1:
                local, slot = f"{var}{idxs[0]}", f"{var}[{idxs[0]}]"
                out.append(f"{local} = {slot}" if load else f"{slot} = {local}")
                continue
            names = ", ".join(f"{var}{idx}" for idx in idxs)
            fn = f"_{'g' if load else 'p'}{b}{var}"
            self._movers[fn] = itemgetter(*idxs) if load else _scatter(idxs)
            out.append(f"{names} = {fn}({var})" if load
                       else f"{fn}({var}, ({names}))")
        return out

    def _build(self) -> None:
        prog = self.prog
        lines: list[str] = []
        emit = lines.append
        self.block_loops = [
            any(ci.target is not None and prog.index[ci.target] == b
                for ci in blk.code)
            for b, blk in enumerate(prog.blocks)
        ]
        for b, blk in enumerate(prog.blocks):
            self._local = self.block_loops[b]
            if not self._local:
                emit(f"def _b{b}(iv, fv, vi, vf, mem):")
                pad = "    "
            else:
                emit(f"def _b{b}(iv, fv, vi, vf, mem, _app, _n):")
                regs, written = set(), set()
                for ci in blk.code:
                    regs.update(s for s in ci.srcs if s[0] != CONST)
                    if ci.dest is not None:
                        written.add(ci.dest)
                # write-only registers too: an exit before the write must
                # still find a local to write back
                for stmt in self._moves(b, sorted(regs | written), True):
                    emit("    " + stmt)
                emit("    try:")
                emit("        while True:")
                pad = " " * 12
            for ci in blk.code:
                gi = len(self.instrs)
                self.instrs.append(ci)
                stmts = self._gen(ci, b, gi)
                if stmts:
                    self._line_starts.append(len(lines) + 1)
                    self._line_gi.append(gi)
                    for s in stmts:
                        emit(pad + s)
            fall = self._new_seg(b, FALL, blk.next_index)
            for s in self._exit(fall, b):
                emit(pad + s)
            if self._local:
                emit("    finally:")
                for stmt in self._moves(b, sorted(written), False) or ["pass"]:
                    emit("        " + stmt)
                emit("    return _s")
        code = compile("\n".join(lines), self.filename, "exec")
        g = {
            "_idiv": _idiv, "_irem": _irem, "_shrl": _shrl,
            "_flt": float, "_trunc": math.trunc,
            "_ur": self._raise_uninit_read, "_us": self._raise_uninit_store,
            **self._consts, **self._movers,
        }
        exec(code, g)
        self.block_fns = [g[f"_b{b}"] for b in range(len(prog.blocks))]
        self.source = "\n".join(lines)

    def _gen(self, ci: CompiledInstr, b: int, gi: int) -> list[str]:
        op = ci.instr.op
        cat = ci.cat
        if cat == C_NOP:
            return []
        if cat == C_HALT:
            return self._exit(self._new_seg(b, ci, None), b)
        if cat == C_JUMP:
            tgt = self.prog.index[ci.target]
            return self._exit(self._new_seg(b, ci, tgt), b)
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
            out.extend("    " + s for s in self._exit(seg, b))
            return out
        if cat == C_LOAD:
            # an unbound word reads None, one past the top raises
            # IndexError, a negative index would wrap: all three raise
            # IndexError, which translate_error reports; the value goes
            # through _v so the address operands stay intact for it
            return [
                f"_w = {self._addr_expr(ci.srcs[0], ci.srcs[1])}",
                "if _w < 0 or (_v := mem[_w]) is None: raise IndexError",
                f"{self._dest(ci)} = _v",
            ]
        if cat == C_STORE:
            s0, s1, sv = ci.srcs
            out = [f"_a = {self._addr_expr(s0, s1)}"]
            if sv[0] == CONST:
                val = self._expr(sv)
            else:
                # reference order: compute the address (TypeError ->
                # uninitialized *read*), THEN reject a None value as an
                # uninitialized *store*, so the read error wins when
                # both apply
                out += [f"_v = {self._expr(sv)}", f"if _v is None: _us({gi})"]
                val = "_v"
            # past the top raises IndexError itself
            return out + ["if _a < 0: raise IndexError", f"mem[_a] = {val}"]
        if cat == C_VLOAD:
            # lanes occupy consecutive words, and every lane follows the
            # scalar load's rule
            words = ", ".join(
                f"mem[_w + {j}]" if j else "mem[_w]" for j in range(ci.instr.lanes)
            )
            return [
                f"_w = {self._addr_expr(ci.srcs[0], ci.srcs[1])}",
                f"if _w < 0 or None in (_v := ({words})): raise IndexError",
                f"{self._dest(ci)} = _v",
            ]
        if cat == C_VSTORE:
            s0, s1, sv = ci.srcs
            # same commit order as the scalar store: address first (read
            # error wins), then the uninitialized-value guard, then writes
            # lane by lane, up to the top
            out = [
                f"_a = {self._addr_expr(s0, s1)}",
                f"_v = {self._expr(sv)}",
                f"if _v is None: _us({gi})",
                "if _a < 0: raise IndexError",
            ]
            out.extend(
                f"mem[_a + {j}] = _v[{j}]" if j else "mem[_a] = _v[0]"
                for j in range(ci.instr.lanes)
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
                f"{self._dest(ci)} = "
                f"({', '.join(self._expr(s) for s in ci.srcs)},)"
            )
            return out
        # ALU (generic C_ALU: two- or one-operand)
        if op in _VLANE:
            # a None operand fails its first subscript (TypeError), a zero
            # divisor lane divides by zero: the reference's two errors
            a, bx = self._expr(ci.srcs[0]), self._expr(ci.srcs[1])
            sym = _VLANE[op]
            lanes = ", ".join(f"{a}[{j}] {sym} {bx}[{j}]"
                              for j in range(ci.instr.lanes))
            return [f"{self._dest(ci)} = ({lanes})"]
        if op in (Op.VEXT, Op.VEXTF):
            v, lane = self._expr(ci.srcs[0]), self._expr(ci.srcs[1])
            return [f"{self._dest(ci)} = {v}[{lane}]"]
        if op in _INFIX:
            a, bx = self._expr(ci.srcs[0]), self._expr(ci.srcs[1])
            return [f"{self._dest(ci)} = {a} {_INFIX[op]} {bx}"]
        if op in _HELPER:
            a, bx = self._expr(ci.srcs[0]), self._expr(ci.srcs[1])
            return [f"{self._dest(ci)} = {_HELPER[op]}({a}, {bx})"]
        if op in (Op.MOV, Op.FMOV):
            # an assignment copies None silently: guard a register source
            src = self._expr(ci.srcs[0])
            guard = ([f"if {src} is None: _ur({gi})"]
                     if ci.srcs[0][0] != CONST else [])
            return guard + [f"{self._dest(ci)} = {src}"]
        if op is Op.ITOF:
            return [f"{self._dest(ci)} = _flt({self._expr(ci.srcs[0])})"]
        if op is Op.FTOI:
            return [f"{self._dest(ci)} = _trunc({self._expr(ci.srcs[0])})"]
        raise EngineUnsupported(f"cannot compile {ci.instr!r}")

    # -- reference-identical error raising ----------------------------------

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
        reference would have.

        The traceback's deepest frame in the generated module names the
        failing line; the line table maps it to the instruction.  The
        instruction had not committed its destination, so its source
        operands are intact in the banks and can be re-read to build the
        reference's message (e.g. the faulting load address).
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
        if isinstance(exc, IndexError) and ci.cat in (C_LOAD, C_VLOAD):
            addr = vals[0] + vals[1]
            raise SimMemoryError(
                f"load from uninitialized address {addr:#x}: {ins!r}"
            ) from None
        if isinstance(exc, IndexError) and ci.cat in (C_STORE, C_VSTORE):
            addr = vals[0] + vals[1]
            raise SimMemoryError(
                f"store to unmapped address {addr:#x}: {ins!r}"
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

    Mutates ``memory`` exactly as the reference would.  The segment
    count is bounded via ``max_cycles``: every control-exit segment costs
    at least one cycle on any machine, and fall-through chains between
    control exits are bounded by the block count, so a run that exceeds
    ``(max_cycles + 2) * (n_blocks + 1)`` segments cannot be within the
    cycle budget on any width and raises the reference's runaway error,
    whose block the trace so far, timed on ``plan.prog``'s machine,
    names (:func:`repro.sim.replay.replay`).
    A self-loop block iterates inside its own call, appending each back
    edge while the budget ``limit - len(segs)`` lasts; past it the block
    returns the back edge and the check raises at the same segment count
    as one call per iteration would.
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
    loops = plan.block_loops
    seg_next = plan.seg_next
    segs: list[int] = []
    append = segs.append
    limit = (max_cycles + 2) * (len(fns) + 1)
    bi: int | None = 0 if fns else None
    try:
        while bi is not None:
            if loops[bi]:
                # the block appends its back edges itself, at most up to
                # the limit; the one it returns past that trips the check
                s = fns[bi](iv, fv, vi, vf, mem, append, limit - len(segs))
            else:
                s = fns[bi](iv, fv, vi, vf, mem)
            append(s)
            bi = seg_next[s]
            if len(segs) > limit:
                # past the budget on any machine: timing the trace on
                # the program's own machine raises the reference's
                # error, naming the block control is in
                from .replay import replay, replay_spec  # imports this

                replay(segs, replay_spec(plan, prog), max_cycles)
                raise SimulationError(
                    f"exceeded {max_cycles} cycles in {prog.func.name}")
    except (SimulationError, SimMemoryError):
        raise
    except (TypeError, IndexError, ZeroDivisionError) as e:
        plan.translate_error(e, iv, fv, vi, vf)
        raise
    return segs, iv, fv

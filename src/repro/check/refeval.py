"""Reference evaluation: direct sequential interpretation of IR.

The production simulator (:mod:`repro.sim`) is a sizeable optimized
program — generated block code, segment traces, memoized width replay.
The reference evaluator is the deliberately boring alternative: walk the
blocks, execute one instruction at a time against plain dictionaries,
follow branches.  No packets, no caching; timing, when wanted, is the
separate :class:`repro.check.timing.IssueTimer` fed through the
``on_instr`` hook.

Three uses:

* run the **naive lowered IR** of a kernel (no optimization at all) to
  produce the golden final state the differential oracle compares every
  optimization level against;
* run the **final scheduled IR**, timed, and cross-check the simulator:
  both must produce bit-identical end states, because in-order issue
  with correct register interlocks has sequential semantics, and the
  same cycle and instruction counts;
* be the simulator's cycle reference, ``simulate(..., engine="interp")``
  and :func:`repro.sim.trace.trace_run` (:mod:`repro.check.timing`).

Scalar semantics (truncating division, arithmetic shifts, IEEE double) are
shared with the simulator via :data:`repro.sim.executor.ALU_SEMANTICS` —
the oracle tests the compiler's transformations, so the two executors must
agree on what each opcode *computes* while disagreeing on every piece of
machinery around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..frontend.ast import Kernel
from ..frontend.lower import LoweredKernel, lower_kernel
from ..ir.function import Function
from ..ir.instructions import Instr, Kind, Op
from ..ir.operands import FImm, Imm, Reg, RegClass, Sym
from ..sim.errors import SimulationError
from ..sim.executor import ALU_SEMANTICS, CMP_SEMANTICS, VEC_SEMANTICS
from ..sim.memory import WORD, Memory, SimMemoryError


@dataclass
class StoreEvent:
    """One executed store, for first-divergent-store provenance."""

    step: int
    addr: int
    value: float | int
    instr: Instr


@dataclass
class RefResult:
    """End state of a reference evaluation."""

    steps: int
    iregs: dict[int, int]
    fregs: dict[int, float]
    memory: Memory
    stores: list[StoreEvent] = field(default_factory=list)


def ref_eval(
    func: Function,
    memory: Memory | None = None,
    iregs: dict[int, int] | None = None,
    fregs: dict[int, float] | None = None,
    max_steps: int = 100_000_000,
    log_stores: bool = False,
    on_instr: Callable[[Instr], None] | None = None,
) -> RefResult:
    """Interpret ``func`` sequentially to completion.

    Execution starts at the entry block; a block's last instruction falls
    through to the next block in layout order unless a taken branch/jump
    redirects it, exactly like the simulator's control model.  Reads of
    never-written registers or uninitialized memory raise the
    simulator's :class:`SimulationError` / :class:`SimMemoryError`, with
    the block code's messages, rather than inventing zeros; so does a
    store outside memory (the rule of :mod:`repro.sim.memory`) and, here
    only, an address that is not a multiple of the word size.
    ``on_instr``, when given, is called with each instruction before it
    executes (the cycle timer of :mod:`repro.check.timing`).
    """
    memory = memory if memory is not None else Memory()
    ivals: dict[int, int] = dict(iregs or {})
    fvals: dict[int, float] = dict(fregs or {})
    banks = {RegClass.INT: ivals, RegClass.FP: fvals,
             RegClass.VINT: {}, RegClass.VFP: {}}
    words = memory._words
    stores: list[StoreEvent] = []
    index = {b.label: i for i, b in enumerate(func.blocks)}
    code = _decode(func, banks, memory.symbols)

    def fetch(src, ins: Instr, what: str = "read"):
        bank, key = src
        if bank is None:
            return key
        try:
            return bank[key]
        except KeyError:
            raise SimulationError(
                f"{what} of uninitialized register: {ins!r}") from None

    def word(ins: Instr, srcs, what: str) -> int:
        addr = fetch(srcs[0], ins) + fetch(srcs[1], ins)
        if addr % WORD:
            raise SimMemoryError(f"unaligned {what} at {addr:#x}: {ins!r}")
        return addr

    steps = 0
    bi = 0
    n_blocks = len(code)
    while bi < n_blocks:
        nxt = bi + 1
        for what, ins, fn, dest, key, srcs in code[bi]:
            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"exceeded {max_steps} steps in {func.name} "
                    f"(at block {func.blocks[bi].label})"
                )
            if on_instr is not None:
                on_instr(ins)
            if what is _BINARY:
                a = fetch(srcs[0], ins)
                b = fetch(srcs[1], ins)
                try:
                    dest[key] = fn(a, b)
                except ZeroDivisionError:
                    raise SimulationError(f"division by zero: {ins!r}") from None
            elif what is _BRANCH:
                if fn(fetch(srcs[0], ins), fetch(srcs[1], ins)):
                    nxt = index[ins.target.name]
                    break
            elif what is _MOVE:
                dest[key] = fetch(srcs[0], ins)
            elif what is _CONVERT:
                dest[key] = fn(fetch(srcs[0], ins))
            elif what is _LOAD:
                addr = word(ins, srcs, "load")
                w = addr >> 2
                v = words[w] if 0 <= w < len(words) else None
                if v is None:
                    raise SimMemoryError(
                        f"load from uninitialized address {addr:#x}: {ins!r}"
                    )
                dest[key] = v
            elif what is _STORE:
                addr = word(ins, srcs, "store")
                v = fetch(srcs[2], ins, "store")
                w = addr >> 2
                if not 0 <= w < len(words):
                    raise SimMemoryError(
                        f"store to unmapped address {addr:#x}: {ins!r}"
                    )
                words[w] = v
                if log_stores:
                    stores.append(StoreEvent(steps, addr, v, ins))
            elif what is _JUMP:
                nxt = index[ins.target.name]
                break
            elif what is _VEXT:
                dest[key] = fetch(srcs[0], ins)[ins.srcs[1].value]
            elif what is _VPACK:
                dest[key] = tuple(fetch(s, ins) for s in srcs)
            elif what is _VLOAD:
                addr = word(ins, srcs, "load")
                w = addr >> 2
                # a slice stops at the top: a short one crossed it
                v = tuple(words[w:w + ins.lanes]) if w >= 0 else ()
                if len(v) < ins.lanes or None in v:
                    raise SimMemoryError(
                        f"load from uninitialized address {addr:#x}: {ins!r}"
                    )
                dest[key] = v
            elif what is _VSTORE:
                addr = word(ins, srcs, "store")
                v = fetch(srcs[2], ins, "store")
                w = addr >> 2
                for j in range(ins.lanes):
                    # lane by lane, as the block code writes them
                    if not 0 <= w + j < len(words):
                        raise SimMemoryError(
                            f"store to unmapped address {addr:#x}: {ins!r}"
                        )
                    words[w + j] = v[j]
                    if log_stores:
                        stores.append(
                            StoreEvent(steps, addr + 4 * j, v[j], ins)
                        )
            elif what is _HALT:
                return RefResult(steps, ivals, fvals, memory, stores)
            elif what is _UNHANDLED:
                raise SimulationError(f"unhandled opcode {ins.op} at {ins!r}")
        bi = nxt
    return RefResult(steps, ivals, fvals, memory, stores)


# what a decoded instruction does (compared by identity)
_BINARY, _BRANCH, _MOVE, _CONVERT = "bin", "br", "mov", "cvt"
_LOAD, _STORE, _JUMP, _HALT, _NOP = "ld", "st", "jmp", "halt", "nop"
_VEXT, _VPACK, _VLOAD, _VSTORE = "vx", "vp", "vld", "vst"
_UNHANDLED = "?"
_BINARY_FNS = {**ALU_SEMANTICS, **VEC_SEMANTICS}


class _Fault:
    """An operand that cannot be read: reading it raises ``message``
    (where the instruction executes, never where it is decoded)."""

    def __init__(self, message: str):
        self.message = message

    def __getitem__(self, key):
        raise SimulationError(self.message)


def _decode(func: Function, banks: dict, symbols: dict) -> list[list[tuple]]:
    """Per block, one row per instruction: ``(what, ins, fn, dest, key,
    srcs)`` — what it executes as, its semantics function, the bank
    dict and id it writes, and each operand as ``(bank dict, id)`` or,
    for a value known here, ``(None, value)``.  Decoding once per run
    keeps ``Op`` and ``RegClass`` lookups (hashed in Python) out of
    the per-instruction loop; the rows hold this run's banks."""
    def operand(s, ins):
        if isinstance(s, Reg):
            return banks[s.cls], s.id
        if isinstance(s, (Imm, FImm)):
            return None, s.value
        if isinstance(s, Sym):
            if s.name in symbols:
                return None, symbols[s.name]
            return _Fault(f"unresolved symbol {s.name!r}"), None
        return _Fault(f"bad operand {s!r} at {ins!r}"), None

    def row(ins: Instr) -> tuple:
        op = ins.op
        fn = _BINARY_FNS.get(op)
        dest = ins.dest
        if fn is not None:
            what = _BINARY
        elif op is Op.MOV or op is Op.FMOV:
            what = _MOVE
        elif op is Op.ITOF:
            what, fn, dest = _CONVERT, float, (banks[RegClass.FP], dest.id)
        elif op is Op.FTOI:
            what, fn, dest = _CONVERT, math.trunc, (banks[RegClass.INT],
                                                    dest.id)
        elif ins.kind is Kind.LOAD:
            what = _LOAD
        elif ins.kind is Kind.STORE:
            what = _STORE
        elif op is Op.VEXT or op is Op.VEXTF:
            what = _VEXT
        elif op is Op.VPACK or op is Op.VPACKF:
            what = _VPACK
        elif ins.kind is Kind.VEC_LOAD:
            what = _VLOAD
        elif ins.kind is Kind.VEC_STORE:
            what = _VSTORE
        elif ins.is_branch:
            what, fn = _BRANCH, CMP_SEMANTICS[op]
        elif op is Op.JMP:
            what = _JUMP
        elif op is Op.HALT:
            what = _HALT
        elif op is Op.NOP:
            what = _NOP
        else:
            what = _UNHANDLED
        if isinstance(dest, Reg):
            dest = (banks[dest.cls], dest.id)
        bank, key = dest if dest is not None else (None, None)
        return (what, ins, fn, bank, key,
                tuple(operand(s, ins) for s in ins.srcs))

    return [[row(ins) for ins in b.instrs] for b in func.blocks]


def reference_run(
    kernel: Kernel,
    arrays: dict[str, np.ndarray],
    scalars: dict[str, float | int],
    lowered: LoweredKernel | None = None,
    log_stores: bool = False,
    on_instr: Callable[[Instr], None] | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, float | int], RefResult]:
    """Golden execution of a kernel: lower naively (NO optimization) and
    interpret the result directly on bound data.

    Returns final array contents, declared output scalars, and the raw
    :class:`RefResult` (whose memory/store log the oracle uses for
    divergence provenance).  Pass ``lowered`` to evaluate an
    already-lowered (or transformed/scheduled) function instead — the
    binding and read-back conventions are the harness's own
    (:func:`repro.harness.bind_inputs` / ``collect_outputs``), so results
    are directly comparable to :func:`repro.harness.run_compiled_kernel`.
    ``on_instr`` is :func:`ref_eval`'s per-instruction hook.
    """
    from ..harness import bind_inputs, collect_outputs

    lk = lowered if lowered is not None else lower_kernel(kernel)
    mem, iregs, fregs = bind_inputs(lk, arrays, scalars)
    res = ref_eval(lk.func, mem, iregs, fregs, log_stores=log_stores,
                   on_instr=on_instr)
    out_arrays, out_scalars = collect_outputs(lk, mem, res.iregs, res.fregs, scalars)
    return out_arrays, out_scalars, res

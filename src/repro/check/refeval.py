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
    vivals: dict[int, tuple] = {}
    vfvals: dict[int, tuple] = {}
    banks = {RegClass.INT: ivals, RegClass.FP: fvals,
             RegClass.VINT: vivals, RegClass.VFP: vfvals}
    symbols = memory.symbols
    words = memory._words
    stores: list[StoreEvent] = []

    index = {b.label: i for i, b in enumerate(func.blocks)}
    blocks = [b.instrs for b in func.blocks]
    binary = {**ALU_SEMANTICS, **VEC_SEMANTICS}
    cmp = CMP_SEMANTICS

    def fetch(s, ins: Instr, what: str = "read"):
        if isinstance(s, Reg):
            try:
                return banks[s.cls][s.id]
            except KeyError:
                raise SimulationError(
                    f"{what} of uninitialized register: {ins!r}"
                ) from None
        if isinstance(s, (Imm, FImm)):
            return s.value
        if isinstance(s, Sym):
            try:
                return symbols[s.name]
            except KeyError:
                raise SimulationError(
                    f"unresolved symbol {s.name!r}") from None
        raise SimulationError(f"bad operand {s!r} at {ins!r}")

    def word(ins: Instr, what: str) -> int:
        addr = fetch(ins.srcs[0], ins) + fetch(ins.srcs[1], ins)
        if addr % WORD:
            raise SimMemoryError(f"unaligned {what} at {addr:#x}: {ins!r}")
        return addr

    steps = 0
    bi = 0
    n_blocks = len(blocks)
    while bi < n_blocks:
        instrs = blocks[bi]
        ii = 0
        redirected = False
        while ii < len(instrs):
            ins = instrs[ii]
            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"exceeded {max_steps} steps in {func.name} "
                    f"(at block {func.blocks[bi].label})"
                )
            if on_instr is not None:
                on_instr(ins)
            op = ins.op
            fn = binary.get(op)
            if fn is not None:
                a = fetch(ins.srcs[0], ins)
                b = fetch(ins.srcs[1], ins)
                try:
                    res = fn(a, b)
                except ZeroDivisionError:
                    raise SimulationError(f"division by zero: {ins!r}") from None
                banks[ins.dest.cls][ins.dest.id] = res
            elif op is Op.MOV or op is Op.FMOV:
                banks[ins.dest.cls][ins.dest.id] = fetch(ins.srcs[0], ins)
            elif op is Op.ITOF:
                fvals[ins.dest.id] = float(fetch(ins.srcs[0], ins))
            elif op is Op.FTOI:
                ivals[ins.dest.id] = math.trunc(fetch(ins.srcs[0], ins))
            elif ins.kind is Kind.LOAD:
                addr = word(ins, "load")
                w = addr >> 2
                v = words[w] if 0 <= w < len(words) else None
                if v is None:
                    raise SimMemoryError(
                        f"load from uninitialized address {addr:#x}: {ins!r}"
                    )
                banks[ins.dest.cls][ins.dest.id] = v
            elif ins.kind is Kind.STORE:
                addr = word(ins, "store")
                v = fetch(ins.srcs[2], ins, "store")
                w = addr >> 2
                if not 0 <= w < len(words):
                    raise SimMemoryError(
                        f"store to unmapped address {addr:#x}: {ins!r}"
                    )
                words[w] = v
                if log_stores:
                    stores.append(StoreEvent(steps, addr, v, ins))
            elif op is Op.VEXT or op is Op.VEXTF:
                v = fetch(ins.srcs[0], ins)
                banks[ins.dest.cls][ins.dest.id] = v[ins.srcs[1].value]
            elif op is Op.VPACK or op is Op.VPACKF:
                banks[ins.dest.cls][ins.dest.id] = tuple(
                    fetch(s, ins) for s in ins.srcs
                )
            elif ins.kind is Kind.VEC_LOAD:
                addr = word(ins, "load")
                w = addr >> 2
                # a slice stops at the top: a short one crossed it
                v = tuple(words[w:w + ins.lanes]) if w >= 0 else ()
                if len(v) < ins.lanes or None in v:
                    raise SimMemoryError(
                        f"load from uninitialized address {addr:#x}: {ins!r}"
                    )
                banks[ins.dest.cls][ins.dest.id] = v
            elif ins.kind is Kind.VEC_STORE:
                addr = word(ins, "store")
                v = fetch(ins.srcs[2], ins, "store")
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
            elif ins.is_branch:
                taken = cmp[op](fetch(ins.srcs[0], ins), fetch(ins.srcs[1], ins))
                if taken:
                    bi = index[ins.target.name]
                    redirected = True
                    break
            elif op is Op.JMP:
                bi = index[ins.target.name]
                redirected = True
                break
            elif op is Op.HALT:
                return RefResult(steps, ivals, fvals, memory, stores)
            elif op is Op.NOP:
                pass
            else:
                raise SimulationError(f"unhandled opcode {op} at {ins!r}")
            ii += 1
        if not redirected:
            bi += 1
    return RefResult(steps, ivals, fvals, memory, stores)


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

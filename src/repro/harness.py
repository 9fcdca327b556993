"""End-to-end harness: kernel -> compile at a level -> simulate -> check.

This is the public "just run it" API::

    ck = compile_kernel(kernel, Level.LEV4, issue8())
    out = run_compiled_kernel(ck, arrays={"A": a, "B": b, "C": c},
                              scalars={"n": 100})
    out.cycles, out.arrays["C"], out.scalars.get("s")

``compile_kernel`` is a composition of three stages with strictly widening
dependence on the configuration, so sweeps can share the early stages:

1. :func:`lower_conv` — lowering + classical optimization.  Depends only on
   the kernel (level- and machine-independent).
2. :func:`ilp_transform` — the paper's ILP transformations.  Depends on the
   level and on the machine's *latencies* only
   (:meth:`repro.machine.MachineConfig.latency_key`): machines differing
   only in issue width share transformed code.
3. :func:`schedule_kernel` — list scheduling.  Depends on the full machine
   (the issue width shapes every packet), but its inputs — the dependence
   DAG of every block — again only on the latencies: the widths of a cell
   share them through :attr:`TransformedKernel.schedule_inputs`, so the
   per-width work is the scheduler's heap loop and register colouring.

Stages 2 and 3 mutate the function in place; reuse an earlier stage's
result across several downstream calls by scheduling a ``.clone()`` of it.

Each stage appends to one unified
:class:`~repro.passes.stats.PipelineReport` (per-pass rewrites, wall
time, instruction-count deltas); ``options`` takes a
:class:`~repro.passes.manager.PassOptions` to disable registered passes
or dump IR after them.

:func:`evaluate_levels` is the paper's evaluation loop (Section 3.1) over
those stages — compile a corpus loop at each level, simulate it on each
machine, measure registers — and the only place the repo composes them
for measurement; the levels of one call share what they compute alike.
:func:`evaluate_cell` is its one-level case.  The sweep, ``run_config``
and the service all pack their output.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .analysis.loopvars import CountedLoop
from .frontend.ast import Kernel, Ty
from .frontend.lower import LoweredKernel, lower_kernel
from .ir.block import Block
from .ir.function import Function
from .ir.instructions import Instr
from .machine import MachineConfig
from .opt.driver import run_conv
from .passes import PassOptions, PipelineContext, PipelineReport
from .pipeline import (
    Level,
    ScheduleInputs,
    run_cleanup_phase,
    run_ilp_phase,
    schedule_function,
)
from .regalloc import RegisterNumbering, RegisterUsage, measure_register_usage
from .schedule.listsched import Schedule
from .schedule.superblock import SuperblockLoop
from .sim import Memory, TracedRun, check_engine, compiled_program, simulate
from .workloads import Workload, check_run, get_workload


@dataclass
class CompiledKernel:
    lowered: LoweredKernel
    level: Level
    machine: MachineConfig
    sb: SuperblockLoop
    schedules: dict[str, Schedule]
    report: PipelineReport
    #: the register colouring verified by ``schedule_kernel(check=True)``
    #: (None when the kernel was scheduled unchecked)
    usage: RegisterUsage | None = None

    @property
    def func(self):
        return self.lowered.func

    @property
    def inner_makespan(self) -> int:
        return self.schedules[self.sb.header].makespan


def _copy_lowered(lk: LoweredKernel) -> LoweredKernel:
    """A copy of ``lk``'s function — fresh blocks and instructions with
    the same fields (``uid`` included) — with the counted-loop records
    remapped onto it.  An instruction a record holds that the function
    no longer does is copied once too, as a deep copy would."""
    copies: dict[int, Instr] = {}

    def instr(ins: Instr) -> Instr:
        new = copies.get(id(ins))
        if new is None:
            new = copies[id(ins)] = object.__new__(Instr)
            new.__dict__.update(ins.__dict__)
        return new

    f = lk.func
    func = Function(
        f.name, [Block(b.label, [instr(i) for i in b.instrs])
                 for b in f.blocks],
        set(f.pinned_regs), dict(f._next_reg), f._next_label)
    counted = {h: dataclasses.replace(c, branch=instr(c.branch),
                                      increment=instr(c.increment))
               for h, c in lk.counted.items()}
    return LoweredKernel(lk.kernel, func, dict(lk.scalar_regs), counted,
                         lk.inner_header, lk.inner_kind)


@dataclass
class ConvKernel:
    """Stage-1 result: lowered + classically optimized (level-independent)."""

    lowered: LoweredKernel
    report: PipelineReport
    #: a checked classical phase verified this code
    checked: bool = False

    def clone(self) -> "ConvKernel":
        """An independent copy: fresh function, blocks and instructions,
        the counted-loop records remapped onto them, the report forked
        (the kernel AST is immutable and shared)."""
        return ConvKernel(_copy_lowered(self.lowered), self.report.fork(),
                          self.checked)


@dataclass
class TransformedKernel:
    """Stage-2 result: ILP-transformed but not yet scheduled.

    Width-independent: only the machine's latencies were observed
    (tree height reduction), so one ``TransformedKernel`` serves every
    issue width via ``schedule_kernel(tk.clone(), machine)``.
    ``schedule_inputs`` is one object shared with every clone: the first
    ``schedule_kernel`` call fills it, the other widths reuse it.
    """

    lowered: LoweredKernel
    level: Level
    sb: SuperblockLoop
    report: PipelineReport
    schedule_inputs: ScheduleInputs = field(default_factory=ScheduleInputs)
    #: a checked transformation verified this code
    checked: bool = False

    def clone(self) -> "TransformedKernel":
        """Clone for scheduling: fresh function/blocks/instruction lists,
        *shared* instruction and operand objects.

        The scheduling stage only reorders instruction lists — instruction
        objects are mutated exclusively by the ILP stage (superblock
        formation rewrites targets) — so structural sharing is safe here
        and far cheaper than a deep copy.  Do not feed a clone back into
        :func:`ilp_transform`.  The report is forked so each width's
        schedule extends its own copy of the shared transform history.
        """
        lk = self.lowered
        f = lk.func
        nf = Function(f.name, pinned_regs=set(f.pinned_regs),
                      _next_reg=dict(f._next_reg), _next_label=f._next_label)
        bmap: dict[int, Block] = {}
        for b in f.blocks:
            nb = Block(b.label, list(b.instrs))
            nf.blocks.append(nb)
            bmap[id(b)] = nb
        nlk = LoweredKernel(lk.kernel, nf, lk.scalar_regs, lk.counted,
                            lk.inner_header, lk.inner_kind)
        sb = self.sb
        nsb = SuperblockLoop(
            nf, bmap.get(id(sb.body), sb.body),
            bmap.get(id(sb.preheader), sb.preheader), sb.counted,
            set(sb.offtrace),
            None if sb.exit_block is None
            else bmap.get(id(sb.exit_block), sb.exit_block),
        )
        return TransformedKernel(nlk, self.level, nsb, self.report.fork(),
                                 self.schedule_inputs, self.checked)


def lower_conv(
    kernel: Kernel, options: PassOptions | None = None, check: bool = False,
) -> ConvKernel:
    """Stage 1: lower a kernel and run the classical (conventional)
    optimizations.  Depends only on the kernel itself.  ``check=True``
    runs the invariant verifier on the lowered code and after every
    pass."""
    lk = lower_kernel(kernel)
    report = run_conv(lk.func, lk.counted, lk.live_out_exit, options=options,
                      check=check)
    return ConvKernel(lk, report, check)


def ilp_transform(
    conv: ConvKernel,
    level: Level,
    machine: MachineConfig,
    unroll_factor: int | None = None,
    thr_unit_latency: bool = False,
    check: bool = False,
    options: PassOptions | None = None,
) -> TransformedKernel:
    """Stage 2: apply the paper's ILP transformations at ``level``.

    Mutates ``conv``'s function in place (pass ``conv.clone()`` to keep the
    stage-1 result reusable).  Observes only ``machine.latency_key()``.
    ``check=True`` runs the invariant verifier on entry (unless a checked
    classical phase verified ``conv``) and after every pass.
    """
    ctx = _ilp_phase(conv, level, machine, unroll_factor, thr_unit_latency,
                     check, options)
    return _cleanup(conv.lowered, ctx, check, options)


def _ilp_phase(
    conv: ConvKernel,
    level: Level,
    machine: MachineConfig,
    unroll_factor: int | None = None,
    thr_unit_latency: bool = False,
    check: bool = False,
    options: PassOptions | None = None,
) -> PipelineContext:
    """The first half of :func:`ilp_transform`: the ``ilp`` phase over
    ``conv``'s function, whose context :func:`_cleanup` finishes."""
    lk = conv.lowered
    return run_ilp_phase(
        lk.func, lk.counted[lk.inner_header], level, machine,
        lk.live_out_exit, unroll_factor, thr_unit_latency, check=check,
        options=options, report=conv.report, verified=conv.checked)


def _cleanup(
    lk: LoweredKernel, ctx: PipelineContext, check: bool,
    options: PassOptions | None,
) -> TransformedKernel:
    """The second half of :func:`ilp_transform`: the ``cleanup`` phase."""
    sb, report = run_cleanup_phase(ctx, check, options)
    return TransformedKernel(lk, ctx.level, sb, report, checked=check)


def schedule_kernel(
    tk: TransformedKernel, machine: MachineConfig, check: bool = False,
    options: PassOptions | None = None,
) -> CompiledKernel:
    """Stage 3: schedule a transformed kernel for a concrete machine.

    Mutates ``tk``'s function in place (pass ``tk.clone()`` to schedule the
    same transformed code for several widths).  ``check=True`` verifies
    invariants on the scheduled code and the register coloring.
    """
    lk = tk.lowered
    doall = lk.inner_kind == "doall"
    report = tk.report.fork()
    schedules = schedule_function(
        lk.func, machine, lk.live_out_exit, sb=tk.sb, doall=doall,
        check=check, options=options, report=report,
        inputs=tk.schedule_inputs, verified=tk.checked,
    )
    usage = (measure_register_usage(lk.func, lk.live_out_exit, check=True)
             if check else None)
    return CompiledKernel(lk, tk.level, machine, tk.sb, schedules, report,
                          usage)


def compile_kernel(
    kernel: Kernel,
    level: Level,
    machine: MachineConfig,
    unroll_factor: int | None = None,
    thr_unit_latency: bool = False,
    check: bool = False,
    options: PassOptions | None = None,
) -> CompiledKernel:
    """Lower, classically optimize, ILP-transform, and schedule a kernel.

    ``check=True`` (the CLI ``--check`` flag) runs the invariant
    verifier at every phase's entry, after every pass and after every
    phase's finalizer, in all four phases, and verifies the register
    colouring; a failure names the pass it follows.  ``options`` carries
    pass disabling and IR printing controls (``--disable-pass``,
    ``--print-after``).
    """
    tk = ilp_transform(
        lower_conv(kernel, options=options, check=check), level, machine,
        unroll_factor, thr_unit_latency=thr_unit_latency, check=check,
        options=options,
    )
    return schedule_kernel(tk, machine, check=check, options=options)


@dataclass
class KernelRun:
    cycles: int
    instructions: int
    arrays: dict[str, np.ndarray]
    scalars: dict[str, float | int]

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def bind_inputs(
    lowered: LoweredKernel,
    arrays: dict[str, np.ndarray] | None = None,
    scalars: dict[str, float | int] | None = None,
) -> tuple[Memory, dict[int, int], dict[int, float]]:
    """Bind workload data for execution: arrays into simulated memory,
    input scalars into register live-in maps.

    Every declared array must be provided with matching total size; input
    scalars default to 0.  Shared by the cycle-accurate simulator
    (:func:`run_compiled_kernel`) and the reference evaluator
    (:mod:`repro.check.refeval`), so both execute from identical state.
    """
    arrays = arrays or {}
    scalars = scalars or {}
    kernel = lowered.kernel
    mem = Memory()
    for name, decl in kernel.arrays.items():
        if name not in arrays:
            raise ValueError(f"array {name!r} not bound")
        data = np.asarray(arrays[name])
        if data.size != decl.size:
            raise ValueError(
                f"array {name!r}: expected {decl.size} elements, got {data.size}"
            )
        mem.bind_array(name, data)

    iregs: dict[int, int] = {}
    fregs: dict[int, float] = {}
    for name, reg in lowered.scalar_regs.items():
        ty = kernel.scalars.get(name)
        if ty is None:
            continue  # loop variables and such: defined by the code
        val = scalars.get(name, 0)
        if ty is Ty.FP:
            fregs[reg.id] = float(val)
        else:
            iregs[reg.id] = int(val)
    return mem, iregs, fregs


def collect_outputs(
    lowered: LoweredKernel,
    mem: Memory,
    iregs: dict[int, int],
    fregs: dict[int, float],
    scalars_in: dict[str, float | int] | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, float | int]]:
    """Read final array contents and declared output scalars back out of an
    execution's end state (counterpart of :func:`bind_inputs`)."""
    scalars_in = scalars_in or {}
    kernel = lowered.kernel
    out_arrays = {
        name: mem.read_array(
            name, decl.dims,
            np.float64 if decl.ty is Ty.FP else np.int64,
        )
        for name, decl in kernel.arrays.items()
    }
    out_scalars: dict[str, float | int] = {}
    for name in kernel.outputs:
        reg = lowered.scalar_regs[name]
        bank = fregs if reg.is_fp else iregs
        if reg.id in bank:
            out_scalars[name] = bank[reg.id]
        else:  # never written: the input value flows through
            out_scalars[name] = scalars_in.get(name, 0)
    return out_arrays, out_scalars


def run_compiled_kernel(
    ck: CompiledKernel,
    arrays: dict[str, np.ndarray] | None = None,
    scalars: dict[str, float | int] | None = None,
    max_cycles: int = 200_000_000,
    engine: str = "auto",
) -> KernelRun:
    """Simulate a compiled kernel on bound data.

    Every declared array must be provided with matching total size; input
    scalars default to 0.  Returns final array contents and the kernel's
    declared output scalars.  ``engine="interp"`` names the timed
    reference evaluator instead of the compiled engine (see
    :func:`repro.sim.simulate`).
    """
    mem, iregs, fregs = bind_inputs(ck.lowered, arrays, scalars)
    res = simulate(ck.func, ck.machine, mem, iregs, fregs,
                   max_cycles=max_cycles, engine=engine)
    out_arrays, out_scalars = collect_outputs(
        ck.lowered, mem, res.iregs, res.fregs, scalars or {}
    )
    return KernelRun(res.cycles, res.instructions, out_arrays, out_scalars)


class BatchedRunner:
    """Execute a (workload, level) cell once, time it for many widths.

    The dynamic trace of the in-order model depends only on values, so
    the issue widths of one cell share it: construct the runner from any
    one width's :class:`CompiledKernel` (this executes the program once
    — a :class:`repro.sim.TracedRun` the runner owns) and call
    :meth:`run` per width for that machine's cycle/instruction counts by
    trace replay, bit-identical to full simulation.  End-state outputs
    are shared across widths (the scheduler preserves the values of
    memory and live-out scalars; speculation only touches dead or
    renamed registers).  A kernel that is not a reschedule of the traced
    one — another transformation of the cell, another latency table —
    raises :class:`repro.sim.ReplayUnmapped`.
    """

    def __init__(
        self,
        ck: CompiledKernel,
        arrays: dict[str, np.ndarray] | None = None,
        scalars: dict[str, float | int] | None = None,
        max_cycles: int = 200_000_000,
    ):
        mem, iregs, fregs = bind_inputs(ck.lowered, arrays, scalars)
        self._trace = trace = TracedRun(
            compiled_program(ck.func, ck.machine, mem.symbols),
            mem, iregs, fregs, max_cycles)
        self._traced = (ck.func, ck.machine)
        self._arrays, self._scalars = collect_outputs(
            ck.lowered, mem, trace.iregs, trace.fregs, scalars or {})
        self._first = KernelRun(trace.cycles, trace.instructions,
                                self._arrays, self._scalars)

    def run(self, ck: CompiledKernel) -> KernelRun:
        """Cycle/instruction counts for ``ck``'s machine, with the shared
        end-state outputs.  ``ck`` must be a reschedule of the traced
        kernel (a width clone of the same transformed code)."""
        func, machine = self._traced
        if ck.func is func and ck.machine == machine:
            return self._first
        cycles, n_instr = self._trace.time(ck.func, ck.machine)
        return KernelRun(cycles, n_instr, self._arrays, self._scalars)


# ---------------------------------------------------------------------------
# the cell evaluator
# ---------------------------------------------------------------------------

# The two process memos are bounded and keyed by plain values (DESIGN.md
# §11.2): whatever seeds and disable sets clients send, a worker holds at
# most ``maxsize`` of each — above the 40-loop corpus a sweep walks.


@functools.lru_cache(maxsize=64)
def _conv_kernel(
    name: str, options: PassOptions | None, check: bool,
) -> ConvKernel:
    """Classical optimization is level- and machine-independent, so one
    ``ConvKernel`` per (workload, pass options, ``check``) serves every
    cell a process evaluates (an ablation that switches classical passes
    off must not get the fully-optimized one, and a checked cell must
    get a checked classical phase).  Transform a ``.clone()``."""
    return lower_conv(get_workload(name).build(), options=options,
                      check=check)


@functools.lru_cache(maxsize=64)
def _inputs(name: str, seed: int) -> tuple[dict, dict]:
    """Inputs are read-only (``check_run`` copies before mutating;
    ``Memory.bind_array`` copies into simulated memory), so one binding
    per (workload, seed) serves every configuration."""
    return get_workload(name).make_inputs(seed)


class WidthResult(NamedTuple):
    """One machine's share of an evaluated cell, unpacked as
    ``ck, usage, run, timings``."""

    ck: CompiledKernel
    usage: RegisterUsage
    #: None when the cell was compiled only (``execute=False``)
    run: KernelRun | None
    #: wall-clock ``t_compile`` / ``t_schedule`` / ``t_simulate`` seconds
    #: and the per-pass ``t_passes`` map, which also carries register
    #: colouring as ``"regalloc"`` (it is in none of the three phase
    #: timers unless ``check_ir`` made it part of scheduling).  Work
    #: shared by the cell (classical + ILP transformation, the one traced
    #: execution) is charged to the first machine that paid it, never
    #: smeared; the classical phase only when this call actually ran it.
    timings: dict


def evaluate_cell(
    w: Workload,
    level: Level,
    machines: Sequence[MachineConfig],
    *,
    seed: int = 0,
    check: bool = True,
    check_ir: bool = False,
    options: PassOptions | None = None,
    engine: str = "auto",
    execute: bool = True,
) -> list[WidthResult]:
    """Evaluate one (workload, level) cell on every machine of
    ``machines``: the one-level case of :func:`evaluate_levels`, which
    documents the arguments."""
    ((_, out),) = evaluate_levels(
        w, (level,), machines, seed=seed, check=check, check_ir=check_ir,
        options=options, engine=engine, execute=execute)
    return out


def evaluate_levels(
    w: Workload,
    levels: Sequence[Level],
    machines: Sequence[MachineConfig],
    *,
    seed: int = 0,
    check: bool = True,
    check_ir: bool = False,
    options: PassOptions | None = None,
    engine: str = "auto",
    execute: bool = True,
) -> Iterator[tuple[Level, list[WidthResult]]]:
    """Evaluate the (workload, level) cells of ``levels`` on every
    machine of ``machines``, which must share one ``latency_key()`` —
    typically the issue widths of the grid — else ``ValueError``: each
    level is transformed once, for ``machines[0]``.  Yields ``(level,
    results)`` as each level finishes, in the order of ``levels``.

    ``w`` is a corpus workload: the classical stage comes from the
    per-process memo (and is charged to the call that filled it).  Each
    level runs its own ILP phase (:func:`ilp_transform`'s two halves) on
    a clone of it; a level whose code after that phase equals an earlier
    level's takes that level's cleanup output, schedules, colourings and
    runs, relabelled with its own level — the result a call of its own
    would give (DESIGN.md §8.5).  The shared pass rows carry 0 s in the
    later level's report, so shared time is charged once.  When
    ``options`` print IR, every level computes everything itself.

    Within a level, each machine schedules a structural clone and has
    its registers counted over one numbering of the level's registers.
    The level *executes* once — the dynamic trace is width-independent —
    through the :class:`BatchedRunner` that owns the execution, and
    every machine's cycle/instruction counts come from replaying that
    trace against its own schedule, bit-identical to simulating each in
    full.  ``engine="interp"`` names the reference instead, which runs
    every machine in full; any engine name but ``"auto"`` and
    ``"interp"`` is a ``ValueError``.  ``check`` holds the first
    machine's outputs against the workload's NumPy reference: replayed
    machines share them (the oracle compares each width's own outputs
    under the reference).  ``check_ir`` runs the between-pass invariant
    verifier; ``execute=False`` stops after compilation.
    """
    if len({m.latency_key() for m in machines}) > 1:
        raise ValueError(
            "the machines of a cell must differ in issue width only "
            "(one latency_key())")
    check_engine(engine)
    built = _conv_kernel.cache_info().misses
    t0 = time.perf_counter()
    conv = _conv_kernel(w.name, options, check_ir)
    t_conv = (time.perf_counter() - t0
              if _conv_kernel.cache_info().misses > built else 0.0)
    share = options is None or not (options.print_after
                                    or options.print_changed)
    by_code: dict[tuple, list[WidthResult]] = {}
    for level in levels:
        t0 = time.perf_counter()
        c = conv.clone()
        ctx = _ilp_phase(c, level, machines[0], check=check_ir,
                         options=options)
        key = _code_key(c.lowered, ctx) if share else None
        t_ilp = time.perf_counter() - t0 + t_conv
        prior = by_code.get(key)
        if prior is not None:
            yield level, _relabel(prior, level, ctx.report, t_ilp, t_conv)
        else:
            t0 = time.perf_counter()
            tk = _cleanup(c.lowered, ctx, check_ir, options)
            out = _evaluate_widths(
                w, tk, machines, t_ilp + time.perf_counter() - t0, t_conv,
                seed=seed, check=check, check_ir=check_ir, options=options,
                engine=engine, execute=execute)
            if share:
                by_code[key] = out
            yield level, out
        t_conv = 0.0  # charged to the first level


def _code_key(lk: LoweredKernel, ctx: PipelineContext) -> tuple:
    """Everything the cleanup phase and the stages after it read of an
    ILP phase's end state: every block with every field of every
    instruction, the superblock, and the counted-loop records (their
    instructions by position)."""
    def fields(ins: Instr) -> tuple:
        return (ins.op, ins.dest, ins.srcs, ins.target, ins.prob, ins.tag,
                ins.lanes)

    where: dict[int, tuple[int, int]] = {}
    blocks = []
    for b, blk in enumerate(ctx.func.blocks):
        for k, ins in enumerate(blk.instrs):
            where[id(ins)] = (b, k)
        blocks.append((blk.label, tuple(map(fields, blk.instrs))))

    def instr(ins: Instr):
        return where.get(id(ins)) or fields(ins)

    def counted(c: CountedLoop | None):
        return None if c is None else (
            c.header, c.iv, c.step, c.limit, instr(c.branch),
            instr(c.increment), c.trip_multiple)

    sb = ctx.sb
    return (
        tuple(blocks), frozenset(ctx.func.pinned_regs),
        counted(ctx.counted),
        tuple(sorted((h, counted(c)) for h, c in lk.counted.items())),
        sb.body.label, sb.preheader.label,
        None if sb.exit_block is None else sb.exit_block.label,
        tuple(sorted(sb.offtrace)), counted(sb.counted),
    )


def _relabel(
    prior: list[WidthResult], level: Level, report: PipelineReport,
    t_ilp: float, t_conv: float,
) -> list[WidthResult]:
    """An earlier level's results for ``level``, whose ILP phase (its
    ``report``) ended in the same code: each width's report continues
    ``report`` with the earlier level's cleanup and schedule rows at 0 s,
    and only the ILP phase is charged."""
    out = []
    for i, r in enumerate(prior):
        rep = report.fork()
        done = r.ck.report
        rep.stats += [dataclasses.replace(s, seconds=0.0) for s in done.stats
                      if s.phase in ("cleanup", "schedule")]
        for phase in ("cleanup", "schedule"):
            if phase in done.phase_rounds:
                rep.phase_rounds[phase] = done.phase_rounds[phase]
        first = i == 0
        t_passes = rep.pass_seconds(_charged_phases(first, t_conv))
        if "regalloc" in r.timings["t_passes"]:
            t_passes["regalloc"] = 0.0
        out.append(WidthResult(
            dataclasses.replace(r.ck, level=level, report=rep),
            r.usage, r.run, {
                "t_compile": t_ilp if first else 0.0,
                "t_schedule": 0.0,
                "t_simulate": 0.0,
                "t_passes": t_passes,
            }))
    return out


def _charged_phases(first: bool, t_conv: float) -> tuple[str, ...] | None:
    """The phases whose pass seconds a width's ``t_passes`` holds: the
    schedule only, except on the first width, which also paid the
    level's transformation — and the classical phase, when this call
    ran it (None: every phase)."""
    if not first:
        return ("schedule",)
    return None if t_conv > 0 else ("ilp", "cleanup", "schedule")


def _evaluate_widths(
    w: Workload,
    tk: TransformedKernel,
    machines: Sequence[MachineConfig],
    t_transform: float,
    t_conv: float,
    *,
    seed: int,
    check: bool,
    check_ir: bool,
    options: PassOptions | None,
    engine: str,
    execute: bool,
) -> list[WidthResult]:
    """Schedule, colour and run one transformed level on every machine
    (see :func:`evaluate_levels`); ``t_transform`` is charged to the
    first machine."""
    cks, t_scheds = [], []
    for i, machine in enumerate(machines):
        t0 = time.perf_counter()
        # the last machine may consume tk itself: nothing reads it afterwards
        clone = tk.clone() if i + 1 < len(machines) else tk
        cks.append(schedule_kernel(clone, machine, check=check_ir,
                                   options=options))
        t_scheds.append(time.perf_counter() - t0)

    arrays = scalars = run_width = None
    t_exec = 0.0
    if execute:
        arrays, scalars = _inputs(w.name, seed)
        t0 = time.perf_counter()
        run_width = (
            functools.partial(run_compiled_kernel, arrays=arrays,
                              scalars=scalars, engine="interp")
            if engine == "interp"
            else BatchedRunner(cks[0], arrays, scalars).run)
        t_exec = time.perf_counter() - t0

    numbering = None
    out = []
    for i, ck in enumerate(cks):
        # a check_ir compile already coloured (and verified) this kernel
        # inside its t_schedule; otherwise colour now, on this width's
        # bill, over the one numbering of the level's registers
        usage, t_regalloc = ck.usage, None
        if usage is None:
            t0 = time.perf_counter()
            if numbering is None:
                numbering = RegisterNumbering(ck.func,
                                              ck.lowered.live_out_exit)
            usage = numbering.usage(ck.func)
            t_regalloc = time.perf_counter() - t0
        run, t_sim = None, 0.0
        if execute:
            t0 = time.perf_counter()
            run = run_width(ck)
            if check and i == 0:
                check_run(w, run.arrays, run.scalars, arrays, scalars)
            t_sim = time.perf_counter() - t0
        first = i == 0
        t_passes = ck.report.pass_seconds(_charged_phases(first, t_conv))
        if t_regalloc is not None:
            t_passes["regalloc"] = t_regalloc
        out.append(WidthResult(ck, usage, run, {
            "t_compile": t_transform if first else 0.0,
            "t_schedule": t_scheds[i],
            "t_simulate": t_sim + (t_exec if first else 0.0),
            "t_passes": t_passes,
        }))
    return out

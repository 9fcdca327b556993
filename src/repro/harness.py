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

:func:`evaluate_cell` is the paper's evaluation loop (Section 3.1) over
those stages — compile a corpus loop at a level, simulate it on each
machine, measure registers — and the only place the repo composes them
for measurement: the sweep, ``run_config`` and the service all pack its
output.
"""

from __future__ import annotations

import copy
import functools
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .frontend.ast import Kernel, Ty
from .frontend.lower import LoweredKernel, lower_kernel
from .ir.block import Block
from .ir.function import Function
from .machine import MachineConfig
from .opt.driver import run_conv
from .passes import PassOptions, PipelineReport
from .pipeline import (
    Level,
    ScheduleInputs,
    apply_ilp_transforms,
    schedule_function,
)
from .regalloc import RegisterUsage, measure_register_usage
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


def _clone_stage(obj):
    """Deep-copy a stage result, sharing the immutable kernel AST.

    The cloned ``Function``/``SuperblockLoop``/``scalar_regs`` stay mutually
    consistent (one deepcopy memo), so the clone can be mutated by later
    stages without disturbing the original.
    """
    memo = {id(obj.lowered.kernel): obj.lowered.kernel}
    return copy.deepcopy(obj, memo)


@dataclass
class ConvKernel:
    """Stage-1 result: lowered + classically optimized (level-independent)."""

    lowered: LoweredKernel
    report: PipelineReport

    def clone(self) -> "ConvKernel":
        return _clone_stage(self)


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
                                 self.schedule_inputs)


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
    return ConvKernel(lk, report)


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
    ``check=True`` runs the invariant verifier on entry and after every
    pass.
    """
    lk = conv.lowered
    counted = lk.counted[lk.inner_header]
    sb, report = apply_ilp_transforms(
        lk.func,
        counted,
        level,
        machine,
        lk.live_out_exit,
        unroll_factor,
        thr_unit_latency=thr_unit_latency,
        check=check,
        options=options,
        report=conv.report,
    )
    return TransformedKernel(lk, level, sb, report)


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
        inputs=tk.schedule_inputs,
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
    ``machines``, which must share one ``latency_key()`` — typically the
    issue widths of the grid — else ``ValueError``: the cell is
    transformed once, for ``machines[0]``.

    ``w`` is a corpus workload: the classical stage comes from the
    per-process memo (and is charged to the call that filled it), the
    ILP transformation runs once, each machine schedules a structural
    clone and has its registers measured.  The cell *executes* once —
    the dynamic trace is width-independent — through the
    :class:`BatchedRunner` that owns the execution, and every machine's
    cycle/instruction counts come from replaying that trace against its
    own schedule, bit-identical to simulating each in full.
    ``engine="interp"`` names the reference instead, which runs every
    machine in full; any engine name but ``"auto"`` and ``"interp"`` is
    a ``ValueError``.  ``check`` holds the first machine's outputs
    against the workload's NumPy reference: replayed machines share
    them (the oracle compares each width's own outputs under the
    reference).  ``check_ir`` runs the
    between-pass invariant verifier; ``execute=False`` stops after
    compilation.
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
    t0 = time.perf_counter()
    tk = ilp_transform(conv.clone(), level, machines[0], check=check_ir,
                       options=options)
    t_transform = t_conv + (time.perf_counter() - t0)

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

    out = []
    for i, ck in enumerate(cks):
        # a check_ir compile already coloured (and verified) this kernel
        # inside its t_schedule; otherwise colour now, on this width's bill
        usage, t_regalloc = ck.usage, None
        if usage is None:
            t0 = time.perf_counter()
            usage = measure_register_usage(ck.func, ck.lowered.live_out_exit)
            t_regalloc = time.perf_counter() - t0
        run, t_sim = None, 0.0
        if execute:
            t0 = time.perf_counter()
            run = run_width(ck)
            if check and i == 0:
                check_run(w, run.arrays, run.scalars, arrays, scalars)
            t_sim = time.perf_counter() - t0
        first = i == 0
        if not first:
            phases = ("schedule",)
        elif t_conv > 0:
            phases = None  # every phase, the classical one included
        else:
            phases = ("ilp", "cleanup", "schedule")
        t_passes = ck.report.pass_seconds(phases=phases)
        if t_regalloc is not None:
            t_passes["regalloc"] = t_regalloc
        out.append(WidthResult(ck, usage, run, {
            "t_compile": t_transform if first else 0.0,
            "t_schedule": t_scheds[i],
            "t_simulate": t_sim + (t_exec if first else 0.0),
            "t_passes": t_passes,
        }))
    return out

"""``sweep._run_task`` and ``harness.BatchedRunner`` re-staged with the
program's public functions, one span around each call.

The untraced workloads call ``run_sweep`` / ``BatchedRunner`` as a user
would; the traced repetition runs the same stages through this module so
each layer's time is observed from outside.  Both produce the same cells
— the traced result is held against the same reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.depgraph import build_depgraph
from repro.analysis.liveness import liveness
from repro.frontend.lower import lower_kernel
from repro.harness import (
    ConvKernel,
    KernelRun,
    bind_inputs,
    collect_outputs,
    ilp_transform,
    run_compiled_kernel,
    schedule_kernel,
)
from repro.machine import MachineConfig
from repro.opt.driver import run_conv
from repro.pipeline import prologue_regions
from repro.regalloc import measure_register_usage
from repro.regalloc.interference import build_interference
from repro.schedule.listsched import list_schedule
from repro.sim import (
    EngineUnsupported,
    ReplayUnmapped,
    ReplayUnsupported,
    compiled_program,
    exec_plan,
    execute_plan,
    replay,
    replay_spec,
)

from metrics import PASSES


@dataclass
class Counts:
    """Exact counts and pass attribution of a traced repetition."""

    static_instrs: int = 0
    makespan_sum: int = 0
    regs_sum: int = 0
    unroll_factor_sum: int = 0
    dyn_instrs: int = 0
    model_cycles: int = 0
    replay_fallbacks: int = 0
    engine_unsupported: int = 0
    #: instructions timed by the compiled engine (executed once, replayed
    #: per further width) / by the interpreter
    compiled_instrs: int = 0
    interp_instrs: int = 0
    pass_seconds: dict = field(default_factory=dict)
    pass_rewrites: dict = field(default_factory=dict)

    def add_passes(self, rows) -> None:
        """Fold ``PipelineReport.stats`` rows (each counted once: callers
        pass only the rows a stage appended)."""
        for s in rows:
            self.pass_seconds[s.name] = (
                self.pass_seconds.get(s.name, 0.0) + s.seconds)
            self.pass_rewrites[s.name] = (
                self.pass_rewrites.get(s.name, 0) + s.rewrites)


def lower_conv_staged(tr, kernel, counts: Counts) -> ConvKernel:
    with tr.span("frontend.lower"):
        lk = lower_kernel(kernel)
    with tr.span("opt.conv"):
        report = run_conv(lk.func, lk.counted, lk.live_out_exit)
    counts.add_passes(report.stats)
    return ConvKernel(lk, report)


def compile_cell(tr, conv: ConvKernel, level, widths, counts: Counts,
                 probes: bool = False) -> list:
    """Stage 2 once, stage 3 per width, then register colouring per
    width: one (kernel, level) cell, as ``_run_task`` does it."""
    n_conv = len(conv.report.stats)
    with tr.span("harness.conv_clone"):
        clone = conv.clone()
    with tr.span("transforms.ilp"):
        tk = ilp_transform(clone, level, MachineConfig(issue_width=widths[0]))
    counts.add_passes(tk.report.stats[n_conv:])
    counts.unroll_factor_sum += tk.report.unroll_factor
    if probes:
        _probe(tr, tk, MachineConfig(issue_width=widths[-1]))
    n_ilp = len(tk.report.stats)
    cks = []
    for i, width in enumerate(widths):
        with tr.span("harness.tk_clone"):
            c = tk.clone() if i + 1 < len(widths) else tk
        with tr.span("schedule.schedule_kernel"):
            ck = schedule_kernel(c, MachineConfig(issue_width=width))
        counts.add_passes(ck.report.stats[n_ilp:])
        cks.append(ck)
    usages = []
    for ck in cks:
        with tr.span("regalloc.measure"):
            usages.append(
                measure_register_usage(ck.func, ck.lowered.live_out_exit))
        counts.static_instrs += sum(len(b.instrs) for b in ck.func.blocks)
        counts.makespan_sum += ck.inner_makespan
        counts.regs_sum += usages[-1].total
    return list(zip(cks, usages))


def _probe(tr, tk, machine) -> None:
    """Off-path: the dependence graph, the list-scheduling heap loop and
    the interference graph of the transformed superblock body alone —
    inside ``schedule_kernel`` / ``measure_register_usage`` they are not
    separable from outside."""
    lk, sb = tk.lowered, tk.sb
    body = sb.body.instrs
    lv = liveness(lk.func, lk.live_out_exit)
    exit_live = {
        i: lv.live_in.get(ins.target.name, set())
        for i, ins in enumerate(body)
        if ins.is_control and ins.target is not None
    }
    prologue = prologue_regions(lk.func, sb)
    doall = lk.inner_kind == "doall"
    with tr.span("analysis.depgraph", off_path=True):
        g = build_depgraph(body, machine, exit_live, prologue=prologue,
                           doall=doall)
    with tr.span("schedule.list_schedule", off_path=True):
        list_schedule(body, machine, exit_live, depgraph=g)
    with tr.span("regalloc.interference", off_path=True):
        build_interference(lk.func, lk.live_out_exit)


def simulate_cell(tr, cks: list, arrays, scalars, counts: Counts,
                  max_cycles: int = 200_000_000) -> list[KernelRun]:
    """Execute the cell once, replay the trace per width — the stages of
    ``BatchedRunner`` with a span around each, falling back to a full
    simulation exactly where ``BatchedRunner`` and ``_run_task`` do."""
    runs = _simulate_cell(tr, cks, arrays, scalars, counts, max_cycles)
    counts.dyn_instrs += sum(r.instructions for r in runs)
    counts.model_cycles += sum(r.cycles for r in runs)
    return runs


def _simulate_cell(tr, cks, arrays, scalars, counts, max_cycles):
    first = cks[0]
    with tr.span("harness.bind_inputs"):
        mem, iregs, fregs = bind_inputs(first.lowered, arrays, scalars)
    with tr.span("sim.compiled_program"):
        prog = compiled_program(first.func, first.machine, mem.symbols)
    try:
        with tr.span("sim.blockgen.exec_plan"):
            plan = exec_plan(prog)
        with tr.span("sim.replay_spec"):
            spec = replay_spec(plan, prog)
    except (EngineUnsupported, ReplayUnsupported):
        counts.engine_unsupported += 1
        return [_interp(tr, ck, arrays, scalars, counts, max_cycles)
                for ck in cks]
    with tr.span("sim.blockgen.execute"):
        segs, ivals, fvals = execute_plan(plan, mem, iregs, fregs, max_cycles)
    with tr.span("sim.replay"):
        cycles, n_instr = replay(segs, spec, max_cycles)
    with tr.span("harness.collect_outputs"):
        out_arrays, out_scalars = collect_outputs(
            first.lowered, mem,
            {i: v for i, v in enumerate(ivals) if v is not None},
            {i: v for i, v in enumerate(fvals) if v is not None},
            scalars or {})
    counts.compiled_instrs += n_instr
    runs = [KernelRun(cycles, n_instr, out_arrays, out_scalars)]
    for ck in cks[1:]:
        with tr.span("sim.compiled_program"):
            p = compiled_program(ck.func, ck.machine, mem.symbols)
        try:
            with tr.span("sim.replay_spec"):
                s = replay_spec(plan, p)
        except (ReplayUnmapped, ReplayUnsupported):
            counts.replay_fallbacks += 1
            runs.append(_interp(tr, ck, arrays, scalars, counts, max_cycles))
            continue
        with tr.span("sim.replay"):
            c, n = replay(segs, s, max_cycles)
        counts.compiled_instrs += n
        runs.append(KernelRun(c, n, out_arrays, out_scalars))
    return runs


def _interp(tr, ck, arrays, scalars, counts: Counts,
            max_cycles: int) -> KernelRun:
    with tr.span("sim.interp"):
        run = run_compiled_kernel(ck, arrays, scalars, max_cycles)
    counts.interp_instrs += run.instructions
    return run


def layer_metrics(tr, counts: Counts) -> dict:
    """Compile- and simulation-path layer metrics from a traced
    repetition's spans and counts (names as in ``metrics.PER_LAYER``)."""
    secs, _, _ = tr.self_seconds()
    out = {f"{name}_s": s for name, s in secs.items()}
    for p in PASSES:
        out[f"passes.{p}_s"] = counts.pass_seconds.get(p, 0.0)
        out[f"passes.{p}_rewrites"] = counts.pass_rewrites.get(p, 0)
    setup = sum(secs.get(n, 0.0) for n in (
        "sim.compiled_program", "sim.blockgen.exec_plan", "sim.replay_spec"))
    run = sum(secs.get(n, 0.0) for n in ("sim.blockgen.execute", "sim.replay"))
    interp = secs.get("sim.interp", 0.0)
    sim_total = setup + run + interp
    out.update({
        "sim.setup_share": setup / sim_total if sim_total else 0.0,
        "sim.compiled_instr_per_s":
            counts.compiled_instrs / run if run else 0.0,
        "sim.interp_instr_per_s":
            counts.interp_instrs / interp if interp else 0.0,
        "ir.static_instrs": counts.static_instrs,
        "schedule.makespan_sum": counts.makespan_sum,
        "regalloc.regs_sum": counts.regs_sum,
        "transforms.unroll_factor_sum": counts.unroll_factor_sum,
        "sim.dyn_instrs": counts.dyn_instrs,
        "sim.model_cycles": counts.model_cycles,
        "sim.replay_fallbacks": counts.replay_fallbacks,
        "sim.engine_unsupported": counts.engine_unsupported,
    })
    return out

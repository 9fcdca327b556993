"""Provably optimal acyclic block scheduling.

Wraps the solver core around one linear region: build the dependence DAG
exactly as list scheduling does, seed the solver's incumbent with the
heuristic schedule, and search below it.  Three outcomes:

* ``optimal`` — the search closed: either the heuristic already sat on a
  provable lower bound (no search needed), or every shorter length was
  proven infeasible, or a strictly shorter schedule was found (and that
  length proven minimal);
* ``timeout-incumbent`` — the deterministic node budget ran out; the
  incumbent (heuristic or best-found) is returned with
  ``optimal=False``.  The tie-break in
  :class:`~repro.optsched.solver.Incumbent` makes this path bit-stable
  across runs;
* ``too-large`` — the region exceeds the exact-search size cap.

Emission order is the part that makes the result a drop-in
:class:`~repro.schedule.listsched.Schedule`: within a cycle,
instructions are emitted in original program order with the control
instruction last.  Every 0-weight edge of the DAG points forward in
original order (``depgraph.add_edge`` asserts it) and a branch never has
a 0-weight edge to a later instruction, so this order satisfies every
same-cycle ordering constraint and reproduces the simulator's
branch-terminates-packet semantics.  Because the emitted order admits
the solver's issue times as a legal packing, the simulator's greedy
in-order issue can only do better: dynamic cycles <= solver makespan.

When the solver does not strictly beat the heuristic, the heuristic
:class:`Schedule` object is returned *unchanged* — byte-identical
instruction order — so an exact schedule differs from the list schedule
only where there is real headroom.  :func:`schedule_exactly` applies it
to every block of a transformed kernel.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from ..analysis.depgraph import DepGraph, build_depgraph
from ..harness import CompiledKernel, TransformedKernel
from ..ir.instructions import Instr
from ..ir.operands import Reg
from ..ir.verify import verify_pipeline
from ..machine import MachineConfig
from ..regalloc import measure_register_usage
from ..schedule.listsched import Schedule, list_schedule
from ..service.keys import content_key
from .solver import (
    DEFAULT_BUDGET,
    SchedProblem,
    SolveOutcome,
    minimize_makespan,
    verify_assignment,
)

#: bump when solver behavior changes (search order, propagation, bounds)
SOLVER_VERSION = 1


def problem_key(problem: SchedProblem, budget: int, mode: str = "min",
                extra: dict | None = None) -> str:
    """Store key of one solver computation: the canonical instance plus
    the deterministic node budget *is* the computation (there is no
    other solver, so nothing outside the key can change the answer).
    Blocks with the same dependence structure under the same machine
    share one entry fleet-wide; a result under a small budget never
    answers a large-budget query; ``extra`` carries what else a search
    mode's answer depends on."""
    fields = {"solver": SOLVER_VERSION, "mode": mode, "budget": int(budget),
              "problem": problem.canonical()}
    if extra:
        fields["extra"] = extra
    return content_key(**fields)


@dataclass
class OptResult:
    """One region's exact-scheduling outcome (schedule + proof record)."""

    schedule: Schedule
    #: "optimal" | "timeout-incumbent" | "too-large"
    status: str
    optimal: bool
    proved_lb: int
    heuristic_makespan: int
    optimal_makespan: int
    nodes: int
    seconds: float
    cached: bool = False

    @property
    def improved(self) -> bool:
        return self.optimal_makespan < self.heuristic_makespan

    def as_payload(self) -> dict:
        """JSON record for reports and the solver cache (no schedule)."""
        return {
            "status": self.status,
            "optimal": self.optimal,
            "proved_lb": self.proved_lb,
            "heuristic_makespan": self.heuristic_makespan,
            "optimal_makespan": self.optimal_makespan,
            "nodes": self.nodes,
            "seconds": self.seconds,
            "cached": self.cached,
        }


def problem_from_depgraph(
    g: DepGraph,
    machine: MachineConfig,
    period: int | None = None,
    extra_edges: tuple[tuple[int, int, int], ...] = (),
) -> SchedProblem:
    """Translate a dependence DAG (plus optional cross-iteration edges)
    into a solver instance under ``machine``'s resource model."""
    n = g.n()
    limited = {k.name for k, _ in machine.slot_limits.items()}
    edges = tuple(
        (i, j, w) for i in range(n) for j, w in g.succs[i]
    ) + tuple(extra_edges)
    return SchedProblem(
        latency=tuple(g.latency),
        is_branch=tuple(ins.is_control for ins in g.instrs),
        kind=tuple(
            ins.kind.name if ins.kind.name in limited else ""
            for ins in g.instrs
        ),
        edges=edges,
        width=machine.issue_width,
        branch_slots=machine.branch_slots,
        slot_limits=tuple(sorted(
            (k.name, v) for k, v in machine.slot_limits.items()
        )),
        period=period,
    )


def emit_order(
    instrs: list[Instr],
    assignment,
    machine: MachineConfig,
) -> Schedule:
    """Materialize a cycle assignment as a :class:`Schedule`.

    Sort key (cycle, is-control, original index): program order within a
    cycle preserves every 0-weight (same-cycle) dependence, and the
    control instruction closes its packet.
    """
    keyed = sorted(
        range(len(instrs)),
        key=lambda i: (assignment[i], instrs[i].is_control, i),
    )
    return Schedule(
        [instrs[i] for i in keyed],
        [assignment[i] for i in keyed],
        machine,
    )


def optimal_block_schedule(
    instrs: list[Instr],
    machine: MachineConfig,
    exit_live: dict[int, set[Reg]] | None = None,
    depgraph: DepGraph | None = None,
    prologue: list[Instr] | None = None,
    doall: bool = False,
    budget: int = DEFAULT_BUDGET,
    store=None,
) -> OptResult:
    """Exactly schedule one region, heuristic fallback under timeout.

    Same signature surface as
    :func:`~repro.schedule.listsched.list_schedule` plus the solver
    budget and an optional :class:`~repro.service.store.ArtifactStore`
    holding solver results fleet-wide under :func:`problem_key`.
    """
    t0 = time.perf_counter()
    n = len(instrs)
    g = depgraph or build_depgraph(
        instrs, machine, exit_live, prologue=prologue, doall=doall
    )
    heuristic = list_schedule(instrs, machine, exit_live, depgraph=g)
    if n <= 1:
        # nothing to order: the heuristic is trivially optimal
        return OptResult(heuristic, "optimal", True, heuristic.makespan,
                         heuristic.makespan, heuristic.makespan, 0,
                         time.perf_counter() - t0)

    problem = problem_from_depgraph(g, machine)
    pos = {id(ins): k for k, ins in enumerate(instrs)}
    ub_assignment = [0] * n
    for ins, t in zip(heuristic.order, heuristic.issue):
        ub_assignment[pos[id(ins)]] = t
    ub_cost = heuristic.makespan

    outcome = None
    if store is not None:
        # the heuristic bound is part of the key: the incumbent under
        # timeout *is* the heuristic seed, so another seed is another search
        key = problem_key(problem, budget, "min", {"ub": int(ub_cost)})
        payload = store.get(key)
        if payload is not None:
            if payload["assignment"] is not None:
                payload["assignment"] = tuple(payload["assignment"])
            outcome = SolveOutcome(**payload)
    cached = outcome is not None
    if not cached:
        outcome = minimize_makespan(
            problem, ub_cost, tuple(ub_assignment), budget=budget
        )
        if store is not None:
            store.put(key, asdict(outcome))

    if outcome.assignment is not None and outcome.cost < ub_cost:
        verify_assignment(problem, outcome.assignment)
        schedule = emit_order(instrs, outcome.assignment, machine)
        assert schedule.makespan == outcome.cost
    else:
        # not improved (or timed out): keep the heuristic order verbatim
        schedule = heuristic
    return OptResult(
        schedule, outcome.status, outcome.optimal, outcome.proved_lb,
        ub_cost, schedule.makespan, outcome.nodes,
        time.perf_counter() - t0, cached=cached,
    )


def schedule_exactly(
    tk: TransformedKernel,
    machine: MachineConfig,
    *,
    budget: int = DEFAULT_BUDGET,
    store=None,
    check: bool = False,
) -> tuple[CompiledKernel, dict[str, dict]]:
    """Exactly schedule a clone of the transformed kernel ``tk``.

    The exact counterpart of :func:`repro.harness.schedule_kernel`: every
    non-empty block goes through :func:`optimal_block_schedule` over the
    very dependence DAGs list scheduling uses
    (``tk.schedule_inputs``), so the two schedules differ only where the
    solver proves a shorter one.  ``tk`` itself stays unscheduled.
    ``check=True`` runs the IR verifier on the scheduled function and
    colours its registers with verification.  Returns the compiled kernel
    and the per-block proof records (block label ->
    :meth:`OptResult.as_payload`).
    """
    tk = tk.clone()
    lk = tk.lowered
    graphs = tk.schedule_inputs.graphs_for(
        lk.func, machine, lk.live_out_exit, tk.sb, lk.inner_kind == "doall"
    )
    schedules, proofs = {}, {}
    for blk, g in zip([b for b in lk.func.blocks if b.instrs], graphs):
        res = optimal_block_schedule(blk.instrs, machine, depgraph=g,
                                     budget=budget, store=store)
        blk.instrs = res.schedule.order
        schedules[blk.label] = res.schedule
        proofs[blk.label] = res.as_payload()
    usage = None
    if check:
        verify_pipeline(lk.func, set(lk.func.pinned_regs),
                        stage="exact scheduling")
        usage = measure_register_usage(lk.func, lk.live_out_exit, check=True)
    ck = CompiledKernel(lk, tk.level, machine, tk.sb, schedules, tk.report,
                        usage)
    return ck, proofs

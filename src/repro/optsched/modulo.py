"""Exact modulo scheduling: the smallest initiation interval, by search.

:mod:`repro.schedule.pipelining` computes the classical *bounds*
``MII = max(ResMII, RecMII)``; this module finds the smallest II an
actual modulo schedule achieves, by incremental search upward from MII
(the ISSUE's "Optimal Software Pipelining using an SMT-Solver" shape,
on the pure-Python solver):

* the constraint graph at candidate II is the body's dependence DAG plus
  the cross-iteration register and memory edges of
  :mod:`repro.schedule.pipelining`, each edge weighted
  ``latency - II * distance``;
* resources are counted in modulo-II buckets (every steady-state kernel
  cycle executes one bucket's worth of overlapped iterations);
* variables get ASAP-anchored windows of two stages
  (``[asap_i, asap_i + 2*II - 1]``) — enough slack for the corpus — so a
  success at II is an exact achievability witness, while a failure only
  rules the window out.  The proof status is therefore honest:
  ``optimal`` exactly when the achieved II equals the MII lower bound.

The acyclic schedule is always a valid fallback: its issue times form a
modulo schedule at ``II = makespan`` (distinct cycles occupy distinct
buckets, and every cross-iteration edge is slack at that II), so the
search is anytime — budget exhaustion returns that incumbent with
``status="timeout-incumbent"``.

The kernel/prologue/epilogue view (:meth:`ModuloSchedule.kernel_rows`,
:meth:`ModuloSchedule.stage_of`) is derived from the assignment in the
same ``(iteration-stage, modulo slot)`` terms the software-pipelining
literature uses, compatible with the
:class:`~repro.schedule.pipelining.PipelineBounds` representation the
benchmarks already report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..analysis.depgraph import build_depgraph
from ..ir.instructions import Instr
from ..machine import MachineConfig
from ..schedule.listsched import list_schedule
from ..schedule.pipelining import (
    PipelineBounds,
    _cross_memory_edges,
    _cross_register_edges,
    compute_bounds,
)
from .blocksched import problem_from_depgraph, problem_key
from .solver import BudgetExhausted, _Budget, solve_decision, verify_assignment

#: default deterministic node budget for one loop's II search
DEFAULT_MODULO_BUDGET = 100_000


@dataclass
class ModuloSchedule:
    """An achieved modulo schedule for one loop body."""

    ii: int
    #: issue time of each body instruction (flat, before modulo folding)
    times: tuple[int, ...]
    bounds: PipelineBounds
    #: "optimal" (ii == MII, proved) | "upper-bound" (achieved, not
    #: proved minimal) | "timeout-incumbent" (acyclic fallback)
    status: str
    optimal: bool
    nodes: int
    seconds: float
    cached: bool = False
    #: acyclic makespan of the body (the fallback II / search upper bound)
    acyclic_makespan: int = 0

    @property
    def stages(self) -> int:
        """Kernel depth: overlapped iterations in steady state."""
        if not self.times:
            return 1
        return max(t // self.ii for t in self.times) + 1

    def stage_of(self, i: int) -> int:
        return self.times[i] // self.ii

    @property
    def ii_per_iteration(self) -> float:
        return self.ii / self.bounds.iterations

    def kernel_rows(self) -> list[list[tuple[int, int]]]:
        """The steady-state kernel: for each of the II cycles, the
        ``(body index, stage)`` pairs issuing there.  Stage ``s`` means
        the instruction belongs to the iteration started ``s`` kernel
        passes earlier; the prologue fills stages ``1..stages-1`` in,
        and the epilogue drains them."""
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.ii)]
        for i, t in enumerate(self.times):
            rows[t % self.ii].append((i, t // self.ii))
        for row in rows:
            row.sort(key=lambda p: (p[1], p[0]))
        return rows

    @property
    def prologue_cycles(self) -> int:
        """Fill cycles before the kernel reaches steady state."""
        return (self.stages - 1) * self.ii

    @property
    def epilogue_cycles(self) -> int:
        """Drain cycles after the last kernel pass."""
        return (self.stages - 1) * self.ii

    def as_payload(self) -> dict:
        return {
            "ii": self.ii,
            "times": list(self.times),
            "status": self.status,
            "optimal": self.optimal,
            "nodes": self.nodes,
            "seconds": self.seconds,
            "cached": self.cached,
            "acyclic_makespan": self.acyclic_makespan,
        }


@dataclass
class _Instance:
    """The II-independent half of a modulo instance."""

    body: list[Instr]
    machine: MachineConfig
    bounds: PipelineBounds
    depgraph: object
    #: (src, dst, latency, distance >= 1) cross-iteration edges
    cross: list[tuple[int, int, int, int]] = field(default_factory=list)


def _build_instance(
    body: list[Instr],
    machine: MachineConfig,
    iterations: int,
    prologue: list[Instr] | None,
    doall: bool,
) -> _Instance:
    bounds = compute_bounds(body, machine, iterations=iterations,
                            prologue=prologue, doall=doall)
    g = build_depgraph(body, machine, prologue=prologue, doall=doall)
    cross = [
        (e.src, e.dst, e.latency, e.distance)
        for e in _cross_register_edges(body, machine)
    ]
    if not doall:
        cross.extend(
            (e.src, e.dst, e.latency, e.distance)
            for e in _cross_memory_edges(body, machine, prologue)
        )
    return _Instance(body, machine, bounds, g, cross)


def _problem_at_ii(inst: _Instance, ii: int):
    """Solver instance for candidate II: modulo buckets, folded edges."""
    extra = tuple(
        (src, dst, lat - ii * dist)
        for src, dst, lat, dist in inst.cross
        if src != dst  # self-recurrences constrain II, not the windows
    )
    return problem_from_depgraph(
        inst.depgraph, inst.machine, period=ii, extra_edges=extra
    )


def _feasible_at_ii(inst: _Instance, ii: int, budget: _Budget):
    """An assignment achieving II within two-stage ASAP windows, or None."""
    problem = _problem_at_ii(inst, ii)
    n = problem.n
    from .solver import asap_times

    lo = asap_times(problem)
    hi = [lo_i + 2 * ii - 1 for lo_i in lo]
    sol = solve_decision(problem, lo, hi, budget)
    if sol is not None:
        verify_assignment(problem, sol)
        # self-recurrences fold to t_i - t_i >= lat - ii*dist: pure II test
        for src, dst, lat, dist in inst.cross:
            if src == dst:
                assert lat - ii * dist <= 0, (src, ii)
    return sol


def modulo_schedule(
    body: list[Instr],
    machine: MachineConfig,
    iterations: int = 1,
    prologue: list[Instr] | None = None,
    doall: bool = False,
    budget: int = DEFAULT_MODULO_BUDGET,
    store=None,
) -> ModuloSchedule:
    """Exact-search modulo schedule of one superblock body.

    Mirrors :func:`repro.schedule.pipelining.compute_bounds`'s signature;
    ``store`` caches the whole search result keyed by (body dependence
    structure, machine, budget) so each (loop, machine, II) instance is
    solved once fleet-wide.
    """
    t0 = time.perf_counter()
    inst = _build_instance(body, machine, iterations, prologue, doall)
    acyclic = list_schedule(body, machine, depgraph=inst.depgraph)
    ub = max(acyclic.makespan, 1)
    mii = inst.bounds.mii

    result = None
    if store is not None:
        # keyed by the II-independent instance (intra-iteration problem +
        # cross-iteration edges) plus the search's bounds and budget
        key = problem_key(
            _problem_at_ii(inst, max(mii, 1)), budget, "modulo", {
                "cross": sorted(list(c) for c in inst.cross),
                "ub": int(ub),
                "mii": int(mii),
            })
        result = store.get(key)
    cached = result is not None
    if not cached:
        result = search_ii(inst, ub, mii, budget)
        if store is not None:
            store.put(key, result)
    return ModuloSchedule(
        result["ii"], tuple(result["times"]), inst.bounds,
        result["status"], result["optimal"], result["nodes"],
        time.perf_counter() - t0, cached=cached, acyclic_makespan=ub,
    )


def search_ii(inst: _Instance, ub: int, mii: int, budget: int) -> dict:
    """Incremental II search from MII up to the acyclic fallback.

    The budget is sliced per candidate II (an eighth of the total each)
    so one hard infeasibility proof near MII cannot consume the whole
    search: an exhausted probe moves *up* one II instead of aborting,
    which degrades the answer from "optimal" to "upper-bound" rather
    than all the way to the acyclic fallback.  Only when every remaining
    candidate is exhausted does the search fall back
    (``timeout-incumbent``).  Returns a JSON-stable payload (what
    :func:`modulo_schedule` stores verbatim): achieved ii, flat issue
    times, proof status, and the deterministic node count spent.
    """
    acyclic = list_schedule(inst.body, inst.machine, depgraph=inst.depgraph)
    pos = {id(ins): k for k, ins in enumerate(inst.body)}
    fallback = [0] * len(inst.body)
    for ins, t in zip(acyclic.order, acyclic.issue):
        fallback[pos[id(ins)]] = t

    slice_limit = max(budget // 8, 1)
    used = 0
    truncated = False
    for ii in range(mii, ub):
        if used >= budget:
            truncated = True
            break
        probe = _Budget(min(slice_limit, budget - used))
        try:
            sol = _feasible_at_ii(inst, ii, probe)
        except BudgetExhausted:
            used += probe.used
            truncated = True
            continue  # not proven infeasible: the next II may still close
        used += probe.used
        if sol is not None:
            # ii == mii is a proof regardless of earlier truncation (MII
            # is a true lower bound); otherwise minimality is unproven
            return {
                "ii": ii, "times": list(sol),
                "status": "optimal" if ii == mii else "upper-bound",
                "optimal": ii == mii,
                "nodes": used,
            }
    # the acyclic schedule itself: already a modulo schedule at II = ub
    if ub == mii:
        status, optimal = "optimal", True
    elif truncated:
        status, optimal = "timeout-incumbent", False
    else:
        status, optimal = "upper-bound", False
    return {
        "ii": ub, "times": fallback,
        "status": status, "optimal": optimal,
        "nodes": used,
    }

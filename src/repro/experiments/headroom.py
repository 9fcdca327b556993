"""Heuristic-vs-optimal scheduling headroom over the corpus.

``python -m repro headroom`` answers the question the exact solver
exists for: *how much schedule length does greedy list scheduling leave
on the table?*  Every loop nest is transformed once, then list-scheduled
(:func:`~repro.harness.schedule_kernel`) and exactly scheduled
(:func:`~repro.optsched.schedule_exactly`) from the same code and
dependence DAGs, and three measurements line up per loop:

* **block headroom** — the heuristic inner-loop makespan vs. the exact
  solver's, with the per-block proof status (``optimal`` means every
  block's length was proven minimal; ``timeout-incumbent`` means the
  solver's deterministic node budget ran out and the incumbent —
  never worse than the heuristic — stands);
* **pipelining headroom** — the classical bound ``MII = max(ResMII,
  RecMII)`` vs. the exact modulo scheduler's achieved II vs. the acyclic
  makespan, i.e. what software pipelining would add on top of the best
  acyclic schedule;
* **simulated cycles** under both schedules, with the end states
  compared bit-for-bit — a differential check that the solver's
  reorderings are semantics-preserving on real data.

With ``--store DIR`` every solver result is an entry of that artifact
store (see :func:`repro.optsched.problem_key`); a second run against
the same store resolves every (loop, machine, II) instance from it, which
``benchmarks/bench_optsched_headroom.py`` uses to measure the warm-store
speedup.  The canonical run (all 40 loops, default level, width and
budgets) writes ``results/headroom.txt``; any other run only prints.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ..harness import (
    ilp_transform,
    lower_conv,
    run_compiled_kernel,
    schedule_kernel,
)
from ..machine import MachineConfig
from ..optsched import (
    DEFAULT_BUDGET,
    DEFAULT_MODULO_BUDGET,
    modulo_schedule,
    schedule_exactly,
)
from ..pipeline import Level
from ..workloads import Workload, all_workloads, get_workload


@dataclass
class LoopHeadroom:
    """One loop's heuristic-vs-optimal measurements."""

    name: str
    n_instrs: int                 #: superblock body size
    heuristic_makespan: int       #: inner-loop schedule length, list scheduler
    optimal_makespan: int         #: inner-loop schedule length, exact solver
    status: str                   #: worst per-block proof status of the loop
    proved_lb: int                #: proven lower bound on the body's length
    solver_nodes: int             #: search nodes spent across blocks
    solver_seconds: float         #: solver wall time across blocks
    cached_blocks: int            #: blocks answered from the solver store
    total_blocks: int
    mii: int                      #: classical modulo-scheduling lower bound
    exact_ii: int                 #: II the exact modulo scheduler achieved
    modulo_status: str
    modulo_seconds: float
    modulo_cached: bool
    cycles_list: int              #: simulated cycles, list schedule
    cycles_optimal: int           #: simulated cycles, exact schedule
    states_match: bool            #: bit-identical end states of the two

    @property
    def block_headroom(self) -> int:
        return self.heuristic_makespan - self.optimal_makespan

    def as_payload(self) -> dict:
        return {k: getattr(self, k) for k in (
            "name", "n_instrs", "heuristic_makespan", "optimal_makespan",
            "status", "proved_lb", "solver_nodes", "solver_seconds",
            "cached_blocks", "total_blocks", "mii", "exact_ii",
            "modulo_status", "modulo_seconds", "modulo_cached",
            "cycles_list", "cycles_optimal", "states_match",
        )}


@dataclass
class HeadroomData:
    level: Level
    width: int
    budget: int
    modulo_budget: int
    rows: list[LoopHeadroom] = field(default_factory=list)
    elapsed: float = 0.0

    def status_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.rows:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def modulo_status_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.rows:
            out[r.modulo_status] = out.get(r.modulo_status, 0) + 1
        return out


def _loop_status(proofs: dict) -> tuple[str, int, int, float, int]:
    """Aggregate per-block proof records into one loop-level verdict.

    The loop is ``optimal`` only if *every* scheduled block's length was
    proven minimal; one budget-exhausted or oversized block degrades the
    whole loop honestly.
    """
    rank = {"optimal": 0, "timeout-incumbent": 1, "too-large": 2}
    worst = "optimal"
    nodes = 0
    seconds = 0.0
    cached = 0
    for p in proofs.values():
        if rank[p["status"]] > rank[worst]:
            worst = p["status"]
        nodes += p["nodes"]
        seconds += p["seconds"]
        cached += 1 if p["cached"] else 0
    return worst, nodes, cached, seconds, len(proofs)


def _states_match(a, b) -> bool:
    """Bit-identical end states (arrays and scalars) of two schedules.

    Both schedule the *same* transformed code, so no fp
    reassociation separates them — unlike the cross-level oracle, this
    comparison is always exact.
    """
    if set(a.arrays) != set(b.arrays) or set(a.scalars) != set(b.scalars):
        return False
    for k in a.arrays:
        if not np.array_equal(a.arrays[k], b.arrays[k]):
            return False
    return all(a.scalars[k] == b.scalars[k] for k in a.scalars)


def measure_loop(
    w: Workload,
    level: Level,
    machine: MachineConfig,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    modulo_budget: int = DEFAULT_MODULO_BUDGET,
    store=None,
) -> LoopHeadroom:
    """Schedule one loop both ways and line the results up."""
    tk = ilp_transform(lower_conv(w.build()), level, machine)
    ck_opt, proofs = schedule_exactly(tk, machine, budget=budget, store=store)
    ck_list = schedule_kernel(tk, machine)

    status, nodes, cached, seconds, blocks = _loop_status(proofs)
    body = ck_opt.sb.body
    proved_lb = proofs[body.label]["proved_lb"]

    ms = modulo_schedule(
        body.instrs, machine,
        iterations=ck_opt.report.unroll_factor,
        prologue=ck_opt.sb.preheader.instrs,
        doall=w.loop_type == "doall",
        budget=modulo_budget, store=store,
    )

    arrays, scalars = w.make_inputs(seed)
    run_list = run_compiled_kernel(ck_list, arrays=arrays, scalars=scalars)
    run_opt = run_compiled_kernel(ck_opt, arrays=arrays, scalars=scalars)

    return LoopHeadroom(
        name=w.name,
        n_instrs=len(body.instrs),
        heuristic_makespan=ck_list.inner_makespan,
        optimal_makespan=ck_opt.inner_makespan,
        status=status,
        proved_lb=proved_lb,
        solver_nodes=nodes,
        solver_seconds=seconds,
        cached_blocks=cached,
        total_blocks=blocks,
        mii=ms.bounds.mii,
        exact_ii=ms.ii,
        modulo_status=ms.status,
        modulo_seconds=ms.seconds,
        modulo_cached=ms.cached,
        cycles_list=run_list.cycles,
        cycles_optimal=run_opt.cycles,
        states_match=_states_match(run_list, run_opt),
    )


def run_headroom(
    workloads: list[Workload] | None = None,
    level: Level = Level.LEV4,
    width: int = 8,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    modulo_budget: int = DEFAULT_MODULO_BUDGET,
    store=None,
    verbose: bool = False,
) -> HeadroomData:
    """The full heuristic-vs-optimal report (default: all 40 loops)."""
    workloads = workloads or all_workloads()
    machine = MachineConfig(issue_width=width)
    data = HeadroomData(level, width, budget, modulo_budget)
    t0 = time.time()
    for w in workloads:
        row = measure_loop(w, level, machine, seed=seed, budget=budget,
                           modulo_budget=modulo_budget, store=store)
        data.rows.append(row)
        if verbose:
            print(f"  {row.name:<14}heur={row.heuristic_makespan:>4} "
                  f"opt={row.optimal_makespan:>4} [{row.status}] "
                  f"mii={row.mii:>4} ii={row.exact_ii:>4} "
                  f"[{row.modulo_status}]")
    data.elapsed = time.time() - t0
    return data


def format_report(data: HeadroomData) -> str:
    """The ``results/headroom.txt`` table."""
    rows = [
        f"Scheduling headroom: heuristic vs. exact "
        f"({data.level.label}, issue-{data.width}, "
        f"budget {data.budget}/{data.modulo_budget} nodes)",
        "=" * 78,
        f"{'loop':<13}{'n':>5}{'heur':>6}{'opt':>5}{'lb':>5}  "
        f"{'proof':<18}{'MII':>4}{'II':>5}{'acyc':>5}  {'pipelining':<18}",
        "-" * 78,
    ]
    for r in data.rows:
        rows.append(
            f"{r.name:<13}{r.n_instrs:>5}{r.heuristic_makespan:>6}"
            f"{r.optimal_makespan:>5}{r.proved_lb:>5}  {r.status:<18}"
            f"{r.mii:>4}{r.exact_ii:>5}{r.optimal_makespan:>5}  "
            f"{r.modulo_status:<18}"
        )
    counts = data.status_counts()
    mcounts = data.modulo_status_counts()
    improved = sum(1 for r in data.rows if r.block_headroom > 0)
    proved = counts.get("optimal", 0)
    pipelined = sum(1 for r in data.rows if r.exact_ii < r.optimal_makespan)
    rows += [
        "-" * 78,
        f"block scheduling: {proved}/{len(data.rows)} loops proven optimal, "
        f"{improved} improved over the heuristic "
        f"(statuses: {counts})",
        f"modulo scheduling: "
        f"{mcounts.get('optimal', 0)} proven MII-optimal, "
        f"{pipelined} loops where pipelining beats the best acyclic "
        f"schedule (statuses: {mcounts})",
        f"elapsed {data.elapsed:.1f}s",
    ]
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro headroom",
        description="heuristic-vs-optimal scheduling headroom report",
    )
    ap.add_argument("--workloads", metavar="A,B,...",
                    help="comma-separated subset (default: all 40)")
    ap.add_argument("--level", type=int, default=4,
                    choices=[int(l) for l in Level])
    ap.add_argument("--width", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="solver node budget per block "
                         f"(default: {DEFAULT_BUDGET})")
    ap.add_argument("--modulo-budget", type=int,
                    default=DEFAULT_MODULO_BUDGET,
                    help="node budget per II search "
                         f"(default: {DEFAULT_MODULO_BUDGET})")
    ap.add_argument("--store", metavar="DIR",
                    help="content-addressed solver-result store "
                         "(second run against it is near-free)")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    store = None
    if args.store:
        from pathlib import Path

        from ..service.store import ArtifactStore

        store = ArtifactStore(Path(args.store))
    wls = ([get_workload(n) for n in args.workloads.split(",")]
           if args.workloads else None)

    data = run_headroom(wls, Level(args.level), args.width, seed=args.seed,
                        budget=args.budget, modulo_budget=args.modulo_budget,
                        store=store, verbose=args.verbose)
    text = format_report(data)
    print(text)

    if wls is None and all(
            getattr(args, a) == ap.get_default(a)
            for a in ("level", "width", "budget", "modulo_budget")):
        # only the canonical run writes the artifact: a subset or another
        # configuration would overwrite the 40-loop table with itself
        from .sweep import default_cache_path

        outdir = default_cache_path().parent
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "headroom.txt").write_text(text + "\n")

    bad = [r.name for r in data.rows
           if r.optimal_makespan > r.heuristic_makespan]
    mismatched = [r.name for r in data.rows if not r.states_match]
    if bad:
        print(f"FAIL: exact schedule worse than heuristic: {bad}",
              file=sys.stderr)
    if mismatched:
        print(f"FAIL: end-state divergence between schedules: {mismatched}",
              file=sys.stderr)
    return 1 if bad or mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())

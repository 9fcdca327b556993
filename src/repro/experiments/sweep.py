"""The evaluation grid: 40 loop nests x all levels x issue rates 1/2/4/8.

The level axis derives from :class:`repro.pipeline.Level` — the paper's
five (Conv..Lev4) plus Lev5 (SLP vectorization).

Replicates the paper's methodology (Section 3.1): each configuration is
compiled through the full pipeline and measured with execution-driven
simulation; speedups are relative to the issue-1 processor with
conventional (Conv) optimization; register usage is the colored
int+fp total of the compiled loop nest.

This module is a driver: every cell is evaluated by
:func:`repro.harness.evaluate_cell` and every resumable byte lives in
the artifact store.

* **Width sharding.**  The unit of work is a *task* — one (workload,
  level) cell covering every requested issue width, so the cell
  evaluator transforms once, schedules a clone per width, executes once
  and replays the trace per width.
* **Process parallelism.**  ``jobs > 1`` fans tasks out over the
  supervised ``fork`` pool.  Results are merged deterministically
  (sorted by grid key), so serial and parallel sweeps are bit-identical.
* **Persistence = resumability.**  With ``store=`` (CLI ``--store
  DIR``), every finished configuration is written to the
  content-addressed artifact store (:mod:`repro.service.store`) under
  its ``"result"`` key (``CellRequest.key``, :mod:`repro.service.keys`)
  as soon as it arrives, and a later sweep pointed at the same store — after an
  interruption, in another process, on another machine — reloads those
  and computes only the rest.  A sweep without a store simply restarts.
  (``"result"`` blobs are the sweep's own; the service's ``"compile"``
  and ``"run"`` payloads are distinct key kinds and are not shared.)

``results/sweep.json`` is the figure export of a full grid
(:func:`save_sweep` / :func:`load_sweep`), so the figure benchmarks can
re-render without recomputation (delete it or pass ``force=True`` to
refresh).
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..harness import WidthResult, evaluate_cell
from ..machine import MachineConfig
from ..passes import PassOptions
from ..pipeline import Level
from ..resilience.errors import clean_orphan_tmps
from ..resilience.supervisor import (
    CellQuarantined,
    SupervisedPool,
    TaskFailed,
)
from ..service.keys import SweepRequest
from ..workloads import Workload, all_workloads, get_workload


class SweepError(RuntimeError):
    """One or more grid cells failed permanently (details in ``args``)."""

WIDTHS = (1, 2, 4, 8)
#: ``sweep.json`` schema version (files from before the per-pass
#: ``t_passes`` timing map was added still load: the field defaults)
CACHE_VERSION = 4


@dataclass
class ConfigResult:
    workload: str
    level: int                # Level value
    width: int
    cycles: int
    instructions: int
    inner_makespan: int
    int_regs: int
    fp_regs: int
    checked: bool
    #: wall-clock phase costs.  Compilation work shared across the widths
    #: of a task (classical + ILP transformation) is attributed to the
    #: width that actually paid it (the task's first width), not smeared.
    t_compile: float = 0.0
    t_schedule: float = 0.0
    t_simulate: float = 0.0
    #: per-pass wall-clock seconds from the unified pipeline report, under
    #: the same attribution rule as ``t_compile``: shared transform passes
    #: are charged to the task's first width, scheduling to every width.
    t_passes: dict[str, float] = field(default_factory=dict)

    @property
    def total_regs(self) -> int:
        return self.int_regs + self.fp_regs


@dataclass
class SweepData:
    """Full grid of results, with speedup helpers."""

    results: dict[tuple[str, int, int], ConfigResult] = field(default_factory=dict)
    elapsed: float = 0.0
    #: configurations computed this run vs. reloaded from the persistent
    #: artifact store
    computed: int = 0
    store_hits: int = 0
    #: supervised-pool counters (redispatched, retries, deadline_kills,
    #: worker_restarts, ...) from a ``jobs > 1`` run; empty when serial
    resilience: dict = field(default_factory=dict)
    #: (cell, error) pairs for cells that failed permanently (only
    #: populated with ``strict=False``; strict sweeps raise instead)
    failed: list = field(default_factory=list)

    def get(self, name: str, level: Level, width: int) -> ConfigResult:
        return self.results[(name, int(level), width)]

    def base_cycles(self, name: str) -> int:
        """Issue-1 processor with Conv: the paper's speedup denominator."""
        return self.get(name, Level.CONV, 1).cycles

    def speedup(self, name: str, level: Level, width: int) -> float:
        return self.base_cycles(name) / self.get(name, level, width).cycles

    def workload_names(self) -> list[str]:
        return sorted({k[0] for k in self.results}, key=str.lower)

    def pass_seconds(self) -> dict[str, float]:
        """Aggregate compile-time cost per registered pass over the grid
        (the bench trajectory tracks these; see ``bench_sweep_perf``)."""
        out: dict[str, float] = {}
        for r in self.results.values():
            for name, s in r.t_passes.items():
                out[name] = out.get(name, 0.0) + s
        return out


# ---------------------------------------------------------------------------
# one cell -> ConfigResults
# ---------------------------------------------------------------------------


def _pack(name: str, check: bool, r: WidthResult) -> ConfigResult:
    ck, usage, run, timings = r
    return ConfigResult(
        name, int(ck.level), ck.machine.issue_width, run.cycles,
        run.instructions, ck.inner_makespan, usage.int_regs, usage.fp_regs,
        check, **timings,
    )


def _run_task(task: tuple) -> list[ConfigResult]:
    """Run one (workload, level) cell over the requested widths
    (module-level: the fork pool pickles it)."""
    name, level_int, widths, seed, check, check_ir, options, engine = task
    cell = evaluate_cell(
        get_workload(name), Level(level_int),
        [MachineConfig(issue_width=wd) for wd in widths],
        seed=seed, check=check, check_ir=check_ir, options=options,
        engine=engine,
    )
    return [_pack(name, check, r) for r in cell]


def run_config(
    w: Workload, level: Level, machine: MachineConfig, seed: int = 0,
    check: bool = True, check_ir: bool = False,
    options: PassOptions | None = None, engine: str = "auto",
) -> ConfigResult:
    """Compile, simulate, and check a single configuration.

    Unlike the sweep tasks this honors the full ``machine`` (custom
    latencies / slot limits — the ablation benchmarks use those); the
    classical stage is still reused across calls per workload.
    ``check_ir=True`` additionally runs the between-pass invariant
    verifier (the CLI ``--check`` flag); ``options`` carries
    ``--disable-pass`` / ``--print-after`` pipeline controls.
    """
    (r,) = evaluate_cell(
        w, level, [machine], seed=seed, check=check, check_ir=check_ir,
        options=options, engine=engine,
    )
    return _pack(w.name, check, r)


# ---------------------------------------------------------------------------
# the sweep driver
# ---------------------------------------------------------------------------


def run_sweep(
    workloads: list[Workload] | None = None,
    levels: tuple[Level, ...] = tuple(Level),
    widths: tuple[int, ...] = WIDTHS,
    seed: int = 0,
    check: bool = True,
    verbose: bool = False,
    jobs: int = 1,
    check_ir: bool = False,
    options: PassOptions | None = None,
    store=None,
    deadline_s: float | None = None,
    strict: bool = True,
    engine: str = "auto",
) -> SweepData:
    """Run the evaluation grid.

    Each (workload, level) cell executes once and its trace is replayed
    per width; ``engine="interp"`` names the reference interpreter
    instead (see :func:`repro.sim.simulate`).  Both produce identical
    results, so the engine is *not* part of the store identity.
    ``check_ir=True`` runs the invariant verifier between every compiler
    pass of every configuration (the CLI ``--check`` flag); ``options``
    carries ``--disable-pass`` pipeline controls.  Both are part of the
    store identity, so a resumed sweep never mixes pipelines.

    ``store`` (an :class:`~repro.service.store.ArtifactStore`) is the
    persistent layer and the only way to resume: configurations whose
    canonical key is already stored are reloaded instead of computed,
    and every computed configuration is written back as it arrives, so
    rerunning an interrupted sweep against the same store computes only
    what is missing and a second full sweep is near-free.  Serial,
    parallel, resumed, and fresh sweeps all produce identical results.

    ``jobs > 1`` distributes (workload, level) tasks over the resilience
    layer's :class:`~repro.resilience.supervisor.SupervisedPool`: a
    worker lost to a crash or a hang (past ``deadline_s``) is replaced
    and its task re-dispatched, deduplicated by canonical request key so
    a late duplicate can never double-count a configuration; counters
    land in ``SweepData.resilience``.  A cell that fails permanently
    (retries exhausted or circuit breaker open) raises
    :class:`SweepError` after the rest of the grid finishes — or, with
    ``strict=False``, is recorded in ``SweepData.failed`` and the sweep
    returns partial.
    """
    workloads = workloads or all_workloads()
    data = SweepData()
    t0 = time.time()
    # "result" blobs hold the sweep's full ConfigResult (phase and
    # per-pass timings included) — distinct from the service's leaner
    # "run" payloads for the same configuration
    grid = SweepRequest(
        [w.name for w in workloads], [int(lv) for lv in levels], widths,
        seed=seed, check=check, check_ir=check_ir,
        disable=options.key if options is not None else ())
    cells = {(c.workload, c.level, c.width): c
             for c in grid.cells("result")}

    if store is not None:
        # a corrupt, stale or foreign blob is just a miss
        for cfg, cell in cells.items():
            payload = store.get(cell.key)
            if payload is None:
                continue
            try:
                data.results[cfg] = ConfigResult(**payload)
            except TypeError:
                continue  # foreign schema: recompute
            data.store_hits += 1

    # one task per (workload, level): the widths of a cell share their
    # transformed code and their execution, so they stay together
    tasks = []
    for w in workloads:
        for level in levels:
            missing = tuple(
                wd for wd in widths if (w.name, int(level), wd) not in data.results
            )
            if missing:
                tasks.append((w.name, int(level), missing, seed, check,
                              check_ir, options, engine))

    def record(rs: list[ConfigResult]) -> None:
        for r in rs:
            data.results[(r.workload, r.level, r.width)] = r
            if store is not None:
                store.put(cells[r.workload, r.level, r.width].key, asdict(r))
        data.computed += len(rs)
        if verbose and rs:
            r = rs[0]
            print(f"  {r.workload} {Level(r.level).label} done "
                  f"({time.time() - t0:.1f}s)")

    if jobs > 1 and len(tasks) > 1:
        with SupervisedPool(jobs, deadline_s=deadline_s) as pool:
            futures = {}
            for task in tasks:
                cell, first_width = task[:2], task[2][0]
                fut = pool.submit(_run_task, task, cell=cell,
                                  key=cells[(*cell, first_width)].key)
                futures[fut] = cell
            for fut in as_completed(futures):
                try:
                    record(fut.result())
                except (CellQuarantined, TaskFailed) as e:
                    data.failed.append((futures[fut], repr(e)))
            data.resilience = dict(pool.counters)
    else:
        for task in tasks:
            record(_run_task(task))

    if data.failed:
        print(f"  sweep: {len(data.failed)} cell(s) failed permanently: "
              + ", ".join(f"{c[0]}/L{c[1]}" for c, _ in data.failed),
              file=sys.stderr)
        if strict:
            raise SweepError(
                f"{len(data.failed)} cell(s) failed permanently", data.failed)

    # deterministic merge: identical key order no matter which process
    # finished first or how much came from the store
    data.results = dict(sorted(data.results.items()))
    data.elapsed = time.time() - t0
    return data


# ---------------------------------------------------------------------------
# the figure export
# ---------------------------------------------------------------------------


def default_cache_path() -> Path:
    return Path(__file__).resolve().parents[3] / "results" / "sweep.json"


def strip_timings(result: ConfigResult) -> dict:
    """The non-timing fields of a result: everything two runs of one
    configuration must agree on (the ``t_*`` wall-clock phase costs
    legitimately differ between runs and engines)."""
    return {k: v for k, v in asdict(result).items()
            if not k.startswith("t_")}


def save_sweep(data: SweepData, path: Path | None = None) -> Path:
    path = path or default_cache_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    # a writer that died between tmp-write and rename strands its tmp
    # file forever; the next save is the janitor (grace-period guarded —
    # a fresh tmp may be live)
    clean_orphan_tmps(path.parent, recursive=False)
    payload = {
        "version": CACHE_VERSION,
        "elapsed": data.elapsed,
        "results": [asdict(r) for r in data.results.values()],
    }
    # atomic: a reader (or a crash) mid-save must never observe a torn file
    tmp = path.with_name(f".{path.name}-{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)
    return path


def load_sweep(path: Path | None = None, require_complete: bool = True) -> SweepData | None:
    """Load a saved sweep.

    By default only a full grid (every workload x ``Level`` x ``WIDTHS``)
    is usable — the figure renderers need every cell;
    ``require_complete=False`` returns whatever subset the file holds, so
    partial sweeps remain inspectable.
    """
    path = path or default_cache_path()
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("version") != CACHE_VERSION:
        return None
    data = SweepData(elapsed=payload.get("elapsed", 0.0))
    for d in payload["results"]:
        r = ConfigResult(**d)
        data.results[(r.workload, r.level, r.width)] = r
    if require_complete:
        expected = len(all_workloads()) * len(Level) * len(WIDTHS)
        if len(data.results) != expected:
            return None
    return data


def sweep_cached(force: bool = False, verbose: bool = False, jobs: int = 1,
                 check_ir: bool = False,
                 options: PassOptions | None = None,
                 store=None) -> SweepData:
    """Load the saved grid or compute and save it.

    ``check_ir=True`` forces a fresh sweep with the between-pass
    invariant verifier on (never satisfied from ``sweep.json``, which
    does not record verification).  A run with disabled passes
    (``options``) bypasses ``sweep.json`` entirely — loading and saving
    — so ablations never poison the canonical grid.  ``store`` threads a
    persistent :class:`~repro.service.store.ArtifactStore` through the
    computation (CLI ``--store DIR``): an interrupted computation rerun
    with the same store resumes where it stopped.
    """
    ablated = options is not None and bool(options.key)
    if not force and not check_ir and not ablated:
        cached = load_sweep()
        if cached is not None:
            return cached
    data = run_sweep(verbose=verbose, jobs=jobs, check_ir=check_ir,
                     options=options, store=store)
    if not ablated:
        save_sweep(data)
    return data

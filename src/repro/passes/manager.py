"""The pass manager: declarative pipeline ordering, fixpoints, gating.

The compiler's six cumulative levels (Conv, Lev1..Lev5) used to be
hardwired as three ad-hoc driver loops (the Conv fixpoint, the
level-gated ILP transform sequence plus its cleanup loop, and the
scheduling step).  This module replaces them with data:

* a :class:`Pass` names one transformation — its phase, its level gate,
  an optional profitability predicate, and a run callable that mutates
  the shared :class:`PipelineContext` and returns a rewrite count;
* a :class:`Phase` groups passes into an ordered (optionally fixpoint)
  unit with round hooks and a finalizer;
* the :class:`PassManager` executes phases: it owns ordering, fixpoint
  iteration, level gating, ``--disable-pass`` skipping, per-pass
  :class:`~repro.passes.stats.PassStats` recording, ``--print-after``
  IR dumps, and the between-pass invariant-verifier checkpointing that
  the drivers previously hand-threaded.

The default pipeline (phases ``conv`` → ``ilp`` → ``cleanup`` →
``schedule``) is declared in :mod:`repro.passes.registry`; its ordering
and fixpoint semantics reproduce the pre-refactor drivers exactly, so
compiled output is bit-identical (asserted by the golden oracle-set
test and the differential oracle).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..ir.printer import format_function
from ..ir.verify import verify_pipeline
from .stats import PassStats, PipelineReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.loopvars import CountedLoop
    from ..ir.function import Function
    from ..ir.operands import Reg
    from ..machine import MachineConfig
    from ..schedule.listsched import Schedule
    from ..schedule.superblock import SuperblockLoop


@dataclass
class PipelineContext:
    """Mutable state shared by the passes of one kernel's compilation.

    Structural passes communicate through it: ``unroll`` rewrites
    ``counted``, ``superblock`` publishes ``sb`` and the profitability
    verdict, ``combine`` caches the protected-register set that
    ``treeheight`` reuses, and the cleanup round hook refreshes
    ``prologues`` for memory disambiguation.
    """

    func: "Function"
    report: PipelineReport = field(default_factory=PipelineReport)
    #: transformation level; None while running level-independent phases
    level: object = None
    machine: "MachineConfig | None" = None
    live_out_exit: set = field(default_factory=set)
    #: inner-loop metadata map (Conv phase: IV elimination updates it)
    counted_map: dict | None = None
    #: the single inner loop the ILP phase transforms
    counted: "CountedLoop | None" = None
    sb: "SuperblockLoop | None" = None
    #: explicit unroll-factor override (None = size heuristic)
    unroll_factor: int | None = None
    thr_unit_latency: bool = False
    doall: bool = False
    #: run ``verify_function`` in the Conv finalizer (run_conv's flag)
    verify_final: bool = True
    #: width-independent dependence DAGs the schedule phase runs over
    #: (:class:`repro.pipeline.ScheduleInputs`)
    schedule_inputs: object | None = None
    schedules: "dict[str, Schedule] | None" = None
    # -- scratch published by structural passes -------------------------
    expansions_profitable: bool = True
    protected: "set[Reg] | None" = None
    conv_protected: set = field(default_factory=set)
    prologues: dict | None = None


@dataclass(frozen=True)
class Pass:
    """Descriptor of one registered transformation."""

    name: str
    phase: str
    run: Callable[[PipelineContext], int]
    doc: str = ""
    #: minimum transformation level; None = runs at every level
    min_level: int | None = None
    #: extra predicate (e.g. cold side exits for the expansions)
    profitable: Callable[[PipelineContext], bool] | None = None
    #: structural passes the pipeline cannot function without; they are
    #: exempt from --disable-pass and leave-one-out ablation
    required: bool = False
    #: stage label for invariant-verifier provenance (defaults to name)
    stage: str | None = None

    @property
    def stage_label(self) -> str:
        return self.stage if self.stage is not None else self.name

    @property
    def gate_label(self) -> str:
        if self.min_level is None:
            return "always"
        return f"Lev{int(self.min_level)}+"


@dataclass(frozen=True)
class Phase:
    """An ordered group of passes, optionally iterated to fixpoint."""

    name: str
    passes: tuple[Pass, ...]
    #: upper bound on fixpoint rounds (1 = straight-line sequence)
    max_rounds: int = 1
    #: stop early once a full round reports zero rewrites
    fixpoint: bool = False
    #: where --check runs the invariant verifier: after every pass
    #: ("pass"), once per fixpoint round ("round"), or never ("none")
    checkpoint: str = "pass"
    #: verifier stage label checked on phase entry (ILP's "input")
    entry_stage: str | None = None
    #: per-round verifier stage label; "{round}" is substituted
    round_stage: str = "{phase} round {round}"
    #: invoked before each round (recompute per-round analysis state)
    on_round_start: Callable[[PipelineContext], None] | None = None
    #: invoked once after the last round (cleanup, reindex, final verify)
    finalize: Callable[[PipelineContext, "PassManager"], None] | None = None


@dataclass(frozen=True)
class PassOptions:
    """User-facing pipeline controls (CLI ``--disable-pass`` & friends)."""

    disable: tuple[str, ...] = ()
    print_after: tuple[str, ...] = ()
    print_changed: bool = False

    @property
    def key(self) -> tuple[str, ...]:
        """Result-relevant identity (printing does not change output)."""
        return tuple(sorted(set(self.disable)))


class PassManager:
    """Executes registered phases over a :class:`PipelineContext`."""

    def __init__(
        self,
        options: PassOptions | None = None,
        check: bool = False,
        phases: dict[str, Phase] | None = None,
        stream=None,
    ):
        if phases is None:
            from .registry import DEFAULT_PHASES

            phases = DEFAULT_PHASES
        self.phases = phases
        self.options = options or PassOptions()
        self.check = check
        self.stream = stream if stream is not None else sys.stdout
        self._validate()

    def _validate(self) -> None:
        by_name = {p.name: p for ph in self.phases.values() for p in ph.passes}
        for name in (*self.options.disable, *self.options.print_after):
            if name not in by_name:
                known = ", ".join(sorted(by_name))
                raise ValueError(f"unknown pass {name!r} (known: {known})")
        for name in self.options.disable:
            if by_name[name].required:
                raise ValueError(
                    f"pass {name!r} is structural and cannot be disabled"
                )

    # ------------------------------------------------------------------

    def _checkpoint(self, ctx: PipelineContext, stage: str) -> None:
        if self.check:
            verify_pipeline(ctx.func, set(ctx.func.pinned_regs), stage=stage)

    def _print_after(self, ctx: PipelineContext, p: Pass, rewrites: int) -> None:
        wanted = p.name in self.options.print_after or (
            self.options.print_changed and rewrites > 0
        )
        if not wanted:
            return
        print(f"; IR after {p.name} [{p.phase}] ({rewrites} rewrites)",
              file=self.stream)
        print(format_function(ctx.func), file=self.stream)

    def _should_run(self, p: Pass, ctx: PipelineContext) -> bool:
        if not p.required and p.name in self.options.disable:
            return False
        if p.min_level is not None and (
            ctx.level is None or ctx.level < p.min_level
        ):
            return False
        if p.profitable is not None and not p.profitable(ctx):
            return False
        return True

    def run_phase(
        self, name: str, ctx: PipelineContext, max_rounds: int | None = None
    ) -> int:
        """Run one phase to completion; returns the total rewrite count."""
        phase = self.phases[name]
        rounds_cap = max_rounds if max_rounds is not None else phase.max_rounds
        ctx.report.disabled = self.options.key
        if phase.entry_stage is not None:
            self._checkpoint(ctx, phase.entry_stage)

        total = 0
        rounds_run = 0
        for rnd in range(rounds_cap):
            if phase.on_round_start is not None:
                phase.on_round_start(ctx)
            changed = 0
            for p in phase.passes:
                if not self._should_run(p, ctx):
                    continue
                before = ctx.func.n_instrs()
                t0 = time.perf_counter()
                n = p.run(ctx)
                dt = time.perf_counter() - t0
                ctx.report.stats.append(PassStats(
                    p.name, phase.name, rnd, n, dt, before, ctx.func.n_instrs()
                ))
                changed += n
                if phase.checkpoint == "pass":
                    self._checkpoint(ctx, p.stage_label)
                self._print_after(ctx, p, n)
            total += changed
            rounds_run = rnd + 1
            if phase.checkpoint == "round":
                self._checkpoint(
                    ctx, phase.round_stage.format(phase=phase.name, round=rnd)
                )
            if phase.fixpoint and changed == 0:
                break
        ctx.report.phase_rounds[phase.name] = rounds_run
        if phase.finalize is not None:
            phase.finalize(ctx, self)
        return total

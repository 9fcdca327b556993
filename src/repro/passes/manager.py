"""The pass manager: declarative pipeline ordering, fixpoints, gating.

The compiler's six cumulative levels (Conv, Lev1..Lev5) used to be
hardwired as three ad-hoc driver loops (the Conv fixpoint, the
level-gated ILP transform sequence plus its cleanup loop, and the
scheduling step).  This module replaces them with data:

* a :class:`Pass` names one transformation — its level gate, an
  optional profitability predicate, and a run callable that mutates the
  shared :class:`PipelineContext` and returns a rewrite count;
* a :class:`Phase` groups passes into an ordered unit, iterated until a
  round makes no rewrite (at most ``max_rounds`` rounds), with a round
  hook and a finalizer;
* the :class:`PassManager` executes phases: it owns ordering, fixpoint
  iteration, level gating, ``--disable-pass`` skipping, per-pass
  :class:`~repro.passes.stats.PassStats` recording, ``--print-after``
  IR dumps, and the ``--check`` invariant verifier, which runs by one
  rule in every phase and verifies every state once: at the phase's
  entry (unless a checked phase already verified that code), after
  every pass, and after the finalizer.

The default pipeline (phases ``conv`` → ``ilp`` → ``cleanup`` →
``schedule``) is declared in :mod:`repro.passes.registry`, the one place
a pass's phase and name are stated; its ordering and fixpoint semantics
reproduce the pre-refactor drivers exactly, so compiled output is
bit-identical (asserted by the golden oracle-set test and the
differential oracle).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..ir.printer import format_function
from ..ir.verify import verify_function, verify_pipeline
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
    """Descriptor of one registered transformation.  Its phase is the
    :class:`Phase` that holds it; ``name`` is the one identifier
    ``--disable-pass``, ``--print-after`` and ``--check`` failures use."""

    name: str
    run: Callable[[PipelineContext], int]
    doc: str = ""
    #: minimum transformation level; None = runs at every level
    min_level: int | None = None
    #: extra predicate (e.g. cold side exits for the expansions)
    profitable: Callable[[PipelineContext], bool] | None = None
    #: structural passes the pipeline cannot function without; they are
    #: exempt from --disable-pass and leave-one-out ablation
    required: bool = False

    @property
    def gate_label(self) -> str:
        if self.min_level is None:
            return "always"
        return f"Lev{int(self.min_level)}+"


@dataclass(frozen=True)
class Phase:
    """An ordered group of passes, run round after round until a round
    makes no rewrite or ``max_rounds`` rounds have run."""

    name: str
    passes: tuple[Pass, ...]
    #: upper bound on rounds (1 = straight-line sequence)
    max_rounds: int = 1
    #: invoked before each round (recompute per-round analysis state)
    on_round_start: Callable[[PipelineContext], None] | None = None
    #: invoked once after the last round (reindexing); the structure is
    #: verified after it, checked or not
    finalize: Callable[[PipelineContext], None] | None = None


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
    """Executes the registered phases over a :class:`PipelineContext`.

    With ``check``, :func:`~repro.ir.verify.verify_pipeline` runs at each
    phase's entry (unless ``run_phase(verified=True)`` says a checked
    phase already verified the code), after every pass and after the
    phase's finalizer; a failure names the pass (or phase boundary) it
    follows.  Unchecked, the structure is still verified after a
    phase's finalizer.
    """

    def __init__(
        self,
        options: PassOptions | None = None,
        check: bool = False,
        stream=None,
    ):
        from .registry import DEFAULT_PHASES

        self.phases = DEFAULT_PHASES
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

    def _checkpoint(self, ctx: PipelineContext, where: str) -> None:
        if self.check:
            verify_pipeline(ctx.func, set(ctx.func.pinned_regs), stage=where)

    def _print_after(
        self, ctx: PipelineContext, phase: Phase, p: Pass, rewrites: int
    ) -> None:
        wanted = p.name in self.options.print_after or (
            self.options.print_changed and rewrites > 0
        )
        if not wanted:
            return
        print(f"; IR after {p.name} [{phase.name}] ({rewrites} rewrites)",
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

    def run_phase(self, name: str, ctx: PipelineContext, *,
                  verified: bool = False) -> int:
        """Run one phase to completion; returns the total rewrite count.

        ``verified`` says a checked run already verified the entry state
        (the end of the previous phase), so its entry checkpoint is not
        repeated.
        """
        phase = self.phases[name]
        ctx.report.disabled = self.options.key
        if not verified:
            self._checkpoint(ctx, f"before {name}")

        total = 0
        rounds_run = 0
        for rnd in range(phase.max_rounds):
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
                    p.name, name, rnd, n, dt, before, ctx.func.n_instrs()
                ))
                changed += n
                self._checkpoint(ctx, f"after {p.name}")
                self._print_after(ctx, phase, p, n)
            total += changed
            rounds_run = rnd + 1
            if changed == 0:
                break
        ctx.report.phase_rounds[name] = rounds_run
        if phase.finalize is not None:
            phase.finalize(ctx)
            if self.check:
                self._checkpoint(ctx, f"after {name} finalizer")
            else:
                verify_function(ctx.func)
        return total

"""Per-pass execution statistics and the unified pipeline report.

Every pass execution the :class:`~repro.passes.manager.PassManager`
performs is recorded as one :class:`PassStats` row — which pass, in which
phase and fixpoint round, how many rewrites it made, how long it took,
and how the IR instruction count moved.  The rows accumulate into a
single :class:`PipelineReport` that travels with the kernel through every
compilation stage (classical optimization, ILP transformation, cleanup,
scheduling), replacing the per-stage report types the drivers used to
hand-thread.

A transformation's counter is read by its registered pass name
(``report.rewrites("rename")``), so consumers read one object no matter
which phase produced the number.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PassStats:
    """One pass execution: what ran, what it did, what it cost."""

    name: str          #: registered pass name
    phase: str         #: phase the pass ran under (conv/ilp/cleanup/schedule)
    round: int         #: 0-based fixpoint round within the phase
    rewrites: int      #: rewrites the pass reported (0 = no change)
    seconds: float     #: wall-clock cost of this execution
    instrs_before: int
    instrs_after: int

    @property
    def instr_delta(self) -> int:
        """Net IR growth (positive) or shrinkage (negative) of the pass."""
        return self.instrs_after - self.instrs_before


@dataclass
class PipelineReport:
    """Unified record of everything the pipeline did to one kernel.

    Replaces the historical ``ConvReport``/``TransformReport`` pair: all
    phases append to the same stats list, read by pass name through
    :meth:`rewrites` and :meth:`seconds`.
    """

    stats: list[PassStats] = field(default_factory=list)
    #: preconditioned unroll factor chosen by the ``unroll`` pass (1 = none)
    unroll_factor: int = 1
    #: passes the run was asked to skip (``--disable-pass``)
    disabled: tuple[str, ...] = ()
    #: fixpoint rounds each phase actually ran
    phase_rounds: dict[str, int] = field(default_factory=dict)
    #: SLP components that reassociated an fp reduction (serial-chain
    #: packing); nonzero means results are tolerance-, not bit-, exact
    slp_reassoc: int = 0

    # -- generic accessors ----------------------------------------------

    def rewrites(self, *names: str) -> int:
        """Total rewrites reported by the named pass(es), all rounds."""
        return sum(s.rewrites for s in self.stats if s.name in names)

    def seconds(self, *names: str) -> float:
        """Total wall-clock seconds spent in the named pass(es)."""
        return sum(s.seconds for s in self.stats if s.name in names)

    def pass_seconds(self, phases: tuple[str, ...] | None = None) -> dict[str, float]:
        """Wall-clock seconds aggregated per pass name.

        ``phases`` restricts the aggregation (e.g. only ``("schedule",)``
        for the widths of a sweep task that reuse shared transformed
        code).
        """
        out: dict[str, float] = {}
        for s in self.stats:
            if phases is not None and s.phase not in phases:
                continue
            out[s.name] = out.get(s.name, 0.0) + s.seconds
        return out

    def fork(self) -> "PipelineReport":
        """Independent continuation of this report.

        Shares the (immutable) recorded rows but appends to a fresh list,
        so several downstream stages (one schedule per issue width) can
        each extend their own copy of a shared transform history.
        """
        return PipelineReport(
            stats=list(self.stats),
            unroll_factor=self.unroll_factor,
            disabled=self.disabled,
            phase_rounds=dict(self.phase_rounds),
            slp_reassoc=self.slp_reassoc,
        )

"""repro.passes — the unified pass manager.

One declarative pipeline replaces the three hand-rolled driver loops
(classical fixpoint, level-gated ILP sequence + cleanup loop, scheduling):

* :class:`~repro.passes.manager.Pass` — descriptor: name, level gate,
  profitability predicate, run callable returning a rewrite count;
* :class:`~repro.passes.manager.Phase` /
  :class:`~repro.passes.manager.PassManager` — ordering, fixpoint
  iteration, gating, ``--disable-pass`` skipping, ``--print-after`` IR
  dumps, and the ``--check`` invariant verifier (at each phase's entry
  unless a checked phase already verified it, after every pass, after
  the finalizer);
* :class:`~repro.passes.stats.PassStats` /
  :class:`~repro.passes.stats.PipelineReport` — per-execution
  observability (rewrites, wall time, instruction-count delta, fixpoint
  round) unified across all phases;
* :mod:`repro.passes.registry` — the registered default pipeline, which
  reproduces the pre-refactor drivers bit-identically.

``registry`` is imported lazily by :class:`PassManager` (it depends on
the transformation modules); import it directly for pass listings.
"""

from .manager import Pass, PassManager, PassOptions, Phase, PipelineContext
from .stats import PassStats, PipelineReport

__all__ = [
    "Pass", "PassManager", "PassOptions", "Phase", "PipelineContext",
    "PassStats", "PipelineReport",
]

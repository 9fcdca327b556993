"""The classical ("Conv") optimization pipeline.

Runs the paper's conventional-optimizer baseline to fixpoint:

    "The conventional scalar transformations consist of a complete set of
    classical local, global, and loop transformations, including constant
    propagation, copy propagation, common subexpression elimination,
    constant folding, operation folding, redundant memory access
    elimination, dead code removal, loop invariant code removal, loop
    induction variable strength reduction, and loop induction variable
    elimination."

Every transformation level of the evaluation (Conv, Lev1..Lev5) starts
from the output of this pipeline.

The fixpoint itself is owned by the unified pass manager
(:mod:`repro.passes`): this module is the thin entry point that binds a
function into a :class:`~repro.passes.manager.PipelineContext` and runs
the registered ``conv`` phase.  Pass ordering and per-round protected-set
recomputation live in :mod:`repro.passes.registry`.
"""

from __future__ import annotations

from ..analysis.loopvars import CountedLoop
from ..ir.function import Function
from ..ir.operands import Reg


def run_conv(
    func: Function,
    counted: dict[str, CountedLoop] | None = None,
    live_out_exit: set[Reg] | None = None,
    options=None,
    report=None,
    check: bool = False,
):
    """Apply the classical pipeline to fixpoint (at most 10 rounds).

    ``counted`` maps inner-loop headers to their metadata; induction
    variable elimination updates entries in place when it retargets a loop
    test.  ``live_out_exit`` lists registers the caller reads after the
    run (workload outputs) so DCE keeps them.  ``options`` takes a
    :class:`~repro.passes.manager.PassOptions` (pass disabling / IR
    printing); ``report`` an existing
    :class:`~repro.passes.stats.PipelineReport` to extend.  ``check=True``
    runs the invariant verifier on entry and after every pass.

    Returns the :class:`~repro.passes.stats.PipelineReport` with one
    :class:`~repro.passes.stats.PassStats` row per pass execution.
    """
    from ..passes import PassManager, PipelineContext, PipelineReport

    ctx = PipelineContext(
        func=func,
        report=report if report is not None else PipelineReport(),
        live_out_exit=live_out_exit or set(),
        counted_map=counted,
    )
    PassManager(options, check=check).run_phase("conv", ctx)
    return ctx.report

"""The registered pass pipeline: declarative form of the paper's levels.

Four phases reproduce the pre-refactor drivers pass-for-pass:

``conv``
    The classical ("Conv") optimizations, iterated to fixpoint (bounded
    at 10 rounds) exactly as the quoted Section 3.2 baseline demands.
    Every transformation level starts from its output.
``ilp``
    The level-gated ILP transformation sequence over the inner loop.
    Ordering follows the dependences between the transformations:
    search expansion precedes renaming (it matches original names), the
    other expansions run on renamed code, and the arithmetic
    transformations run last so they see the expanded dependence
    structure (see DESIGN.md §10).
``cleanup``
    Post-transform folding of the preconditioning arithmetic plus dead
    code removal, iterated to fixpoint (bounded at 4 rounds).  The
    prologue regions feeding memory disambiguation are recomputed at
    every round start, before any pass of the round mutates the code.
``schedule``
    List scheduling of every block under the machine model.

This table is the one place the pipeline is declared: a pass belongs
to the phase whose tuple holds it.  Pass names are the stable
identifiers used by ``--disable-pass``, ``--print-after``, ``--check``
failure messages, the ``passes`` CLI listing, and the leave-one-out
ablation experiment.  Structural passes (superblock formation, the
scheduler itself) are ``required`` and exempt from disabling and
ablation.
"""

from __future__ import annotations

from ..opt.constprop import propagate_constants
from ..opt.copyprop import coalesce_moves, propagate_copies_local
from ..opt.cse import eliminate_common_subexpressions
from ..opt.dce import eliminate_dead_code
from ..opt.ivsr import strength_reduce_ivs
from ..opt.licm import hoist_loop_invariants
from ..opt.redundant_mem import eliminate_redundant_memory
from ..pipeline import (
    Level,
    ScheduleInputs,
    _find_loop,
    prologue_regions,
    protected_registers,
)
from ..schedule.listsched import list_schedule
from ..schedule.superblock import form_superblock
from ..transforms.accumulate import expand_accumulators
from ..transforms.combine import combine_operations
from ..transforms.induction import expand_inductions
from ..transforms.rename import rename_superblock
from ..transforms.search import expand_search_variables
from ..transforms.slp import vectorize_superblock
from ..transforms.strength import reduce_strength
from ..transforms.treeheight import reduce_tree_height
from ..transforms.unroll import choose_unroll_factor, unroll_counted
from .manager import Pass, Phase, PipelineContext

# ---------------------------------------------------------------------------
# conv phase
# ---------------------------------------------------------------------------


def _conv_round_start(ctx: PipelineContext) -> None:
    # the loop-test increments must survive CSE; IV elimination may
    # retarget a loop test between rounds, so recompute every round
    ctx.conv_protected = {
        id(c.increment) for c in (ctx.counted_map or {}).values()
    }


def _reindex(ctx: PipelineContext) -> None:
    ctx.func.reindex_regs()


CONV_PASSES = (
    Pass("constprop", lambda ctx: propagate_constants(ctx.func),
         doc="constant propagation and folding"),
    # coalescing must precede copy propagation: a multi-update reduction
    # lowers as `t = s + x; s = t` chains that copy propagation would
    # rewire through the temps, hiding the self-update shape from
    # accumulator expansion
    Pass("coalesce", lambda ctx: coalesce_moves(ctx.func),
         doc="move coalescing (keeps reduction self-update shapes)"),
    Pass("copyprop-local", lambda ctx: propagate_copies_local(ctx.func),
         doc="block-local copy propagation"),
    Pass("cse",
         lambda ctx: eliminate_common_subexpressions(
             ctx.func, ctx.conv_protected),
         doc="common subexpression elimination"),
    Pass("redundant-mem", lambda ctx: eliminate_redundant_memory(ctx.func),
         doc="redundant load/store elimination"),
    Pass("licm",
         lambda ctx: hoist_loop_invariants(ctx.func, ctx.live_out_exit),
         doc="loop-invariant code motion"),
    Pass("ivsr",
         lambda ctx: strength_reduce_ivs(
             ctx.func, ctx.counted_map, ctx.live_out_exit),
         doc="induction-variable strength reduction and elimination"),
    Pass("dce",
         lambda ctx: eliminate_dead_code(ctx.func, ctx.live_out_exit),
         doc="dead code elimination"),
)


# ---------------------------------------------------------------------------
# ilp phase
# ---------------------------------------------------------------------------


def _run_unroll(ctx: PipelineContext) -> int:
    loop = _find_loop(ctx.func, ctx.counted.header)
    size = sum(len(ctx.func.get_block(lab).instrs) for lab in loop.blocks)
    factor = (ctx.unroll_factor if ctx.unroll_factor is not None
              else choose_unroll_factor(size))
    ctx.counted = unroll_counted(ctx.func, loop, ctx.counted, factor)
    ctx.report.unroll_factor = factor
    return factor


def _run_superblock(ctx: PipelineContext) -> int:
    loop = _find_loop(ctx.func, ctx.counted.header)
    ctx.sb = form_superblock(ctx.func, loop, ctx.counted)
    # Profitability: the expansion transformations pay compensation code
    # on every side exit taken (and re-initialization on every rejoin).
    # With profile information a production compiler applies them only
    # when the off-trace paths are cold; we use the branch probabilities
    # the same way.  Loops without side exits (33 of the 40) are
    # unaffected.
    exit_probs = [
        ctx.sb.body.instrs[q].prob
        if ctx.sb.body.instrs[q].prob is not None else 0.5
        for q in ctx.sb.side_exit_positions()
    ]
    ctx.expansions_profitable = all(p <= 0.25 for p in exit_probs)
    return 1


def _expansions_profitable(ctx: PipelineContext) -> bool:
    return ctx.expansions_profitable


def _run_combine(ctx: PipelineContext) -> int:
    # computed once, before combining mutates the body; treeheight reuses it
    ctx.protected = protected_registers(ctx.sb, ctx.live_out_exit)
    return combine_operations(ctx.sb.body.instrs, ctx.protected)


def _run_slp(ctx: PipelineContext) -> int:
    components, reassociated = vectorize_superblock(
        ctx.sb, ctx.machine, ctx.live_out_exit
    )
    ctx.report.slp_reassoc += reassociated
    return components


def _run_treeheight(ctx: PipelineContext) -> int:
    prot = (ctx.protected if ctx.protected is not None
            else protected_registers(ctx.sb, ctx.live_out_exit))
    return reduce_tree_height(
        ctx.func, ctx.sb.body.instrs, ctx.machine, prot,
        unit_latency=ctx.thr_unit_latency,
    )


ILP_PASSES = (
    Pass("unroll", _run_unroll, min_level=Level.LEV1,
         doc="preconditioned loop unrolling (max 8x / body-size cap)"),
    Pass("superblock", _run_superblock, required=True,
         doc="superblock formation over the inner loop (structural)"),
    Pass("search", lambda ctx: expand_search_variables(ctx.sb),
         min_level=Level.LEV4, profitable=_expansions_profitable,
         doc="search variable expansion (matches pre-rename names)"),
    Pass("rename",
         lambda ctx: rename_superblock(ctx.sb, ctx.live_out_exit),
         min_level=Level.LEV2,
         doc="register renaming across unrolled iterations"),
    Pass("induction", lambda ctx: expand_inductions(ctx.sb),
         min_level=Level.LEV4, profitable=_expansions_profitable,
         doc="induction variable expansion"),
    Pass("accumulate", lambda ctx: expand_accumulators(ctx.sb),
         min_level=Level.LEV4, profitable=_expansions_profitable,
         doc="accumulator expansion (reassociates fp reductions)"),
    Pass("combine", _run_combine, min_level=Level.LEV3,
         doc="operation combining of dependent immediate arithmetic"),
    Pass("strength",
         lambda ctx: reduce_strength(ctx.func, ctx.sb.body.instrs),
         min_level=Level.LEV3,
         doc="strength reduction of expensive scalar operations"),
    Pass("treeheight", _run_treeheight, min_level=Level.LEV3,
         doc="tree height reduction (reassociates fp expressions)"),
    # last: packs the (unrolled, renamed, expanded) scalar statements the
    # earlier transformations exposed; the cost model may decline
    Pass("slp", _run_slp, min_level=Level.LEV5,
         doc="superword-level parallelism (packs isomorphic unrolled "
             "statements into vector instructions)"),
)


# ---------------------------------------------------------------------------
# cleanup phase
# ---------------------------------------------------------------------------


def _cleanup_round_start(ctx: PipelineContext) -> None:
    # snapshot the dominating prologue chain before any pass of the round
    # mutates it; memory disambiguation resolves address relationships
    # established ahead of precondition loops from these regions
    ctx.prologues = {ctx.sb.body.label: prologue_regions(ctx.func, ctx.sb)}


CLEANUP_PASSES = (
    Pass("cleanup-constprop", lambda ctx: propagate_constants(ctx.func),
         doc="fold the preconditioning span/div/rem arithmetic"),
    Pass("cleanup-copyprop", lambda ctx: propagate_copies_local(ctx.func),
         doc="block-local copy propagation after folding"),
    # classical redundant-memory elimination re-applied to the unrolled
    # superblock: a store forwarded to the next iteration's load turns a
    # memory recurrence into a register recurrence
    Pass("cleanup-redundant-mem",
         lambda ctx: eliminate_redundant_memory(ctx.func, ctx.prologues),
         doc="cross-iteration store-to-load forwarding in the superblock"),
    Pass("cleanup-dce",
         lambda ctx: eliminate_dead_code(ctx.func, ctx.live_out_exit),
         doc="dead code elimination after folding"),
)


# ---------------------------------------------------------------------------
# schedule phase
# ---------------------------------------------------------------------------


def _run_listsched(ctx: PipelineContext) -> int:
    """List-schedule every block of the function in place, over the
    dependence DAGs of ``ctx.schedule_inputs`` (reused across the issue
    widths of a cell, see :class:`repro.pipeline.ScheduleInputs`)."""
    if ctx.schedule_inputs is None:  # nobody to share with: this call only
        ctx.schedule_inputs = ScheduleInputs()
    graphs = ctx.schedule_inputs.graphs_for(
        ctx.func, ctx.machine, ctx.live_out_exit, ctx.sb, ctx.doall
    )
    schedules = {}
    scheduled = 0
    for blk, g in zip([b for b in ctx.func.blocks if b.instrs], graphs):
        sched = list_schedule(blk.instrs, ctx.machine, depgraph=g)
        blk.instrs = sched.order
        schedules[blk.label] = sched
        scheduled += len(sched.order)
    ctx.schedules = schedules
    return scheduled


SCHEDULE_PASSES = (
    Pass("listsched", _run_listsched, required=True,
         doc="greedy cycle-by-cycle list scheduling under the machine model"),
)


# ---------------------------------------------------------------------------
# the default pipeline
# ---------------------------------------------------------------------------

DEFAULT_PHASES: dict[str, Phase] = {
    "conv": Phase(
        "conv", CONV_PASSES, max_rounds=10,
        on_round_start=_conv_round_start, finalize=_reindex,
    ),
    "ilp": Phase("ilp", ILP_PASSES),
    "cleanup": Phase(
        "cleanup", CLEANUP_PASSES, max_rounds=4,
        on_round_start=_cleanup_round_start, finalize=_reindex,
    ),
    "schedule": Phase("schedule", SCHEDULE_PASSES),
}

#: phase execution order of a full compilation
PHASE_ORDER = ("conv", "ilp", "cleanup", "schedule")


def all_passes() -> list[Pass]:
    """Every registered pass, in pipeline order."""
    return [p for name in PHASE_ORDER for p in DEFAULT_PHASES[name].passes]


def get_pass(name: str) -> Pass:
    for p in all_passes():
        if p.name == name:
            return p
    raise KeyError(name)


def ablatable_passes(level: Level | None = None) -> list[Pass]:
    """Passes eligible for leave-one-out ablation: non-structural, and
    (when ``level`` is given) actually enabled at that level."""
    out = []
    for p in all_passes():
        if p.required:
            continue
        if (level is not None and p.min_level is not None
                and level < p.min_level):
            continue
        out.append(p)
    return out

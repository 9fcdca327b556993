"""Compilation pipeline: transformation levels and scheduling.

The paper evaluates five cumulative levels (Section 3.2); we add a sixth
(Lev5, superword-level parallelism) on top:

=======  ==========================================================
Conv     classical optimizations only (applied by the frontend/opt)
Lev1     + loop unrolling (preconditioned, max 8x / body-size cap)
Lev2     + register renaming
Lev3     + operation combining, strength reduction, tree height red.
Lev4     + accumulator, induction, and search variable expansion
Lev5     + SLP vectorization of the unrolled superblock body
=======  ==========================================================

``apply_ilp_transforms`` rewrites one inner loop; ``schedule_function``
then list-schedules every block under the machine model.  Both are thin
entry points over the unified pass manager (:mod:`repro.passes`): the
level gates, the pass order within a level (search expansion precedes
renaming because it matches original names; the other expansions run on
renamed code; the arithmetic transformations run last so they see the
expanded dependence structure), and the bounded cleanup fixpoint are all
declared in :mod:`repro.passes.registry`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .analysis.depgraph import DepGraph, build_depgraph
from .analysis.liveness import liveness
from .analysis.loopvars import CountedLoop
from .ir.function import Function
from .ir.loop import find_loops
from .ir.operands import Reg
from .machine import MachineConfig
from .schedule.listsched import Schedule
from .schedule.superblock import SuperblockLoop


class Level(enum.IntEnum):
    """Cumulative transformation levels: the paper's five (Conv..Lev4)
    plus Lev5, superword-level parallelism (SLP vectorization) over the
    unrolled superblock.  Everything that enumerates "the levels" —
    sweeps, oracle grids, CLI choices, tables — derives from this enum,
    so adding a level here is the single point of extension."""

    CONV = 0
    LEV1 = 1
    LEV2 = 2
    LEV3 = 3
    LEV4 = 4
    LEV5 = 5

    @property
    def label(self) -> str:
        return "Conv" if self == 0 else f"Lev{int(self)}"


ALL_LEVELS = list(Level)


def _find_loop(func: Function, header: str):
    for l in find_loops(func):
        if l.header == header:
            return l
    raise ValueError(f"loop {header!r} not found in {func.name}")


def protected_registers(sb: SuperblockLoop, live_out_exit: set[Reg]) -> set[Reg]:
    """Registers observable outside the superblock body: live at any side
    exit target, around the backedge, or at the natural exit.  The
    arithmetic transformations must not absorb definitions of these."""
    lv = liveness(sb.func, live_out_exit)
    prot: set[Reg] = set(lv.live_in.get(sb.header, set()))
    if sb.exit_block is not None:
        prot |= lv.live_in.get(sb.exit_block.label, set())
    for pos in sb.side_exit_positions():
        ins = sb.body.instrs[pos]
        if ins.target is not None:
            prot |= lv.live_in.get(ins.target.name, set())
    return prot


def apply_ilp_transforms(
    func: Function,
    counted: CountedLoop,
    level: Level,
    machine: MachineConfig,
    live_out_exit: set[Reg] | None = None,
    unroll_factor: int | None = None,
    thr_unit_latency: bool = False,
    check: bool = False,
    options=None,
    report=None,
):
    """Transform the inner loop described by ``counted`` at ``level``.

    Runs the registered ``ilp`` and ``cleanup`` phases of the pass
    manager.  Returns ``(superblock, report)`` — the superblock
    descriptor plus the unified
    :class:`~repro.passes.stats.PipelineReport` of what fired (pass an
    existing ``report`` to extend it across stages).  The function is
    verified after transformation; with ``check=True`` the full invariant
    verifier (:func:`repro.ir.verify.verify_pipeline`) additionally runs
    *between every pass*, so the first pass to break an invariant is
    named in the failure.  ``options`` takes a
    :class:`~repro.passes.manager.PassOptions` for pass disabling and
    ``--print-after`` IR dumps.
    """
    from .passes import PassManager, PipelineContext, PipelineReport

    ctx = PipelineContext(
        func=func,
        report=report if report is not None else PipelineReport(),
        level=level,
        machine=machine,
        live_out_exit=live_out_exit or set(),
        counted=counted,
        unroll_factor=unroll_factor,
        thr_unit_latency=thr_unit_latency,
    )
    mgr = PassManager(options, check=check)
    mgr.run_phase("ilp", ctx)
    mgr.run_phase("cleanup", ctx)
    return ctx.sb, ctx.report


def prologue_regions(func: Function, sb: SuperblockLoop):
    """The dominating chain into the superblock header as analysis regions.

    Blocks that dominate the header and precede it in layout, grouped into
    ``("straight", instrs)`` runs and ``("loop", instrs)`` regions for
    intervening loops (precondition loops) that do not contain the header.
    This lets memory disambiguation resolve address relationships
    established before a precondition loop, with the precondition's
    unknown pass count kept symbolic (see
    :class:`repro.analysis.memdep.AddressAnalysis`).
    """
    from .ir.loop import dominators

    dom = dominators(func)
    header_doms = dom.get(sb.header, set())
    loops = find_loops(func)
    regions: list[tuple] = []  # (kind, key, instrs)
    for blk in func.blocks:
        if blk.label == sb.header:
            break
        if blk.label not in header_doms:
            continue
        containing = [
            l for l in loops
            if blk.label in l.blocks and sb.header not in l.blocks
        ]
        if containing:
            inner = max(containing, key=lambda l: l.depth)
            key = ("loop", inner.header)
        else:
            key = ("straight", None)
        if regions and regions[-1][0] == key[0] and regions[-1][1] == key[1]:
            regions[-1][2].extend(blk.instrs)
        else:
            regions.append((key[0], key[1], list(blk.instrs)))
    return [(kind, instrs) for kind, _, instrs in regions]


@dataclass
class ScheduleInputs:
    """What the schedule phase needs of a function besides the issue
    width: the dependence DAG of every non-empty block, in layout order.

    A DAG observes the machine only through
    :meth:`~repro.machine.MachineConfig.latency_key` (latencies, slot
    limits, speculation flags, lanes), so one value serves every issue
    width of a cell: :class:`~repro.harness.TransformedKernel` shares one
    instance with all its clones and the first width to schedule fills it.
    Staleness rule: the graphs are reused only for a machine with the
    ``latency_key`` they were built for *and* a function whose blocks
    still hold the very instruction sequences they were built from
    (scheduling a kernel twice, or editing it, rebuilds).
    """

    latency_key: tuple | None = None
    graphs: list[DepGraph] = field(default_factory=list)

    def graphs_for(
        self,
        func: Function,
        machine: MachineConfig,
        live_out_exit: set[Reg],
        sb: SuperblockLoop | None,
        doall: bool,
    ) -> list[DepGraph]:
        """The DAGs of ``func``'s non-empty blocks under ``machine``,
        rebuilt (and remembered) when the stored ones are stale.

        Side-exit speculation limits come from the live-in sets of branch
        targets.  For the superblock body (``sb``), memory disambiguation
        sees the preheader and, for DOALL loops, the cross-iteration
        independence assertion.
        """
        key = machine.latency_key()
        blocks = [b for b in func.blocks if b.instrs]
        if key == self.latency_key and (
            [b.instrs for b in blocks] == [g.instrs for g in self.graphs]
        ):
            return self.graphs
        lv = liveness(func, live_out_exit)
        regions = prologue_regions(func, sb) if sb is not None else None
        graphs = []
        for blk in blocks:
            exit_live = {
                i: lv.live_in.get(ins.target.name, set())
                for i, ins in enumerate(blk.instrs)
                if ins.is_control and ins.target is not None
            }
            is_body = sb is not None and blk is sb.body
            # a private copy of the sequence: scheduling replaces (and
            # later edits may mutate) ``blk.instrs``
            graphs.append(build_depgraph(
                list(blk.instrs), machine, exit_live,
                prologue=regions if is_body else None,
                doall=doall and is_body,
            ))
        self.latency_key, self.graphs = key, graphs
        return graphs


def schedule_function(
    func: Function,
    machine: MachineConfig,
    live_out_exit: set[Reg] | None = None,
    sb: SuperblockLoop | None = None,
    doall: bool = False,
    check: bool = False,
    options=None,
    report=None,
    inputs: ScheduleInputs | None = None,
) -> dict[str, Schedule]:
    """List-schedule every block of ``func`` in place.

    Runs the registered ``schedule`` phase of the pass manager over the
    dependence DAGs of ``inputs`` (see :class:`ScheduleInputs`; pass the
    same instance again to share them across issue widths, omit it to
    build them for this call only).  Returns the per-block schedules
    (keyed by label).  With ``check=True`` the invariant verifier runs
    on the scheduled function — a scheduler that reorders a use above
    its flow-dependent definition is caught here.
    """
    from .passes import PassManager, PipelineContext, PipelineReport

    ctx = PipelineContext(
        func=func,
        report=report if report is not None else PipelineReport(),
        machine=machine,
        live_out_exit=live_out_exit or set(),
        sb=sb,
        doall=doall,
        schedule_inputs=inputs,
    )
    PassManager(options, check=check).run_phase("schedule", ctx)
    return ctx.schedules

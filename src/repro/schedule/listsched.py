"""Latency-weighted list scheduling of a linear region (superblock/block).

Implements the issue model shared with the simulator: up to ``issue_width``
instructions per cycle, in the order chosen here; a branch terminates its
packet; optional per-kind slot limits (ablation).  Priority is dependence
height (critical path to the end of the region), ties broken by original
program order so results are deterministic and match the paper's listings.

Within a cycle, ready non-branch instructions are placed before a ready
branch: the branch closes the packet, and issuing it last never delays it
(it still issues in the same cycle) while letting the packet fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from ..analysis.depgraph import DepGraph, build_depgraph
from ..ir.instructions import Instr
from ..ir.operands import Reg
from ..machine import MachineConfig


@dataclass
class Schedule:
    """Result of scheduling one region."""

    #: instructions in their new issue order
    order: list[Instr]
    #: issue cycle of each instruction in ``order``
    issue: list[int]
    machine: MachineConfig

    @property
    def makespan(self) -> int:
        """Completion time of the region: max over instructions of
        issue + latency.  This is the per-body cycle count the paper's
        worked examples report ("N cycles / k iterations")."""
        return max(
            (t + self.machine.latency(ins.op) for ins, t in zip(self.order, self.issue)),
            default=0,
        )

    @property
    def last_issue(self) -> int:
        return self.issue[-1] if self.issue else 0

    def pairs(self) -> list[tuple[Instr, int]]:
        return list(zip(self.order, self.issue))


def list_schedule(
    instrs: list[Instr],
    machine: MachineConfig,
    exit_live: dict[int, set[Reg]] | None = None,
    depgraph: DepGraph | None = None,
    prologue: list[Instr] | None = None,
    doall: bool = False,
) -> Schedule:
    """Schedule ``instrs``; returns the new order with issue times.

    The ready set is kept in priority-queue form rather than re-scanned
    per placement: ``avail_nb`` / ``avail_br`` hold issuable nodes
    (all predecessors placed, earliest issue cycle reached) keyed by the
    selection priority ``(-height, original index)``, and ``future``
    holds nodes whose predecessors are placed but whose operands are
    still in flight, keyed by earliest issue cycle.  Popping a heap
    yields exactly the candidate a full scan would have chosen, so the
    schedules are identical to the reference rescanning algorithm
    (asserted instruction-for-instruction by the golden tests) while
    placement drops from O(n) per instruction to O(log n).

    Nodes skipped by a per-kind slot limit are deferred to the side and
    re-pushed once the packet closes — slots only free at a cycle
    boundary, so they cannot become issuable earlier.
    """
    n = len(instrs)
    if n == 0:
        return Schedule([], [], machine)
    g = depgraph or build_depgraph(
        instrs, machine, exit_live, prologue=prologue, doall=doall
    )
    width = machine.issue_width if machine.issue_width > 0 else 1 << 30
    slot_limits = machine.slot_limits
    heights = g.heights()
    succs = g.succs

    is_ctrl = [ins.is_control for ins in instrs]
    kinds = [ins.kind for ins in instrs] if slot_limits else None
    unplaced_preds = list(g.pred_counts())
    #: earliest cycle each node may issue given already-placed predecessors
    #: (final by the time the node enters a heap: all preds are placed)
    earliest = [0] * n

    avail_nb: list[tuple[int, int]] = []  # (-height, j); issuable, not control
    avail_br: list[tuple[int, int]] = []  # (-height, j); issuable branches
    future: list[tuple[int, int, int]] = []  # (earliest, -height, j)
    for j in range(n):
        if unplaced_preds[j] == 0:
            (avail_br if is_ctrl[j] else avail_nb).append((-heights[j], j))
    heapify(avail_nb)
    heapify(avail_br)

    order: list[Instr] = []
    issue: list[int] = []
    cycle = 0
    remaining = n

    def place(j: int, t: int) -> None:
        nonlocal remaining
        order.append(instrs[j])
        issue.append(t)
        remaining -= 1
        seen: set[int] = set()
        for k, w in succs[j]:
            if earliest[k] < t + w:
                earliest[k] = t + w
            if k not in seen:
                seen.add(k)
                unplaced_preds[k] -= 1
                if unplaced_preds[k] == 0:
                    e = earliest[k]
                    if e <= cycle:
                        heappush(
                            avail_br if is_ctrl[k] else avail_nb,
                            (-heights[k], k),
                        )
                    else:
                        heappush(future, (e, -heights[k], k))

    while remaining:
        while future and future[0][0] <= cycle:
            _, nh, j = heappop(future)
            heappush(avail_br if is_ctrl[j] else avail_nb, (nh, j))
        issued = 0
        slot_used: dict = {}
        deferred: list[tuple[list, tuple[int, int]]] = []

        def pop_issuable(heap: list) -> int | None:
            while heap:
                entry = heappop(heap)
                if slot_limits:
                    kind = kinds[entry[1]]
                    lim = slot_limits.get(kind)
                    if lim is not None and slot_used.get(kind, 0) >= lim:
                        deferred.append((heap, entry))
                        continue
                    if lim is not None:
                        slot_used[kind] = slot_used.get(kind, 0) + 1
                return entry[1]
            return None

        # Non-branches first; a 0-weight edge (anti dependence, ordering)
        # can make a node ready *within* this same cycle — e.g. the
        # paper's Figure 1, where the induction increment issues in the
        # same cycle as the store that reads the old value — so `place`
        # feeds the avail heaps the inner loop is still draining.
        while issued < width:
            j = pop_issuable(avail_nb)
            if j is None:
                break
            place(j, cycle)
            issued += 1
        # then at most one branch, which closes the packet
        if issued < width:
            j = pop_issuable(avail_br)
            if j is not None:
                place(j, cycle)
                issued += 1
        for heap, entry in deferred:
            heappush(heap, entry)
        if issued == 0:
            if avail_nb or avail_br:
                # issuable work exists but was slot-blocked: idle one cycle
                cycle += 1
            else:
                assert future, "deadlock: no ready instructions"
                cycle = max(future[0][0], cycle + 1)
        else:
            cycle += 1

    return Schedule(order, issue, machine)

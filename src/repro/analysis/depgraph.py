"""Dependence DAG construction for scheduling a linear code region.

Nodes are positions in the instruction sequence (a superblock body or a
basic block).  Edges carry minimum issue-time separations consistent with
the machine model (see :mod:`repro.machine`):

* register flow:    def -> use,  weight = latency(def)
* register anti:    use -> def,  weight = 0   (reads happen at issue)
* register output:  def -> def,  weight = max(lat1 - lat2 + 1, 0)
  (a later write must complete strictly after an earlier one)
* memory flow/output: store -> {load,store}, weight 1, unless the
  addresses provably differ (symbolic disambiguation)
* memory anti:      load -> store, weight 0
* control:
  - branch -> branch, weight 1 (branches stay ordered; a branch ends its
    issue packet);
  - instr -> next-following branch, weight 0 (superblock scheduling does
    not move instructions *downward* past a branch — that is the
    bookkeeping trace scheduling needed and superblocks avoid);
  - branch -> later instr, weight 1, **unless** the instruction may be
    speculated above the branch: it cannot trap, is not a store or
    branch, the machine's speculation model covers it (non-excepting
    loads / FP), and its destination is not live at the branch target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.instructions import Instr, Kind
from ..ir.operands import Reg
from ..machine import MachineConfig
from .memdep import AddressAnalysis, may_alias


@dataclass
class DepGraph:
    instrs: list[Instr]
    #: succs[i] -> list of (j, weight)
    succs: list[list[tuple[int, int]]]
    preds: list[list[tuple[int, int]]]
    latency: list[int]
    #: memoised ``heights()`` / ``pred_counts()``: one graph serves every
    #: issue width of a cell, and neither depends on the width
    _heights: list[int] | None = field(default=None, repr=False)
    _pred_counts: list[int] | None = field(default=None, repr=False)

    def n(self) -> int:
        return len(self.instrs)

    def add_edge(self, i: int, j: int, w: int) -> None:
        assert i < j, f"dependence edge must go forward: {i} -> {j}"
        self.succs[i].append((j, w))
        self.preds[j].append((i, w))
        self._heights = self._pred_counts = None

    def heights(self) -> list[int]:
        """Critical-path priority: longest weighted path from each node to
        any sink, plus the node's own latency at the sink end.  The list
        is shared between callers: read it, do not mutate it."""
        if self._heights is not None:
            return self._heights
        n = self.n()
        h = [0] * n
        for i in range(n - 1, -1, -1):
            best = self.latency[i]
            for j, w in self.succs[i]:
                cand = w + h[j]
                if cand > best:
                    best = cand
            h[i] = best
        self._heights = h
        return h

    def pred_counts(self) -> list[int]:
        """Number of *distinct* predecessors of each node (parallel edges
        between one pair count once).  Shared like ``heights()``."""
        if self._pred_counts is None:
            self._pred_counts = [len({i for i, _ in ps}) for ps in self.preds]
        return self._pred_counts


def speculable(
    ins: Instr,
    machine: MachineConfig,
    target_live: set[Reg] | None,
) -> bool:
    """May ``ins`` be hoisted above a branch whose target's live-in set is
    ``target_live`` (None = unknown, be conservative)?"""
    if ins.is_store or ins.is_control or ins.may_trap:
        return False
    if ins.is_load and not machine.speculative_loads:
        return False
    k = ins.kind
    if k in (Kind.FP_ALU, Kind.FP_MUL, Kind.FP_DIV, Kind.FP_CVT,
             Kind.VEC_FALU, Kind.VEC_FMUL, Kind.VEC_FDIV) and not machine.speculative_fp:
        return False
    if ins.dest is not None:
        if target_live is None:
            return False
        if ins.dest in target_live:
            return False
    return True


def build_depgraph(
    instrs: list[Instr],
    machine: MachineConfig,
    exit_live: dict[int, set[Reg]] | None = None,
    addr_analysis: AddressAnalysis | None = None,
    prologue: list[Instr] | None = None,
    doall: bool = False,
) -> DepGraph:
    """Build the dependence DAG for one linear region.

    ``exit_live`` maps the *position* of each side-exit branch to the set of
    registers live at its target.  Unlisted branches are treated
    conservatively (nothing with a destination may be hoisted above them),
    except the final instruction, above which hoisting is meaningless.

    ``prologue`` (the loop preheader) sharpens memory disambiguation; see
    :class:`repro.analysis.memdep.AddressAnalysis`.  ``doall`` asserts the
    region is the body of a DOALL loop (KAP's classification, Table 2 of
    the paper): memory accesses from *different unrolled iterations*
    (``Instr.tag``) are then independent by definition.
    """
    n = len(instrs)
    g = DepGraph(
        instrs,
        [[] for _ in range(n)],
        [[] for _ in range(n)],
        [machine.latency(ins.op) for ins in instrs],
    )
    exit_live = exit_live or {}

    # --- register dependences -------------------------------------------
    last_def: dict[Reg, int] = {}
    uses_since_def: dict[Reg, list[int]] = {}
    for j, ins in enumerate(instrs):
        for r in ins.reg_uses():
            i = last_def.get(r)
            if i is not None:
                g.add_edge(i, j, g.latency[i])  # flow
            uses_since_def.setdefault(r, []).append(j)
        d = ins.dest
        if d is not None:
            for i in uses_since_def.get(d, ()):  # anti
                if i != j:
                    g.add_edge(i, j, 0)
            i = last_def.get(d)
            if i is not None:  # output
                g.add_edge(i, j, max(g.latency[i] - g.latency[j] + 1, 0))
            last_def[d] = j
            uses_since_def[d] = []

    # --- memory dependences -----------------------------------------------
    mem_positions = [i for i, ins in enumerate(instrs) if ins.is_mem]
    if mem_positions:
        aa = addr_analysis or AddressAnalysis(instrs, prologue)
        exprs = {i: aa.address_expr(i) for i in mem_positions}
        for a_idx in range(len(mem_positions)):
            i = mem_positions[a_idx]
            ins_i = instrs[i]
            for b_idx in range(a_idx + 1, len(mem_positions)):
                j = mem_positions[b_idx]
                ins_j = instrs[j]
                if not (ins_i.is_store or ins_j.is_store):
                    continue  # load-load: independent
                if (doall and ins_i.tag != ins_j.tag
                        and not (ins_i.is_vector or ins_j.is_vector)):
                    # different iterations of a DOALL loop; a vector access
                    # spans several iterations, so its tag proves nothing
                    continue
                if not may_alias(exprs[i], exprs[j],
                                 ins_i.mem_words, ins_j.mem_words):
                    continue
                if ins_i.is_store:
                    g.add_edge(i, j, 1)  # flow or output
                else:
                    g.add_edge(i, j, 0)  # anti

    # --- control dependences -------------------------------------------------
    branch_positions = [i for i, ins in enumerate(instrs) if ins.is_control]
    # branches stay ordered; a branch ends its packet
    for a, b in zip(branch_positions, branch_positions[1:]):
        g.add_edge(a, b, 1)
    # no downward motion past a branch
    bp = 0
    for i in range(n):
        while bp < len(branch_positions) and branch_positions[bp] <= i:
            bp += 1
        if bp < len(branch_positions) and not instrs[i].is_control:
            g.add_edge(i, branch_positions[bp], 0)
    # upward motion (speculation) above a branch only when safe
    for b in branch_positions:
        tl = exit_live.get(b)
        for j in range(b + 1, n):
            ins_j = instrs[j]
            if ins_j.is_control:
                continue  # branch-branch edges already added
            if not speculable(ins_j, machine, tl):
                g.add_edge(b, j, 1)

    return g

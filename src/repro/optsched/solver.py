"""Exact cycle-assignment scheduling: the constraint-solver core.

A scheduling instance (:class:`SchedProblem`) is a set of integer
variables ``t_i`` — the issue cycle of each instruction — constrained by

* **dependence separations** ``t_j - t_i >= w`` for every edge
  ``(i, j, w)``.  For acyclic block scheduling the edges come straight
  from the dependence DAG (:mod:`repro.analysis.depgraph`); for modulo
  scheduling at initiation interval II the caller folds the iteration
  distance in (``w = latency - II * distance``), which makes the
  constraint graph cyclic but free of positive cycles whenever
  ``II >= RecMII``;
* **per-cycle resources**: at most ``width`` instructions per bucket, at
  most ``branch_slots`` control instructions per bucket, and optional
  per-kind slot limits.  The bucket of cycle ``t`` is ``t`` itself for
  acyclic problems and ``t mod period`` for modulo problems, where every
  steady-state kernel cycle carries the overlapped iterations.

The engine is a branch-and-bound DFS over the cycle variables with
interval propagation (a CDCL-style trail records every domain tightening
so backtracking is exact):

* windows ``[lo_i, hi_i]`` start from longest-path closure and are
  re-tightened through the dependence edges after every assignment;
* variables are assigned in deterministic (earliest window, tightest
  window, lowest index) order; values ascend, skipping full buckets;
* the search budget is a **deterministic node count** — never wall
  clock — so a given (problem, budget) pair always returns the same
  answer, on any machine, which is what lets results be shared through
  the content-addressed store (see :func:`repro.optsched.problem_key`).

Anytime behavior is delegated to :class:`Incumbent`: the caller seeds it
with the heuristic schedule, and a candidate replaces the incumbent only
on a *strictly* smaller cost — equal-cost candidates keep the earlier
discovery — so repeated runs under any budget agree bit for bit.  This
pure-Python engine is the only solver: a stored result depends on
nothing the key does not name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_UNLIMITED = 1 << 30


class BudgetExhausted(Exception):
    """The deterministic node budget ran out before the search closed."""


@dataclass(frozen=True)
class SchedProblem:
    """One exact scheduling instance (see module docstring).

    ``kind`` holds the machine-kind name of each instruction ("" when no
    slot limit applies to it), ``edges`` the separation constraints
    ``t_j - t_i >= w``, and ``period`` selects modulo resource buckets
    (``None`` = acyclic).  The instance is immutable and fully describes
    the solver's inputs, so its canonical form is a valid cache key.
    """

    latency: tuple[int, ...]
    is_branch: tuple[bool, ...]
    kind: tuple[str, ...]
    edges: tuple[tuple[int, int, int], ...]
    width: int               # issue slots per bucket (0 = unlimited)
    branch_slots: int = 1
    slot_limits: tuple[tuple[str, int], ...] = ()
    period: int | None = None

    @property
    def n(self) -> int:
        return len(self.latency)

    @property
    def effective_width(self) -> int:
        return self.width if self.width > 0 else _UNLIMITED

    def canonical(self) -> dict:
        """JSON-stable identity of the instance (cache keying)."""
        return {
            "latency": list(self.latency),
            "is_branch": [int(b) for b in self.is_branch],
            "kind": list(self.kind),
            "edges": sorted(list(e) for e in self.edges),
            "width": self.width,
            "branch_slots": self.branch_slots,
            "slot_limits": sorted(list(s) for s in self.slot_limits),
            "period": self.period,
        }


@dataclass
class Incumbent:
    """Anytime best-so-far with a stable (cost, discovery-order) tie-break.

    ``offer`` accepts a candidate only when its cost is *strictly* lower
    than the current incumbent's: an equal-cost candidate discovered
    later never displaces an earlier one.  Every timeout path returns
    whatever the incumbent holds, so two runs of the same search — or a
    cold run and a store-cached replay — can never disagree about the
    fallback schedule.
    """

    cost: int
    assignment: tuple[int, ...] | None = None
    #: offer() calls seen; the accepted one is recorded in ``discovered``
    offers: int = 0
    discovered: int = 0

    def offer(self, cost: int, assignment: tuple[int, ...]) -> bool:
        self.offers += 1
        if cost < self.cost:
            self.cost = cost
            self.assignment = assignment
            self.discovered = self.offers
            return True
        return False


@dataclass(frozen=True)
class SolveOutcome:
    """Result of an optimality search.

    ``assignment`` is ``None`` when the incumbent (the caller's
    heuristic seed) was never beaten — either because it is provably
    optimal or because the budget ran out first; ``status`` says which.
    """

    assignment: tuple[int, ...] | None
    cost: int
    optimal: bool
    proved_lb: int
    nodes: int
    status: str  # "optimal" | "timeout-incumbent" | "too-large"


class _Budget:
    """Mutable deterministic node counter shared across one search."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, k: int = 1) -> None:
        self.used += k
        if self.used > self.limit:
            raise BudgetExhausted


def _adjacency(n: int, edges) -> tuple[list, list]:
    succs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, w in edges:
        succs[i].append((j, w))
        preds[j].append((i, w))
    return succs, preds


def _closure(n, succs, preds, lo, hi, rounds) -> bool:
    """Longest-path window tightening to fixpoint (Bellman-Ford style).

    Returns False when some window empties — or fails to converge in
    ``rounds`` passes, which for a cyclic (modulo) instance means a
    positive cycle, i.e. infeasibility at this II.
    """
    for _ in range(rounds):
        changed = False
        for i in range(n):
            li = lo[i]
            for j, w in succs[i]:
                if li + w > lo[j]:
                    lo[j] = li + w
                    changed = True
        for i in range(n - 1, -1, -1):
            hi_i = hi[i]
            for j, w in succs[i]:
                if hi[j] - w < hi_i:
                    hi_i = hi[j] - w
            hi[i] = hi_i
        for i in range(n):
            if lo[i] > hi[i]:
                return False
        if not changed:
            return True
    return False


def asap_times(problem: SchedProblem) -> list[int]:
    """Earliest start of each variable by longest-path closure from 0."""
    n = problem.n
    succs, preds = _adjacency(n, problem.edges)
    lo = [0] * n
    hi = [_UNLIMITED] * n
    _closure(n, succs, preds, lo, hi, n + 2)
    return lo


def heights(problem: SchedProblem) -> list[int]:
    """Critical-path height of each variable: longest weighted path to
    any sink plus the sink's latency (acyclic problems only)."""
    n = problem.n
    succs, _ = _adjacency(n, problem.edges)
    h = list(problem.latency)
    for i in range(n - 1, -1, -1):
        for j, w in succs[i]:
            if w + h[j] > h[i]:
                h[i] = w + h[j]
    return h


def lower_bound(problem: SchedProblem) -> int:
    """Provable lower bound on the acyclic makespan.

    The maximum of the critical path (longest dependence path including
    the final latency), the issue-width bound ``ceil(n / width)``, the
    branch-slot bound, and each per-kind slot-limit bound.
    """
    n = problem.n
    if n == 0:
        return 0
    est = asap_times(problem)
    hs = heights(problem)
    cp = max(e + h for e, h in zip(est, hs))
    width = problem.effective_width
    bounds = [cp, math.ceil(n / width)]
    n_branch = sum(1 for b in problem.is_branch if b)
    if n_branch:
        bounds.append(math.ceil(n_branch / max(problem.branch_slots, 1)))
    for kind, lim in problem.slot_limits:
        count = sum(1 for k in problem.kind if k == kind)
        if count and lim > 0:
            bounds.append(math.ceil(count / lim))
    return max(bounds)


# ---------------------------------------------------------------------------
# the DFS decision engine
# ---------------------------------------------------------------------------


def solve_decision(
    problem: SchedProblem,
    lo0: list[int],
    hi0: list[int],
    budget: _Budget,
) -> tuple[int, ...] | None:
    """Find an assignment within the windows, or prove none exists.

    Deterministic: variable order, value order, and propagation are all
    fixed functions of the instance.  Raises :class:`BudgetExhausted`
    when the node budget runs out before the search closes.
    """
    n = problem.n
    if n == 0:
        return ()
    succs, preds = _adjacency(n, problem.edges)
    lo = list(lo0)
    hi = list(hi0)
    if not _closure(n, succs, preds, lo, hi, n + 2):
        return None

    period = problem.period
    width = problem.effective_width
    br_cap = max(problem.branch_slots, 1)
    limits = dict(problem.slot_limits)
    kinds = problem.kind
    is_br = problem.is_branch

    used: dict[int, int] = {}
    used_br: dict[int, int] = {}
    used_kind: dict[tuple[str, int], int] = {}

    def bucket(t: int) -> int:
        return t % period if period else t

    def fits(i: int, t: int) -> bool:
        b = bucket(t)
        if used.get(b, 0) >= width:
            return False
        if is_br[i] and used_br.get(b, 0) >= br_cap:
            return False
        k = kinds[i]
        lim = limits.get(k)
        if lim is not None and used_kind.get((k, b), 0) >= lim:
            return False
        return True

    def occupy(i: int, t: int, delta: int) -> None:
        b = bucket(t)
        used[b] = used.get(b, 0) + delta
        if is_br[i]:
            used_br[b] = used_br.get(b, 0) + delta
        k = kinds[i]
        if k in limits:
            key = (k, b)
            used_kind[key] = used_kind.get(key, 0) + delta

    def propagate(root: int, trail: list) -> bool:
        stack = [root]
        while stack:
            u = stack.pop()
            for j, w in succs[u]:
                nl = lo[u] + w
                if nl > lo[j]:
                    trail.append((0, j, lo[j]))
                    lo[j] = nl
                    if nl > hi[j]:
                        return False
                    stack.append(j)
            for p, w in preds[u]:
                nh = hi[u] - w
                if nh < hi[p]:
                    trail.append((1, p, hi[p]))
                    hi[p] = nh
                    if lo[p] > nh:
                        return False
                    stack.append(p)
        return True

    def undo(trail: list) -> None:
        for which, idx, old in reversed(trail):
            if which == 0:
                lo[idx] = old
            else:
                hi[idx] = old

    assigned: list[int | None] = [None] * n

    branch_idxs = [i for i in range(n) if is_br[i]]
    kind_idxs = {
        k: [i for i in range(n) if kinds[i] == k] for k in limits
    }

    def interval_ok(idxs, used_map, cap, horizon) -> bool:
        """Hall-style interval cut: in every prefix [0..c] (and suffix),
        the unassigned variables confined there must fit the free
        capacity.  Acyclic only — modulo buckets wrap around."""
        must_by = [0] * (horizon + 1)
        from_c = [0] * (horizon + 1)
        pending = 0
        for i in idxs:
            if assigned[i] is None:
                must_by[hi[i]] += 1
                from_c[lo[i]] += 1
                pending += 1
        if not pending:
            return True
        run = need = 0
        for c in range(horizon + 1):
            run += cap - used_map.get(c, 0)
            need += must_by[c]
            if need > run:
                return False
        run = need = 0
        for c in range(horizon, -1, -1):
            run += cap - used_map.get(c, 0)
            need += from_c[c]
            if need > run:
                return False
        return True

    def cuts() -> bool:
        if period:
            return True
        horizon = 0
        for i in range(n):
            if assigned[i] is None and hi[i] > horizon:
                horizon = hi[i]
        if width < _UNLIMITED and not interval_ok(
            range(n), used, width, horizon
        ):
            return False
        if branch_idxs and not interval_ok(
            branch_idxs, used_br, br_cap, horizon
        ):
            return False
        for k, lim in limits.items():
            kused = {b: v for (kk, b), v in used_kind.items() if kk == k}
            if not interval_ok(kind_idxs[k], kused, lim, horizon):
                return False
        return True

    def pick() -> int | None:
        best = None
        best_key = None
        for i in range(n):
            if assigned[i] is not None:
                continue
            key = (lo[i], hi[i] - lo[i], i)
            if best_key is None or key < best_key:
                best_key = key
                best = i
        return best

    def dfs(remaining: int) -> bool:
        if remaining == 0:
            return True
        i = pick()
        t = lo[i]
        while t <= hi[i]:
            budget.charge()
            if not fits(i, t):
                t += 1
                continue
            trail: list = [(0, i, lo[i]), (1, i, hi[i])]
            lo[i] = hi[i] = t
            assigned[i] = t
            occupy(i, t, +1)
            if propagate(i, trail) and cuts() and dfs(remaining - 1):
                return True
            occupy(i, t, -1)
            assigned[i] = None
            undo(trail)
            t += 1
        return False

    if cuts() and dfs(n):
        return tuple(assigned)  # type: ignore[arg-type]
    return None


# ---------------------------------------------------------------------------
# optimality search (acyclic makespan minimization)
# ---------------------------------------------------------------------------


#: default deterministic node budget for one block's optimality search
DEFAULT_BUDGET = 50_000

#: instances larger than this skip the exact search outright
MAX_EXACT_N = 512


def minimize_makespan(
    problem: SchedProblem,
    ub_cost: int,
    ub_assignment: tuple[int, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SolveOutcome:
    """Minimize the acyclic makespan below a heuristic upper bound.

    ``ub_cost``/``ub_assignment`` seed the incumbent (the heuristic
    schedule).  The search ascends the decision ladder from the provable
    lower bound: the first feasible length is optimal because every
    shorter length was proven infeasible.  On budget exhaustion the
    incumbent is returned unchanged (``status="timeout-incumbent"``).
    """
    n = problem.n
    if n > MAX_EXACT_N:
        return SolveOutcome(ub_assignment, ub_cost, False,
                            0, 0, "too-large")
    lb = lower_bound(problem)
    incumbent = Incumbent(ub_cost, ub_assignment)
    if ub_cost <= lb:
        # the heuristic already sits on a provable lower bound
        return SolveOutcome(incumbent.assignment, incumbent.cost, True,
                            lb, 0, "optimal")

    est = asap_times(problem)
    hs = heights(problem)
    b = _Budget(budget)
    proved = lb  # optimal >= proved: every target below it was closed
    for target in range(lb, ub_cost):
        proved = target
        lo = list(est)
        hi = [target - h for h in hs]
        try:
            sol = solve_decision(problem, lo, hi, b)
        except BudgetExhausted:
            return SolveOutcome(incumbent.assignment, incumbent.cost, False,
                                proved, b.used, "timeout-incumbent")
        if sol is not None:
            # infeasible below `target`, feasible at it: provably optimal
            incumbent.offer(target, sol)
            return SolveOutcome(incumbent.assignment, incumbent.cost, True,
                                proved, b.used, "optimal")
    # every length below the heuristic's is infeasible: it was optimal
    return SolveOutcome(incumbent.assignment, incumbent.cost, True,
                        ub_cost, b.used, "optimal")


def verify_assignment(problem: SchedProblem, assignment) -> None:
    """Assert an assignment satisfies every constraint of the instance.

    Cheap (linear) and run on every solver result that replaces a
    heuristic schedule — a solver bug must fail loudly, never ship a
    subtly illegal schedule.
    """
    n = problem.n
    assert len(assignment) == n, "assignment arity mismatch"
    for i, j, w in problem.edges:
        assert assignment[j] - assignment[i] >= w, (
            f"dependence violated: t[{j}]={assignment[j]} - "
            f"t[{i}]={assignment[i]} < {w}"
        )
    period = problem.period
    width = problem.effective_width
    used: dict[int, int] = {}
    used_br: dict[int, int] = {}
    used_kind: dict[tuple[str, int], int] = {}
    limits = dict(problem.slot_limits)
    for i, t in enumerate(assignment):
        assert t >= 0, f"negative issue time t[{i}]={t}"
        b = t % period if period else t
        used[b] = used.get(b, 0) + 1
        assert used[b] <= width, f"issue width exceeded in bucket {b}"
        if problem.is_branch[i]:
            used_br[b] = used_br.get(b, 0) + 1
            assert used_br[b] <= max(problem.branch_slots, 1), (
                f"branch slots exceeded in bucket {b}"
            )
        k = problem.kind[i]
        if k in limits:
            key = (k, b)
            used_kind[key] = used_kind.get(key, 0) + 1
            assert used_kind[key] <= limits[k], (
                f"slot limit for {k} exceeded in bucket {b}"
            )

"""repro.optsched — provably optimal scheduling, a measurement of the
list scheduler.

The compiler schedules with the list scheduler only; the exact solvers
measure how far from optimal it is (``repro headroom``, ``repro mii
--exact``):

* :mod:`.solver` — the pure-Python branch-and-bound cycle-assignment
  engine (deterministic node budgets, stable anytime incumbents);
* :mod:`.blocksched` — exact acyclic block scheduling with critical-path
  + resource lower-bound proofs and heuristic fallback under timeout,
  per block or (:func:`schedule_exactly`) per transformed kernel;
* :mod:`.modulo` — exact modulo scheduling by incremental II search from
  ``max(ResMII, RecMII)``.

Both schedulers take an optional ``store``: solver results are plain
entries of the service's artifact store under
:func:`~.blocksched.problem_key`.
"""

from .blocksched import (
    SOLVER_VERSION,
    OptResult,
    optimal_block_schedule,
    problem_key,
    schedule_exactly,
)
from .modulo import DEFAULT_MODULO_BUDGET, ModuloSchedule, modulo_schedule
from .solver import (
    DEFAULT_BUDGET,
    Incumbent,
    SchedProblem,
    SolveOutcome,
    lower_bound,
    minimize_makespan,
    solve_decision,
    verify_assignment,
)

__all__ = [
    "SOLVER_VERSION", "OptResult", "optimal_block_schedule", "problem_key",
    "schedule_exactly",
    "DEFAULT_MODULO_BUDGET", "ModuloSchedule", "modulo_schedule",
    "DEFAULT_BUDGET", "Incumbent", "SchedProblem", "SolveOutcome",
    "lower_bound", "minimize_makespan", "solve_decision",
    "verify_assignment",
]

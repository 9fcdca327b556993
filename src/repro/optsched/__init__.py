"""repro.optsched — provably optimal scheduling (the ``optimal`` backend).

A swappable alternative to heuristic list scheduling, selected with
``--scheduler optimal`` through the pass manager:

* :mod:`.solver` — the pure-Python branch-and-bound cycle-assignment
  engine (deterministic node budgets, stable anytime incumbents);
* :mod:`.blocksched` — exact acyclic block scheduling with critical-path
  + resource lower-bound proofs and heuristic fallback under timeout;
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
    "DEFAULT_MODULO_BUDGET", "ModuloSchedule", "modulo_schedule",
    "DEFAULT_BUDGET", "Incumbent", "SchedProblem", "SolveOutcome",
    "lower_bound", "minimize_makespan", "solve_decision",
    "verify_assignment",
]

"""repro.check — the differential correctness oracle.

Three layers of defense against miscompiles (see DESIGN.md, "Correctness
architecture"):

* :mod:`repro.check.refeval` — a reference evaluator: direct sequential
  interpretation of IR, independent of the cycle-accurate simulator's
  packet/interlock machinery.  Running it on the *naive lowered* IR of a
  kernel yields the golden final state every optimization level must
  reproduce.
* :mod:`repro.check.oracle` — the differential oracle: compiles every
  corpus kernel at Conv..Lev5 across machine configs and asserts the
  simulated final memory/scalar state matches the golden state, with
  first-divergent-store provenance on failure.
* :mod:`repro.check.fuzz` — a seeded random loop-nest generator with
  greedy test-case shrinking, for coverage beyond the 40 fixed kernels.

Entry point: ``python -m repro check``.
"""

from .fuzz import FuzzFailure, fuzz, random_workload, shrink_kernel
from .oracle import Divergence, OracleReport, check_workload, run_oracle
from .refeval import RefEvalError, RefResult, ref_eval, reference_run

__all__ = [
    "Divergence", "OracleReport", "check_workload", "run_oracle",
    "RefEvalError", "RefResult", "ref_eval", "reference_run",
    "FuzzFailure", "fuzz", "random_workload", "shrink_kernel",
]

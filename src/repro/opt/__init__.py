"""repro.opt — the classical ("Conv") optimizer."""

from .constprop import propagate_constants
from .copyprop import propagate_copies_local
from .cse import eliminate_common_subexpressions
from .dce import eliminate_dead_code
from .driver import run_conv
from .ivsr import strength_reduce_ivs
from .licm import hoist_loop_invariants
from .redundant_mem import eliminate_redundant_memory

__all__ = [
    "propagate_constants",
    "propagate_copies_local",
    "eliminate_common_subexpressions",
    "eliminate_dead_code",
    "run_conv",
    "strength_reduce_ivs",
    "hoist_loop_invariants",
    "eliminate_redundant_memory",
]

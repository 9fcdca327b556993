"""repro.analysis — dataflow, liveness, dependence, and loop-variable
analyses used by the optimizer, transformations, and scheduler."""

from .defuse import DefUse
from .liveness import Liveness, block_gen_kill, live_at_instr_positions, liveness
from .memdep import AddressAnalysis, AddrExpr, may_alias
from .depgraph import DepGraph, build_depgraph, speculable
from .loopvars import (
    AccumulatorInfo,
    CountedLoop,
    InductionInfo,
    SearchInfo,
    find_accumulators,
    find_inductions,
    find_search_variables,
)

__all__ = [
    "DefUse",
    "Liveness", "block_gen_kill", "live_at_instr_positions", "liveness",
    "AddressAnalysis", "AddrExpr", "may_alias",
    "DepGraph", "build_depgraph", "speculable",
    "AccumulatorInfo", "CountedLoop", "InductionInfo", "SearchInfo",
    "find_accumulators", "find_inductions", "find_search_variables",
]

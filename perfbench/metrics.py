"""The benchmark's metric registry: every workload, end-to-end metric and
per-layer metric, with unit, direction, bound, exactness and the
interaction table (which end-to-end metric on which workload a layer
metric is expected to move).

``BENCHMARK.json`` at the repository root is the projection of this
registry onto the keys the benchmark contract allows; regenerate it with
``python3 perfbench/metrics.py > BENCHMARK.json`` (a self-test compares
the two).  Everything the contract has no key for — exact flags, the
interaction table, which workloads a layer metric is measured on — lives
only here and in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: measurement budget of one driver run; see README "Run length"
RUN_SECONDS = 25

GRID_COLD, GRID_WARM, TRACE_BIG, SERVE = (
    "grid_cold", "grid_warm", "trace_big", "serve")

WORKLOADS = {
    GRID_COLD: "cold sweep of every third Table-2 loop x 6 levels x 4 widths "
               "(336 cells) in a fresh process: compile-dominated, so "
               "regalloc, scheduling and ILP-pass work must show here",
    GRID_WARM: "the 960 committed results put into an empty store, then 20 "
               "sweeps served from it: bypasses every compile and simulator "
               "layer, only keys and store work",
    TRACE_BIG: "four 262144-element kernels at Conv/Lev4/Lev5 x 4 widths: "
               "the simulator of grid_cold used the opposite way, execute, "
               "replay and array binding are 85% and set-up is 2%",
    SERVE: "3-node cluster behind the router: 40 first-touch /v1/run misses, "
           "1500 warm-up hits, 1000 timed hits in blocks; the HTTP, router, "
           "jobs and store-read path",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    #: repeats bit-for-bit on one commit, so it may be claimed on as a count
    exact: bool
    doc: str


END_TO_END = [
    EndToEnd("ops_per_s", "1/s", "higher", 0.20, False,
             "ops per second of the steady phase; the op is per workload: "
             "a grid config (grid_cold, grid_warm phase B), a simulated "
             "dynamic instruction (trace_big), a request (serve hits)"),
    EndToEnd("first_touch_ms", "ms", "lower", 0.25, False,
             "mean wall ms per op of the work no cache can answer: a cold "
             "config (grid_cold), a store put (grid_warm phase A), the "
             "staged compile of one cell (trace_big), a miss request "
             "(serve)"),
    EndToEnd("setup_s", "s", "lower", 0.25, False,
             "process start to first timed op: imports, corpus build, "
             "input generation, cluster start; median over set-ups"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, False,
             "ru_maxrss of the repetition's own process"),
    EndToEnd("model_cycles", "cycles", "lower", 1e-9, True,
             "sum of simulated cycles over the distinct configs answered; "
             "exact, the bound only has to be a positive share"),
]


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: workloads whose traced run measures it (0 elsewhere: bypassed)
    workloads: tuple
    exact: bool
    #: (end-to-end metric, workload) pairs this layer should move
    moves: tuple
    #: workloads it should leave alone
    leaves: tuple = ()


PASSES = (
    "accumulate", "cleanup-branch-fold", "cleanup-constprop",
    "cleanup-copyprop", "cleanup-dce", "cleanup-redundant-mem",
    "cleanup-unreachable", "coalesce", "combine", "constprop",
    "copyprop-global", "copyprop-local", "cse", "dce", "induction", "ivsr",
    "licm", "listsched", "redundant-mem", "rename", "search", "slp",
    "strength", "superblock", "treeheight", "unroll",
)

_SIM = (GRID_COLD, TRACE_BIG)
_COMPILE_MOVES = (("ops_per_s", GRID_COLD), ("first_touch_ms", GRID_COLD),
                  ("first_touch_ms", SERVE))
_COMPILE_LEAVES = (GRID_WARM, TRACE_BIG)
_SETUP_MOVES = (("ops_per_s", GRID_COLD),)
_EXEC_MOVES = (("ops_per_s", TRACE_BIG),)
_STORE_READ_MOVES = (("ops_per_s", GRID_WARM), ("ops_per_s", SERVE))
_HOP_MOVES = (("ops_per_s", SERVE),)
_NOT_SERVE = (GRID_COLD, GRID_WARM, TRACE_BIG)


def _layers() -> list[Layer]:
    out: list[Layer] = []

    def secs(names, workloads, moves, leaves=()):
        for n in names:
            out.append(Layer(n, "s", "lower", workloads, False, moves, leaves))

    def counts(names, workloads, better="lower"):
        for n in names:
            out.append(Layer(n, "count", better, workloads, True, ()))

    # compile path, re-staging sweep._run_task with public functions
    # (trace_big builds its kernels and inputs during set-up)
    secs(("workloads.build_s", "workloads.make_inputs_s"),
         (GRID_COLD,), _COMPILE_MOVES, _COMPILE_LEAVES)
    secs(("frontend.lower_s", "opt.conv_s", "harness.conv_clone_s",
          "transforms.ilp_s", "harness.tk_clone_s",
          "schedule.schedule_kernel_s", "regalloc.measure_s"),
         _SIM, _COMPILE_MOVES, _COMPILE_LEAVES)
    for p in PASSES:
        out.append(Layer(f"passes.{p}_s", "s", "lower", _SIM, False,
                         _COMPILE_MOVES, _COMPILE_LEAVES))
        out.append(Layer(f"passes.{p}_rewrites", "count", "higher", _SIM,
                         True, ()))
    # off-path probes: one extra call per (loop, level)
    secs(("analysis.depgraph_s", "schedule.list_schedule_s",
          "regalloc.interference_s"),
         (GRID_COLD,), _COMPILE_MOVES, _COMPILE_LEAVES)
    # simulation path (trace_big checks against NumPy, untimed)
    secs(("workloads.check_run_s",), (GRID_COLD,), _SETUP_MOVES, (GRID_WARM,))
    secs(("harness.bind_inputs_s", "harness.collect_outputs_s"),
         _SIM, _SETUP_MOVES, (GRID_WARM,))
    secs(("sim.compiled_program_s", "sim.blockgen.exec_plan_s",
          "sim.replay_spec_s"), _SIM, _SETUP_MOVES, (GRID_WARM, TRACE_BIG))
    secs(("sim.blockgen.execute_s", "sim.replay_s"),
         _SIM, _EXEC_MOVES, (GRID_WARM, GRID_COLD))
    secs(("sim.interp_s",), _SIM,
         (("ops_per_s", GRID_COLD), ("ops_per_s", TRACE_BIG)))
    out.append(Layer("sim.setup_share", "share", "lower", _SIM, False,
                     _SETUP_MOVES, (TRACE_BIG,)))
    out.append(Layer("sim.compiled_instr_per_s", "1/s", "higher", _SIM,
                     False, _EXEC_MOVES, (GRID_COLD,)))
    out.append(Layer("sim.interp_instr_per_s", "1/s", "higher", _SIM,
                     False, ()))
    counts(("ir.static_instrs", "schedule.makespan_sum", "regalloc.regs_sum",
            "transforms.unroll_factor_sum", "sim.dyn_instrs",
            "sim.model_cycles", "sim.replay_fallbacks",
            "sim.engine_unsupported"), _SIM)
    # store path
    secs(("keys.fingerprint_s", "keys.request_key_s", "store.open_s",
          "store.get_s"), (GRID_WARM,), _STORE_READ_MOVES,
         (GRID_COLD, TRACE_BIG))
    secs(("store.put_s",), (GRID_WARM,), (("first_touch_ms", GRID_WARM),),
         (GRID_COLD, TRACE_BIG))
    counts(("store.bytes",), (GRID_WARM,))
    counts(("store.hits", "store.puts"), (GRID_WARM,), "higher")
    counts(("store.misses", "store.put_retries"), (GRID_WARM,))
    # serving path: p50 of nested calls, a hop = difference of two layers
    for n in ("jobs.hit_ms", "server.hit_ms", "server.http_hop_ms",
              "node.hit_ms", "node.forward_hop_ms", "router.hit_ms",
              "router.hop_ms", "serve.p50_ms", "serve.p95_ms"):
        out.append(Layer(n, "ms", "lower", (SERVE,), False, _HOP_MOVES,
                         _NOT_SERVE))
    for n in ("jobs.miss_ms", "jobs.compute_cell_ms", "jobs.miss_overhead_ms"):
        out.append(Layer(n, "ms", "lower", (SERVE,), False,
                         (("first_touch_ms", SERVE),), (GRID_WARM, TRACE_BIG)))
    counts(("jobs.hits", "jobs.misses", "jobs.batched_cells", "jobs.computed",
            "router.routed"), (SERVE,), "higher")
    counts(("jobs.joined", "jobs.shed", "jobs.errors", "router.failovers",
            "router.unroutable"), (SERVE,))
    # the tracer itself
    every = tuple(WORKLOADS)
    out.append(Layer("trace.overhead_share", "share", "lower", every, False, ()))
    out.append(Layer("trace.coverage", "share", "higher", every, False, ()))
    return out


PER_LAYER = _layers()
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
EXACT_LAYERS = frozenset(m.name for m in PER_LAYER if m.exact)


def benchmark_json() -> dict:
    """The registry in the benchmark contract's schema (those keys only)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))

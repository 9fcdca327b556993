"""CI engine smoke: run a reduced sweep grid under the compiled engine
and the reference and require byte-identical results.

The trace-once / time-many engine (DESIGN.md §13) times every cell;
the reference (``engine="interp"``: the sequential reference evaluator
timed by ``repro.check.timing``) is what it must match: the same
cycles, instruction counts, final memory/register state, and derived
metrics for every configuration.  This script is the
cross-engine identity gate — it diffs the two sweeps field-by-field
(ignoring only the ``t_*`` wall-clock phase timings, which differ
between engines by definition) and reports the wall-clock ratio as a
perf smoke signal without gating on it (CI runners are too noisy for a
hard threshold; the gated numbers live in benchmarks/bench_sim_perf.py).

It also requires that the compiled sweep never called the reference:
identical numbers prove nothing about the replay path if the
reference produced both.  The same identity is then required on the
slot-limited machine of ``benchmarks/bench_ablation_slots.py``, every
workload at every level, through ``run_config``.

The corpus (n ~ 100) barely iterates a loop block, so a last step runs
four corpus-shaped kernels at n = 4096 — a DOALL loop with stores, a
serial FP reduction, a search loop with a side exit and a 2-deep
stencil nest — at Conv/Lev4/Lev5 x widths 1/2/4/8: the compiled engine
(``BatchedRunner``: execute once, replay per width) must match the
reference exactly there too, again without calling it.

The off-the-end step runs a daxpy whose loop reads one element past
``n`` at Conv/Lev4/Lev5: the block code and the reference must each
fault with the same ``load from uninitialized address`` message, naming that element's address or the
base of a vector load that reaches it (the memory rule of
``repro.sim.memory``).

Run:  python .github/scripts/engine_smoke.py
"""

import os
import re
import sys
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np                                     # noqa: E402

import repro.check.timing as timing                   # noqa: E402
from repro.experiments.sweep import (                  # noqa: E402
    run_config, run_sweep, strip_timings,
)
from repro.frontend.ast import (                       # noqa: E402
    ArrayDecl, Kernel, Ty, aref, assign, do, if_, var,
)
from repro.harness import (                            # noqa: E402
    BatchedRunner, bind_inputs, ilp_transform, lower_conv,
    run_compiled_kernel, schedule_kernel,
)
from repro.ir.instructions import Kind                 # noqa: E402
from repro.machine import MachineConfig                # noqa: E402
from repro.pipeline import Level                       # noqa: E402
from repro.sim import SimMemoryError                   # noqa: E402
from repro.workloads import get_workload, ints         # noqa: E402

#: reduced but shape-diverse: FP DOALL, serial reductions, a search
#: loop with a side exit, and a multi-block simulation-heavy nest
WORKLOADS = ("add", "dotprod", "sum", "maxval", "LWS-1", "NAS-5")
LEVELS = tuple(Level)
WIDTHS = (1, 2, 4, 8)
#: bench_ablation_slots.py's machine: one FP add, multiply and divide slot
FP_LIMITED = MachineConfig(
    issue_width=8,
    slot_limits={Kind.FP_ALU: 1, Kind.FP_MUL: 1, Kind.FP_DIV: 1},
)


#: the long-trace step: trip count and levels
LONG_N = 4096
LONG_LEVELS = (Level.CONV, Level.LEV4, Level.LEV5)


def _long_kernels(n: int) -> list:
    """Four corpus-shaped kernels with ``n``-long traces, with inputs."""
    fp = Ty.FP
    i, j, t = var("i"), var("j"), var("t")
    side = int(n ** 0.5)
    rng = np.random.default_rng(0)
    maxval_a = ints(rng, n)
    maxval_a[:: n // 16] = 10.0 + np.arange(16)  # 16 side exits taken
    return [
        (Kernel("daxpy_long",
                arrays={"X": ArrayDecl(fp, (n,)), "Y": ArrayDecl(fp, (n,))},
                scalars={"a": fp},
                body=[do("i", 1, n, [
                    assign(aref("Y", i), aref("Y", i) + var("a") * aref("X", i)),
                ], kind="doall")]),
         {"X": ints(rng, n), "Y": ints(rng, n)}, {"a": 3.0}),
        (Kernel("dot_long",
                arrays={"A": ArrayDecl(fp, (n,)), "B": ArrayDecl(fp, (n,))},
                scalars={"s": fp}, outputs=["s"],
                body=[do("i", 1, n, [
                    assign(var("s"), var("s") + aref("A", i) * aref("B", i)),
                ], kind="serial")]),
         {"A": ints(rng, n), "B": ints(rng, n)}, {"s": 0.0}),
        (Kernel("maxval_long",
                arrays={"A": ArrayDecl(fp, (n,))},
                scalars={"m": fp, "t": fp}, outputs=["m"],
                body=[do("i", 1, n, [
                    assign(t, aref("A", i)),
                    if_(t > var("m"), [assign(var("m"), t)], p_then=0.2),
                ], kind="serial")]),
         {"A": maxval_a}, {"m": 0.0}),
        (Kernel("stencil_long",
                arrays={"A": ArrayDecl(fp, (side, side)),
                        "B": ArrayDecl(fp, (side, side))},
                scalars={},
                body=[do("j", 2, side - 1, [do("i", 2, side - 1, [
                    assign(aref("B", i, j),
                           aref("A", i - 1, j) + aref("A", i + 1, j)
                           + aref("A", i, j - 1) + aref("A", i, j + 1)
                           - aref("A", i, j) * 4.0),
                ], kind="doall")])]),
         {"A": ints(rng, (side, side)), "B": np.zeros((side, side))}, {}),
    ]


def _run_diff(key, a, b) -> bool:
    """Print where two kernel runs differ."""
    bad = [f for f in ("cycles", "instructions", "scalars")
           if getattr(a, f) != getattr(b, f)]
    bad += [f"array {name}" for name in sorted(set(a.arrays) | set(b.arrays))
            if not np.array_equal(a.arrays.get(name), b.arrays.get(name))]
    for f in bad:
        print(f"FAIL: {key}: {f} differs between reference and compiled")
    return bool(bad)


def _long_traces(interp_calls: list) -> tuple[int, int]:
    """(configurations, diverging configurations) of the long-trace step;
    the compiled side's reference calls land in ``interp_calls``."""
    n_cfg = bad = 0
    for kernel, arrays, scalars in _long_kernels(LONG_N):
        conv = lower_conv(kernel)
        for level in LONG_LEVELS:
            tk = ilp_transform(conv.clone(), level,
                               MachineConfig(issue_width=WIDTHS[0]))
            cks = [schedule_kernel(tk.clone(), MachineConfig(issue_width=w))
                   for w in WIDTHS]
            with _counting(interp_calls):
                runner = BatchedRunner(cks[0], arrays, scalars)
                got = [runner.run(ck) for ck in cks]
            for ck, g in zip(cks, got):
                want = run_compiled_kernel(ck, arrays, scalars,
                                           engine="interp")
                n_cfg += 1
                bad += _run_diff((kernel.name, level.label,
                                  ck.machine.issue_width), want, g)
    return n_cfg, bad


#: the off-the-end step: trip count
OFF_END_N = 256


def _fault(run) -> str:
    """The message of the memory fault ``run()`` raises, or "no error"."""
    try:
        run()
    except SimMemoryError as e:
        return str(e)
    return "no error"


def _off_the_end() -> tuple[int, int]:
    """(levels, failing levels) of the off-the-end step: ``Y(i) = Y(i) +
    a * X(i + 1)`` for i = 1..n reads X's first pad word on the last
    iteration, and both executors must fault there alike."""
    n = OFF_END_N
    fp = Ty.FP
    i = var("i")
    kernel = Kernel(
        "daxpy_off_end",
        arrays={"X": ArrayDecl(fp, (n,)), "Y": ArrayDecl(fp, (n,))},
        scalars={"a": fp},
        body=[do("i", 1, n, [
            assign(aref("Y", i), aref("Y", i) + var("a") * aref("X", i + 1)),
        ], kind="doall")])
    rng = np.random.default_rng(0)
    arrays, scalars = {"X": ints(rng, n), "Y": ints(rng, n)}, {"a": 3.0}
    conv = lower_conv(kernel)
    machine = MachineConfig(issue_width=4)
    bad = 0
    for level in LONG_LEVELS:
        ck = schedule_kernel(ilp_transform(conv.clone(), level, machine),
                             machine)
        mem, _, _ = bind_inputs(ck.lowered, arrays, scalars)
        past = mem.symbols["X"] + 4 * n
        msgs = {engine: _fault(lambda: run_compiled_kernel(
                    ck, arrays, scalars, engine=engine))
                for engine in ("auto", "interp")}
        m = re.match(r"load from uninitialized address (0x[0-9a-f]+): ",
                     msgs["auto"])
        # the faulting load is X(n + 1)'s, or (Lev5) a vector load whose
        # lanes (eight at most) reach it; the message names its base
        if (not m or not 0 <= past - int(m.group(1), 16) < 4 * 8
                or len(set(msgs.values())) != 1):
            print(f"FAIL: off-the-end {level.label}: {msgs!r}, expected "
                  f"one load fault reaching {past:#x}")
            bad += 1
    return len(LONG_LEVELS), bad


@contextmanager
def _counting(calls: list):
    """Record every call into the reference while the block runs."""
    real = timing.run_reference

    def counted(func, *args, **kwargs):
        calls.append(func.name)
        return real(func, *args, **kwargs)

    timing.run_reference = counted
    try:
        yield
    finally:
        timing.run_reference = real


def _diff(key, a, b) -> bool:
    """Print every field where two stripped results differ."""
    for field in a:
        if a[field] != b[field]:
            print(f"FAIL: {key}: {field}: "
                  f"interp={a[field]!r} compiled={b[field]!r}")
    return a != b


def main() -> int:
    wls = [get_workload(n) for n in WORKLOADS]

    t0 = time.perf_counter()
    interp = run_sweep(wls, LEVELS, WIDTHS, engine="interp")
    t_interp = time.perf_counter() - t0

    # count the compiled sweep's calls into the reference
    interp_calls = []
    with _counting(interp_calls):
        t0 = time.perf_counter()
        compiled = run_sweep(wls, LEVELS, WIDTHS)
        t_compiled = time.perf_counter() - t0

    if set(interp.results) != set(compiled.results):
        print("FAIL: engines produced different grids")
        return 1

    bad = sum(_diff(key, strip_timings(interp.results[key]),
                    strip_timings(compiled.results[key]))
              for key in sorted(interp.results))
    if bad:
        print(f"FAIL: {bad}/{len(interp.results)} configurations diverge "
              f"between engines")
        return 1

    if interp_calls:
        print(f"FAIL: the compiled sweep called the reference "
              f"{len(interp_calls)} times, first {interp_calls[:5]}")
        return 1

    limited_bad = 0
    for w in wls:
        for level in LEVELS:
            a, b = (strip_timings(run_config(w, level, FP_LIMITED,
                                             engine=engine))
                    for engine in ("interp", "auto"))
            limited_bad += _diff((w.name, int(level), "fp-limited"), a, b)
    if limited_bad:
        print(f"FAIL: {limited_bad} slot-limited configurations diverge "
              f"between engines")
        return 1

    long_calls: list = []
    n_long, long_bad = _long_traces(long_calls)
    if long_bad:
        print(f"FAIL: {long_bad}/{n_long} long-trace configurations diverge "
              f"between engines")
        return 1
    if long_calls:
        print(f"FAIL: the compiled long-trace runs called the reference "
              f"{len(long_calls)} times, first {long_calls[:5]}")
        return 1

    n_off, off_bad = _off_the_end()
    if off_bad:
        print(f"FAIL: {off_bad}/{n_off} off-the-end levels do not fault "
              f"alike at the element past n")
        return 1

    print(f"OK: {len(interp.results)} configurations byte-identical across "
          f"engines, 0 reference calls in the compiled sweep (reference "
          f"{t_interp:.2f}s, compiled {t_compiled:.2f}s, "
          f"{t_interp / t_compiled:.2f}x end-to-end); "
          f"{len(wls) * len(LEVELS)} fp-limited configurations identical; "
          f"{n_long} long-trace (n={LONG_N}) configurations identical, "
          f"0 reference calls; {n_off} off-the-end levels fault alike "
          f"at the element past n in both executors")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

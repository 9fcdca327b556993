#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of the evaluation
grid, the simulator and the serving path.

Driver form (the benchmark contract; one workload per invocation, the
result is the JSON object on the last line of standard output)::

    python3 perfbench/run.py --workload grid_cold --seed 3 --seconds 20 --trace 0

Report form (all four workloads, same budget each, their repetitions
interleaved round-robin)::

    python3 perfbench/run.py [--seed N] [--traced] [--out FILE] [--quick]
    python3 perfbench/run.py --check-exact     # traced twice, counts must repeat

Each repetition runs in a process of its own (cold caches, its own
``ru_maxrss``).  See ``perfbench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from common import (  # noqa: E402
    PROFILES, ROOT, SRC, TMP_ROOT, remove_scratch,
)
from stats import low_quartile, median  # noqa: E402

#: set-up is timed at least this often per run, in set-up-only processes
#: when there are fewer repetitions
SETUP_SAMPLES = 3
#: a repetition that takes longer than this is killed and counted failed
CHILD_TIMEOUT_S = 170.0
#: where this run's repetitions keep their stores; removed when it ends
RUN_SCRATCH = TMP_ROOT / f"run-{os.getpid()}"


# ---------------------------------------------------------------------------
# one repetition = one child process
# ---------------------------------------------------------------------------


def child_main(args) -> int:
    """Inside the repetition's process: set up, measure, report."""
    sys.path.insert(0, str(SRC))
    from spans import Tracer

    mod = importlib.import_module(args.child)
    scratch = Path(args.scratch) if args.scratch else None
    with mod.prepare(PROFILES[args.profile], args.seed, scratch) as state:
        # CLOCK_MONOTONIC is system-wide, so the parent's stamp compares
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            out = {"workload": args.child, "setup_s": setup_s}
        else:
            rep = mod.measure(state, Tracer() if args.trace else None)
            rep.setup_s = setup_s
            out = rep.finish()
    print(json.dumps(out))
    return 0


def spawn(workload: str, seed: int, profile: str, traced: bool = False,
          setup_only: bool = False) -> dict:
    """Run one repetition in a fresh process and return its record; a
    crash, a timeout or garbage on stdout is a failed repetition."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", workload,
           "--seed", str(seed), "--profile", profile,
           "--trace", "1" if traced else "0", "--scratch", str(RUN_SCRATCH),
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # a session of its own, so that whatever the repetition forked (pool
    # workers) can be stopped with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        error = None if proc.returncode == 0 else f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = f"timed out after {CHILD_TIMEOUT_S:.0f}s"
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    rec = None
    if error is None:
        try:
            rec = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            error = "no result on stdout"
    if rec is None:
        rec = {"workload": workload, "crashed": error, "attempted": 1,
               "failed": 1, "failures": [f"repetition {error}"]}
    rec["elapsed_s"] = time.perf_counter() - t0
    return rec


# ---------------------------------------------------------------------------
# one workload = repetitions + set-up samples -> metrics
# ---------------------------------------------------------------------------


class WorkloadRun:
    """Collects one workload's repetitions until its budget is spent."""

    def __init__(self, name: str, seed: int, profile: str, traced: bool,
                 reps: int | None = None, seconds: float | None = None):
        self.name, self.seed, self.profile = name, seed, profile
        #: a traced run adds one traced repetition to the plain ones,
        #: which stay the end-to-end numbers and the overhead baseline
        self.traced = traced
        self.max_reps = reps
        self.seconds = seconds
        self.reps: list[dict] = []
        self.traced_rep: dict | None = None
        self.setups: list[float] = []

    def wants_more(self) -> bool:
        if self.max_reps is not None:
            return len(self.reps) < self.max_reps
        if not self.reps:
            return True
        # whole repetitions while at least half of another one still fits
        spent = sum(r["elapsed_s"] for r in self.reps)
        return spent + spent / len(self.reps) / 2 <= self.seconds

    def _spawn(self, **kind) -> dict:
        rec = spawn(self.name, self.seed, self.profile, **kind)
        if "setup_s" in rec:
            self.setups.append(rec["setup_s"])
        return rec

    def step(self) -> None:
        self.reps.append(self._spawn())

    def finish(self) -> None:
        if self.traced:
            self.traced_rep = self._spawn(traced=True)
        while len(self.setups) < SETUP_SAMPLES:
            rec = self._spawn(setup_only=True)
            if "setup_s" not in rec:
                self.reps.append(rec)  # a set-up that crashes is a failure
                break

    # -- results ---------------------------------------------------------

    def _all(self) -> list[dict]:
        return self.reps + ([self.traced_rep] if self.traced_rep else [])

    @property
    def attempted(self) -> int:
        return sum(r.get("attempted", 0) for r in self._all())

    @property
    def failed(self) -> int:
        return sum(r.get("failed", 0) for r in self._all())

    def failures(self) -> list[str]:
        return [f for r in self._all() for f in r.get("failures", ())]

    def _ok(self) -> list[dict]:
        return [r for r in self.reps if "crashed" not in r]

    def _phase(self, phase: str) -> tuple[int, float]:
        """(ops, seconds) of a phase: every unit at the lower quartile
        of its samples pooled over the repetitions, units added up."""
        pooled: dict[str, list[float]] = {}
        ops: dict[str, int] = {}
        for r in self._ok():
            for unit, walls in r[phase].items():
                pooled.setdefault(unit, []).extend(walls)
                ops[unit] = r[phase + "_ops"][unit]
        return (sum(ops.values()),
                sum(low_quartile(walls) for walls in pooled.values()))

    def end_to_end(self) -> dict[str, float]:
        ok = self._ok()
        out = {}
        ops, secs = self._phase("steady")
        if secs:
            out["ops_per_s"] = ops / secs
        ops, secs = self._phase("first")
        if ops:
            out["first_touch_ms"] = 1e3 * secs / ops
        if self.setups:
            out["setup_s"] = median(self.setups)
        if ok:
            out["peak_rss_mb"] = median(r["peak_rss_mb"] for r in ok)
            out["model_cycles"] = median(r["model_cycles"] for r in ok)
        return out

    def samples(self) -> dict:
        """What the end-to-end numbers were computed from."""
        ok = self._ok()
        return {
            "steady": [r["steady"] for r in ok],
            "first": [r["first"] for r in ok],
            "setup_s": list(self.setups),
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
            "model_cycles": [r["model_cycles"] for r in ok],
            "elapsed_s": [r["elapsed_s"] for r in self.reps],
        }

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric; a layer this workload bypasses reads 0."""
        out = dict.fromkeys(metrics.PER_LAYER_NAMES, 0)
        t = self.traced_rep
        if not t or "crashed" in t:
            return out
        out.update((k, v) for k, v in t["layers"].items() if k in out)
        plain = [r["wall_s"] for r in self._ok()]
        if plain:
            out["trace.overhead_share"] = t["wall_s"] / median(plain) - 1.0
        return out


def run_workloads(runs: list[WorkloadRun]) -> None:
    """Round-robin over the workloads, so that a noisy minute on a shared
    machine lands on all of them and not on one."""
    pending = list(runs)
    while pending:
        for run in pending:
            run.step()
        pending = [r for r in pending if r.wants_more()]
    for run in runs:
        run.finish()


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else f"{v:.6g}"


def print_report(run: WorkloadRun) -> None:
    print(f"== {run.name}  (seed {run.seed}, profile {run.profile}, "
          f"{len(run.reps)} repetition(s), "
          f"{len(run.setups)} set-up(s))")
    values = run.end_to_end()
    for m in metrics.END_TO_END:
        if m.name in values:
            print(f"  {m.name:<16} {_fmt(values[m.name]):>14} {m.unit}")
    print(f"  {'fail_share':<16} {run.failed}/{run.attempted} ops failed")
    for f in run.failures()[:8]:
        print(f"    FAILED: {f}")
    if run.traced:
        layers = run.per_layer()
        for m in metrics.PER_LAYER:
            if run.name in m.workloads:
                print(f"  {m.name:<34} {_fmt(layers[m.name]):>14} {m.unit}")


def contract_result(run: WorkloadRun) -> dict:
    """The object the benchmark contract wants on the last line."""
    if run.traced:
        units = {m.name: m.unit for m in metrics.PER_LAYER}
        values = run.per_layer()
    else:
        units = {m.name: m.unit for m in metrics.END_TO_END}
        values = run.end_to_end()
    complete = set(values) == set(units)
    return {
        "correct": run.failed == 0 and complete,
        "attempted": max(1, run.attempted),
        "failed": run.failed if complete else max(1, run.failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }


def summary(runs: list[WorkloadRun]) -> dict:
    """Everything measured, every sample kept; claims nothing."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": {
            r.name: {
                "seed": r.seed, "profile": r.profile,
                "repetitions": len(r.reps),
                "end_to_end": r.end_to_end(),
                "samples": r.samples(),
                "attempted": r.attempted, "failed": r.failed,
                "fail_share": r.failed / max(1, r.attempted),
                "failures": r.failures(),
                **({"per_layer": r.per_layer()} if r.traced else {}),
            } for r in runs
        },
        "claim": None,
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def exact_metrics(run: WorkloadRun) -> dict:
    """The metrics that must repeat bit-for-bit on one commit."""
    layers = run.per_layer()
    out = {k: layers[k] for k in sorted(metrics.EXACT_LAYERS)}
    out["model_cycles"] = run.traced_rep.get("model_cycles")
    return out


def check_exact(names, seed: int, profile: str) -> int:
    """Traced pass twice; any exact metric that moves is an error."""
    passes = []
    for _ in range(2):
        runs = [WorkloadRun(n, seed, profile, traced=True, reps=1)
                for n in names]
        run_workloads(runs)
        passes.append(runs)
    bad = 0
    for a, b in zip(*passes):
        bad += a.failed + b.failed
        ea, eb = exact_metrics(a), exact_metrics(b)
        for k in ea:
            if ea[k] != eb[k]:
                bad += 1
                print(f"NOT EXACT {a.name} {k}: {ea[k]} then {eb[k]}")
        print(f"{a.name}: {len(ea)} exact metrics compared")
    print("check-exact:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(metrics.WORKLOADS),
                    help="driver form: run this workload only")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="per workload: whole repetitions while another "
                         f"still fits (default {metrics.RUN_SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="same as --trace 1")
    ap.add_argument("--out", metavar="FILE", help="write the summary JSON")
    ap.add_argument("--quick", action="store_true",
                    help="the self-tests' reduced profile")
    ap.add_argument("--check-exact", action="store_true")
    # internal: the repetition's own process
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--profile", default="full", help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--scratch", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure under {SRC}",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    profile = "quick" if args.quick else "full"
    traced = bool(args.trace or args.traced)
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    try:
        return measure_main(args, names, profile, traced)
    finally:
        remove_scratch(RUN_SCRATCH)  # also when the run fails


def measure_main(args, names, profile: str, traced: bool) -> int:
    if args.check_exact:
        return check_exact(names, args.seed, profile)

    seconds = args.seconds if args.seconds is not None else metrics.RUN_SECONDS
    # the quick profile is for the self-tests: one repetition each
    runs = [WorkloadRun(n, args.seed, profile, traced,
                        reps=1 if args.quick else None, seconds=seconds)
            for n in names]
    run_workloads(runs)
    for run in runs:
        print_report(run)
    doc = summary(runs)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    failed = sum(r.failed for r in runs)
    if args.workload:
        print(json.dumps(contract_result(runs[0])))
    else:
        print(json.dumps({k: v for k, v in doc.items() if k != "workloads"}))
    return 1 if failed else 0


if __name__ == "__main__":
    # several passes iterate sets of enum members, whose order follows the
    # hash seed: pin it before anything is hashed, children inherit it
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    raise SystemExit(main())

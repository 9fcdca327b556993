"""What the four workloads share: paths, profiles, the committed reference
grid, scratch directories inside the checkout, and the result record."""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: the benchmark writes only inside its checkout, so not the system tmp
TMP_ROOT = ROOT / ".perfbench_tmp"
REFERENCE = ROOT / "results" / "sweep.json"

WIDTHS = (1, 2, 4, 8)
#: fields of a grid cell that must repeat exactly (timings excluded)
CELL_FIELDS = ("cycles", "instructions", "inner_makespan", "int_regs",
               "fp_regs", "checked")
#: the corpus inputs the committed reference grid was computed from; the
#: benchmark seed orders work, it never changes what the program computes
DATA_SEED = 0


@dataclass(frozen=True)
class Profile:
    name: str
    #: grid_cold's corpus loops (None = every third loop of Table 2)
    cold_loops: tuple | None
    #: the other workloads' corpus loops (None = all 40)
    corpus: tuple | None
    big_n: int          # elements per trace_big kernel
    interp_n: int       # elements for the forced-interpreter probe
    sweeps: int         # grid_warm phase-B sweeps per repetition
    warmup: int         # serve: untimed hits before the timed phase
    blocks: int         # serve: timed blocks of hits per repetition
    block: int          # serve: hits per block
    nested: int         # serve: calls per nested layer probe


FULL = Profile("full", cold_loops=None, corpus=None, big_n=262144,
               interp_n=65536, sweeps=20, warmup=1500, blocks=8, block=125,
               nested=1000)
#: the self-tests' profile: every code path, every metric name, < 30 s
_FEW = ("add", "dotprod", "maxval", "NAS-5")
QUICK = Profile("quick", cold_loops=_FEW, corpus=_FEW, big_n=4096,
                interp_n=1024, sweeps=3, warmup=50, blocks=2, block=50,
                nested=40)
PROFILES = {p.name: p for p in (FULL, QUICK)}


@dataclass
class Rep:
    """One repetition of one workload, as its process reports it.

    Time is kept per *unit* — a piece of work that is the same in every
    repetition (one loop's share of the sweep, one big cell, one store
    sweep, one block of requests) — so that the coordinator can pool the
    samples of a unit across repetitions before it adds units up.
    """

    workload: str
    setup_s: float = 0.0
    #: steady phase: unit -> wall seconds of each time it ran, and the
    #: ops one run of the unit completes
    steady: dict = field(default_factory=dict)
    steady_ops: dict = field(default_factory=dict)
    #: first-touch phase, same shape
    first: dict = field(default_factory=dict)
    first_ops: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    model_cycles: int = 0
    peak_rss_mb: float = 0.0
    #: wall of the timed regions (a traced repetition: net of its probes)
    wall_s: float = 0.0
    #: per-layer metrics (traced repetitions only)
    layers: dict = field(default_factory=dict)

    def timed(self, phase: str, unit: str, ops: int, seconds: float) -> None:
        getattr(self, phase).setdefault(unit, []).append(seconds)
        getattr(self, phase + "_ops")[unit] = ops
        self.wall_s += seconds

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 8:
            self.failures.append(what)

    def finish(self) -> dict:
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return dict(self.__dict__)


def corpus(names: tuple | None, seed: int) -> list:
    """Corpus loops (all 40 when ``names`` is None) in seeded order."""
    from repro.workloads import all_workloads

    ws = all_workloads()
    if names is not None:
        ws = [w for w in ws if w.name in names]
    random.Random(seed).shuffle(ws)
    return ws


def reference_rows() -> dict[tuple, dict]:
    """``results/sweep.json`` rows by (workload, level, width) — the
    committed grid every workload's answers are held against."""
    rows = json.loads(REFERENCE.read_text())["results"]
    return {(r["workload"], r["level"], r["width"]): r for r in rows}


def cell_mismatch(got: dict, want: dict) -> str | None:
    """The first exact field on which a grid cell differs from the
    reference row (None = equal)."""
    for f in CELL_FIELDS:
        if got.get(f) != want[f]:
            return f"{f}: got {got.get(f)!r}, want {want[f]!r}"
    return None


@contextmanager
def scratch_dir(under: Path | None = None):
    """A fresh directory inside the checkout.

    With ``under`` (the coordinator's directory for the whole run) it is
    left for the coordinator to remove when the run ends: deleting a
    store's thousand blobs makes the filesystem's next few hundred
    fsyncs dearer (discards ride on the journal commits), and that must
    not land on the next repetition's puts.  Without ``under`` it is
    removed on exit, also when the repetition fails.
    """
    parent = under if under is not None else TMP_ROOT
    parent.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        if under is None:
            remove_scratch(path)


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)  # last one out; fails while others remain
    except OSError:
        pass


def start_timing() -> float:
    """Collect garbage, then read the clock: a timed region never pays
    for the previous region's garbage."""
    gc.collect()
    return time.perf_counter()

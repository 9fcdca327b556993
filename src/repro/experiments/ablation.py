"""Leave-one-out pass ablation: per-pass speedup contribution.

``python -m repro ablate`` measures what each registered pass is worth:
every workload is compiled and simulated with the full pipeline at the
requested level, then once per ablatable pass with exactly that pass
disabled.  The difference in speedup (vs. the paper's issue-1/Conv
baseline) is the pass's *contribution* on that workload — the
pass-attribution methodology of Kong & Pouchet's "performance
vocabulary" and Shivam et al.'s achievable-peak studies, applied to the
paper's transformation repertoire.

A positive contribution means the pass earns cycles; ~0 means it does
not fire on that loop, or is shadowed or pre-empted at this level
(every registered pass fires on some corpus loop, see
``tests/unit/test_pass_census.py``); negative means it actively hurts
on that loop (e.g. an expansion whose compensation code outweighs the
exposed parallelism at this width), or that it pays mostly at issue-1,
since the Conv denominator is re-measured with the pass disabled.

The default workload set is the 9-kernel oracle subset used by CI, so
the table is cheap to regenerate; ``--workloads all`` covers the full
corpus.  Results land in ``results/ablation.txt``.

The grid of (workload, ablated-pass) measurements is embarrassingly
parallel; ``--jobs N`` fans it out over a fork-based process pool with
a deterministic merge, so serial and parallel ablations produce
identical tables.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from ..machine import MachineConfig
from ..passes import PassOptions
from ..passes.registry import ablatable_passes, get_pass
from ..pipeline import Level
from ..workloads import Workload, all_workloads, get_workload
from .sweep import default_cache_path, run_config

#: the differential-oracle CI subset: fast, and spanning FP DOALL,
#: reductions, searches with side exits, and serial recurrences
ORACLE_SET = ("add", "sum", "dotprod", "maxval", "merge",
              "LWS-1", "NAS-4", "SRS-1", "TFS-2")


@dataclass
class AblationData:
    """Leave-one-out grid: per (pass, workload) speedup contributions."""

    level: Level
    width: int
    workloads: list[str]
    passes: list[str]
    #: full-pipeline speedup per workload (vs issue-1 Conv)
    full_speedup: dict[str, float]
    #: contribution[(pass, workload)] = full_speedup - speedup_without_pass
    contribution: dict[tuple[str, str], float]
    #: (pass, workload) configurations that failed to compile/validate
    failures: dict[tuple[str, str], str] = field(default_factory=dict)
    elapsed: float = 0.0

    def mean_contribution(self, pass_name: str) -> float:
        vals = [self.contribution[(pass_name, w)] for w in self.workloads
                if (pass_name, w) in self.contribution]
        return sum(vals) / len(vals) if vals else 0.0


def _ablation_task(task: tuple) -> tuple:
    """One (workload, ablated-pass) measurement: the pair of cycle counts
    its contribution is computed from.  ``pass_name=None`` measures the
    full pipeline.  Module-level so the fork pool can pickle it; the
    cell evaluator's per-process classical-stage cache is keyed by
    disable set, so ablated runs never see the fully-optimized result.
    """
    name, level_int, width, seed, check, pass_name = task
    w = get_workload(name)
    # the baseline denominator is re-measured under the same ablation:
    # disabling a classical pass slows Conv too, and the paper's
    # speedups are always relative to the pipeline that produced them
    opts = PassOptions(disable=(pass_name,)) if pass_name else None
    try:
        base = run_config(w, Level.CONV, MachineConfig(issue_width=1),
                          seed=seed, check=check, options=opts).cycles
        at_level = run_config(w, Level(level_int),
                              MachineConfig(issue_width=width),
                              seed=seed, check=check, options=opts).cycles
    except Exception as e:  # noqa: BLE001 - a finding, not a crash
        return (name, pass_name, 0, 0, repr(e))
    return (name, pass_name, base, at_level, None)


def run_ablation(
    workloads: list[Workload] | None = None,
    level: Level = Level.LEV4,
    width: int = 8,
    passes: list[str] | None = None,
    seed: int = 0,
    check: bool = True,
    verbose: bool = False,
    jobs: int = 1,
) -> AblationData:
    """Measure leave-one-out speedup contributions.

    ``passes`` restricts the sweep to the named passes (default: every
    non-structural registered pass enabled at ``level``).  ``check``
    validates every ablated run against the workload's NumPy reference,
    so a pass whose removal *breaks* correctness is reported as a
    failure, not silently tabulated.  ``jobs > 1`` distributes the
    (workload, pass) grid over a process pool; the merge is
    deterministic, so serial and parallel tables are identical.
    """
    t0 = time.time()
    workloads = workloads if workloads is not None else [
        get_workload(n) for n in ORACLE_SET
    ]
    if passes is None:
        plist = [p.name for p in ablatable_passes(level)]
    else:
        plist = []
        for name in passes:
            p = get_pass(name)  # raises KeyError on unknown names
            if p.required:
                raise ValueError(f"pass {name!r} is structural; it cannot "
                                 f"be ablated")
            plist.append(p.name)

    tasks = [
        (w.name, int(level), width, seed, check, pass_name)
        for w in workloads for pass_name in (None, *plist)
    ]
    if jobs > 1 and len(tasks) > 1:
        # fork (not spawn) so workers inherit the parent's PYTHONHASHSEED:
        # several passes iterate sets of enum members, whose hashes vary
        # with the seed, and bit-identical serial/parallel tables require
        # every process to break those ties the same way
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            outs = list(pool.map(_ablation_task, tasks))
    else:
        outs = [_ablation_task(t) for t in tasks]

    full_speedup: dict[str, float] = {}
    contribution: dict[tuple[str, str], float] = {}
    failures: dict[tuple[str, str], str] = {}
    for name, pass_name, base, at_level, err in outs:
        if pass_name is not None:
            continue
        if err is not None:  # the *full* pipeline must never fail
            raise RuntimeError(f"{name}: full-pipeline run failed: {err}")
        full_speedup[name] = base / at_level
        if verbose:
            print(f"  {name:<14}full {base / at_level:5.2f}x",
                  file=sys.stderr)
    for name, pass_name, base, at_level, err in outs:
        if pass_name is None:
            continue
        if err is not None:
            failures[(pass_name, name)] = err
        else:
            contribution[(pass_name, name)] = (
                full_speedup[name] - base / at_level
            )
    return AblationData(
        level=level, width=width, workloads=[w.name for w in workloads],
        passes=plist, full_speedup=full_speedup, contribution=contribution,
        failures=failures, elapsed=time.time() - t0,
    )


def render_ablation(data: AblationData) -> str:
    """The per-pass contribution table (rows sorted by mean contribution)."""
    head = (f"Leave-one-out pass ablation — {data.level.label} at "
            f"issue-{data.width}, speedup vs issue-1 Conv\n"
            f"contribution = full-pipeline speedup minus speedup with the "
            f"pass disabled\n"
            f"the issue-1 Conv denominator is re-measured with the pass "
            f"disabled too,\nso a pass that pays mostly at issue-1 (ivsr) "
            f"reads negative\n")
    name_w = max(len("(full speedup)"),
                 max((len(p) for p in data.passes), default=4)) + 2
    cols = "".join(f"{w:>10}" for w in data.workloads)
    lines = [head,
             f"{'pass':<{name_w}}{cols}{'mean':>10}",
             "-" * (name_w + 10 * (len(data.workloads) + 1))]
    full = "".join(f"{data.full_speedup[w]:>10.2f}" for w in data.workloads)
    mean_full = (sum(data.full_speedup.values()) / len(data.full_speedup)
                 if data.full_speedup else 0.0)
    lines.append(f"{'(full speedup)':<{name_w}}{full}{mean_full:>10.2f}")
    ranked = sorted(data.passes, key=data.mean_contribution, reverse=True)
    for p in ranked:
        cells = ""
        for w in data.workloads:
            if (p, w) in data.contribution:
                cells += f"{data.contribution[(p, w)]:>10.2f}"
            elif (p, w) in data.failures:
                cells += f"{'FAIL':>10}"
            else:
                cells += f"{'-':>10}"
        lines.append(f"{p:<{name_w}}{cells}{data.mean_contribution(p):>10.2f}")
    if data.failures:
        lines.append("")
        lines.append(f"{len(data.failures)} failing ablated configuration(s):")
        for (p, w), err in sorted(data.failures.items()):
            lines.append(f"  {w} without {p}: {err}")
    lines.append("")
    lines.append(f"({len(data.workloads)} workloads x {len(data.passes)} "
                 f"passes in {data.elapsed:.1f}s)")
    return "\n".join(lines)


def default_ablation_path() -> Path:
    return default_cache_path().parent / "ablation.txt"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workloads", metavar="A,B,...",
                    help="comma-separated subset, or 'all' for the full "
                         "corpus (default: the 9-kernel oracle set)")
    ap.add_argument("--level", type=int, default=4,
                    choices=[int(l) for l in Level],
                    help="transformation level to ablate (default: 4)")
    ap.add_argument("--width", type=int, default=8,
                    help="issue width (default: 8)")
    ap.add_argument("--passes", metavar="A,B,...",
                    help="restrict to these passes (default: every "
                         "ablatable pass enabled at the level)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes for the (workload, pass) grid "
                         "(default: 1); the table is identical at any "
                         "job count")
    ap.add_argument("--no-check", action="store_true",
                    help="skip the NumPy reference validation of each run")
    ap.add_argument("--out", metavar="PATH",
                    help="output file (default: results/ablation.txt)")
    args = ap.parse_args(argv)

    if args.workloads in (None, ""):
        wls = [get_workload(n) for n in ORACLE_SET]
    elif args.workloads == "all":
        wls = all_workloads()
    else:
        wls = [get_workload(n) for n in args.workloads.split(",")]
    passes = args.passes.split(",") if args.passes else None

    data = run_ablation(
        wls, Level(args.level), args.width, passes=passes, seed=args.seed,
        check=not args.no_check, verbose=True, jobs=args.jobs,
    )
    text = render_ablation(data)
    out = Path(args.out) if args.out else default_ablation_path()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + "\n")
    print(text)
    print(f"\nwrote {out}", file=sys.stderr)
    return 1 if data.failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""CLI driver: run the full evaluation and write every table and figure.

Usage::

    python -m repro.experiments.run_all [--force] [--quiet]

Writes ``results/*.txt`` (one per paper table/figure) and prints them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..pipeline import Level
from .histograms import doall_filter, register_distribution, speedup_distribution
from .sweep import default_cache_path, sweep_cached
from .tables import compute_headline_claims, render_table1, render_table2


def figure_texts(data) -> dict[str, str]:
    """All regenerated artifacts, keyed by output file stem."""
    out: dict[str, str] = {}
    out["table1_latencies"] = render_table1()
    out["table2_corpus"] = render_table2()
    out["fig08_speedup_issue2"] = speedup_distribution(
        data, 2, title="Figure 8: speedup distribution, issue-2"
    ).render()
    out["fig09_speedup_issue4"] = speedup_distribution(
        data, 4, title="Figure 9: speedup distribution, issue-4"
    ).render()
    out["fig10_speedup_issue8"] = speedup_distribution(
        data, 8, title="Figure 10: speedup distribution, issue-8"
    ).render()
    out["fig11_regusage_issue8"] = register_distribution(
        data, 8, title="Figure 11: register usage distribution, issue-8"
    ).render()
    out["fig12_speedup_doall"] = speedup_distribution(
        data, 8, doall_filter(True),
        title="Figure 12: speedup distribution, DOALL loops, issue-8",
    ).render()
    out["fig13_regusage_doall"] = register_distribution(
        data, 8, doall_filter(True),
        title="Figure 13: register usage, DOALL loops, issue-8",
    ).render()
    out["fig14_speedup_nondoall"] = speedup_distribution(
        data, 8, doall_filter(False),
        title="Figure 14: speedup distribution, non-DOALL loops, issue-8",
    ).render()
    out["fig15_regusage_nondoall"] = register_distribution(
        data, 8, doall_filter(False),
        title="Figure 15: register usage, non-DOALL loops, issue-8",
    ).render()
    out["headline_claims"] = compute_headline_claims(data).render()
    return out


def per_loop_report(data) -> str:
    rows = [
        f"{'name':<14}{'type':<10}" + "".join(
            f"{lv.label + '@8':>10}" for lv in Level
        ) + f"{'regs@Lev4':>10}",
        "-" * 84,
    ]
    from ..workloads import get_workload

    for n in data.workload_names():
        w = get_workload(n)
        cells = "".join(f"{data.speedup(n, lv, 8):>10.2f}" for lv in Level)
        regs = data.get(n, Level.LEV4, 8).total_regs
        rows.append(f"{n:<14}{w.loop_type:<10}{cells}{regs:>10}")
    return "Per-loop speedups at issue-8 (vs issue-1 Conv)\n" + "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--force", action="store_true", help="recompute the sweep")
    ap.add_argument("--quiet", action="store_true", help="do not print figures")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes for the sweep (default: 1); "
                         "results are identical at any job count")
    ap.add_argument("--check", action="store_true",
                    help="run the IR invariant verifier between every "
                         "compiler pass of every configuration")
    ap.add_argument("--disable-pass", action="append", default=[],
                    metavar="NAME",
                    help="skip a registered pass everywhere (repeatable; "
                         "see `python -m repro passes`); the run bypasses "
                         "the sweep cache")
    ap.add_argument("--store", metavar="DIR",
                    help="persistent artifact store: reuse configurations "
                         "computed by earlier (or interrupted) sweeps, and "
                         "write back everything computed here")
    ap.add_argument("--engine", choices=("auto", "compiled", "interp"),
                    default="auto",
                    help="simulator engine: 'compiled' executes generated "
                         "block code once per cell and replays timing per "
                         "width, 'interp' is the reference interpreter, "
                         "'auto' (default) picks compiled with interpreter "
                         "fallback; results are identical either way")
    args = ap.parse_args(argv)

    from ..passes import PassOptions

    options = (PassOptions(disable=tuple(args.disable_pass))
               if args.disable_pass else None)
    store = None
    if args.store:
        from ..service.store import ArtifactStore

        store = ArtifactStore(Path(args.store))
    data = sweep_cached(force=args.force, verbose=not args.quiet,
                        jobs=args.jobs, check_ir=args.check, options=options,
                        store=store, engine=args.engine)
    outdir = default_cache_path().parent
    outdir.mkdir(parents=True, exist_ok=True)

    texts = figure_texts(data)
    texts["per_loop"] = per_loop_report(data)
    for stem, text in texts.items():
        if options is None:
            # ablated runs print only: the canonical figure files always
            # describe the full pipeline
            (outdir / f"{stem}.txt").write_text(text + "\n")
        if not args.quiet:
            print()
            print(text)
    print(f"\nwrote {len(texts)} artifacts to {outdir}/ "
          f"(sweep {data.elapsed:.1f}s, {data.computed} computed"
          + (f", {data.store_hits} from store" if data.store_hits else "")
          + ")",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

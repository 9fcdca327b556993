"""Command-line interface.

    python -m repro list                         # the 40 workloads
    python -m repro show dotprod                 # FORTRAN-style source + metadata
    python -m repro passes                       # the registered pass pipeline
    python -m repro compile dotprod --level 4    # IR at each pipeline stage
    python -m repro run dotprod --level 4 --width 8 [--all-levels]
    python -m repro sweep [--force] [--jobs N]   # full grid -> results/
    python -m repro sweep --workloads add,sum --jobs 2   # subset smoke run
    python -m repro sweep --store DIR            # persistent store; rerun = resume
    python -m repro ablate [--jobs N]            # leave-one-out pass ablation
    python -m repro serve --port 8734 --store DIR --jobs 2  # HTTP service
    python -m repro cluster --nodes 3 --store DIR # multi-node scale-out
    python -m repro submit run dotprod --level 4 --width 8  # client SDK
    python -m repro mii dotprod [--exact]        # software-pipelining bounds
    python -m repro headroom                     # heuristic-vs-optimal report
    python -m repro check                        # differential oracle, all 40
    python -m repro check --fuzz 50              # + seeded random loop nests
    python -m repro chaos --plan kill --jobs 2   # fault-injection suite
    python -m repro sweep --workloads add --jobs 2 --fault-plan plan.json

``--check`` on compile/run/sweep runs the IR invariant verifier between
every compiler pass (def-before-use on all paths, operand classes and
arity, branch-target validity, coloring consistency).  ``--disable-pass
NAME`` skips a registered pass (repeatable; structural passes refuse),
``--print-after NAME`` dumps the IR after it runs, and
``--print-changed`` dumps after every pass that rewrote something.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments.sweep import run_config
from .frontend.lower import lower_kernel
from .frontend.pretty import kernel_str
from .harness import compile_kernel, run_compiled_kernel
from .ir import format_block, format_function
from .machine import MachineConfig
from .opt.driver import run_conv
from .passes import PassOptions
from .pipeline import Level
from .regalloc import measure_register_usage
from .schedule.pipelining import compute_bounds
from .workloads import all_workloads, check_run, get_workload


def _pass_options(args) -> PassOptions | None:
    """PassOptions from the pipeline-control flags (None = defaults)."""
    disable = tuple(getattr(args, "disable_pass", None) or ())
    print_after = tuple(getattr(args, "print_after", None) or ())
    print_changed = bool(getattr(args, "print_changed", False))
    if not disable and not print_after and not print_changed:
        return None
    return PassOptions(disable=disable, print_after=print_after,
                       print_changed=print_changed)


def cmd_list(args) -> int:
    print(f"{'name':<14}{'suite':<9}{'size':>5}{'iters':>7}{'nest':>5}  "
          f"{'type':<10}{'conds'}")
    for w in all_workloads():
        print(f"{w.name:<14}{w.suite:<9}{w.size_lines:>5}{w.paper_iters:>7}"
              f"{w.nest:>5}  {w.loop_type:<10}{'yes' if w.conds else 'no'}")
    return 0


def cmd_show(args) -> int:
    w = get_workload(args.workload)
    print(f"! {w.name} [{w.suite}]  Table 2: size={w.size_lines} "
          f"iters={w.paper_iters} nest={w.nest} type={w.loop_type} "
          f"conds={'yes' if w.conds else 'no'}")
    if w.notes:
        print(f"! {w.notes}")
    print(kernel_str(w.build()))
    return 0


def cmd_compile(args) -> int:
    w = get_workload(args.workload)
    level = Level(args.level)
    machine = MachineConfig(issue_width=args.width)
    options = _pass_options(args)

    lk = lower_kernel(w.build())
    if args.stage in ("naive", "all"):
        print("=== naive lowering ===")
        print(format_function(lk.func))
    rep = run_conv(lk.func, lk.counted, lk.live_out_exit, options=options)
    if args.stage in ("conv", "all"):
        print("\n=== after Conv ===")
        print(format_function(lk.func))
    from .pipeline import apply_ilp_transforms, schedule_function

    sb, rep = apply_ilp_transforms(
        lk.func, lk.counted[lk.inner_header], level, machine, lk.live_out_exit,
        check=args.check, options=options, report=rep,
    )
    schedule_function(lk.func, machine, lk.live_out_exit, sb=sb,
                      doall=lk.inner_kind == "doall", check=args.check,
                      options=options, report=rep)
    print(f"\n=== {level.label} on issue-{args.width or 'inf'}: "
          f"unroll x{rep.unroll_factor}, {rep.renamed} renamed, "
          f"{rep.inductions} ind, {rep.accumulators} acc, "
          f"{rep.searches} search, {rep.combined} combined, "
          f"{rep.trees} trees ===")
    print(format_block(sb.body))
    usage = measure_register_usage(lk.func, lk.live_out_exit)
    print(f"\nregisters: {usage.int_regs} int + {usage.fp_regs} fp = {usage.total}")
    if args.stats:
        print("\nper-pass stats (pass, phase, round, rewrites, instr delta, ms):")
        for s in rep.stats:
            print(f"  {s.name:<22}{s.phase:<10}{s.round:>3}{s.rewrites:>6}"
                  f"{s.instr_delta:>+7}{s.seconds * 1e3:>9.2f}")
    return 0


def cmd_passes(args) -> int:
    """List the registered pass pipeline (the unit of --disable-pass)."""
    from .passes.registry import DEFAULT_PHASES, PHASE_ORDER

    print(f"{'pass':<24}{'phase':<10}{'gate':<8}{'ablatable':<11}description")
    for phase_name in PHASE_ORDER:
        phase = DEFAULT_PHASES[phase_name]
        rounds = (f"fixpoint, <={phase.max_rounds} rounds"
                  if phase.max_rounds > 1 else "single round")
        print(f"-- {phase_name} ({rounds}) " + "-" * 40)
        for p in phase.passes:
            ablatable = "no" if p.required else "yes"
            print(f"{p.name:<24}{p.phase:<10}{p.gate_label:<8}"
                  f"{ablatable:<11}{p.doc}")
    return 0


def cmd_ablate(args) -> int:
    """Leave-one-out pass ablation (see repro.experiments.ablation)."""
    from .experiments.ablation import main as ablation_main

    return ablation_main(args.rest)


def cmd_run(args) -> int:
    w = get_workload(args.workload)
    machine = MachineConfig(issue_width=args.width)
    options = _pass_options(args)
    levels = list(Level) if args.all_levels else [Level(args.level)]
    base = run_config(w, Level.CONV, MachineConfig(issue_width=1),
                      check_ir=args.check, options=options).cycles
    print(f"{w.name} (type={w.loop_type}); baseline issue-1/Conv = {base} cycles")
    for level in levels:
        r = run_config(w, level, machine, check_ir=args.check, options=options)
        print(f"  {level.label}@issue-{args.width}: {r.cycles} cycles, "
              f"{r.instructions} instrs, speedup {base / r.cycles:.2f}, "
              f"{r.total_regs} regs  [checked]")
    return 0


def cmd_sweep(args) -> int:
    options = _pass_options(args)
    if args.fault_plan:
        # arm before any worker pool forks (fault-plan inheritance)
        from .resilience import faults
        from .resilience.faults import FaultPlan

        plan = FaultPlan.from_file(args.fault_plan)
        faults.arm(plan)
        print(plan.describe())
    store = None
    if args.store:
        from pathlib import Path

        from .service.store import ArtifactStore

        store = ArtifactStore(Path(args.store))
    if args.workloads:
        # subset sweep (smoke tests / CI): no figure rendering, prints a
        # per-configuration summary instead
        from .experiments.sweep import run_sweep

        wls = [get_workload(n) for n in args.workloads.split(",")]
        data = run_sweep(wls, verbose=True, jobs=args.jobs,
                         check_ir=args.check, options=options, store=store)
        for (name, level, width), r in data.results.items():
            print(f"{name:<14}{Level(level).label:<6}issue-{width}: "
                  f"{r.cycles} cycles, {r.instructions} instrs, "
                  f"{r.total_regs} regs  [checked]")
        print(f"{data.computed} computed, {data.store_hits} from store "
              f"in {data.elapsed:.1f}s ({args.jobs} jobs)")
        if data.resilience:
            rz = data.resilience
            print(f"resilience: {rz.get('redispatched', 0)} redispatched, "
                  f"{rz.get('retries', 0)} retried, "
                  f"{rz.get('deadline_kills', 0)} deadline kills, "
                  f"{rz.get('worker_restarts', 0)} worker restarts")
        return 0

    from .experiments.run_all import main as run_all_main

    argv = ["--jobs", str(args.jobs)]
    if args.force:
        argv.append("--force")
    if args.check:
        argv.append("--check")
    if args.store:
        argv.extend(["--store", args.store])
    for name in (args.disable_pass or ()):
        argv.extend(["--disable-pass", name])
    return run_all_main(argv)


def cmd_check(args) -> int:
    """The differential correctness oracle (and optional fuzzing)."""
    from .check import fuzz as run_fuzz
    from .check import run_oracle

    widths = tuple(int(x) for x in args.widths.split(","))
    failed = False

    if not args.fuzz_only:
        wls = ([get_workload(n) for n in args.workloads.split(",")]
               if args.workloads else None)
        n = len(wls) if wls else len(all_workloads())
        print(f"differential oracle: {n} kernels x {len(list(Level))} levels "
              f"x widths {list(widths)} "
              f"({'with' if not args.no_ir_check else 'without'} IR checks)")
        report = run_oracle(wls, widths=widths, seed=args.seed,
                            check_ir=not args.no_ir_check, verbose=args.verbose,
                            cross_engine=args.cross_engine)
        print(report.summary())
        for d in report.divergences:
            print(f"  {d}")
        failed = failed or not report.ok

    if args.fuzz:
        print(f"fuzz: {args.fuzz} seeded random loop nests "
              f"(base seed {args.seed})")
        failures = run_fuzz(args.fuzz, seed=args.seed, widths=widths,
                            check_ir=not args.no_ir_check,
                            verbose=args.verbose)
        if failures:
            print(f"fuzz: {len(failures)} diverging case(s)")
            for f in failures:
                print(f"  {f}")
            failed = True
        else:
            print(f"fuzz: {args.fuzz} cases ok")

    return 1 if failed else 0


def cmd_serve(args) -> int:
    """Run the compilation service (see repro.service.server)."""
    from .service.server import main as serve_main

    return serve_main(args.rest)


def cmd_chaos(args) -> int:
    """Fault-injection suite (see repro.resilience.chaos)."""
    from .resilience.chaos import main as chaos_main

    return chaos_main(args.rest)


def cmd_cluster(args) -> int:
    """Multi-node cluster launcher (see repro.cluster.launch)."""
    from .cluster.launch import main as cluster_main

    return cluster_main(args.rest)


def cmd_submit(args) -> int:
    """Client side of the service: submit one request, print the reply."""
    import json as _json

    from .service.client import ServiceClient, ServiceRequestError

    c = ServiceClient(args.url, timeout=args.timeout)
    try:
        if args.what in ("compile", "run"):
            if not args.workload:
                print("submit compile/run requires a workload", file=sys.stderr)
                return 2
            fn = c.compile if args.what == "compile" else c.run
            reply = fn(args.workload, level=args.level, width=args.width,
                       disable=args.disable_pass or [])
        elif args.what == "sweep":
            names = (args.workload or "").split(",") if args.workload else []
            if not names:
                print("submit sweep requires workloads A,B,...", file=sys.stderr)
                return 2
            jid = c.sweep(names, widths=[int(x) for x in args.widths.split(",")])
            reply = c.wait_job(jid, timeout=args.timeout)
        elif args.what == "job":
            reply = c.job(args.workload)
        elif args.what == "metrics":
            reply = c.metrics()
        else:  # health
            reply = c.healthz()
    except ServiceRequestError as e:
        print(f"request failed: {e}", file=sys.stderr)
        return 1
    print(_json.dumps(reply, indent=2))
    return 0


def cmd_mii(args) -> int:
    w = get_workload(args.workload)
    machine = MachineConfig(issue_width=args.width)
    print(f"{w.name}: software-pipelining bounds (issue-{args.width})")
    for level in Level:
        ck = compile_kernel(w.build(), level, machine)
        b = compute_bounds(
            ck.sb.body.instrs, machine,
            iterations=ck.report.unroll_factor,
            prologue=ck.sb.preheader.instrs,
            doall=w.loop_type == "doall",
        )
        achieved = ck.inner_makespan / b.iterations
        line = (f"  {level.label}: ResMII={b.res_mii} RecMII={b.rec_mii} "
                f"MII/iter={b.mii_per_iteration:.2f} "
                f"achieved/iter={achieved:.2f}")
        if args.exact:
            from .optsched import modulo_schedule

            ms = modulo_schedule(
                ck.sb.body.instrs, machine,
                iterations=ck.report.unroll_factor,
                prologue=ck.sb.preheader.instrs,
                doall=w.loop_type == "doall",
            )
            line += (f" exactII/iter={ms.ii_per_iteration:.2f} "
                     f"[{ms.status}]")
        print(line)
    return 0


def cmd_headroom(args) -> int:
    """Heuristic-vs-optimal scheduling headroom (see experiments/headroom)."""
    from .experiments.headroom import main as headroom_main

    return headroom_main(args.rest)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sub.add_parser("list", help="list the 40 workloads")

    p = sub.add_parser("show", help="print a workload's source + metadata")
    p.add_argument("workload")

    check_help = ("run the IR invariant verifier between every compiler pass")

    def add_pipeline_flags(p):
        p.add_argument("--disable-pass", action="append", default=[],
                       metavar="NAME",
                       help="skip a registered pass (repeatable; see "
                            "`python -m repro passes`)")
        p.add_argument("--print-after", action="append", default=[],
                       metavar="NAME",
                       help="dump the IR after the named pass runs "
                            "(repeatable)")
        p.add_argument("--print-changed", action="store_true",
                       help="dump the IR after every pass that rewrote "
                            "something")

    sub.add_parser("passes",
                   help="list the registered pass pipeline "
                        "(phases, level gates, ablatability)")

    p = sub.add_parser("compile", help="print IR through the pipeline")
    p.add_argument("workload")
    p.add_argument("--level", type=int, default=4,
                   choices=[int(l) for l in Level])
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--stage", choices=("naive", "conv", "final", "all"),
                   default="final")
    p.add_argument("--check", action="store_true", help=check_help)
    p.add_argument("--stats", action="store_true",
                   help="print the per-pass stats table (rewrites, "
                        "instruction delta, wall time)")
    add_pipeline_flags(p)

    p = sub.add_parser("run", help="compile, simulate, and check a workload")
    p.add_argument("workload")
    p.add_argument("--level", type=int, default=4,
                   choices=[int(l) for l in Level])
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--all-levels", action="store_true")
    p.add_argument("--check", action="store_true", help=check_help)
    add_pipeline_flags(p)

    p = sub.add_parser("sweep", help="run the full evaluation grid")
    p.add_argument("--force", action="store_true")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (default: 1)")
    p.add_argument("--workloads", metavar="A,B,...",
                   help="comma-separated subset: sweep only these loops "
                        "and print a summary instead of the figures")
    p.add_argument("--store", metavar="DIR",
                   help="persistent content-addressed artifact store: "
                        "reuse configurations across sweeps/processes and "
                        "write back everything computed here (rerun with "
                        "the same DIR to resume an interrupted sweep)")
    p.add_argument("--check", action="store_true", help=check_help)
    p.add_argument("--fault-plan", metavar="FILE",
                   help="arm a fault-injection plan from a JSON file "
                        "(chaos testing only; see `python -m repro chaos`)")
    add_pipeline_flags(p)

    # remaining arguments are forwarded verbatim to
    # repro.experiments.ablation (try `python -m repro ablate --help`)
    sub.add_parser("ablate", add_help=False,
                   help="leave-one-out pass ablation -> "
                        "results/ablation.txt")

    # remaining arguments are forwarded verbatim to
    # repro.service.server (try `python -m repro serve --help`)
    sub.add_parser("serve", add_help=False,
                   help="run the compilation service (HTTP server over "
                        "the artifact store + async job engine)")

    # remaining arguments are forwarded verbatim to
    # repro.resilience.chaos (try `python -m repro chaos --help`)
    sub.add_parser("chaos", add_help=False,
                   help="fault-injection suite: crash/hang workers, corrupt "
                        "store writes, drop HTTP responses; verify identical "
                        "results and full fault accounting")

    # remaining arguments are forwarded verbatim to
    # repro.cluster.launch (try `python -m repro cluster --help`)
    sub.add_parser("cluster", add_help=False,
                   help="run a multi-node cluster: N node processes sharding "
                        "the store by consistent hash, plus a router "
                        "front-end")

    p = sub.add_parser("submit",
                       help="submit one request to a running service")
    p.add_argument("what",
                   choices=("compile", "run", "sweep", "job", "metrics",
                            "health"))
    p.add_argument("workload", nargs="?",
                   help="workload (compile/run), comma list (sweep), "
                        "or job id (job)")
    p.add_argument("--url", default="http://127.0.0.1:8734")
    p.add_argument("--level", type=int, default=4,
                   choices=[int(l) for l in Level])
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--widths", default="1,2,4,8", metavar="W,W,...")
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--disable-pass", action="append", default=[],
                   metavar="NAME")

    p = sub.add_parser("mii", help="software-pipelining bounds per level")
    p.add_argument("workload")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--exact", action="store_true",
                   help="additionally run the exact modulo scheduler and "
                        "print the achieved II per level")

    # remaining arguments are forwarded verbatim to
    # repro.experiments.headroom (try `python -m repro headroom --help`)
    sub.add_parser("headroom", add_help=False,
                   help="heuristic-vs-optimal scheduling headroom over the "
                        "corpus -> results/headroom.txt")

    p = sub.add_parser(
        "check",
        help="differential oracle: every kernel at every level must "
             "bit-match its unoptimized reference execution",
    )
    p.add_argument("--workloads", metavar="A,B,...",
                   help="comma-separated subset (default: all 40)")
    p.add_argument("--widths", default="1,8", metavar="W,W,...",
                   help="issue widths to check (default: 1,8)")
    p.add_argument("--seed", type=int, default=0,
                   help="input-data / fuzz base seed (default: 0)")
    p.add_argument("--fuzz", type=int, default=0, metavar="N",
                   help="additionally fuzz N random loop nests")
    p.add_argument("--fuzz-only", action="store_true",
                   help="skip the corpus oracle, only fuzz")
    p.add_argument("--no-ir-check", action="store_true",
                   help="skip the between-pass invariant verifier")
    p.add_argument("--cross-engine", action="store_true",
                   help="additionally simulate every configuration on the "
                        "reference interpreter and require results "
                        "bit-identical to the block-compiled replay")
    p.add_argument("--verbose", action="store_true")

    args, extra = ap.parse_known_args(argv)
    if args.cmd in ("ablate", "serve", "chaos", "cluster", "headroom"):
        args.rest = extra
    elif extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    return {
        "list": cmd_list, "show": cmd_show, "passes": cmd_passes,
        "compile": cmd_compile, "run": cmd_run, "sweep": cmd_sweep,
        "ablate": cmd_ablate, "serve": cmd_serve, "submit": cmd_submit,
        "mii": cmd_mii, "check": cmd_check, "chaos": cmd_chaos,
        "cluster": cmd_cluster, "headroom": cmd_headroom,
    }[args.cmd](args)


if __name__ == "__main__":
    raise SystemExit(main())

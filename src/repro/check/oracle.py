"""The differential correctness oracle (cross-level semantic checking).

The paper's result table rests on the claim that Lev1..Lev5 binaries
compute the same answers as Conv — unrolling with preconditioning,
renaming, expansion, combining, and strength reduction are only valid if
they are semantics-preserving (Section 2).  The oracle makes that claim
checkable:

1. the **golden state** of a kernel is the final memory/scalar state of
   its *naive lowered* IR, executed by the reference evaluator
   (:mod:`repro.check.refeval`) — no optimization anywhere near it;
2. every (level, machine) configuration is compiled through the full
   pipeline, simulated, and its final state compared against the golden
   state **bit-identically**;
3. configurations where a value-reassociating transformation fired
   (accumulator expansion, tree height reduction, serial-chain SLP
   reduction packing — they reorder fp reductions by design) are
   compared under the workload's documented
   tolerance instead, and the report says so;
4. the simulator's end state is additionally cross-checked bit-identically
   against a reference evaluation of the *same* final scheduled IR:
   in-order issue with correct interlocks has sequential semantics, so any
   difference is a simulator-machinery bug, not a compiler bug.

On a mismatch the report carries first-divergent-store provenance: the
divergent element's address plus the last store to it in both executions,
with the originating instruction of each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..harness import (
    BatchedRunner,
    ilp_transform,
    lower_conv,
    run_compiled_kernel,
    schedule_kernel,
)
from ..machine import MachineConfig
from ..pipeline import ALL_LEVELS, Level
from ..workloads import Workload, all_workloads
from .refeval import RefResult, StoreEvent, reference_run

DEFAULT_WIDTHS = (1, 8)


@dataclass
class Divergence:
    """One configuration whose result differs from the golden state."""

    workload: str
    level: str            # level label ("Conv".."Lev5"), or "-" pre-compile
    width: int
    kind: str  # array | scalar | sim-vs-ref | engine-vs-engine | compile-error | golden
    detail: str

    def __str__(self) -> str:
        return (f"{self.workload} {self.level} issue-{self.width} "
                f"[{self.kind}]: {self.detail}")


@dataclass
class OracleReport:
    configs_checked: int = 0
    kernels_checked: int = 0
    elapsed: float = 0.0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        return (f"oracle: {self.kernels_checked} kernels, "
                f"{self.configs_checked} configurations in "
                f"{self.elapsed:.1f}s — {verdict}")


def _last_store(stores: list[StoreEvent], addr: int) -> str:
    for ev in reversed(stores):
        if ev.addr == addr:
            return f"{ev.instr!r} (step {ev.step}, wrote {ev.value!r})"
    return "never stored"


def _diff_states(
    w: Workload,
    got_arrays: dict,
    got_scalars: dict,
    want_arrays: dict,
    want_scalars: dict,
    exact: bool,
    golden_res: RefResult | None = None,
    got_res: RefResult | None = None,
) -> str | None:
    """First difference between two end states, or None if they match.

    ``exact`` compares bit-identically; otherwise the workload's
    ``rtol`` applies (reassociating transformations fired).  When both
    store logs are available, the divergent element is traced to the last
    store that produced it in each execution.
    """
    for name in want_arrays:
        got = np.asarray(got_arrays[name])
        want = np.asarray(want_arrays[name])
        if exact:
            bad = got.flatten(order="F") != want.flatten(order="F")
        else:
            bad = ~np.isclose(
                got.flatten(order="F"), want.flatten(order="F"),
                rtol=w.rtol, atol=1e-12,
            )
        if bad.any():
            flat = int(np.argmax(bad))
            g = got.flatten(order="F")[flat]
            e = want.flatten(order="F")[flat]
            msg = (f"array {name}[flat {flat}] diverges: got {g!r} "
                   f"want {e!r} ({int(bad.sum())} elements differ)")
            if golden_res is not None:
                addr = golden_res.memory.array_base(name) + 4 * flat
                msg += f"; addr {addr:#x}"
                msg += f"; golden last store: {_last_store(golden_res.stores, addr)}"
                if got_res is not None:
                    msg += f"; compiled last store: {_last_store(got_res.stores, addr)}"
            return msg
    for name, e in want_scalars.items():
        g = got_scalars.get(name)
        same = (g == e) if exact else bool(
            np.isclose(g, e, rtol=w.rtol, atol=1e-12)
        )
        if not same:
            return f"scalar {name} diverges: got {g!r} want {e!r}"
    return None


def check_workload(
    w: Workload,
    levels: tuple[Level, ...] = tuple(ALL_LEVELS),
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    seed: int = 0,
    check_ir: bool = True,
    cross_engine: bool = False,
) -> tuple[int, list[Divergence]]:
    """Differentially check one workload; returns (configs checked, divergences).

    The widths of a level are timed the way the sweep times them: one
    :class:`~repro.harness.BatchedRunner` executes the first schedule
    and replays its trace for every width, which shares its end state.
    ``cross_engine=True`` additionally simulates every configuration on
    the reference interpreter and requires bit-identical cycles,
    instruction counts, and end states (kind ``engine-vs-engine`` on
    mismatch).
    """
    divs: list[Divergence] = []
    arrays, scalars = w.make_inputs(seed)
    kernel = w.build()

    golden_arrays, golden_scalars, golden_res = reference_run(
        kernel, arrays, scalars, log_stores=True
    )
    # the golden state itself is validated against the workload's NumPy
    # reference, so a reference-evaluator or lowering bug cannot silently
    # become the thing every level is compared against
    try:
        from ..workloads import check_run

        check_run(w, golden_arrays, golden_scalars, arrays, scalars)
    except AssertionError as e:
        divs.append(Divergence(w.name, "-", 0, "golden", str(e)))
        return 0, divs

    checked = 0
    try:
        conv = lower_conv(w.build())
    except Exception as e:  # noqa: BLE001 - any compile failure is a finding
        divs.append(Divergence(w.name, "-", 0, "compile-error", repr(e)))
        return 0, divs

    for level in levels:
        try:
            tk = ilp_transform(
                conv.clone(), level, MachineConfig(issue_width=widths[0]),
                check=check_ir,
            )
        except Exception as e:  # noqa: BLE001
            divs.append(Divergence(w.name, level.label, 0, "compile-error", repr(e)))
            continue
        # accumulator expansion, tree height reduction, and serial-chain
        # SLP reduction packing reassociate fp reductions by design; only
        # they may relax bit-identity (exact-variant SLP packs keep every
        # per-lane chain intact and stay bit-identical)
        exact = (tk.report.accumulators == 0 and tk.report.trees == 0
                 and tk.report.slp_reassoc == 0)
        cks = []
        for i, width in enumerate(widths):
            try:
                clone = tk.clone() if i + 1 < len(widths) else tk
                cks.append(schedule_kernel(
                    clone, MachineConfig(issue_width=width), check=check_ir))
            except Exception as e:  # noqa: BLE001
                divs.append(
                    Divergence(w.name, level.label, width, "compile-error", repr(e))
                )
        runner = None
        for ck in cks:
            width = ck.machine.issue_width
            try:
                if runner is None:
                    runner = BatchedRunner(ck, arrays, scalars)
                run = runner.run(ck)
            except Exception as e:  # noqa: BLE001
                divs.append(
                    Divergence(w.name, level.label, width, "compile-error", repr(e))
                )
                continue
            checked += 1

            # reference evaluation of the same final scheduled IR: the
            # sequential end state, used both for the sim cross-check and
            # for store provenance on divergence
            ref_arrays, ref_scalars, ref_res = reference_run(
                kernel, arrays, scalars, lowered=ck.lowered, log_stores=True
            )

            diff = _diff_states(
                w, run.arrays, run.scalars, golden_arrays, golden_scalars,
                exact, golden_res, ref_res,
            )
            if diff is not None:
                divs.append(Divergence(w.name, level.label, width, "array"
                                       if diff.startswith("array") else "scalar",
                                       diff))

            # simulator vs reference on identical code: always bit-identical
            sim_diff = _diff_states(
                w, run.arrays, run.scalars, ref_arrays, ref_scalars, True
            )
            if sim_diff is not None:
                divs.append(
                    Divergence(w.name, level.label, width, "sim-vs-ref", sim_diff)
                )

            if cross_engine:
                # the reference interpreter on identical code and inputs:
                # timing and end state must match the replay bit for bit
                interp = run_compiled_kernel(
                    ck, arrays=arrays, scalars=scalars, engine="interp"
                )
                eng_diff = _diff_states(
                    w, run.arrays, run.scalars,
                    interp.arrays, interp.scalars, True,
                )
                if eng_diff is None:
                    if run.cycles != interp.cycles:
                        eng_diff = (f"cycles diverge: compiled "
                                    f"{run.cycles} interp {interp.cycles}")
                    elif run.instructions != interp.instructions:
                        eng_diff = (
                            f"instruction counts diverge: compiled "
                            f"{run.instructions} interp "
                            f"{interp.instructions}"
                        )
                if eng_diff is not None:
                    divs.append(
                        Divergence(w.name, level.label, width,
                                   "engine-vs-engine", eng_diff)
                    )
    return checked, divs


def run_oracle(
    workloads: list[Workload] | None = None,
    levels: tuple[Level, ...] = tuple(ALL_LEVELS),
    widths: tuple[int, ...] = DEFAULT_WIDTHS,
    seed: int = 0,
    check_ir: bool = True,
    verbose: bool = False,
    cross_engine: bool = False,
) -> OracleReport:
    """Run the differential oracle over the corpus (default: all 40)."""
    workloads = workloads or all_workloads()
    report = OracleReport()
    t0 = time.time()
    for w in workloads:
        checked, divs = check_workload(
            w, levels, widths, seed, check_ir, cross_engine=cross_engine,
        )
        report.kernels_checked += 1
        report.configs_checked += checked
        report.divergences.extend(divs)
        if verbose:
            status = "ok" if not divs else f"{len(divs)} DIVERGENT"
            print(f"  {w.name:<14}{checked} configs {status}")
    report.elapsed = time.time() - t0
    return report

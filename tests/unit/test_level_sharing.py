"""A loop's levels evaluated in one call equal the same levels evaluated
one call each (DESIGN.md §8.5).

``evaluate_levels`` hands a level whose code after the ILP phase equals
an earlier level's that level's cleanup, schedules, colourings and runs.
That may not change anything a cell reports: for every corpus loop,
every exact field, every pass row but its seconds and the compiled code
equal a from-scratch ``evaluate_cell`` per level, and the code equals
the staged ``schedule_kernel(ilp_transform(...))`` the oracle checks.
"""

from __future__ import annotations

import pytest

from repro.harness import (
    evaluate_cell,
    evaluate_levels,
    ilp_transform,
    lower_conv,
    schedule_kernel,
)
from repro.ir.printer import format_function
from repro.machine import MachineConfig
from repro.passes import PassOptions
from repro.pipeline import Level
from repro.workloads import all_workloads, get_workload

WIDTHS = (1, 2, 4, 8)
MACHINES = [MachineConfig(issue_width=w) for w in WIDTHS]

#: levels whose code after the ILP phase is a lower level's, on the
#: loops of the cold benchmark grid
REPEATS = {
    ("CSS-1", Level.LEV4): Level.LEV3, ("CSS-1", Level.LEV5): Level.LEV3,
    ("MTS-1", Level.LEV4): Level.LEV3, ("MTS-1", Level.LEV5): Level.LEV3,
    ("NAS-2", Level.LEV5): Level.LEV4, ("NAS-5", Level.LEV5): Level.LEV4,
    ("SDS-2", Level.LEV5): Level.LEV4, ("SRS-1", Level.LEV5): Level.LEV4,
}


def _exact(r) -> tuple:
    """Everything but wall-clock time a width's result says."""
    rep = r.ck.report
    return (
        int(r.ck.level), r.ck.machine.issue_width, r.ck.inner_makespan,
        r.usage, r.run.cycles, r.run.instructions,
        {k: v.tolist() for k, v in r.run.arrays.items()}, r.run.scalars,
        [(s.name, s.phase, s.round, s.rewrites, s.instrs_before,
          s.instrs_after) for s in rep.stats],
        rep.unroll_factor, rep.slp_reassoc, rep.phase_rounds, rep.disabled,
        format_function(r.ck.func),
    )


def _code(ck) -> tuple:
    """A compiled kernel's code, its inner makespan and its pass rows."""
    return (format_function(ck.func), ck.inner_makespan,
            [(s.name, s.phase, s.round, s.rewrites, s.instrs_before,
              s.instrs_after) for s in ck.report.stats])


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_loop_sweep_equals_a_call_per_level(w):
    loop = dict(evaluate_levels(w, tuple(Level), MACHINES))
    assert list(loop) == list(Level)
    conv = lower_conv(w.build())
    for level in Level:
        alone = evaluate_cell(w, level, MACHINES)
        assert [_exact(r) for r in loop[level]] == [_exact(r) for r in alone]
        tk = ilp_transform(conv.clone(), level, MACHINES[0])
        staged = [schedule_kernel(tk.clone(), m) for m in MACHINES]
        assert [_code(r.ck) for r in loop[level]] == list(map(_code, staged))


@pytest.mark.parametrize("disable", [("rename",), ("unroll", "combine")])
@pytest.mark.parametrize("name", ["sum", "CSS-1", "maxval"])
def test_disabled_passes_share_by_the_same_rule(name, disable):
    """A disable set can make more levels repeat — without ``rename``
    Lev2 compiles to Lev1's code — and the results still equal a call
    per level."""
    w, options = get_workload(name), PassOptions(disable=disable)
    loop = dict(evaluate_levels(w, tuple(Level), MACHINES[:2],
                                options=options))
    for level in Level:
        alone = evaluate_cell(w, level, MACHINES[:2], options=options)
        assert [_exact(r) for r in loop[level]] == [_exact(r) for r in alone]
    if disable == ("rename",):
        assert loop[Level.LEV2][0].ck.func is loop[Level.LEV1][0].ck.func


def test_repeated_levels_take_the_earlier_levels_results():
    for (name, level), earlier in REPEATS.items():
        loop = dict(evaluate_levels(get_workload(name), tuple(Level),
                                    MACHINES))
        for mine, theirs in zip(loop[level], loop[earlier]):
            assert mine.ck.func is theirs.ck.func, (name, level)
            assert mine.run is theirs.run
            assert mine.ck.level is level
            # charged once: only the level's own ILP phase has a cost
            assert mine.timings["t_schedule"] == 0.0
            assert all(s.seconds == 0.0 for s in mine.ck.report.stats
                       if s.phase in ("cleanup", "schedule"))


def test_printing_ir_computes_every_level_itself(capsys):
    options = PassOptions(print_after=("superblock",))
    loop = dict(evaluate_levels(get_workload("CSS-1"), tuple(Level),
                                MACHINES[:1], options=options))
    printed = capsys.readouterr().out
    # one dump per level, and Lev4 does not take Lev3's results
    assert printed.count("; IR after superblock") == len(Level)
    (lev3,), (lev4,) = loop[Level.LEV3], loop[Level.LEV4]
    assert lev4.ck.func is not lev3.ck.func
    assert all(s.seconds > 0.0 for s in lev4.ck.report.stats
               if s.phase == "ilp")

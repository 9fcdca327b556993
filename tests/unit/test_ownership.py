"""Simulator set-up is owned, not memoized (DESIGN.md §11.2).

A derived product is a value owned by whoever built it, a bounded
process memo keyed by plain values, or a store entry — never something
a cell leaves behind.  These tests pin that from the outside: what a
cell built dies with the cell, a process that keeps evaluating cells
stops growing, the two harness memos stay under their bound whatever
clients send, and a cell executes once whatever machine times it.
"""

from __future__ import annotations

import copy
import gc
import weakref

import pytest

import repro.harness as harness
import repro.sim.simulator as simulator
from repro.experiments.sweep import run_sweep, strip_timings
from repro.harness import (
    BatchedRunner,
    evaluate_cell,
    evaluate_levels,
    ilp_transform,
    lower_conv,
    schedule_kernel,
)
from repro.ir.instructions import Kind
from repro.machine import MachineConfig
from repro.passes.registry import ablatable_passes
from repro.pipeline import Level
from repro.service.jobs import compute_cell
from repro.sim import CompiledProgram, ExecPlan, ReplaySpec, ReplayUnmapped
from repro.workloads import get_workload

WIDTHS = (1, 2, 4, 8)


def _record_instances(monkeypatch, cls, refs: list) -> None:
    """Append a weak reference to every ``cls`` constructed from now on."""
    init = cls.__init__

    def recording(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", recording)


class TestNothingOutlivesACell:
    def test_a_cells_products_die_with_its_result(self, monkeypatch):
        refs: list = []
        for cls in (CompiledProgram, ExecPlan, ReplaySpec):
            _record_instances(monkeypatch, cls, refs)
        cell = evaluate_cell(
            get_workload("dotprod"), Level.LEV4,
            [MachineConfig(issue_width=w) for w in WIDTHS])
        funcs = [weakref.ref(r.ck.func) for r in cell]
        # one program and one plan per cell, one replay view per width
        assert len(refs) == len(WIDTHS) + 2
        assert all(r() is not None for r in funcs)
        del cell
        gc.collect()
        alive = [r() for r in refs + funcs if r() is not None]
        assert not alive, f"outlived their cell: {alive}"

    def test_a_loops_products_die_with_its_results(self, monkeypatch):
        """The same through a whole-loop call, whose levels share
        repeated code: nothing it built for one level outlives the
        results."""
        refs: list = []
        for cls in (CompiledProgram, ExecPlan, ReplaySpec):
            _record_instances(monkeypatch, cls, refs)
        loop = list(evaluate_levels(
            get_workload("CSS-1"), tuple(Level),
            [MachineConfig(issue_width=w) for w in WIDTHS]))
        funcs = [weakref.ref(r.ck.func) for _, cell in loop for r in cell]
        # Lev4 and Lev5 repeat Lev3's code: four levels execute
        executed = {id(cell[0].ck.func) for _, cell in loop}
        assert len(executed) == 4
        assert len(refs) == len(executed) * (len(WIDTHS) + 2)
        del loop
        gc.collect()
        alive = [r() for r in refs + funcs if r() is not None]
        assert not alive, f"outlived their loop: {alive}"

    def test_resweeping_a_loop_does_not_grow_the_process(self):
        wls = [get_workload("sum")]

        def live_objects() -> int:
            run_sweep(wls, tuple(Level), WIDTHS)
            gc.collect()
            return len(gc.get_objects())

        first = live_objects()  # fills the per-workload memos, once
        live_objects()
        third = live_objects()
        # one retained program or plan per width would be thousands
        assert abs(third - first) < 200, (first, third)


class TestProcessMemosAreBounded:
    def test_distinct_seeds_and_disable_sets_stay_under_the_bound(self):
        """What a long-lived pool worker sees: client-chosen seeds and
        disable sets without end."""
        names = [p.name for p in ablatable_passes()]
        disables = [(a, b) for a in names[:5] for b in names[5:15]]
        assert len(set(disables)) == 50
        n = 0
        for name in ("add", "sum"):
            for k in range(100):
                compute_cell(("run", name, 0, (1,), 1000 + n, True, False,
                              disables[k % 50]))
                n += 1
        for memo in (harness._conv_kernel, harness._inputs):
            info = memo.cache_info()
            assert info.maxsize is not None and info.maxsize >= 40
            assert info.misses >= 100  # the traffic did exceed the bound
            assert info.currsize <= info.maxsize

    def test_classical_phase_is_charged_to_the_call_that_ran_it(self):
        w = get_workload("maxval")
        machines = [MachineConfig(issue_width=8)]
        harness._conv_kernel.cache_clear()
        (cold,) = evaluate_cell(w, Level.CONV, machines)
        (warm,) = evaluate_cell(w, Level.CONV, machines)
        assert "licm" in cold.timings["t_passes"]
        assert "licm" not in warm.timings["t_passes"]
        assert "listsched" in warm.timings["t_passes"]


class TestOneExecutionPerCell:
    def _cell(self, name="dotprod", level=Level.LEV4):
        w = get_workload(name)
        arrays, scalars = w.make_inputs(0)
        tk = ilp_transform(lower_conv(w.build()), level,
                           MachineConfig(issue_width=1))
        cks = [schedule_kernel(tk.clone(), MachineConfig(issue_width=wd))
               for wd in WIDTHS]
        return cks, arrays, scalars

    def test_first_kernel_gets_the_constructors_run_back(self, monkeypatch):
        cks, arrays, scalars = self._cell()
        runner = BatchedRunner(cks[0], arrays, scalars)
        calls = {"compiled_program": 0, "replay": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "compiled_program", counting(
            "compiled_program", harness.compiled_program))
        monkeypatch.setattr(simulator, "replay", counting(
            "replay", simulator.replay))
        first = runner.run(cks[0])
        assert first is runner.run(cks[0])
        # the same function on an equal machine is the same kernel,
        # whichever CompiledKernel object carries it
        assert runner.run(copy.copy(cks[0])) is first
        assert calls == {"compiled_program": 0, "replay": 0}
        # another width reuses the lowering the constructor made
        other = runner.run(cks[1])
        assert calls == {"compiled_program": 0, "replay": 1}
        assert other.arrays is first.arrays

    def test_foreign_kernel_is_refused(self):
        cks, arrays, scalars = self._cell()
        foreign, _, _ = self._cell()
        runner = BatchedRunner(cks[0], arrays, scalars)
        with pytest.raises(ReplayUnmapped):
            runner.run(foreign[3])

    def test_slot_limited_cell_executes_once(self, monkeypatch):
        """Slot-limited machines are replayed like any other: one
        execution, whose outputs are checked once, and the reference's
        counts for every width."""
        plans: list = []
        _record_instances(monkeypatch, ExecPlan, plans)
        checks = []
        real_check = harness.check_run
        monkeypatch.setattr(harness, "check_run", lambda *a: (
            checks.append(a[1]), real_check(*a)))
        w = get_workload("sum")
        machines = [MachineConfig(issue_width=wd, slot_limits={Kind.LOAD: 1})
                    for wd in WIDTHS]
        auto = evaluate_cell(w, Level.LEV2, machines)
        assert len(plans) == 1
        assert len(checks) == 1
        interp = evaluate_cell(w, Level.LEV2, machines, engine="interp")
        assert len(plans) == 1
        assert ([(r.run.cycles, r.run.instructions) for r in auto]
                == [(r.run.cycles, r.run.instructions) for r in interp])


def test_strip_timings_keeps_exactly_the_non_timing_fields():
    data = run_sweep([get_workload("add")], (Level.CONV,), (1,))
    (r,) = data.results.values()
    assert set(strip_timings(r)) == {
        "workload", "level", "width", "cycles", "instructions",
        "inner_makespan", "int_regs", "fp_regs", "checked"}

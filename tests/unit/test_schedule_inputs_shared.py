"""The dependence DAGs of a cell are built once and shared by its issue
widths (``TransformedKernel.schedule_inputs``): sharing must not change
a single schedule, and a machine the DAGs were not built for must not
get them."""

import dataclasses

import pytest

from repro.harness import ilp_transform, lower_conv, schedule_kernel
from repro.ir.instructions import Kind
from repro.machine import MachineConfig
from repro.optsched import schedule_exactly
from repro.pipeline import Level, ScheduleInputs
from repro.workloads import all_workloads, get_workload

WIDTHS = (1, 2, 4, 8)


def transformed(name, level):
    return ilp_transform(lower_conv(get_workload(name).build()), level,
                         MachineConfig())


def cold(tk):
    """A clone that shares no DAG with anyone: it builds its own."""
    return dataclasses.replace(tk.clone(), schedule_inputs=ScheduleInputs())


def assert_same_schedules(a, b):
    """Instruction for instruction (the clones share instruction objects,
    so list equality is identity) and issue time for issue time."""
    assert a.schedules.keys() == b.schedules.keys()
    for label, sa in a.schedules.items():
        sb = b.schedules[label]
        assert sa.order == sb.order, label
        assert sa.issue == sb.issue, label
    assert ([blk.instrs for blk in a.func.blocks]
            == [blk.instrs for blk in b.func.blocks])


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
@pytest.mark.parametrize("level", (Level.LEV4, Level.LEV5))
def test_shared_inputs_equal_private_inputs(w, level):
    tk = ilp_transform(lower_conv(w.build()), level, MachineConfig())
    colds = [schedule_kernel(cold(tk), MachineConfig(issue_width=wd))
             for wd in WIDTHS]
    assert tk.schedule_inputs.latency_key is None  # nothing leaked in
    shared = []
    for i, wd in enumerate(WIDTHS):
        # as evaluate_cell does: the last width consumes tk itself
        c = tk.clone() if i + 1 < len(WIDTHS) else tk
        shared.append(schedule_kernel(c, MachineConfig(issue_width=wd)))
        if i == 0:
            graphs = tk.schedule_inputs.graphs
            assert graphs
        # built by the first width, reused (not rebuilt) by the others
        assert tk.schedule_inputs.graphs is graphs
    for a, b in zip(shared, colds):
        assert_same_schedules(a, b)


@pytest.mark.parametrize("name", ("add", "dotprod", "merge"))
def test_exact_schedule_shares_the_same_inputs(name):
    tk = transformed(name, Level.LEV4)
    for wd in WIDTHS:
        m = MachineConfig(issue_width=wd)
        a, pa = schedule_exactly(tk, m)
        b, pb = schedule_exactly(cold(tk), m)
        assert_same_schedules(a, b)
        assert pa.keys() == pb.keys()
        for label in pa:
            assert ({k: v for k, v in pa[label].items() if k != "seconds"}
                    == {k: v for k, v in pb[label].items()
                        if k != "seconds"})
    # one DAG served the exact and the list schedule alike
    graphs = tk.schedule_inputs.graphs
    assert graphs
    schedule_kernel(tk.clone(), MachineConfig(issue_width=8))
    assert tk.schedule_inputs.graphs is graphs


OTHER_MACHINES = {
    "slot_limits": MachineConfig(slot_limits={Kind.LOAD: 1}),
    "no_speculative_loads": MachineConfig(speculative_loads=False),
    "latency_table": MachineConfig(
        latencies={**MachineConfig().latencies, Kind.LOAD: 5}),
}


@pytest.mark.parametrize("which", OTHER_MACHINES)
@pytest.mark.parametrize("name", ("maxval", "dotprod", "NAS-5"))
def test_other_latency_key_rebuilds(name, which):
    other = OTHER_MACHINES[which]
    tk = transformed(name, Level.LEV4)
    base = MachineConfig()
    assert other.latency_key() != base.latency_key()
    schedule_kernel(tk.clone(), base)
    graphs = tk.schedule_inputs.graphs
    assert tk.schedule_inputs.latency_key == base.latency_key()

    got = schedule_kernel(tk.clone(), other)
    assert tk.schedule_inputs.graphs is not graphs
    assert tk.schedule_inputs.latency_key == other.latency_key()
    assert_same_schedules(got, schedule_kernel(cold(tk), other))
    # and back again: the rebuilt DAGs do not serve the first machine
    assert_same_schedules(schedule_kernel(tk.clone(), base),
                          schedule_kernel(cold(tk), base))


def test_scheduling_a_kernel_twice_rebuilds():
    # the stored DAGs index the instruction order they were built from; a
    # second schedule of the same (now reordered) kernel must not use them
    tk = transformed("dotprod", Level.LEV4)
    m = MachineConfig(issue_width=2)
    first = schedule_kernel(tk, m)
    graphs = tk.schedule_inputs.graphs
    scheduled = [list(b.instrs) for b in first.func.blocks if b.instrs]
    assert scheduled != [g.instrs for g in graphs]  # something moved
    schedule_kernel(tk, m)
    assert tk.schedule_inputs.graphs is not graphs
    # the rebuilt DAGs describe the order the second schedule started from
    assert [g.instrs for g in tk.schedule_inputs.graphs] == scheduled

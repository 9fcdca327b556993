"""The bitset interference graph and colouring against the frozen
set-based reference (``_regalloc_reference.py``): same node set, same
edge set, same colour for every register."""

import pytest

from repro.check.fuzz import build_kernel, random_spec
from repro.harness import ilp_transform, lower_conv, schedule_kernel
from repro.ir import fp_reg, int_reg, parse_function
from repro.ir.operands import RegClass
from repro.machine import MachineConfig
from repro.pipeline import Level
from repro.regalloc import (
    ColoringError,
    build_interference,
    color_class,
    measure_register_usage,
    verify_coloring,
)
from repro.workloads import all_workloads

from ._regalloc_reference import reference_coloring, reference_interference

LEVELS = (Level.CONV, Level.LEV2, Level.LEV4, Level.LEV5)
WIDTHS = (1, 8)


def assert_same_as_reference(func, live_out_exit=None):
    g = build_interference(func, live_out_exit)
    ref = reference_interference(func, live_out_exit)
    assert g.nodes == ref.nodes
    for r in ref.nodes:
        assert g.neighbors(r) == ref.adj[r], r
        assert g.degree(r) == len(ref.adj[r])
    counts = {}
    for cls in RegClass:
        colors = color_class(g, cls)
        assert colors == reference_coloring(ref, cls), cls
        assert g.of_class(cls) == sorted(colors, key=lambda r: r.id)
        verify_coloring(g, colors)
        counts[cls] = max(colors.values()) + 1 if colors else 0
    usage = measure_register_usage(func, live_out_exit, check=True)
    assert (usage.int_regs, usage.fp_regs, usage.vint_regs,
            usage.vfp_regs) == tuple(counts[cls] for cls in RegClass)
    return g


def scheduled_functions(kernel, levels=LEVELS, widths=WIDTHS):
    conv = lower_conv(kernel)
    for level in levels:
        tk = ilp_transform(conv.clone(), level, MachineConfig())
        for width in widths:
            ck = schedule_kernel(tk.clone(), MachineConfig(issue_width=width))
            yield ck.func, ck.lowered.live_out_exit


@pytest.mark.parametrize("w", all_workloads(), ids=lambda w: w.name)
def test_corpus_matches_reference(w):
    for func, live_out_exit in scheduled_functions(w.build()):
        assert_same_as_reference(func, live_out_exit)


def test_fuzz_cases_match_reference():
    for seed in range(100):
        kernel = build_kernel(random_spec(seed))
        for func, live_out_exit in scheduled_functions(
                kernel, levels=(Level.LEV4,), widths=(8,)):
            assert_same_as_reference(func, live_out_exit)


def test_live_through_register_named_only_by_exit_set():
    # r9i and r9f appear in no instruction: live_out_exit alone keeps
    # them live through the whole function.  r9i meets int definitions,
    # so it becomes a node; nothing of the fp class is ever defined or
    # live beside r9f, so r9f stays out of the graph.
    f = parse_function(
        "function t:\nA:\n  r1i = 1\n  r2i = r1i + 1\n  MEM(X) = r2i\n  halt\n"
    )
    exit_set = {int_reg(9), fp_reg(9)}
    g = assert_same_as_reference(f, exit_set)
    assert int_reg(9) in g.nodes
    assert g.neighbors(int_reg(9)) == {int_reg(1), int_reg(2)}
    assert fp_reg(9) not in g.nodes
    assert g.neighbors(fp_reg(9)) == set() and g.degree(fp_reg(9)) == 0
    assert measure_register_usage(f, exit_set).fp_regs == 0


def test_entry_clique():
    # r1i..r3i and r1f, r2f are inputs: never defined, live into the entry
    # block, so each class forms a clique there and nowhere else
    f = parse_function(
        "function t:\nA:\n  r4i = r1i + r2i\n  r5i = r4i + r3i\n"
        "  r3f = r1f + r2f\n  MEM(X) = r5i\n  MEM(Y) = r3f\n  halt\n"
    )
    g = assert_same_as_reference(f)
    ints = {int_reg(1), int_reg(2), int_reg(3)}
    for r in ints:
        assert ints - {r} <= g.neighbors(r)
    assert g.neighbors(fp_reg(1)) == {fp_reg(2)}
    # a single input of a class has no one to form a clique with
    f1 = parse_function("function t:\nA:\n  MEM(X) = r1i\n  halt\n")
    g1 = assert_same_as_reference(f1)
    assert g1.nodes == {int_reg(1)} and g1.degree(int_reg(1)) == 0


class TestVerifyColoring:
    F = ("function t:\nA:\n  r1i = 1\n  r2i = 2\n  r3i = r1i + r2i\n"
         "  MEM(X) = r3i\n  halt\n")

    def test_clash_is_reported(self):
        g = build_interference(parse_function(self.F))
        colors = color_class(g, RegClass.INT)
        colors[int_reg(2)] = colors[int_reg(1)]
        with pytest.raises(ColoringError, match="share color"):
            verify_coloring(g, colors)

    def test_uncolored_neighbor_is_reported(self):
        g = build_interference(parse_function(self.F))
        colors = color_class(g, RegClass.INT)
        del colors[int_reg(2)]
        with pytest.raises(ColoringError, match="uncolored"):
            verify_coloring(g, colors)

    def test_negative_color_is_reported(self):
        g = build_interference(parse_function(self.F))
        colors = color_class(g, RegClass.INT)
        colors[int_reg(3)] = -1
        with pytest.raises(ColoringError, match="negative"):
            verify_coloring(g, colors)

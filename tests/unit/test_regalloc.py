"""Unit tests for interference construction and register-usage coloring."""

import pytest

from repro.ir import fp_reg, int_reg, parse_function
from repro.regalloc import (
    build_interference,
    color_class,
    measure_register_usage,
)
from repro.ir.operands import RegClass


class TestInterference:
    def test_sequential_reuse_no_interference(self):
        f = parse_function(
            """
function t:
A:
  r1i = 1
  MEM(X) = r1i
  r2i = 2
  MEM(X) = r2i
  halt
"""
        )
        g = build_interference(f)
        assert int_reg(2) not in g.neighbors(int_reg(1))

    def test_overlapping_ranges_interfere(self):
        f = parse_function(
            """
function t:
A:
  r1i = 1
  r2i = 2
  r3i = r1i + r2i
  MEM(X) = r3i
  halt
"""
        )
        g = build_interference(f)
        assert int_reg(2) in g.neighbors(int_reg(1))

    def test_classes_never_interfere(self):
        f = parse_function(
            "function t:\nA:\n  r1i = 1\n  r1f = 2.0\n  MEM(X) = r1i\n  MEM(Y) = r1f\n  halt\n"
        )
        g = build_interference(f)
        assert fp_reg(1) not in g.neighbors(int_reg(1))

    def test_entry_live_ins_interfere(self):
        f = parse_function(
            "function t:\nA:\n  r3i = r1i + r2i\n  MEM(X) = r3i\n  halt\n"
        )
        g = build_interference(f)
        assert int_reg(2) in g.neighbors(int_reg(1))

    def test_loop_carried_interference(self):
        f = parse_function(
            """
function t:
A:
L:
  r2i = r1i + 1
  r1i = r2i + r3i
  blt (r1i r4i) L
exit:
  halt
"""
        )
        g = build_interference(f)
        # r3i is live across everything, including both defs
        assert int_reg(3) in g.neighbors(int_reg(1))
        assert int_reg(3) in g.neighbors(int_reg(2))


class TestColoring:
    def test_coloring_is_proper(self):
        f = parse_function(
            """
function t:
A:
  r1i = 1
  r2i = 2
  r3i = 3
  r4i = r1i + r2i
  r5i = r4i + r3i
  MEM(X) = r5i
  halt
"""
        )
        g = build_interference(f)
        colors = color_class(g, RegClass.INT)
        for r, c in colors.items():
            for n in g.neighbors(r):
                if n in colors:
                    assert colors[n] != c

    def test_usage_counts_reuse(self):
        # two disjoint live ranges share one register
        f = parse_function(
            """
function t:
A:
  r1i = 1
  MEM(X) = r1i
  r2i = 2
  MEM(X) = r2i
  halt
"""
        )
        u = measure_register_usage(f)
        assert u.int_regs == 1
        assert u.fp_regs == 0

    def test_usage_grows_with_overlap(self):
        lines = [f"  r{k}i = {k}" for k in range(1, 6)]
        adds = ["  r6i = r1i + r2i", "  r6i = r6i + r3i",
                "  r6i = r6i + r4i", "  r6i = r6i + r5i", "  MEM(X) = r6i"]
        f = parse_function("function t:\nA:\n" + "\n".join(lines + adds) + "\n  halt\n")
        u = measure_register_usage(f)
        assert u.int_regs >= 5

    def test_totals(self):
        f = parse_function(
            "function t:\nA:\n  r1i = 1\n  r1f = 2.0\n  MEM(X) = r1i\n  MEM(Y) = r1f\n  halt\n"
        )
        u = measure_register_usage(f)
        assert u.total == u.int_regs + u.fp_regs == 2

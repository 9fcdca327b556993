"""Unit tests for the execution trace renderer and the FORTRAN-style
kernel pretty printer."""

import numpy as np

from repro.frontend import ArrayDecl, Kernel, Ty, aref, assign, do, flt, if_, var
from repro.frontend.pretty import expr_str, kernel_str
from repro.ir import parse_function
from repro.machine import issue2, unlimited
from repro.sim import (
    Memory, render_packets, render_pipeline, simulate, trace_run,
)


class TestTrace:
    def run_traced(self, machine, run=trace_run):
        f = parse_function(
            """
function t:
entry:
  r1i = 0
L:
  r2f = MEM(A+r1i)
  r3f = r2f * r4f
  MEM(B+r1i) = r3f
  r1i = r1i + 4
  blt (r1i 16) L
exit:
  halt
"""
        )
        mem = Memory()
        mem.bind_array("A", np.arange(1.0, 5.0))
        mem.bind_array("B", np.zeros(4))
        return run(f, machine, mem, fregs={4: 2.0})

    def test_trace_covers_all_instructions(self):
        res, trace = self.run_traced(unlimited())
        assert len(trace) == res.instructions

    def test_trace_times_like_the_compiled_engine(self):
        for machine in (unlimited(), issue2()):
            res, trace = self.run_traced(machine)
            compiled = self.run_traced(machine, simulate)
            assert trace[-1][0] + 1 == res.cycles == compiled.cycles
            assert len(trace) == compiled.instructions

    def test_trace_cycles_nondecreasing(self):
        _, trace = self.run_traced(issue2())
        cycles = [c for c, _ in trace]
        assert cycles == sorted(cycles)

    def test_render_packets_shows_stalls(self):
        _, trace = self.run_traced(unlimited())
        text = render_packets(trace, limit=20)
        assert "cycle" in text
        assert "stall" in text  # the fmul waits on the load

    def test_render_pipeline_marks_latency(self):
        res, trace = self.run_traced(unlimited())
        text = render_pipeline(trace, unlimited(), n_instrs=6)
        assert "I" in text and "=" in text
        # the fmul row shows 3 cycles of execution: I==
        fmul_row = next(l for l in text.splitlines() if "r3f = r2f * r4f" in l)
        assert "I==" in fmul_row

    def test_empty_trace(self):
        assert render_pipeline([], unlimited()) == "(empty trace)"


class TestPretty:
    def test_expressions(self):
        i = var("i")
        assert expr_str(aref("A", i + 1)) == "A(i + 1)"
        assert expr_str((i + 1) * 2) == "(i + 1) * 2"
        assert expr_str(flt(i)) == "FLOAT(i)"
        assert expr_str(-i) == "-i"

    def test_kernel_rendering(self):
        i = var("i")
        k = Kernel(
            "demo",
            arrays={"A": ArrayDecl(Ty.FP, (8, 2))},
            scalars={"s": Ty.FP},
            outputs=["s"],
            body=[do("i", 1, 8, [
                if_(aref("A", i, 1) > 0.0,
                    [assign(var("s"), var("s") + aref("A", i, 1))]),
            ], kind="serial")],
        )
        text = kernel_str(k)
        assert "SUBROUTINE demo" in text
        assert "REAL A(8, 2)" in text
        assert "DO i = 1, 8  ! serial" in text
        assert "IF (A(i, 1) .GT. 0.0) THEN" in text
        assert "ENDIF" in text and "ENDDO" in text and "END" in text
        assert "! outputs: s" in text

    def test_every_corpus_kernel_renders(self):
        from repro.workloads import all_workloads

        for w in all_workloads():
            text = kernel_str(w.build())
            assert "SUBROUTINE" in text and "ENDDO" in text

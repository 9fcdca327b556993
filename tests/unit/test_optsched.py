"""Unit tests for the exact schedulers (repro.optsched).

Covers the solver core (determinism, incumbent tie-break, edge cases),
the block scheduler's contract against the heuristic, the exact modulo
scheduler's bound sandwich, the solver cache, the kernel-level entry
``schedule_exactly``, and end-to-end semantic equality between the list
and the exact schedule.
"""

import pytest

from repro.harness import compile_kernel, run_compiled_kernel, schedule_kernel
from repro.harness import ilp_transform, lower_conv
from repro.ir import parse_block
from repro.ir.instructions import Kind
from repro.machine import MachineConfig, issue1, issue2, issue8
from repro.optsched import (
    DEFAULT_BUDGET,
    Incumbent,
    SchedProblem,
    lower_bound,
    minimize_makespan,
    modulo_schedule,
    optimal_block_schedule,
    schedule_exactly,
    verify_assignment,
)
from repro.optsched import problem_key
from repro.pipeline import Level
from repro.schedule.pipelining import compute_bounds
from repro.service.store import ArtifactStore
from repro.workloads import get_workload


def _chain(n, lat=1, width=0):
    """A serial dependence chain: only one legal order."""
    return SchedProblem(
        latency=(lat,) * n,
        is_branch=(False,) * n,
        kind=("",) * n,
        edges=tuple((i, i + 1, lat) for i in range(n - 1)),
        width=width,
    )


class TestSolverCore:
    def test_single_instruction(self):
        p = _chain(1)
        out = minimize_makespan(p, 1)
        assert out.optimal and out.cost == 1

    def test_chain_is_critical_path_bound(self):
        p = _chain(5, lat=2)
        out = minimize_makespan(p, 10)
        assert out.optimal and out.cost == 10 == lower_bound(p)

    def test_width_bound_independent_ops(self):
        # 8 independent unit ops at width 2: ceil(8/2) cycles
        p = SchedProblem(latency=(1,) * 8, is_branch=(False,) * 8,
                        kind=("",) * 8, edges=(), width=2)
        out = minimize_makespan(p, 8)
        assert out.optimal and out.cost == 4
        verify_assignment(p, out.assignment)

    def test_slot_limited_kind(self):
        # 4 loads, load unit limited to 1/cycle, width unlimited
        p = SchedProblem(latency=(1,) * 4, is_branch=(False,) * 4,
                        kind=("LOAD",) * 4, edges=(), width=0,
                        slot_limits=(("LOAD", 1),))
        out = minimize_makespan(p, 4)
        assert out.optimal and out.cost == 4

    def test_branch_slot(self):
        # two branches cannot share a cycle
        p = SchedProblem(latency=(1, 1), is_branch=(True, True),
                        kind=("", ""), edges=(), width=0)
        out = minimize_makespan(p, 2)
        assert out.optimal and out.cost == 2

    def test_timeout_returns_heuristic_incumbent(self):
        p = SchedProblem(latency=(1,) * 12, is_branch=(False,) * 12,
                        kind=("",) * 12, edges=(), width=3)
        ub = tuple(i // 3 for i in range(12))
        out = minimize_makespan(p, 5, ub, budget=1)
        assert out.status == "timeout-incumbent" and not out.optimal
        assert out.cost == 5 and out.assignment == ub

    def test_deterministic_under_timeout(self):
        # identical (problem, budget) -> bit-identical outcome, replayed
        p = SchedProblem(
            latency=(2, 1, 3, 1, 2, 1, 1, 2), is_branch=(False,) * 8,
            kind=("A", "B", "A", "B", "A", "B", "A", "B"),
            edges=((0, 4, 2), (1, 5, 1), (2, 6, 3)),
            width=2, slot_limits=(("A", 1), ("B", 1)),
        )
        runs = [minimize_makespan(p, 12, tuple(range(0, 16, 2)), budget=40)
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_incumbent_equal_cost_keeps_first(self):
        inc = Incumbent(10, (0, 1))
        assert inc.offer(9, (1, 2))            # strict improvement
        assert not inc.offer(9, (9, 9))        # tie: first discovery wins
        assert inc.assignment == (1, 2)
        assert not inc.offer(11, (0, 0))       # worse never displaces
        assert inc.cost == 9


class TestBlockScheduler:
    def _body(self):
        return parse_block(
            """
            r1f = MEM(A+r2i)
            r3f = r1f * r4f
            MEM(B+r2i) = r3f
            r2i = r2i + 4
            blt (r2i r5i) L
            """
        ).instrs

    @pytest.mark.parametrize("machine", [
        issue1(), issue2(), issue8(),
        MachineConfig(issue_width=2, slot_limits={Kind.LOAD: 1}),
        MachineConfig(issue_width=4,
                      slot_limits={Kind.FP_MUL: 1, Kind.INT_ALU: 2}),
    ])
    def test_never_worse_and_verified(self, machine):
        res = optimal_block_schedule(self._body(), machine)
        assert res.optimal_makespan <= res.heuristic_makespan
        assert res.schedule.makespan == res.optimal_makespan
        assert res.status in ("optimal", "timeout-incumbent")

    def test_single_instruction_block(self):
        body = parse_block("r1i = r2i + 1").instrs
        res = optimal_block_schedule(body, issue8())
        assert res.optimal and res.status == "optimal"
        assert res.schedule.order == body

    def test_zero_budget_keeps_heuristic_verbatim(self):
        from repro.schedule.listsched import list_schedule

        body = self._body()
        heur = list_schedule(body, issue2())
        res = optimal_block_schedule(body, issue2(), budget=1)
        # the anytime fallback is the *same object order* as the heuristic
        assert [id(i) for i in res.schedule.order] \
            == [id(i) for i in heur.order]
        assert res.schedule.issue == heur.issue

    def test_corpus_improvement_is_found_and_proved(self):
        # merge at Lev4/issue-8: greedy list scheduling emits a 12-cycle
        # superblock body; the solver proves 11 is achievable and minimal.
        # Pinned: this is the regression test that the solver actually
        # finds headroom when it exists.
        tk = ilp_transform(lower_conv(get_workload("merge").build()),
                           Level.LEV4, issue8())
        ck_o, proofs = schedule_exactly(tk, issue8())
        ck_h = schedule_kernel(tk, issue8())
        assert ck_h.inner_makespan == 12
        assert ck_o.inner_makespan == 11
        body = proofs[ck_o.sb.body.label]
        assert body["status"] == "optimal" and body["proved_lb"] == 11


class TestModuloScheduler:
    def _compiled(self, name, level=Level.LEV4):
        w = get_workload(name)
        ck = compile_kernel(w.build(), level, issue8())
        return w, ck

    def _modulo(self, name, level=Level.LEV4, **kw):
        w, ck = self._compiled(name, level)
        return ck, modulo_schedule(
            ck.sb.body.instrs, issue8(),
            iterations=ck.report.unroll_factor,
            prologue=ck.sb.preheader.instrs,
            doall=w.loop_type == "doall", **kw,
        )

    def test_ii_sandwich(self):
        for name in ("add", "sum", "dotprod", "LWS-1", "NAS-4"):
            ck, ms = self._modulo(name)
            assert ms.bounds.mii <= ms.ii <= ms.acyclic_makespan, name
            assert ms.optimal == (ms.ii == ms.bounds.mii), name

    def test_recmii_dominated_loop(self):
        # LWS-1's memory recurrence: RecMII > ResMII, and no schedule can
        # beat the dataflow bound -- the exact search must prove it met
        ck, ms = self._modulo("LWS-1")
        assert ms.bounds.rec_mii > ms.bounds.res_mii
        assert ms.status == "optimal" and ms.ii == ms.bounds.rec_mii

    def test_reduction_pipelines_below_acyclic(self):
        # dotprod Lev4: the acyclic schedule cannot reach MII, the
        # modulo schedule can (proved) -- real pipelining headroom
        ck, ms = self._modulo("dotprod")
        assert ms.status == "optimal"
        assert ms.ii < ms.acyclic_makespan

    def test_kernel_rows_cover_body(self):
        ck, ms = self._modulo("sum")
        rows = ms.kernel_rows()
        assert len(rows) == ms.ii
        flat = [i for row in rows for i, _ in row]
        assert sorted(flat) == list(range(len(ck.sb.body.instrs)))
        assert ms.prologue_cycles == (ms.stages - 1) * ms.ii

    def test_timeout_falls_back_to_acyclic(self):
        ck, ms = self._modulo("NAS-1", budget=1)
        assert ms.status == "timeout-incumbent"
        assert ms.ii == ms.acyclic_makespan


class TestSolverCache:
    def test_block_cache_hit_is_byte_equivalent(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        body = parse_block(
            """
            r1f = MEM(A+r2i)
            r3f = r1f + r4f
            MEM(B+r2i) = r3f
            r2i = r2i + 4
            blt (r2i r5i) L
            """
        ).instrs
        cold = optimal_block_schedule(body, issue2(), store=store)
        warm = optimal_block_schedule(body, issue2(), store=store)
        assert not cold.cached and warm.cached
        assert warm.optimal_makespan == cold.optimal_makespan
        assert warm.status == cold.status and warm.nodes == cold.nodes
        assert [id(a) for a in warm.schedule.order] \
            == [id(a) for a in cold.schedule.order]

    def test_modulo_cache_hit(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        w = get_workload("sum")
        ck = compile_kernel(w.build(), Level.LEV4, issue8())
        kw = dict(iterations=ck.report.unroll_factor,
                  prologue=ck.sb.preheader.instrs,
                  doall=w.loop_type == "doall", store=store)
        cold = modulo_schedule(ck.sb.body.instrs, issue8(), **kw)
        warm = modulo_schedule(ck.sb.body.instrs, issue8(), **kw)
        assert not cold.cached and warm.cached
        assert (warm.ii, warm.status, warm.times) \
            == (cold.ii, cold.status, cold.times)

    def test_budget_is_part_of_the_key(self):
        p = _chain(3)
        assert problem_key(p, 100) != problem_key(p, 200)
        assert problem_key(p, 100) == problem_key(p, 100)

    def test_golden_problem_keys(self):
        # recorded before solver keys moved onto service.keys.content_key
        # and re-recorded for the repro-2026.10-pm6 salt: they change only
        # with SOLVER_VERSION / CODE_VERSION, on purpose
        loads = SchedProblem(latency=(1,) * 4, is_branch=(False,) * 4,
                             kind=("LOAD",) * 4, edges=(), width=0,
                             slot_limits=(("LOAD", 1),))
        ring = SchedProblem(latency=(2, 1, 1), is_branch=(False, False, True),
                            kind=("", "", ""),
                            edges=((0, 1, 2), (1, 2, 0), (2, 0, -3)),
                            width=2, period=3)
        assert problem_key(_chain(3), 100) == (
            "0180daf32c7747a6bbb78a620c2a4403ef72016846a265be6670733d2883fb34")
        assert problem_key(loads, 50000, "min", {"ub": 4}) == (
            "f5b307a04f8b99de68f15fa8461a290f042b91955f100217e69b8760718308aa")
        assert problem_key(ring, 100000, "modulo", {
            "cross": [[2, 0, 1, 1]], "ub": 5, "mii": 3}) == (
            "213dde092140ad4009a57fae18431295e2403934e72b54325ae39cde6795fd8a")

    def test_a_store_written_before_the_fold_still_hits(self, tmp_path):
        """``data/parent_solver_store`` holds the ten blobs the commit
        before this layout wrote for the three computations below (an
        existing ``--solver-store`` directory), re-keyed for the
        repro-2026.10-pm6 salt and re-recorded in the store's header
        layout, which reads a JSON-envelope blob as stale: same keys,
        same payloads, and the bytes a fresh store writes for them.  All
        of them are found, nothing is recomputed or rewritten."""
        import shutil
        from pathlib import Path

        root = tmp_path / "s"
        shutil.copytree(Path(__file__).parent / "data" / "parent_solver_store",
                        root)
        store = ArtifactStore(root)
        body = parse_block(
            """
            r1f = MEM(A+r2i)
            r3f = r1f + r4f
            MEM(B+r2i) = r3f
            r2i = r2i + 4
            blt (r2i r5i) L
            """
        ).instrs
        assert optimal_block_schedule(body, issue2(), store=store).cached
        tk = ilp_transform(lower_conv(get_workload("merge").build()),
                           Level.LEV4, issue8())
        ck, proofs = schedule_exactly(tk, issue8(), store=store)
        body_proof = proofs[ck.sb.header]
        assert body_proof["cached"] and body_proof["optimal_makespan"] == 11
        w = get_workload("sum")
        ck = compile_kernel(w.build(), Level.LEV4, issue8())
        ms = modulo_schedule(
            ck.sb.body.instrs, issue8(), iterations=ck.report.unroll_factor,
            prologue=ck.sb.preheader.instrs, doall=w.loop_type == "doall",
            store=store)
        assert ms.cached and (ms.ii, ms.status) == (4, "optimal")
        assert store.stats.hits == 42
        assert store.stats.misses == store.stats.puts == 0


class TestScheduleExactly:
    def test_schedule_phase_is_listsched_alone(self):
        from repro.passes.registry import DEFAULT_PHASES

        names = [p.name for p in DEFAULT_PHASES["schedule"].passes]
        assert names == ["listsched"]
        ck = compile_kernel(get_workload("add").build(), Level.LEV4, issue8())
        names = [s.name for s in ck.report.stats if s.phase == "schedule"]
        assert names == ["listsched"]

    def test_lev5_vector_kinds(self):
        # Lev5 SLP emits VEC_* instructions; the solver must handle their
        # latencies/kinds and the verifier must accept the result
        tk = ilp_transform(lower_conv(get_workload("add").build()),
                           Level.LEV5, issue8())
        ck, proofs = schedule_exactly(tk, issue8(), check=True)
        assert ck.report.rewrites("slp") > 0 and ck.usage is not None
        assert proofs and all(
            p["status"] in ("optimal", "timeout-incumbent")
            for p in proofs.values())

    @pytest.mark.parametrize("level", (Level.CONV, Level.LEV4, Level.LEV5),
                             ids=lambda lv: lv.label)
    def test_end_states_bit_identical_across_backends(self, level):
        # the oracle holds the list schedule against the golden state;
        # the exact schedule must reproduce the list schedule's end state
        import numpy as np

        for name in ("dotprod", "merge", "LWS-1"):
            w = get_workload(name)
            tk = ilp_transform(lower_conv(w.build()), level, issue8(),
                               check=True)
            ck_o, _ = schedule_exactly(tk, issue8(), check=True)
            ck_h = schedule_kernel(tk, issue8(), check=True)
            arrays, scalars = w.make_inputs(0)
            rh = run_compiled_kernel(ck_h, arrays=arrays, scalars=scalars)
            ro = run_compiled_kernel(ck_o, arrays=arrays, scalars=scalars)
            assert rh.arrays.keys() == ro.arrays.keys(), name
            for k in rh.arrays:
                assert np.array_equal(rh.arrays[k], ro.arrays[k]), (name, k)
            assert rh.scalars == ro.scalars, name
            assert ro.cycles <= rh.cycles * 1.05, name

    def test_the_kernel_it_is_given_stays_unscheduled(self):
        tk = ilp_transform(lower_conv(get_workload("merge").build()),
                           Level.LEV4, issue8())
        before = [list(b.instrs) for b in tk.lowered.func.blocks]
        ck, _ = schedule_exactly(tk, issue8())
        assert [b.instrs for b in tk.lowered.func.blocks] == before
        assert ck.func is not tk.lowered.func

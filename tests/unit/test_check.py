"""Tests for the differential correctness oracle (repro.check).

Three layers, mirroring the module structure:

* ``refeval`` — the boring sequential IR interpreter (control flow, strict
  uninitialized-read and unaligned-address errors, store logging);
* ``oracle`` — golden-state comparison, tolerance policy,
  first-divergent-store provenance, and the engine-vs-reference timing
  check (a timing fault planted on either side is reported);
* ``fuzz`` — the AST interpreter, spec determinism, and greedy shrinking.
"""

import dataclasses

import numpy as np
import pytest

import importlib
import inspect
import textwrap

fuzz_mod = importlib.import_module("repro.check.fuzz")
replay_mod = importlib.import_module("repro.sim.replay")
simulator_mod = importlib.import_module("repro.sim.simulator")
timing_mod = importlib.import_module("repro.check.timing")

from repro.check.fuzz import (
    CaseSpec,
    build_kernel,
    build_workload,
    _case_data,
    fuzz,
    interpret_kernel,
    random_spec,
    shrink_kernel,
)
from repro.check.oracle import (
    Divergence,
    OracleReport,
    _diff_states,
    check_workload,
    run_oracle,
)
from repro.check.refeval import ref_eval, reference_run
from repro.ir import parse_function
from repro.ir.instructions import Kind
from repro.machine import unlimited
from repro.pipeline import ALL_LEVELS, Level
from repro.sim import SimMemoryError, SimulationError, simulate
from repro.sim.executor import _idiv, _irem
from repro.workloads import get_workload

from . import _memory_rule as rule


class TestRefEval:
    def test_straight_line(self):
        f = parse_function(
            """
            entry:
              r1i = r2i + 5
              r3i = r1i * r1i
              halt
            """
        )
        res = ref_eval(f, iregs={2: 7})
        assert res.iregs[3] == 144
        assert res.steps == 3

    def test_loop_follows_branches(self):
        # sum 1..5 through an explicit backedge
        f = parse_function(
            """
            entry:
              r1i = 1
              r2i = 0
            loop:
              r2i = r2i + r1i
              r1i = r1i + 1
              ble (r1i 5) loop
            done:
              halt
            """
        )
        res = ref_eval(f)
        assert res.iregs[2] == 15

    def test_uninitialized_register_read_raises(self):
        f = parse_function("entry:\n  r1i = r9i + 1\n  halt\n")
        with pytest.raises(SimulationError,
                           match="^read of uninitialized register: <add"):
            ref_eval(f)

    def test_uninitialized_load_raises(self):
        f = parse_function("entry:\n  r1f = MEM(r2i+0)\n  halt\n")
        with pytest.raises(SimMemoryError, match="uninitialized address"):
            ref_eval(f, iregs={2: 64})

    def test_division_by_zero_raises(self):
        f = parse_function("entry:\n  r1i = r2i / r3i\n  halt\n")
        with pytest.raises(SimulationError, match="division by zero"):
            ref_eval(f, iregs={2: 4, 3: 0})

    def test_store_log_records_address_and_value(self):
        f = parse_function(
            """
            entry:
              MEM(r1i+4) = r2f
              MEM(r1i+4) = r3f
              halt
            """
        )
        res = ref_eval(f, iregs={1: 96}, fregs={2: 1.5, 3: 2.5},
                       log_stores=True)
        assert [(ev.addr, ev.value) for ev in res.stores] == [
            (100, 1.5), (100, 2.5)
        ]
        assert res.memory._words[100 >> 2] == 2.5

    # the memory rule (repro.sim.memory), as the block code applies it

    @pytest.mark.parametrize("case", sorted(rule.FAULTS))
    def test_memory_fault_matches_the_simulator(self, case):
        ops, addr, prefix = rule.FAULTS[case]
        f = parse_function(rule.function_text(ops, "straight"))
        with pytest.raises(SimMemoryError) as ref:
            ref_eval(f, rule.memory(), iregs={3: addr}, fregs={4: 2.5})
        with pytest.raises(SimMemoryError) as sim:
            simulate(f, unlimited(), rule.memory(), {3: addr}, {4: 2.5},
                     engine="auto")
        assert str(ref.value).startswith(f"{prefix} {addr:#x}: <")
        assert str(ref.value) == str(sim.value)

    # an unaligned address is the reference's error alone: block code
    # indexes ``addr >> 2`` and reads the word below (repro.sim.memory)

    @pytest.mark.parametrize("case", sorted(rule.UNALIGNED))
    def test_unaligned_address_raises(self, case):
        ops, what = rule.UNALIGNED[case]
        f = parse_function(rule.function_text(ops, "straight"))
        addr = rule.BASE + 2
        want = f"unaligned {what} at {addr:#x}: <"
        with pytest.raises(SimMemoryError, match=f"^{want}"):
            ref_eval(f, rule.memory(), iregs={3: addr}, fregs={4: 2.5})
        with pytest.raises(SimMemoryError, match=f"^{want}"):
            simulate(f, unlimited(), rule.memory(), {3: addr}, {4: 2.5},
                     engine="interp")

    def test_block_code_reads_the_word_below_an_unaligned_address(self):
        # the split the oracle covers: unchecked on the hot path
        f = parse_function(rule.function_text("r2f = MEM(r3i+0)",
                                              "straight"))
        res = simulate(f, unlimited(), rule.memory(),
                       {3: rule.BASE + 2}, {}, engine="auto")
        assert res.fregs[2] == 0.0  # A[0]

    @pytest.mark.parametrize("case", sorted(rule.ACCEPTED))
    def test_store_below_the_top_is_accepted(self, case):
        addr = rule.ACCEPTED[case]
        f = parse_function(rule.function_text(rule.STORE_THEN_LOAD,
                                              "straight"))
        res = ref_eval(f, rule.memory(), iregs={3: addr}, fregs={4: 2.5})
        assert res.fregs[5] == 2.5 and res.memory.load(addr) == 2.5

    def test_golden_run_matches_workload_reference(self):
        # the naive-lowered golden state agrees with the NumPy reference
        w = get_workload("dotprod")
        arrays, scalars = w.make_inputs(0)
        got_arrays, got_scalars, res = reference_run(
            w.build(), arrays, scalars, log_stores=True
        )
        want_arrays, want_scalars = w.reference(arrays, scalars)
        for name, want in want_arrays.items():
            np.testing.assert_allclose(got_arrays[name], want, rtol=w.rtol)
        for name, want in want_scalars.items():
            assert np.isclose(got_scalars[name], want, rtol=w.rtol)


class TestOracle:
    def test_clean_workloads_have_no_divergences(self):
        for name in ("add", "dotprod", "merge"):
            checked, divs = check_workload(get_workload(name))
            assert checked == len(ALL_LEVELS) * 2  # widths (1, 8)
            assert divs == []

    def test_report_summary(self):
        r = OracleReport(configs_checked=10, kernels_checked=2, elapsed=1.0)
        assert r.ok and "OK" in r.summary()
        r.divergences.append(Divergence("w", "Lev4", 8, "array", "boom"))
        assert not r.ok and "1 DIVERGENCES" in r.summary()
        assert str(r.divergences[0]) == "w Lev4 issue-8 [array]: boom"

    def test_run_oracle_subset(self):
        report = run_oracle([get_workload("sum")], widths=(4,))
        assert report.ok
        assert report.kernels_checked == 1
        assert report.configs_checked == len(ALL_LEVELS)

    def test_diff_states_provenance_names_last_store(self):
        # perturb one golden element and check the report carries the
        # address and the store that produced the golden value
        w = get_workload("add")
        arrays, scalars = w.make_inputs(0)
        golden_arrays, golden_scalars, res = reference_run(
            w.build(), arrays, scalars, log_stores=True
        )
        stored = {ev.addr for ev in res.stores}
        name = next(n for n in golden_arrays
                    if res.memory.array_base(n) + 4 * 3 in stored)
        bad_arrays = {k: v.copy() for k, v in golden_arrays.items()}
        bad_arrays[name].flat[3] += 1.0
        msg = _diff_states(w, bad_arrays, golden_scalars,
                           golden_arrays, golden_scalars, exact=True,
                           golden_res=res)
        assert msg is not None and f"array {name}[flat 3]" in msg
        addr = res.memory.array_base(name) + 4 * 3
        assert f"addr {addr:#x}" in msg
        assert "golden last store" in msg and "step" in msg

    def test_diff_states_tolerance_policy(self):
        w = get_workload("add")
        a = {"A": np.array([1.0, 2.0, 3.0])}
        b = {"A": np.array([1.0, 2.0, 3.0 + 1e-12])}
        assert _diff_states(w, a, {}, b, {}, exact=True) is not None
        assert _diff_states(w, a, {}, b, {}, exact=False) is None

    def test_diff_states_scalar(self):
        w = get_workload("sum")
        msg = _diff_states(w, {}, {"s": 2.0}, {}, {"s": 3.0}, exact=True)
        assert msg == "scalar s diverges: got 2.0 want 3.0"


SPECS = [
    CaseSpec(seed=1, trip=7, outer=0, stmts=("axpy",), symbolic_bound=False,
             consts=(2, -1, 3, 5, 4)),
    CaseSpec(seed=2, trip=12, outer=2, stmts=("imath", "dot"),
             symbolic_bound=True, consts=(-3, 2, 4, 7, -5)),
    CaseSpec(seed=3, trip=9, outer=0, stmts=("guard", "amax"),
             symbolic_bound=False, consts=(0, 1, 2, 3, 0)),
]


class TestIssueTimer:
    # a two-block loop: the add issues at even cycles, the branch waits
    # for it and issues at odd ones; an odd packet opens on that stall
    # (the branch's block B), an even one after the taken back edge (H)
    LOOP = ("function t:\nH:\n  r1i = r1i + 1\nB:\n"
            "  blt (r1i 1000000) H\n  halt\n")

    @pytest.mark.parametrize("max_cycles, block", [(100, "B"), (101, "H")])
    def test_runaway_names_the_block_control_is_in(self, max_cycles, block):
        with pytest.raises(SimulationError) as e:
            simulate(parse_function(self.LOOP), unlimited(), iregs={1: 0},
                     max_cycles=max_cycles, engine="interp")
        assert str(e.value) == (
            f"exceeded {max_cycles} cycles in t (at block {block})")


def _mutated(fn, old: str, new: str):
    """``fn`` recompiled with ``old`` replaced by ``new`` in its source."""
    src = textwrap.dedent(inspect.getsource(fn))
    assert old in src, f"{old!r} not in {fn.__qualname__}"
    ns: dict = {}
    exec(compile(src.replace(old, new), f"<mutated {fn.__qualname__}>",
                 "exec"), fn.__globals__, ns)
    return ns[fn.__name__]


class TestTimingGuard:
    """Timing is compared on every configuration: a timing fault planted
    in the replay or in the reference timer is reported as an
    ``engine-vs-engine`` divergence, and as nothing else."""

    @staticmethod
    def _kinds() -> set[str]:
        checked, divs = check_workload(
            get_workload("dotprod"), levels=(Level.CONV, Level.LEV4),
            widths=(1, 8), check_ir=False)
        assert checked == 4
        return {d.kind for d in divs}

    # the WAW interlock: a write completes strictly after the pending one
    WAW, WAW_OFF_BY_ONE = "- lat + 1", "- lat + 2"

    def test_unpatched_both_sides_agree(self):
        assert self._kinds() == set()

    def test_waw_off_by_one_in_replay(self, monkeypatch):
        monkeypatch.setattr(replay_mod, "_transition", _mutated(
            replay_mod._transition, self.WAW, self.WAW_OFF_BY_ONE))
        assert self._kinds() == {"engine-vs-engine"}

    def test_waw_off_by_one_in_the_timer(self, monkeypatch):
        monkeypatch.setattr(timing_mod.IssueTimer, "_packets", _mutated(
            timing_mod.IssueTimer._packets, self.WAW, self.WAW_OFF_BY_ONE))
        assert self._kinds() == {"engine-vs-engine"}

    def test_load_latency_off_by_one_in_the_replay_rows(self, monkeypatch):
        rows = simulator_mod.timing_rows

        def late_loads(prog):
            return [{k: (srcs, dest, lat + (kind is Kind.LOAD), closes, kind)
                     for k, (srcs, dest, lat, closes, kind) in table.items()}
                    for table in rows(prog)]

        monkeypatch.setattr(simulator_mod, "timing_rows", late_loads)
        assert self._kinds() == {"engine-vs-engine"}


class TestFuzz:
    def test_interpreter_truncating_division(self):
        # imath exercises div/rem over negative dividends: the AST
        # interpreter must share the executor's toward-zero semantics
        spec = SPECS[1]
        arrays, scalars = _case_data(spec)
        arrs, _ = interpret_kernel(build_kernel(spec), arrays, scalars)
        c = spec.consts
        ji = arrays["JI"]
        want_ki = np.array(
            [_idiv(int(v) * c[0] + c[1], c[2]) for v in ji]
        )
        np.testing.assert_array_equal(arrs["KI"], want_ki)
        want_li = np.array(
            [_irem(int(v), c[3]) + int(k) * c[4]
             for v, k in zip(ji, want_ki)]
        )
        np.testing.assert_array_equal(arrs["LI"], want_li)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"seed{s.seed}")
    def test_interpreter_agrees_with_lowered_golden(self, spec):
        # two independent references — AST walking vs naive-lowered IR
        # evaluation — must agree bit-identically on exact-fp data
        arrays, scalars = _case_data(spec)
        ast_arrays, ast_scalars = interpret_kernel(
            build_kernel(spec), arrays, scalars
        )
        ir_arrays, ir_scalars, _ = reference_run(
            build_kernel(spec), arrays, scalars
        )
        for name in ast_arrays:
            np.testing.assert_array_equal(
                ast_arrays[name].reshape(-1, order="F"),
                np.asarray(ir_arrays[name]).reshape(-1, order="F"),
            )
        assert ast_scalars == ir_scalars

    def test_spec_is_deterministic(self):
        assert random_spec(42) == random_spec(42)
        w1, w2 = build_workload(SPECS[0]), build_workload(SPECS[0])
        a1, s1 = w1.make_inputs(0)
        a2, s2 = w2.make_inputs(0)
        assert s1 == s2
        for name in a1:
            np.testing.assert_array_equal(a1[name], a2[name])

    def test_serial_template_forces_serial_loop(self):
        assert build_kernel(SPECS[0]).inner_do().kind == "doall"
        assert build_kernel(SPECS[1]).inner_do().kind == "serial"
        assert "n" in build_kernel(SPECS[1]).scalars  # symbolic bound

    def test_fuzz_case_through_oracle(self):
        checked, divs = check_workload(build_workload(SPECS[1]))
        assert checked == len(ALL_LEVELS) * 2
        assert divs == []

    def test_fuzz_driver_clean(self):
        assert fuzz(n_cases=3, seed=0) == []

    def test_shrinker_minimizes_failing_spec(self, monkeypatch):
        # fake oracle: "fails" iff the spec still contains the dot
        # template — the shrinker must strip everything else away
        def fake_check(spec, levels, widths, check_ir):
            if "dot" in spec.stmts:
                return [Divergence(f"fuzz{spec.seed}", "Lev4", 8,
                                   "scalar", "injected")]
            return []

        monkeypatch.setattr(fuzz_mod, "_check_spec", fake_check)
        big = CaseSpec(seed=9, trip=24, outer=3,
                       stmts=("axpy", "dot", "guard"), symbolic_bound=True,
                       consts=(1, 2, 3, 4, 5))
        small, divs = shrink_kernel(big)
        assert small.stmts == ("dot",)
        assert small.trip == 1
        assert small.outer == 0
        assert not small.symbolic_bound
        assert divs and divs[0].detail == "injected"

    def test_shrunk_spec_rebuilds_identically(self):
        spec = dataclasses.replace(SPECS[2], trip=4)
        k1, k2 = build_kernel(spec), build_kernel(spec)
        assert repr(k1.body) == repr(k2.body)

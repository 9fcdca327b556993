"""Regression tests for the fast sweep engine.

The engine layers three reuse/parallelism mechanisms on the grid run
(width-sharded cell evaluation, a fork-based process pool, and resume
from the artifact store); these tests pin the one property that makes
them safe: every path produces *identical* results.
"""

import json

import pytest

from repro.experiments.sweep import (
    CACHE_VERSION,
    ConfigResult,
    load_sweep,
    run_config,
    run_sweep,
    save_sweep,
)
from repro.harness import (
    compile_kernel,
    ilp_transform,
    lower_conv,
    schedule_kernel,
)
from repro.machine import MachineConfig
from repro.pipeline import Level
from repro.service.store import ArtifactStore
from repro.workloads import get_workload

WORKLOADS = ("add", "sum", "maxval")
LEVELS = (Level.CONV, Level.LEV4)
WIDTHS = (1, 8)


def _key_fields(r: ConfigResult) -> tuple:
    """Everything that must be bit-identical across engine paths
    (timing fields legitimately differ)."""
    return (r.workload, r.level, r.width, r.cycles, r.instructions,
            r.inner_makespan, r.int_regs, r.fp_regs, r.checked)


def _store(tmp_path) -> ArtifactStore:
    """A fresh handle on the test's store directory (what a rerun after
    an interruption would open)."""
    return ArtifactStore(tmp_path / "store")


@pytest.fixture(scope="module")
def serial_sweep():
    wls = [get_workload(n) for n in WORKLOADS]
    return run_sweep(wls, LEVELS, WIDTHS)


class TestStagedCompile:
    def test_staged_equals_monolithic(self):
        """transform-once + schedule-per-width == full recompilation."""
        w = get_workload("dotprod")
        kernel = w.build()
        conv = lower_conv(kernel)
        for level in LEVELS:
            tk = ilp_transform(conv.clone(), level, MachineConfig(issue_width=8))
            for width in (1, 2, 4, 8):
                machine = MachineConfig(issue_width=width)
                ref = compile_kernel(kernel, level, machine)
                new = schedule_kernel(tk.clone(), machine)
                assert new.inner_makespan == ref.inner_makespan
                ref_instrs = [str(i) for b in ref.func.blocks for i in b.instrs]
                new_instrs = [str(i) for b in new.func.blocks for i in b.instrs]
                assert new_instrs == ref_instrs

    def test_clone_isolates_mutation(self):
        """Scheduling a clone must not disturb the transformed original."""
        conv = lower_conv(get_workload("add").build())
        tk = ilp_transform(conv, Level.LEV4, MachineConfig(issue_width=8))
        before = [str(i) for b in tk.lowered.func.blocks for i in b.instrs]
        schedule_kernel(tk.clone(), MachineConfig(issue_width=8))
        after = [str(i) for b in tk.lowered.func.blocks for i in b.instrs]
        assert after == before


class TestParallelSweep:
    def test_parallel_identical_to_serial(self, serial_sweep):
        wls = [get_workload(n) for n in WORKLOADS]
        par = run_sweep(wls, LEVELS, WIDTHS, jobs=2)
        assert list(par.results.keys()) == list(serial_sweep.results.keys())
        for k in serial_sweep.results:
            assert _key_fields(par.results[k]) == _key_fields(serial_sweep.results[k])

    def test_run_config_matches_sweep(self, serial_sweep):
        """The single-configuration path agrees with the sharded task path."""
        r = run_config(get_workload("sum"), Level.LEV4, MachineConfig(issue_width=8))
        assert _key_fields(r) == _key_fields(serial_sweep.get("sum", Level.LEV4, 8))

    def test_phase_timings_recorded(self, serial_sweep):
        rs = list(serial_sweep.results.values())
        # transform cost is attributed to the first width of each task...
        assert all(r.t_compile > 0 for r in rs if r.width == WIDTHS[0])
        # ...and never smeared over the others
        assert all(r.t_compile == 0 for r in rs if r.width != WIDTHS[0])
        assert all(r.t_schedule > 0 and r.t_simulate > 0 for r in rs)

    def test_register_colouring_is_timed_per_width(self, serial_sweep):
        # colouring is in none of the three phase timers; every width pays
        # its own and says so in the per-pass map
        rs = list(serial_sweep.results.values())
        assert all(r.t_passes["regalloc"] > 0 for r in rs)
        assert serial_sweep.pass_seconds()["regalloc"] == pytest.approx(
            sum(r.t_passes["regalloc"] for r in rs))

    def test_checked_compile_is_coloured_once(self, monkeypatch):
        # check_ir verifies a colouring inside schedule_kernel; the cell
        # evaluator reuses that one instead of measuring again
        import repro.harness as harness

        calls = []
        real = harness.measure_register_usage

        def counting(func, live_out_exit=None, check=False):
            calls.append(check)
            return real(func, live_out_exit, check=check)

        monkeypatch.setattr(harness, "measure_register_usage", counting)
        machines = [MachineConfig(issue_width=wd) for wd in WIDTHS]
        w = get_workload("sum")
        checked = harness.evaluate_cell(w, Level.LEV4, machines,
                                        check_ir=True)
        assert calls == [True] * len(WIDTHS)
        assert all(r.ck.usage is r.usage for r in checked)
        assert all("regalloc" not in r.timings["t_passes"] for r in checked)
        # unchecked, the widths are coloured over the cell's one
        # register numbering instead
        calls.clear()
        numberings = []
        real_init = harness.RegisterNumbering.__init__

        def recording(self, *args, **kwargs):
            numberings.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(harness.RegisterNumbering, "__init__", recording)
        plain = harness.evaluate_cell(w, Level.LEV4, machines)
        assert calls == []
        assert len(numberings) == 1
        assert all(r.ck.usage is None for r in plain)
        assert [r.usage for r in plain] == [r.usage for r in checked]


class TestCellEvaluatorIdentity:
    """The sweep task path, ``run_config`` and a multi-width service
    batch all pack one evaluator's output: they must agree."""

    @pytest.mark.parametrize("level", (Level.CONV, Level.LEV4, Level.LEV5))
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_three_callers_agree(self, name, level):
        from repro.experiments.sweep import _run_task
        from repro.service.jobs import compute_cell

        fields = ("cycles", "instructions", "inner_makespan",
                  "int_regs", "fp_regs")
        task = _run_task((name, int(level), WIDTHS, 0, True, False, None,
                          "auto"))
        batch = compute_cell(("run", name, int(level), WIDTHS, 0, True,
                              False, ()))
        assert [p["width"] for p in batch] == list(WIDTHS)
        for width, swept, served in zip(WIDTHS, task, batch):
            single = run_config(get_workload(name), level,
                                MachineConfig(issue_width=width))
            want = [getattr(single, f) for f in fields]
            assert [getattr(swept, f) for f in fields] == want
            assert [served[f] for f in fields] == want


class TestStoreResume:
    """Resume = rerun against the same store (there is no other
    resumable persistence)."""

    def test_resume_skips_finished_configs(self, serial_sweep, tmp_path):
        wls = [get_workload(n) for n in WORKLOADS]
        per_wl = len(LEVELS) * len(WIDTHS)

        first = run_sweep(wls[:2], LEVELS, WIDTHS, store=_store(tmp_path))
        assert first.computed == 2 * per_wl
        assert first.store_hits == 0

        resumed = run_sweep(wls, LEVELS, WIDTHS, jobs=2,
                            store=_store(tmp_path))
        assert resumed.store_hits == first.computed  # nothing recomputed
        assert resumed.computed == per_wl            # only maxval
        assert list(resumed.results) == list(serial_sweep.results)
        for k in serial_sweep.results:
            assert _key_fields(resumed.results[k]) == _key_fields(serial_sweep.results[k])

    def test_partial_cell_recomputes_only_missing_widths(self, tmp_path):
        """A cell whose put was interrupted between widths resumes at the
        width level, not the cell level."""
        wls = [get_workload("add")]
        run_sweep(wls, LEVELS, WIDTHS[:1], store=_store(tmp_path))
        again = run_sweep(wls, LEVELS, WIDTHS, store=_store(tmp_path))
        assert again.store_hits == len(LEVELS)
        assert again.computed == len(LEVELS) * (len(WIDTHS) - 1)

    def test_other_seed_or_salt_is_recomputed_never_reused(self, tmp_path):
        wls = [get_workload("add")]
        n = len(LEVELS) * len(WIDTHS)
        run_sweep(wls, LEVELS, WIDTHS, seed=0, store=_store(tmp_path))

        other_seed = run_sweep(wls, LEVELS, WIDTHS, seed=1,
                               store=_store(tmp_path))
        assert (other_seed.store_hits, other_seed.computed) == (0, n)

        # same keys, but the blobs were written under another code version
        stale = ArtifactStore(tmp_path / "store", salt="some-other-version")
        other_salt = run_sweep(wls, LEVELS, WIDTHS, seed=0, store=stale)
        assert (other_salt.store_hits, other_salt.computed) == (0, n)

    def test_without_a_store_every_sweep_restarts(self, monkeypatch):
        from repro.service.keys import _KeyTemplate

        digests = []
        real = _KeyTemplate.digest
        monkeypatch.setattr(_KeyTemplate, "digest",
                            lambda *a: digests.append(a) or real(*a))
        wls = [get_workload("add")]
        run_sweep(wls, LEVELS, WIDTHS)
        again = run_sweep(wls, LEVELS, WIDTHS)
        assert again.store_hits == 0
        assert again.computed == len(LEVELS) * len(WIDTHS)
        assert digests == []  # a serial sweep without a store reads no key


class TestPartialCache:
    def test_partial_grid_loadable_on_request(self, serial_sweep, tmp_path):
        p = tmp_path / "sweep.json"
        save_sweep(serial_sweep, p)
        assert load_sweep(p) is None  # figures need the full grid
        part = load_sweep(p, require_complete=False)
        assert part is not None
        assert len(part.results) == len(serial_sweep.results)
        for k in serial_sweep.results:
            assert _key_fields(part.results[k]) == _key_fields(serial_sweep.results[k])

    def test_unknown_version_rejected(self, serial_sweep, tmp_path):
        p = tmp_path / "sweep.json"
        save_sweep(serial_sweep, p)
        payload = json.loads(p.read_text())
        payload["version"] = CACHE_VERSION + 1
        p.write_text(json.dumps(payload))
        assert load_sweep(p, require_complete=False) is None


class TestArtifactStoreLayer:
    """The persistent (cross-process, cross-sweep) cache under `--store`."""

    def test_warm_sweep_is_all_hits_and_byte_identical(self, tmp_path):
        from dataclasses import asdict

        store = _store(tmp_path)
        wls = [get_workload(n) for n in WORKLOADS]
        cold = run_sweep(wls, LEVELS, WIDTHS, store=store)
        n = len(WORKLOADS) * len(LEVELS) * len(WIDTHS)
        assert cold.computed == n and cold.store_hits == 0

        warm = run_sweep(wls, LEVELS, WIDTHS, store=store)
        assert warm.computed == 0 and warm.store_hits == n
        # byte-identical, not merely numerically equal: even the
        # execution-ordered t_passes maps round-trip through the blobs
        dump = lambda d: json.dumps(  # noqa: E731
            [asdict(d.results[k]) for k in sorted(d.results)])
        assert dump(warm) == dump(cold)

    def test_corrupt_blob_recomputed_not_served(self, tmp_path):
        store = _store(tmp_path)
        wls = [get_workload("add")]
        run_sweep(wls, LEVELS, WIDTHS, store=store)
        for p in (store.root / "objects").glob("??/*.json"):
            p.write_bytes(p.read_bytes()[:40])  # tear every blob
        again = run_sweep(wls, LEVELS, WIDTHS, store=store)
        assert again.store_hits == 0
        assert again.computed == len(LEVELS) * len(WIDTHS)
        assert store.stats.quarantined > 0

    def test_foreign_schema_blob_recomputed(self, tmp_path):
        """A blob that parses but is not a ConfigResult (e.g. written by a
        different tool under the same key) is skipped, not crashed on."""
        from repro.service.keys import request_key, workload_fingerprint

        store = _store(tmp_path)
        k = request_key("result", "add", int(LEVELS[1]), WIDTHS[0],
                        fingerprint=workload_fingerprint("add"))
        store.put(k, {"not": "a ConfigResult"})
        out = run_sweep([get_workload("add")], LEVELS, WIDTHS, store=store)
        assert out.store_hits == 0
        assert out.computed == len(LEVELS) * len(WIDTHS)

"""End-to-end tests of the compilation service: HTTP server + client SDK.

One in-process server (``serve_background``) backed by a real artifact
store serves the whole module; the tests drive it exclusively through
:class:`repro.service.client.ServiceClient` — the same path ``repro
submit`` and CI use — so the JSON wire format is pinned too.

The load-bearing property is the last class: results served over HTTP
must match the differential oracle (golden interpretation of the
unoptimized kernel) *exactly* — same scalars, same output-array bytes —
for kernels from the CI oracle set.  A cache layer that returned almost-
right numbers would be worse than none.
"""

import hashlib

import numpy as np
import pytest

from repro.check.refeval import reference_run
from repro.experiments.sweep import run_config
from repro.machine import MachineConfig
from repro.pipeline import Level
from repro.service.client import (
    ServiceClient,
    ServiceOverloaded,
    ServiceRequestError,
)
from repro.service.keys import CellRequest
from repro.service.server import serve_background
from repro.workloads import get_workload

#: fast members of the differential-oracle CI subset (see ablation.py)
ORACLE_KERNELS = ("add", "sum", "dotprod")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    httpd, engine, url = serve_background(
        store_dir=tmp_path_factory.mktemp("store"),
        jobs=1,
        max_pending=8,
        default_timeout=120.0,
    )
    yield ServiceClient(url, timeout=120.0), engine
    httpd.shutdown()
    engine.close()


class TestEndpoints:
    def test_healthz(self, service):
        client, _ = service
        h = client.healthz()
        assert h["ok"] is True
        assert h["queue_depth"] >= 0

    def test_run_then_duplicate_is_store_hit(self, service):
        client, _ = service
        first = client.run("add", level=2, width=4)
        assert first["cache"] == "miss"
        r = first["result"]
        assert r["cycles"] > 0 and r["checked"] is True
        assert r["workload"] == "add" and r["level"] == 2 and r["width"] == 4
        again = client.run("add", level=2, width=4)
        assert again["cache"] == "hit"
        assert again["result"] == r  # byte-identical payload round-trip

    def test_compile_returns_scheduled_ir(self, service):
        client, _ = service
        r = client.compile("dotprod", level=4, width=8)["result"]
        assert r["kind"] == "compile"
        assert "MEM(" in r["ir"]  # scheduled inner-loop body, pretty-printed
        assert "cycles" not in r  # compile does not simulate
        assert r["unroll_factor"] >= 1

    def test_sweep_job_lifecycle(self, service):
        client, engine = service
        jid = client.sweep(["add"], levels=[0, 2], widths=[1, 8])
        rec = client.wait_job(jid, timeout=120.0)
        res = rec["result"]
        assert res["configs"] == 4 and len(res["results"]) == 4
        grid = [(r["workload"], r["level"], r["width"])
                for r in res["results"]]
        assert grid == sorted(grid)
        # level 0 at width 1 is the paper's baseline: slowest of the four
        cycles = {(r["level"], r["width"]): r["cycles"]
                  for r in res["results"]}
        assert cycles[(0, 1)] == max(cycles.values())
        assert engine.job(jid) is not None

    def test_batched_widths_share_one_compilation(self, service):
        """Two widths of one (workload, level) submitted back-to-back land
        in the same cell: one compilation, both results correct."""
        client, engine = service
        cells0 = engine.counters["batched_cells"]
        jid = client.sweep(["maxval"], levels=[4], widths=[1, 8])
        res = client.wait_job(jid, timeout=120.0)["result"]
        assert len(res["results"]) == 2
        assert engine.counters["batched_cells"] - cells0 == 1
        w1, w8 = res["results"]
        assert w1["cycles"] > w8["cycles"]  # wider issue must not be slower

    def test_unknown_workload_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceRequestError) as ei:
            client.run("no-such-kernel")
        assert ei.value.status == 400

    def test_bad_width_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceRequestError) as ei:
            client.run("add", width=3)
        assert ei.value.status == 400

    def test_level_outside_the_level_enum_is_400(self, service):
        client, _ = service
        with pytest.raises(ServiceRequestError) as ei:
            client.run("add", level=len(Level))
        assert ei.value.status == 400
        with pytest.raises(ServiceRequestError) as ei:
            client.sweep(["add"], levels=[0, len(Level)], widths=[1])
        assert ei.value.status == 400

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceRequestError) as ei:
            client.job("job-999999")
        assert ei.value.status == 404

    def test_unknown_route_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceRequestError) as ei:
            client._call("GET", "/v2/nope")
        assert ei.value.status == 404

    def test_oversized_sweep_is_shed_as_429(self, service):
        client, _ = service
        # 2 workloads x every level x 4 widths >> max_pending=8; admission
        # is atomic, so the whole sweep is shed up front
        with pytest.raises(ServiceOverloaded) as ei:
            client.sweep(["add", "sum"])
        assert ei.value.status == 429
        # shedding must not wedge the service
        assert client.healthz()["ok"] is True
        assert client.run("add", level=0, width=1)["result"]["cycles"] > 0

    def test_metrics_expose_the_service_counters(self, service):
        client, _ = service
        m = client.metrics()
        for field in ("requests", "hits", "misses", "shed", "batched_cells",
                      "queue_depth", "latency_p50_s", "latency_p95_s"):
            assert field in m
        assert m["hits"] >= 1          # the duplicate-run test above
        assert m["shed"] >= 1          # the oversized sweep above
        assert m["store"]["entries"] >= 1
        assert m["store"]["bytes"] > 0


class TestLongLivedServer:
    """A server of its own: room for a default-grid sweep, and a job
    table small enough to overflow."""

    @pytest.fixture
    def roomy(self, tmp_path):
        httpd, engine, url = serve_background(store_dir=tmp_path / "store",
                                              max_pending=64)
        yield ServiceClient(url, timeout=120.0), engine
        httpd.shutdown()
        httpd.server_close()
        engine.close()

    def test_sweep_defaults_to_every_level_and_width(self, roomy):
        client, _ = roomy
        jid = client.sweep(["add"])
        res = client.wait_job(jid, timeout=120.0)["result"]
        assert res["configs"] == len(Level) * 4
        assert ({(r["level"], r["width"]) for r in res["results"]}
                == {(int(lv), wd) for lv in Level for wd in (1, 2, 4, 8)})

    def test_job_table_keeps_only_recent_finished_jobs(self, roomy,
                                                       monkeypatch):
        from repro.service import jobs

        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 3)
        client, engine = roomy
        ids = [client.run("add", level=0, width=1)["job"] for _ in range(7)]
        assert len(set(ids)) == 7
        # the oldest finished jobs are gone and answer like unknown ids ...
        with pytest.raises(ServiceRequestError) as ei:
            client.job(ids[0])
        assert ei.value.status == 404
        assert [engine.job(j) is not None for j in ids] == [False] * 4 + [True] * 3
        assert client.job(ids[-1])["state"] == "done"
        # ... but the counter is the monotone total, not the table size
        assert client.metrics()["jobs_total"] == 7


    def test_malformed_disable_never_reaches_the_pool_or_the_breaker(
            self, roomy):
        """Regression: six bad ``disable`` lists used to be admitted,
        fail in the fork worker, trip the ("add", 4) breaker and get the
        next *well-formed* add/Lev4 request a 503 for the cooldown."""
        client, engine = roomy
        for _ in range(6):
            with pytest.raises(ServiceRequestError) as ei:
                client.run("add", level=4, width=8, disable=["nope"])
            assert ei.value.status == 400
        assert client.healthz()["pool"]["breakers"] == {}
        assert engine.counters["requests"] == 0  # never admitted
        assert client.run("add", level=4, width=8)["cache"] == "miss"
        m = client.metrics()
        assert (m["errors"], m["resilience"]["breaker_trips"]) == (0, 0)
        with pytest.raises(ValueError, match="disable"):
            engine.submit("run", "add", 4, 8, disable=("nope",))
        assert engine.queue_depth == 0

    @pytest.mark.parametrize("path,body", [
        ("/v1/run", {"workload": "add", "disable": "dce"}),
        ("/v1/run", {"workload": "add", "check": "false"}),
        ("/v1/compile", {"workload": "add", "check_ir": 0}),
        ("/v1/run", {"workload": "add", "level": "4"}),
        ("/v1/run", {"workload": "add", "width": True}),
        ("/v1/run", {"workload": "add", "seed": 1.5}),
        ("/v1/sweep", {"workloads": "add"}),
        ("/v1/sweep", {"workloads": ["add"], "levels": ["0"]}),
        ("/v1/sweep", {"workloads": ["add"], "check_ir": "yes"}),
        ("/v1/sweep", {"workloads": ["add"], "disable": ["nope"]}),
    ])
    def test_the_boundary_validates_instead_of_coercing(self, roomy, path,
                                                        body):
        client, engine = roomy
        with pytest.raises(ServiceRequestError) as ei:
            client._call("POST", path, body)
        assert ei.value.status == 400
        assert engine.counters["requests"] == 0

    def test_sweep_carries_check_ir_to_its_cells(self, roomy):
        client, _ = roomy
        jid = client.sweep(["add"], levels=[0], widths=[1], check_ir=True)
        rec = client.wait_job(jid, timeout=120.0)
        assert rec["request"]["check_ir"] is True
        # the verified cell is what the sweep stored; the unverified one
        # is a different configuration
        assert client.run("add", level=0, width=1,
                          check_ir=True)["cache"] == "hit"
        assert client.run("add", level=0, width=1)["cache"] == "miss"

    def test_overlapping_sweeps_report_only_their_own_hits(self, roomy):
        from repro.service.keys import SweepRequest

        _, engine = roomy
        warm = SweepRequest(("add",), (0,), (1, 8))
        cold = SweepRequest(("sum",), (0,), (1, 8))
        assert engine.wait(engine.submit_sweep(warm), 120.0)["hits"] == 0
        # the cold sweep is still compiling while the warm one is served
        # from the store: those hits are not the cold sweep's
        slow = engine.submit_sweep(cold)
        fast = engine.submit_sweep(warm)
        assert engine.wait(fast, 120.0)["hits"] == 2
        assert slow.state != "done"
        assert engine.wait(slow, 120.0)["hits"] == 0
        assert engine.counters["sweeps"] == 3

    def test_a_hit_never_reaches_the_engine_loop(self, roomy, monkeypatch):
        """A stored key is answered on the calling thread: the loop's
        ``_request`` is not called, the job holds the stored bytes, and
        in-process ``wait`` still returns the payload dict."""
        client, engine = roomy
        first = client.run("add", level=0, width=8)
        assert first["cache"] == "miss"
        calls = []
        monkeypatch.setattr(engine, "_request",
                            lambda *a, **kw: calls.append(a))
        req = CellRequest("run", "add", 0, 8)
        job = engine.submit_request(req)
        assert (job.state, job.cache, job.future) == ("done", "hit", None)
        assert job.raw == engine.store.get_raw(req.key)
        assert engine.wait(job) == first["result"]
        assert engine.job(job.id).as_dict()["result"] == first["result"]
        again = client.run("add", level=0, width=8)
        assert (again["cache"], again["result"]) == ("hit", first["result"])
        assert calls == []
        assert engine.counters["hits"] == 2 and engine.queue_depth == 0

    def test_request_counters_lose_no_update_under_threads(self, roomy):
        import sys
        import threading

        _, engine = roomy
        engine.wait(engine.submit("run", "add", 0, 1), 120.0)

        def worker():
            for _ in range(40):
                engine.wait(engine.submit("run", "add", 0, 1), 60.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert engine.counters["requests"] == 1 + 8 * 40
        assert engine.counters["hits"] == 8 * 40
        assert engine.queue_depth == 0

    def test_unfinished_jobs_are_never_evicted(self, monkeypatch):
        from repro.service import jobs

        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 1)
        table = jobs.JobTable("t")
        ids = [table.add(lambda jid: jid) for _ in range(5)]
        for jid in ids[1:]:
            table.finish(jid)
        assert table.get(ids[0]) == ids[0]  # still running: kept
        assert [table.get(j) for j in ids[1:]] == [None] * 3 + [ids[4]]
        assert (table.total, len(table)) == (5, 2)

    def test_job_table_loses_no_update_under_threads(self, monkeypatch):
        import sys
        import threading

        from repro.service import jobs

        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 8)
        table = jobs.JobTable("t")

        def worker():
            for _ in range(400):
                table.finish(table.add(lambda jid: jid))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # a lost id or a lost eviction would break one of these
        assert (table.total, len(table)) == (8 * 400, 8)


class TestBatchingWhileAWorkerIsBusy:
    def test_a_width_arriving_before_a_worker_frees_joins_the_cell(
            self, tmp_path):
        """A cell stays open while every worker is busy: a width that
        arrives 50 ms after its sibling still shares its compilation."""
        import time

        from repro.experiments.sweep import load_sweep
        from repro.resilience import faults
        from repro.resilience.faults import FaultPlan, FaultSite
        from repro.service.jobs import JobEngine
        from repro.service.store import ArtifactStore

        # the worker inherits the plan: every first attempt sleeps 0.5 s
        plan = FaultPlan(seed=0, sites=(
            FaultSite("worker.slow", rate=1.0, delay_s=0.5),))
        with faults.armed(plan):
            engine = JobEngine(store=ArtifactStore(tmp_path), jobs=1)
        try:
            busy = engine.submit("run", "sum", 4, 1)
            w1 = engine.submit("run", "add", 4, 1)
            time.sleep(0.05)
            w8 = engine.submit("run", "add", 4, 8)
            engine.wait(busy, timeout=120)
            got = [engine.wait(j, timeout=120) for j in (w1, w8)]
            # one cell for "sum", one for both widths of "add"
            assert engine.counters["batched_cells"] == 2
            assert engine.counters["computed"] == 3
        finally:
            engine.close()
        grid = load_sweep()
        for r in got:
            want = grid.get("add", Level.LEV4, r["width"])
            assert (r["cycles"], r["instructions"], r["inner_makespan"],
                    r["int_regs"], r["fp_regs"]) == (
                want.cycles, want.instructions, want.inner_makespan,
                want.int_regs, want.fp_regs)


class TestServedResultsMatchOracle:
    """Acceptance: served ``/v1/run`` results for the oracle kernels match
    the differential oracle (golden interpretation of the *unoptimized*
    kernel on the same inputs) exactly — scalar-for-scalar and
    byte-for-byte on every output array."""

    @pytest.mark.parametrize("name", ORACLE_KERNELS)
    def test_served_run_matches_golden_reference(self, service, name):
        client, _ = service
        served = client.run(name, level=4, width=8)["result"]

        w = get_workload(name)
        arrays, scalars = w.make_inputs(seed=0)
        ref_arrays, ref_scalars, _ = reference_run(w.build(), arrays, scalars)
        ref_digests = {
            k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
            for k, v in sorted(ref_arrays.items())
        }
        assert served["array_digests"] == ref_digests
        assert set(served["scalars"]) == set(ref_scalars)
        for k, ref in ref_scalars.items():
            assert served["scalars"][k] == ref  # exact, not approximate

    @pytest.mark.parametrize("level", (Level.LEV4, Level.LEV5))
    @pytest.mark.parametrize("name", ORACLE_KERNELS)
    def test_served_cycles_match_local_compilation(self, service, name, level):
        """The service is a cache, not a different compiler: cycle counts
        served over HTTP equal a local in-process compilation's (at every
        level the CLI accepts, Lev5 included)."""
        client, _ = service
        served = client.run(name, level=int(level), width=8)["result"]
        local = run_config(w=get_workload(name), level=level,
                           machine=MachineConfig(issue_width=8))
        assert served["cycles"] == local.cycles
        assert served["instructions"] == local.instructions
        assert served["inner_makespan"] == local.inner_makespan
        assert (served["int_regs"], served["fp_regs"]) == (
            local.int_regs, local.fp_regs)

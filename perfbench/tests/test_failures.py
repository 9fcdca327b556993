"""A wrong answer anywhere must end as failed ops and a non-zero exit:
a corrupted reply, a corrupted store blob, a corrupted kernel output."""

import json

import numpy as np
import pytest

import grid_cold
import grid_warm
import run
import serve
import trace_big
from common import QUICK, Rep

from repro.harness import BatchedRunner, KernelRun
from repro.service.client import ServiceClient
from repro.service.store import ArtifactStore


def test_clean_quick_repetitions_have_no_failures():
    for mod in (grid_warm, trace_big):
        with mod.prepare(QUICK, 0) as state:
            rep = mod.measure(state)
        assert rep.failed == 0 and rep.attempted > 0, rep.failures


def test_corrupted_reply_fails_serve(monkeypatch):
    real = ServiceClient.run
    calls = []

    def corrupt(self, *a, **kw):
        reply = real(self, *a, **kw)
        calls.append(1)
        if len(calls) == 7:
            reply["result"]["cycles"] += 1
        return reply

    monkeypatch.setattr(ServiceClient, "run", corrupt)
    with serve.prepare(QUICK, 0) as state:
        rep = serve.measure(state)
    assert rep.failed == 1
    assert "cycles" in rep.failures[0]


def test_shed_or_wrong_cache_disposition_fails():
    want = {"workload": "add", "cycles": 1, "instructions": 2,
            "int_regs": 3, "fp_regs": 4}
    good = {"cache": "hit", "result": dict(want)}
    assert serve.reply_mismatch(good, want, "hit") is None
    assert "cache" in serve.reply_mismatch(good, want, "miss")
    assert "fp_regs" in serve.reply_mismatch(
        {"cache": "hit", "result": {**want, "fp_regs": 5}}, want, "hit")
    assert serve.reply_mismatch({"cache": "hit"}, want, "hit")


def test_corrupted_store_blob_fails_grid_warm(monkeypatch):
    real = ArtifactStore.get
    seen = []

    def corrupt(self, key):
        payload = real(self, key)
        seen.append(key)
        if payload is not None and len(seen) == 5:
            payload["cycles"] += 1
        return payload

    monkeypatch.setattr(ArtifactStore, "get", corrupt)
    with grid_warm.prepare(QUICK, 0) as state:
        rep = grid_warm.measure(state)
    assert rep.failed == 1
    assert "payload differs" in rep.failures[0]


def test_lost_store_blob_fails_grid_warm(monkeypatch):
    real = ArtifactStore.put
    puts = []

    def drop(self, key, payload):
        puts.append(key)
        return None if len(puts) == 3 else real(self, key, payload)

    monkeypatch.setattr(ArtifactStore, "put", drop)
    with grid_warm.prepare(QUICK, 0) as state:
        rep = grid_warm.measure(state)
    # the put that degraded; the miss in the first sweep, which recomputes
    # and stores the cell; and in every sweep a payload that is not the
    # one phase A meant to write (its timings are the recomputation's)
    assert rep.failed == 1 + 1 + QUICK.sweeps


def test_corrupted_kernel_output_fails_trace_big(monkeypatch):
    real = BatchedRunner.run

    def corrupt(self, ck):
        r = real(self, ck)
        if ck.machine.issue_width == 4 and "Y" in r.arrays:
            bad = {k: np.array(v) for k, v in r.arrays.items()}
            bad["Y"][17] += 1.0
            return KernelRun(r.cycles, r.instructions, bad, r.scalars)
        return r

    monkeypatch.setattr(BatchedRunner, "run", corrupt)
    with trace_big.prepare(QUICK, 0) as state:
        rep = trace_big.measure(state)
    assert rep.failed == len(trace_big.LEVELS)  # daxpy at width 4, each level
    assert "daxpy_big" in rep.failures[0]


def test_cell_off_the_committed_grid_fails_grid_cold():
    with grid_cold.prepare(QUICK, 0) as state:
        ref = state["reference"]
    cells = [dict(r) for k, r in ref.items() if k[0] == "add"]
    rep = Rep("grid_cold")
    grid_cold.check_cells(rep, cells, ref, len(cells))
    assert rep.failed == 0 and rep.model_cycles > 0
    cells[3]["int_regs"] += 1
    rep = Rep("grid_cold")
    grid_cold.check_cells(rep, cells[:-2], ref, len(cells))
    assert rep.failed == 1 + 2  # one wrong cell, two missing


def _fake_rep(failed):
    return {"workload": "grid_cold", "setup_s": 0.5,
            "steady": {"add": [2.0]}, "steady_ops": {"add": 96},
            "first": {"add": [2.0]}, "first_ops": {"add": 96},
            "attempted": 96, "failed": failed,
            "failures": ["x: cycles: got 2, want 1"] * failed,
            "model_cycles": 1000, "peak_rss_mb": 50.0, "wall_s": 2.0,
            "layers": {}, "elapsed_s": 0.6}


@pytest.mark.parametrize("failed, code", [(0, 0), (2, 1)])
def test_failed_ops_mean_a_non_zero_exit(monkeypatch, capsys, failed, code):
    monkeypatch.setattr(run, "spawn", lambda *a, **kw: _fake_rep(failed))
    rc = run.main(["--workload", "grid_cold", "--seconds", "1", "--quick"])
    assert rc == code
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is (failed == 0)
    assert result["failed"] == failed  # one repetition fits one second


def test_a_crashed_repetition_is_a_failure(monkeypatch, capsys):
    crashed = {"workload": "serve", "crashed": "exit 1", "attempted": 1,
               "failed": 1, "failures": ["repetition exit 1"],
               "elapsed_s": 0.1}
    monkeypatch.setattr(run, "spawn", lambda *a, **kw: dict(crashed))
    assert run.main(["--workload", "serve", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1

"""The quick profile end to end, through the real command line: every
metric name is emitted, in the shape the benchmark contract asks for."""

import json
import os
import subprocess
import sys
import time

import pytest

import metrics
from common import ROOT, TMP_ROOT

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "summary.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    t0 = time.monotonic()
    p = subprocess.run(RUN + ["--quick", "--traced", "--out", str(out)],
                       capture_output=True, text=True, env=env, timeout=170)
    return p, json.loads(out.read_text()), time.monotonic() - t0


def test_quick_profile_emits_every_metric(report):
    p, doc, _ = report
    assert p.returncode == 0, p.stdout + p.stderr
    assert list(doc)[-1] == "claim" and doc["claim"] is None
    assert set(doc["workloads"]) == set(metrics.WORKLOADS)
    for name, w in doc["workloads"].items():
        assert w["failed"] == 0 and w["fail_share"] == 0 and w["attempted"] > 0
        assert set(w["end_to_end"]) == {m.name for m in metrics.END_TO_END}
        assert all(v > 0 for v in w["end_to_end"].values()), w["end_to_end"]
        assert len(w["samples"]["setup_s"]) >= 3
        assert set(w["per_layer"]) == set(metrics.PER_LAYER_NAMES)
        # a time or a rate measured on this workload is never exactly 0
        # (the interpreter only runs on grid_cold when a cell falls back)
        for layer in metrics.PER_LAYER:
            if (name in layer.workloads and not layer.exact
                    and not (name == "grid_cold"
                             and layer.name.startswith("sim.interp"))):
                assert w["per_layer"][layer.name] != 0, (name, layer.name)
        assert w["per_layer"]["trace.coverage"] > 0.5
    # every metric is printed by name with its unit
    for m in metrics.END_TO_END:
        assert f"  {m.name} " in p.stdout
    for m in metrics.PER_LAYER:
        assert f"  {m.name} " in p.stdout, m.name


def test_quick_profile_is_quick(report):
    assert report[2] < 30.0


def test_bypassed_layers_read_zero(report):
    layers = report[1]["workloads"]["grid_warm"]["per_layer"]
    assert layers["transforms.ilp_s"] == 0 and layers["sim.replay_s"] == 0
    assert layers["store.get_s"] > 0 and layers["store.hits"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_form(trace):
    p = subprocess.run(
        RUN + ["--workload", "grid_warm", "--seed", "7", "--seconds", "2",
               "--trace", trace, "--quick"],
        capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stdout + p.stderr
    result = _last_json(p.stdout)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert set(result["metrics"]) == {m.name for m in want}
    for m in want:
        assert set(result["metrics"][m.name]) == {"value", "unit"}
        assert result["metrics"][m.name]["unit"] == m.unit
    assert not TMP_ROOT.exists()  # scratch space is gone when it ends


def test_nothing_to_measure_is_an_error_without_a_result(tmp_path):
    """In a directory that holds only the benchmark, there is no program:
    exit non-zero, print no result."""
    import shutil

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert p.returncode != 0
    assert p.stdout.strip() == ""

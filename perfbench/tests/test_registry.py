"""The metric registry against the benchmark contract's limits."""

import json
import re

import metrics
from common import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_registry():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}


def test_limits():
    doc = metrics.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    assert len(json.dumps(doc)) <= 64 * 1024
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.fullmatch(n), n
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_layer_feeds_something_that_exists():
    e2e = {m.name for m in metrics.END_TO_END}
    for layer in metrics.PER_LAYER:
        assert layer.workloads, layer.name
        for w in layer.workloads + layer.leaves:
            assert w in metrics.WORKLOADS, (layer.name, w)
        for metric, workload in layer.moves:
            assert metric in e2e, (layer.name, metric)
            assert workload in metrics.WORKLOADS, (layer.name, workload)


def test_exact_metrics_are_counts():
    for layer in metrics.PER_LAYER:
        assert layer.exact == (layer.unit == "count"), layer.name
    assert [m.name for m in metrics.END_TO_END if m.exact] == ["model_cycles"]

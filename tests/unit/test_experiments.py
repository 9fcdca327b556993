"""Unit tests for the experiments harness: binning, distributions,
sweep plumbing, renderers, and the CLI."""

import re

import numpy as np
import pytest

from repro.experiments.histograms import (
    REGISTER_BINS,
    SPEEDUP_BINS_ISSUE2,
    SPEEDUP_BINS_ISSUE8,
    bin_counts,
    doall_filter,
    register_distribution,
    speedup_distribution,
)
from repro.experiments.sweep import (
    ConfigResult,
    SweepData,
    default_cache_path,
    load_sweep,
    run_config,
    save_sweep,
)
from repro.experiments.tables import (
    compute_headline_claims,
    render_table1,
    render_table2,
)
from repro.machine import MachineConfig, issue1
from repro.pipeline import Level
from repro.workloads import get_workload


class TestBins:
    def test_bin_edges_cover_all_values(self):
        vals = [0.0, 1.24, 1.25, 2.0, 5.7, 100.0]
        counts = bin_counts(vals, SPEEDUP_BINS_ISSUE2)
        assert sum(counts) == len(vals)

    def test_paper_bin_labels(self):
        assert SPEEDUP_BINS_ISSUE2[0][0] == "0.00-1.24"
        assert SPEEDUP_BINS_ISSUE2[-1][0] == "3.00+"
        assert SPEEDUP_BINS_ISSUE8[0][0] == "0.00-1.99"
        assert SPEEDUP_BINS_ISSUE8[-1][0] == "8.00+"
        assert [b[0] for b in REGISTER_BINS] == [
            "0-15", "16-31", "32-47", "48-63", "64-95", "96-127", "128+"
        ]

    def test_boundary_assignment(self):
        assert bin_counts([1.25], SPEEDUP_BINS_ISSUE2)[1] == 1
        assert bin_counts([1.2499], SPEEDUP_BINS_ISSUE2)[0] == 1
        assert bin_counts([128.0], REGISTER_BINS)[-1] == 1
        assert bin_counts([127.0], REGISTER_BINS)[-2] == 1


def fake_sweep() -> SweepData:
    """A tiny synthetic grid for distribution plumbing tests."""
    data = SweepData()
    specs = {"add": 8.0, "dotprod": 2.0}  # lev4 speedups at width 8
    for name, s4 in specs.items():
        for level in Level:
            for width in (1, 2, 4, 8):
                if level is Level.CONV and width == 1:
                    cycles = 1000
                else:
                    factor = 1.0 + (s4 - 1.0) * (int(level) / 4) * (width / 8)
                    cycles = int(1000 / factor)
                data.results[(name, int(level), width)] = ConfigResult(
                    name, int(level), width, cycles, cycles, 10,
                    4 + 2 * int(level), 4 + 3 * int(level), True,
                )
    return data


class TestSweepData:
    def test_speedup_baseline(self):
        data = fake_sweep()
        assert data.speedup("add", Level.CONV, 1) == 1.0
        assert data.speedup("add", Level.LEV4, 8) == pytest.approx(8.0, rel=0.01)

    def test_distribution_series_counts(self):
        data = fake_sweep()
        dist = speedup_distribution(data, 8)
        for level in Level:
            assert sum(dist.series[level.label]) == 2

    def test_register_distribution(self):
        data = fake_sweep()
        dist = register_distribution(data, 8)
        # int 4+2*4=12, fp 4+3*4=16 at Lev4
        assert dist.average("Lev4") == pytest.approx(28.0)

    def test_doall_filter(self):
        f = doall_filter(True)
        assert f("add") and not f("dotprod")

    def test_render_contains_all_bins(self):
        data = fake_sweep()
        text = speedup_distribution(data, 8).render()
        for label, _, _ in SPEEDUP_BINS_ISSUE8:
            assert label in text
        assert "average" in text

    def test_save_and_load_roundtrip(self, tmp_path, monkeypatch):
        # a partial grid is rejected on load (must be complete)
        data = fake_sweep()
        p = tmp_path / "sweep.json"
        save_sweep(data, p)
        assert load_sweep(p) is None  # only 2 workloads, not 40

    def test_load_missing_returns_none(self, tmp_path):
        assert load_sweep(tmp_path / "nope.json") is None


class TestRunConfig:
    def test_run_config_checks_and_measures(self):
        w = get_workload("add")
        r = run_config(w, Level.CONV, issue1())
        assert r.cycles > 0 and r.instructions > 0
        assert r.total_regs == r.int_regs + r.fp_regs
        assert r.checked

    def test_detects_wrong_results(self):
        # sabotage the reference to prove checking is real
        w = get_workload("add")
        orig_ref = w.reference
        try:
            w.reference = lambda a, s: ({"C": a["A"] * 999.0}, {})
            with pytest.raises(AssertionError):
                run_config(w, Level.CONV, issue1())
        finally:
            w.reference = orig_ref


class TestRenderers:
    def test_table1_text(self):
        text = render_table1()
        assert "Int divide" in text and "10" in text
        assert "branch" in text and "1 slot" in text

    def test_table2_lists_all_40(self):
        text = render_table2()
        for name in ("APS-1", "doduc-1", "maxval", "tomcatv-2"):
            assert name in text
        assert len(text.splitlines()) >= 44


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dotprod" in out and "PERFECT" in out

    def test_show(self, capsys):
        from repro.cli import main

        assert main(["show", "maxval"]) == 0
        out = capsys.readouterr().out
        assert "DO i" in out and "IF" in out

    def test_run(self, capsys):
        from repro.cli import main

        assert main(["run", "add", "--level", "2", "--width", "4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "[checked]" in out

    def test_mii(self, capsys):
        from repro.cli import main

        assert main(["mii", "sum", "--width", "8"]) == 0
        out = capsys.readouterr().out
        assert "RecMII" in out

    def test_compile(self, capsys):
        from repro.cli import main

        assert main(["compile", "add", "--level", "4"]) == 0
        out = capsys.readouterr().out
        assert "registers:" in out


class TestAblationArtifactsAgreeWithTheGrid:
    """Each ablation's unmodified column is a Lev3 / issue-8 cell of the
    committed grid: an ablation that stops being re-recorded when the
    pipeline changes shows here as a stale number."""

    def test_baseline_columns_are_sweep_cells(self):
        data = load_sweep()
        results = default_cache_path().parent
        rows = []
        for stem in ("ablation_slots", "ablation_speculation"):
            # title, rule and header lines, then "loop baseline other ratio"
            for line in (results / f"{stem}.txt").read_text().splitlines()[3:]:
                name, baseline = line.split()[:2]
                rows.append((stem, name, int(baseline)))
        for line in (results / "ablation_thr.txt").read_text().splitlines():
            m = re.match(r"([\w-]+): latency-aware (\d+),", line)
            if m:
                rows.append(("ablation_thr", m[1], int(m[2])))
        assert len(rows) == 4 + 5 + 3
        for stem, name, cycles in rows:
            cell = data.results[(name, int(Level.LEV3), 8)]
            assert cycles == cell.cycles, (stem, name)


class TestHeadroomArtifactAgreesWithTheBenchmark:
    """``results/headroom.txt`` is the 40-loop table the benchmark
    ``BENCH_optsched.json`` records: a subset run that overwrote it, or a
    solver change that was not re-recorded, shows here."""

    def test_rows_are_the_benchmark_loops(self):
        import json

        results = default_cache_path().parent
        bench = json.loads((results / "BENCH_optsched.json").read_text())
        lines = (results / "headroom.txt").read_text().splitlines()
        # title, rule, header and rule lines, then one row per loop up to
        # the closing rule
        rows = lines[4:lines.index("-" * 78, 4)]
        assert len(rows) == len(bench["loops"]) == 40
        for line in rows:
            (name, n, heur, opt, lb, status, mii, ii, acyc,
             modulo_status) = line.split()
            r = bench["loops"][name]
            assert (int(n), int(heur), int(opt), int(lb), status, int(mii),
                    int(ii), int(acyc), modulo_status) == (
                r["n_instrs"], r["heuristic_makespan"],
                r["optimal_makespan"], r["proved_lb"], r["status"],
                r["mii"], r["exact_ii"], r["optimal_makespan"],
                r["modulo_status"]), name
        proved = [ln for ln in rows if ln.split()[5] == "optimal"]
        improved = [ln.split()[0] for ln in rows
                    if int(ln.split()[3]) < int(ln.split()[2])]
        assert len(proved) == bench["proved_optimal"] == 37
        assert sorted(improved) == ["merge", "tomcatv-2"]
        assert bench["improved_blocks"] == 2

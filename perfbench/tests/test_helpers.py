"""Percentiles with enough samples behind them; span self-times."""

import time

import pytest

from spans import NULL, Tracer
from stats import MIN_BEYOND, highest_percentile, percentile, spread


@pytest.mark.parametrize("n", [1, 9, 10, 11, 40, 100, 199, 200, 2000, 6000])
def test_percentile_keeps_samples_beyond(n):
    values = list(range(n))
    value, used = percentile(values, 95.0)
    assert used <= 95.0
    beyond = sum(1 for v in values if v >= value)
    # either the tail is well populated, or there is no tail to report
    assert beyond >= min(MIN_BEYOND, n)
    if n >= 200:
        assert used == 95.0


def test_highest_percentile():
    assert highest_percentile(0) == 0.0
    assert highest_percentile(5) == 0.0
    assert highest_percentile(40) == 75.0
    assert highest_percentile(2000) == 99.5


def test_spread_is_iqr_over_median():
    assert spread([10, 10, 10, 10]) == 0
    assert spread(range(1, 12)) == pytest.approx(6 / 6)


def test_self_time_excludes_children_and_probes():
    tr = Tracer()
    with tr.span("outer"):
        time.sleep(0.02)
        with tr.span("inner"):
            time.sleep(0.03)
        with tr.span("probe", off_path=True):
            with tr.span("below-probe"):
                time.sleep(0.01)
    secs, on_path, off_path = tr.self_seconds()
    assert secs["inner"] == pytest.approx(0.03, abs=0.01)
    assert secs["outer"] == pytest.approx(0.02, abs=0.01)
    assert off_path == pytest.approx(0.01, abs=0.008)
    assert on_path == pytest.approx(secs["outer"] + secs["inner"])
    total = sum(t1 - t0 for n, t0, t1, _, _ in tr.spans if n == "outer")
    assert on_path + off_path == pytest.approx(total)


def test_null_tracer_is_a_noop():
    with NULL.span("anything"):
        pass

"""Unit tests of the benchmark's pure helpers (no Ray session needed).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

import stats  # noqa: E402


def test_median():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_iqr_share_quartiles():
    # statistics.quantiles' default (exclusive) method on 1..10: the
    # quartiles sit at ranks 2.75 and 8.25
    xs = [float(x) for x in range(1, 11)]
    assert stats.iqr_share(xs) == pytest.approx((8.25 - 2.75) / 5.5)
    noisy = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 30.0]
    q1, _, q3 = statistics.quantiles(noisy, n=4)
    assert stats.iqr_share(noisy) == pytest.approx(
        (q3 - q1) / statistics.median(noisy))
    # one outlier of ten barely moves the quartiles
    assert stats.iqr_share(noisy) < 0.15


def test_parse_seeds():
    import spread

    assert spread.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert spread.parse_seeds("5") == [5]


def test_ratio_and_error_rate():
    assert stats.ratio(3, 4) == 0.75
    assert stats.ratio(5, 0) == 0.0
    assert stats.error_rate(66, 0) == 0.0
    assert stats.error_rate(8, 2) == 0.25
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(3, 4)


def test_unaccounted_residual_closes_run_time():
    rounds = [
        {"timings": {"admit": 0.1, "fetch_extract": 2.0, "tick_walk": 0.01,
                     "attempts_write": 0.02, "stamps": 0.03, "images": 0.0,
                     "links_push": 0.04, "seen_commit": 0.05,
                     "checkpoint": 0.5}},
        # the crawler stamps `checkpoint` after recording the round
        {"timings": {"admit": 0.2, "fetch_extract": 1.0}},
    ]
    sums = stats.phase_sums(rounds)
    assert sums["admit"] == pytest.approx(0.3)
    assert sums["checkpoint"] == pytest.approx(0.5)
    assert sums["total"] == pytest.approx(3.95)
    resid = stats.unaccounted_s(4.25, rounds)
    assert resid == pytest.approx(0.3)
    assert sum(v for k, v in sums.items() if k != "total") + resid == \
        pytest.approx(4.25)
    with pytest.raises(KeyError):
        stats.phase_sums([{"timings": {"mystery": 1.0}}])


def test_metric_rejects_non_finite():
    assert stats.metric(1.5, "s") == {"value": 1.5, "unit": "s"}
    with pytest.raises(ValueError):
        stats.metric(float("nan"), "s")


def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_table_matches_benchmark_json():
    from owlcrawler_ray.pipelines.queries import ORACLES, QUERIES

    bench = _benchmark_json()
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert e2e == stats.END_TO_END
    assert e2e["setup_s"] == ("s", "lower")
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    oracled = [q for q in QUERIES if q in ORACLES]
    assert layers == stats.per_layer_table(oracled)
    assert len(layers) <= 128
    for m in bench["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_ops_counts_each_failed_operation_once():
    import run

    ops = run.Ops()
    with ops.op("crawl", 5) as a:
        pass
    ops.check(a, "x", False, "first gate")
    ops.check(a, "y", False, "second gate of the same op")
    with ops.op("views", 5) as b:
        pass
    ops.check(b, "z", True)
    assert (ops.attempted, ops.failed) == (2, 1)
    with pytest.raises(run.OpFailed):
        with ops.op("query", 5):
            raise RuntimeError("boom")
    assert (ops.attempted, ops.failed) == (3, 2)
    ops.fail("oracle raised")
    assert (ops.attempted, ops.failed) == (4, 3)


def test_op_timeout_counts_as_failure():
    import time

    import run

    ops = run.Ops()
    with pytest.raises(run.OpFailed):
        with ops.op("stall", 0.05):
            time.sleep(2)
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "exceeded" in ops.errors[0]

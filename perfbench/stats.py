"""Pure helpers of the benchmark: statistics, ratios and the metric table.

Nothing here imports Ray or the crawler, so the unit tests in
``test_stats.py`` run in milliseconds.
"""

from __future__ import annotations

import math
import statistics

# Every end-to-end metric is printed on every workload (trace 0) and must
# never be 0: each is a rate, a duration or a size of work that happened.
# The two timings count CPU seconds of the driver and every Ray process it
# started, not wall time: on a host shared with other tenants, wall-clock
# throughput of the multi-process crawl swings by up to 2x across minutes
# while the CPU time the work needs does not.
END_TO_END = {
    "urls_per_cpu_s": ("1/cpu_s", "higher"),
    "setup_s": ("s", "lower"),
    "driver_peak_rss_mb": ("MB", "lower"),
}

# Round phases the crawler times itself (Crawler.metrics["rounds"][i]
# ["timings"]); crawl.unaccounted_s is run() wall time minus their sum.
CRAWL_PHASES = (
    "admit", "fetch_extract", "tick_walk", "attempts_write", "stamps",
    "images", "links_push", "seen_commit", "checkpoint",
)

# name -> (unit, better). Counts are "better" in the direction that means
# less wasted work for the same crawl (fewer rounds, attempts, parts).
_CRAWL_LAYERS = {
    **{f"crawl.{p}_s": ("s", "lower") for p in CRAWL_PHASES},
    "crawl.unaccounted_s": ("s", "lower"),
    "crawl.run_s": ("s", "lower"),
    "crawl.cpu_s": ("s", "lower"),
    "crawl.urls_per_s": ("1/s", "higher"),
    "crawl.setup_wall_s": ("s", "lower"),
    "crawl.rounds": ("count", "lower"),
    "crawl.attempts": ("count", "lower"),
    "crawl.success_ratio": ("ratio", "higher"),
    "crawl.shard_ctor_s": ("s", "lower"),
    "crawl.resume_s": ("s", "lower"),
    "fetch.busy_s": ("s", "lower"),
    "fetch.pages": ("count", "higher"),
    "fetch.html_bytes": ("bytes", "lower"),
    "extract.busy_s": ("s", "lower"),
    "extract.candidates": ("count", "higher"),
    "links.kept_ratio": ("ratio", "higher"),
    "images.fetch_busy_s": ("s", "lower"),
    "images.decode_busy_s": ("s", "lower"),
    "images.rows": ("count", "higher"),
    "images.bytes": ("bytes", "lower"),
    "images.rows_per_s": ("1/s", "higher"),
    "table_store.write_s": ("s", "lower"),
    "table_store.bytes_written": ("bytes", "lower"),
    "table_store.view_build_s": ("s", "lower"),
    "table_store.view_read_s": ("s", "lower"),
    "table_store.view_rows_per_s": ("1/s", "higher"),
    "table_store.parts": ("count", "lower"),
    "frontier.push_s": ("s", "lower"),
    "frontier.peek_s": ("s", "lower"),
    "frontier.remove_s": ("s", "lower"),
    "politeness.allowed_s": ("s", "lower"),
    "politeness.robots_fetches": ("count", "lower"),
    "politeness.robots_denied": ("count", "lower"),
    "seen.add_s": ("s", "lower"),
    "seen.contains_s": ("s", "lower"),
    "seen.lookups": ("count", "lower"),
    "seen.hit_ratio": ("ratio", "higher"),
    "seen.spill_bytes": ("bytes", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "trace.urls_per_cpu_s": ("1/cpu_s", "higher"),
    "trace.spans": ("count", "lower"),
    "error_rate": ("ratio", "lower"),
    "queries.total_s": ("s", "lower"),
}


def per_layer_table(query_names: list[str]) -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better): the crawl layers plus one
    timing per oracled query. A traced run prints every entry; a layer its
    workload does not run reads 0."""
    out = dict(_CRAWL_LAYERS)
    out.update({f"queries.{q}_s": ("s", "lower") for q in query_names})
    return out


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def iqr_share(values: list[float]) -> float:
    """Quartile distance as a share of the median, with the quartiles
    ``statistics.quantiles(values, n=4)`` gives: the spread measure the
    benchmark's bounds are judged against (see spread.py)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def ratio(num: float, den: float) -> float:
    """num/den, with 0 for an empty base (a layer that did no work)."""
    return float(num) / den if den else 0.0


def error_rate(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("error_rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def unaccounted_s(run_s: float, rounds: list[dict]) -> float:
    """run() wall time the crawler's own round timings do not cover: the
    final checkpoint after the loop, polite mode's empty-admission ticks
    and the closing summary RPCs."""
    return run_s - phase_sums(rounds)["total"]


def phase_sums(rounds: list[dict]) -> dict[str, float]:
    """Per-phase seconds summed over ``Crawler.metrics["rounds"]``, plus
    their grand total under ``"total"``. A phase missing from a round
    (the crawler adds ``checkpoint`` only after the round is recorded)
    counts 0."""
    sums = {p: 0.0 for p in CRAWL_PHASES}
    for r in rounds:
        t = r["timings"]
        unknown = set(t) - set(CRAWL_PHASES)
        if unknown:
            raise KeyError(f"unknown crawl phase(s) {sorted(unknown)}")
        for p in CRAWL_PHASES:
            sums[p] += t.get(p, 0.0)
    sums["total"] = sum(sums[p] for p in CRAWL_PHASES)
    return sums


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    return {"value": value, "unit": unit}

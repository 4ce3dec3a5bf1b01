"""Every crawl round reports its timings under perfbench's phase names.

``perfbench/stats.py::phase_sums`` raises on any timing key outside
``CRAWL_PHASES``, and only a traced benchmark run reaches it. These
crawls pin the keys in the test suite: a parity crawl that checkpoints
every other round and a polite, robots-fetching crawl that checkpoints
every round.
"""

from __future__ import annotations

import os

import pytest

from owlcrawler_ray.pipelines.crawl import CrawlConfig, run_crawl
from owlcrawler_ray.sources.corpus import WebConfig
from owlcrawler_ray.state.politeness import PolitenessConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
SMALL_WEB = WebConfig(num_hosts=4, base_pages=6, hot_factor=3, n_seed_hosts=2)


@pytest.mark.parametrize("mode", ["parity", "polite"])
def test_round_timing_keys_are_perfbench_phases(ray_session, tmp_path,
                                                monkeypatch, mode):
    # perfbench's modules import each other by bare name, with their own
    # directory on the path (perfbench/run.py)
    monkeypatch.syspath_prepend(PERFBENCH)
    from stats import CRAWL_PHASES, phase_sums

    kw = dict(checkpoint_every=2, budget_per_round=7)
    if mode == "polite":
        kw = dict(mode="polite", checkpoint_every=1, budget_per_round=16,
                  fetch_robots=True,
                  web=WebConfig(num_hosts=4, base_pages=6, hot_factor=3,
                                n_seed_hosts=2, robots_frac=0.5),
                  politeness=PolitenessConfig(mode="polite", rate_per_s=1.0,
                                              burst=2.0))
    kw.setdefault("web", SMALL_WEB)
    c, _ = run_crawl(CrawlConfig(out_dir=f"{tmp_path}/out",
                                 ckpt_dir=f"{tmp_path}/ckpt",
                                 num_seen_shards=2, num_frontier_shards=2,
                                 fetch_concurrency=2, **kw))
    try:
        rounds = c.metrics["rounds"]
        assert len(rounds) >= 3
        for r in rounds:
            assert set(r["timings"]) == set(CRAWL_PHASES), r["timings"]
        assert phase_sums(rounds)["total"] > 0
    finally:
        c.shutdown()

"""The crawl loop's per-round state protocol: two fused state-actor calls
per actor per steady-state round (``StateShard.commit`` and
``advance``), with the next admission served from a window the previous
round built. Every path that falls back to a fresh peek must keep exact
parity with the serial oracle."""

import pytest

from owlcrawler_ray.pipelines import crawl as crawl_mod
from owlcrawler_ray.pipelines.crawl import CrawlConfig, Crawler, run_crawl
from owlcrawler_ray.pipelines.oracle import run_oracle
from owlcrawler_ray.sources.corpus import SyntheticWeb, WebConfig
from owlcrawler_ray.state.politeness import PolitenessConfig

SMALL_WEB = WebConfig(num_hosts=4, base_pages=6, hot_factor=3, n_seed_hosts=2)


def _cfg(base, **kw):
    kw.setdefault("budget_per_round", 7)
    kw.setdefault("web", SMALL_WEB)
    return CrawlConfig(
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2,
        image_concurrency=1,
        **kw,
    )


def _attempts(c):
    return [(a["tick"], a["url"], a["status"])
            for a in c.attempts_table().sort_by("tick").to_pylist()]


def _fetch_order(c):
    pages = c.pages_table().sort_by("fetch_seq")
    return pages.column("url").to_pylist()


def _assert_oracle(c, want):
    assert _attempts(c) == [(a["tick"], a["url"], a["status"])
                            for a in want.attempts]
    assert _fetch_order(c) == want.fetch_order
    assert c.summary()["seen"] == len(want.seen)


@pytest.fixture(scope="module")
def oracle():
    return run_oracle(SyntheticWeb(SMALL_WEB))


def _paths(c):
    return [m["admit_path"] for m in c.metrics["rounds"]]


def test_budget_one_parity_admits_from_window(ray_session, tmp_path,
                                              oracle):
    """Budget 1: the queue head is often a duplicate of the url the
    previous round fetched. Commit drops those copies, so no admission
    needs more than the window: every round after the first admits from
    it, and the crawl equals the oracle."""
    c, _ = run_crawl(_cfg(str(tmp_path), budget_per_round=1))
    try:
        paths = _paths(c)
        assert paths[0] == "peek"
        assert len(paths) > 2 and set(paths[1:]) == {"window"}
        _assert_oracle(c, oracle)
    finally:
        c.shutdown()


def test_polite_empty_admission_matches_peek_only_crawl(ray_session,
                                                         tmp_path,
                                                         monkeypatch):
    """Slow buckets (0.05 tokens/s, burst 1) leave whole windows without a
    token, so admissions come back empty mid-crawl, the clock advances
    and the next admission re-peeks. The crawl must equal one that never
    uses a window, and reach the oracle's page set."""
    pol = PolitenessConfig(mode="polite", rate_per_s=0.05, burst=1.0)
    kw = dict(mode="polite", budget_per_round=32, politeness=pol,
              max_rounds=300)
    c, s = run_crawl(_cfg(str(tmp_path / "win"), **kw))
    try:
        paths = _paths(c)
        got = _attempts(c)
        assert s["ticks"] > len(got)  # empty admissions advanced the clock
        assert "window" in paths and "peek" in paths[1:]
        assert set(_fetch_order(c)) == run_oracle(SyntheticWeb(SMALL_WEB)).seen
    finally:
        c.shutdown()
    monkeypatch.setattr(Crawler, "_take_window", lambda self, w: None)
    ref, ref_s = run_crawl(_cfg(str(tmp_path / "ref"), **kw))
    try:
        assert set(_paths(ref)) == {"peek"}
        assert _attempts(ref) == got
        assert ref_s == s
    finally:
        ref.shutdown()


def test_add_sites_between_runs_drops_window(ray_session, tmp_path):
    """A crawl stopped by max_rounds keeps the window it built for its
    next round; add_sites bumps the frontier generation, so the next run()
    re-peeks and the injected sites keep their oracle position. Budget 16
    exceeds the queue, so a stale window would miss them."""
    new_sites = ["http://host-2.test/", "http://host-3.test/"]
    c, s1 = run_crawl(_cfg(str(tmp_path), budget_per_round=16, max_rounds=2))
    try:
        assert c._window is not None
        T = c.tick
        assert c.add_sites(new_sites) == 2
        c.cfg.max_rounds = 10**6
        c.run()
        assert _paths(c)[2] == "peek"
        want = run_oracle(SyntheticWeb(SMALL_WEB), inject={T: new_sites})
        _assert_oracle(c, want)
        assert all(u in want.seen for u in new_sites)
    finally:
        c.shutdown()


@pytest.mark.parametrize("ns,nf", [(3, 2), (2, 3)])
def test_kill_resume_unequal_shards_matches_oracle(ray_session, tmp_path,
                                                   oracle, ns, nf):
    """Stop mid-crawl (the window dies with the crawler), resume with
    unequal seen/frontier shard counts: the resumed crawler's first round
    re-peeks, later rounds use windows, and the result is the oracle's."""
    kw = dict(num_seen_shards=ns, num_frontier_shards=nf)
    c1, s1 = run_crawl(_cfg(str(tmp_path), max_rounds=3, **kw))
    c1.shutdown()
    c2, s2 = run_crawl(_cfg(str(tmp_path), budget_per_round=5, **kw),
                       resume=True)
    try:
        assert s1["fetched"] < s2["fetched"]
        paths = _paths(c2)
        assert paths[0] != "window" and "window" in paths[1:]
        _assert_oracle(c2, oracle)
        assert s2["frontier_left"] == 0
    finally:
        c2.shutdown()


class _Counted:
    """An actor handle that logs every ``.method.remote`` call."""

    def __init__(self, handle, i, log):
        self._h, self._i, self._log = handle, i, log

    def __getattr__(self, name):
        method, i, log = getattr(self._h, name), self._i, self._log

        class _Call:
            def remote(self, *a, **k):
                log.append((i, name))
                return method.remote(*a, **k)

        return _Call()


@pytest.mark.parametrize("mode", ["parity", "polite"])
def test_state_calls_per_steady_round(ray_session, tmp_path, monkeypatch,
                                      mode):
    """Between the heavy-pass launches of two consecutive rounds (round
    r's tail plus round r+1's admission) each state actor gets at most two
    calls, with a checkpoint every round: commit and advance."""
    log: list = []
    launch = crawl_mod._fetch_extract_task

    class _Launch:
        def remote(self, *a, **k):
            log.append(("launch", None))
            return launch.remote(*a, **k)

    monkeypatch.setattr(crawl_mod, "_fetch_extract_task", _Launch())
    kw = dict(num_seen_shards=2, num_frontier_shards=2, checkpoint_every=1)
    if mode == "polite":
        kw.update(mode="polite", budget_per_round=32,
                  politeness=PolitenessConfig(mode="polite", rate_per_s=2.0,
                                              burst=8.0))
    else:
        kw.update(budget_per_round=4)
    c = Crawler(_cfg(str(tmp_path), **kw))
    handles = c.state
    c.state = [_Counted(h, i, log) for i, h in enumerate(handles)]
    try:
        c.run()
    finally:
        c.state = handles
        c.shutdown()
    segments, cur, started = [], {}, False
    for who, name in log:
        if who == "launch":  # a round may launch several tasks
            if started and cur:
                segments.append(cur)
            cur, started = {}, True
        elif started:
            cur.setdefault(who, []).append(name)
    # cur is the tail after the last launch (final checkpoint, summary)
    assert len(segments) >= 3, segments
    for seg in segments:
        assert set(seg) == {0, 1}
        for calls in seg.values():
            assert calls == ["commit", "advance"], seg

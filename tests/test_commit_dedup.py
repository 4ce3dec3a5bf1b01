"""Dedup at commit: no queued frontier entry is ever in the seen set.

The reference discards seen queue entries at dequeue; the crawl drops
every queued copy of a url when its fetch commits, pushes only unseen
urls (links, seeds, add_sites), and restores a checkpointed queue, which
holds no seen url, as it stands. These tests check
the invariant itself, what polite admission gains from it (every host
with queued work and a token is admitted each round; a max_ticks cut
costs no token), and the two entry
points outside the loop: resume from a checkpoint, whose format holds no
seen url in the queue, and add_sites of a url already fetched."""

import pyarrow as pa
import pytest
import ray

from owlcrawler_ray.pipelines.crawl import CrawlConfig, Crawler, run_crawl
from owlcrawler_ray.pipelines.oracle import run_oracle
from owlcrawler_ray.sources.corpus import SyntheticWeb, WebConfig
from owlcrawler_ray.state.politeness import PolitenessConfig
from owlcrawler_ray.state.wire import unpack

SMALL_WEB = WebConfig(num_hosts=4, base_pages=6, hot_factor=3, n_seed_hosts=2)
# 12 hosts, one of them hot, few cross-host links and fanout 4: long
# single-host runs in the queue (an uncapped 64-entry window per shard
# misses hosts in 8 of its 28 rounds)
HOL_WEB = WebConfig(num_hosts=12, base_pages=24, hot_factor=4,
                    n_seed_hosts=12, max_images=0, paragraphs=1,
                    words_per_paragraph=10, fanout=4, cross_host_prob=0.1)
POLITE = PolitenessConfig(mode="polite", rate_per_s=1.0, burst=4.0)


def _cfg(base, **kw):
    kw.setdefault("budget_per_round", 7)
    kw.setdefault("web", SMALL_WEB)
    return CrawlConfig(out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
                       fetch_concurrency=2, image_concurrency=1, **kw)


def _queued(c) -> pa.Table:
    """Every queued entry of every frontier shard."""
    c._flush(ack=False)
    return pa.concat_tables([unpack(b) for b in ray.get([
        c.state[s].frontier_peek.remote(1 << 30)
        for s in range(c.cfg.num_frontier_shards)])])


def _rows(c):
    pages = sorted(c.pages_table().to_pylist(), key=lambda r: r["fetch_seq"])
    atts = sorted(c.attempts_table().to_pylist(), key=lambda r: r["tick"])
    imgs = sorted(c.images_table().to_pylist(),
                  key=lambda r: (r["tick"], r["img_idx"]))
    return pages, atts, imgs


def _has_token(gate, host: str, now: float) -> bool:
    """Whether ``host``'s bucket would grant a token at ``now`` (read
    only: the gate's state is not refilled)."""
    cfg = gate.cfg
    tokens, last = gate.state().get(host, (cfg.burst, now))
    return int(min(cfg.burst, tokens + (now - last) * cfg.rate_per_s)) >= 1


def test_polite_rounds_admit_every_host_with_work_and_a_token(
        ray_session, tmp_path, monkeypatch):
    """Head of line: with at most W / ceil(burst) hosts (W = 64 per
    shard, burst 4, 12 hosts), the window holds every host's first
    ceil(burst) entries, so each round admits from every host that holds
    both a queued entry and a token — however long one host's run at the
    queue head is. Before each admission no queued url is seen."""
    orig = Crawler._admit
    rounds: list[tuple[set, set]] = []

    def admit(self):
        q = _queued(self)
        if q.num_rows:
            assert not self._seen_mask_np(
                q.column("url").combine_chunks()).any()
        now = float(self.tick * self.cfg.tick_seconds)
        want = {h for h in set(q.column("host").to_pylist())
                if _has_token(self.gate, h, now)}
        got = orig(self)
        hosts = got.column("host").to_pylist()
        assert all(hosts.count(h) <= self.cfg.politeness.burst
                   for h in set(hosts))
        rounds.append((want, set(hosts)))
        return got

    monkeypatch.setattr(Crawler, "_admit", admit)
    c, _ = run_crawl(_cfg(str(tmp_path), web=HOL_WEB, mode="polite",
                          budget_per_round=16, politeness=POLITE,
                          num_seen_shards=2, num_frontier_shards=2))
    try:
        assert len(rounds) >= 5
        for r, (want, got) in enumerate(rounds):
            assert want <= got, (r, sorted(want - got))
        assert {r["url"] for r in _rows(c)[0]} \
            == run_oracle(SyntheticWeb(HOL_WEB)).seen
    finally:
        c.shutdown()


def test_polite_disallowed_queue_head_costs_its_host_one_round(
        ray_session, tmp_path):
    """Robots-disallowed entries count against a host's ceil(burst)
    entries in the window: a host whose first ceil(burst) queued entries
    are all disallowed is admitted nothing that round, though it holds
    tokens. The admission discards them, so the next one takes the host's
    allowed entries. Pins that round of latency (robots rules live on the
    driver, so the shard cannot drop them before its capped peek)."""
    web = WebConfig(num_hosts=4, base_pages=6, hot_factor=3, n_seed_hosts=1,
                    max_images=0, robots_frac=1.0)
    host = "host-2.test"
    assert "Disallow: /page-2\n" in SyntheticWeb(web).robots_txt(host)
    denied = [f"http://{host}/page-2{s}" for s in ("", "0", "1", "2")]
    allowed = [f"http://{host}/page-{i}" for i in (1, 3, 4, 5)]
    c = Crawler(_cfg(str(tmp_path), web=web, mode="polite",
                     politeness=POLITE, fetch_robots=True))
    try:
        c._push_frontier(denied + allowed, [0] * 8, [0.0] * 8)
        first = c._admit().column("url").to_pylist()
        assert first == c.web.seeds()  # nothing from host-2
        assert sorted(_queued(c).column("url").to_pylist()) == allowed
        second = c._admit().column("url").to_pylist()
        assert second == allowed
    finally:
        c.shutdown()


def test_polite_max_ticks_cut_costs_no_tokens(ray_session, tmp_path):
    """The max_ticks cap cuts a polite admission after the buckets have
    granted: the cut entries stay queued and cost their hosts no token.
    At virtual now 0 nothing has refilled, so the debit summed over the
    gate's buckets equals the admitted row count exactly."""
    burst = 8.0
    c = Crawler(_cfg(
        str(tmp_path), mode="polite", max_ticks=1, budget_per_round=32,
        politeness=PolitenessConfig(mode="polite", rate_per_s=2.0,
                                    burst=burst)))
    try:
        admitted = c._admit()
        assert admitted.num_rows <= 1
        debited = sum(burst - tokens
                      for tokens, _ in c.gate.state().values())
        assert debited == pytest.approx(admitted.num_rows)
    finally:
        c.shutdown()


def test_parity_queue_holds_no_seen_url(ray_session, tmp_path, monkeypatch):
    """Parity: before every admission, no queued url is in the seen set,
    and the crawl still equals the oracle."""
    orig = Crawler._admit
    checked = []

    def admit(self):
        q = _queued(self)
        if q.num_rows:
            assert not self._seen_mask_np(
                q.column("url").combine_chunks()).any()
        checked.append(q.num_rows)
        return orig(self)

    monkeypatch.setattr(Crawler, "_admit", admit)
    c, _ = run_crawl(_cfg(str(tmp_path), budget_per_round=3))
    try:
        want = run_oracle(SyntheticWeb(SMALL_WEB))
        assert [(a["tick"], a["url"], a["status"]) for a in _rows(c)[1]] \
            == [(a["tick"], a["url"], a["status"]) for a in want.attempts]
        assert sum(1 for n in checked if n) >= 5
    finally:
        c.shutdown()


@pytest.mark.parametrize("mode", ["parity", "polite"])
def test_restored_queue_holds_no_seen_url(ray_session, tmp_path, mode):
    """A checkpoint holds no seen url in its queue, so a resume restores
    the invariant without a probe of its own: resumed from mid-crawl
    (parity, and polite with the spill seen set and fetched robots.txt),
    no shard queues a url of the seen set, and the crawl then ends
    row-identical to an uninterrupted one."""
    kw = dict(num_seen_shards=2, num_frontier_shards=2)
    if mode == "polite":
        kw.update(mode="polite", politeness=POLITE, budget_per_round=16,
                  fetch_robots=True, seen_spill=True, seen_max_mem_urls=4,
                  web=WebConfig(num_hosts=6, base_pages=8, hot_factor=3,
                                n_seed_hosts=4, robots_frac=0.5))
    full_base, part_base = str(tmp_path / "full"), str(tmp_path / "part")
    c_full, _ = run_crawl(_cfg(full_base, **kw))
    full = _rows(c_full)
    c_full.shutdown()

    c1, s1 = run_crawl(_cfg(part_base, max_rounds=3, **kw))
    c1.shutdown()
    assert 0 < s1["fetched"] < len(full[0])
    c2 = Crawler(_cfg(part_base, **kw), resume=True)
    try:
        c2._flush(ack=False)
        queues = [unpack(b) for b in ray.get([
            a.frontier_peek.remote(1 << 30)
            for a in c2.state[:c2.cfg.num_frontier_shards]])]
        assert sum(q.num_rows for q in queues) >= 5
        for q in queues:
            if q.num_rows:
                assert not c2._seen_mask_np(
                    q.column("url").combine_chunks()).any()
        s2 = c2.run()
        resumed = _rows(c2)
    finally:
        c2.shutdown()
    assert s2["fetched"] == len(full[0])
    assert s2["frontier_left"] == 0
    for got, want, name in zip(resumed, full, ("pages", "attempts", "images")):
        assert got == want, f"{name} mismatch"


def test_add_sites_of_a_fetched_url_enqueues_nothing(ray_session, tmp_path):
    """add_sites of a url the crawl already fetched stores its site doc
    (a new submission) but enqueues nothing: the next run() admits
    nothing and the attempts log does not change."""
    c, s1 = run_crawl(_cfg(str(tmp_path)))
    try:
        before = c.attempts_table().sort_by("tick").to_pylist()
        fetched = next(a["url"] for a in before if a["status"] == 200
                       and a["url"] not in c.web.seeds())
        assert c.add_sites([fetched]) == 1
        assert fetched in c.sites_table().column("site").to_pylist()
        assert c._sizes()[0] == 0
        s2 = c.run()
        assert c.attempts_table().sort_by("tick").to_pylist() == before
        assert (s2["ticks"], s2["fetched"]) == (s1["ticks"], s1["fetched"])
    finally:
        c.shutdown()


def test_add_sites_racing_rounds_never_double_fetches(ray_session, tmp_path):
    """add_sites from another thread while run() executes rounds. Seqs,
    the probe and the push are taken under the frontier lock, like the
    loop's own seqs and each round's commit: an injected url is either
    seen by the probe or dropped by a later commit, and no two entries
    share a seq. The injected pages sit on hosts no link reaches, so each
    is fetched through its own entry: no url is fetched twice, every
    fetched page has its own seq, and every injected page is fetched."""
    import sys
    import threading
    import time

    web_cfg = WebConfig(num_hosts=6, base_pages=6, hot_factor=3,
                        n_seed_hosts=2, cross_host_prob=0.0)
    c = Crawler(_cfg(str(tmp_path), web=web_cfg, budget_per_round=2))
    web = c.web
    urls = [web.page_url(h, p) for h in range(2, web_cfg.num_hosts)
            for p in range(web_cfg.pages_on(h))]
    errors: list[BaseException] = []

    def inject():
        try:
            while not c.metrics["rounds"]:  # the loop is past round 0
                time.sleep(0.005)
            for u in urls:
                c.add_sites([u])
                time.sleep(0.02)
        except BaseException as e:  # re-raised on the test thread
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    t = threading.Thread(target=inject)
    try:
        t.start()
        c.run()
        t.join(timeout=120)
        assert not t.is_alive()
        c.run()  # drain what the last injections queued
        assert not errors, errors
        ok = [a["url"] for a in c.attempts_table().to_pylist()
              if a["status"] == 200]
        assert len(ok) == len(set(ok))
        seqs = c.pages_table().column("discovered_seq").to_pylist()
        assert len(seqs) == len(set(seqs)) == len(ok)
        assert {u for u in urls if web.fetch(u)[0] == 200} <= set(ok)
    finally:
        sys.setswitchinterval(old)
        t.join(timeout=120)
        c.shutdown()

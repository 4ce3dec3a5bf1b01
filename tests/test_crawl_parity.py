"""End-to-end parity: the Ray crawl must reproduce the serial oracle's
attempt log, fetch order, seen set, page extraction and image emission —
at any budget chunking (north-rule ordering/URL-seen parity)."""

import math
import shutil

import pytest

from owlcrawler_ray.pipelines.crawl import CrawlConfig, run_crawl
from owlcrawler_ray.pipelines.oracle import run_oracle
from owlcrawler_ray.sources.corpus import SyntheticWeb, WebConfig

SMALL_WEB = WebConfig(num_hosts=4, base_pages=6, hot_factor=3, n_seed_hosts=2)


def _crawl(tmp_base, budget, **kw):
    shutil.rmtree(tmp_base, ignore_errors=True)
    cfg = CrawlConfig(
        web=SMALL_WEB,
        budget_per_round=budget,
        out_dir=f"{tmp_base}/out",
        ckpt_dir=f"{tmp_base}/ckpt",
        fetch_concurrency=2,
        image_concurrency=1,
        **kw,
    )
    c, summary = run_crawl(cfg)
    try:
        pages = c.pages_table().sort_by("fetch_seq")
        yield_data = {
            "summary": summary,
            "attempts": [
                (a["tick"], a["url"], a["status"])
                for a in c.attempts_table().sort_by("tick").to_pylist()
            ],
            "order": pages.column("url").to_pylist(),
            "pages": {p["url"]: p for p in pages.to_pylist()},
            "images": [
                (i["image_id"], i["caption"], i["fmt"], i["w"], i["h"])
                for i in sorted(
                    c.images_table().to_pylist(),
                    key=lambda r: (r["tick"], r["img_idx"]),
                )
            ],
        }
    finally:
        c.shutdown()
    return yield_data


@pytest.fixture(scope="module")
def oracle():
    return run_oracle(SyntheticWeb(SMALL_WEB))


def _assert_parity(got, oracle):
    want_attempts = [
        (a["tick"], a["url"], a["status"]) for a in oracle.attempts
    ]
    assert got["attempts"] == want_attempts
    assert got["order"] == oracle.fetch_order
    assert set(got["pages"]) == oracle.seen
    for url, want in oracle.pages.items():
        p = got["pages"][url]
        assert p["doc_id"] == want["doc_id"]
        for k in ("title", "h1", "h2", "h3", "h4", "text", "links",
                  "links_to_queue"):
            assert p[k] == want[k], f"{url} field {k}"
        assert p["fetch_seq"] == want["fetch_seq"]
    want_imgs = [(i["image_id"], i["caption"]) for i in oracle.images]
    assert [(i[0], i[1]) for i in got["images"]] == want_imgs


@pytest.mark.parametrize("budget", [7, 1000])
def test_parity_at_budget(ray_session, tmp_path, oracle, budget):
    _assert_parity(_crawl(str(tmp_path / f"b{budget}"), budget), oracle)


@pytest.mark.parametrize("ns,nf", [(3, 2), (2, 3)])
def test_parity_with_unequal_shard_counts(ray_session, tmp_path, oracle,
                                          ns, nf):
    """Unequal seen and frontier shard counts: the trailing state actors
    host one role only, and every driver fan-out must address exactly the
    actors that host the role it touches."""
    got = _crawl(str(tmp_path / f"s{ns}f{nf}"), 7,
                 num_seen_shards=ns, num_frontier_shards=nf)
    _assert_parity(got, oracle)
    assert got["summary"]["seen"] == len(oracle.seen)
    assert got["summary"]["frontier_left"] == 0


@pytest.mark.parametrize("ns,nf", [(4, 4), (3, 2), (2, 3)])
def test_crawler_starts_one_state_actor_per_shard_index(ray_session,
                                                         tmp_path, ns, nf):
    """Seen shard i and frontier shard i share actor i: a Crawler starts
    max(ns, nf) actor processes, not ns + nf, and shutdown() kills every
    one of them. ``ray.kill`` is asynchronous, so the check polls (up to
    30 s) until none of them is alive before calling them."""
    import time

    import ray
    from ray._private import state as ray_state

    from owlcrawler_ray.pipelines.crawl import Crawler

    def alive() -> set[str]:
        return {
            aid for aid, a in ray_state.actors().items()
            if a["State"] == "ALIVE"
            and a["ActorClassName"].endswith("StateShard")
        }

    before = alive()
    c = Crawler(CrawlConfig(
        web=SMALL_WEB, out_dir=f"{tmp_path}/out", ckpt_dir=f"{tmp_path}/ckpt",
        num_seen_shards=ns, num_frontier_shards=nf,
    ))
    try:
        sizes = ray.get([a.sizes.remote() for a in c.state])
        assert len(alive() - before) == max(ns, nf) == len(c.state)
        # _seed() queued every seed on the frontier shards; no url is seen
        assert sum(f for f, _ in sizes) == len(c.web.seeds())
        assert all(s == 0 for _, s in sizes)
        # trailing actors host one role: the absent one reports 0
        assert all(f == 0 for f, _ in sizes[nf:])
    finally:
        c.shutdown()
    mine = {a._actor_id.hex() for a in c.state}
    deadline = time.monotonic() + 30
    while alive() & mine and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not alive() & mine
    for a in c.state:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(a.sizes.remote())


def test_round_blocks():
    from owlcrawler_ray.pipelines.crawl import _round_blocks

    # small rounds: one task per parallel slot, never more than pages
    for conc in (1, 2, 4, 16):
        for n in (1, 2, conc, 3 * conc, 128 * conc):
            assert _round_blocks(n, conc) == min(conc, n), (n, conc)
    # large rounds: ~128 pages per task, capped at 256 tasks
    assert _round_blocks(128 * 4 + 1, 4) == 5
    assert _round_blocks(10_000, 2) == math.ceil(10_000 / 128)
    assert _round_blocks(110_000, 32) == 256
    assert _round_blocks(0, 4) == 1


def test_virtual_clock_and_timestamps(ray_session, tmp_path, oracle):
    got = _crawl(str(tmp_path / "clock"), 16)
    # virtual_time = 5 s per attempt tick, monotone over the whole crawl
    by_url = {p["url"]: p for p in got["pages"].values()}
    want_vt = {a["url"]: a["virtual_time_s"] for a in oracle.attempts
               if a["status"] == 200}
    for url, vt in want_vt.items():
        assert by_url[url]["virtual_time_s"] == vt
        assert by_url[url]["fetched_on"] == by_url[url]["parsed_on"]


def test_polite_mode_terminates_and_dedups(ray_session, tmp_path):
    import shutil as _sh

    base = str(tmp_path / "polite")
    _sh.rmtree(base, ignore_errors=True)
    from owlcrawler_ray.state.politeness import PolitenessConfig

    cfg = CrawlConfig(
        web=SMALL_WEB,
        mode="polite",
        budget_per_round=32,
        politeness=PolitenessConfig(mode="polite", rate_per_s=2.0, burst=8.0),
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2,
        image_concurrency=1,
        max_rounds=200,
    )
    c, summary = run_crawl(cfg)
    try:
        pages = c.pages_table().to_pylist()
        urls = [p["url"] for p in pages]
        assert len(urls) == len(set(urls))  # no double fetch
        # polite mode reaches the same page SET as the serial semantics
        oracle = run_oracle(SyntheticWeb(SMALL_WEB))
        assert set(urls) == oracle.seen
    finally:
        c.shutdown()


def test_robots_disallow_respected(ray_session, tmp_path):
    from owlcrawler_ray.state.politeness import PolitenessConfig

    base = str(tmp_path / "robots")
    cfg = CrawlConfig(
        web=SMALL_WEB,
        mode="polite",
        politeness=PolitenessConfig(
            mode="polite", rate_per_s=5.0, burst=16.0,
            disallow={"host-1.test": ["/page-"]},
        ),
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2,
        image_concurrency=1,
        max_rounds=100,
    )
    c, _ = run_crawl(cfg)
    try:
        urls = [p["url"] for p in c.pages_table().to_pylist()]
        assert not any(u.startswith("http://host-1.test/page-") for u in urls)
        assert "http://host-1.test/" in urls  # root itself is allowed
    finally:
        c.shutdown()


def test_polite_mode_caps_hot_host_per_round(ray_session, tmp_path):
    """Skew control: the hot host (3x pages) cannot monopolize a round —
    per-host token buckets cap its admissions while other hosts proceed."""
    from collections import Counter

    from owlcrawler_ray.functions.ids import host_of
    from owlcrawler_ray.sinks import table_store
    from owlcrawler_ray.state.politeness import PolitenessConfig

    base = str(tmp_path / "skew")
    cfg = CrawlConfig(
        web=SMALL_WEB,  # host-0 is 3x hot
        mode="polite",
        politeness=PolitenessConfig(mode="polite", rate_per_s=0.4, burst=2.0),
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2,
        image_concurrency=1,
        max_rounds=300,
    )
    c, _ = run_crawl(cfg)
    try:
        # each round's attempts as the store holds them (as perfbench's
        # polite gate reads them)
        worst, hot_ok = 0, 0
        for r in table_store.list_rounds(c.cfg.out_dir, "attempts"):
            att = table_store.read_all_arrow_round(c.cfg.out_dir,
                                                   "attempts", r)
            hosts = [host_of(u) for u in att.column("url").to_pylist()]
            worst = max([worst, *Counter(hosts).values()])
            hot_ok += sum(h == "host-0.test" and s == 200 for h, s in
                          zip(hosts, att.column("status").to_pylist()))
        # burst=2.0 -> no host is tried more than twice in a round
        assert worst <= 2, worst
        # the hot host still gets crawled fully, just spread across rounds
        # (+1: the seed root url "/" is distinct from "/page-0.html")
        assert hot_ok == SMALL_WEB.pages_on(0) + 1
    finally:
        c.shutdown()


def test_parity_with_seen_spill(ray_session, tmp_path, oracle):
    """The disk-spilling seen set (the 10^10-scale path) preserves exact
    ordering/seen parity even with an absurdly small memory cap."""
    got = _crawl(
        str(tmp_path / "spill"), 16, seen_spill=True, seen_max_mem_urls=8
    )
    want_attempts = [(a["tick"], a["url"], a["status"]) for a in oracle.attempts]
    assert got["attempts"] == want_attempts
    assert got["order"] == oracle.fetch_order
    assert set(got["pages"]) == oracle.seen


def test_fetched_robots_txt_respected(ray_session, tmp_path):
    """Polite mode FETCHES /robots.txt from the web per host (parsed +
    cached in the gate) and honors the Disallow prefixes."""
    from owlcrawler_ray.state.politeness import PolitenessConfig, parse_robots

    web_cfg = WebConfig(num_hosts=6, base_pages=8, hot_factor=2,
                        n_seed_hosts=6, robots_frac=1.0)
    web = SyntheticWeb(web_cfg)
    # every host disallows one /page-K prefix (deterministic)
    rules = {
        web.host(i): [p for p, allow in
                      parse_robots(web.robots_txt(web.host(i)))
                      if not allow]
        for i in range(web_cfg.num_hosts)
    }
    assert all(rules.values())
    base = str(tmp_path / "robots_fetch")
    cfg = CrawlConfig(
        web=web_cfg,
        mode="polite",
        politeness=PolitenessConfig(mode="polite", rate_per_s=5.0, burst=16.0),
        fetch_robots=True,
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2,
        image_concurrency=1,
        max_rounds=100,
    )
    c, _ = run_crawl(cfg)
    try:
        from urllib.parse import urlsplit

        urls = [p["url"] for p in c.pages_table().to_pylist()]
        assert urls
        for u in urls:
            parts = urlsplit(u)
            for prefix in rules[parts.netloc]:
                assert not parts.path.startswith(prefix), (u, prefix)
    finally:
        c.shutdown()


def test_polite_crawl_allow_override(ray_session, tmp_path, monkeypatch):
    """End-to-end RFC 9309 Allow precedence (round-4 verdict item #7):
    host-1 serves a robots.txt that disallows every /page- path but
    re-allows exactly /page-1.html via a longer anchored Allow rule.
    The polite crawl must fetch host-1's root AND page-1 (the root
    always links pages 1..fanout) and NOTHING else on that host, while
    other hosts crawl normally."""
    from owlcrawler_ray.sources.corpus import SyntheticWeb as SW
    from owlcrawler_ray.state.politeness import PolitenessConfig

    real_robots = SW.robots_txt

    def robots(self, host):
        if host == "host-1.test":
            return ("User-agent: *\n"
                    "Disallow: /page-\n"
                    "Allow: /page-1.html$\n")
        return real_robots(self, host)

    monkeypatch.setattr(SW, "robots_txt", robots)
    base = str(tmp_path / "allow_override")
    cfg = CrawlConfig(
        web=SMALL_WEB,
        mode="polite",
        politeness=PolitenessConfig(mode="polite", rate_per_s=5.0,
                                    burst=16.0),
        fetch_robots=True,
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2,
        image_concurrency=1,
        max_rounds=100,
    )
    c, _ = run_crawl(cfg)
    try:
        from urllib.parse import urlsplit

        urls = [p["url"] for p in c.pages_table().to_pylist()]
        h1_paths = {urlsplit(u).path for u in urls
                    if urlsplit(u).netloc == "host-1.test"}
        assert h1_paths == {"/", "/page-1.html"}
        # the rest of the web is unaffected
        assert any(urlsplit(u).netloc != "host-1.test" for u in urls)
    finally:
        c.shutdown()


def test_crawl_sites_and_stats_match_oracle(ray_session):
    """A1/A2 over real crawl output: stored `site-` seed docs + per-host
    page counts and the fetched/parsed stats view must agree with the
    serial oracle on the same web."""
    from owlcrawler_ray.functions.ids import host_of, seed_doc_id
    from owlcrawler_ray.pipelines import oracle as orc
    from owlcrawler_ray.pipelines.queries import (
        _crawl_cfg,
        q_crawl_sites,
        q_crawl_stats,
    )
    from owlcrawler_ray.sources.corpus import SyntheticWeb

    sites = q_crawl_sites("unused").to_pydict()
    web = SyntheticWeb(_crawl_cfg("sites").web)
    r = orc.run_oracle(web)
    assert sorted(sites["site"]) == sorted(web.seeds())
    assert sites["doc_id"] == [seed_doc_id(s) for s in sites["site"]]
    per_host: dict = {}
    for u in r.fetch_order:
        per_host[host_of(u)] = per_host.get(host_of(u), 0) + 1
    # cross-host links mean non-seed hosts get crawled too; the sites view
    # covers the seeded hosts only
    seed_hosts = {host_of(s) for s in sites["site"]}
    assert sum(sites["n_pages"]) == sum(
        1 for u in r.fetch_order if host_of(u) in seed_hosts
    )
    for s, n in zip(sites["site"], sites["n_pages"]):
        assert n == per_host.get(host_of(s), 0)
    assert sum(sites["n_pages"]) > 0

    stats = q_crawl_stats("unused").to_pydict()
    assert stats["fetched"] == [len(r.pages)]
    assert stats["parsed"] == [len(r.pages)]


def test_add_sites_mid_crawl_parity(ray_session, tmp_path):
    """Runtime seed injection (webapp submit-a-site): sites added after
    the crawl has consumed N ticks are crawled with exact ordering parity
    (they join the queue tail, like a NATS publish at that tick), appear
    in the sites table, and re-submission is a no-op (the 409 analog)."""
    base = str(tmp_path / "inject")
    T = 10
    new_sites = ["http://host-2.test/", "http://host-3.test/"]
    cfg = CrawlConfig(
        web=SMALL_WEB, budget_per_round=4, max_ticks=T,
        out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2, image_concurrency=1,
    )
    c, _ = run_crawl(cfg)
    try:
        assert c.tick == T
        assert c.add_sites(new_sites) == 2
        # idempotent re-submit: site docs exist -> skipped, not re-queued
        assert c.add_sites(new_sites) == 0
        c.cfg.max_ticks = None
        c.run()

        want = run_oracle(SyntheticWeb(SMALL_WEB), inject={T: new_sites})
        got_attempts = [
            (a["tick"], a["url"], a["status"])
            for a in c.attempts_table().sort_by("tick").to_pylist()
        ]
        assert got_attempts == [
            (a["tick"], a["url"], a["status"]) for a in want.attempts
        ]
        order = c.pages_table().sort_by("fetch_seq").column("url").to_pylist()
        assert order == want.fetch_order
        assert set(order) == want.seen
        # injected sites really got crawled (they are unreachable organically)
        assert all(u in want.seen for u in new_sites)
        # sites table: original seeds + the two injected docs, in order
        sites = c.sites_table().sort_by("submitted_seq")
        assert sites.column("site").to_pylist() == (
            SyntheticWeb(SMALL_WEB).seeds() + new_sites
        )
        assert sites.column("submitted_seq").to_pylist() == [0, 1, 2, 3]
    finally:
        c.shutdown()


def test_add_sites_after_frontier_drained_parity(ray_session, tmp_path):
    """Seed injection AFTER the organic frontier fully drained (run()
    returned on an empty frontier, not on max_ticks): the oracle delivers
    pending injections without jumping the clock, matching add_sites +
    a second run() — the r3 review's 'silently dropped injection' edge."""
    base = str(tmp_path / "inject_drained")
    new_sites = ["http://host-2.test/", "http://host-3.test/"]
    cfg = CrawlConfig(
        web=SMALL_WEB, budget_per_round=16,
        out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2, image_concurrency=1,
    )
    c, s1 = run_crawl(cfg)
    try:
        assert s1["frontier_left"] == 0  # organically drained
        drained_tick = c.tick
        assert c.add_sites(new_sites) == 2
        c.run()
        # oracle with an injection tick far beyond the drain point: the
        # pending group must still be crawled (clock continues from the
        # drain tick, no jump)
        want = run_oracle(
            SyntheticWeb(SMALL_WEB), inject={drained_tick + 999: new_sites}
        )
        got_attempts = [
            (a["tick"], a["url"], a["status"])
            for a in c.attempts_table().sort_by("tick").to_pylist()
        ]
        assert got_attempts == [
            (a["tick"], a["url"], a["status"]) for a in want.attempts
        ]
        assert {u for u in c.pages_table().column("url").to_pylist()} \
            == want.seen
        assert all(u in want.seen for u in new_sites)
    finally:
        c.shutdown()


def test_add_sites_reads_the_sites_table_once(ray_session, tmp_path,
                                             monkeypatch):
    """add_sites reads the stored site docs on its first call only and
    then keeps them up to date as it writes: ten single-url submissions
    read the sites table at most once, a re-submission is still a no-op,
    and submitted_seq stays contiguous across the submissions."""
    from owlcrawler_ray.pipelines.crawl import Crawler
    from owlcrawler_ray.sinks import table_store

    base = str(tmp_path / "sites_once")
    cfg = CrawlConfig(
        web=WebConfig(num_hosts=6, base_pages=6, hot_factor=3,
                      n_seed_hosts=2),
        out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2, image_concurrency=1,
    )
    reads = []
    orig = table_store.read_all_arrow

    def counting(root, name, *a, **k):
        reads.append(name)
        return orig(root, name, *a, **k)

    c = Crawler(cfg)
    try:
        monkeypatch.setattr(table_store, "read_all_arrow", counting)
        urls = [c.web.page_url(h, p)
                for h in (2, 3, 4, 5) for p in range(3)][:10]
        assert [c.add_sites([u]) for u in urls] == [1] * 10
        assert c.add_sites(urls[:1]) == 0
        assert reads.count("sites") <= 1
        sites = c.sites_table().sort_by("submitted_seq")
        assert sites.column("site").to_pylist() == c.web.seeds() + urls
        assert sites.column("submitted_seq").to_pylist() == list(
            range(len(c.web.seeds()) + 10))
    finally:
        c.shutdown()


def test_push_frontier_skips_seen_urls(ray_session, tmp_path):
    """No queued entry is in the seen set: already-seen urls pushed from
    outside the loop (``_push_frontier``: seeds, add_sites) never enter
    the queue, even at a priority that sorts them ahead of every seed. So
    the first admission is the first two SEEDS in global (priority, seq)
    order — where the reference dequeue loop lands after discarding the
    seen head of its queue tick-free."""
    import ray

    from owlcrawler_ray.functions import ids
    from owlcrawler_ray.pipelines.crawl import CrawlConfig, Crawler

    cfg = CrawlConfig(
        web=SMALL_WEB,
        budget_per_round=2,
        out_dir=f"{tmp_path}/out",
        ckpt_dir=f"{tmp_path}/ckpt",
        fetch_concurrency=1,
        image_concurrency=1,
    )
    c = Crawler(cfg)
    try:
        # 12 already-seen urls at priority -1.0: queued, they would sort
        # ahead of every seed (priority 0.0)
        dup_urls = [f"http://dup{i}.example.com/" for i in range(12)]
        shards = ids.shard_of(dup_urls, cfg.num_seen_shards)
        futs = []
        for s in range(cfg.num_seen_shards):
            us = [u for u, sh in zip(dup_urls, shards) if sh == s]
            if us:
                futs.append(c.state[s].commit.remote(
                    False, None, None, us, None))
        ray.get(futs)
        before = c._sizes()[0]
        c._push_frontier(dup_urls, [1] * 12, [-1.0] * 12)
        assert c._sizes()[0] == before  # none of them was queued
        admitted = c._admit()
        seeds = c.web.seeds()
        assert admitted.column("url").to_pylist() == seeds[:2]
        assert admitted.num_rows == 2
        # the admission consumed exactly the two seeds
        assert c._sizes()[0] == before - 2
        again = c._admit()
        assert again.column("url").to_pylist() == seeds[2:4]
        # a mixed push queues only its unseen url
        n = c._sizes()[0]
        c._push_frontier([dup_urls[0], "http://new.example.com/"],
                         [1, 1], [0.0, 0.0])
        assert c._sizes()[0] == n + 1
    finally:
        c.shutdown()


def test_round_task_is_exported_once_not_per_round(ray_session, tmp_path):
    """The fused round task is ONE module-level remote function. Ray
    exports each distinct remote function to the GCS function table (the
    ``fun`` KV namespace) and every worker keeps the functions it loaded
    for its lifetime, so a per-round closure grew both with the number of
    rounds. Export is per job: at most one new key however many rounds
    run, and none once it is exported."""
    from ray.experimental.internal_kv import _internal_kv_list

    def n_funcs():
        return len(_internal_kv_list(b"RemoteFunction", namespace=b"fun"))

    grown = {}
    for rounds in (2, 6):
        base = tmp_path / f"r{rounds}"
        before = n_funcs()
        # run_crawl alone: reading the tables back runs Ray Data, whose
        # own per-read functions would swamp the count
        c, summary = run_crawl(CrawlConfig(
            web=SMALL_WEB, budget_per_round=7, max_rounds=rounds,
            out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
            fetch_concurrency=2, image_concurrency=1))
        c.shutdown()
        assert summary["rounds"] == rounds
        grown[rounds] = n_funcs() - before
    assert grown[2] <= 1 and grown[6] == 0, grown

"""HttpFetcher (S5, fetcher.go:44-61) against a REAL in-process HTTP
server that serves the deterministic corpus over vhosts (logical host in
the Host header — the standard vhost test pattern): byte parity with
CorpusFetcher, 404/transport-error routing (F6), fetch->extract->sink
round-trip, and full crawl parity vs the serial oracle — fresh and
across a checkpoint/resume — with the network fetcher running inside the
crawl's heavy-pass tasks over localhost."""

import shutil
import threading
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from owlcrawler_ray.sources.corpus import SyntheticWeb, WebConfig
from owlcrawler_ray.stages.fetch import USER_AGENT, CorpusFetcher, HttpFetcher

SMALL_WEB = WebConfig(num_hosts=4, base_pages=6, hot_factor=3, n_seed_hosts=2)
KILL_PATH = "/__drop-connection__"


class _CorpusHandler(BaseHTTPRequestHandler):
    web = SyntheticWeb(SMALL_WEB)
    protocol_version = "HTTP/1.1"
    seen_agents: list = []

    def do_GET(self):
        if self.path == KILL_PATH:
            # transport failure: drop the TCP connection with no response
            self.connection.close()
            return
        self.seen_agents.append(self.headers.get("User-Agent"))
        host = (self.headers.get("Host") or "").split(":")[0]
        status, body = self.web.fetch(f"http://{host}{self.path}")
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep pytest output clean
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):  # dropped connections
        pass


@pytest.fixture(scope="module")
def http_server():
    srv = _QuietServer(("127.0.0.1", 0), _CorpusHandler)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield f"http://127.0.0.1:{srv.server_port}"
    srv.shutdown()


def _entries(urls):
    from owlcrawler_ray.state.frontier import entries_table

    hosts = [u.split("/")[2] for u in urls]
    return entries_table(urls, hosts, [0] * len(urls), [0.0] * len(urls),
                         list(range(len(urls))))


def test_http_fetch_byte_parity_with_corpus(http_server):
    """Every page and 404 the corpus fetcher sees, the network fetcher
    must see byte-identically through a real GET (status + body), with
    the reference's fixed User-Agent on the wire."""
    web = SyntheticWeb(SMALL_WEB)
    urls = (
        [web.page_url(0, i) for i in range(6)]
        + [web.page_url(1, 0), "http://host-1.test/"]
        + ["http://host-0.test/page-999.html",  # dead link -> 404
           "http://host-9.test/"]               # unknown host -> 404
    )
    batch = _entries(urls)
    _CorpusHandler.seen_agents.clear()
    got = HttpFetcher(rewrite_base=http_server, max_parallel=4)(batch)
    want = CorpusFetcher(SMALL_WEB)(batch)
    assert got.column("status").to_pylist() == want.column("status").to_pylist()
    assert got.column("html").to_pylist() == want.column("html").to_pylist()
    assert set(_CorpusHandler.seen_agents) == {USER_AGENT}


def test_http_transport_error_routes_status0(http_server):
    """F6 error path: a dropped connection records status 0 + empty body
    (the reference logs-and-drops; the row is filtered by the 200 gate and
    the URL stays retryable) — and must not poison the rest of the batch."""
    web = SyntheticWeb(SMALL_WEB)
    batch = _entries(["http://host-0.test" + KILL_PATH, web.page_url(0, 0)])
    out = HttpFetcher(rewrite_base=http_server, max_parallel=2)(batch)
    assert out.column("status").to_pylist()[0] == 0
    assert out.column("html").to_pylist()[0] == b""
    assert out.column("status").to_pylist()[1] == 200


def test_http_fetch_extract_sink_roundtrip(http_server, tmp_path):
    """fetch -> extract -> table-store sink over localhost: the committed
    page rows equal the corpus-fetcher path's rows exactly."""
    from owlcrawler_ray.sinks import table_store
    from owlcrawler_ray.stages.extract import extract_batch

    web = SyntheticWeb(SMALL_WEB)
    urls = [web.page_url(0, i) for i in range(4)] + [
        "http://host-0.test/page-999.html"
    ]
    batch = _entries(urls)
    import pyarrow.compute as pc

    rows = {}
    for name, fetched in (
        ("http", HttpFetcher(rewrite_base=http_server)(batch)),
        ("corpus", CorpusFetcher(SMALL_WEB)(batch)),
    ):
        ext = extract_batch(fetched)
        ok = ext.filter(pc.equal(ext.column("status"), 200))
        raw = ok.drop_columns(["fetch_candidates", "img_urls", "img_captions"])
        root = str(tmp_path / name)
        tmp = table_store.begin_round(root, "pages", 0)
        table_store.write_part(tmp, raw, key="t0")
        table_store.commit_round(root, "pages", 0)
        back = table_store.read_all_arrow(root, "pages")
        rows[name] = back.sort_by("url").to_pylist()
    assert len(rows["http"]) == 4  # the 404 row was routed out
    assert rows["http"] == rows["corpus"]


def _http_cfg(base, server, **kw):
    from owlcrawler_ray.pipelines.crawl import CrawlConfig

    kw.setdefault("budget_per_round", 32)
    return CrawlConfig(
        web=SMALL_WEB,
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2,
        image_concurrency=1,
        fetcher_factory=partial(
            HttpFetcher, rewrite_base=server, max_parallel=4
        ),
        **kw,
    )


def _attempts_and_order(c):
    attempts = [
        (a["tick"], a["url"], a["status"])
        for a in c.attempts_table().sort_by("tick").to_pylist()
    ]
    order = c.pages_table().sort_by("fetch_seq").column("url").to_pylist()
    return attempts, order


def test_http_crawl_full_parity(http_server, ray_session, tmp_path):
    """The flagship check: run the full crawl with the NETWORK fetcher
    inside the heavy-pass tasks (one fetcher per worker process, its
    thread pool overlapping each task's GETs) over the localhost vhost
    server — attempt log, fetch order and seen set must equal the serial
    oracle exactly, like every other parity run."""
    from owlcrawler_ray.pipelines.crawl import run_crawl
    from owlcrawler_ray.pipelines.oracle import run_oracle

    base = str(tmp_path / "httpcrawl")
    shutil.rmtree(base, ignore_errors=True)
    c, _ = run_crawl(_http_cfg(base, http_server))
    try:
        got_attempts, got_order = _attempts_and_order(c)
    finally:
        c.shutdown()
    oracle = run_oracle(SyntheticWeb(SMALL_WEB))
    assert got_attempts == [
        (a["tick"], a["url"], a["status"]) for a in oracle.attempts
    ]
    assert got_order == oracle.fetch_order
    assert set(got_order) == oracle.seen


def test_http_crawl_resume_parity(http_server, ray_session, tmp_path):
    """A network-fetcher crawl stopped at a tick cap and resumed from its
    checkpoint (the factory, part of the fingerprint, equal on both
    sides) makes the serial oracle's attempts in its fetch order."""
    from owlcrawler_ray.pipelines.crawl import Crawler, run_crawl
    from owlcrawler_ray.pipelines.oracle import run_oracle

    base = str(tmp_path / "httpresume")
    shutil.rmtree(base, ignore_errors=True)
    c1, s1 = run_crawl(_http_cfg(base, http_server, budget_per_round=5,
                                 max_ticks=12))
    c1.shutdown()
    assert 0 < s1["ticks"] <= 12
    c2 = Crawler(_http_cfg(base, http_server, budget_per_round=17),
                 resume=True)
    try:
        # it resumed from the checkpoint, not from the seeds
        assert (c2.tick, c2.fetch_seq) == (s1["ticks"], s1["fetched"])
        c2.run()
        got_attempts, got_order = _attempts_and_order(c2)
    finally:
        c2.shutdown()
    oracle = run_oracle(SyntheticWeb(SMALL_WEB))
    assert got_attempts == [
        (a["tick"], a["url"], a["status"]) for a in oracle.attempts
    ]
    assert got_order == oracle.fetch_order


def test_cached_fetcher_dedupes_equal_factories():
    """The per-process fetcher cache must return ONE live fetcher for
    structurally equal factories (every heavy-pass task unpickles its
    factory afresh, so per-object state would leak one thread-pool
    fetcher per task per worker), and distinct configs must get distinct
    fetchers."""
    from functools import partial

    from owlcrawler_ray.stages.fetch import HttpFetcher, cached_fetcher

    f1 = cached_fetcher(partial(HttpFetcher, rewrite_base="http://127.0.0.1:1"))
    f2 = cached_fetcher(partial(HttpFetcher, rewrite_base="http://127.0.0.1:1"))
    f3 = cached_fetcher(partial(HttpFetcher, rewrite_base="http://127.0.0.1:2"))
    try:
        assert f1 is f2
        assert f1 is not f3
    finally:
        f1.close()
        f3.close()


class _RobotsHandler(_CorpusHandler):
    """The corpus server, except every host's robots.txt disallows
    /page-1 (SMALL_WEB's own robots allow all); logs each robots GET's
    host."""
    robots_hosts: list = []

    def do_GET(self):
        if self.path != "/robots.txt":
            return super().do_GET()
        self.robots_hosts.append((self.headers.get("Host") or "").split(":")[0])
        body = b"User-agent: *\nDisallow: /page-1\n"
        self.send_response(200)
        self.send_header("Content-Type", "text/plain")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_polite_http_crawl_reads_robots_from_the_server(ray_session, tmp_path):
    """With a network fetcher, the politeness gate fetches robots.txt
    from the real server through that fetcher, once per host, and obeys
    it: no attempted url is under the disallowed prefix."""
    from collections import Counter
    from urllib.parse import urlsplit

    from owlcrawler_ray.pipelines.crawl import run_crawl
    from owlcrawler_ray.state.politeness import PolitenessConfig

    srv = _QuietServer(("127.0.0.1", 0), _RobotsHandler)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    base = str(tmp_path / "robots")
    try:
        c, _ = run_crawl(_http_cfg(
            base, f"http://127.0.0.1:{srv.server_port}", mode="polite",
            budget_per_round=16, fetch_robots=True,
            politeness=PolitenessConfig(mode="polite", rate_per_s=1.0,
                                        burst=2.0)))
        try:
            urls = c.attempts_table().column("url").to_pylist()
        finally:
            c.shutdown()
    finally:
        srv.shutdown()
    robots = Counter(_RobotsHandler.robots_hosts)
    assert urls and set(robots.values()) == {1}
    assert {urlsplit(u).netloc for u in urls} <= set(robots)
    assert not [u for u in urls if urlsplit(u).path.startswith("/page-1")]

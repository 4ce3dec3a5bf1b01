"""Webapp surface (webapp/main.go analog): status page counts vs the
crawl's own tables, the search endpoint's relevance + <strong>
highlights, and add-site feeding a LIVE crawler (the NATS fetch-queue
publish analog) — all exercised over real HTTP against the served app."""

import shutil
import urllib.error
import urllib.parse
import urllib.request

import pytest

from owlcrawler_ray.pipelines.crawl import CrawlConfig, run_crawl
from owlcrawler_ray.sources.corpus import WebConfig
from owlcrawler_ray.webapp import CrawlWebApp

SMALL_WEB = WebConfig(num_hosts=4, base_pages=6, hot_factor=3, n_seed_hosts=2)


@pytest.fixture(scope="module")
def crawl_out(ray_session, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("webapp"))
    shutil.rmtree(base, ignore_errors=True)
    cfg = CrawlConfig(
        web=SMALL_WEB, budget_per_round=64,
        out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2, image_concurrency=1,
    )
    c, _ = run_crawl(cfg)
    yield c, cfg.out_dir
    c.shutdown()


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10) as r:
        return r.read().decode("utf-8")


def test_webapp_status_search_addsite(crawl_out):
    crawler, out_dir = crawl_out
    app = CrawlWebApp(out_dir, crawler=crawler)
    srv, _ = app.serve_background()
    try:
        base = f"http://127.0.0.1:{srv.server_port}"

        # status counts == the crawl's own tables (/ == /index-status,
        # the reference indexHandler behavior) in the reference's
        # index-status.html markup: <h2>N</h2> stat rows + a ranged
        # <li><h3>site</h3></li> sites list
        n_pages = crawler.pages_table().num_rows
        n_sites0 = crawler.sites_table().num_rows
        body = _get(base + "/")
        assert "Index Statistics" in body
        assert f"<h2>{n_pages}</h2>" in body
        assert "urls fetched" in body and "parsed urls" in body
        assert body.count("<li><h3>") == n_sites0
        assert 'class="active"><a href="/index-status">' in body
        assert "OwlCrawler" in body

        # search: corpus words score + highlight with real <strong> tags,
        # rendered as the reference's result rows (row marketing divs
        # keyed by doc id, h4 title link, leading " ... " fragments)
        body = _get(base + "/index?term=owl+crawler")
        assert "<strong>owl</strong>" in body or "<strong>crawler</strong>" in body
        assert '<div class="row marketing" id="' in body
        assert "<h4><a href=" in body
        assert "Search!" in body
        s = app.search("owl crawler")
        assert 0 < len(s) <= 10
        scores = [h["score"] for h in s]
        assert scores == sorted(scores, reverse=True)
        # phrase boost: a page containing the exact bigram outranks tf-only
        assert all("<strong>" in h["highlight"] for h in s)

        # empty / no-hit terms
        assert app.search("") == []
        assert app.search("zzzznotaword") == []

        # add-site against the LIVE crawler: site- doc persisted. The
        # reference form POSTs (add-site.html method="POST") and renders
        # the status line through the template's {{if .}} slot
        req = urllib.request.Request(
            base + "/add-site",
            data=b"url=http%3A%2F%2Fhost-3.test%2F", method="POST")
        with urllib.request.urlopen(req, timeout=10) as r:
            body = r.read().decode("utf-8")
        assert "Site submitted" in body
        assert "Scan!" in body  # the form re-renders around the message
        assert crawler.sites_table().num_rows == n_sites0 + 1
        body = _get(base + "/")
        assert body.count("<li><h3>") == n_sites0 + 1
        # GET /add-site serves the FORM only — a state-changing GET would
        # let any cross-origin <img src=...> or prefetcher inject seeds
        body = _get(base + "/add-site?url=http://host-99.test/")
        assert "Scan!" in body and "Site submitted" not in body
        assert crawler.sites_table().num_rows == n_sites0 + 1

        # static app assets the reference serves from its build dirs
        assert "Disallow:" in _get(base + "/robots.txt")
        assert ".container" in _get(base + "/styles/main.css")

        with pytest.raises(urllib.error.HTTPError) as e:
            _get(base + "/nope")
        assert e.value.code == 404
    finally:
        srv.shutdown()


def test_webapp_detached_addsite_journal(tmp_path):
    """Without a live crawler the submission journals to
    submitted-sites.txt — the next `--resume --add-site` run's input."""
    out = str(tmp_path / "empty_out")
    app = CrawlWebApp(out)
    assert app.add_site("http://host-1.test/") == "Site submitted"
    assert app.add_site("") == "no url given"
    with open(f"{out}/submitted-sites.txt") as f:
        assert f.read() == "http://host-1.test/\n"
    # stats over an empty/missing store must serve zeros, not crash
    assert app.stats() == {"fetched": 0, "parsed": 0, "sites": []}


def test_search_highlight_escapes_corpus_markup(tmp_path):
    """Stored-XSS guard: extracted page text can contain literal markup
    (a real fetch of a page whose text nodes decode to '<script>...');
    the HTML surface must serve it inert — escaped corpus text with ONLY
    the sentinel-derived <strong> live. The reference marks fragments as
    template.HTML after sentinel replacement (webapp/main.go:137-141),
    which trusts ES's encoder; our surface escapes first."""
    import pyarrow as pa

    from owlcrawler_ray.sinks import table_store

    out = str(tmp_path / "out")
    t = pa.table({
        "doc_id": pa.array(["d1"], pa.string()),
        "url": pa.array(["http://h/x"], pa.string()),
        "title": pa.array(["t"], pa.string()),
        "text": pa.array(
            [["<script>alert(1)</script>", "owl", "crawler"]],
            pa.list_(pa.string())),
    })
    table_store.write_round(t, out, "pages", 0)
    table_store.commit_round(out, "pages", 0)
    app = CrawlWebApp(out)
    hits = app.search("owl")
    assert hits, "crafted page must match"
    h = hits[0]["highlight_html"]
    assert "<script>" not in h and "&lt;script&gt;" in h
    assert "<strong>owl</strong>" in h
    # the plain-text API form keeps the reference's raw behavior
    assert "<script>" in hits[0]["highlight"]
    # second search with no new rounds hits the memo (same object back)
    pages_again = app._read("pages", ["doc_id", "url", "title", "text"])
    assert app._read("pages", ["doc_id", "url", "title", "text"]) is pages_again


def test_search_on_empty_store_returns_empty(tmp_path):
    """A detached webapp pointed at a store with NO committed pages round
    (the supported status-page-before-first-commit state) must serve
    search as empty, not KeyError the handler thread: read_all_arrow
    returns a schema-less pa.table({}) there, and the cached body join
    runs BEFORE the caller's num_rows guard."""
    app = CrawlWebApp(str(tmp_path / "never_written"))
    assert app.search("owl") == []
    # the HTTP surface end-to-end, too (this is where the KeyError killed
    # the thread and the client saw a dropped connection)
    srv, _ = app.serve_background()
    try:
        url = f"http://127.0.0.1:{srv.server_port}/index?term=owl"
        with urllib.request.urlopen(url, timeout=10) as r:
            body = r.read().decode("utf-8")
        assert "owl" in body  # the form echoes the term; no results rows
    finally:
        srv.shutdown()


def _post(url: str, data: dict, origin: str | None = None):
    req = urllib.request.Request(
        url, data=urllib.parse.urlencode(data).encode("utf-8"), method="POST"
    )
    if origin is not None:
        req.add_header("Origin", origin)
    return urllib.request.urlopen(req, timeout=10)


def test_addsite_cross_origin_post_rejected(tmp_path):
    """Browsers send an Origin header on every cross-origin form POST;
    a mismatched (or opaque 'null') Origin must be refused so a hostile
    page cannot auto-submit crawl seeds. Same-origin and non-browser
    (no-Origin) POSTs pass."""
    out = str(tmp_path / "out")
    app = CrawlWebApp(out)
    srv, _ = app.serve_background()
    try:
        base = f"http://127.0.0.1:{srv.server_port}"
        for evil in ("http://evil.test", "null"):
            with pytest.raises(urllib.error.HTTPError) as ei:
                _post(f"{base}/add-site", {"url": "http://evil.test/"},
                      origin=evil)
            assert ei.value.code == 403
        import os
        assert not os.path.exists(f"{out}/submitted-sites.txt")
        # same-origin browser POST and a header-less curl-style POST work
        with _post(f"{base}/add-site", {"url": "http://ok-a.test/"},
                   origin=base) as r:
            assert r.status == 200
        with _post(f"{base}/add-site", {"url": "http://ok-b.test/"}) as r:
            assert r.status == 200
        with open(f"{out}/submitted-sites.txt") as f:
            assert f.read() == "http://ok-a.test/\nhttp://ok-b.test/\n"
    finally:
        srv.shutdown()

import numpy as np

from owlcrawler_ray.functions import ids
from owlcrawler_ray.functions.parse import extract_links, extract_text
from owlcrawler_ray.pipelines.oracle import run_oracle
from owlcrawler_ray.sources.corpus import TEST_WEB, SyntheticWeb, WebConfig


def test_corpus_deterministic():
    w1, w2 = SyntheticWeb(TEST_WEB), SyntheticWeb(TEST_WEB)
    for url in w1.seeds() + [w1.page_url(0, 3), w1.page_url(2, 7)]:
        assert w1.fetch(url) == w2.fetch(url)
    assert w1.fetch(w1.page_url(0, 1)) != w1.fetch(w1.page_url(0, 2))


def test_corpus_404s():
    w = SyntheticWeb(TEST_WEB)
    assert w.fetch("http://host-999.test/")[0] == 404
    assert w.fetch(f"http://host-1.test/page-{TEST_WEB.base_pages}.html")[0] == 404
    assert w.fetch("http://offsite-1.example/x.html")[0] == 404
    assert w.fetch(w.seeds()[0])[0] == 200


def test_image_bytes_404_for_pages_that_404():
    """An image url of a page or host that 404s has no payload either:
    image_bytes applies resolve()'s bounds and raises KeyError, which
    ImageFetcher turns into an ok=False row."""
    import pyarrow as pa
    import pytest

    from owlcrawler_ray.stages.images import ImageFetcher

    w = SyntheticWeb(TEST_WEB)
    pi = TEST_WEB.base_pages  # first page past host 1's last page
    assert w.fetch(f"http://host-1.test/page-{pi}.html")[0] == 404
    hot = TEST_WEB.pages_on(0)
    # urls shaped exactly like a live page's images (images_on does not
    # bound-check), so only the bounds check can turn them away
    dead = [m["image_url"]
            for hi, p in ((1, pi), (1, pi + 7), (0, hot),
                          (TEST_WEB.num_hosts, 0), (999, 3))
            for m in w.images_on(hi, p)]
    assert "http://host-1.test/img-12-0.png" in dead
    for url in dead:
        with pytest.raises(KeyError):
            w.image_bytes(url)
    got = ImageFetcher(TEST_WEB)(pa.table({"image_url": dead}))
    assert got.column("ok").to_pylist() == [False] * len(dead)
    assert all(b == b"" for b in got.column("bytes").to_pylist())
    # the last real page of each host still serves its images
    live = [m["image_url"] for hi in range(TEST_WEB.num_hosts)
            for m in w.images_on(hi, TEST_WEB.pages_on(hi) - 1)]
    assert live and all(w.image_bytes(u) for u in live)


def test_corpus_html_parses_with_reference_semantics():
    w = SyntheticWeb(TEST_WEB)
    status, html = w.fetch(w.page_url(1, 0))
    assert status == 200
    page = extract_text(html.decode())
    assert page.title.startswith("Host 1 page 0")
    assert page.h1 == ["Welcome to host 1"]
    assert "do-not-index" not in " ".join(page.text)
    fetch, store = extract_links(html.decode(), w.page_url(1, 0))
    assert len(fetch) >= 2  # children 1, 2 at minimum
    assert all(u.startswith("http://host-") for u in fetch)
    assert len(store) > len(fetch)  # offsite/mailto/fragment are store-only


def test_image_bytes_deterministic_and_decodable():
    from owlcrawler_ray.functions import codec

    w = SyntheticWeb(TEST_WEB)
    found = 0
    for hi in range(TEST_WEB.num_hosts):
        for pi in range(TEST_WEB.pages_on(hi)):
            for meta in w.images_on(hi, pi):
                buf = w.image_bytes(meta["image_url"])
                pix, fmt, wid, hei = codec.decode(buf)
                assert (fmt, wid, hei) == (meta["fmt"], meta["w"], meta["h"])
                found += 1
            if found > 10:
                return
    assert found > 0


def test_oracle_basic_invariants():
    web = SyntheticWeb(TEST_WEB)
    res = run_oracle(web)
    # every successful fetch unique; seen set == fetched urls
    assert len(res.fetch_order) == len(set(res.fetch_order))
    assert res.seen == set(res.fetch_order)
    # seeds fetched first, in submission order
    assert res.fetch_order[: len(web.seeds())] == web.seeds()
    # ticks strictly increasing; failures consume ticks too
    ticks = [a["tick"] for a in res.attempts]
    assert ticks == list(range(1, len(ticks) + 1))
    n_fail = sum(1 for a in res.attempts if a["status"] != 200)
    assert len(res.attempts) == len(res.fetch_order) + n_fail
    # reachability: the crawl reaches a decent chunk of the web
    assert len(res.fetch_order) > TEST_WEB.num_hosts
    # every page's links_to_queue excludes urls fetched earlier
    for url, page in res.pages.items():
        seq = page["fetch_seq"]
        fetched_before = set(res.fetch_order[: seq + 1])
        for link in page["links_to_queue"]:
            assert link not in fetched_before
    # doc ids consistent
    for url, page in res.pages.items():
        assert page["doc_id"] == ids.doc_id(url)


def test_oracle_budget_cap_is_prefix():
    web = SyntheticWeb(TEST_WEB)
    full = run_oracle(web)
    part = run_oracle(web, max_ticks=20)
    assert part.attempts == full.attempts[:20]
    assert part.fetch_order == full.fetch_order[: len(part.fetch_order)]


def test_hot_host_skew_exists():
    web = SyntheticWeb(TEST_WEB)
    res = run_oracle(web)
    hosts = [ids.host_of(u) for u in res.fetch_order]
    counts = {h: hosts.count(h) for h in set(hosts)}
    assert counts.get("host-0.test", 0) > np.mean(
        [c for h, c in counts.items() if h != "host-0.test"]
    )


def test_html_bit_identical_to_sequential_words():
    """html_for's single batched rng.choice draw must produce the exact
    html of the original per-paragraph loop: Generator.choice consumes
    the identical bit stream for size=(P, W) as for P sequential size=W
    calls. Re-derive the paragraphs the old way from the same stream and
    compare the full page text."""
    import numpy as np

    from owlcrawler_ray.sources.corpus import (SyntheticWeb, WebConfig,
                                               _WORDS, _rng_for)

    cfg = WebConfig(paragraphs=5, words_per_paragraph=17)
    web = SyntheticWeb(cfg)
    for hi, pi in [(0, 0), (0, 3), (2, 1)]:
        html = web.html_for(hi, pi)
        rng = _rng_for(cfg.seed, "html", hi, pi)
        old_paras = [
            "<p>" + " ".join(rng.choice(_WORDS, size=17)) + "</p>"
            for _ in range(5)
        ]
        for para in old_paras:
            assert para in html, (hi, pi, para[:40])
        # and order is preserved
        idx = [html.index(p) for p in old_paras]
        assert idx == sorted(idx)

"""The corpus web's batch path renders the same bytes as its scalar path.

``SyntheticWeb.fetch_many`` / ``image_bytes_many`` seed every rng stream
of a batch with one ``functions.seeding`` call and draw words by
indexing instead of ``Generator.choice``. These tests pin the kernel to
``np.random.default_rng``, the word draw to ``choice``, the batch
methods to the scalar ones, and both to golden digests of every page
and image of two webs shaped like perfbench's.
"""

import hashlib

import numpy as np
import pyarrow as pa

from owlcrawler_ray.functions.seeding import pcg64_states
from owlcrawler_ray.sources.corpus import (_WORDS, SyntheticWeb, WebConfig,
                                           _draw_words)
from owlcrawler_ray.stages.images import ImageFetcher


def _bulk(seed):
    return WebConfig(seed=seed, num_hosts=24, base_pages=60, hot_factor=4,
                     n_seed_hosts=24, fanout=4, paragraphs=12,
                     words_per_paragraph=50, img_scale=2)


def _polite(seed):
    return WebConfig(seed=seed, num_hosts=64, base_pages=40, hot_factor=1,
                     n_seed_hosts=64, paragraphs=2, words_per_paragraph=30,
                     max_images=0, robots_frac=0.5)


# blake2b-16 of every (url, status, body) / (url, payload) in the order of
# _page_urls / _image_urls, recorded with the scalar default_rng renderer
# as it stood before batch rendering; any byte an origin change moves
# fails here
_GOLDEN = {
    "bulk-1": ("7abb9f3638e6f13a4ef4da85a2245838", 1668,
               "9453a908f51d9f2e8a7e7dc6fa4d4a87", 2503),
    "polite-3": ("2f6d83dc6ea29e6d01976cac2575d27c", 2688,
                 "cae66941d9efbd404e4d88758ea67670", 0),
}


def _page_urls(web):
    out = []
    for hi in range(web.cfg.num_hosts):
        out += [f"http://{web.host(hi)}/", f"http://{web.host(hi)}/robots.txt"]
        out += [web.page_url(hi, pi) for pi in range(web.cfg.pages_on(hi))]
    return out


def _image_urls(web):
    return [m["image_url"] for hi in range(web.cfg.num_hosts)
            for pi in range(web.cfg.pages_on(hi))
            for m in web.images_on(hi, pi)]


def _digest(items):
    h = hashlib.blake2b(digest_size=16)
    for key, body in items:
        h.update(key.encode() + b"\0" + len(body).to_bytes(8, "little") + body)
    return h.hexdigest()


def _page_digest(urls, got):
    return _digest((u, s.to_bytes(2, "little") + b)
                   for u, (s, b) in zip(urls, got))


def _misses(web):
    """Urls that 404: dead links, hosts and pages past the web's bounds,
    foreign hosts and paths, and non-page paths of a live host."""
    cfg = web.cfg
    last = cfg.num_hosts - 1
    return [
        web.page_url(0, cfg.pages_on(0)),
        web.page_url(1, cfg.pages_on(1) + 150),
        web.page_url(cfg.num_hosts, 0),
        f"http://host-{cfg.num_hosts}.test/",
        f"http://host-{cfg.num_hosts + 5}.test/robots.txt",
        f"http://host-{last}.test/page-x.html",
        f"http://host-{last}.test/about",
        "http://offsite-3.example/x.html",
        "https://host-0.test/page-1.html",
        "mailto:owl@example.test",
        "",
    ]


def test_seeding_kernel_matches_default_rng():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [
        int.from_bytes(hashlib.blake2b(str(i).encode(),
                                       digest_size=8).digest(), "little")
        for i in range(10_000)]
    got = pcg64_states(np.array(seeds, dtype=np.uint64))
    assert len(got) == len(seeds)
    for s, (state, inc) in zip(seeds, got):
        assert np.random.default_rng(s).bit_generator.state == {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }, s
    assert pcg64_states(np.array([], dtype=np.uint64)) == []


def test_draw_words_equals_choice():
    for s in range(50):
        for size in (3, (2, 30), (12, 50), (5, 17)):
            a, b = np.random.default_rng(s), np.random.default_rng(s)
            want = a.choice(_WORDS, size=size)
            got = _draw_words(b, size)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert (got == want).all()
            # and both leave the stream at the same place
            assert a.random() == b.random()


def test_fetch_many_equals_fetch():
    for cfg in (_polite(3), _polite(11), _bulk(1), _bulk(7)):
        web = SyntheticWeb(cfg)
        urls = _page_urls(web) + _misses(web)
        # dead links the pages actually carry
        for hi in range(cfg.num_hosts):
            urls += [web.page_url(hi, t)
                     for t in web.link_targets(hi, 1)["dead"]]
        # repeats, in another order, hit the image-metadata memo
        urls += urls[::-7]
        want = [SyntheticWeb(cfg).fetch(u) for u in urls]
        assert web.fetch_many(urls) == want, cfg
        assert sum(s == 404 for s, _ in want) >= len(_misses(web))
        # one batch per page: the order and size of a batch do not matter
        fresh = SyntheticWeb(cfg)
        assert [fresh.fetch_many([u])[0] for u in urls[:300]] == want[:300]
    assert SyntheticWeb(_bulk(1)).fetch_many([]) == []


def test_page_digests_are_golden():
    for name, cfg in (("bulk-1", _bulk(1)), ("polite-3", _polite(3))):
        web = SyntheticWeb(cfg)
        urls = _page_urls(web)
        digest, n = _GOLDEN[name][:2]
        assert len(urls) == n
        assert _page_digest(urls, web.fetch_many(urls)) == digest, name


def test_image_bytes_many_equals_image_bytes_and_is_golden():
    cfg = _bulk(1)
    web = SyntheticWeb(cfg)  # empty memo: the batch derives every page's metas
    urls = _image_urls(SyntheticWeb(cfg))
    digest, n = _GOLDEN["bulk-1"][2:]
    assert len(urls) == n
    got = web.image_bytes_many(urls)
    assert _digest(zip(urls, got)) == digest

    ref = SyntheticWeb(cfg)
    assert got == [ref.image_bytes(u) for u in urls]

    # misses: a k past the page's images, a wrong format, pages and hosts
    # past the web's bounds, foreign and non-image urls
    n0 = len(web.images_on(0, 5))
    misses = [
        f"http://host-0.test/img-5-{n0}.png",
        urls[0].rsplit(".", 1)[0] + (".webp" if not urls[0].endswith("webp")
                                     else ".png"),
        f"http://host-1.test/img-{cfg.pages_on(1)}-0.png",
        f"http://host-{cfg.num_hosts}.test/img-0-0.png",
        "http://host-0.test/img-1-0.gif",
        "http://offsite-1.example/img-0-0.png",
        "http://host-0.test/page-1.html",
    ]
    for u in misses:
        try:
            ref.image_bytes(u)
            raise AssertionError(f"{u} served by image_bytes")
        except KeyError:
            pass
    mixed = [x for pair in zip(urls[:len(misses)], misses) for x in pair]
    for w in (web, SyntheticWeb(cfg)):  # memoized and fresh metas
        assert w.image_bytes_many(mixed) == [
            None if u in misses else ref.image_bytes(u) for u in mixed]
    fetched = ImageFetcher(cfg)(pa.table({"image_url": mixed}))
    assert fetched.column("ok").to_pylist() == [u not in misses for u in mixed]
    assert fetched.column("bytes").to_pylist() == [
        b"" if u in misses else ref.image_bytes(u) for u in mixed]
    assert web.image_bytes_many([]) == []


def test_imageless_web_serves_no_images():
    cfg = _polite(3)
    web = SyntheticWeb(cfg)
    assert all(not web.images_on(hi, pi) for hi in range(4) for pi in range(9))
    urls = [f"http://host-{hi}.test/img-{pi}-0.png"
            for hi in range(4) for pi in range(9)]
    assert web.image_bytes_many(urls) == [None] * len(urls)

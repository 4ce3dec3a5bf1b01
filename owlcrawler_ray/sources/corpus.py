"""Deterministic synthetic web — the sandbox's stand-in for the internet.

The reference fetches live pages over HTTP (fetcher.go:44-61); the sandbox
has no network, so the "web" is a PURE FUNCTION url -> (status, html) and
image_id -> bytes, fully determined by a seed. Nothing is materialized: a
10^10-URL web costs zero storage, every worker regenerates any page on
demand, and every run sees byte-identical content. A real ``aiohttp``
fetcher drops in behind the same ``Fetcher`` protocol (stages/fetch.py).

Graph shape (per config):
  * hosts ``host-{i}.test``; host 0 is the HOT host with ``hot_factor`` x
    more pages than the rest — deliberate skew for the hot-host splitting
    tests (SURVEY.md §4).
  * page j links to children 2j+1, 2j+2 (guaranteed reachability from the
    root) plus seeded same-host extras — all ROOT-RELATIVE hrefs, the only
    href class the reference ever fetches from a same-host page
    (parse.go:114-120);
  * occasional SCHEME-RELATIVE cross-host links ``//host-k.test/...``
    (parse.go:107-113) connect hosts;
  * absolute off-site / mailto / fragment hrefs are store-only noise
    (parse.go:121-124);
  * a small fraction of dead same-host links (404) exercises the
    fetch-error path (reference drops the message, fetcher.go:51-54);
  * pages embed 0..3 images (``<img src alt>``): id, fmt (png/jpeg/webp
    cycled), small w x h, caption derived from the page title.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from ..functions import codec, ids

_WORDS = (
    "owl crawler ray data arrow batch stream frontier fetch parse index "
    "page link host queue shard actor block shuffle vector lance image "
    "caption hashing bloom cuckoo filter politeness robots depth seed "
    "graph corpus token text title quality score near duplicate"
).split()

_PAGE_RE = re.compile(r"^/page-(\d+)\.html$")
_IMG_RE = re.compile(r"^http://(host-\d+\.test)/img-(\d+)-(\d+)\.(png|jpeg|webp)$")
_FMTS = ("png", "jpeg", "webp")
_DIMS = ((32, 32), (48, 32), (64, 48), (96, 64))


def _rng_for(*parts) -> np.random.Generator:
    key = "|".join(str(p) for p in parts).encode()
    seed = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class WebConfig:
    seed: int = 42
    num_hosts: int = 6
    base_pages: int = 12
    hot_factor: int = 4
    n_seed_hosts: int = 3
    extra_links: int = 3
    cross_host_prob: float = 0.25
    dead_link_prob: float = 0.08
    max_images: int = 3
    paragraphs: int = 3
    words_per_paragraph: int = 30
    fanout: int = 2       # tree children per page (BFS depth ~ log_fanout)
    img_scale: int = 1    # multiplies image dimensions (decode weight)
    # fraction of hosts whose /robots.txt disallows a path prefix (0 = all
    # hosts serve an allow-all robots.txt; rules are seed-deterministic)
    robots_frac: float = 0.0

    def pages_on(self, host_idx: int) -> int:
        return self.base_pages * (self.hot_factor if host_idx == 0 else 1)

    def total_pages(self) -> int:
        return sum(self.pages_on(i) for i in range(self.num_hosts))


# small / bench presets
TEST_WEB = WebConfig()
BENCH_WEB = WebConfig(num_hosts=40, base_pages=120, hot_factor=8, n_seed_hosts=8)


class SyntheticWeb:
    def __init__(self, cfg: WebConfig = TEST_WEB):
        self.cfg = cfg
        # per-page image-metadata memo for the image_bytes hot path: the
        # fetch stage resolves each image url independently, and without
        # the memo every call re-derives ALL metas of its page (blake2b
        # doc ids + title rng). images_on is a pure function of
        # (cfg, hi, pi), so memoizing is bit-identical; bounded so a
        # long-lived actor over a 10^10-url web can't grow it unbounded.
        self._img_meta_memo: dict[tuple[int, int], list[dict]] = {}

    # ---- identity ----------------------------------------------------
    def host(self, i: int) -> str:
        return f"host-{i}.test"

    def page_url(self, host_idx: int, page_idx: int) -> str:
        return f"http://{self.host(host_idx)}/page-{page_idx}.html"

    def seeds(self) -> list[str]:
        return [f"http://{self.host(i)}/" for i in range(self.cfg.n_seed_hosts)]

    def resolve(self, url: str) -> tuple[int, int] | None:
        """url -> (host_idx, page_idx) or None (404)."""
        m = re.match(r"^http://host-(\d+)\.test(/.*)?$", url)
        if not m:
            return None
        hi = int(m.group(1))
        if hi >= self.cfg.num_hosts:
            return None
        path = m.group(2) or "/"
        if path == "/robots.txt":
            return hi, -1  # special: robots document
        if path == "/":
            return hi, 0
        pm = _PAGE_RE.match(path)
        if not pm:
            return None
        pi = int(pm.group(1))
        if pi >= self.cfg.pages_on(hi):
            return None
        return hi, pi

    # ---- content -----------------------------------------------------
    def fetch(self, url: str) -> tuple[int, bytes]:
        """(status, html bytes) — the Fetcher protocol's corpus impl."""
        loc = self.resolve(url)
        if loc is None:
            return 404, b""
        if loc[1] == -1:
            return 200, self.robots_txt(self.host(loc[0])).encode("utf-8")
        return 200, self.html_for(*loc).encode("utf-8")

    def images_on(self, host_idx: int, page_idx: int) -> list[dict]:
        cfg = self.cfg
        rng = _rng_for(cfg.seed, "imgs", host_idx, page_idx)
        n = int(rng.integers(0, cfg.max_images + 1))
        out = []
        if not n:
            return out
        # the title has its own rng stream: one draw serves every caption
        title = self._title(host_idx, page_idx)
        host = self.host(host_idx)
        for k in range(n):
            fmt = _FMTS[(page_idx + k) % 3]
            w, h = _DIMS[int(rng.integers(0, len(_DIMS)))]
            w, h = w * cfg.img_scale, h * cfg.img_scale
            img_url = f"http://{host}/img-{page_idx}-{k}.{fmt}"
            out.append(
                {
                    "image_url": img_url,
                    "image_id": ids.doc_id(img_url),
                    "fmt": fmt,
                    "w": int(w),
                    "h": int(h),
                    "caption": f"{title} — image {k}",
                }
            )
        return out

    def image_bytes(self, image_url: str) -> bytes:
        m = _IMG_RE.match(image_url)
        if not m:
            raise KeyError(image_url)
        host, pi, fmt = m.group(1), int(m.group(2)), m.group(4)
        hi = int(host.split("-")[1].split(".")[0])
        # the same bounds as resolve(): a page that 404s embeds no images
        if hi >= self.cfg.num_hosts or pi >= self.cfg.pages_on(hi):
            raise KeyError(image_url)
        for meta in self._page_image_metas(hi, pi):
            if meta["image_url"] == image_url:
                pix = codec.synth_pixels(meta["image_id"], meta["w"], meta["h"])
                return codec.encode(pix, fmt)
        raise KeyError(image_url)

    def _page_image_metas(self, hi: int, pi: int) -> list[dict]:
        """Memoized images_on — pure in (cfg, hi, pi), shared by the
        image_bytes hot path and html_for (bounded; see __init__)."""
        metas = self._img_meta_memo.get((hi, pi))
        if metas is None:
            if len(self._img_meta_memo) > 4096:
                self._img_meta_memo.clear()
            metas = self._img_meta_memo[(hi, pi)] = self.images_on(hi, pi)
        return metas

    def _title(self, hi: int, pi: int) -> str:
        rng = _rng_for(self.cfg.seed, "title", hi, pi)
        extra = " ".join(rng.choice(_WORDS, size=3))
        return f"Host {hi} page {pi} — {extra}"

    def _words(self, rng: np.random.Generator, n: int) -> str:
        return " ".join(rng.choice(_WORDS, size=n))

    def link_targets(self, hi: int, pi: int) -> dict:
        """Deterministic link plan for a page (same rng stream as html_for)."""
        cfg = self.cfg
        rng = _rng_for(cfg.seed, "links", hi, pi)
        pages = cfg.pages_on(hi)
        same_host = [
            c for c in range(cfg.fanout * pi + 1, cfg.fanout * pi + 1 + cfg.fanout)
            if c < pages
        ]
        for _ in range(cfg.extra_links):
            same_host.append(int(rng.integers(0, pages)))
        dead = []
        if rng.random() < cfg.dead_link_prob:
            dead.append(pages + int(rng.integers(100, 200)))
        cross = []
        if cfg.num_hosts > 1 and rng.random() < cfg.cross_host_prob:
            other = int(rng.integers(0, cfg.num_hosts - 1))
            if other >= hi:
                other += 1
            cross.append((other, int(rng.integers(0, cfg.pages_on(other)))))
        offsite = [f"http://offsite-{int(rng.integers(0, 50))}.example/x.html"]
        return {
            "same_host": same_host,
            "dead": dead,
            "cross": cross,
            "offsite": offsite,
        }

    def html_for(self, hi: int, pi: int) -> str:
        cfg = self.cfg
        rng = _rng_for(cfg.seed, "html", hi, pi)
        title = self._title(hi, pi)
        plan = self.link_targets(hi, pi)
        parts = [
            "<!DOCTYPE html>",
            "<html><head>",
            f"<title>{title}</title>",
            '<style>body { color: #222; }</style>',
            "<script>var tracker = 'do-not-index';</script>",
            "</head><body>",
            f"<h1>Welcome to host {hi}</h1>",
            f"<h2>Page {pi}</h2>",
        ]
        if pi % 4 == 0:
            parts.append(f"<h3>Section {pi // 4}</h3>")
        if pi % 5 == 0:
            parts.append(f"<h4>Note {pi // 5}</h4>")
        nav = []
        for tgt in plan["same_host"]:
            nav.append(f'<a href="/page-{tgt}.html">to page {tgt}</a>')
        for tgt in plan["dead"]:
            nav.append(f'<a href="/page-{tgt}.html">dead {tgt}</a>')
        for oh, op in plan["cross"]:
            nav.append(
                f'<a href="//{self.host(oh)}/page-{op}.html">cross {oh}/{op}</a>'
            )
        for url in plan["offsite"]:
            nav.append(f'<a href="{url}">offsite</a>')
        nav.append('<a href="#top">top</a>')
        nav.append('<a href="mailto:owl@example.test">mail</a>')
        parts.append("<nav>" + " ".join(nav) + "</nav>")
        if cfg.paragraphs:
            # ONE batched draw: Generator.choice consumes the identical
            # bit-stream for size=(P, W) as for P sequential size=W calls
            # (pinned by test_html_bit_identical_to_sequential_words), and
            # tolist() joins python strs instead of numpy scalars
            words = rng.choice(_WORDS,
                               size=(cfg.paragraphs, cfg.words_per_paragraph))
            parts.extend(f"<p>{' '.join(row)}</p>" for row in words.tolist())
        for meta in self._page_image_metas(hi, pi):
            src = meta["image_url"]
            parts.append(f'<img src="{src}" alt="{meta["caption"]}"/>')
        parts.append("<br/>")
        parts.append("</body></html>")
        return "\n".join(parts)

    def robots_txt(self, host: str) -> str:
        """Deterministic per-host robots.txt. With robots_frac > 0 a seeded
        subset of hosts disallows one /page-K prefix; the rest allow all."""
        cfg = self.cfg
        rng = _rng_for(cfg.seed, "robots", host)
        if rng.random() >= cfg.robots_frac:
            return "User-agent: *\nDisallow:\n"
        hi = int(host.split("-")[1].split(".")[0])
        k = int(rng.integers(1, max(cfg.pages_on(hi) // 2, 2)))
        return f"User-agent: *\nDisallow: /page-{k}\n"


# one SyntheticWeb per configuration per process, so the stages of one
# worker that read the same web (the page fetch renders a page, the image
# fetch then synthesizes its images) share the image-metadata memo
# instead of deriving every page's metadata once each
_SHARED: dict[WebConfig, SyntheticWeb] = {}


def shared_web(cfg: WebConfig) -> SyntheticWeb:
    web = _SHARED.get(cfg)
    if web is None:
        web = _SHARED[cfg] = SyntheticWeb(cfg)
    return web

"""Deterministic synthetic web — the sandbox's stand-in for the internet.

The reference fetches live pages over HTTP (fetcher.go:44-61); the sandbox
has no network, so the "web" is a PURE FUNCTION url -> (status, html) and
image_id -> bytes, fully determined by a seed. Nothing is materialized: a
10^10-URL web costs zero storage, every worker regenerates any page on
demand, and every run sees byte-identical content. A real ``aiohttp``
fetcher drops in behind the same ``Fetcher`` protocol (stages/fetch.py).

Every piece of a page comes from its own rng stream, seeded by the
blake2b of ``(seed, role, host, page)`` (roles title, links, html,
imgs; an image's pixels are seeded by its id, ``codec.pixel_seed``).
Two paths render the same bytes:
  * scalar — ``fetch``, ``html_for``, ``image_bytes``: each stream is
    ``np.random.default_rng(seed)`` (``_rng_for``). This is the seeding
    reference, used by the oracle, robots.txt and the tests;
  * batch — ``fetch_many``, ``image_bytes_many``, what the crawl's
    fetch stages call: one ``functions.seeding`` call computes the PCG64
    state ``default_rng`` would start from for every stream of the
    batch, and a few reused Generators are pointed at those states page
    by page (~2 us each, against ~17 us for ``default_rng``).
Both feed one renderer (``_render``), and tests/test_corpus_batch.py
pins the two paths to each other and to golden digests of two webs.

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
from dataclasses import dataclass

import numpy as np

from ..functions import codec, ids, seeding

_WORDS = (
    "owl crawler ray data arrow batch stream frontier fetch parse index "
    "page link host queue shard actor block shuffle vector lance image "
    "caption hashing bloom cuckoo filter politeness robots depth seed "
    "graph corpus token text title quality score near duplicate"
).split()
_WORDS_ARR = np.array(_WORDS)

_URL_RE = re.compile(r"^http://host-(\d+)\.test(/.*)?$")
_PAGE_RE = re.compile(r"^/page-(\d+)\.html$")
_IMG_RE = re.compile(r"^http://host-(\d+)\.test/img-(\d+)-(\d+)\.(png|jpeg|webp)$")
_FMTS = ("png", "jpeg", "webp")
_DIMS = ((32, 32), (48, 32), (64, 48), (96, 64))
# a page's rng streams, in the order the batch path seeds them; "imgs"
# only when the web embeds images
_PAGE_ROLES = ("title", "links", "html", "imgs")


def _key_seed(*parts) -> bytes:
    """The 8-byte little-endian seed of one rng stream."""
    key = "|".join(str(p) for p in parts).encode()
    return hashlib.blake2b(key, digest_size=8).digest()


def _rng_for(*parts) -> np.random.Generator:
    """One stream's generator, seeded by ``np.random.default_rng``: the
    scalar reference path. The batch path (``fetch_many``,
    ``image_bytes_many``) starts its generators at the same states,
    computed for a whole batch by ``functions.seeding``."""
    return np.random.default_rng(int.from_bytes(_key_seed(*parts), "little"))


def _batch_states(seeds: list[bytes]) -> list[tuple[int, int]]:
    """8-byte seeds -> the PCG64 (state, inc) of each one's default_rng."""
    return seeding.pcg64_states(np.frombuffer(b"".join(seeds), dtype="<u8"))


def _generators(n: int) -> list[np.random.Generator]:
    """n Generators for the batch path to re-point with ``_at``; built per
    batch call, so two threads never share one."""
    return [np.random.Generator(np.random.PCG64(0)) for _ in range(n)]


def _at(gen: np.random.Generator, state: tuple[int, int]) -> np.random.Generator:
    """Point a Generator at a precomputed PCG64 state (~2 us, against
    ~17 us for ``default_rng``)."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _draw_words(rng: np.random.Generator, size) -> np.ndarray:
    """== ``rng.choice(_WORDS, size)``: for replace=True and p=None,
    Generator.choice draws ``integers(0, len, size)`` and indexes, minus
    the list-to-array conversion it does on every call."""
    return _WORDS_ARR[rng.integers(0, len(_WORDS), size)]


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
        # per-page image-metadata memo: rendering a page derives its
        # image metas (title + imgs streams, doc ids), and the image
        # fetch that follows in the same process reads them here instead
        # of deriving them again; scalar image_bytes calls of one page
        # share them too. The metas are a pure function of (cfg, hi, pi),
        # so memoizing is bit-identical; bounded so a long-lived worker
        # over a 10^10-url web can't grow it unbounded.
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
        m = _URL_RE.match(url)
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

    def fetch_many(self, urls: list[str]) -> list[tuple[int, bytes]]:
        """``[fetch(u) for u in urls]``, byte for byte: every page's rng
        streams are seeded by one ``functions.seeding`` call, and a few
        reused Generators are pointed at those states page by page."""
        cfg = self.cfg
        locs = [self.resolve(u) for u in urls]
        pages = [loc for loc in locs if loc is not None and loc[1] >= 0]
        roles = _PAGE_ROLES if cfg.max_images else _PAGE_ROLES[:-1]
        states = iter(_batch_states(
            [_key_seed(cfg.seed, role, hi, pi)
             for hi, pi in pages for role in roles]))
        gens = _generators(len(roles))
        out = []
        for loc in locs:
            if loc is None:
                out.append((404, b""))
            elif loc[1] == -1:
                robots = self.robots_txt(self.host(loc[0]))
                out.append((200, robots.encode("utf-8")))
            else:
                rngs = [_at(g, next(states)) for g in gens]
                if len(rngs) < len(_PAGE_ROLES):
                    rngs.append(None)  # no "imgs" stream
                html = self._render(*loc, *rngs)
                out.append((200, html.encode("utf-8")))
        return out

    def images_on(self, host_idx: int, page_idx: int) -> list[dict]:
        return self._metas_from(self._imgs_rng(host_idx, page_idx),
                                host_idx, page_idx,
                                self._title(host_idx, page_idx))

    def _imgs_rng(self, hi: int, pi: int) -> np.random.Generator | None:
        # a web without images needs no stream: its one draw,
        # integers(0, 1), is always 0
        if not self.cfg.max_images:
            return None
        return _rng_for(self.cfg.seed, "imgs", hi, pi)

    def _metas_from(self, rng: np.random.Generator | None, hi: int, pi: int,
                    title: str) -> list[dict]:
        """A page's image metadata from its "imgs" stream (None: the web
        embeds no images) and its title."""
        if rng is None:
            return []
        cfg = self.cfg
        n = int(rng.integers(0, cfg.max_images + 1))
        host = self.host(hi)
        out = []
        for k in range(n):
            fmt = _FMTS[(pi + k) % 3]
            w, h = _DIMS[int(rng.integers(0, len(_DIMS)))]
            w, h = w * cfg.img_scale, h * cfg.img_scale
            img_url = f"http://{host}/img-{pi}-{k}.{fmt}"
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

    def _image_loc(self, image_url: str) -> tuple[int, int, str] | None:
        """image url -> (host_idx, page_idx, fmt), or None where the url
        is not an image url or its page 404s (resolve()'s bounds)."""
        m = _IMG_RE.match(image_url)
        if not m:
            return None
        hi, pi = int(m.group(1)), int(m.group(2))
        if hi >= self.cfg.num_hosts or pi >= self.cfg.pages_on(hi):
            return None
        return hi, pi, m.group(4)

    def image_bytes(self, image_url: str) -> bytes:
        loc = self._image_loc(image_url)
        if loc is None:
            raise KeyError(image_url)
        hi, pi, fmt = loc
        metas = self._img_meta_memo.get((hi, pi))
        if metas is None:
            metas = self._memo_metas(hi, pi, self.images_on(hi, pi))
        for meta in metas:
            if meta["image_url"] == image_url:
                pix = codec.synth_pixels(meta["image_id"], meta["w"], meta["h"])
                return codec.encode(pix, fmt)
        raise KeyError(image_url)

    def image_bytes_many(self, urls: list[str]) -> list[bytes | None]:
        """``image_bytes`` over a batch, None where it raises KeyError.
        One ``functions.seeding`` call seeds the title and imgs streams
        of every page whose metadata is not memoized, and the pixels of
        every image."""
        cfg = self.cfg
        locs = [self._image_loc(u) for u in urls]
        metas = {(loc[0], loc[1]): self._img_meta_memo.get((loc[0], loc[1]))
                 for loc in locs if loc is not None}
        todo = [page for page, m in metas.items() if m is None]
        if not cfg.max_images:
            metas.update((page, []) for page in todo)
            todo = []
        seeds = [_key_seed(cfg.seed, role, hi, pi)
                 for hi, pi in todo for role in ("title", "imgs")]
        seeds += [codec.pixel_seed(ids.doc_id(u))
                  for u, loc in zip(urls, locs) if loc is not None]
        states = iter(_batch_states(seeds))
        title_gen, gen = _generators(2)
        for hi, pi in todo:
            title = self._title_from(_at(title_gen, next(states)), hi, pi)
            metas[hi, pi] = self._memo_metas(
                hi, pi, self._metas_from(_at(gen, next(states)), hi, pi, title))
        out: list[bytes | None] = []
        for u, loc in zip(urls, locs):
            if loc is None:
                out.append(None)
                continue
            state = next(states)
            meta = next((m for m in metas[loc[0], loc[1]]
                         if m["image_url"] == u), None)
            if meta is None:
                out.append(None)
                continue
            pix = codec.synth_pixels(meta["image_id"], meta["w"], meta["h"],
                                     _at(gen, state))
            out.append(codec.encode(pix, loc[2]))
        return out

    def _memo_metas(self, hi: int, pi: int, metas: list[dict]) -> list[dict]:
        if len(self._img_meta_memo) > 4096:
            self._img_meta_memo.clear()
        self._img_meta_memo[hi, pi] = metas
        return metas

    def _title(self, hi: int, pi: int) -> str:
        return self._title_from(_rng_for(self.cfg.seed, "title", hi, pi), hi, pi)

    def _title_from(self, rng: np.random.Generator, hi: int, pi: int) -> str:
        extra = " ".join(_draw_words(rng, 3).tolist())
        return f"Host {hi} page {pi} — {extra}"

    def link_targets(self, hi: int, pi: int) -> dict:
        """Deterministic link plan for a page (same rng stream as html_for)."""
        return self._links_from(_rng_for(self.cfg.seed, "links", hi, pi), hi, pi)

    def _links_from(self, rng: np.random.Generator, hi: int, pi: int) -> dict:
        cfg = self.cfg
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
        seed = self.cfg.seed
        return self._render(hi, pi, _rng_for(seed, "title", hi, pi),
                            _rng_for(seed, "links", hi, pi),
                            _rng_for(seed, "html", hi, pi),
                            self._imgs_rng(hi, pi))

    def _render(self, hi: int, pi: int, title_rng: np.random.Generator,
                links_rng: np.random.Generator, html_rng: np.random.Generator,
                imgs_rng: np.random.Generator | None) -> str:
        """A page's html from its four rng streams, each at its start
        state: the one renderer of the scalar (``html_for``) and batch
        (``fetch_many``) paths. ``imgs_rng`` is read only when the page's
        image metadata is not memoized."""
        cfg = self.cfg
        title = self._title_from(title_rng, hi, pi)
        plan = self._links_from(links_rng, hi, pi)
        metas = self._img_meta_memo.get((hi, pi))
        if metas is None:
            metas = self._memo_metas(
                hi, pi, self._metas_from(imgs_rng, hi, pi, title))
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
            # ONE batched draw: it consumes the identical bit-stream as
            # P sequential rng.choice(_WORDS, W) calls (pinned by
            # test_html_bit_identical_to_sequential_words), and tolist()
            # joins python strs instead of numpy scalars
            words = _draw_words(html_rng,
                                (cfg.paragraphs, cfg.words_per_paragraph))
            parts.extend(f"<p>{' '.join(row)}</p>" for row in words.tolist())
        for meta in metas:
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

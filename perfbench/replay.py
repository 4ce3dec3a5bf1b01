"""Per-layer replay for the traced run.

After a traced crawl, each layer is run again in this process, on that
crawl's own inputs, in round order and at the crawl's batch sizes, and
timed from outside through its public functions:

* ``stages.fetch.CorpusFetcher`` (page synthesis, ``sources.corpus``),
  ``stages.extract.extract_batch`` (``functions.parse``),
  ``stages.images.ImageFetcher`` and ``ImageDecoder`` (``functions.codec``);
* ``sinks.table_store.write_part``, writing to a scratch directory;
* ``state.seen.SeenShard``, ``state.frontier.FrontierShard`` and
  ``state.politeness.PolitenessGate`` as plain objects.

A round's inputs are read back from the crawl's own store: its attempts
(the admitted URLs, in tick order) and its stamps sidecar (the links each
page queued). Nothing here changes what the crawl computed.
"""

from __future__ import annotations

import os
import shutil
import time
from contextlib import contextmanager

from stats import ratio


class _Clock:
    def __init__(self) -> None:
        self.busy: dict[str, float] = {}

    @contextmanager
    def __call__(self, key: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.busy[key] = self.busy.get(key, 0.0) + (
                time.perf_counter() - t0)


def _chunks(seq, n: int):
    for i in range(0, len(seq), n):
        yield seq[i:i + n]


def _image_refs(ok):
    """Page rows -> one row per embedded image, in discovery order (the
    same explode the crawl's fused task does before ImageFetcher)."""
    import pyarrow as pa

    urls, caps, ticks, idxs, pages = [], [], [], [], []
    for page, seq, iu, ic in zip(ok.column("url").to_pylist(),
                                 ok.column("discovered_seq").to_pylist(),
                                 ok.column("img_urls").to_pylist(),
                                 ok.column("img_captions").to_pylist()):
        for k, (u, c) in enumerate(zip(iu, ic)):
            urls.append(u)
            caps.append(c)
            ticks.append(seq)
            idxs.append(k)
            pages.append(page)
    return pa.table({
        "image_url": pa.array(urls, pa.string()),
        "caption": pa.array(caps, pa.string()),
        "tick": pa.array(ticks, pa.int64()),
        "img_idx": pa.array(idxs, pa.int32()),
        "page_url": pa.array(pages, pa.string()),
    })


def replay(cfg, run, scratch: str) -> None:
    """Replay every layer of the crawl ``cfg`` wrote; fills ``run.layer``."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from owlcrawler_ray.functions import ids
    from owlcrawler_ray.sinks import table_store
    from owlcrawler_ray.sources.corpus import SyntheticWeb
    from owlcrawler_ray.stages.extract import extract_batch
    from owlcrawler_ray.stages.fetch import CorpusFetcher
    from owlcrawler_ray.stages.images import ImageDecoder, ImageFetcher
    from owlcrawler_ray.state.frontier import FrontierShard, entries_table
    from owlcrawler_ray.state.politeness import PolitenessGate
    from owlcrawler_ray.state.seen import SeenShard

    shutil.rmtree(scratch, ignore_errors=True)
    parts_dir = os.path.join(scratch, "parts")
    os.makedirs(parts_dir)
    web = SyntheticWeb(cfg.web)
    clock = _Clock()
    n = {"pages": 0, "html": 0, "kept": 0, "img_rows": 0,
         "img_bytes": 0, "lookups": 0, "hits": 0, "robots": 0, "denied": 0}

    def robots_fetcher(host: str) -> str:
        n["robots"] += 1
        status, body = web.fetch(f"http://{host}/robots.txt")
        return body.decode("utf-8", errors="replace") if status == 200 else ""

    fetcher = CorpusFetcher(cfg.web)
    img_fetcher = ImageFetcher(cfg.web)
    decoder = ImageDecoder()
    gate = PolitenessGate(
        cfg.politeness, robots_fetcher=robots_fetcher if cfg.fetch_robots
        else None)
    seen = SeenShard(
        0, 1 << 16, cfg.exact_seen, cfg.use_cuckoo,
        os.path.join(scratch, "seen_spill") if cfg.seen_spill else None,
        cfg.seen_max_mem_urls)
    frontier = FrontierShard(0)

    def push(urls: list[str], seq0: int) -> int:
        with clock("politeness.allowed"):
            allowed = [gate.allowed(u) for u in urls]
        n["denied"] += allowed.count(False)
        hosts = ids.host_of_many(urls)
        with clock("frontier.push"):
            frontier.push_table(entries_table(
                urls, hosts, [0] * len(urls), [0.0] * len(urls),
                list(range(seq0, seq0 + len(urls)))))
        return seq0 + len(urls)

    next_seq = push(web.seeds(), 0)
    for r in table_store.list_rounds(cfg.out_dir, "attempts"):
        att = table_store.read_all_arrow_round(cfg.out_dir, "attempts", r)
        att = att.sort_by("tick")
        with clock("frontier.peek"):
            peeked = frontier.peek(att.num_rows)
        with clock("frontier.remove"):
            frontier.remove_seqs(peeked.column("discovered_seq").to_pylist())
        distinct = list(dict.fromkeys(att.column("url").to_pylist()))
        seq_of = dict(zip(peeked.column("url").to_pylist(),
                          peeked.column("discovered_seq").to_pylist()))
        successes, cands = [], []
        for chunk in _chunks(distinct, cfg.fetch_batch_size):
            batch = pa.table({
                "url": pa.array(chunk, pa.string()),
                "discovered_seq": pa.array(
                    [seq_of.get(u, -1) for u in chunk], pa.int64()),
            })
            with clock("fetch.busy"):
                fetched = fetcher(batch)
            with clock("extract.busy"):
                ext = extract_batch(fetched)
            ok = ext.filter(pc.equal(ext.column("status"), 200))
            n["pages"] += ok.num_rows
            n["html"] += sum(len(h) for h in ok.column("html").to_pylist())
            successes.extend(ok.column("url").to_pylist())
            cands.extend(u for c in ok.column("fetch_candidates").to_pylist()
                         for u in c)
            if not ok.num_rows:
                continue
            raw = ok.drop_columns(["fetch_candidates", "img_urls",
                                   "img_captions"])
            with clock("table_store.write"):
                table_store.write_part(parts_dir, raw, key=f"p{r}-{chunk[0]}")
            if not cfg.write_images:
                continue
            refs = _image_refs(ok)
            for k in range(0, refs.num_rows, cfg.image_batch_size):
                part = refs.slice(k, cfg.image_batch_size)
                with clock("images.fetch_busy"):
                    got = img_fetcher(part)
                with clock("images.decode_busy"):
                    rows = decoder(got)
                n["img_rows"] += rows.num_rows
                n["img_bytes"] += sum(
                    len(b) for b in rows.column("bytes").to_pylist())
                if rows.num_rows:
                    with clock("table_store.write"):
                        table_store.write_part(parts_dir, rows,
                                               key=f"i{r}-{k}-{chunk[0]}")
        stamps = table_store.read_all_arrow_round(cfg.out_dir, "stamps", r)
        links = [u for ls in stamps.sort_by("tick").column(
            "links_to_queue").to_pylist() for u in ls]
        n["kept"] += len(links)
        with clock("seen.contains"):
            hits = seen.contains_many(cands)
        n["lookups"] += len(cands)
        n["hits"] += int(hits.sum())
        with clock("seen.add"):
            seen.add_many(successes)
        next_seq = push(links, next_seq)

    L = run.layer
    for key, v in clock.busy.items():
        L[f"{key}_s"] = v
    L["fetch.pages"] = n["pages"]
    L["fetch.html_bytes"] = n["html"]
    L["extract.candidates"] = n["lookups"]
    L["links.kept_ratio"] = ratio(n["kept"], n["lookups"])
    L["images.rows"] = n["img_rows"]
    L["images.bytes"] = n["img_bytes"]
    L["table_store.bytes_written"] = sum(
        os.path.getsize(os.path.join(parts_dir, f))
        for f in os.listdir(parts_dir))
    L["seen.lookups"] = n["lookups"]
    L["seen.hit_ratio"] = ratio(n["hits"], n["lookups"])
    L["politeness.robots_fetches"] = n["robots"]
    L["politeness.robots_denied"] = n["denied"]
    shutil.rmtree(scratch, ignore_errors=True)

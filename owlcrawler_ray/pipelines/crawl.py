"""The crawl loop: distributed rounds over actor-held frontier + seen state.

Architecture (SURVEY.md §3.4) — replaces the reference's NATS queues +
CouchDB store + worker processes (fetcher.go / extractor.go) with state
actors, one per shard index: actor i hosts seen shard i (url hash) AND
frontier shard i (host hash) — max(ns, nf) processes, not ns + nf
(state/shard.py). One round, with each step's state-actor traffic:

  1. ADMIT from the next-round window the previous round left on the
     driver: no RPC in steady state. ``settle_admit`` (pipelines/
     settle.py, pure) is the one admission rule of both modes. No queued
     entry is ever in the seen set (dedup happens at commit, step 4, not
     at dequeue as in the reference, fetcher.go:94-103), so parity
     admission is the first K entries of the window in (priority, seq)
     order. Polite admission discards robots-disallowed entries and
     spends each host's tokens on its first queued entries, up to the
     max_ticks headroom; the gate keeps the buckets as data. Fallback
     to a peek alone: the first round after construction or resume, a
     polite re-peek after an empty admission, and any frontier push
     outside the loop (a generation counter drops the window). The
     admission's removes ride on step 4.
  2. ONE heavy distributed pass (Ray tasks over arrow slices): fused
     fetch + single-pass extract + image fetch/decode/phash, full page
     rows AND decoded image rows written to the round dirs from inside
     the tasks (content-keyed parts -> retry-idempotent), and back only
     the four columns the driver reads (url, depth, status, link
     candidates). Slices and slim tables cross packed, as does every
     table the crawl passes to or from its tasks and state actors: one
     Arrow IPC stream buffer each (state/wire.py), not Ray's per-buffer
     Python reducer for ``pa.Table``.
  3. ``settle_fetch`` (pipelines/settle.py, pure) assigns politeness
     ticks per ATTEMPT (reference: one 5s tick per actual GET,
     fetcher.go:96-99; dequeue-time seen check is free) and selects the
     successes in tick order; the driver writes the attempts table.
  4. COMMIT, one call per actor, in this order: ack the previous
     checkpoint, remove the round's admitted entries (and, polite, its
     robots-disallowed ones), probe the round's link candidates against
     the seen set (the advisory link filter: ONE batched probe per round
     vs the reference's per-link HTTP HEAD), insert the round's
     successes, drop every queued occurrence of them (the dedup: a url's
     queued copies all sit on its host's frontier shard). Probe, add,
     drop and push each take their share of a round's rows through one
     routing helper, ``shard_groups``.
  5. ``settle_links`` (pure) filters the candidates as of each page's
     extraction and numbers the new links in (tick, doc-order) = NATS
     publish order; the driver writes the stamps sidecar parquet
     (tick/fetch_seq/links_to_queue/fetched_on, url-keyed, merged back
     into pages_table()/images_table() at read time).
  6. ADVANCE, one call per actor, in this order: push the new links
     (none that is seen or was fetched this round), checkpoint when due
     (each actor owns its checkpoint files: it writes its frontier
     snapshot and seen delta into the round's tmp dir, links its
     committed seen chain forward, compacts it, and returns the names;
     the driver checks they are visible and records them in the manifest
     it commits after; a resume sends each actor the round dir and its
     chain, and the actor reads its files itself), and
     peek the first W entries by (priority, seq): the next round's
     window, the queue rule of state/frontier.py applied by the shard
     itself. In polite mode the peek takes at most ceil(burst) entries
     per host — no more than a host can spend in a round — so while a
     shard holds at most W / ceil(burst) hosts its window reaches every
     host with queued work, not just the few hosts with the longest runs
     at the queue head.

``_process_round`` is the executor of steps 2-6. It runs their effects
in this order, one named step each: (1) the heavy pass, then the pages
and images ``commit_round``; (2) the COMMIT calls sent under the
frontier lock; (3) the attempts write; (4) the COMMIT replies gathered;
(5) the stamps round begun, written and committed; (6) the images
round's row count; (7) the ADVANCE calls (push, checkpoint, peek) sent
under the lock, the frontier generation captured there, and their peeks
kept as the next window. ``run()`` then appends the round's metrics
and, after them, commits the checkpoint manifest and prunes old rounds.

Why raw Ray tasks for the heavy pass instead of Dataset.map_batches: the
pass is a driver-coordinated scatter-gather with a HARD BARRIER (tick
assignment needs every fetch status before stamping), so the streaming
executor's pipelining buys nothing while costing ~35 ms/task of driver
overhead (measured A/B; see _heavy_pass). Dataset map_batches remains
the shape for every query/analysis pipeline in pipelines/queries.py. A
real fetcher (``fetcher_factory``, e.g. HttpFetcher) runs inside the same
``num_cpus=1`` tasks, built once per configuration per worker process
(stages/fetch.cached_fetcher); its own thread pool (``max_parallel``)
overlaps a task's I/O-bound GETs.

Parity contract (tested against pipelines/oracle.run_oracle): identical
attempt log (url, tick, status), fetch order, final seen set, per-page
links/links_to_queue, image emission order — at any parallelism level and
any budget_per_round chunking.

Scale notes: per-round working set is bounded by the politeness budget
(budget_per_round ticks); html/image bytes go task -> round parquet and
never cross the object store or reach the driver; frontier/seen state
lives in the sharded state actors and costs two actor calls per actor
per steady-state round; driver-side bookkeeping per round is
O(admitted + new links) url strings, independent of total crawl size.
Scaling: throughput efficiency from N=2 to 4N=8 cpus read 0.819-0.918
in the round-5 runs on a 32-cpu host (SCALING_QUIET_r5_run*.json); it
has not been re-measured since the state actors were fused, the task
floor lowered and admission moved to the driver-side window (ROADMAP
item 12).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..functions import ids
from ..sinks import table_store
from ..sinks.checkpoint import CheckpointManager
from ..sources.corpus import SyntheticWeb, WebConfig
from ..stages.extract import extract_batch
from ..stages.fetch import CorpusFetcher, cached_fetcher
from ..stages.images import ImageDecoder, ImageFetcher
from ..state.frontier import entries_table, queue_sorted
from ..state.politeness import PolitenessConfig, PolitenessGate
from ..state.shard import StateShard
from ..state.wire import pack, unpack
from .settle import (
    first_occurrences, settle_admit, settle_fetch, settle_links,
)


@dataclass
class CrawlConfig:
    web: WebConfig = field(default_factory=WebConfig)
    mode: str = "parity"  # "parity" (reference budget) | "polite" (per-host)
    budget_per_round: int = 64  # politeness ticks admitted per round
    num_seen_shards: int = 4
    num_frontier_shards: int = 4
    fetch_concurrency: int = 4
    fetch_batch_size: int = 32
    # never read by the crawl (the fused task decodes a slice's images
    # in one batch); kept only because perfbench passes image_concurrency
    # and its replay reads image_batch_size (ROADMAP item 15)
    image_concurrency: int = 2
    image_batch_size: int = 64
    tick_seconds: int = 5
    max_rounds: int = 100000
    max_ticks: int | None = None
    out_dir: str = "/tmp/owlcrawl/out"
    ckpt_dir: str = "/tmp/owlcrawl/ckpt"
    # retired: accept only True (the seen set is always exact) and are
    # not part of fingerprint()
    exact_seen: bool = True
    use_cuckoo: bool = True
    # 10^10-scale path: spill each shard's exact set to sorted parquet runs
    # (vectorized run membership); parity is unchanged (tested)
    seen_spill: bool = False
    seen_max_mem_urls: int = 1 << 20
    politeness: PolitenessConfig = field(default_factory=PolitenessConfig)
    checkpoint_every: int = 1
    # checkpoint retention: keep only the newest N committed rounds (each
    # is a FULL frontier+seen snapshot — O(rounds x |seen|) disk without a
    # bound). Execution knob (not in fingerprint); 0 = keep all.
    ckpt_keep: int = 8
    write_images: bool = True
    # retired: accepts only False (the crawl keeps no in-memory attempt
    # or fetch log; read attempts_table()/pages_table()) and is not part
    # of fingerprint()
    keep_logs: bool = False
    # polite-mode robots: fetch /robots.txt through the page fetcher on
    # first contact with a host, parse + cache in the gate (St6). The
    # reference has no robots handling, so parity mode leaves this off.
    fetch_robots: bool = False
    # optional zero-arg factory returning a Fetcher (e.g.
    # functools.partial(HttpFetcher, rewrite_base=...)) — None = the
    # deterministic corpus fetcher. Built INSIDE each task's worker (a live
    # fetcher holds sockets/threads and must never be pickled). With a
    # real fetcher the factory DOES define page content (it is the
    # source), so its identity enters fingerprint() below; None adds no
    # fetcher entry.
    fetcher_factory: object | None = None

    def __post_init__(self):
        if not (self.exact_seen and self.use_cuckoo):
            raise ValueError(
                "exact_seen and use_cuckoo are retired and accept only "
                "True: the seen set is always exact"
            )
        if self.keep_logs:
            raise ValueError(
                "keep_logs is retired and accepts only False: read "
                "attempts_table() and pages_table() instead"
            )

    def fingerprint(self) -> str:
        """Semantic identity of a crawl — fields that must match for a
        checkpoint to be resumable. Execution knobs (budget_per_round,
        concurrency, batch sizes, max_ticks/rounds) may change freely across
        a resume: parity is chunking-invariant by construction."""
        d = {
            "web": asdict(self.web),
            "mode": self.mode,
            "tick_seconds": self.tick_seconds,
            "num_seen_shards": self.num_seen_shards,
            "num_frontier_shards": self.num_frontier_shards,
            "politeness": asdict(self.politeness),
            "out_dir": self.out_dir,
            "write_images": self.write_images,
            "fetch_robots": self.fetch_robots,
        }
        if self.fetcher_factory is not None:
            # a non-default fetcher is the page SOURCE: resuming a
            # real-web checkpoint with a different transport would
            # silently append pages from another origin into the same
            # tables — tokenize the factory so the resume guard fires
            f = self.fetcher_factory
            fn = getattr(f, "func", f)
            # qualname, not repr: a repr'd function/lambda embeds a
            # memory address and would break every resume
            name = (getattr(fn, "__module__", "")
                    + "." + getattr(fn, "__qualname__", type(fn).__name__))
            d["fetcher"] = (
                name
                + repr(tuple(getattr(f, "args", ())))
                + repr(sorted(getattr(f, "keywords", {}).items()))
            )
        return hashlib.blake2b(
            json.dumps(d, sort_keys=True, default=str).encode(), digest_size=8
        ).hexdigest()


# the heavy pass's return columns: the ones settle_fetch reads
_SLIM = ["url", "depth", "status", "fetch_candidates"]


def _page_fetcher(factory, web_cfg):
    """The process's page fetcher: ``factory``'s, or the corpus fetcher
    of ``web_cfg``, built once per configuration per process."""
    return cached_fetcher(factory if factory is not None
                          else partial(CorpusFetcher, web_cfg))


def _robots_fetcher(cfg: CrawlConfig) -> Callable[[str], str]:
    """The politeness gate's robots.txt source: one GET per host through
    the crawl's own page fetcher, so a real-web crawl asks the real
    server. A non-200 answer reads as an empty robots.txt (allow all)."""
    fetch = _page_fetcher(cfg.fetcher_factory, cfg.web)

    def robots(host: str) -> str:
        got = fetch(pa.table({"url": [f"http://{host}/robots.txt"]}))
        if got.column("status")[0].as_py() != 200:
            return ""
        return got.column("html")[0].as_py().decode("utf-8", errors="replace")

    return robots


def _fetch_extract(buf: pa.Buffer, web_cfg, raw_tmp, imgs_tmp,
                   fetcher_factory=None) -> pa.Buffer:
    """The round's ONE heavy distributed pass: fetch + single-pass extract
    + image fetch/decode/phash, with side-effect writes of the full page
    rows (html included) AND the decoded image rows into the round's tmp
    dirs (content-keyed part names -> task retries overwrite
    idempotently), and a SLIM return table of the four columns the driver
    reads (``_SLIM``) — heavy columns cross the object store exactly once
    and never reach the driver. The slice comes in and the slim table
    goes out packed (state/wire.py). Images carry (page_url,
    discovered_seq, img_idx); the tick is joined back from the stamps
    sidecar at read time (tick order within a round == admission seq
    order of the distinct urls, so ordering parity is preserved).

    Everything round-specific is an argument, so one module-level remote
    function (``_fetch_extract_task``) serves every round. The image
    stages are built per call: the decoder is a stateless kernel, and the
    image fetcher reads the process's ``shared_web`` — the web the corpus
    page fetcher renders from, so a page's image metadata is derived once
    per process, not once per stage. The page fetcher comes from the
    per-process ``cached_fetcher``: a real HttpFetcher holds sockets + a
    thread pool, cannot be pickled, and is worth building once per
    configuration per worker process, not per task."""
    batch = _page_fetcher(fetcher_factory, web_cfg)(unpack(buf))
    ext = extract_batch(batch)
    ok = ext.filter(pc.equal(ext.column("status"), 200))
    raw = ok.drop_columns(["fetch_candidates", "img_urls", "img_captions"])
    if raw.num_rows:
        seqs = raw.column("discovered_seq").to_pylist()
        table_store.write_part(
            raw_tmp, raw, key=f"{min(seqs)}-{max(seqs)}-{len(seqs)}"
        )
        if imgs_tmp is not None:
            # vectorized page->image explode (row-major flatten order
            # == the per-page discovery order): list_flatten +
            # list_parent_indices replace the old nested to_pylist
            # loop over the hot fused stage (the river.py:46 pattern)
            img_urls = ok.column("img_urls").combine_chunks()
            iu = pc.list_flatten(img_urls)
            if len(iu):
                parent = pc.list_parent_indices(img_urls)
                counts = pc.list_value_length(img_urls).to_numpy(
                    zero_copy_only=False
                ).astype(np.int64)
                starts = np.repeat(np.cumsum(counts) - counts, counts)
                ii = (np.arange(int(counts.sum()), dtype=np.int64)
                      - starts).astype(np.int32)
                refs = pa.table(
                    {
                        "image_url": iu.cast(pa.string()),
                        "caption": pc.list_flatten(
                            ok.column("img_captions").combine_chunks()
                        ).cast(pa.string()),
                        # stand-in key; tick joined at read
                        "tick": pc.take(
                            ok.column("discovered_seq"), parent
                        ).cast(pa.int64()).combine_chunks(),
                        "img_idx": pa.array(ii),
                        "page_url": pc.take(
                            ok.column("url"), parent
                        ).cast(pa.string()).combine_chunks(),
                    }
                )
                out = ImageDecoder()(ImageFetcher(web_cfg)(refs))
                out = out.rename_columns(
                    [c if c != "tick" else "discovered_seq"
                     for c in out.column_names]
                )
                if out.num_rows:
                    sq = out.column("discovered_seq").to_pylist()
                    table_store.write_part(
                        imgs_tmp, out,
                        key=f"i{min(sq)}-{max(sq)}-{out.num_rows}",
                    )
    return pack(ext.select(_SLIM))


# ONE remote function for every round of every crawl: Ray exports a remote
# function to the GCS function table once per job, and each worker keeps
# every function it has loaded for its lifetime — wrapping a fresh
# per-round closure instead grew both by one entry per round
_fetch_extract_task = ray.remote(num_cpus=1)(_fetch_extract)


# per-worker-process cache of round stamps sidecars: tasks of one round
# run consecutively on a worker, so each worker reads a round's (small,
# O(budget)-row) sidecar once; bounded so a view walk over many rounds
# cannot accumulate
_STAMPS_CACHE: dict[tuple, pa.Table] = {}


def _read_stamps(wname: str, paths: tuple[str, ...]) -> pa.Table:
    # cache key includes each part's (mtime, size): a resumed crawl
    # prunes and REWRITES round dirs at the same paths (the stamps part
    # name is keyed by round id alone), so a long-lived worker must not
    # serve the pre-resume sidecar for a rewritten path
    key = (wname, tuple(
        (p, st.st_mtime_ns, st.st_size)
        for p in paths for st in (os.stat(p),)
    ))
    t = _STAMPS_CACHE.get(key)
    if t is None:
        if len(_STAMPS_CACHE) >= 64:
            _STAMPS_CACHE.clear()
        t = pa.concat_tables(
            [table_store.WRITERS[wname].read(p) for p in paths],
            promote_options="default",
        )
        _STAMPS_CACHE[key] = t
    return t


def _join_stamps(wname: str, stamp_paths: tuple[str, ...], key: str,
                 cols: list[str] | None, batch: pa.Table) -> pa.Table:
    """Task-side join of one round's stamps sidecar into a batch of that
    round's output rows. The sidecar is bounded at O(successes) of ONE
    round by the politeness budget and is read INSIDE the task (per-worker
    cached) — the driver ships only its part paths, so building/consuming
    the view moves zero row data through the driver. Every output row is
    a committed success, so a missing stamp is a store-corruption signal
    and hard-fails rather than mis-stamping."""
    if batch.num_rows == 0:
        return batch
    stamps = _read_stamps(wname, stamp_paths)
    pos = pc.index_in(
        batch.column(key).combine_chunks(),
        value_set=stamps.column("url").combine_chunks(),
    )
    if pos.null_count:
        raise ValueError(
            f"crawl output row with no stamps entry (key={key}); the "
            "stamps sidecar and the round data disagree"
        )
    taken = stamps.take(pos)
    out = batch
    for name in (cols if cols is not None
                 else [c for c in stamps.column_names if c != "url"]):
        if name in out.column_names:
            out = out.drop_columns([name])
        out = out.append_column(name, taken.column(name))
    return out


def _round_blocks(n: int, conc: int) -> int:
    """Heavy-pass task count for a round of ``n`` distinct pages at
    ``conc`` parallel tasks: ~128 pages per task, at least one task per
    CPU, at most 256 tasks and never more tasks than pages. Coarse blocks
    leave straggler tails at the round barrier and too-fine blocks choke
    the driver-side scheduler (both measured). The floor is ``conc``, not
    more: a trivial ``num_cpus=1`` task with a packed 30-row argument,
    submitted two at a time as a small round does, costs 4.2-7.9 ms of
    CPU across driver, raylet and worker (an actor call with the same
    argument 2.3-3.1 ms; 1-vCPU VM, 2 Ray CPUs), while a ~30-page task
    of a small polite round holds only ~15 ms of page work."""
    return max(1, min(n, 256, max(conc, math.ceil(n / 128))))


def _slice_tables(tbl: pa.Table, n_blocks: int) -> list[pa.Table]:
    """Even driver-side split -> one heavy-pass task per slice."""
    n = tbl.num_rows
    n_blocks = max(1, min(n_blocks, n)) if n else 1
    step = math.ceil(n / n_blocks) if n else 1
    return [tbl.slice(i, step) for i in range(0, n, step)] or [tbl]


@dataclass
class _Window:
    """The next admission's input: per-shard peeks (the previous round's
    ``advance`` calls, or the fallback's ``frontier_peek`` calls) and
    their entries merged into dequeue order. Valid only for the frontier
    generation and window size it was built for."""
    gen: int
    w: int
    peeks: list[pa.Table]
    ent: pa.Table = field(init=False)

    def __post_init__(self) -> None:
        self.ent = queue_sorted(pa.concat_tables(self.peeks))


def shard_groups(shards: np.ndarray, n: int) -> list[np.ndarray]:
    """The positions routed to each of ``n`` actors, ascending, from one
    shard id per position: the one routing of the crawl's per-shard
    traffic (probe, add, drop, push), each a take of its group."""
    return [np.flatnonzero(shards == i) for i in range(n)]


class _Laps:
    """A round's phase timer: ``lap(key)`` books the time since the last
    lap under ``key`` (a key may recur: its laps add up)."""

    def __init__(self) -> None:
        # every round reports a checkpoint time, 0 when none was due
        self.t = {"checkpoint": 0.0}
        self._t0 = time.perf_counter()

    def __call__(self, key: str) -> None:
        now = time.perf_counter()
        self.t[key] = self.t.get(key, 0.0) + now - self._t0
        self._t0 = now


# the crawl's state actors (module level, like _fetch_extract_task: one
# actor class exported per job, not one per Crawler)
_STATE_ACTOR = ray.remote(num_cpus=0)(StateShard)


# the output tables written once per crawl round (windex = the river's
# per-round index deltas, river.py); "sites" rounds are per submission
_ROUND_TABLES = ("pages", "images", "stamps", "attempts", "windex")


class Crawler:
    def __init__(self, cfg: CrawlConfig, resume: bool = False):
        if cfg.mode == "polite" and (
            cfg.politeness.rate_per_s <= 0 or cfg.politeness.burst < 1
        ):
            # such buckets can NEVER yield a whole token (settle_admit
            # floors the tokens), so run()'s empty-admission branch would
            # advance the virtual clock forever — refuse up front rather
            # than livelock
            raise ValueError(
                "polite mode needs rate_per_s > 0 and burst >= 1 "
                f"(got rate_per_s={cfg.politeness.rate_per_s}, "
                f"burst={cfg.politeness.burst}); these buckets can never "
                "grant a token and the crawl loop would spin forever"
            )
        self.cfg = cfg
        self.web = SyntheticWeb(cfg.web)
        self.ckpt = CheckpointManager(cfg.ckpt_dir)
        spill = (
            os.path.join(cfg.ckpt_dir, "seen_spill") if cfg.seen_spill else None
        )
        if not (resume and self.ckpt.latest_round() is not None):
            # FRESH crawl (or resume that will find no checkpoint) over
            # reused dirs: it starts over, so nothing of an earlier crawl
            # may survive into it
            self._clear_earlier_crawl(spill)
        # seen shard i and frontier shard i share actor i: one process
        # per shard index, not one per role (state/shard.py)
        ns, nf = cfg.num_seen_shards, cfg.num_frontier_shards
        self.state = [
            _STATE_ACTOR.remote(i, i < ns, i < nf, spill_dir=spill,
                                max_mem_urls=cfg.seen_max_mem_urls)
            for i in range(max(ns, nf))
        ]
        self.gate = PolitenessGate(
            cfg.politeness,
            robots_fetcher=_robots_fetcher(cfg) if cfg.fetch_robots else None,
        )
        self.next_seq = 0
        self.tick = 0
        self.fetch_seq = 0
        self.round_id = 0
        self.metrics: dict = {"rounds": []}
        self._add_sites_lock = threading.Lock()
        # add_sites' view of the sites table, read on its first call and
        # kept up to date as it writes: the stored doc ids, and the next
        # (submitted_seq, sites round id)
        self._site_ids: set[str] | None = None
        self._site_next = (0, 0)
        # state-actor work the loop defers to the next commit call: the
        # ack of the last committed checkpoint (its round dir) and, per
        # frontier shard, the seqs an admission consumed
        self._ack_pending: str | None = None
        self._removes: dict[int, list[int]] = {}
        # the next admission's window, and the frontier generation that
        # guards it: every push outside the loop (seeds, add_sites, from
        # any thread) bumps the generation under the lock, so a window
        # built around such a push is dropped rather than served stale
        self._window: _Window | None = None
        self._frontier_gen = 0
        self._frontier_lock = threading.Lock()
        self._admit_path = "peek"
        restored = False
        if resume:
            try:
                restored = self._restore()
            except BaseException:
                self.shutdown()  # a refused checkpoint leaves no actors
                raise
        if not restored:
            # an earlier crawl's spill runs were already cleared
            # driver-side above (before the shard actors could load
            # them), so the shards start empty here by construction
            self._seed()
        # checkpoint lineage: (first, last, count) of the committed pages
        # and images rounds — scanned once here, then kept up to date as
        # the loop commits rounds (round ids only grow)
        self._lineage = {}
        for name in ("pages", "images"):
            r = table_store.list_rounds(cfg.out_dir, name)
            self._lineage[name] = (
                {"first": r[0], "last": r[-1], "count": len(r)} if r
                else {"first": None, "last": None, "count": 0}
            )

    def _clear_earlier_crawl(self, spill: str | None) -> None:
        """Delete what an earlier crawl left in the dirs a fresh crawl is
        about to use:
          * its checkpoint rounds — retention counts committed round ids,
            so ``prune_old`` would keep the earlier crawl's newest rounds
            and delete the rounds this crawl commits, and a later resume
            would restore the earlier crawl;
          * its output-table rounds (every table the crawl writes, the
            ``sites`` docs included) — the views read every committed
            round, so a shorter fresh crawl would report the earlier
            crawl's rows beyond its own;
          * its seen-spill runs — ``SeenShard.__init__`` loads every
            ``seen_run_*`` file it finds (right for a mid-crawl actor
            restart), which would resurrect the earlier seen set and
            suppress fetches. They go DRIVER-SIDE, before the shard
            actors exist: loading a 10^10-URL seen set into every shard
            only to discard it is O(that set) of wasted startup work."""
        self.ckpt.clear()
        for name in _ROUND_TABLES + ("sites",):
            table_store.prune_rounds_after(self.cfg.out_dir, name, -1)
        if spill and os.path.isdir(spill):
            for fn in os.listdir(spill):
                if fn.startswith("seen_run_"):
                    os.remove(os.path.join(spill, fn))

    # ------------------------------------------------------------------
    def _seed(self) -> None:
        seeds = self.web.seeds()
        # seed docs are stored with a `site-` prefix id and a {"site": url}
        # body (couchdb.go:147-151; webapp saveSubmittedURL main.go:157-164
        # marshals couchdb.NewSite) — the `sites` view lists exactly these
        # docs (couchdb.go:104-106). Persisted as the crawl's `sites` table
        # (round 0, idempotent under restart). The `site-` prefix means the
        # seed doc does NOT mark the url itself as seen — nothing to add to
        # the seen set here; just enqueue in submission order.
        table_store.write_round(
            pa.table(
                {
                    "doc_id": pa.array(
                        [ids.seed_doc_id(u) for u in seeds], pa.string()
                    ),
                    "site": pa.array(seeds, pa.string()),
                    "submitted_seq": pa.array(
                        np.arange(len(seeds), dtype=np.int64)
                    ),
                }
            ),
            self.cfg.out_dir, "sites", 0,
        )
        self._push_frontier(seeds, [0] * len(seeds), [0.0] * len(seeds))

    def add_sites(self, urls: list[str]) -> int:
        """Serialized entry for runtime seed injection: the webapp can
        serve /add-site from ThreadingHTTPServer threads, so concurrent
        calls would race the sites-round id (same rid computed twice ->
        one submission overwritten) and the next_seq read-modify-write.
        The between-rounds contract of the impl below still applies for
        calls racing an executing round."""
        with self._add_sites_lock:
            return self._add_sites_impl(urls)

    def _add_sites_impl(self, urls: list[str]) -> int:
        """Runtime seed injection — the reference webapp's submit-a-site
        path (webapp/main.go:143-196: persist couchdb.NewSite, publish the
        URL to ``fetch_url`` mid-stream). Callable between rounds on a
        live crawler, or right after a resumed construction, to GROW the
        crawl without restarting it.

        Semantics mirrored exactly:
          * the ``site-`` doc is persisted idempotently — a doc id already
            in the sites table is skipped (the CouchDB 409 first-writer
            analog, couchdb.go:147-151) and NOT re-enqueued;
          * new URLs join the frontier TAIL with fresh discovered_seqs —
            ordering parity: an injected seed behaves exactly like a link
            discovered at the current tick (FIFO position), which is what
            the reference's NATS publish does;
          * persistence and enqueue are two steps, like the reference's
            store-then-publish: a kill between checkpoint windows keeps
            the site doc (it stays in the sites view) but may lose the
            enqueue — the same at-most-once publish the reference has.

        Returns the number of sites actually injected."""
        if self._site_ids is None:
            t = self.sites_table()
            self._site_ids = (set(t.column("doc_id").to_pylist())
                              if t.num_rows else set())
            rounds = table_store.list_rounds(self.cfg.out_dir, "sites")
            self._site_next = (t.num_rows, rounds[-1] + 1 if rounds else 0)
        fresh = {}  # doc id -> url, first submission order
        for u in urls:
            d = ids.seed_doc_id(u)
            if d not in self._site_ids:
                fresh.setdefault(d, u)
        if not fresh:
            return 0
        base, rid = self._site_next
        table_store.write_round(
            pa.table(
                {
                    "doc_id": pa.array(list(fresh), pa.string()),
                    "site": pa.array(list(fresh.values()), pa.string()),
                    "submitted_seq": pa.array(
                        np.arange(base, base + len(fresh), dtype=np.int64)
                    ),
                }
            ),
            self.cfg.out_dir, "sites", rid,
        )
        self._site_ids.update(fresh)
        self._site_next = (base + len(fresh), rid + 1)
        urls = list(fresh.values())
        self._push_frontier(urls, [0] * len(urls), [0.0] * len(urls))
        return len(urls)

    def _push_frontier(self, urls, depths, prios) -> None:
        """A push from outside the crawl loop (seeds, add_sites), which
        may run on another thread than the loop: takes the next seqs,
        pushes only the urls the seen set does not hold, and bumps the
        frontier generation, which drops any next-round window. All of it
        happens under the frontier lock, like the loop's seq allocation,
        commit and advance: a commit sent first inserts its successes
        before the probe reads them, and one sent after drops them from
        the queue after the push; an advance sent first peeks a window
        the new generation drops, and one sent after peeks the push."""
        if not len(urls):
            return
        with self._frontier_lock:
            urls = pa.array(urls, pa.string())
            ent = entries_table(urls, ids.host_of_many(urls), depths, prios,
                                np.arange(self.next_seq,
                                          self.next_seq + len(urls)))
            self.next_seq += len(urls)
            ent = ent.filter(pa.array(~self._seen_mask_np(urls)))
            if not ent.num_rows:
                return
            self._frontier_gen += 1
            futs = [self.state[s].frontier_push.remote(pack(t))
                    for s, t in enumerate(self._route_entries(ent))
                    if t is not None]
        ray.get(futs)

    def _frontier_groups(self, hosts: pa.Array) -> list[np.ndarray]:
        """``shard_groups`` of ``hosts`` by frontier shard: a url's
        entries all sit on the frontier shard of its host."""
        return shard_groups(
            ids.shard_of_repeated(hosts, self.cfg.num_frontier_shards),
            len(self.state))

    def _route_entries(self, ent: pa.Table) -> list[pa.Table | None]:
        """Frontier entries split by actor (None = none there)."""
        return [ent.take(g) if len(g) else None for g in
                self._frontier_groups(ent.column("host").combine_chunks())]

    def _seen_split(self, urls: pa.Array
                    ) -> tuple[list, Callable[[list], np.ndarray]]:
        """The distinct ``urls`` split by seen shard: (per actor, its
        probe or add list, None where empty; a function that maps the
        per-actor seen masks back to one flag per occurrence of
        ``urls``). The blake2b shard hash is the one per-string python
        cost kept: it must stay stable across processes and checkpoints
        (ids.py)."""
        uniq = pc.unique(urls)
        groups = shard_groups(
            ids.shard_of(uniq.to_pylist(), self.cfg.num_seen_shards),
            len(self.state))

        def gather(masks: list) -> np.ndarray:
            seen = np.zeros(len(uniq), dtype=bool)
            for g, m in zip(groups, masks):
                if len(g):
                    seen[g] = m
            return seen[pc.index_in(urls, value_set=uniq)
                        .to_numpy(zero_copy_only=False)]

        return [uniq.take(g).to_pylist() or None for g in groups], gather

    def _seen_mask_np(self, urls: pa.Array) -> np.ndarray:
        """Seen-set membership, one flag per occurrence of ``urls``: one
        batched ``seen_contains`` call per seen shard that holds any."""
        probe, gather = self._seen_split(urls)
        got = iter(ray.get([self.state[i].seen_contains.remote(p)
                            for i, p in enumerate(probe) if p]))
        return gather([next(got) if p else None for p in probe])

    # ------------------------------------------------------------------
    def _flush(self, ack: bool = True) -> None:
        """Send the state-actor work the loop deferred to its next commit
        call (pending admission removes; with ``ack``, the last
        checkpoint's ack) now, for paths that read or snapshot the state
        outside the round: a fallback peek, sizes, a standalone
        checkpoint."""
        ack = self._ack_pending if ack else None
        ns = self.cfg.num_seen_shards
        futs = [
            a.commit.remote(ack, self._removes.get(i), None, None, None)
            for i, a in enumerate(self.state)
            if self._removes.get(i) or (ack and i < ns)
        ]
        self._removes = {}
        if ack:
            self._ack_pending = None
        ray.get(futs)

    def _defer_removes(self, peeks: list[pa.Table], consumed) -> None:
        """Queue the seqs an admission consumed (``consumed``: an Arrow
        array of seqs) for the round's commit call, per frontier shard."""
        for s, t in enumerate(peeks):
            seqs = t.column("discovered_seq")
            mine = seqs.filter(pc.is_in(seqs, value_set=consumed))
            if len(mine):
                self._removes.setdefault(s, []).extend(mine.to_pylist())

    def _take_window(self, w: int) -> _Window | None:
        """The window the previous round built for this admission, if it
        is still exact: same frontier generation, same window size."""
        win, self._window = self._window, None
        if win is None or win.gen != self._frontier_gen or win.w != w:
            return None
        return win

    def _per_host(self) -> int:
        """Per-host cap of a polite window: a host never spends more than
        ``burst`` tokens in a round (0 in parity mode: no cap)."""
        return (math.ceil(self.cfg.politeness.burst)
                if self.cfg.mode == "polite" else 0)

    def _admission_window(self, w: int) -> _Window:
        """The window the previous round left, or the fallback: peek every
        frontier shard (one call per actor)."""
        win = self._take_window(w)
        self._admit_path = "window" if win is not None else "peek"
        if win is None:
            self._flush(ack=False)
            peeks = [unpack(b) for b in ray.get([
                self.state[s].frontier_peek.remote(w, self._per_host())
                for s in range(self.cfg.num_frontier_shards)])]
            win = _Window(self._frontier_gen, w, peeks)
        return win

    def _window_size(self) -> int:
        """Entries the next admission reads (<= 0: none). Parity admits
        the first K = min(budget, max_ticks headroom); a polite window
        holds max(budget, 64), and its buckets cap what it admits."""
        cfg = self.cfg
        if cfg.mode == "polite":
            return max(cfg.budget_per_round, 64)
        if cfg.max_ticks is None:
            return cfg.budget_per_round
        return min(cfg.budget_per_round, cfg.max_ticks - self.tick)

    def _admit(self) -> pa.Table:
        """Step 1, both modes: ``settle_admit`` over the window. Parity
        admits its first K entries, the reference's dequeue loop
        (fetcher.go:94-103) in batch form; its seen check discards nothing
        here, since no queued entry is seen, and each shard's first K
        hold the global first K. Polite mode adds each entry's robots
        verdict (per row: the URL parse is semantic) and the window
        hosts' buckets at the virtual now, caps at the max_ticks headroom
        and keeps the new buckets in the gate. The window holds each
        host's first ceil(burst) queued entries, so with at most
        W / ceil(burst) hosts per shard every host with queued work and a
        token is admitted. The consumed seqs ride on the round's commit.
        Returns an ENTRY_SCHEMA table in admit order."""
        cfg = self.cfg
        w = self._window_size()
        if w <= 0:
            return entries_table([], [], [], [], [])
        win = self._admission_window(w)
        ent = win.ent
        if cfg.mode == "parity":
            admitted, consumed, _ = settle_admit(ent, w)
        else:
            cap = None if cfg.max_ticks is None else cfg.max_ticks - self.tick
            allowed = [self.gate.allowed(u)
                       for u in ent.column("url").to_pylist()]
            admitted, consumed, buckets = settle_admit(
                ent, cap, np.array(allowed, dtype=bool),
                self.gate.bucket_table(pc.unique(ent.column("host"))),
                float(self.tick * cfg.tick_seconds),
                cfg.politeness.rate_per_s, cfg.politeness.burst)
            self.gate.set_buckets(buckets)
        self._defer_removes(win.peeks, consumed)
        return admitted

    # ------------------------------------------------------------------
    def _process_round(self, admitted: pa.Table,
                       lap: _Laps) -> tuple[dict, tuple | None]:
        """Run one admitted round (module docstring, steps 2-6): its
        effects, one named step each, around ``settle_fetch`` and
        ``settle_links``, each step timed by ``lap``. Returns the round's
        metrics and, when a checkpoint was due, (tmp dir, per-actor
        checkpoint outputs) for _commit_checkpoint — the caller records
        the metrics first, since the manifest carries them."""
        cfg, rid = self.cfg, self.round_id
        # 1. the heavy pass, then the pages/images rounds its tasks wrote
        slim = self._heavy_pass(admitted)
        lap("fetch_extract")
        attempts, succ, self.tick, self.fetch_seq = settle_fetch(
            admitted, slim, self.tick, self.fetch_seq, cfg.tick_seconds)
        lap("tick_walk")
        # 2. COMMIT sent, one call per actor, before the attempts write so
        # the actors work while the driver writes: probe the link
        # candidates, add the successes, drop their queued copies
        urls = succ.column("url").combine_chunks()
        probe, cand_seen = self._seen_split(
            pc.list_flatten(succ.column("fetch_candidates").combine_chunks()))
        add, _ = self._seen_split(urls)
        drop = [urls.take(g).to_pylist() or None for g in
                self._frontier_groups(succ.column("host").combine_chunks())]
        with self._frontier_lock:
            commits = [
                a.commit.remote(self._ack_pending, self._removes.get(i),
                                probe[i], add[i], drop[i])
                for i, a in enumerate(self.state)
            ]
        self._ack_pending, self._removes = None, {}
        lap("seen_commit")
        # 3. the attempts write
        table_store.write_round(attempts, cfg.out_dir, "attempts", rid)
        lap("attempts_write")
        # 4. COMMIT replies: the candidates' seen masks
        masks = ray.get(commits)
        lap("seen_commit")
        with self._frontier_lock:  # add_sites takes seqs too
            seq0 = self.next_seq
            stamps, new, self.next_seq = settle_links(
                succ, cand_seen(masks), seq0, cfg.tick_seconds)
        # 5. the stamps sidecar (joined back into the views on read)
        tmp = table_store.begin_round(cfg.out_dir, "stamps", rid)
        table_store.write_part(tmp, stamps, key=f"r{rid}")
        table_store.commit_round(cfg.out_dir, "stamps", rid)
        lap("stamps")
        # 6. rows the committed images round holds (part metadata, no row
        # data read): fetch misses and undecodable payloads are not rows
        n_images = (table_store.round_num_rows(cfg.out_dir, "images", rid)
                    if cfg.write_images else 0)
        lap("images")
        pushes = self._route_entries(new)
        lap("links_push")
        # 7. ADVANCE, one call per actor: push, checkpoint when due, then
        # peek the next window. Sent under the lock with the generation
        # it is valid for: a push from outside the loop either lands
        # before it (inside the peek) or bumps the generation after it
        w_next = max(0, self._window_size())
        ckpt = (self.ckpt.begin(rid)
                if rid % cfg.checkpoint_every == 0 else None)
        with self._frontier_lock:
            gen = self._frontier_gen
            advances = [
                a.advance.remote(pack(pushes[i]),
                                 (ckpt, rid) if ckpt else None,
                                 w_next, self._per_host())
                for i, a in enumerate(self.state)
            ]
        outs, peeks = zip(*ray.get(advances))
        if w_next:
            self._window = _Window(gen, w_next, [
                unpack(p) for p in peeks[:cfg.num_frontier_shards]])
        lap("checkpoint" if ckpt else "links_push")
        m = {
            "round": rid,
            "admitted": admitted.num_rows,
            "attempts": attempts.num_rows,
            "successes": succ.num_rows,
            "images": int(n_images),
            "new_links": self.next_seq - seq0,
            "timings": {k: round(v, 3) for k, v in lap.t.items()},
        }
        return m, ((ckpt, outs) if ckpt else None)

    def _heavy_pass(self, admitted: pa.Table) -> pa.Table:
        """Step 1: the fused fetch/extract/image tasks over the round's
        distinct urls (first-occurrence order), then the commit of the
        pages and images rounds they wrote. Returns the slim table.

        Plain Ray tasks over Arrow slices, not a Dataset: the pass is a
        scatter-gather with a hard barrier (the tick walk needs every
        status), where the streaming executor buys nothing and costs ~35
        ms/task of driver overhead (measured A/B: 4.4 s vs 3.1 s per 4800
        pages at 16 cpus)."""
        cfg, rid = self.cfg, self.round_id
        tbl = admitted.take(
            first_occurrences(admitted.column("url").combine_chunks()))
        n = tbl.num_rows
        conc = max(1, min(cfg.fetch_concurrency,
                          math.ceil(n / cfg.fetch_batch_size)))
        raw_tmp = table_store.begin_round(cfg.out_dir, "pages", rid)
        imgs_tmp = (table_store.begin_round(cfg.out_dir, "images", rid)
                    if cfg.write_images else None)
        slim = pa.concat_tables([unpack(b) for b in ray.get([
            _fetch_extract_task.remote(pack(s), cfg.web, raw_tmp, imgs_tmp,
                                       cfg.fetcher_factory)
            for s in _slice_tables(tbl, _round_blocks(n, conc))
        ])])
        for name in ("pages", "images") if cfg.write_images else ("pages",):
            table_store.commit_round(cfg.out_dir, name, rid)
            self._note_round(name)
        return slim

    # ------------------------------------------------------------------
    def _note_round(self, name: str) -> None:
        """Count round ``self.round_id`` of output table ``name`` into the
        checkpoint lineage (a re-written id inside the span is not new)."""
        lin = self._lineage[name]
        if lin["last"] is None or self.round_id > lin["last"]:
            if lin["first"] is None:
                lin["first"] = self.round_id
            lin["last"] = self.round_id
            lin["count"] += 1

    def _checkpoint(self) -> None:
        """A checkpoint outside the round loop's advance call (after the
        loop ends): flush what the loop deferred, then one checkpoint call
        per state actor."""
        self._flush()
        tmp = self.ckpt.begin(self.round_id)
        outs = ray.get([a.checkpoint.remote(tmp, self.round_id)
                        for a in self.state])
        self._commit_checkpoint(tmp, outs)

    def _commit_checkpoint(self, tmp: str, outs: list) -> None:
        """Incremental checkpoint, driver side: the state actors own the
        files. Each wrote its frontier snapshot (O(queued) — the live
        working set) into the tmp dir, and each seen shard linked its
        committed chain forward and added ONLY the urls it gained since
        the last acked checkpoint (SeenShard.ckpt_write). The driver
        records the names they return in the manifest and commits it;
        the commit is what lets the shards promote their chains and drop
        their pending buffers (the ack, sent with the next call).
        Per-round cost is O(progress), not O(|seen|), and no checkpoint
        bytes transit the driver."""
        chains = {str(i): chain for i, (_, chain) in enumerate(outs)
                  if chain is not None}
        files = ([fr for fr, _ in outs if fr]
                 + [n for chain in chains.values() for n in chain])
        # actor-written files must be visible driver-side BEFORE the
        # manifest commits — the checkpoint root must be on storage
        # shared by the driver and every state actor (single node / NFS /
        # object-store mount); a mis-deployed non-shared root fails
        # loudly here instead of committing a manifest that names
        # unreachable files
        for name in files:
            if not os.path.exists(os.path.join(tmp, name)):
                raise RuntimeError(
                    f"a state actor wrote checkpoint file {name!r} that is "
                    f"not visible at {tmp!r} — the checkpoint dir must be "
                    "on storage shared between the driver and the state "
                    "actors"
                )
        manifest = {
            "counters": {
                "next_seq": self.next_seq,
                "tick": self.tick,
                "fetch_seq": self.fetch_seq,
                "round_id": self.round_id,
            },
            "config_fingerprint": self.cfg.fingerprint(),
            "metrics": self.metrics["rounds"][-1] if self.metrics["rounds"] else {},
            "lineage": {
                "pages_rounds": dict(self._lineage["pages"]),
                "images_rounds": dict(self._lineage["images"]),
            },
            "politeness": self.gate.state(),
            "seen_chain": chains,
        }
        # the seen shards promote their chains and drop their pending
        # buffers with the next call they get (commit's first step); until
        # then a crash only re-sends the same urls, which restore()'s
        # add_many absorbs
        self._ack_pending = self.ckpt.commit(self.round_id, manifest)
        pruned = self.ckpt.prune_old(self.cfg.ckpt_keep)
        if pruned:
            # bounded history: a lifetime total plus the most recent ids —
            # an unbounded id list would grow O(rounds) on the driver,
            # exactly the class of growth the retention policy bounds
            self.metrics["ckpt_pruned_total"] = (
                self.metrics.get("ckpt_pruned_total", 0) + len(pruned)
            )
            hist = self.metrics.setdefault("ckpt_pruned", [])
            hist.extend(pruned)
            del hist[:-1024]

    def _restore(self) -> bool:
        latest = self.ckpt.latest_round()
        if latest is None:
            return False
        manifest = self.ckpt.read_manifest(latest)
        if manifest["config_fingerprint"] != self.cfg.fingerprint():
            raise ValueError(
                "checkpoint was produced by a different crawl config; "
                "refusing to resume (delete the checkpoint dir to start "
                "fresh)"
            )
        # each actor reads its own files (state/shard.py); the checkpoint
        # format holds no seen url in the queue, so the restored frontier
        # keeps the loop's invariant as it stands
        d = self.ckpt.round_dir(latest)
        ray.get([a.restore.remote(d, manifest["seen_chain"].get(str(i)))
                 for i, a in enumerate(self.state)])
        c = manifest["counters"]
        self.next_seq = c["next_seq"]
        self.tick = c["tick"]
        self.fetch_seq = c["fetch_seq"]
        self.round_id = c["round_id"] + 1
        self.gate.restore(manifest["politeness"])
        # discard output rounds NEWER than the restored checkpoint: a kill
        # inside the checkpoint_every window leaves committed round dirs the
        # resumed run will re-produce — possibly with DIFFERENT round
        # boundaries (budget_per_round may change across a resume), so the
        # stale dirs must go or commit_round would keep them and drop the
        # recomputed data (resume re-production promise, checkpoint.py).
        # (stale windex deltas go with the stale pages rounds they indexed)
        for name in _ROUND_TABLES:
            pruned = table_store.prune_rounds_after(
                self.cfg.out_dir, name, c["round_id"]
            )
            if pruned:
                self.metrics.setdefault("pruned_on_resume", {})[name] = pruned
        return True

    # ------------------------------------------------------------------
    def run(self) -> dict:
        cfg = self.cfg
        while self.round_id < cfg.max_rounds:
            if cfg.max_ticks is not None and self.tick >= cfg.max_ticks:
                break
            lap = _Laps()
            admitted = self._admit()
            lap("admit")
            if not admitted.num_rows:
                # _sizes() first sends this admission's discards
                if cfg.mode == "polite" and self._sizes()[0]:
                    # buckets empty but frontier not: advance virtual time
                    self.tick += 1
                    continue
                break
            m, ckpt = self._process_round(admitted, lap)
            # "window" (no RPC) or "peek" (the fallback)
            m["admit_path"] = self._admit_path
            # append BEFORE the manifest commits: it snapshots
            # metrics["rounds"][-1], which must be THIS round's entry,
            # not the previous round's (the manifest's own time is
            # stamped after — a checkpoint can't time itself)
            self.metrics["rounds"].append(m)
            if ckpt is not None:
                self._commit_checkpoint(*ckpt)
                lap("checkpoint")
                m["timings"]["checkpoint"] = round(lap.t["checkpoint"], 3)
            self.round_id += 1
        self._checkpoint()
        return self.summary()

    def _sizes(self) -> tuple[int, int]:
        """(queued frontier entries, seen urls) summed over the shards."""
        self._flush(ack=False)
        fs, ss = zip(*ray.get([a.sizes.remote() for a in self.state]))
        return sum(fs), sum(ss)

    def summary(self) -> dict:
        frontier_left, seen = self._sizes()
        return {
            "rounds": len(self.metrics["rounds"]),
            "ticks": self.tick,
            "fetched": self.fetch_seq,
            "frontier_left": frontier_left,
            "seen": seen,
        }

    # output views ------------------------------------------------------
    def _stamped_dataset(self, name: str, key: str,
                         stamp_cols: list[str] | None) -> "rd.Dataset":
        """Streaming view of a crawl output table with its stamps sidecar
        joined back in TASK-SIDE: each round's stamps table is bounded by
        budget_per_round (O(successes) url-keyed rows — never the whole
        crawl) and is read inside the map tasks (per-worker cached; only
        its part PATHS ship from the driver), looked up via pc.index_in.
        No shuffle, no driver row traffic at all; the union across rounds
        stays lazy, so at 10^10 URLs this view streams block-by-block
        while the old driver-Table form would have pulled every
        html/image byte through the driver heap. Rounds union as a
        BALANCED tree — a crawl is O(total/budget) rounds and a left-deep
        chain would build an O(rounds)-deep plan."""
        parts = []
        for r in table_store.list_rounds(self.cfg.out_dir, name):
            if not table_store.round_complete(self.cfg.out_dir, "stamps", r):
                # pages/images commit several steps before the stamps
                # sidecar: a concurrent reader (webapp thread) landing in
                # that window sees a data round whose stamps aren't
                # committed yet — skip it (consistent snapshot) rather
                # than crash the join on a missing sidecar
                continue
            ds = table_store.round_dataset(self.cfg.out_dir, name, r)
            if ds is None:
                continue  # round committed with zero successes
            wname, spaths = table_store.round_part_paths(
                self.cfg.out_dir, "stamps", r
            )
            parts.append(
                ds.map_batches(
                    partial(_join_stamps, wname, tuple(spaths), key,
                            stamp_cols),
                    batch_format="pyarrow", zero_copy_batch=True,
                )
            )
        if not parts:
            return rd.from_arrow(pa.table({}))
        while len(parts) > 1:  # balanced union tree
            parts = [
                parts[i].union(parts[i + 1]) if i + 1 < len(parts)
                else parts[i]
                for i in range(0, len(parts), 2)
            ]
        return parts[0]

    def pages_dataset(self) -> "rd.Dataset":
        """Pages as a lazy streaming Dataset with the stamps sidecar merged
        back in (url-keyed): the reference's full CouchDoc shape incl.
        links_to_queue/parsed_on. This is the scale surface — consume with
        map_batches/write_parquet; use pages_table() only on bounded
        corpora (tests/parity)."""
        return self._stamped_dataset("pages", "url", None)

    def images_dataset(self) -> "rd.Dataset":
        """Decoded image rows as a lazy streaming Dataset with the
        politeness tick joined back from the stamps sidecar (images are
        written in the same pass as pages, before ticks exist; within a
        round tick order == admission seq order, so (tick, img_idx)
        ordering parity is exact)."""
        return self._stamped_dataset("images", "page_url", ["tick"])

    def pages_table(self) -> pa.Table:
        """Driver-side materialization of pages_dataset() — parity/test
        use over bounded corpora only."""
        return table_store.collect(self.pages_dataset())

    def images_table(self) -> pa.Table:
        """Driver-side materialization of images_dataset() — parity/test
        use over bounded corpora only."""
        return table_store.collect(self.images_dataset())

    def attempts_table(self) -> pa.Table:
        return table_store.read_all_arrow(self.cfg.out_dir, "attempts")

    def sites_table(self) -> pa.Table:
        """The stored `site-` seed docs (the reference's sites view input)."""
        return table_store.read_all_arrow(self.cfg.out_dir, "sites")

    def shutdown(self) -> None:
        for a in self.state:
            ray.kill(a)


def _warm(buf: pa.Buffer, hold_s: float) -> int:
    batch = unpack(buf)
    # an IPC read builds no array: build one, so the worker pays
    # pyarrow's pandas import (its first pa.array) here and not in the
    # first heavy pass
    pa.array(batch.column("url").to_pylist())
    time.sleep(hold_s)
    return os.getpid()


# the warm-up task has the heavy pass's shape: a module-level num_cpus=1
# function of this module taking a packed table, so running it imports
# what the first _fetch_extract_task would
_warm_task = ray.remote(num_cpus=1)(_warm)
_WARM_HOLD_S = 1.5
_WARM_TRIES = 5


def warmup_workers(n: int) -> None:
    """Warm ``n`` task workers (at most the cluster's CPUs) before any
    timed work, so the first crawl's heavy pass starts no worker process.

    Each warm worker has imported this module (and with it the fused
    task's stages), unpacked a small packed table (state/wire.py) as the
    heavy pass does, and built a ``pa.array``, which pays pyarrow's
    pandas import. Plain ``num_cpus=1`` tasks do the warming: each holds
    its worker for ``_WARM_HOLD_S`` so the tasks of one try land on
    distinct workers, and tries repeat until ``n`` distinct worker pids
    have run one, raising after ``_WARM_TRIES``. Ray Data's actors are not warmed:
    started here, its stats and autoscaling actors would take prestarted
    workers and leave the first crawl a cold one, so they start at the
    first Dataset use instead."""
    n = min(n, int(ray.cluster_resources().get("CPU", 0)))
    if n <= 0:
        return
    batch = pack(entries_table(["http://warmup.invalid/"],
                               ["warmup.invalid"], [0], [0.0], [0]))
    pids: set[int] = set()
    for _ in range(_WARM_TRIES):
        pids.update(ray.get([_warm_task.remote(batch, _WARM_HOLD_S)
                             for _ in range(n)]))
        if len(pids) >= n:
            return
    raise RuntimeError(
        f"warmup_workers: {len(pids)} of {n} workers warm after "
        f"{_WARM_TRIES} tries")


def run_crawl(cfg: CrawlConfig, resume: bool = False) -> tuple[Crawler, dict]:
    c = Crawler(cfg, resume=resume)
    summary = c.run()
    return c, summary

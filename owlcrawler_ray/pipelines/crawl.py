"""The crawl loop: distributed rounds over actor-held frontier + seen state.

Architecture (SURVEY.md §3.4) — replaces the reference's NATS queues +
CouchDB store + worker processes (fetcher.go / extractor.go) with state
actors, one per shard index: actor i hosts seen shard i (url hash) AND
frontier shard i (host hash) — max(ns, nf) processes, not ns + nf
(state/shard.py). One round, with each step's state-actor traffic:

  1. ADMIT from the next-round window the previous round left on the
     driver: no RPC in steady state. No queued entry is ever in the seen
     set (dedup happens at commit, step 4, not at dequeue as in the
     reference, fetcher.go:94-103), so parity admission is the first K
     entries of the window in (priority, seq) order, and polite
     admission spends each host's tokens on its first queued entries.
     Fallback to a peek alone: the first round after construction or
     resume, a polite re-peek after an empty admission, and any frontier
     push outside the loop (a generation counter drops the window). The
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
  3. the driver assigns politeness ticks per ATTEMPT (reference: one 5s
     tick per actual GET, fetcher.go:96-99; dequeue-time seen check is
     free) and writes the attempts table.
  4. COMMIT, one call per actor, in this order: ack the previous
     checkpoint, remove the round's admitted entries (and, polite, its
     robots-disallowed ones), probe the round's link candidates against
     the seen set (the advisory link filter: ONE batched probe per round
     vs the reference's per-link HTTP HEAD), insert the round's
     successes, drop every queued occurrence of them (the dedup: a url's
     queued copies all sit on its host's frontier shard), peek the next
     window.
  5. stamps sidecar parquet (tick/fetch_seq/links_to_queue/fetched_on,
     url-keyed, merged back into pages_table()/images_table() at read
     time); new links seq-numbered in (tick, doc-order) = NATS publish
     order.
  6. ADVANCE, one call per actor, in this order: push the new links
     (none that is seen or was fetched this round), checkpoint when due
     (each actor writes its frontier snapshot and seen delta into the
     round's tmp dir and returns the file names; the driver checks they
     are visible and commits the manifest with the counters after).
     The driver builds the next window exactly: per frontier shard, the
     first W by (priority, seq) of the step-4 peek plus that shard's new
     links, which equals a peek(W) taken after the push. In polite mode
     both peek and window take at most ceil(burst) entries per host — no
     more than a host can spend in a round — so while a shard holds at
     most W / ceil(burst) hosts its window reaches every host with queued
     work, not just the few hosts with the longest runs at the queue
     head.

Why raw Ray tasks for the heavy pass instead of Dataset.map_batches: the
pass is a driver-coordinated scatter-gather with a HARD BARRIER (tick
assignment needs every fetch status before stamping), so the streaming
executor's pipelining buys nothing while costing ~35 ms/task of driver
overhead (measured A/B; see _process_round). Dataset map_batches remains
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
from ..state.frontier import entries_table
from ..state.politeness import PolitenessConfig, PolitenessGate
from ..state.shard import StateShard
from ..state.wire import pack, unpack

EPOCH_US = 1420070400000000  # 2015-01-01T00:00:00 (virtual-clock origin)


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
    # polite-mode robots: fetch /robots.txt from the (corpus) web on first
    # contact with a host, parse + cache in the gate (St6). The reference
    # has no robots handling, so parity mode leaves this off.
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


# the heavy pass's return columns: the ones _process_round reads
_SLIM = ["url", "depth", "status", "fetch_candidates"]


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
    f = cached_fetcher(
        fetcher_factory if fetcher_factory is not None
        else partial(CorpusFetcher, web_cfg))
    batch = f(unpack(buf))
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


def _collect_arrow(ds) -> pa.Table:
    """Materialize a small Dataset to one driver Arrow table. map_groups/
    map_batches can emit SCHEMA-LESS empty blocks; concat would fail on
    them, so row-free blocks are dropped first."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


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


_QUEUE_ORDER = [("priority", "ascending"), ("discovered_seq", "ascending")]


def _queue_sorted(t: pa.Table) -> pa.Table:
    """Frontier entries in dequeue order, (priority, seq) — a total
    order, seqs are unique."""
    return t.take(pc.sort_indices(t, sort_keys=_QUEUE_ORDER))


def _cap_per_host(t: pa.Table, per_host: int) -> pa.Table:
    """The entries of a dequeue-ordered table whose host has fewer than
    ``per_host`` entries before them (0: all)."""
    if not per_host or t.num_rows <= per_host:
        return t
    taken: dict[str, int] = {}
    keep = []
    for h in t.column("host").to_pylist():
        n = taken.get(h, 0)
        taken[h] = n + 1
        keep.append(n < per_host)
    return t.filter(pa.array(keep))


def next_window(peek: pa.Table, new: pa.Table | None, w: int,
                per_host: int = 0) -> pa.Table:
    """A frontier shard's ``peek(w, per_host)`` after ``new`` is pushed,
    from the ``peek(w, per_host)`` taken before the push. An entry the
    pre-push peek left out is either past its host's cap (and so it stays
    past it) or has w capped entries ahead of it; a new entry can only
    replace an old one of its host by sorting ahead of it. So the first
    ``w`` capped entries of (peek ∪ new) are exact."""
    if new is None or not new.num_rows:
        return peek
    return _cap_per_host(_queue_sorted(pa.concat_tables([peek, new])),
                         per_host).slice(0, w)


@dataclass
class _Window:
    """The next admission's input, built at the end of the previous
    round: per-shard peeks and their entries merged into dequeue order.
    Valid only for the frontier generation and window size it was built
    for."""
    gen: int
    w: int
    peeks: list[pa.Table]
    ent: pa.Table


# the crawl's state actors (module level, like _fetch_extract_task: one
# actor class exported per job, not one per Crawler)
_STATE_ACTOR = ray.remote(num_cpus=0)(StateShard)


# the output tables written once per crawl round (windex = the river's
# per-round index deltas, river.py); "sites" rounds are per submission
_ROUND_TABLES = ("pages", "images", "stamps", "attempts", "windex")


# seen-checkpoint chain compaction threshold: a shard whose delta chain
# reaches this many files rewrites it as one full snapshot on the next
# checkpoint (LSM compaction — bounds restore reads and link fan-out)
_CKPT_CHAIN_MAX = 64


class Crawler:
    def __init__(self, cfg: CrawlConfig, resume: bool = False):
        if cfg.mode == "polite" and (
            cfg.politeness.rate_per_s <= 0 or cfg.politeness.burst < 1
        ):
            # such buckets can NEVER yield a whole token (take() floors
            # with int(tokens)), so run()'s empty-admission branch would
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
        # incremental seen-checkpoint chain: per-shard file lists of the
        # last committed round ({} until the first commit or restore)
        self._seen_chain: dict[str, list[str]] = {}
        self._last_ckpt_round: int = -1
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
        web_for_robots = self.web

        def _robots_fetcher(host: str) -> str:
            status, body = web_for_robots.fetch(f"http://{host}/robots.txt")
            return body.decode("utf-8", errors="replace") if status == 200 else ""

        self.gate = PolitenessGate(
            cfg.politeness,
            robots_fetcher=_robots_fetcher if cfg.fetch_robots else None,
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
        # ack of the last committed checkpoint and, per frontier shard,
        # the seqs an admission consumed
        self._ack_pending = False
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

    def _route_entries(self, urls, depths, prios,
                       seqs) -> list[pa.Table | None]:
        """Frontier entries split by frontier shard (None = none there)."""
        hosts = ids.host_of_many(urls)
        shard = ids.shard_of_repeated(hosts, self.cfg.num_frontier_shards)
        # build ONE Arrow table, route shards with take — the old
        # per-shard python list comprehensions were 4 x O(links) of
        # driver work per round (SCALING.md mega-round links_push)
        t_all = entries_table(urls, hosts, depths, prios, seqs)
        out: list[pa.Table | None] = []
        for s in range(self.cfg.num_frontier_shards):
            idx = np.where(shard == s)[0]
            out.append(t_all.take(pa.array(idx, type=pa.int64()))
                       if len(idx) else None)
        return out

    def _push_frontier(self, urls, depths, prios) -> None:
        """A push from outside the crawl loop (seeds, add_sites), which
        may run on another thread than the loop: takes the next seqs,
        pushes only the urls the seen set does not hold, and bumps the
        frontier generation, which drops any next-round window. All of it
        happens under the frontier lock, like the loop's seq allocation
        and commit: a commit sent first inserts its successes before the
        probe reads them, and one sent after drops them from the queue
        after the push."""
        if not len(urls):
            return
        with self._frontier_lock:
            seqs = list(range(self.next_seq, self.next_seq + len(urls)))
            self.next_seq += len(urls)
            keep = np.flatnonzero(
                ~self._seen_mask_np(pa.array(urls, pa.string())))
            if not len(keep):
                return
            tables = self._route_entries(
                *([v[i] for i in keep] for v in (urls, depths, prios, seqs)))
            self._frontier_gen += 1
            futs = [self.state[s].frontier_push.remote(pack(t))
                    for s, t in enumerate(tables) if t is not None]
        ray.get(futs)

    def _route_seen(self, url_arr: pa.Array) -> tuple[list, tuple]:
        """Dedup an Arrow string array and split the uniques by seen
        shard: (per-shard probe lists, None where empty; the routing that
        _gather_seen maps the per-shard masks back through). The blake2b
        shard hash is the one per-string python cost kept — it must stay
        stable across processes and checkpoints (ids.py)."""
        uniq_arr = pc.unique(url_arr)
        uniq = uniq_arr.to_pylist()
        shards = ids.shard_of(uniq, self.cfg.num_seen_shards)
        idxs = [np.where(shards == sh)[0]
                for sh in range(self.cfg.num_seen_shards)]
        lists = [[uniq[i] for i in idx] if len(idx) else None
                 for idx in idxs]
        return lists, (url_arr, uniq_arr, idxs)

    @staticmethod
    def _gather_seen(route: tuple, masks: list) -> np.ndarray:
        """Per-occurrence seen mask from per-shard probe masks."""
        url_arr, uniq_arr, idxs = route
        seen_u = np.zeros(len(uniq_arr), dtype=bool)
        for idx, mask in zip(idxs, masks):
            if len(idx):
                seen_u[idx] = np.asarray(mask, dtype=bool)
        pos = pc.index_in(url_arr, value_set=uniq_arr)
        return seen_u[pos.to_numpy(zero_copy_only=False)]

    def _seen_mask_np(self, url_arr: pa.Array) -> np.ndarray:
        """Vectorized seen-set membership for an Arrow string array:
        dedup -> batched per-shard RPC -> index_in map-back, one output
        per occurrence."""
        if not len(url_arr):
            return np.zeros(0, dtype=bool)
        lists, route = self._route_seen(url_arr)
        futs = [self.state[sh].seen_contains.remote(l)
                for sh, l in enumerate(lists) if l]
        got = iter(ray.get(futs))
        return self._gather_seen(
            route, [next(got) if l else None for l in lists])

    # ------------------------------------------------------------------
    def _flush(self, ack: bool = True) -> None:
        """Send the state-actor work the loop deferred to its next commit
        call (pending admission removes; with ``ack``, the last
        checkpoint's ack) now, for paths that read or snapshot the state
        outside the round: a fallback peek, sizes, a standalone
        checkpoint."""
        ack = ack and self._ack_pending
        ns = self.cfg.num_seen_shards
        futs = [
            a.commit.remote(ack, self._removes.get(i), None, None, None, 0)
            for i, a in enumerate(self.state)
            if self._removes.get(i) or (ack and i < ns)
        ]
        self._removes = {}
        if ack:
            self._ack_pending = False
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
            win = _Window(self._frontier_gen, w, peeks,
                          _queue_sorted(pa.concat_tables(peeks)))
        return win

    def _parity_k(self) -> int:
        """Parity admission budget of the next round (<= 0: none)."""
        K = self.cfg.budget_per_round
        if self.cfg.max_ticks is not None:
            K = min(K, self.cfg.max_ticks - self.tick)
        return K

    def _polite_w(self) -> int:
        return max(self.cfg.budget_per_round, 64)

    def _admit_parity(self) -> pa.Table:
        """The first K queued entries in global (priority, seq) order —
        the reference's dequeue loop (fetcher.go:94-103) in batch form.
        Its seen check discards nothing here: no queued entry is seen.
        Each shard's first K hold the global first K. Returns an
        ENTRY_SCHEMA table in admit order."""
        K = self._parity_k()
        if K <= 0:
            return entries_table([], [], [], [], [])
        win = self._admission_window(K)
        ent = win.ent.slice(0, K)
        self._defer_removes(win.peeks,
                            ent.column("discovered_seq").combine_chunks())
        return ent

    def _admit_polite(self) -> pa.Table:
        """Scale-mode admission: per-host token buckets cap each host's
        share of a round; hosts starve independently, not each other.
        The window holds each host's first ceil(burst) queued entries, so
        with at most W / ceil(burst) hosts per shard every host with
        queued work and a token is admitted. The robots
        gate + token-bucket walk stays per-entry python (the gate's URL
        parse is semantic, and the scan is bounded by the window); only
        the return shape is Arrow."""
        now = float(self.tick * self.cfg.tick_seconds)
        win = self._admission_window(self._polite_w())
        ent = win.ent
        entries = zip(
            ent.column("priority").to_pylist(),
            ent.column("discovered_seq").to_pylist(),
            ent.column("url").to_pylist(),
            ent.column("host").to_pylist(),
            ent.column("depth").to_pylist(),
        )
        by_host: dict[str, list] = {}
        discard = []
        for e in entries:
            if not self.gate.allowed(e[2]):
                discard.append(e[1])  # robots-disallowed: drop permanently
                continue
            by_host.setdefault(e[3], []).append(e)
        admitted = []
        for host, es in sorted(by_host.items()):
            budget = self.gate.admit_budget(host, len(es), now)
            for prio, seq, url, h, depth in es[:budget]:
                admitted.append((prio, seq, url, h, depth))
        admitted.sort(key=lambda a: (a[0], a[1]))
        if self.cfg.max_ticks is not None:
            cap = max(0, self.cfg.max_ticks - self.tick)
            # the truncated entries stay queued in the frontier (the
            # removes below cover the kept slice only), so REFUND their
            # already-debited host tokens — same virtual instant, exact
            # inverse of the take — or those hosts would be permanently
            # undercounted on a resume with a raised max_ticks
            for _, _, _, h, _ in admitted[cap:]:
                self.gate.refund(h, 1)
            admitted = admitted[:cap]
        self._defer_removes(win.peeks, pa.array(
            discard + [a[1] for a in admitted], pa.int64()))
        return entries_table(
            [a[2] for a in admitted],
            [a[3] for a in admitted],
            [a[4] for a in admitted],
            [a[0] for a in admitted],
            [a[1] for a in admitted],
        )

    # ------------------------------------------------------------------
    def _process_round(self, admitted: pa.Table) -> tuple[dict, tuple | None]:
        """Run one admitted round: the heavy pass, tick walk, COMMIT,
        stamps, ADVANCE (module docstring, steps 2-6). Returns the round's
        metrics and, when a checkpoint was due, (tmp dir, per-actor
        checkpoint outputs) for _commit_checkpoint — the caller records
        the metrics first, since the manifest carries them."""
        cfg = self.cfg
        ns, nf = cfg.num_seen_shards, cfg.num_frontier_shards
        tmr: dict[str, float] = {}
        _t0 = time.perf_counter()
        # distinct urls, first-occurrence order (dup occurrences resolve at
        # tick assignment: first success discards later dups tick-free,
        # failures retry per occurrence — exactly the dequeue semantics).
        # pc.unique preserves order of first appearance, so index_in of
        # the uniques against the full column IS the firsts selection.
        adm_urls = admitted.column("url").combine_chunks()
        uniq_urls = pc.unique(adm_urls)
        first_idx = pc.index_in(uniq_urls, value_set=adm_urls)
        tbl = admitted.take(first_idx)
        n = tbl.num_rows
        conc = max(1, min(cfg.fetch_concurrency, math.ceil(n / cfg.fetch_batch_size)))
        n_blocks = _round_blocks(n, conc)
        raw_tmp = table_store.begin_round(cfg.out_dir, "pages", self.round_id)
        imgs_tmp = (
            table_store.begin_round(cfg.out_dir, "images", self.round_id)
            if cfg.write_images else None
        )
        # The round pass is a driver-coordinated scatter-gather with a
        # hard barrier (politeness-tick assignment needs every status):
        # plain Ray tasks over the arrow slices. The Dataset streaming
        # executor buys nothing at a barrier and costs ~35 ms/task of
        # driver-side overhead (measured A/B: 4.4 s vs 3.1 s per 4800
        # pages at 16 cpus) — the Dataset API remains the idiom for the
        # streaming/query pipelines, not for this exchange.
        slim = pa.concat_tables([unpack(b) for b in ray.get([
            _fetch_extract_task.remote(
                pack(s), cfg.web, raw_tmp, imgs_tmp, cfg.fetcher_factory)
            for s in _slice_tables(tbl, n_blocks)
        ])])
        table_store.commit_round(cfg.out_dir, "pages", self.round_id)
        self._note_round("pages")
        if imgs_tmp is not None:
            table_store.commit_round(cfg.out_dir, "images", self.round_id)
            self._note_round("images")
        tmr["fetch_extract"] = time.perf_counter() - _t0
        _t0 = time.perf_counter()
        # ---- politeness-tick assignment (driver, VECTORIZED) -----------
        # One tick per occurrence EXCEPT later occurrences of a url whose
        # fetch succeeded (the first success discards its dups tick-free;
        # failures retry per occurrence). A url's status is per-round
        # constant, so "an earlier occurrence already succeeded" is
        # exactly (status==200 AND not first occurrence).
        slim_urls = slim.column("url").combine_chunks()
        st_np = slim.column("status").to_numpy(zero_copy_only=False)
        occ_slim_pos = pc.index_in(adm_urls, value_set=slim_urls)
        if occ_slim_pos.null_count:  # fetch stage lost a url: fail loud
            raise RuntimeError("admitted url missing from fetch output")
        st_occ = st_np[occ_slim_pos.to_numpy(zero_copy_only=False)]
        is_first = np.zeros(admitted.num_rows, dtype=bool)
        is_first[first_idx.to_numpy(zero_copy_only=False)] = True
        keep = is_first | (st_occ != 200)
        ticks_all = self.tick + np.cumsum(keep)
        n_att = int(keep.sum())
        self.tick += n_att
        keep_arr = pa.array(keep)
        att_urls = adm_urls.filter(keep_arr)
        att_ticks = ticks_all[keep]
        att_status = st_occ[keep].astype(np.int32)
        succ_mask = att_status == 200
        n_s = int(succ_mask.sum())
        s_urls_arr = att_urls.filter(pa.array(succ_mask))
        t_np = att_ticks[succ_mask]
        fs_np = np.arange(self.fetch_seq, self.fetch_seq + n_s, dtype=np.int64)
        self.fetch_seq += n_s
        tmr["tick_walk"] = time.perf_counter() - _t0
        _t0 = time.perf_counter()
        # ---- COMMIT: one call per state actor, sent before the attempts
        # write so the actors work while the driver writes ---------------
        # slim rows for successes, in TICK order (successes filtered from
        # the admit-order walk above are already tick-ascending), so ONE
        # index_in + take replaces the old python membership mask + sort
        # — these driver loops were 2.7 s + 2.4 s of a 110k-tick
        # mega-round (SCALING.md)
        succ = slim.take(pc.index_in(s_urls_arr, value_set=slim_urls))
        cands = succ.column("fetch_candidates").combine_chunks()
        flat = pc.list_flatten(cands)
        parent = pc.list_parent_indices(cands).to_numpy(zero_copy_only=False)
        # the round's link candidates, probed against the seen set before
        # its successes are inserted (the replacement for the reference's
        # per-link HEAD check)
        probe, route = (self._route_seen(flat) if len(parent)
                        else ([None] * ns, None))
        add = self._route_seen(s_urls_arr)[0] if n_s else [None] * ns
        # the successes again, split by frontier shard: their queued
        # copies all sit on the shard of their host, which drops them
        succ_hosts = (
            admitted.column("host").combine_chunks()
            .filter(keep_arr).filter(pa.array(succ_mask))
        )
        drop: list[list[str] | None] = [None] * nf
        if n_s:
            fshard = ids.shard_of_repeated(succ_hosts, nf)
            s_urls_np = np.array(s_urls_arr.to_pylist(), dtype=object)
            drop = [s_urls_np[fshard == i].tolist() or None
                    for i in range(nf)]
        w_next = max(0, self._parity_k() if cfg.mode == "parity"
                     else self._polite_w())
        cap = self._per_host()
        with self._frontier_lock:
            gen = self._frontier_gen
            commits = [
                a.commit.remote(
                    self._ack_pending, self._removes.get(i),
                    probe[i] if i < ns else None,
                    add[i] if i < ns else None,
                    drop[i] if i < nf else None,
                    w_next if i < nf else 0, cap,
                )
                for i, a in enumerate(self.state)
            ]
        self._ack_pending, self._removes = False, {}
        tmr["seen_commit"] = time.perf_counter() - _t0
        _t0 = time.perf_counter()
        table_store.write_round(
            pa.table(
                {
                    "tick": pa.array(att_ticks),
                    "virtual_time_s": pa.array(att_ticks * cfg.tick_seconds),
                    "url": att_urls,
                    "status": pa.array(att_status),
                }
            ),
            cfg.out_dir, "attempts", self.round_id,
        )
        tmr["attempts_write"] = time.perf_counter() - _t0
        _t0 = time.perf_counter()
        got = [(m, unpack(p)) for m, p in ray.get(commits)]
        tmr["seen_commit"] += time.perf_counter() - _t0
        _t0 = time.perf_counter()
        # ---- advisory link filter + stamps (driver, VECTORIZED) ---------
        if len(parent):
            flat_seen = self._gather_seen(route, [m for m, _ in got[:ns]])
            # drop a candidate fetched EARLIER this round (tick <= the
            # linking page's tick); later-tick fetches stay queued —
            # exactly the old per-candidate dict condition
            sidx = pc.fill_null(
                pc.index_in(flat, value_set=s_urls_arr), -1
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            in_round = sidx >= 0
            cand_tick = np.where(in_round, t_np[np.maximum(sidx, 0)],
                                 np.int64(2**62))
            keep = ~(flat_seen | (in_round & (cand_tick <= t_np[parent])))
        else:
            keep = in_round = np.zeros(0, dtype=bool)
        kept_vals = flat.filter(pa.array(keep))
        kept_parent = parent[keep]
        offsets = np.zeros(n_s + 1, dtype=np.int32)
        if len(kept_parent):
            np.cumsum(np.bincount(kept_parent, minlength=n_s),
                      out=offsets[1:])
        links_list = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), kept_vals
        )
        # stamps sidecar (joined back into pages_dataset() on read)
        vt_us = pa.array(
            EPOCH_US + t_np * (cfg.tick_seconds * 1_000_000)
        ).cast(pa.timestamp("us"))
        stamps = pa.table(
            {
                "url": s_urls_arr,
                "tick": pa.array(t_np),
                "fetch_seq": pa.array(fs_np),
                "virtual_time_s": pa.array(t_np * cfg.tick_seconds),
                "links_to_queue": links_list,
                "fetched_on": vt_us,
                "parsed_on": vt_us,
            }
        )
        stamps_tmp = table_store.begin_round(cfg.out_dir, "stamps", self.round_id)
        table_store.write_part(stamps_tmp, stamps, key=f"r{self.round_id}")
        table_store.commit_round(cfg.out_dir, "stamps", self.round_id)
        tmr["stamps"] = time.perf_counter() - _t0
        _t0 = time.perf_counter()
        # rows the committed images round ACTUALLY holds (part-metadata
        # counts — no row data read): fetch misses and undecodable
        # payloads are excluded, so the metric agrees with the store it
        # describes instead of counting candidate img_urls
        n_images = table_store.round_num_rows(
            cfg.out_dir, "images", self.round_id
        ) if cfg.write_images else 0
        tmr["images"] = time.perf_counter() - _t0
        _t0 = time.perf_counter()
        # ---- frontier growth: seqs in (tick, doc-order) = publish order -
        # (kept-candidate flatten order == tick-major, per-page doc order;
        # the url column ships as the Arrow array it already is)
        n_new = len(kept_vals)
        new_depths = (
            succ.column("depth").to_numpy(zero_copy_only=False)
            .astype(np.int32)[kept_parent] + 1
        )
        with self._frontier_lock:  # add_sites takes seqs too
            new_seqs = np.arange(self.next_seq, self.next_seq + n_new,
                                 dtype=np.int64)
            self.next_seq += n_new
        # a kept link fetched later this round is in links_to_queue and
        # has its seq, but is seen now: it is not queued
        push = np.flatnonzero(~in_round[keep])
        pushes = (
            self._route_entries(
                kept_vals.take(pa.array(push)), new_depths[push],
                np.zeros(len(push), np.float32), new_seqs[push])
            if len(push) else [None] * nf
        )
        # ---- the next admission's window: per shard, the first w_next
        # of the pre-push peek plus the shard's new links (next_window)
        if w_next:
            wpeeks = [next_window(p, t, w_next, cap)
                      for (_, p), t in zip(got[:nf], pushes)]
            self._window = _Window(gen, w_next, wpeeks,
                                   _queue_sorted(pa.concat_tables(wpeeks)))
        tmr["links_push"] = time.perf_counter() - _t0
        _t0 = time.perf_counter()
        # ---- ADVANCE: one call per state actor --------------------------
        tmp = (self.ckpt.begin(self.round_id)
               if self.round_id % cfg.checkpoint_every == 0 else None)
        outs = ray.get([
            a.advance.remote(
                pack(pushes[i]) if i < nf else None,
                self._ckpt_args(tmp, i) if tmp else None,
            )
            for i, a in enumerate(self.state)
        ])
        tmr["checkpoint"] = 0.0
        tmr["checkpoint" if tmp else "links_push"] += (
            time.perf_counter() - _t0)
        vc = pc.value_counts(succ_hosts)
        per_host = dict(
            zip(vc.field("values").to_pylist(),
                (int(c) for c in vc.field("counts").to_pylist()))
        )
        m = {
            "round": self.round_id,
            "admitted": admitted.num_rows,
            "attempts": n_att,
            "successes": n_s,
            "images": int(n_images),
            "new_links": int(n_new),
            "per_host_fetches": per_host,
            "timings": {k: round(v, 3) for k, v in tmr.items()},
        }
        return m, ((tmp, outs) if tmp else None)

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

    def _ckpt_args(self, tmp: str, i: int) -> tuple:
        """StateShard.checkpoint arguments for actor ``i``. LSM-style
        compaction: past _CKPT_CHAIN_MAX files a shard's chain is
        rewritten as one full snapshot (amortized O(|shard|/64 per
        round)), bounding both restore reads and per-round link fan-out;
        the chain length doubles as the file names' unique seq."""
        n = len(self._seen_chain.get(str(i), []))
        return tmp, self.round_id, n >= _CKPT_CHAIN_MAX, n

    def _checkpoint(self) -> None:
        """A checkpoint outside the round loop's advance call (after the
        loop ends): flush what the loop deferred, then one checkpoint call
        per state actor."""
        self._flush()
        tmp = self.ckpt.begin(self.round_id)
        outs = ray.get([a.checkpoint.remote(*self._ckpt_args(tmp, i))
                        for i, a in enumerate(self.state)])
        self._commit_checkpoint(tmp, outs)

    def _commit_checkpoint(self, tmp: str, outs: list) -> None:
        """Incremental checkpoint, driver side. Every state actor wrote
        its frontier snapshot (O(queued) — the live working set) into the
        tmp dir, and each seen shard ONLY the urls it gained since the
        last acked checkpoint (SeenShard.ckpt_write); prior chain files
        are hardlinked forward so every round dir is self-contained, and
        the manifest's commit is what lets the shards drop their pending
        buffers (ckpt_ack, sent with the next call). Per-round cost is
        O(progress), not O(|seen|), and no checkpoint bytes transit the
        driver."""
        recs = [rec for _, rec in outs[:self.cfg.num_seen_shards]]
        files = ([fr for fr, _ in outs[:self.cfg.num_frontier_shards]]
                 + [rec["file"] for rec in recs if rec["file"]])
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
        chain: dict[str, list[str]] = {}
        inherit: dict[str, list[str]] = {}
        for i, rec in enumerate(recs):
            base = [] if rec["full"] else list(self._seen_chain.get(str(i), []))
            if base:
                inherit[str(i)] = base
            if rec["file"]:
                base = base + [rec["file"]]
            chain[str(i)] = base
        if inherit:
            self.ckpt.inherit_chain(self._last_ckpt_round, tmp, inherit)
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
            "seen_chain": chain,
        }
        self.ckpt.commit(self.round_id, manifest)
        # the seen shards drop their pending buffers with the next call
        # they get (commit's first step); until then a crash only re-sends
        # the same urls, which restore()'s add_many absorbs
        self._ack_pending = True
        self._seen_chain = chain
        self._last_ckpt_round = self.round_id
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
        fr, sn, manifest = self.ckpt.load(latest)
        if manifest["config_fingerprint"] != self.cfg.fingerprint():
            raise ValueError(
                "checkpoint was produced by a different crawl config; "
                "refusing to resume (delete the checkpoint dir to start "
                "fresh)"
            )
        # the checkpoint format holds no seen url in the queue, so the
        # restored frontier keeps the loop's invariant as it stands
        ray.get([
            a.restore.remote(pack(fr[i]) if i < len(fr) else None,
                             pack(sn[i]) if i < len(sn) else None)
            for i, a in enumerate(self.state)
        ])
        self._seen_chain = manifest["seen_chain"]
        self._last_ckpt_round = latest
        c = manifest["counters"]
        self.next_seq = c["next_seq"]
        self.tick = c["tick"]
        self.fetch_seq = c["fetch_seq"]
        self.round_id = c["round_id"] + 1
        self.gate.restore(
            {h: tuple(v) for h, v in manifest["politeness"].items()}
        )
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
            _ta = time.perf_counter()
            admitted = (
                self._admit_parity() if cfg.mode == "parity" else self._admit_polite()
            )
            admit_sec = time.perf_counter() - _ta
            if not admitted.num_rows:
                # _sizes() first sends this admission's discards
                if cfg.mode == "polite" and self._sizes()[0]:
                    # buckets empty but frontier not: advance virtual time
                    self.tick += 1
                    continue
                break
            m, ckpt = self._process_round(admitted)
            m["timings"]["admit"] = round(admit_sec, 3)
            # "window" (no RPC) or "peek" (the fallback)
            m["admit_path"] = self._admit_path
            # append BEFORE the manifest commits: it snapshots
            # metrics["rounds"][-1], which must be THIS round's entry,
            # not the previous round's (the manifest's own time is
            # stamped after — a checkpoint can't time itself)
            self.metrics["rounds"].append(m)
            if ckpt is not None:
                _tc = time.perf_counter()
                self._commit_checkpoint(*ckpt)
                m["timings"]["checkpoint"] = round(
                    m["timings"]["checkpoint"] + time.perf_counter() - _tc, 3)
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
                # pages/images commit ~100 driver lines before the stamps
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
        return _collect_arrow(self.pages_dataset())

    def images_table(self) -> pa.Table:
        """Driver-side materialization of images_dataset() — parity/test
        use over bounded corpora only."""
        return _collect_arrow(self.images_dataset())

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

"""Sharded URL-seen set: one exact, insert-only structure per shard.

Replaces the reference's "seen = a CouchDB document exists" check
(couchdb/couchdb.go:254-280), which costs one HTTP HEAD per candidate link
per occurrence. Here membership is a batched RPC to ``num_shards`` Ray
actors, shard = blake2b64(url) % num_shards. Like the reference's document
set, each shard is EXACT (the north rule requires the final seen set to
match the reference exactly) and insert-only:

  * a hot in-memory ``set[str]``;
  * with ``spill_dir`` set, the hot set is flushed as a SORTED
    (url_hash, url) parquet run whenever it reaches ``max_mem_urls``.
    The runs' sorted hash arrays stay resident, so run membership is one
    vectorized searchsorted per run, with a string compare only at
    hash-equal candidates (which keeps 64-bit hash collisions exact).

``add_many`` is the atomic per-shard test-and-set: its mask marks the urls
it newly inserted (the 201-vs-409 outcome), so the reference's
HEAD-then-PUT race (fetcher.go:96 -> couchdb.go:164-166, 409 = first
writer wins) cannot occur at all.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.ids import url_hash64_many
from ..sinks.checkpoint import read_chain

# a shard whose checkpoint chain reaches this many files rewrites it as
# one full snapshot on its next checkpoint (LSM compaction)
_CKPT_CHAIN_MAX = 64


class SeenShard:
    """One shard of the URL-seen set. Instantiated as a Ray actor by the
    crawl pipeline (plain class here so unit tests run it in-process).
    Snapshots concatenate runs + hot set, so checkpoints and parity do not
    depend on whether (or when) the shard spilled."""

    def __init__(self, shard_id: int, capacity: int = 1 << 16,
                 exact: bool = True, use_cuckoo: bool = True,
                 spill_dir: str | None = None, max_mem_urls: int = 1 << 20):
        # retired slots (default only): keep positional callers lined up
        if (capacity, exact, use_cuckoo) != (1 << 16, True, True):
            raise ValueError(
                "SeenShard is always an exact set: capacity, exact and "
                "use_cuckoo accept only their defaults"
            )
        self.shard_id = shard_id
        self.urls: set[str] = set()
        self.spill_dir = spill_dir
        self.max_mem_urls = max_mem_urls
        self._runs: list[tuple[np.ndarray, list[str]]] = []  # (sorted hashes, urls)
        # incremental-checkpoint state: urls inserted since the last ACKED
        # delta write (bounded by adds-per-checkpoint-window, NOT |seen|)
        self._ckpt_pending: list[str] = []
        self._ckpt_mark = 0
        # the committed checkpoint chain (file names) and the round dir
        # that holds it; ckpt_write's chain waits in _chain_next for the ack
        self._chain: list[str] = []
        self._chain_dir: str | None = None
        self._chain_next: list[str] = []
        if spill_dir:
            os.makedirs(spill_dir, exist_ok=True)
            self._load_runs()

    # -- spill machinery -------------------------------------------------
    def _run_path(self, i: int) -> str:
        return os.path.join(self.spill_dir, f"seen_run_{self.shard_id:04d}_{i:06d}.parquet")

    def _load_runs(self) -> None:
        # runs left by an earlier incarnation of this shard (actor restart,
        # or a resume that finds a dirty spill_dir before the first commit)
        i = 0
        while os.path.exists(self._run_path(i)):
            t = pq.read_table(self._run_path(i))
            self._runs.append(
                (t.column("url_hash").to_numpy(), t.column("url").to_pylist())
            )
            i += 1

    def _maybe_spill(self) -> None:
        if not self.spill_dir or len(self.urls) < self.max_mem_urls:
            return
        urls = list(self.urls)
        hs = url_hash64_many(urls)
        order = np.argsort(hs, kind="stable")
        hashes = hs[order]
        urls = [urls[i] for i in order]
        t = pa.table(
            {"url_hash": pa.array(hashes, pa.uint64()),
             "url": pa.array(urls, pa.string())}
        )
        path = self._run_path(len(self._runs))
        pq.write_table(t, path + ".tmp")
        os.rename(path + ".tmp", path)
        self._runs.append((hashes, urls))
        self.urls = set()

    def _in_runs_many(self, urls: list[str]) -> np.ndarray:
        """Run membership for a whole probe batch: ONE searchsorted per
        run instead of one scalar call per (url, run) — the admission RPC
        probes thousands of urls per round against a fixed shard count, so
        per-url Python work here is serial overhead at wide cpu counts.
        Hashes only nominate candidates; the string compare decides, so
        membership stays exact when two urls share a 64-bit hash."""
        out = np.zeros(len(urls), dtype=bool)
        if not self._runs or not len(urls):
            return out
        hs = url_hash64_many(urls)
        for hashes, run_urls in self._runs:
            n = len(hashes)
            if n == 0:
                continue
            idx = np.searchsorted(hashes, hs)
            safe = np.minimum(idx, n - 1)
            cand = np.flatnonzero((idx < n) & (hashes[safe] == hs))
            for i in cand:
                if out[i]:
                    continue
                j = int(idx[i])
                u, h = urls[i], hs[i]
                while j < n and hashes[j] == h:
                    if run_urls[j] == u:
                        out[i] = True
                        break
                    j += 1
        return out

    # -- membership ------------------------------------------------------
    def contains_many(self, urls: list[str]) -> np.ndarray:
        out = np.fromiter(
            (u in self.urls for u in urls), dtype=bool, count=len(urls)
        )
        return out | self._in_runs_many(urls)

    def add_many(self, urls: list[str]) -> np.ndarray:
        """Insert ``urls``; True = newly inserted (the 409-equivalent
        mask). A url repeated within the batch is new only at its first
        occurrence. Runs are immutable within a batch (spill happens after
        the insert loop), so the precomputed run hits stay valid."""
        in_runs = self._in_runs_many(urls)
        new = np.zeros(len(urls), dtype=bool)
        for i, u in enumerate(urls):
            if in_runs[i] or u in self.urls:
                continue
            self.urls.add(u)
            self._ckpt_pending.append(u)
            new[i] = True
        self._maybe_spill()
        return new

    def size(self) -> int:
        # exact because runs are pairwise disjoint and disjoint from the
        # hot set: add_many never re-inserts a url a run already holds
        return len(self.urls) + sum(len(h) for h, _ in self._runs)

    def _all_urls(self) -> set[str]:
        out = set(self.urls)
        for _, urls in self._runs:
            out.update(urls)
        return out

    def snapshot(self) -> pa.Table:
        urls = sorted(self._all_urls())
        return pa.table(
            {
                "url": pa.array(urls, type=pa.string()),
                "url_hash": pa.array(url_hash64_many(urls), type=pa.uint64()),
            }
        )

    # -- incremental checkpoint (delta-chain) ---------------------------
    @staticmethod
    def _write_urls(urls: list[str], path: str) -> None:
        t = pa.table(
            {"url": pa.array(urls, pa.string()),
             "url_hash": pa.array(url_hash64_many(urls), pa.uint64())}
        )
        pq.write_table(t, path + ".tmp")
        os.rename(path + ".tmp", path)

    def _link_chain(self, out_dir: str) -> None:
        """Hardlink the committed chain into ``out_dir``, so every round
        dir is self-contained at O(1) extra disk per file (the inode is
        shared; retention pruning an old round only drops a link)."""
        for name in self._chain:
            src = os.path.join(self._chain_dir, name)
            dst = os.path.join(out_dir, name)
            if not os.path.exists(src):
                # a committed chain file MUST exist: its absence means the
                # chain invariant is broken (external deletion, a
                # partially swept dir, or a checkpoint root that is not
                # shared with this actor); no copy can repair that
                raise RuntimeError(
                    f"seen-chain file {name!r} missing from committed "
                    f"round dir {self._chain_dir!r}; checkpoint chain "
                    "invariant broken (was the checkpoint root "
                    "modified externally, or is it not on storage "
                    "shared with the state actors?)"
                )
            try:
                os.link(src, dst)
            except OSError:
                # link refused by the filesystem (EXDEV/EPERM/ENOTSUP):
                # src is present, so a copy is a valid (costlier) stand-in
                shutil.copy2(src, dst)

    def ckpt_write(self, out_dir: str, round_id: int) -> list[str]:
        """Write this shard's checkpoint into ``out_dir`` and return its
        whole chain there: the committed chain, hardlinked forward, plus
        a DELTA parquet of the urls inserted since the last ACKED write
        (O(adds per checkpoint window), not O(|seen|) — the property that
        makes a 10^10-URL crawl's checkpoint cost proportional to
        progress, not state; no file when nothing is new). A chain of
        _CKPT_CHAIN_MAX files is compacted instead into one FULL snapshot
        (LSM-style, amortized O(|shard|/64) per round), which bounds both
        restore reads and the per-round link fan-out. The committed chain
        and the pending urls stay as they are until ckpt_ack(), which
        the crawl sends only after the round's manifest commits, so a
        crash between write and commit re-sends the same urls next round
        (duplicates are absorbed by restore()'s add_many)."""
        self._ckpt_mark = len(self._ckpt_pending)
        # the chain length is each file name's seq: two writes for the
        # SAME round id (a re-entered crawl re-checkpointing after
        # add_sites) get distinct names, so a fresh file never shadows an
        # inherited same-round one
        seq = len(self._chain)
        if seq >= _CKPT_CHAIN_MAX:
            name = (f"seen_full_{self.shard_id:04d}"
                    f"_r{round_id:06d}_{seq:03d}.parquet")
            self._write_urls(sorted(self._all_urls()),
                             os.path.join(out_dir, name))
            self._chain_next = [name]
        else:
            self._link_chain(out_dir)
            self._chain_next = list(self._chain)
            if self._ckpt_mark:
                name = (f"seen_delta_{self.shard_id:04d}"
                        f"_r{round_id:06d}_{seq:03d}.parquet")
                # pending may hold duplicates across un-acked writes;
                # dedupe the slice (order-preserving) to shrink the file
                pend = list(dict.fromkeys(
                    self._ckpt_pending[: self._ckpt_mark]))
                self._write_urls(pend, os.path.join(out_dir, name))
                self._chain_next.append(name)
        return self._chain_next

    def ckpt_ack(self, round_dir: str) -> None:
        """Commit point reached: the chain of the last ckpt_write is now
        committed in ``round_dir``; drop the pending urls it covered."""
        del self._ckpt_pending[: self._ckpt_mark]
        self._ckpt_mark = 0
        self._chain, self._chain_dir = self._chain_next, round_dir

    def restore_chain(self, round_dir: str, chain: list[str]) -> int:
        """Load the committed chain ``chain`` of ``round_dir``; the next
        checkpoint links it forward from there."""
        n = self.restore(read_chain(round_dir, chain))
        self._chain, self._chain_dir = list(chain), round_dir
        return n

    def restore(self, table: pa.Table) -> int:
        if self.spill_dir:
            i = 0
            while os.path.exists(self._run_path(i)):
                os.remove(self._run_path(i))
                i += 1
        self._runs = []
        self.urls = set()
        n = int(self.add_many(table.column("url").to_pylist()).sum())
        # the restored set came FROM the committed chain — nothing here is
        # pending for the next delta
        self._ckpt_pending = []
        self._ckpt_mark = 0
        return n

"""Sharded URL frontier: one sorted Arrow table per shard, held in actors.

Replaces the reference's NATS ``fetch_url`` queue (fetcher.go:90,
extractor.go:57-59; broker-held FIFO, queue-group round-robin). Entries are
(url, host, depth, priority, discovered_seq); ``discovered_seq`` is the
global FIFO position that reproduces NATS publish order (SURVEY.md §1.2),
assigned at link emission. Shard = hash(host) % num_shards so one host's
queue lives on one shard (politeness needs per-host ordering); parity mode
uses priority=0 everywhere, making (seq) the total order.

No queued entry is in the seen set. The reference keeps duplicates in its
queue and discards seen ones at dequeue (SURVEY.md §2.3 F1); here the
crawl's state actors drop every queued occurrence of a URL when a fetch of
it commits (``drop_urls``), and the crawl loop pushes only unseen URLs
(pipelines/crawl.py). Queue order among unseen entries is the
reference's, so dequeue order is unchanged; a duplicate of an UNSEEN url
stays queued and resolves at tick assignment.

This module holds the queue rule once: dequeue order (``queue_sorted``)
and the per-host cap of a polite peek (``first_k`` over ``host_rank``).
A shard keeps its queue as one table in that order, so a peek is a
slice, a snapshot is the table itself, and every update is one Arrow
call over the whole queue (a re-sort per push, a filter per remove).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

ENTRY_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.float32()),
        ("discovered_seq", pa.int64()),
    ]
)

_QUEUE_ORDER = [("priority", "ascending"), ("discovered_seq", "ascending")]


def queue_sorted(t: pa.Table) -> pa.Table:
    """Frontier entries in dequeue order, (priority, seq) — a total
    order, seqs are unique."""
    return t.take(pc.sort_indices(t, sort_keys=_QUEUE_ORDER))


def host_rank(hosts: pa.Array | pa.ChunkedArray
              ) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """Each entry's rank among the entries of its host (0 for a host's
    first), its host's code and the distinct hosts the codes index, in
    first-occurrence order: a dictionary encode, then one stable sort of
    the codes. Null is a host of its own."""
    if isinstance(hosts, pa.ChunkedArray):
        hosts = hosts.combine_chunks()
    enc = pc.dictionary_encode(hosts, null_encoding="encode")
    code = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.bincount(code, minlength=len(enc.dictionary))
    rank = np.empty(len(code), dtype=np.int64)
    rank[np.argsort(code, kind="stable")] = (
        np.arange(len(code)) - np.repeat(np.cumsum(counts) - counts, counts))
    return rank, code, enc.dictionary


def first_k(t: pa.Table, k: int, per_host: int = 0) -> pa.Table:
    """The first ``k`` rows of a dequeue-ordered table, taking at most
    ``per_host`` from any host (0: no cap)."""
    if per_host and t.num_rows > per_host:
        t = t.filter(pa.array(host_rank(t.column("host"))[0] < per_host))
    return t.slice(0, max(k, 0))


class FrontierShard:
    """One frontier shard (run inside a crawl state actor): its queue is
    ``q``, an ENTRY_SCHEMA table in dequeue order."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.q = ENTRY_SCHEMA.empty_table()

    def push_table(self, table: pa.Table) -> int:
        """Queue these entries; a seq already queued here is ignored, so
        a replayed push is a no-op."""
        new = table.filter(pc.invert(pc.is_in(
            table.column("discovered_seq"),
            value_set=self.q.column("discovered_seq").combine_chunks())))
        self.q = queue_sorted(pa.concat_tables([self.q, new])).combine_chunks()
        return self.q.num_rows

    def _drop(self, col: str, values: pa.Array) -> int:
        self.q = self.q.filter(pc.invert(pc.is_in(self.q.column(col),
                                                  value_set=values)))
        return self.q.num_rows

    def remove_seqs(self, seqs: list[int]) -> int:
        """Remove the entries with these seqs; seqs not queued here
        (already removed, or another shard's) are ignored, so a replayed
        remove is a no-op."""
        return self._drop("discovered_seq", pa.array(seqs, pa.int64()))

    def drop_urls(self, urls: list[str]) -> int:
        """Remove every queued occurrence of these urls (they were just
        fetched: the seen set holds them now)."""
        return self._drop("url", pa.array(urls, pa.string()))

    def peek(self, k: int, per_host: int = 0) -> pa.Table:
        """The first k entries by (priority, seq), without removing them,
        taking at most ``per_host`` from any host (0: no cap)."""
        return first_k(self.q, k, per_host)

    def size(self) -> int:
        return self.q.num_rows

    def snapshot(self) -> pa.Table:
        return self.q

    def restore(self, table: pa.Table) -> int:
        self.q = ENTRY_SCHEMA.empty_table()
        return self.push_table(table)


def entries_table(urls, hosts, depths, priorities, seqs) -> pa.Table:
    return pa.table(
        {
            "url": urls if isinstance(urls, pa.Array)
            else pa.array(urls, type=pa.string()),
            "host": hosts if isinstance(hosts, pa.Array)
            else pa.array(hosts, type=pa.string()),
            "depth": pa.array(np.asarray(depths, dtype=np.int32)),
            "priority": pa.array(np.asarray(priorities, dtype=np.float32)),
            "discovered_seq": pa.array(np.asarray(seqs, dtype=np.int64)),
        },
        schema=ENTRY_SCHEMA,
    )

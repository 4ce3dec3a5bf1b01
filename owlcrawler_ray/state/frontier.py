"""Sharded URL frontier: one lazy-deletion heap per shard, held in actors.

Replaces the reference's NATS ``fetch_url`` queue (fetcher.go:90,
extractor.go:57-59; broker-held FIFO, queue-group round-robin). Entries are
(priority, discovered_seq, url, host, depth); ``discovered_seq`` is the
global FIFO position that reproduces NATS publish order (SURVEY.md §1.2),
assigned at link emission. Shard = hash(host) % num_shards so one host's
queue lives on one shard (politeness needs per-host ordering); parity mode
uses priority=0 everywhere, making (seq) the total order.

No queued entry is in the seen set. The reference keeps duplicates in its
queue and discards seen ones at dequeue (SURVEY.md §2.3 F1); here the
crawl's state actors drop every queued occurrence of a URL when a fetch of
it commits (``drop_urls``, through the url -> seqs index), and the crawl
loop pushes only unseen URLs (pipelines/crawl.py). Queue order among
unseen entries is the reference's, so dequeue order is unchanged; a
duplicate of an UNSEEN url stays queued and resolves at tick assignment.

A shard is one lazy-deletion heap plus the url -> seqs index. A small
uncapped peek (parity admission) costs O(k log k); a per-host capped peek
(polite admission) sorts the shard's live entries (``FrontierShard.peek``).
"""

from __future__ import annotations

import heapq
from itertools import islice

import numpy as np
import pyarrow as pa

ENTRY_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("priority", pa.float32()),
        ("discovered_seq", pa.int64()),
    ]
)

Entry = tuple[float, int, str, str, int]  # (priority, seq, url, host, depth)


def _ascending(heap: list):
    """The items of a heap in ascending order, lazily and without
    changing it: the smallest m cost O(m log m)."""
    if not heap:
        return
    todo = [(heap[0], 0)]
    n = len(heap)
    while todo:
        item, i = heapq.heappop(todo)
        yield item
        for j in (2 * i + 1, 2 * i + 2):
            if j < n:
                heapq.heappush(todo, (heap[j], j))


def _table(entries: list[Entry]) -> pa.Table:
    return pa.table(
        {
            "url": [e[2] for e in entries],
            "host": [e[3] for e in entries],
            "depth": pa.array([e[4] for e in entries], type=pa.int32()),
            "priority": pa.array([e[0] for e in entries], type=pa.float32()),
            "discovered_seq": pa.array([e[1] for e in entries],
                                       type=pa.int64()),
        },
        schema=ENTRY_SCHEMA,
    )


class FrontierShard:
    """One frontier shard (run inside a crawl state actor)."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self._reset()

    def _reset(self) -> None:
        # lazy-deletion heap: a heap item is live iff by_seq maps its seq
        # to that very tuple; removed ones stay until they reach the root
        self.heap: list[Entry] = []
        self.by_seq: dict[int, Entry] = {}  # every live entry
        self.by_url: dict[str, list[int]] = {}  # url -> its live seqs

    def push_table(self, table: pa.Table) -> int:
        by_seq, by_url, heap = self.by_seq, self.by_url, self.heap
        cols = [table.column(c).to_pylist() for c in
                ("priority", "discovered_seq", "url", "host", "depth")]
        for e in zip(*cols):
            if e[1] not in by_seq:
                by_seq[e[1]] = e
                by_url.setdefault(e[2], []).append(e[1])
                heapq.heappush(heap, e)
        return len(by_seq)

    def _kill(self, seq: int) -> None:
        url = self.by_seq.pop(seq)[2]
        seqs = self.by_url[url]
        seqs.remove(seq)
        if not seqs:
            del self.by_url[url]

    def _compact(self) -> int:
        heap, by_seq = self.heap, self.by_seq
        if len(heap) > 2 * len(by_seq) + 64:
            self.heap = list(by_seq.values())
            heapq.heapify(self.heap)
        else:
            while heap and by_seq.get(heap[0][1]) is not heap[0]:
                heapq.heappop(heap)
        return len(by_seq)

    def remove_seqs(self, seqs: list[int]) -> int:
        """Remove the entries with these seqs; seqs not live here (already
        removed, or another shard's) are ignored, so a replayed remove is
        a no-op."""
        for s in seqs:
            s = int(s)
            if s in self.by_seq:
                self._kill(s)
        return self._compact()

    def drop_urls(self, urls: list[str]) -> int:
        """Remove every queued occurrence of these urls (they were just
        fetched: the seen set holds them now)."""
        for u in urls:
            for s in self.by_url.get(u, ())[:]:
                self._kill(s)
        return self._compact()

    def peek(self, k: int, per_host: int = 0) -> pa.Table:
        """The first k live entries by (priority, seq), without removing
        them, taking at most ``per_host`` from any host (0: no cap).

        A small uncapped peek walks the heap in ascending order and stops
        at its k-th live entry. A capped peek passes every entry of a
        host already at its cap (with fewer than k / per_host hosts, the
        whole queue), and a large peek takes most of the queue: both scan
        one sort of the live entries, which runs in C and beats the
        Python heap walk there."""
        by_seq = self.by_seq
        if per_host or 8 * k >= len(by_seq):
            ordered = iter(sorted(by_seq.values()))
        else:
            ordered = (e for e in _ascending(self.heap)
                       if by_seq.get(e[1]) is e)
        if not per_host:
            return _table(list(islice(ordered, max(k, 0))))
        out: list[Entry] = []
        taken: dict[str, int] = {}
        for e in ordered if k > 0 else ():
            n = taken.get(e[3], 0)
            if n < per_host:
                taken[e[3]] = n + 1
                out.append(e)
                if len(out) >= k:
                    break
        return _table(out)

    def size(self) -> int:
        return len(self.by_seq)

    def snapshot(self) -> pa.Table:
        return _table(sorted(self.by_seq.values()))

    def restore(self, table: pa.Table) -> int:
        self._reset()
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

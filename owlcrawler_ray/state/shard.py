"""One crawl state actor: seen shard i and frontier shard i in one process.

Each Ray actor is its own worker process, and starting one costs 1.0-1.3
CPU-s on a 4-vCPU VM (Python, ``import ray``, this package, and the
pandas import pyarrow does on the first Table a process builds). A
crawl therefore hosts seen shard *i* and frontier shard *i* in ONE
actor and starts ``max(num_seen_shards, num_frontier_shards)`` processes
instead of their sum. With unequal counts the trailing actors host a
single role (the other attribute is None).

The sharding functions do not change: seen = blake2b64(url) % ns,
frontier = hash(host) % nf, so shard i of each role holds exactly what
it held as a stand-alone actor, and checkpoints keep their files and
fingerprint. ``SeenShard`` and ``FrontierShard`` stay plain classes;
this one only delegates, and folds the per-role driver fan-outs that
touch both roles (checkpoint, restore, sizes) into one call.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .frontier import FrontierShard
from .seen import SeenShard


class StateShard:
    """Run as a Ray actor by the crawl pipeline (plain class here so unit
    tests run it in-process)."""

    def __init__(self, shard_id: int, has_seen: bool, has_frontier: bool,
                 spill_dir: str | None = None, max_mem_urls: int = 1 << 20):
        self.seen = (
            SeenShard(shard_id, spill_dir=spill_dir, max_mem_urls=max_mem_urls)
            if has_seen else None
        )
        self.frontier = FrontierShard(shard_id) if has_frontier else None

    # -- seen role -------------------------------------------------------
    def seen_contains(self, urls: list[str]) -> np.ndarray:
        return self.seen.contains_many(urls)

    def seen_add(self, urls: list[str]) -> np.ndarray:
        return self.seen.add_many(urls)

    # -- frontier role ---------------------------------------------------
    def frontier_push(self, table: pa.Table) -> int:
        return self.frontier.push_table(table)

    def frontier_peek(self, k: int) -> pa.Table:
        return self.frontier.peek(k)

    def frontier_remove(self, seqs: list[int]) -> int:
        return self.frontier.remove_seqs(seqs)

    # -- both roles ------------------------------------------------------
    def sizes(self) -> tuple[int, int]:
        """(queued frontier entries, seen urls); 0 for an absent role."""
        return (self.frontier.size() if self.frontier else 0,
                self.seen.size() if self.seen else 0)

    def checkpoint(self, out_dir: str, round_id: int,
                   force_full: bool = False,
                   seq: int = 0) -> tuple[pa.Table | None, dict | None]:
        """This actor's checkpoint contribution: the frontier snapshot
        (the driver writes it) and the seen shard's ``ckpt_write`` record
        (the file is written here, into ``out_dir``). None for an absent
        role."""
        fr = self.frontier.snapshot() if self.frontier else None
        rec = (self.seen.ckpt_write(out_dir, round_id, force_full, seq)
               if self.seen else None)
        return fr, rec

    def ckpt_ack(self) -> None:
        if self.seen:
            self.seen.ckpt_ack()

    def restore(self, frontier: pa.Table | None,
                seen: pa.Table | None) -> None:
        if frontier is not None:
            self.frontier.restore(frontier)
        if seen is not None:
            self.seen.restore(seen)

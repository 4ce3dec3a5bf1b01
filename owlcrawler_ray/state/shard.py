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

The crawl loop talks to each actor twice per round, through ``commit``
and ``advance``; each runs its steps in a fixed order so the driver can
reason about the state every step sees. ``advance`` ends with the peek
of the queue it has just pushed to, which is the next round's window.
Outside those two calls the crawl uses three per-operation methods:
``frontier_peek`` for the loop's fallback peek (first round after
construction or resume, a polite re-peek), and ``seen_contains`` and
``frontier_push`` for pushes from outside the loop (seeds,
``add_sites``).

Every table crosses the actor boundary packed (state/wire.py):
``frontier_push`` and ``advance`` take Arrow IPC stream buffers, and
``advance`` and ``frontier_peek`` return one. Checkpoint and restore
ship no table at all: the actor owns its checkpoint files. It writes its
frontier snapshot into the round's tmp dir, as its seen shard writes
its delta and links its committed chain forward, and returns only the
file names; a restore gets the round dir and the chain names and reads
the files itself. So no ``pa.Table`` passes through Ray's Arrow
reducer, and an actor never imports ``ray.data``. An IPC read builds no
array, though, and pyarrow imports pandas on a process's first
``pa.array``; the constructor builds one, so that import (~0.3 CPU-s)
is paid when the actor starts, not in the crawl's first peek.

The actors keep one invariant between the two roles: no queued frontier
entry is in the seen set. ``commit`` drops the queued occurrences of the
urls it inserts into the seen set; the loop, seeds and ``add_sites`` push
only urls the seen set does not hold (pipelines/crawl.py); and a
checkpoint holds the invariant, so a restore keeps it
(sinks/checkpoint.py). A url's host fixes its frontier shard, so every
queued occurrence of a url sits on one shard and the drop is local to
it.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..sinks.checkpoint import frontier_file, read_frontier
from .frontier import FrontierShard
from .seen import SeenShard
from .wire import pack, unpack


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
        # pyarrow's pandas import, paid here and not in the first peek
        # (module docstring)
        pa.array([], pa.string())

    # -- seen role -------------------------------------------------------
    def seen_contains(self, urls: list[str]) -> np.ndarray:
        return self.seen.contains_many(urls)

    # -- frontier role ---------------------------------------------------
    def frontier_push(self, buf: pa.Buffer) -> int:
        return self.frontier.push_table(unpack(buf))

    def frontier_peek(self, k: int, per_host: int = 0) -> pa.Buffer:
        return pack(self.frontier.peek(k, per_host))

    # -- both roles ------------------------------------------------------
    def sizes(self) -> tuple[int, int]:
        """(queued frontier entries, seen urls); 0 for an absent role."""
        return (self.frontier.size() if self.frontier else 0,
                self.seen.size() if self.seen else 0)

    def checkpoint(self, out_dir: str,
                   round_id: int) -> tuple[str | None, list[str] | None]:
        """Write this actor's checkpoint files into ``out_dir``: the
        frontier snapshot and the seen shard's chain (state/seen.py).
        Returns (frontier file name, the seen chain's file names); None
        for an absent role."""
        fr = None
        if self.frontier:
            fr = frontier_file(self.frontier.shard_id)
            pq.write_table(self.frontier.snapshot(), os.path.join(out_dir, fr))
        chain = self.seen.ckpt_write(out_dir, round_id) if self.seen else None
        return fr, chain

    # -- the crawl loop's two calls per round ------------------------------
    def commit(self, ack: str | None, removes: list[int] | None,
               probe: list[str] | None, add: list[str] | None,
               drop: list[str] | None) -> np.ndarray | None:
        """Close a round, in this order: acknowledge the previous
        checkpoint (``ack``: its round dir, whose manifest has committed
        since), remove this round's
        admitted and robots-discarded frontier entries, probe the round's
        link candidates against the seen set BEFORE its successes are
        inserted, insert the successes (``add``, this seen shard's share)
        and drop every queued occurrence of them (``drop``, this frontier
        shard's share). Returns the probe mask (None: no probe)."""
        if ack and self.seen:
            self.seen.ckpt_ack(ack)
        if removes and self.frontier:
            self.frontier.remove_seqs(removes)
        mask = self.seen.contains_many(probe) if probe else None
        if add:
            self.seen.add_many(add)
        if drop:
            self.frontier.drop_urls(drop)
        return mask

    def advance(self, push: pa.Buffer | None, ckpt: tuple | None,
                peek_k: int = 0,
                per_host: int = 0) -> tuple[tuple | None, pa.Buffer | None]:
        """Open the next round, in this order: push the round's new links
        (packed), write the checkpoint when one is due (``ckpt`` = the
        arguments of ``checkpoint``), and peek the first ``peek_k``
        frontier entries, at most ``per_host`` per host: the next
        round's window. Returns (checkpoint output, packed peek); None
        for a step with no input or no role."""
        push = unpack(push)
        if push is not None and push.num_rows:
            self.frontier.push_table(push)
        out = self.checkpoint(*ckpt) if ckpt is not None else None
        peek = (self.frontier.peek(peek_k, per_host)
                if peek_k and self.frontier else None)
        return out, pack(peek)

    def restore(self, round_dir: str, chain: list[str] | None) -> None:
        """Load this actor's files of a committed checkpoint: its frontier
        snapshot and its seen ``chain`` (None: no seen role)."""
        if self.frontier:
            self.frontier.restore(
                read_frontier(round_dir, self.frontier.shard_id))
        if self.seen:
            self.seen.restore_chain(round_dir, chain)

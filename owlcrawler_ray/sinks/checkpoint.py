"""Per-round crawl checkpoint: frontier + seen shards + counters + lineage.

The reference's "checkpoint" is implicit and lossy: CouchDB survives
restarts so fetched pages aren't refetched, but in-flight NATS messages
are dropped (at-most-once, SURVEY.md §2.10) — a crash loses queued URLs.
Here every round commits a consistent snapshot:

    ckpt/round=000042/
        frontier_shard_0000.parquet ...   (every queued entry, seq order)
        seen_full_0000_r000010_000.parquet   (seen shard 0's chain: an
        seen_delta_0000_r000041_000.parquet   optional full snapshot, then
        seen_delta_0000_r000042_000.parquet   one delta per checkpoint)
        manifest.json                     <- written LAST = the commit point

manifest.json carries ``format`` (= ``FORMAT``), counters (next_seq, tick,
fetch_seq), the last round's metrics (attempts, successes, new links,
phase timings), config fingerprint, the politeness buckets, ``seen_chain``
(per seen shard, the files whose union is its seen set; the shard
hardlinks the files of earlier rounds forward, so every round dir is
self-contained) and lineage (first, last and count of the pages/images
round dirs this state produced — O(1) bytes however long the crawl). In
this format no queued frontier entry is in the seen set.
``read_manifest`` refuses a manifest with any other ``format``, or none,
and leaves it on disk: a layout change raises ``FORMAT`` instead of
teaching the readers the old one.
Resume = restore from the highest round whose manifest parses;
pages/images rounds after that point are discarded (their ``_SUCCESS``
is removed) so the resumed run re-produces them byte-identically.

The seen shards keep the urls of their last delta write pending, and
their committed chain as it was, until the crawl acknowledges the
manifest's commit with the round dir. That ack reaches the state
actors with the crawl loop's next call to them (the first step of the
next round's commit), not as a call of its own; a crash before it only
re-sends those pending urls in the next delta, which ``restore()``'s
add_many absorbs.

Committed round ids are read from disk once per manager (and again by
``latest_round()``, the restore path) and then tracked in memory, so a
checkpoint's commit and retention parse no manifests.

Every data file of a round belongs to a state actor, which writes it
straight into the round's tmp dir and reads it back on restore: its
frontier snapshot (``frontier_file``, read by ``read_frontier``) and its
seen chain (``read_chain``). Each seen shard keeps its committed chain
and the round dir that holds it, links that chain forward into each new
tmp dir, compacts it, and returns the names (state/seen.py). So neither
the queue nor the seen bytes transit the driver, in a checkpoint or in
a resume: the driver writes and reads only the manifest. ``load`` reads
a whole round with the same two readers.

Deployment requirement: the checkpoint root must live on storage shared
by the driver AND every state actor (single node, NFS/cluster FS, or an
object-store mount). The crawl loop verifies each actor-written file is
visible driver-side BEFORE committing the manifest, so a mis-deployed
non-shared root fails loudly at the first checkpoint instead of
producing a manifest that names unreachable files.
"""

from __future__ import annotations

import bisect
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

# the layout the module docstring describes; load() reads no other
FORMAT = 1


def frontier_file(shard_id: int) -> str:
    """Name of frontier shard ``shard_id``'s file in a round dir."""
    return f"frontier_shard_{shard_id:04d}.parquet"


def read_frontier(round_dir: str, shard_id: int) -> pa.Table:
    """Frontier shard ``shard_id``'s queue as checkpointed in ``round_dir``."""
    return pq.read_table(os.path.join(round_dir, frontier_file(shard_id)))


def read_chain(round_dir: str, names: list[str]) -> pa.Table:
    """A seen shard's set: the union of its chain files in ``round_dir``
    (an empty chain is a shard that never saw a url)."""
    if not names:
        return pa.table({"url": pa.array([], pa.string()),
                         "url_hash": pa.array([], pa.uint64())})
    return pa.concat_tables(
        [pq.read_table(os.path.join(round_dir, n)) for n in names])


class CheckpointManager:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._committed = self._scan()  # sorted committed round ids

    def _scan(self) -> list[int]:
        """Committed round ids on disk: dirs whose manifest parses."""
        out = set()
        for name in os.listdir(self.root):
            if not name.startswith("round=") or name.endswith(".tmp"):
                continue
            try:
                with open(os.path.join(self.root, name, "manifest.json")) as f:
                    out.add(int(json.load(f)["round"]))
            except (OSError, ValueError, KeyError):
                continue  # partial/corrupt round: not committed
        return sorted(out)

    def round_dir(self, round_id: int) -> str:
        return os.path.join(self.root, f"round={round_id:06d}")

    # -- incremental protocol (delta-chain seen checkpoints) -------------
    def begin(self, round_id: int) -> str:
        """Open the round's tmp dir (clearing any stale attempt). Stage
        files into it — the state actors' frontier snapshots and seen
        chains (StateShard.checkpoint) — then commit(). A previously
        COMMITTED dir for the same round is left in place until commit():
        it may hold the chains the seen shards link forward (a re-entered
        crawl — add_sites after the frontier drained — re-checkpoints the
        same round id), and keeping it shrinks the crash window to
        commit()'s swap."""
        d = self.round_dir(round_id)
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        return tmp

    def commit(self, round_id: int, manifest: dict) -> str:
        """Atomically promote the staged tmp dir; the manifest write is
        the commit point (latest_round only counts parsable manifests).
        An old committed dir for the same round is replaced here — a crash
        inside the swap loses only this round's checkpoint, and _restore
        falls back to the previous retained round."""
        d = self.round_dir(round_id)
        tmp = d + ".tmp"
        shutil.rmtree(d, ignore_errors=True)
        os.rename(tmp, d)
        mpath = os.path.join(d, "manifest.json")
        with open(mpath + ".tmp", "w") as f:
            json.dump({"round": round_id, **manifest, "format": FORMAT}, f,
                      indent=1, sort_keys=True)
        os.rename(mpath + ".tmp", mpath)
        i = bisect.bisect_left(self._committed, round_id)
        if i == len(self._committed) or self._committed[i] != round_id:
            self._committed.insert(i, round_id)
        return d

    def latest_round(self) -> int | None:
        if not os.path.isdir(self.root):
            return None
        self._committed = self._scan()
        return self._committed[-1] if self._committed else None

    def prune_old(self, keep: int) -> list[int]:
        """Delete committed checkpoint rounds older than the newest ``keep``
        (plus any stray dirs below them). Each round holds a FULL
        frontier + seen snapshot, so without retention a long crawl's
        checkpoint dir grows O(rounds x |seen|) — at 10^10 URLs that is the
        disk bound, not the output tables. ``keep`` >= 2 preserves the
        multi-round fallback _restore relies on when the newest manifest is
        lost mid-write. Uncommitted dirs (no parsable manifest, or a
        ``.tmp`` stage) are never counted toward ``keep`` but are swept when
        older than the cutoff. Returns the pruned committed round ids."""
        if keep <= 0 or len(self._committed) <= keep:
            return []
        cutoff = self._committed[-keep]  # newest `keep` survive
        pruned = self._committed[:-keep]
        self._committed = self._committed[-keep:]
        # one listing of the root (O(retained) entries): it also sweeps
        # the uncommitted leftovers of a crash (a dir swapped in before its
        # manifest was written), which are not in the committed list
        for name in os.listdir(self.root):
            if not name.startswith("round="):
                continue
            try:
                rid = int(name.split("=")[1].split(".")[0])
            except ValueError:
                continue
            if rid < cutoff:
                shutil.rmtree(os.path.join(self.root, name),
                              ignore_errors=True)
        return pruned

    def clear(self) -> None:
        """Delete every round dir, committed or not: a fresh crawl over a
        reused root starts with no checkpoint history."""
        for name in os.listdir(self.root):
            if name.startswith("round="):
                shutil.rmtree(os.path.join(self.root, name),
                              ignore_errors=True)
        self._committed = []

    def read_manifest(self, round_id: int) -> dict:
        """The manifest of a committed round. Raises ValueError for a
        manifest of another format (or none)."""
        d = self.round_dir(round_id)
        with open(os.path.join(d, "manifest.json")) as f:
            manifest = json.load(f)
        got = manifest.get("format", "none")
        if got != FORMAT:
            raise ValueError(
                f"checkpoint {d!r} has format {got}, this build reads "
                f"format {FORMAT}; delete the checkpoint dir to start fresh"
            )
        return manifest

    def load(self, round_id: int) -> tuple[list[pa.Table], list[pa.Table], dict]:
        """(frontier shards, seen shards, manifest) of a committed round,
        read with the state actors' own readers; each seen shard is the
        union of its chain files."""
        manifest = self.read_manifest(round_id)
        d = self.round_dir(round_id)
        frontier = []
        while os.path.exists(os.path.join(d, frontier_file(len(frontier)))):
            frontier.append(read_frontier(d, len(frontier)))
        seen = [read_chain(d, names) for _, names in
                sorted(manifest["seen_chain"].items(),
                       key=lambda kv: int(kv[0]))]
        return frontier, seen, manifest

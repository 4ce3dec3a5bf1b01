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
(per seen shard, the files whose union is its seen set; chain files of
earlier rounds are hardlinked forward, so every round dir is
self-contained) and lineage (first, last and count of the pages/images
round dirs this state produced — O(1) bytes however long the crawl). In
this format no queued frontier entry is in the seen set. ``load`` refuses
a manifest with any other ``format``, or none, and leaves it on disk: a
layout change raises ``FORMAT`` instead of teaching ``load`` the old one.
Resume = restore from the highest round whose manifest parses;
pages/images rounds after that point are discarded (their ``_SUCCESS``
is removed) so the resumed run re-produces them byte-identically.

The seen shards keep the urls of their last delta write pending until
the crawl acknowledges the manifest's commit. That ack reaches the state
actors with the crawl loop's next call to them (the first step of the
next round's commit), not as a call of its own; a crash before it only
re-sends those pending urls in the next delta, which ``restore()``'s
add_many absorbs.

Committed round ids are read from disk once per manager (and again by
``latest_round()``, the restore path) and then tracked in memory, so a
checkpoint's commit and retention parse no manifests.

Every data file of a round is written by a state actor, straight into
the round's tmp dir: its frontier snapshot (named by ``frontier_file``,
which ``load`` also uses) and its seen delta, so neither the queue nor
the seen bytes transit the driver. The driver writes only the manifest.

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

    def _dir(self, round_id: int) -> str:
        return os.path.join(self.root, f"round={round_id:06d}")

    # -- incremental protocol (delta-chain seen checkpoints) -------------
    def begin(self, round_id: int) -> str:
        """Open the round's tmp dir (clearing any stale attempt). Stage
        files into it — the state actors' frontier snapshots and seen
        deltas (StateShard.checkpoint) — then commit(). A previously
        COMMITTED dir for the same round is left in place until commit():
        it may be the inherit_chain link source (a re-entered crawl —
        add_sites after the frontier drained — re-checkpoints the same
        round id), and keeping it shrinks the crash window to commit()'s
        swap."""
        d = self._dir(round_id)
        tmp = d + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        return tmp

    def inherit_chain(self, prev_round: int, tmp: str,
                      chain: dict[str, list[str]]) -> None:
        """Hardlink the previous committed round's seen-chain files into
        the new round's tmp dir, making every round SELF-CONTAINED at
        O(1) extra disk per inherited file (the inode is shared; retention
        pruning an old round only drops a link). Falls back to a copy when
        the filesystem refuses links."""
        src_dir = self._dir(prev_round)
        for names in chain.values():
            for name in names:
                src = os.path.join(src_dir, name)
                dst = os.path.join(tmp, name)
                if os.path.exists(dst):
                    continue  # two shards can share nothing; names unique
                if not os.path.exists(src):
                    # a chain file named by the manifest MUST exist in the
                    # previous committed round — its absence means the
                    # chain invariant is broken (external deletion, a
                    # partially swept dir, or a checkpoint root that is
                    # not shared with the state actors); a copy
                    # fallback can never repair that, so fail loudly here
                    raise RuntimeError(
                        f"seen-chain file {name!r} missing from committed "
                        f"round dir {src_dir!r}; checkpoint chain "
                        "invariant broken (was the checkpoint root "
                        "modified externally, or is it not on storage "
                        "shared with the state actors?)"
                    )
                try:
                    os.link(src, dst)
                except OSError:
                    # link refused by the filesystem (EXDEV/EPERM/ENOTSUP)
                    # — src is known present, so a copy is a valid
                    # (costlier) substitute
                    shutil.copy2(src, dst)

    def commit(self, round_id: int, manifest: dict) -> str:
        """Atomically promote the staged tmp dir; the manifest write is
        the commit point (latest_round only counts parsable manifests).
        An old committed dir for the same round is replaced here — a crash
        inside the swap loses only this round's checkpoint, and _restore
        falls back to the previous retained round."""
        d = self._dir(round_id)
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

    def load(self, round_id: int) -> tuple[list[pa.Table], list[pa.Table], dict]:
        """(frontier shards, seen shards, manifest) of a committed round;
        each seen shard is the union of its chain files. Raises
        ValueError for a manifest of another format (or none)."""
        d = self._dir(round_id)
        with open(os.path.join(d, "manifest.json")) as f:
            manifest = json.load(f)
        got = manifest.get("format", "none")
        if got != FORMAT:
            raise ValueError(
                f"checkpoint {d!r} has format {got}, this build reads "
                f"format {FORMAT}; delete the checkpoint dir to start fresh"
            )
        frontier = []
        while os.path.exists(
                p := os.path.join(d, frontier_file(len(frontier)))):
            frontier.append(pq.read_table(p))
        # an empty chain is a shard that never saw a url
        seen = [
            pa.concat_tables([pq.read_table(os.path.join(d, n)) for n in names])
            if names else
            pa.table({"url": pa.array([], pa.string()),
                      "url_hash": pa.array([], pa.uint64())})
            for _, names in sorted(manifest["seen_chain"].items(),
                                   key=lambda kv: int(kv[0]))
        ]
        return frontier, seen, manifest

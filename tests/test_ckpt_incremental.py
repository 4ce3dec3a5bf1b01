"""Incremental (delta-chain) seen checkpoints.

Per-round checkpoint cost must be O(progress), not O(|seen|): each
SeenShard writes only the urls gained since its last ACKED write, prior
chain files are hardlinked forward (round dirs stay self-contained), a
driver-forced compaction rewrites the chain as one full snapshot, and
resume through the chain reproduces the uninterrupted run row-for-row."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

from owlcrawler_ray.pipelines.crawl import CrawlConfig, run_crawl
from owlcrawler_ray.sources.corpus import WebConfig
from owlcrawler_ray.state.seen import SeenShard

WEB = WebConfig(num_hosts=3, base_pages=6, hot_factor=2, n_seed_hosts=2)


def _cfg(base, **kw):
    kw.setdefault("budget_per_round", 10)
    return CrawlConfig(
        web=WEB,
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2,
        image_concurrency=1,
        **kw,
    )


def _rows(c):
    pages = sorted(c.pages_table().to_pylist(), key=lambda r: r["fetch_seq"])
    atts = sorted(c.attempts_table().to_pylist(), key=lambda r: r["tick"])
    imgs = sorted(
        c.images_table().to_pylist(), key=lambda r: (r["tick"], r["img_idx"])
    )
    return pages, atts, imgs


# ---- unit: the shard-side protocol (in-process, no Ray) ----------------

def test_delta_then_ack_then_empty(tmp_path):
    s = SeenShard(0)
    s.add_many(["http://a/1", "http://a/2"])
    rec = s.ckpt_write(str(tmp_path), 0)
    assert rec == {"file": "seen_delta_0000_r000000_000.parquet",
                   "full": False}
    t = pq.read_table(os.path.join(tmp_path, rec["file"]))
    assert sorted(t.column("url").to_pylist()) == ["http://a/1", "http://a/2"]
    s.ckpt_ack()
    # nothing new -> no file
    assert s.ckpt_write(str(tmp_path), 1) == {"file": None, "full": False}
    s.ckpt_ack()
    s.add_many(["http://a/3"])
    rec = s.ckpt_write(str(tmp_path), 2)
    assert rec["full"] is False
    t = pq.read_table(os.path.join(tmp_path, rec["file"]))
    assert t.column("url").to_pylist() == ["http://a/3"]


def test_unacked_write_resends(tmp_path):
    """A write whose commit never happened (no ack) re-sends the same
    urls in the next write — the at-least-once side of the protocol."""
    s = SeenShard(0)
    s.add_many(["http://a/1"])
    s.ckpt_write(str(tmp_path), 0)  # commit "crashes": no ack
    s.add_many(["http://a/2"])
    rec = s.ckpt_write(str(tmp_path), 1)
    t = pq.read_table(os.path.join(tmp_path, rec["file"]))
    assert sorted(t.column("url").to_pylist()) == ["http://a/1", "http://a/2"]


def test_force_full_compaction(tmp_path):
    s = SeenShard(0)
    s.add_many(["http://a/1"])
    s.ckpt_write(str(tmp_path), 0)
    s.ckpt_ack()
    s.add_many(["http://a/2"])
    rec = s.ckpt_write(str(tmp_path), 1, True)  # driver-forced compaction
    assert rec["full"] is True
    t = pq.read_table(os.path.join(tmp_path, rec["file"]))
    assert sorted(t.column("url").to_pylist()) == ["http://a/1", "http://a/2"]


def test_full_write_covers_spilled_runs(tmp_path):
    """The full-snapshot path must enumerate the WHOLE shard state — hot
    set plus disk-spilled sorted runs; a shard restored from that single
    file answers membership identically. This is the 10^10-URL
    configuration (spill_dir set), so a miss here would silently drop
    spilled urls from every compaction."""
    urls = [f"http://h{i % 7}/p{i}" for i in range(50)]
    s = SeenShard(0, spill_dir=str(tmp_path / "spill"), max_mem_urls=8)
    for i in range(0, 50, 6):
        s.add_many(urls[i:i + 6])  # crosses max_mem_urls repeatedly
    assert s._runs and s.urls, "precondition: spilled runs AND a hot set"
    rec = s.ckpt_write(str(tmp_path), 0, True)  # driver-forced compaction
    assert rec["full"] is True
    t = pq.read_table(os.path.join(tmp_path, rec["file"]))
    assert t.column("url").to_pylist() == sorted(urls)
    probe = urls + [u + "x" for u in urls]
    fresh = SeenShard(1)
    fresh.restore(t)
    assert list(fresh.contains_many(probe)) == [u in urls for u in probe]
    # restore wiped the checkpoint state: nothing pending, chain clean
    assert fresh.ckpt_write(str(tmp_path), 1) == {"file": None, "full": False}


# ---- e2e: crawl checkpoints are deltas, resume is exact ----------------

def test_crawl_checkpoints_are_deltas_and_hardlinked(ray_session, tmp_path):
    base = str(tmp_path / "delta")
    c, s = run_crawl(_cfg(base, budget_per_round=5))
    c.shutdown()
    ckpt_root = f"{base}/ckpt"
    rounds = sorted(
        d for d in os.listdir(ckpt_root)
        if d.startswith("round=") and not d.endswith(".tmp")
    )
    assert len(rounds) >= 3
    last = os.path.join(ckpt_root, rounds[-1])
    with open(os.path.join(last, "manifest.json")) as f:
        manifest = json.load(f)
    chain = manifest["seen_chain"]
    # the final round's chain holds MANY per-round delta files, none full
    names = [n for files in chain.values() for n in files]
    assert len(names) > len(chain)  # more files than shards => real chain
    assert all("seen_delta_" in n for n in names)
    # chain union == the complete seen set
    import ray
    urls = set()
    for files in chain.values():
        for n in files:
            urls.update(
                pq.read_table(os.path.join(last, n)).column("url").to_pylist()
            )
    assert len(urls) == s["seen"]
    # group the chain files by the round id embedded in their names —
    # NOT by len(rounds) (wrong once retention prunes early rounds, and a
    # final no-progress checkpoint writes no file tagged with its round,
    # which made the original own-rows assertion vacuous)
    import re

    by_round: dict[int, list[str]] = {}
    for n in names:
        rid = int(re.search(r"_r(\d{6})_", n).group(1))
        by_round.setdefault(rid, []).append(n)
    assert len(by_round) >= 2  # the chain really spans multiple rounds
    # files inherited from earlier rounds are hardlinks (shared inode)
    cur = int(manifest["round"])
    early = [n for rid, ns in by_round.items() if rid < cur for n in ns]
    assert early and any(
        os.stat(os.path.join(last, n)).st_nlink > 1 for n in early
    )
    # the deltas are disjoint, cover the seen set exactly, and NO single
    # round's files carry the whole set — per-round checkpoint bytes are
    # proportional to that round's progress, not to |seen|
    rows_by_round = {
        rid: sum(pq.read_table(os.path.join(last, n)).num_rows for n in ns)
        for rid, ns in by_round.items()
    }
    assert sum(rows_by_round.values()) == len(urls)
    assert max(rows_by_round.values()) < len(urls)


def test_inherit_chain_missing_source_fails_loudly(tmp_path):
    """A chain file absent from the previous committed round is a broken
    invariant (external deletion / non-shared checkpoint root): the error
    must name the file and round dir, not die in a copy fallback."""
    import pytest

    from owlcrawler_ray.sinks.checkpoint import CheckpointManager

    ck = CheckpointManager(str(tmp_path / "ck"))
    tmp0 = ck.begin(0)
    path = os.path.join(tmp0, "seen_delta_0000_r000000_000.parquet")
    pq.write_table(pa.table({"url": ["http://a/1"]}), path)
    ck.commit(0, {"seen_chain": {"0": ["seen_delta_0000_r000000_000.parquet"]}})
    tmp1 = ck.begin(1)
    with pytest.raises(RuntimeError, match="missing from committed"):
        ck.inherit_chain(0, tmp1, {"0": ["seen_delta_9999_nope.parquet"]})


def test_prune_reports_only_committed_rounds(tmp_path):
    """An uncommitted round dir (crash between the dir swap and the
    manifest write) is swept by retention but must NOT be reported as a
    pruned round — the ids feed the crawl's pruned-history metric."""
    from owlcrawler_ray.sinks.checkpoint import CheckpointManager

    ck = CheckpointManager(str(tmp_path / "ck"))
    for r in (0, 2, 3, 4):
        ck.begin(r)
        ck.commit(r, {})
    # round 1 crashed post-swap, pre-manifest: dir exists, no manifest
    os.makedirs(os.path.join(ck.root, "round=000001"))
    pruned = ck.prune_old(keep=2)
    assert pruned == [0, 2]  # committed sweeps only
    left = sorted(os.listdir(ck.root))
    assert left == ["round=000003", "round=000004"]  # dir 1 swept too


# ---- checkpoint bookkeeping is O(1) per round ---------------------------

def test_manifest_size_flat_across_rounds(ray_session, tmp_path):
    """The manifest's lineage is (first, last, count) per output table,
    not a list of every round dir: past the first rounds, a manifest's
    size (less the seen chain, the last round's metrics and the host
    buckets, which are bounded elsewhere) stays flat as rounds go by."""
    base = str(tmp_path / "flat")
    c, s = run_crawl(_cfg(base, budget_per_round=1, ckpt_keep=0))
    c.shutdown()
    assert s["rounds"] >= 20
    root = f"{base}/ckpt"
    manifests = {}
    for d in os.listdir(root):
        if d.startswith("round=") and not d.endswith(".tmp"):
            with open(os.path.join(root, d, "manifest.json")) as f:
                m = json.load(f)
            manifests[m["round"]] = m
    sizes = {
        r: len(json.dumps({k: v for k, v in m.items()
                           if k not in ("seen_chain", "metrics",
                                        "politeness")},
                          indent=1, sort_keys=True))
        for r, m in manifests.items()
    }
    late = [n for r, n in sizes.items() if r >= 10]
    assert len(late) >= 10
    assert max(late) - min(late) <= 4, sizes  # counters gaining a digit
    for r, m in manifests.items():
        for lin in m["lineage"].values():
            assert lin["count"] == lin["last"] - lin["first"] + 1
            assert lin["last"] <= r


def test_crawl_loop_parses_no_manifest(ray_session, tmp_path, monkeypatch):
    """Retention (prune_old) and commit work from the committed round ids
    the manager tracks in memory: once the crawler is built, the loop
    reads no manifest back, however many rounds it keeps or prunes."""
    import types

    from owlcrawler_ray.pipelines.crawl import Crawler
    from owlcrawler_ray.sinks import checkpoint as ckmod

    base = str(tmp_path / "noparse")
    c = Crawler(_cfg(base, budget_per_round=2, ckpt_keep=2))
    loads = []

    def load(f):
        loads.append(f.name)
        return json.load(f)

    monkeypatch.setattr(ckmod, "json", types.SimpleNamespace(
        load=load, dump=json.dump))
    try:
        s = c.run()
    finally:
        c.shutdown()
    assert s["rounds"] >= 5
    assert c.metrics["ckpt_pruned_total"] >= 3
    assert loads == []
    kept = sorted(d for d in os.listdir(f"{base}/ckpt")
                  if d.startswith("round="))
    assert len(kept) == 2

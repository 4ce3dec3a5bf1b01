"""Incremental (delta-chain) seen checkpoints.

Per-round checkpoint cost must be O(progress), not O(|seen|): each
SeenShard writes only the urls gained since its last ACKED write and
hardlinks its committed chain forward itself (round dirs stay
self-contained), a chain of _CKPT_CHAIN_MAX files is compacted into one
full snapshot, and resume through the chain reproduces the
uninterrupted run row-for-row."""

import ast
import json
import os
import pathlib
import shutil

import pyarrow.parquet as pq

from owlcrawler_ray.pipelines.crawl import CrawlConfig, run_crawl
from owlcrawler_ray.sources.corpus import WebConfig
from owlcrawler_ray.state import seen as seen_mod
from owlcrawler_ray.state.seen import SeenShard

PKG = pathlib.Path(__file__).resolve().parents[1] / "owlcrawler_ray"
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

def _round_dirs(tmp_path, n):
    """n empty dirs standing in for successive checkpoint round dirs."""
    out = [str(tmp_path / f"round{i}") for i in range(n)]
    for d in out:
        os.makedirs(d)
    return out


def _urls(d, name):
    return pq.read_table(os.path.join(d, name)).column("url").to_pylist()


def test_delta_then_ack_then_empty(tmp_path):
    d0, d1, d2 = _round_dirs(tmp_path, 3)
    s = SeenShard(0)
    s.add_many(["http://a/1", "http://a/2"])
    f0 = "seen_delta_0000_r000000_000.parquet"
    assert s.ckpt_write(d0, 0) == [f0]
    assert sorted(_urls(d0, f0)) == ["http://a/1", "http://a/2"]
    s.ckpt_ack(d0)
    # nothing new -> no new file; the committed chain is linked forward
    assert s.ckpt_write(d1, 1) == [f0]
    s.ckpt_ack(d1)
    s.add_many(["http://a/3"])
    chain = s.ckpt_write(d2, 2)
    assert chain == [f0, "seen_delta_0000_r000002_001.parquet"]
    assert _urls(d2, chain[1]) == ["http://a/3"]


def test_unacked_write_resends(tmp_path):
    """A write whose commit never happened (no ack) re-sends the same
    urls in the next write — the at-least-once side of the protocol."""
    d0, d1 = _round_dirs(tmp_path, 2)
    s = SeenShard(0)
    s.add_many(["http://a/1"])
    s.ckpt_write(d0, 0)  # commit "crashes": no ack
    s.add_many(["http://a/2"])
    chain = s.ckpt_write(d1, 1)
    assert chain == ["seen_delta_0000_r000001_000.parquet"]
    assert sorted(_urls(d1, chain[0])) == ["http://a/1", "http://a/2"]


def test_chain_links_forward_into_the_new_round_dir(tmp_path):
    """The shard hardlinks its committed chain into each new round dir
    (shared inode: O(1) disk per inherited file), so every round dir is
    self-contained, and adds its delta after it."""
    d0, d1 = _round_dirs(tmp_path, 2)
    s = SeenShard(3)
    s.add_many(["http://a/1"])
    (f0,) = s.ckpt_write(d0, 0)
    s.ckpt_ack(d0)
    s.add_many(["http://a/2"])
    chain = s.ckpt_write(d1, 1)
    assert chain == [f0, "seen_delta_0003_r000001_001.parquet"]
    assert os.path.samefile(os.path.join(d0, f0), os.path.join(d1, f0))
    assert os.stat(os.path.join(d1, f0)).st_nlink == 2
    assert _urls(d1, chain[1]) == ["http://a/2"]
    # the link survives the old round dir's retention prune
    shutil.rmtree(d0)
    assert _urls(d1, f0) == ["http://a/1"]


def test_force_full_compaction(tmp_path, monkeypatch):
    """A chain of _CKPT_CHAIN_MAX files is rewritten as one full
    snapshot, named with the chain length like any other chain file."""
    monkeypatch.setattr(seen_mod, "_CKPT_CHAIN_MAX", 2)
    dirs = _round_dirs(tmp_path, 4)
    s = SeenShard(0)
    for r, d in enumerate(dirs[:2]):
        s.add_many([f"http://a/{r}"])
        assert len(s.ckpt_write(d, r)) == r + 1
        s.ckpt_ack(d)
    s.add_many(["http://a/2"])
    chain = s.ckpt_write(dirs[2], 2)
    assert chain == ["seen_full_0000_r000002_002.parquet"]
    assert os.listdir(dirs[2]) == chain  # nothing linked forward
    assert _urls(dirs[2], chain[0]) == ["http://a/0", "http://a/1",
                                        "http://a/2"]
    s.ckpt_ack(dirs[2])
    # the compacted chain grows by deltas again
    s.add_many(["http://a/3"])
    assert s.ckpt_write(dirs[3], 3) == [
        chain[0], "seen_delta_0000_r000003_001.parquet"]


def test_failed_commit_then_retry_keeps_the_committed_chain(tmp_path):
    """A checkpoint whose manifest never commits (no ack) leaves the
    committed chain and its round dir as they were: the retry links from
    the committed dir, not from the failed tmp dir, and re-sends every
    pending url under the same seq."""
    d0, failed, retry = _round_dirs(tmp_path, 3)
    s = SeenShard(0)
    s.add_many(["http://a/1"])
    (f0,) = s.ckpt_write(d0, 0)
    s.ckpt_ack(d0)
    s.add_many(["http://a/2"])
    assert s.ckpt_write(failed, 1) == [
        f0, "seen_delta_0000_r000001_001.parquet"]
    shutil.rmtree(failed)  # the failed attempt's tmp dir is cleared
    s.add_many(["http://a/3"])
    chain = s.ckpt_write(retry, 1)
    assert chain == [f0, "seen_delta_0000_r000001_001.parquet"]
    assert os.path.samefile(os.path.join(d0, f0), os.path.join(retry, f0))
    assert _urls(retry, chain[1]) == ["http://a/2", "http://a/3"]


def test_full_write_covers_spilled_runs(tmp_path, monkeypatch):
    """The full-snapshot path must enumerate the WHOLE shard state — hot
    set plus disk-spilled sorted runs; a shard restored from that single
    file answers membership identically. This is the 10^10-URL
    configuration (spill_dir set), so a miss here would silently drop
    spilled urls from every compaction."""
    monkeypatch.setattr(seen_mod, "_CKPT_CHAIN_MAX", 0)  # compact at once
    d0, d1 = _round_dirs(tmp_path, 2)
    urls = [f"http://h{i % 7}/p{i}" for i in range(50)]
    s = SeenShard(0, spill_dir=str(tmp_path / "spill"), max_mem_urls=8)
    for i in range(0, 50, 6):
        s.add_many(urls[i:i + 6])  # crosses max_mem_urls repeatedly
    assert s._runs and s.urls, "precondition: spilled runs AND a hot set"
    chain = s.ckpt_write(d0, 0)
    assert chain == ["seen_full_0000_r000000_000.parquet"]
    assert _urls(d0, chain[0]) == sorted(urls)
    probe = urls + [u + "x" for u in urls]
    fresh = SeenShard(1)
    fresh.restore_chain(d0, chain)
    assert list(fresh.contains_many(probe)) == [u in urls for u in probe]
    # restore wiped the pending urls and took over the chain: the next
    # checkpoint writes nothing new and links the restored chain forward
    monkeypatch.setattr(seen_mod, "_CKPT_CHAIN_MAX", 64)
    assert fresh.ckpt_write(d1, 1) == chain
    assert os.path.samefile(os.path.join(d0, chain[0]),
                            os.path.join(d1, chain[0]))


def test_inherit_chain_missing_source_fails_loudly(tmp_path):
    """A chain file absent from the shard's committed round dir is a
    broken invariant (external deletion / non-shared checkpoint root):
    the error must name the file and round dir, not die in a copy
    fallback."""
    import pytest

    d0, d1 = _round_dirs(tmp_path, 2)
    s = SeenShard(0)
    s.add_many(["http://a/1"])
    (f0,) = s.ckpt_write(d0, 0)
    s.ckpt_ack(d0)
    os.remove(os.path.join(d0, f0))
    with pytest.raises(RuntimeError, match="missing from committed"):
        s.ckpt_write(d1, 1)


# ---- source scan: the state package owns the checkpoint files ----------

def _code_strings(tree):
    """String constants of a module, its docstrings left out."""
    docs = {id(n.body[0].value) for n in ast.walk(tree)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)}
    return [n.value for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and id(n) not in docs]


def test_only_the_state_package_names_or_links_chain_files():
    """The seen chain's file names and its hardlinks are coded once, in
    owlcrawler_ray/state/; the crawl driver reads no parquet at all."""
    offenders = []
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        if not rel.startswith("state/"):
            offenders += [f"{rel}: {v!r}" for v in _code_strings(tree)
                          if "seen_delta_" in v or "seen_full_" in v]
            offenders += [
                f"{rel}:{n.lineno}: os.link" for n in ast.walk(tree)
                if (isinstance(n, ast.Attribute) and n.attr == "link"
                    and isinstance(n.value, ast.Name) and n.value.id == "os")
                or (isinstance(n, ast.ImportFrom) and n.module == "os"
                    and any(a.name == "link" for a in n.names))]
        if rel == "pipelines/crawl.py":
            offenders += [
                f"{rel}:{n.lineno}: imports pyarrow.parquet"
                for n in ast.walk(tree)
                if (isinstance(n, ast.Import) and any(
                    a.name == "pyarrow.parquet" for a in n.names))
                or (isinstance(n, ast.ImportFrom) and (
                    n.module == "pyarrow.parquet"
                    or (n.module == "pyarrow"
                        and any(a.name == "parquet" for a in n.names))))]
    assert offenders == []


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

"""Kill-and-resume: a crawl stopped mid-flight (tick cap simulates the
kill) and resumed from its checkpoint must produce row-identical pages,
attempts and images to an uninterrupted run."""

import json
import os
import shutil

import pyarrow as pa
import pytest

from owlcrawler_ray.pipelines.crawl import CrawlConfig, Crawler, run_crawl
from owlcrawler_ray.sources.corpus import WebConfig

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
    pages = sorted(
        c.pages_table().to_pylist(), key=lambda r: r["fetch_seq"]
    )
    atts = sorted(c.attempts_table().to_pylist(), key=lambda r: r["tick"])
    imgs = sorted(
        c.images_table().to_pylist(), key=lambda r: (r["tick"], r["img_idx"])
    )
    return pages, atts, imgs


def test_resume_is_identical(ray_session, tmp_path):
    full_base = str(tmp_path / "full")
    part_base = str(tmp_path / "part")
    shutil.rmtree(full_base, ignore_errors=True)
    shutil.rmtree(part_base, ignore_errors=True)

    c_full, _ = run_crawl(_cfg(full_base))
    full = _rows(c_full)
    c_full.shutdown()

    # "kill" mid-crawl (the full crawl takes ~21 ticks)
    c1, s1 = run_crawl(_cfg(part_base, max_ticks=12))
    assert s1["ticks"] <= 12
    assert s1["fetched"] < len(full[0])
    c1.shutdown()
    # resume with the cap lifted (execution knobs may change freely)
    c2, s2 = run_crawl(_cfg(part_base, budget_per_round=17), resume=True)
    resumed = _rows(c2)
    c2.shutdown()

    assert s2["fetched"] == len(full[0])
    for got, want, name in zip(resumed, full, ("pages", "attempts", "images")):
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert g == w, f"{name} row mismatch: {g} != {w}"


@pytest.mark.parametrize("ns,nf", [(3, 2), (2, 3)])
def test_resume_with_unequal_shard_counts_is_identical(ray_session, tmp_path,
                                                       ns, nf):
    """Kill and resume with unequal seen and frontier shard counts: the
    checkpoint and restore fan-outs pair frontier file i and seen chain i
    with state actor i, including the actors that host one role only."""
    full_base = str(tmp_path / "full")
    part_base = str(tmp_path / "part")
    kw = dict(num_seen_shards=ns, num_frontier_shards=nf)

    c_full, _ = run_crawl(_cfg(full_base, **kw))
    full = _rows(c_full)
    c_full.shutdown()

    c1, s1 = run_crawl(_cfg(part_base, max_ticks=12, **kw))
    assert s1["fetched"] < len(full[0])
    c1.shutdown()
    c2, s2 = run_crawl(_cfg(part_base, budget_per_round=17, **kw),
                       resume=True)
    resumed = _rows(c2)
    c2.shutdown()

    assert s2["fetched"] == len(full[0]) == s2["seen"]
    assert s2["frontier_left"] == 0
    for got, want, name in zip(resumed, full, ("pages", "attempts", "images")):
        assert got == want, f"{name} mismatch"


def _files(base):
    """(size, mtime) of every file under ``base``."""
    out = {}
    for d, _, names in os.walk(base):
        for n in names:
            st = os.stat(os.path.join(d, n))
            out[os.path.join(d, n)] = (st.st_size, st.st_mtime_ns)
    return out


def test_resume_refuses_changed_web(ray_session, tmp_path):
    """A resume refuses a checkpoint of another crawl config or of another
    checkpoint format, and leaves its files in place: a different web; a
    manifest with no ``format`` (as every manifest written before the
    format was versioned) or a newer one; and a polite checkpoint whose
    politeness block kept its defaults, resumed with rate/burst set (an
    identity once accepted as a legacy fingerprint)."""
    from owlcrawler_ray.sinks.checkpoint import FORMAT, CheckpointManager
    from owlcrawler_ray.state.politeness import PolitenessConfig

    base = str(tmp_path / "cfgchange")
    shutil.rmtree(base, ignore_errors=True)
    c1, _ = run_crawl(_cfg(base, max_ticks=12))
    c1.shutdown()
    other = CrawlConfig(
        web=WebConfig(num_hosts=5, base_pages=4, n_seed_hosts=2),
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
    )
    with pytest.raises(ValueError, match="different crawl config"):
        Crawler(other, resume=True)

    mgr = CheckpointManager(f"{base}/ckpt")
    mpath = os.path.join(mgr.round_dir(mgr.latest_round()), "manifest.json")
    with open(mpath) as f:
        manifest = json.load(f)
    assert manifest["format"] == FORMAT
    for fmt in (None, FORMAT + 1):
        m = {k: v for k, v in manifest.items() if k != "format"}
        if fmt is not None:
            m["format"] = fmt
        with open(mpath, "w") as f:
            json.dump(m, f)
        before = _files(base)
        with pytest.raises(ValueError, match=(
                f"has format {fmt or 'none'}, this build reads format "
                f"{FORMAT}; delete the checkpoint dir")):
            Crawler(_cfg(base), resume=True)
        assert _files(base) == before

    pbase = str(tmp_path / "polite")
    c2, _ = run_crawl(_cfg(pbase, mode="polite", max_ticks=12))
    c2.shutdown()
    rate_burst = _cfg(
        pbase, mode="polite",
        politeness=PolitenessConfig(mode="polite", rate_per_s=1.0, burst=4.0),
    )
    with pytest.raises(ValueError, match="different crawl config"):
        Crawler(rate_burst, resume=True)


def test_restart_without_resume_flag_starts_fresh(ray_session, tmp_path):
    base = str(tmp_path / "fresh")
    shutil.rmtree(base, ignore_errors=True)
    c1, s1 = run_crawl(_cfg(base, max_ticks=12))
    c1.shutdown()
    # fresh (non-resume) run over the same dirs: the earlier crawl's
    # rounds are cleared, state rebuilt from scratch deterministically
    c2, s2 = run_crawl(_cfg(base))
    try:
        assert s2["fetched"] >= s1["fetched"]
        urls = [p["url"] for p in c2.pages_table().to_pylist()]
        assert len(urls) == len(set(urls))
    finally:
        c2.shutdown()


def test_fresh_crawl_does_not_inherit_stale_spill_runs(ray_session, tmp_path):
    """seen_spill mode: SeenShard.__init__ loads any seen_run_* files in
    its spill dir (needed for mid-crawl actor restarts). A FRESH crawl
    reusing the ckpt_dir must NOT inherit the previous crawl's spilled
    seen set — stale runs would mark every URL already-seen and silently
    suppress all fetches."""
    import glob

    base = str(tmp_path / "spillfresh")
    shutil.rmtree(base, ignore_errors=True)
    spill_kw = dict(seen_spill=True, seen_max_mem_urls=2)
    c1, s1 = run_crawl(_cfg(base, **spill_kw))
    c1.shutdown()
    # the first crawl must actually have spilled for the test to bite
    assert glob.glob(f"{base}/ckpt/seen_spill/seen_run_*.parquet")

    c2, s2 = run_crawl(_cfg(base, **spill_kw))
    try:
        assert s2["fetched"] == s1["fetched"]
        urls = [p["url"] for p in c2.pages_table().to_pylist()]
        assert len(urls) == len(set(urls)) == s1["fetched"]
    finally:
        c2.shutdown()


def test_fresh_crawl_clears_stale_spill_driver_side(ray_session, tmp_path):
    """The stale-run guard runs BEFORE the seen shards exist: a fresh
    crawl over a reused ckpt_dir deletes the previous crawl's
    seen_run_* files driver-side instead of letting every shard load
    O(previous seen set) into its filter only to discard it."""
    import os

    from owlcrawler_ray.pipelines.crawl import CrawlConfig, Crawler
    from owlcrawler_ray.sources.corpus import WebConfig

    base = str(tmp_path)
    cfg = CrawlConfig(
        web=WebConfig(num_hosts=2, base_pages=4, n_seed_hosts=1),
        budget_per_round=16,
        out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=1, image_concurrency=1,
        seen_spill=True, seen_max_mem_urls=4,
    )
    spill = f"{base}/ckpt/seen_spill"
    os.makedirs(spill, exist_ok=True)
    stale = f"{spill}/seen_run_0000_000000.parquet"
    pa.parquet.write_table(
        pa.table({"url": pa.array(["http://stale.test/"], pa.string()),
                  "url_hash": pa.array([7], pa.uint64())}),
        stale,
    )
    c = Crawler(cfg)  # fresh: no checkpoint committed in ckpt_dir
    try:
        assert not os.path.exists(stale)
    finally:
        c.shutdown()


def test_fresh_crawl_over_reused_dirs_starts_over(ray_session, tmp_path):
    """A fresh crawl over the dirs of an earlier, longer crawl starts over:
    checkpoint retention must not keep the earlier crawl's newer round
    ids (pruning the fresh crawl's own rounds broke its seen chain), the
    views must not serve the earlier crawl's rows, and a later resume
    continues the fresh crawl — row-identical to one uninterrupted run."""
    base = str(tmp_path / "reuse")
    kw = dict(budget_per_round=5, ckpt_keep=2)
    c1, s1 = run_crawl(_cfg(base, **kw))
    full = _rows(c1)
    c1.shutdown()
    assert s1["rounds"] > 4  # more rounds than the retention keeps

    c2, s2 = run_crawl(_cfg(base, max_ticks=6, **kw))
    try:
        assert 0 < s2["fetched"] < s1["fetched"]
        assert c2.pages_table().num_rows == s2["fetched"]
        assert c2.ckpt.latest_round() < s1["rounds"]
    finally:
        c2.shutdown()

    c3, s3 = run_crawl(_cfg(base, **kw), resume=True)
    resumed = _rows(c3)
    c3.shutdown()
    assert s3["fetched"] == s1["fetched"]
    for got, want, name in zip(resumed, full, ("pages", "attempts", "images")):
        assert got == want, name


def test_resume_prunes_stale_rounds_after_checkpoint(ray_session, tmp_path):
    """A kill INSIDE the checkpoint_every window leaves committed output
    rounds NEWER than the newest checkpoint. Resuming with a different
    budget re-chunks those rounds; the stale dirs must be pruned or
    commit_round would keep them and silently drop the recomputed rows."""
    import os

    full_base = str(tmp_path / "prunefull")
    base = str(tmp_path / "prune")
    c_full, _ = run_crawl(_cfg(full_base))
    full = _rows(c_full)
    c_full.shutdown()

    c1, _ = run_crawl(_cfg(base, budget_per_round=5, max_ticks=15))
    c1.shutdown()
    ckpt_root = f"{base}/ckpt"
    rounds = sorted(
        int(d.split("=")[1]) for d in os.listdir(ckpt_root)
        if d.startswith("round=") and not d.endswith(".tmp")
    )
    assert len(rounds) >= 4
    # simulate the kill: the newest checkpoints never landed, but the
    # rounds' output dirs did (they are written before the checkpoint).
    # (run() also writes a final post-loop checkpoint at round_id+1 with
    # no output round of its own — drop that one and the last real one.)
    for r in rounds[-2:]:
        shutil.rmtree(os.path.join(ckpt_root, f"round={r:06d}"))
    import owlcrawler_ray.sinks.table_store as ts
    stale = rounds[-2]
    assert stale in ts.list_rounds(f"{base}/out", "pages")  # stale

    # resume with a DIFFERENT budget (fingerprint allows it): round
    # boundaries shift, so the stale round would collide
    c2, s2 = run_crawl(_cfg(base, budget_per_round=17), resume=True)
    resumed = _rows(c2)
    c2.shutdown()
    assert c2.metrics.get("pruned_on_resume", {}).get("pages") == [stale]
    assert s2["fetched"] == len(full[0])
    for got, want, name in zip(resumed, full, ("pages", "attempts", "images")):
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert g == w, f"{name} row mismatch: {g} != {w}"


def test_fingerprint_tokenizes_fetcher_factory():
    """A non-default fetcher is the page SOURCE: resuming with a
    different transport must trip the fingerprint guard (the default,
    None, adds no fetcher entry)."""
    from dataclasses import replace
    from functools import partial

    from owlcrawler_ray.pipelines.crawl import CrawlConfig
    from owlcrawler_ray.stages.fetch import HttpFetcher

    base = CrawlConfig()
    h1 = replace(base, fetcher_factory=partial(
        HttpFetcher, rewrite_base="http://127.0.0.1:1"))
    h2 = replace(base, fetcher_factory=partial(
        HttpFetcher, rewrite_base="http://127.0.0.1:2"))
    assert base.fingerprint() != h1.fingerprint()
    assert h1.fingerprint() != h2.fingerprint()
    # equal configs agree across distinct factory objects (no repr/id)
    again = replace(base, fetcher_factory=partial(
        HttpFetcher, rewrite_base="http://127.0.0.1:1"))
    assert h1.fingerprint() == again.fingerprint()


def test_stamps_cache_invalidates_on_rewrite(tmp_path):
    """The per-worker stamps-sidecar cache must not serve a pre-resume
    table for a path a resumed run pruned and REWROTE (the stamps part
    name is keyed by round id alone, so the path repeats): the cache key
    includes each part's (mtime, size)."""
    import os

    import pyarrow as pa

    from owlcrawler_ray.pipelines.crawl import _read_stamps
    from owlcrawler_ray.sinks import table_store

    p = str(tmp_path / ("part-x" + table_store.WRITER.ext))
    t1 = pa.table({"url": ["a"], "tick": pa.array([1], pa.int64())})
    table_store.WRITER.write(t1, p)
    got1 = _read_stamps(table_store.WRITER.name, (p,))
    assert got1.column("tick").to_pylist() == [1]
    # rewrite the SAME path with different content (what prune+rerun
    # does); nudge mtime in case the fs clock is coarse
    t2 = pa.table({"url": ["a"], "tick": pa.array([2], pa.int64())})
    table_store.WRITER.write(t2, p)
    st = os.stat(p)
    os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
    got2 = _read_stamps(table_store.WRITER.name, (p,))
    assert got2.column("tick").to_pylist() == [2]
    # and the memo still works for an UNCHANGED file
    assert _read_stamps(table_store.WRITER.name, (p,)) is got2


def test_ckpt_retention_bounds_disk_and_resume_survives(ray_session,
                                                        tmp_path):
    """ckpt_keep=2: only the newest 2 committed checkpoint rounds survive
    a crawl (each is a full frontier+seen snapshot — unbounded retention
    is O(rounds x |seen|) disk at scale), and a kill+resume through the
    retained window still reproduces the uninterrupted run row-for-row."""
    import os

    full_base = str(tmp_path / "retfull")
    base = str(tmp_path / "ret")
    c_full, _ = run_crawl(_cfg(full_base))
    full = _rows(c_full)
    c_full.shutdown()

    c1, s1 = run_crawl(_cfg(base, budget_per_round=5, max_ticks=15,
                            ckpt_keep=2))
    c1.shutdown()
    ckpt_root = f"{base}/ckpt"
    rounds = sorted(
        int(d.split("=")[1]) for d in os.listdir(ckpt_root)
        if d.startswith("round=") and not d.endswith(".tmp")
    )
    assert len(rounds) == 2  # retention enforced
    assert c1.metrics.get("ckpt_pruned")  # older rounds were swept
    # the metric history is bounded: total counter + recent-id window
    assert c1.metrics["ckpt_pruned_total"] == len(c1.metrics["ckpt_pruned"])
    # the pruned ids + survivors partition the full round history
    assert sorted(c1.metrics["ckpt_pruned"] + rounds) == list(
        range(rounds[0] - len(c1.metrics["ckpt_pruned"]), rounds[-1] + 1)
    )

    c2, s2 = run_crawl(_cfg(base, budget_per_round=5, ckpt_keep=2),
                       resume=True)
    resumed = _rows(c2)
    c2.shutdown()
    assert s2["fetched"] == len(full[0])
    for got, want, name in zip(resumed, full, ("pages", "attempts", "images")):
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert g == w, name


@pytest.mark.parametrize("kills", [(6, 13), (9, 15)])
def test_double_kill_double_resume_is_identical(ray_session, tmp_path, kills):
    """Two kills, two resumes: the delta-chain checkpoint protocol's
    hardest path — the SECOND resume inherits a chain that was itself
    extended by a resumed run (inherit_chain over inherited links, delta
    writes and acks stacked across process generations). Final pages /
    attempts / images must be row-identical to an uninterrupted crawl,
    and the seen-set must hold no duplicates. Kill points are tick caps
    at differing round boundaries; execution knobs change across resumes
    (allowed — only the web/politeness fingerprint is pinned)."""
    k1, k2 = kills
    full_base = str(tmp_path / "full")
    part_base = str(tmp_path / "part")
    shutil.rmtree(full_base, ignore_errors=True)
    shutil.rmtree(part_base, ignore_errors=True)

    c_full, _ = run_crawl(_cfg(full_base))
    full = _rows(c_full)
    c_full.shutdown()

    c1, s1 = run_crawl(_cfg(part_base, max_ticks=k1))
    assert s1["fetched"] < len(full[0])
    c1.shutdown()
    c2, s2 = run_crawl(_cfg(part_base, max_ticks=k2, budget_per_round=7),
                       resume=True)
    assert s2["fetched"] < len(full[0])  # the second kill must also bite
    c2.shutdown()
    c3, s3 = run_crawl(_cfg(part_base, budget_per_round=17), resume=True)
    resumed = _rows(c3)
    c3.shutdown()

    assert s3["fetched"] == len(full[0])
    for got, want, name in zip(resumed, full, ("pages", "attempts", "images")):
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert g == w, f"{name} row mismatch: {g} != {w}"


def test_double_resume_with_seen_spill(ray_session, tmp_path):
    """Same double-kill chain in the 10^10-scale seen configuration
    (seen_spill + tiny in-memory cap): each resume must rebuild shard
    membership from BOTH the checkpoint chain and the inherited spill
    runs without double-counting — a duplicate fetch or a suppressed
    one both break row-identity with the uninterrupted run."""
    import glob

    full_base = str(tmp_path / "sfull")
    part_base = str(tmp_path / "spart")
    shutil.rmtree(full_base, ignore_errors=True)
    shutil.rmtree(part_base, ignore_errors=True)
    spill_kw = dict(seen_spill=True, seen_max_mem_urls=2)

    c_full, _ = run_crawl(_cfg(full_base, **spill_kw))
    full = _rows(c_full)
    c_full.shutdown()

    c1, s1 = run_crawl(_cfg(part_base, max_ticks=8, **spill_kw))
    assert s1["fetched"] < len(full[0])
    c1.shutdown()
    assert glob.glob(f"{part_base}/ckpt/seen_spill/seen_run_*.parquet")
    c2, s2 = run_crawl(_cfg(part_base, max_ticks=14, **spill_kw),
                       resume=True)
    assert s2["fetched"] < len(full[0])
    c2.shutdown()
    c3, s3 = run_crawl(_cfg(part_base, **spill_kw), resume=True)
    resumed = _rows(c3)
    c3.shutdown()

    assert s3["fetched"] == len(full[0])
    for got, want, name in zip(resumed, full, ("pages", "attempts", "images")):
        assert got == want, f"{name} mismatch"


def test_resume_reads_no_state_file_on_the_driver(ray_session, tmp_path,
                                                  monkeypatch):
    """Each state actor reads its own checkpoint files: on resume the
    driver reads the manifest and no parquet file (no queue, no seen
    chain), and the resumed polite crawl with a spilled seen set on two
    seen shards equals the uninterrupted one."""
    import pyarrow.parquet as pq

    from owlcrawler_ray.state.politeness import PolitenessConfig

    kw = dict(mode="polite", budget_per_round=32, checkpoint_every=1,
              politeness=PolitenessConfig(mode="polite", rate_per_s=2.0,
                                          burst=4.0),
              seen_spill=True, seen_max_mem_urls=2,
              num_seen_shards=2, num_frontier_shards=2)
    c_full, s_full = run_crawl(_cfg(str(tmp_path / "full"), **kw))
    full = _rows(c_full)
    c_full.shutdown()

    part = str(tmp_path / "part")
    # stopped at a round boundary, as perfbench's polite resume is
    c1, s1 = run_crawl(_cfg(part, max_rounds=s_full["rounds"] // 2, **kw))
    assert 0 < s1["fetched"] < len(full[0])
    c1.shutdown()
    reads = []
    read_table = pq.read_table

    def counted(*a, **k):
        reads.append(a)
        return read_table(*a, **k)

    monkeypatch.setattr(pq, "read_table", counted)
    c2 = Crawler(_cfg(part, **kw), resume=True)
    monkeypatch.undo()
    try:
        assert reads == []
        s2 = c2.run()
        resumed = _rows(c2)
    finally:
        c2.shutdown()
    assert s2["fetched"] == len(full[0])
    for got, want, name in zip(resumed, full, ("pages", "attempts", "images")):
        assert got == want, f"{name} mismatch"

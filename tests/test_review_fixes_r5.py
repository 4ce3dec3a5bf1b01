"""Regression tests for the round-5 closing review findings: polite-mode
livelock config, write_round's Dataset branch part naming, mid-commit
reader races, checkpoint-manifest metrics alignment, and the images
metric counting the store's rows. (The max_ticks cap's token debit is
tested with the admission: tests/test_settle.py and
tests/test_commit_dedup.py.)"""

import os
import shutil

import pyarrow as pa
import pytest

from owlcrawler_ray.pipelines.crawl import CrawlConfig, Crawler, run_crawl
from owlcrawler_ray.sinks import table_store
from owlcrawler_ray.sinks.checkpoint import CheckpointManager
from owlcrawler_ray.sources.corpus import SyntheticWeb, WebConfig
from owlcrawler_ray.state.politeness import PolitenessConfig

WEB = WebConfig(num_hosts=3, base_pages=6, hot_factor=2, n_seed_hosts=2)


def _cfg(base, **kw):
    kw.setdefault("budget_per_round", 10)
    return CrawlConfig(
        web=WEB, out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
        fetch_concurrency=2, image_concurrency=1, **kw,
    )


# -- finding 1: polite-mode buckets that can never grant a token ----------

def test_polite_zero_rate_config_refused(tmp_path):
    for pol in (
        PolitenessConfig(mode="polite", rate_per_s=0.0, burst=4.0),
        PolitenessConfig(mode="polite", rate_per_s=1.0, burst=0.5),
    ):
        with pytest.raises(ValueError, match="spin forever"):
            Crawler(_cfg(str(tmp_path / "z"), mode="polite", politeness=pol))


# -- finding 2: write_round's Dataset branch must produce readable parts --

def test_write_round_dataset_branch_parts_readable(ray_session, tmp_path):
    import ray.data as rd

    root = str(tmp_path / "dsround")
    t = pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]})
    table_store.write_round(rd.from_arrow(t), root, "pages", 0)
    wname, paths = table_store.round_part_paths(root, "pages", 0)
    assert paths, "Dataset-branch parts must be discoverable (part-*)"
    assert all(os.path.basename(p).startswith("part-") for p in paths)
    back = table_store.read_all_arrow(root, "pages")
    assert back.num_rows == 3
    assert sorted(back.column("k").to_pylist()) == [1, 2, 3]
    assert table_store.round_num_rows(root, "pages", 0) == 3


# -- finding 3: readers racing the pages->stamps commit window ------------

def test_round_part_paths_missing_round_dir_is_empty(tmp_path):
    wname, paths = table_store.round_part_paths(str(tmp_path), "stamps", 7)
    assert paths == []
    assert table_store.round_num_rows(str(tmp_path), "stamps", 7) == 0


def test_stamped_view_skips_uncommitted_stamps_round(ray_session, tmp_path):
    base = str(tmp_path / "race")
    c, _ = run_crawl(_cfg(base))
    try:
        full = c.pages_table().num_rows
        rounds = table_store.list_rounds(c.cfg.out_dir, "pages")
        assert len(rounds) >= 2
        # simulate a reader landing between the pages commit and the
        # stamps commit of the LAST round: its stamps _SUCCESS is absent
        last = rounds[-1]
        os.remove(os.path.join(
            c.cfg.out_dir, "stamps", f"round={last:06d}", "_SUCCESS"))
        partial = c.pages_table()
        assert 0 < partial.num_rows < full  # skipped, not crashed
    finally:
        c.shutdown()


# -- finding 5: checkpoint manifest carries the CURRENT round's metrics ---

def test_checkpoint_manifest_metrics_current_round(ray_session, tmp_path):
    base = str(tmp_path / "manifest")
    c, _ = run_crawl(_cfg(base, checkpoint_every=1))
    try:
        ck = CheckpointManager(c.cfg.ckpt_dir)
        for m in c.metrics["rounds"]:
            _, _, manifest = ck.load(m["round"])
            assert manifest["metrics"].get("round") == m["round"]
            assert manifest["metrics"]["attempts"] == m["attempts"]
    finally:
        c.shutdown()


# -- finding 6: the images metric reports the store's actual rows ---------

def test_images_metric_matches_store_rows(ray_session, tmp_path):
    base = str(tmp_path / "imgmetric")
    c, _ = run_crawl(_cfg(base))
    try:
        store_rows = table_store.read_all_arrow(
            c.cfg.out_dir, "images", columns=["image_id"]).num_rows
        metric_rows = sum(m["images"] for m in c.metrics["rounds"])
        assert metric_rows == store_rows
        assert store_rows > 0
    finally:
        c.shutdown()


# -- codec robustness: bounded allocation on hostile payloads -------------

def test_decode_rejects_zlib_bomb_bounded():
    """A high-ratio stream behind a valid header must raise ValueError
    after at most w*h*3 bytes of decompression, not allocate the full
    expansion."""
    import zlib
    from owlcrawler_ray.functions import codec

    head = (codec.MAGIC + bytes([0, 0])  # png, shift 0
            + (8).to_bytes(2, "little") + (8).to_bytes(2, "little"))
    bomb = head + zlib.compress(b"\x00" * (64 << 20), 9)  # 64 MB of zeros
    with pytest.raises(ValueError):
        codec.decode(bomb)


def test_decode_rejects_zero_dimension_header():
    """w=0 or h=0 'decodes' to a (0,w,3) array that crashes phash64 /
    resize_nearest with IndexError OUTSIDE their except-ValueError guards
    (would kill the whole crawl round / thumbnail pass); decode must
    normalize it to the documented ValueError."""
    import zlib
    from owlcrawler_ray.functions import codec

    for w, h in ((0, 8), (8, 0), (0, 0)):
        head = (codec.MAGIC + bytes([0, 0])
                + w.to_bytes(2, "little") + h.to_bytes(2, "little"))
        with pytest.raises(ValueError):
            codec.decode(head + zlib.compress(b""))


def test_decode_rejects_absurd_header_dims():
    import zlib
    from owlcrawler_ray.functions import codec

    head = (codec.MAGIC + bytes([0, 0])
            + (65535).to_bytes(2, "little") + (65535).to_bytes(2, "little"))
    with pytest.raises(ValueError):
        codec.decode(head + zlib.compress(b"\x00" * 100))


def test_decode_roundtrip_unchanged_after_bounding():
    import numpy as np
    from owlcrawler_ray.functions import codec

    for fmt in ("png", "jpeg", "webp"):
        pix = codec.synth_pixels("bound-check", 33, 17)
        back, f, w, h = codec.decode(codec.encode(pix, fmt))
        assert (f, w, h) == (fmt, 33, 17)
        if fmt == "png":
            assert np.array_equal(back, pix)


def test_video_decode_rejects_hostile_frame_count():
    from owlcrawler_ray.functions import codec

    buf = codec.VIDEO_MAGIC + (2**32 - 1).to_bytes(4, "little")
    assert codec.video_frame_count(buf) == 2**32 - 1  # count is cheap
    with pytest.raises(ValueError, match="beyond the payload"):
        codec.decode_video_frames(buf)


def test_video_roundtrip_unchanged_after_bounding():
    from owlcrawler_ray.functions import codec

    frames = [codec.synth_pixels(f"vf{i}", 16, 16) for i in range(5)]
    buf = codec.encode_video(frames, "png")
    got = codec.decode_video_frames(buf, stride=2)
    assert len(got) == 3


# -- river: empty store must yield an empty index, not a KeyError ---------

def test_river_empty_store_searchable(tmp_path):
    from owlcrawler_ray.pipelines.river import IndexRiver

    r = IndexRiver(str(tmp_path / "fresh"))
    idx = r.index_table()
    assert idx.num_rows == 0
    assert set(idx.column_names) == {"word", "doc_id", "n"}
    hits = r.search("anything")
    assert hits.num_rows == 0


# -- images_table: distributed generator refuses out-of-table indices -----

def test_rows_for_indices_rejects_past_dup_cap():
    from owlcrawler_ray.sources.images_table import (make_images_table,
                                                     rows_for_indices)

    n, nd = 2, 5  # make_ caps dups at n -> 4 rows total
    assert make_images_table(n, nd).num_rows == n + min(nd, n)
    with pytest.raises(ValueError, match="beyond make_images_table"):
        rows_for_indices(range(n + nd), n, nd)
    ok = rows_for_indices(range(n + min(nd, n)), n, nd)
    assert ok.num_rows == n + min(nd, n)
    # and the in-range rows still match the driver table exactly
    assert ok.equals(make_images_table(n, nd))

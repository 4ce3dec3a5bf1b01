"""Verification for the non-SQL operators: LSH-ANN recall vs brute force,
simhash/fingerprint determinism + near-dup behavior, image decode/phash
pipelines, language-ID shape; and edge semantics of oracled queries on
tiny hand-built corpora against naive Python references (duplicate-ngram
fraction, source overlap, BM25, int8 quantization)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from owlcrawler_ray.functions import codec
from owlcrawler_ray.functions.textops import (
    fingerprints,
    hamming64_many,
    min_fingerprint,
    predict_lang,
    simhash64,
)

SF = "/root/testdata/sf0.001"


def test_simhash_properties():
    a = simhash64("the quick brown fox jumps over the lazy dog")
    assert a == simhash64("the quick brown fox jumps over the lazy dog")
    near = simhash64("the quick brown fox jumps over the lazy cat")
    far = simhash64("completely different words entirely unrelated text")
    h_near = bin((a ^ near) & (2**64 - 1)).count("1")
    h_far = bin((a ^ far) & (2**64 - 1)).count("1")
    assert h_near < h_far
    assert simhash64("") == 0


def test_simhash_batch_matches_reference():
    """simhash64_batch must be BIT-IDENTICAL to the per-doc reference
    (the dedup query's SQL oracle embeds per-doc values), including
    empty docs, repeated words, multi-space runs and unicode."""
    import pyarrow as pa

    from owlcrawler_ray.functions.textops import simhash64, simhash64_batch

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy cat",
        "",
        " ",
        "solo",
        "a a a a b",
        "  double  spaces   and\ttabs stay one token",
        "naïve café über 北京 déjà-vu",
        "x " * 500,
    ]
    got = simhash64_batch(pa.array(texts, pa.string()))
    want = [simhash64(t) for t in texts]
    assert got.tolist() == want
    # Arrow nulls behave as empty docs (split_pattern propagates null,
    # list_parent_indices skips them) — pin it
    from owlcrawler_ray.functions.textops import (
        min_fingerprint,
        min_fingerprint_batch,
    )

    nul = pa.array(["hello world foo", None, "", "a b c"], pa.string())
    assert simhash64_batch(nul).tolist() == [
        simhash64(t or "") for t in nul.to_pylist()]
    assert min_fingerprint_batch(nul).tolist() == [
        min_fingerprint(t or "") for t in nul.to_pylist()]


def test_min_fingerprint_batch_matches_reference():
    """min_fingerprint_batch must be BIT-IDENTICAL to the per-doc
    reference (the doc_fingerprints SQL oracle replicates the rolling
    hash value-for-value), across empty docs, short docs at every
    length up to the window, the exact-window boundary, and unicode."""
    import random

    import pyarrow as pa

    from owlcrawler_ray.functions.textops import (
        min_fingerprint,
        min_fingerprint_batch,
    )

    texts = [
        "", " ", "solo", "a b",
        "one two three four five six seven",          # n = window - 1
        "one two three four five six seven eight",    # n = window
        "one two three four five six seven eight 9",  # n = window + 1
        "  double  spaces   everywhere  ",
        "naïve café über 北京 déjà-vu more words here and there ok",
        "a " * 100,
    ]
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(50)]
    texts += [" ".join(rng.choice(vocab) for _ in range(rng.randrange(30)))
              for _ in range(200)]
    got = min_fingerprint_batch(pa.array(texts, pa.string()))
    assert got.tolist() == [min_fingerprint(t) for t in texts]


def test_fingerprints_rolling_consistency():
    text = " ".join(f"w{i}" for i in range(20))
    fps = fingerprints(text, window=8)
    assert len(fps) == 13  # 20 - 8 + 1
    # rolling hash must equal direct hash of each window
    ws = text.split(" ")
    direct = fingerprints(" ".join(ws[5:13]), window=8)
    assert fps[5] == direct[0]
    assert min_fingerprint(text) == min(fps)
    assert min_fingerprint("") == -1
    # shared windows -> shared fingerprints (copy detection basis)
    other = "x y z " + " ".join(ws[:12])
    assert set(fingerprints(other, window=8)) & set(fps)


def test_predict_lang_markers():
    assert predict_lang("the cat and the dog of the house is in a box") == "en"
    assert predict_lang("el perro y la casa de los gatos en un lugar") == "es"
    assert predict_lang("这是一个中文句子 的 测试 文本 内容") == "zh"
    assert predict_lang("") == "unknown"
    assert predict_lang("qqq zzz xxx www") == "unknown"


def test_hamming64_many():
    a = np.array([0, -1, 5], dtype=np.int64)
    b = np.array([0, 0, 4], dtype=np.int64)
    assert list(hamming64_many(a, b)) == [0, 64, 1]


def test_ann_ivf_recall_vs_brute(ray_session):
    from owlcrawler_ray.pipelines.queries import q_ann_ivf, q_ann_topk

    brute = set(q_ann_topk(SF).to_pandas()["vec_id"])
    approx = set(q_ann_ivf(SF).to_pandas()["vec_id"])
    recall = len(brute & approx) / len(brute)
    assert recall >= 0.5, f"IVF/LSH recall {recall} too low"


def test_ann_int8_recall_vs_brute(ray_session):
    """int8-quantized brute force must nearly reproduce the exact top-k:
    symmetric 8-bit codes perturb cosines by ~1/254 of the max-abs per
    vector, so on 64-dim embeddings the top-20 should survive almost
    intact (>=0.9), and the scores must stay within the quantization
    error bound."""
    from owlcrawler_ray.pipelines.queries import q_ann_topk, q_ann_topk_int8

    brute = set(q_ann_topk(SF).to_pandas()["vec_id"])
    quant = set(q_ann_topk_int8(SF).to_pandas()["vec_id"])
    recall = len(brute & quant) / len(brute)
    assert recall >= 0.9, f"int8 recall {recall} too low"


def test_events_hourly_users_hll_accuracy(ray_session):
    """Per-window HLL distinct-user estimates must stay within
    max(2, 10%·n) of the exact per-hour distinct for EVERY window —
    ~3 sigma of p=10 HLL's 3.3% standard error (the small windows ride
    the near-exact linear-counting branch)."""
    import duckdb

    from owlcrawler_ray.pipelines.queries import q_events_hourly_users_hll

    got = q_events_hourly_users_hll(SF).to_pandas()
    con = duckdb.connect()
    want = con.execute(
        f"SELECT date_trunc('hour', ts) AS hour, "
        f"count(DISTINCT user_id) AS n "
        f"FROM '{SF}/events.parquet' GROUP BY 1"
    ).df()
    m = got.merge(want, on="hour", how="outer")
    assert not m.isna().any().any()  # same window set on both sides
    ae = (m["n_users_hll"] - m["n"]).abs()
    bound = (m["n"] * 0.10).clip(lower=2)
    bad = m[ae > bound]
    assert bad.empty, bad.head()


def test_grouped_hll_registers_match_per_group_sketches():
    """The vectorized grouped-register pass must produce byte-identical
    registers to building one HyperLogLog per group serially."""
    import numpy as _np

    from owlcrawler_ray.functions.sketch import (
        HyperLogLog, grouped_hll_registers, hash64)

    rng = _np.random.default_rng(99)
    groups = rng.integers(0, 7, size=500)
    vals = [f"user-{v}" for v in rng.integers(0, 120, size=500)]
    h = hash64(vals)
    regs = grouped_hll_registers(groups, h, 7, p=6)
    for g in range(7):
        ref = HyperLogLog(6)
        ref.add_hashes(h[groups == g])
        assert (regs[g] == ref.regs).all(), g


def test_ann_pq_recall_vs_brute(ray_session):
    """ADC+exact-rerank product quantization must keep most of the exact
    top-20; uniform vectors are PQ's adversarial case, so the gate
    matches the IVF paths' honest >=0.6 stance."""
    from owlcrawler_ray.pipelines.queries import q_ann_pq, q_ann_topk

    brute = set(q_ann_topk(SF).to_pandas()["vec_id"])
    pq_ = set(q_ann_pq(SF).to_pandas()["vec_id"])
    recall = len(brute & pq_) / len(brute)
    assert recall >= 0.6, f"PQ recall {recall} too low"


def test_ann_queries_typed_empty_on_empty_embeddings(ray_session, tmp_path):
    """An embeddings table with no rows (schema kept) gives every ANN
    query zero rows of the columns and types it returns on sf0.001, and
    ann_topk's result equals its DuckDB oracle's."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from owlcrawler_ray.pipelines import queries as q
    from owlcrawler_ray.sinks import table_store

    def run(name, sf):
        got = q.QUERIES[name](sf)
        return got if isinstance(got, pa.Table) else table_store.collect(got)

    pq.write_table(pq.read_table(f"{SF}/embeddings.parquet").slice(0, 0),
                   tmp_path / "embeddings.parquet")
    want = run("ann_topk", SF).schema
    for name in ("ann_topk", "ann_ivf", "ann_ivf_centroids", "ann_topk_int8",
                 "ann_pq"):
        got = run(name, str(tmp_path))
        assert got.num_rows == 0 and got.schema == want, (name, got.schema)
    con = duckdb.connect()
    con.execute("CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{tmp_path}/embeddings.parquet')")
    oracle = con.execute(q.ORACLES["ann_topk"]).arrow()
    assert oracle.schema == want and oracle.num_rows == 0


def test_images_decode_stats(ray_session):
    from owlcrawler_ray.pipelines.queries import q_images_decode_stats

    df = q_images_decode_stats(SF).to_pandas()
    assert set(df["fmt"]) <= {"png", "jpeg", "webp"}
    # every image decodes, dimensions match, phash recomputes identically
    assert (df["n_decoded"] == df["n_images"]).all()
    assert (df["n_dims_ok"] == df["n_images"]).all()
    assert (df["n_phash_ok"] == df["n_images"]).all()
    assert df["n_images"].sum() >= 70


def test_media_input_memo_is_session_scoped(ray_session):
    """The synthesized media inputs memoize MATERIALIZED per Ray session
    (the stored-table stand-in): same sf -> the same dataset object; the
    memo key carries the live job id so a fresh ray.init() can never be
    served a dead session's object refs; stale-session keys are evicted."""
    import ray as _ray

    from owlcrawler_ray.pipelines import queries as Q

    a = Q._images_input(SF)
    b = Q._images_input(SF)
    assert a is b
    jid = _ray.get_runtime_context().get_job_id()
    assert all(k[0] == jid for k in Q._SESSION_MEMO)
    # a stale entry from a previous session is evicted on the next BUILD
    # (a memo hit doesn't evict — force a build with a unique key)
    Q._SESSION_MEMO[("dead-job", "images", "/nowhere", 1, 1)] = object()
    import ray.data as _rd

    Q._memo_media_input(("test-unique-evict",), lambda: _rd.range(1))
    assert ("dead-job", "images", "/nowhere", 1, 1) not in Q._SESSION_MEMO
    del Q._SESSION_MEMO[(jid, "test-unique-evict")]
    # and the memoized input still yields the documented table shape
    assert set(a.schema().names) == {
        "image_id", "bytes", "w", "h", "fmt", "caption", "phash"
    }


def test_images_rows_for_indices_matches_driver_table():
    import numpy as np

    from owlcrawler_ray.sources.images_table import (
        make_images_table,
        rows_for_indices,
    )

    want = make_images_table(12, with_near_dups=4)
    got = rows_for_indices(np.arange(16), 12, 4)
    assert got.equals(want)


def test_images_phash_pairs_finds_planted_dups(ray_session):
    import pyarrow.parquet as _pq

    from owlcrawler_ray.pipelines.queries import q_images_phash_pairs
    from owlcrawler_ray.functions import ids
    from owlcrawler_ray.sources.images_table import make_images_table

    df = q_images_phash_pairs(SF).to_pandas()
    pairs = set(zip(df["img_a"], df["img_b"]))
    # every planted lossy re-encode must be found as a near-dup of its source
    n_docs = _pq.read_metadata(f"{SF}/documents.parquet").num_rows
    n = max(60, n_docs // 2)
    tbl = make_images_table(n, with_near_dups=max(10, n // 10))
    ids_l = tbl.column("image_id").to_pylist()
    planted = [i for i in ids_l if ids.decode_doc_id(i).split("/")[-1].startswith("dup-")]
    assert planted
    found = 0
    for dup in planted:
        k = ids.decode_doc_id(dup).split("/")[-1].split(".")[0].split("-")[1]
        srcs = [
            i for i in ids_l
            if ids.decode_doc_id(i).split("/")[-1].split(".")[0] == f"img-{k}"
        ]
        assert len(srcs) == 1
        pair = (min(dup, srcs[0]), max(dup, srcs[0]))
        if pair in pairs:
            found += 1
    assert found / len(planted) >= 0.9, f"only {found}/{len(planted)} planted dups found"


def test_simhash_and_fingerprint_queries_run(ray_session):
    from owlcrawler_ray.pipelines.queries import (
        q_doc_fingerprints,
        q_lang_id,
        q_simhash_dedup,
    )

    import pyarrow.parquet as pq

    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    sh = q_simhash_dedup(SF).to_pandas()
    assert {"doc_id", "simhash", "band0", "band1", "band2", "band3"} <= set(sh.columns)
    assert sh["doc_id"].is_unique and len(sh) == n_docs
    fp = q_doc_fingerprints(SF).to_pandas()
    assert len(fp) == n_docs and fp["fingerprint"].nunique() > n_docs * 0.8
    li = q_lang_id(SF).to_pandas()
    assert set(li.columns) == {"doc_id", "lang", "pred_lang"}
    assert len(li) == n_docs


def test_multimodal_kernels():
    from owlcrawler_ray.functions import codec
    import numpy as np

    pix = codec.synth_pixels("mm", 96, 64)
    small = codec.resize_block_mean(pix, 2)
    assert small.shape == (32, 48, 3)
    nn = codec.resize_nearest(pix, 32, 32)
    assert nn.shape == (32, 32, 3)
    frames = [codec.synth_pixels(f"f{i}", 48, 32) for i in range(7)]
    buf = codec.encode_video(frames, fmt="png")
    assert codec.video_frame_count(buf) == 7
    sampled = codec.decode_video_frames(buf, stride=3)
    assert len(sampled) == 3  # frames 0, 3, 6
    assert np.array_equal(sampled[1], frames[3])  # png = lossless
    import pytest as _pt
    with _pt.raises(ValueError):
        codec.decode_video_frames(b"RIFFnotours")
    a = codec.synth_audio("clip")
    back = codec.decode_audio(codec.encode_audio(a))
    assert np.array_equal(a, back)
    f = codec.audio_features(back)
    assert f["rms"] > 0 and 0 < f["zcr"] < 1 and f["peak"] <= 32768


def test_thumbnails_query(ray_session):
    from owlcrawler_ray.pipelines.queries import q_images_thumbnails

    df = q_images_thumbnails(SF).to_pandas()
    assert (df["n_thumbs"] == df["n_images"]).all()
    assert (df["n_dims_ok"] == df["n_images"]).all()


def test_video_frame_sample_query(ray_session):
    from owlcrawler_ray.pipelines.queries import _videos_input, q_video_frame_sample

    frames = q_video_frame_sample(SF).to_pandas()
    vids = _videos_input(SF)[0].to_pandas()
    # every video contributes ceil(min(n_frames, 15)/2) capped at 8 frames
    want = {
        r["video_id"]: min((r["n_frames"] + 1) // 2, 8)
        for _, r in vids.iterrows()
    }
    got = frames.groupby("video_id").size().to_dict()
    assert got == want
    assert (frames["w"] == 48).all() and (frames["h"] == 32).all()
    assert frames["frame_idx"].min() == 0 and frames["frame_idx"].max() % 2 == 0


def test_audio_features_query(ray_session):
    from owlcrawler_ray.pipelines.queries import q_audio_features

    df = q_audio_features(SF).to_pandas()
    assert len(df) >= 16 and df["clip_id"].is_unique
    assert (df["rms"] > 0).all() and (df["n_samples"] >= 4000).all()


def test_audio_features_rows_in_clip_id_order(ray_session):
    """The actor pool finishes batches in any order; the query returns
    its rows sorted by clip_id, the same rows the stage gives serially."""
    from owlcrawler_ray.pipelines.queries import _audio_input, q_audio_features
    from owlcrawler_ray.sinks import table_store
    from owlcrawler_ray.stages.multimodal import AudioFeatures

    got = q_audio_features(SF)
    ids = got.column("clip_id").to_pylist()
    assert ids == sorted(ids)
    clips = table_store.collect(_audio_input(SF)[0])
    want = AudioFeatures()(clips).drop_columns(["bytes"])
    assert sorted(got.to_pylist(), key=lambda r: r["clip_id"]) == sorted(
        want.to_pylist(), key=lambda r: r["clip_id"])


def test_ngram_jaccard_verify(ray_session):
    from owlcrawler_ray.pipelines.queries import q_ngram_jaccard_verify

    df = q_ngram_jaccard_verify(SF).to_pandas()
    # every surviving pair is a planted clone pair (200000+id vs id), with
    # high jaccard; all 25 planted pairs survive verification
    assert len(df) >= 25
    clone_pairs = df[(df["doc_b"] - df["doc_a"]) == 200000]
    assert len(clone_pairs) == 25
    assert (df["jaccard"] >= 0.5).all()


def test_highlight_sanitizer_and_stats_parser():
    from owlcrawler_ray.functions.textops import parse_stats_rows, sanitize_highlight

    assert (
        sanitize_highlight("a _-_strong_-_hit_!-_strong_-_ b")
        == "a <strong>hit</strong> b"
    )
    # the reference's own canned stats fixture shape
    assert parse_stats_rows(
        [{"key": "fetched_on", "value": 52}, {"key": "parsed_on", "value": 51}]
    ) == {"fetched": 52, "parsed": 51}
    assert parse_stats_rows([]) == {"fetched": 0, "parsed": 0}


def test_es_fragments_golden():
    from owlcrawler_ray.functions.textops import es_fragments

    # one slop-1 phrase ("window gap merge") + a lone trailing hit far away
    text = (
        "aaa window gap merge bbb " + "x" * 200 + " merge tail"
    )
    frags = es_fragments(text, ("window", "merge"), frag_size=150, n_frags=3)
    # two fragments: the phrase window (2 hits + 10 boost) and the tail hit
    assert [f[0] for f in frags] == [12, 1]
    assert frags[0][1] == 0  # first hit at offset 4, lead 40 clamps to 0
    assert frags[0][2].startswith(
        "aaa <strong>window</strong> gap <strong>merge</strong> bbb"
    )
    assert "<strong>merge</strong>" in frags[1][2]
    # deterministic: same input -> same output
    assert frags == es_fragments(text, ("window", "merge"))
    # adjacent phrase also boosted; reversed order is not
    assert es_fragments("window merge", ("window", "merge"))[0][0] == 12
    assert es_fragments("merge then window", ("window", "merge"))[0][0] == 2
    assert es_fragments("no hits here", ("window", "merge")) == []
    # empty terms (whole tuple or individual elements) never produce the
    # zero-width-match garbage: "" among terms is dropped, not compiled
    assert es_fragments(text, ()) == []
    assert es_fragments(text, ("", "")) == []
    assert es_fragments(text, ("window", "", "merge")) == es_fragments(
        text, ("window", "merge"))


def test_search_highlights_contract(ray_session):
    from owlcrawler_ray.pipelines.queries import (
        QUERIES,
        SEARCH_PHRASE,
        q_search_es,
    )

    hits = q_search_es(SF).to_pandas()
    top = set(hits["doc_id"].astype(int))
    df = QUERIES["search_highlights"](SF).to_pandas()
    assert set(df["doc_id"].astype(int)) <= top
    assert set(df["doc_id"].astype(int)) == top  # every hit gets fragments
    for did, g in df.groupby("doc_id"):
        g = g.sort_values("frag_rank")
        assert list(g["frag_rank"]) == list(range(len(g)))
        assert len(g) <= 3
        # score-ordered fragments, descending
        scores = list(g["frag_score"])
        assert scores == sorted(scores, reverse=True)
        for frag in g["fragment"]:
            assert "<strong>" in frag and "</strong>" in frag
            bare = frag.replace("<strong>", "").replace("</strong>", "")
            assert len(bare) <= 150
            assert any(t in bare for t in SEARCH_PHRASE)


def test_ann_ivf_centroids_recall_vs_brute(ray_session):
    from owlcrawler_ray.pipelines.queries import QUERIES

    brute = set(QUERIES["ann_topk"](SF).to_pandas()["vec_id"])
    ivf = set(QUERIES["ann_ivf_centroids"](SF).to_pandas()["vec_id"])
    assert len(ivf) == len(brute) == 20
    # uniform random 64-d data is the adversarial case for IVF (no
    # cluster structure); measured 0.7-0.8 at nprobe=12/32
    assert len(brute & ivf) / len(brute) >= 0.6
    # deterministic across runs
    again = set(QUERIES["ann_ivf_centroids"](SF).to_pandas()["vec_id"])
    assert again == ivf


def test_hyperloglog_properties():
    from owlcrawler_ray.functions.sketch import HyperLogLog, hash64

    # accuracy on a known cardinality
    h = HyperLogLog(12)
    h.add([f"key-{i}" for i in range(50000)])
    est = h.estimate()
    assert abs(est - 50000) / 50000 < 0.05
    # mergeability: partials over any split == the whole-stream sketch
    a, b = HyperLogLog(12), HyperLogLog(12)
    a.add([f"key-{i}" for i in range(0, 50000, 2)])
    b.add([f"key-{i}" for i in range(1, 50000, 2)])
    assert (a.merge(b).regs == h.regs).all()
    # duplicates don't move the estimate
    h2 = HyperLogLog(12)
    h2.add([f"key-{i % 500}" for i in range(50000)])
    assert abs(h2.estimate() - 500) / 500 < 0.05
    # determinism
    h3 = HyperLogLog(12)
    h3.add([f"key-{i}" for i in range(50000)])
    assert h3.estimate() == est


def test_hll_distinct_orders_query(ray_session):
    import pyarrow.parquet as pq

    from owlcrawler_ray.pipelines.queries import QUERIES

    est = QUERIES["hll_distinct_orders"](SF).to_pydict()["n_distinct_est"][0]
    exact = len(
        set(pq.read_table(f"{SF}/lineitem.parquet", columns=["l_orderkey"])
            .column("l_orderkey").to_pylist())
    )
    assert abs(est - exact) / exact < 0.05


def test_count_min_sketch_properties():
    from owlcrawler_ray.functions.sketch import CountMinSketch

    cms = CountMinSketch()
    keys = [f"k{i}" for i in range(1000)]
    true = {k: (i % 7) + 1 for i, k in enumerate(keys)}
    cms.add(list(true), list(true.values()))
    est = cms.estimate(list(true))
    tv = np.array(list(true.values()))
    assert (est >= tv).all()  # CMS never underestimates
    assert (est == tv).mean() > 0.9  # light load: mostly exact
    # mergeability
    a, b = CountMinSketch(), CountMinSketch()
    a.add(keys[:500], [true[k] for k in keys[:500]])
    b.add(keys[500:], [true[k] for k in keys[500:]])
    assert (a.merge(b).counts == cms.counts).all()


def test_cms_frequent_words_agrees_with_exact(ray_session):
    from owlcrawler_ray.pipelines.queries import QUERIES

    exact = QUERIES["frequent_words"](SF).to_pandas()
    approx = QUERIES["cms_frequent_words"](SF).to_pandas()
    assert len(approx) == 20
    # CMS estimates are upper bounds of the true counts for shared words
    truth = dict(zip(exact["word"], exact["n"]))
    for w, n in zip(approx["word"], approx["n_est"]):
        if w in truth:
            assert n >= truth[w]
    # the top-10 heavy hitters agree between exact and sketch
    assert set(exact["word"][:10]) <= set(approx["word"])


def test_quantiles_price_within_tolerance(ray_session):
    import duckdb

    from owlcrawler_ray.pipelines.queries import QUERIES

    got = QUERIES["quantiles_price"](SF).to_pandas()
    con = duckdb.connect()
    exact = con.execute(
        "SELECT quantile_cont(l_extendedprice, [0.25, 0.5, 0.75, 0.95]) "
        f"FROM read_parquet('{SF}/lineitem.parquet')"
    ).fetchone()[0]
    assert list(got["q"]) == [0.25, 0.5, 0.75, 0.95]
    for est, true in zip(got["value_est"], exact):
        assert abs(est - true) / true < 0.02, (est, true)


def test_count_min_sketch_deep_rows_salted():
    """ADVICE r2: rows beyond the 4 md5 words must use a salted re-hash —
    a d>4 sketch previously mapped EVERY key's deep rows to counter 0,
    silently returning the whole-stream count."""
    from owlcrawler_ray.functions.sketch import CountMinSketch

    s = CountMinSketch(w=256, d=8)
    keys = [f"k{i}" for i in range(50)]
    s.add(keys * 3)
    # deep rows are real hashes: not everything in rows >= 4 lands on 0
    idx = s._idx(keys)
    for r in range(4, 8):
        assert len(set(idx[r].tolist())) > 1
    # estimates upper-bound truth and stay near it (d=8 <= d=4 estimates)
    est = s.estimate(keys)
    assert (est >= 3).all() and est.max() <= 3 * 5
    s4 = CountMinSketch(w=256, d=4)
    s4.add(keys * 3)
    assert (est <= s4.estimate(keys)).all()


def test_hot_bucket_skew_cap_unit(caplog):
    """The skew-cap drop accounting is LOGGED (the 'no silent caps'
    rule). The capping itself happens task-side in _pair_kernel; the
    driver computes the drop count from the bucket aggregate and funnels
    it through _log_dropped."""
    from owlcrawler_ray.pipelines import queries as Q

    with caplog.at_level("WARNING", logger="owlcrawler_ray.queries"):
        Q._log_dropped([99_900], "unit")
    assert "skew cap" in caplog.text and "99900" in caplog.text


def test_minhash_mega_bucket_completes_under_cap(ray_session, monkeypatch,
                                                 caplog):
    """End-to-end skew guard: with the cap forced below the corpus's
    planted duplicate buckets, minhash_lsh_pairs COMPLETES (no driver
    pair blow-up) and logs what it dropped instead of silently pretending
    full coverage."""
    import pyarrow as pa

    from owlcrawler_ray.pipelines import queries as Q

    monkeypatch.setattr(Q, "MAX_BUCKET_MEMBERS", 1)
    with caplog.at_level("WARNING", logger="owlcrawler_ray.queries"):
        out = Q.QUERIES["minhash_lsh_pairs"]("/root/testdata/sf0.001")
    assert isinstance(out, pa.Table)
    assert out.num_rows == 0  # every bucket truncated to 1 member
    assert "minhash_lsh_pairs" in caplog.text and "skew cap" in caplog.text


def test_search_es_result_envelope_shape(ray_session):
    """Reference Result envelope (Took/Hits{Total,MaxScore,Hits}): took is
    runtime metadata; total/max_score must be consistent with the hit rows
    (each independently SQL-oracled)."""
    from owlcrawler_ray.pipelines.queries import search_es_result

    res = search_es_result("/root/testdata/sf0.001")
    assert set(res) == {"took_ms", "hits"}
    assert res["took_ms"] >= 0
    h = res["hits"]
    assert set(h) == {"total", "max_score", "hits"}
    assert h["total"] >= len(h["hits"]) and len(h["hits"]) <= 10
    scores = [r["score"] for r in h["hits"]]
    assert scores == sorted(scores, reverse=True)
    assert h["max_score"] == scores[0]  # page 1 leads with the global max


def test_image_dup_clusters_transitive_closure(ray_session):
    """Image dedup clustering must equal the transitive closure of the
    phash candidate pairs (union-find model), with each cluster keyed by
    its smallest image_id, and must group every planted dup with its
    source image's cluster."""
    from owlcrawler_ray.pipelines.queries import (
        QUERIES,
        q_images_phash_pairs,
    )

    sf = "/root/testdata/sf0.001"
    pairs = q_images_phash_pairs(sf)
    got = QUERIES["image_dup_clusters"](sf).to_pandas()

    # union-find model over the same pairs
    parent: dict[str, str] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs.column("img_a").to_pylist(),
                    pairs.column("img_b").to_pylist()):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comp: dict[str, list[str]] = {}
    for v in parent:
        comp.setdefault(find(v), []).append(v)
    want = {}
    for members in comp.values():
        key = min(members)
        for m in members:
            want[m] = key
    assert dict(zip(got["image_id"], got["cluster"])) == want
    assert len(got) == len(parent)


def test_image_dup_clusters_vs_duckdb_recursive_cte(ray_session, tmp_path):
    """SQL-grade gate for the image clustering path: dump the phash pair
    graph to parquet and let DuckDB compute the transitive closure with
    the SAME recursive CTE shape as the near_dup_components driver oracle
    (cluster = min reachable image_id). The images table itself cannot be
    a driver-scoreboard view (pixels -> DCT phash is not SQL-expressible),
    so this pytest is where the clustering op gets its bit-exact SQL
    check; see COVERAGE.md."""
    import duckdb
    import pyarrow.parquet as pq

    from owlcrawler_ray.pipelines.queries import (
        QUERIES,
        q_images_phash_pairs,
    )

    sf = "/root/testdata/sf0.001"
    pairs = q_images_phash_pairs(sf)
    assert pairs.num_rows > 0
    dump = str(tmp_path / "phash_pairs.parquet")
    pq.write_table(pairs, dump)
    got = QUERIES["image_dup_clusters"](sf).to_pandas()

    con = duckdb.connect()
    want = con.execute(f"""
        WITH RECURSIVE cand AS (
            SELECT img_a, img_b FROM read_parquet('{dump}')
        ), edges AS (
            SELECT img_a AS src, img_b AS dst FROM cand
            UNION ALL SELECT img_b, img_a FROM cand
        ), reach(src, dst) AS (
            SELECT src, src FROM edges
            UNION
            SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src
        )
        SELECT src AS image_id, min(dst) AS cluster
        FROM reach GROUP BY src ORDER BY image_id
    """).df()
    got = got.sort_values("image_id").reset_index(drop=True)
    want = want.sort_values("image_id").reset_index(drop=True)
    assert got["image_id"].tolist() == want["image_id"].tolist()
    assert got["cluster"].tolist() == want["cluster"].tolist()


def test_sig_batch_matches_reference():
    """The vectorized batch minhash (unique-shingle md5 + scatter-min)
    must be value-identical to the per-doc reference _minhash_sig,
    including the short-doc clipped-shingle rule and empty text."""
    import pyarrow as pa

    from owlcrawler_ray.pipelines import queries as Q

    texts = [
        "the fast key order sort table scan merge part window",
        "one two",          # 2 words -> one clipped 2-word shingle
        "solo",             # 1 word
        "",                 # empty text -> shingle ""
        "a b c a b c a b c",  # heavy shingle repetition
    ]
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    got = Q._sig_batch(batch)
    by_doc = {}
    for r in got.to_pylist():
        by_doc.setdefault(r["doc_id"], {})[r["band_id"]] = r["band_hash"]
    for did, text in enumerate(texts):
        want = Q._minhash_sig(text)
        assert [by_doc[did][b] for b in range(len(want))] == want, (
            f"doc {did!r} ({text!r}) signature diverged"
        )


def test_batch_text_kernels_property_match_references():
    """simhash64_batch and min_fingerprint_batch must be BIT-IDENTICAL to
    the scalar references for ARBITRARY batches — whitespace runs,
    unicode, repeated words, doc lengths straddling the rolling-hash
    window (8 words), nulls, and all-empty batches. Derandomized so the
    pin is reproducible."""
    from hypothesis import given, settings
    from hypothesis import strategies as st
    import pyarrow as pa

    from owlcrawler_ray.functions.textops import (
        min_fingerprint,
        min_fingerprint_batch,
        simhash64,
        simhash64_batch,
    )

    word = st.text(alphabet="ab é北", min_size=0, max_size=3)
    # doc lengths 0..10 straddle the window-8 boundary legs
    doc = st.lists(word, min_size=0, max_size=10).map(" ".join)
    row = st.one_of(st.none(), doc)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.lists(row, min_size=0, max_size=8))
    def check(texts):
        arr = pa.array(texts, pa.string())
        assert simhash64_batch(arr).tolist() == [
            simhash64(t or "") for t in texts]
        assert min_fingerprint_batch(arr).tolist() == [
            min_fingerprint(t or "") for t in texts]

    check()


def test_word_ngrams_property_matches_naive():
    """_word_ngrams (the shared Arrow n-gram kernel under minhash,
    decontamination and the repetition filter) must equal the naive
    per-row sliding window for arbitrary word lists — including empty
    words from repeated separators, single-word rows, and empty text."""
    from hypothesis import given, settings
    from hypothesis import strategies as st
    import pyarrow as pa

    from owlcrawler_ray.pipelines.queries import _word_ngrams

    word = st.text(alphabet="abc", min_size=0, max_size=3)
    row = st.lists(word, min_size=1, max_size=8).map(" ".join)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(row, min_size=0, max_size=6), st.sampled_from([2, 3]))
    def check(texts, n):
        pos, grams, counts = _word_ngrams(pa.array(texts, pa.string()), n)
        got = {}
        for p, g in zip(pos.tolist(), grams.to_pylist()):
            got.setdefault(p, []).append(g)
        for i, t in enumerate(texts):
            ws = t.split(" ")
            assert counts[i] == len(ws)
            want = [" ".join(ws[j:j + n]) for j in range(len(ws) - n + 1)]
            assert got.get(i, []) == want, (texts, n, i)
        assert set(got) <= set(range(len(texts)))

    check()


def test_semi_filter_paths_agree(ray_session, monkeypatch):
    """_hash_join's two branches for a LEFT SEMI join (broadcast Table.join
    per probe batch vs the routed shuffle) must be value-identical —
    dedup_documents run once with each branch forced."""
    from owlcrawler_ray.pipelines import queries as Q

    sf = "/root/testdata/sf0.001"

    monkeypatch.setattr(Q, "BROADCAST_SEMI_BYTES", 1 << 60)
    bc = Q.QUERIES["dedup_documents"](sf).to_pandas()
    monkeypatch.setattr(Q, "BROADCAST_SEMI_BYTES", 0)
    jn = Q.QUERIES["dedup_documents"](sf).to_pandas()

    key = ["doc_id", "text"]
    bc = bc[key].sort_values(key).reset_index(drop=True)
    jn = jn[key].sort_values(key).reset_index(drop=True)
    assert bc.equals(jn)
    assert len(bc) > 0


def test_greedy_bins_property_matches_naive():
    """_greedy_bins (the searchsorted-jump packer under sequence_packing)
    must equal the naive one-doc-at-a-time greedy rule — and satisfy the
    packing invariants: bins are contiguous starting at 0, every bin sum
    fits the budget, and each bin boundary is forced (adding the next doc
    would overflow)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from owlcrawler_ray.pipelines.queries import _greedy_bins

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=64).flatmap(
        lambda budget: st.tuples(
            st.just(budget),
            st.lists(st.integers(min_value=1, max_value=budget),
                     min_size=0, max_size=40),
        )
    ))
    def check(case):
        budget, toks_l = case
        toks = np.asarray(toks_l, dtype=np.int64)
        got = _greedy_bins(toks, budget)
        # naive sequential greedy
        want, fill, b = [], 0, 0
        for t in toks_l:
            if fill + t > budget:
                b += 1
                fill = t
            else:
                fill += t
            want.append(b)
        assert got.tolist() == want, (budget, toks_l)
        if len(toks_l):
            assert got[0] == 0
            assert set(np.diff(got).tolist()) <= {0, 1}
            sums = np.bincount(got, weights=toks)
            assert (sums <= budget).all()
            # maximality: the first doc of bin b+1 would overflow bin b
            starts = np.nonzero(np.diff(got) == 1)[0] + 1
            for s in starts:
                prev = int(sums[got[s] - 1])
                assert prev + toks_l[s] > budget

    check()


def test_components_empty_edges():
    """The shared components kernel must degrade to empty (nodes,
    labels) arrays on an empty edge list instead of crashing."""
    import numpy as np

    from owlcrawler_ray.pipelines.queries import _components

    nodes, labels = _components(
        np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert nodes.tolist() == [] and labels.tolist() == []


def test_near_dup_dedup_no_candidates(ray_session, monkeypatch):
    """With an empty LSH candidate table the keep-set stage must return
    the whole clone-union corpus unchanged (the r4 review found the
    empty path crashed on the pa.Table fast-path return)."""
    import pyarrow as pa

    from owlcrawler_ray.pipelines import queries as q

    monkeypatch.setattr(
        q, "_compute_lsh_pairs",
        lambda sf_dir: pa.table({"doc_a": pa.array([], pa.int64()),
                                 "doc_b": pa.array([], pa.int64())}))
    sf = "/root/testdata/sf0.001"
    kept = q.q_near_dup_dedup(sf).count()
    want = q._with_clones(sf, "near").count()
    assert kept == want


def test_widen_noop_when_read_is_already_wide(monkeypatch):
    """_widen must be a structural no-op (same object back) when the
    size-derived read is engine-planned (None) or already at least as
    wide as the target — the guarantee that no extra all-to-all is ever
    paid at scale."""
    from owlcrawler_ray.pipelines import queries as q

    sentinel = object()
    monkeypatch.setattr(q, "_read_blocks", lambda path: None)
    assert q._widen(sentinel, "ignored") is sentinel
    monkeypatch.setattr(q, "_read_blocks", lambda path: 10_000)
    assert q._widen(sentinel, "ignored") is sentinel


def _write_docs(tmp_path, rows):
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "source": pa.array([r[2] for r in rows], pa.string()),
        }),
        str(d / "documents.parquet"),
    )
    return str(d)


def _ngrams(text, n):
    ws = text.split(" ")
    return [" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1)]


def test_dup_ngram_fraction_semantics(ray_session, tmp_path):
    from owlcrawler_ray.pipelines.queries import q_dup_ngram_fraction

    rows = [
        # intra-doc repeated 5-gram, unique corpus-wide -> n_dup must be 0
        (0, "p q r s t p q r s t", "a"),
        # docs 1 and 2 share the 5-gram 'v w x y z'
        (1, "v w x y z one two three", "a"),
        (2, "zero v w x y z", "b"),
        # under 5 words -> excluded entirely
        (3, "too few words here", "b"),
    ]
    sf = _write_docs(tmp_path, rows)
    got = {
        r["doc_id"]: r
        for r in q_dup_ngram_fraction(sf).take_all()
    }

    # naive reference: a gram is duplicated iff it appears in >1 distinct doc
    docs = {i: _ngrams(t, 5) for i, t, _ in rows if len(t.split(" ")) >= 5}
    by_gram = {}
    for i, gs in docs.items():
        for g in set(gs):
            by_gram.setdefault(g, set()).add(i)
    dup = {g for g, s in by_gram.items() if len(s) > 1}
    assert set(got) == set(docs)
    for i, gs in docs.items():
        n_dup = sum(g in dup for g in gs)
        assert got[i]["n_grams"] == len(gs)
        assert got[i]["n_dup"] == n_dup, f"doc {i}"
        assert got[i]["dup_heavy"] == (n_dup * 5 >= len(gs))
    assert got[0]["n_dup"] == 0  # intra-doc repetition is not duplication


def test_source_overlap_matches_brute_force(ray_session, tmp_path):
    from owlcrawler_ray.pipelines.queries import q_source_overlap

    rows = [
        (0, "a b c d e", "s1"),
        (1, "b c d f", "s1"),
        (2, "b c d e g", "s2"),
        (3, "x y z", "s3"),      # shares nothing
        (4, "a b", "s2"),        # <3 words -> contributes nothing
    ]
    sf = _write_docs(tmp_path, rows)
    got = q_source_overlap(sf).to_pandas().set_index(["src_a", "src_b"])

    sets = {}
    for _, t, s in rows:
        if len(t.split(" ")) >= 3:
            sets.setdefault(s, set()).update(_ngrams(t, 3))
    names = sorted(sets)
    want = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            common = len(sets[a] & sets[b])
            if common:
                want[(a, b)] = (common, len(sets[a] | sets[b]))
    assert set(got.index) == set(want)
    for key, (common, union) in want.items():
        assert got.loc[key, "n_common"] == common
        assert got.loc[key, "n_union"] == union
        assert got.loc[key, "jaccard"] == pytest.approx(common / union)


def test_bm25_matches_naive_reference(ray_session):
    """BM25 scores equal an independent pure-Python implementation
    (idf/tf/length-norm assembled from scratch), not just the SQL."""
    import math

    from owlcrawler_ray.pipelines.queries import (
        BM25_B, BM25_K1, BM25_TERMS, BM25_TOPK, q_bm25_search)

    got = q_bm25_search(SF).to_pandas()
    assert len(got) == BM25_TOPK
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pylist()
    ws = {d["doc_id"]: d["text"].split(" ") for d in docs}
    n = len(ws)
    avgdl = sum(len(w) for w in ws.values()) / n
    scores = {}
    for did, w in ws.items():
        s = 0.0
        for t in BM25_TERMS:
            df = sum(1 for x in ws.values() if t in x)
            tf = w.count(t)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            s += idf * (tf * (BM25_K1 + 1.0)) / (
                tf + BM25_K1 * (1.0 - BM25_B + BM25_B * len(w) / avgdl))
        scores[did] = s
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:BM25_TOPK]
    for (wid, wscore), (_, row) in zip(want, got.iterrows()):
        assert row["doc_id"] == wid
        assert abs(row["score"] - wscore) < 1e-6


def test_source_overlap_odd_source_names(ray_session, tmp_path):
    """Source names containing '|' (the OLD set separator) and the empty
    string are real identities, not phantoms: 'feed|mirror' must appear
    as ONE source in the matrix, and '' must survive the set encoding."""
    from owlcrawler_ray.pipelines.queries import q_source_overlap

    rows = [
        (0, "a b c d", "feed|mirror"),
        (1, "b c d e", ""),
        (2, "c d e f", "plain"),
    ]
    got = q_source_overlap(_write_docs(tmp_path, rows)).to_pandas()
    names = set(got["src_a"]) | set(got["src_b"])
    assert names == {"feed|mirror", "", "plain"}
    # grams: feed|mirror={abc,bcd}, ''={bcd,cde}, plain={cde,def}
    row = got.set_index(["src_a", "src_b"]).loc[("", "feed|mirror")]
    assert row["n_common"] == 1 and row["n_union"] == 3


def test_source_overlap_rejects_separator_in_name(ray_session, tmp_path):
    from owlcrawler_ray.pipelines.queries import q_source_overlap

    sf = _write_docs(tmp_path, [(0, "a b c d", "bad\x1fname")])
    with pytest.raises(Exception, match="separator"):
        q_source_overlap(sf)


def test_embedding_quantize_error_bound(ray_session):
    """floor(x*127/s + 0.5) must land within half a quantization step of
    x*127/s, so dequantization error is bounded by scale/254 per element
    (plus double-rounding slack) — the invariant ann_topk_int8's recall
    rests on."""
    from owlcrawler_ray.pipelines.queries import q_embedding_quantize

    q = q_embedding_quantize(SF).to_pandas()
    emb = pq.read_table(f"{SF}/embeddings.parquet")
    flat = {}
    for vid, vec in zip(emb.column("vec_id").to_pylist(),
                        emb.column("embedding").to_pylist()):
        for d, x in enumerate(vec, start=1):
            flat[(vid, d)] = float(x)
    assert len(q) == len(flat)
    err = np.abs(
        q["q"].to_numpy() * q["scale"].to_numpy() / 127.0
        - np.array([flat[k] for k in zip(q["vec_id"], q["dim"])])
    )
    bound = q["scale"].to_numpy() / 254.0 + 1e-9
    assert (err <= bound).all(), float((err - bound).max())
    assert q["q"].abs().max() <= 127  # int8-representable codes

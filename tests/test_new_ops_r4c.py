"""Edge semantics for the round-4 continuation operators, checked against
tiny hand-built corpora and naive Python references (independent of the
DuckDB oracles, which cover the bulk corpus): duplicate-ngram fraction
must NOT count intra-doc repetition, source overlap must match brute-force
set math, and int8 quantization must respect its error bound on every
element of the real table."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


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


@pytest.mark.parametrize("B", [5, 1, 256])
def test_bucket_merge_equals_ray_aggregate(ray_session, B):
    """_bucket_merge is a drop-in for groupby().aggregate(): same rows
    for random multi-type keys, multiple aggs, and skewed key counts —
    including keys that hash to the same route bucket. The B legs pin
    the width claim the docstring makes ("at cluster scale pass a larger
    B"): B=1 forces every key through ONE bucket (total collision), and
    B=256 is a cluster-scale width far beyond both the block count and
    the distinct-key count (most buckets row-free — the schema-less
    empty-block guard path)."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min, Sum

    from owlcrawler_ray.pipelines.queries import _bucket_merge

    rng = np.random.default_rng(7)
    n = 5000
    t = pa.table({
        "k": pa.array([f"key-{i}" for i in
                       rng.zipf(1.5, n) % 300], pa.string()),
        "a": pa.array(rng.integers(-100, 100, n), pa.int64()),
        "b": pa.array(rng.integers(0, 10, n), pa.int64()),
    })
    ds = rd.from_arrow(t).repartition(7)
    got = (
        _bucket_merge(ds, keys=["k"],
                      aggs=[("a", "sum"), ("b", "min"), ("b", "max")],
                      out=["sa", "lb", "hb"], B=B)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    want = (
        ds.groupby("k").aggregate(Sum("a", alias_name="sa"),
                                  Min("b", alias_name="lb"),
                                  Max("b", alias_name="hb"))
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd = __import__("pandas")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_route_hash_cross_process_deterministic(ray_session):
    """_bucket_merge is only correct if every worker process routes the
    same key to the same bucket: pin that the polars-backed _route_hash
    agrees bit-for-bit across two distinct Ray worker processes and the
    driver, for string and int keys."""
    import ray

    from owlcrawler_ray.pipelines.queries import _route_hash

    keys_s = pa.array([f"k-{i}" for i in range(1000)], pa.string())
    keys_i = pa.array(list(range(1000)), pa.int64())

    @ray.remote(num_cpus=0)
    def route(arr):
        import os
        return os.getpid(), _route_hash(arr, 64).to_pylist()

    # insist on two DISTINCT worker processes (0-cpu tasks may reuse one)
    for _ in range(8):
        (p1, h1s), (p2, h2s) = ray.get(
            [route.remote(keys_s), route.remote(keys_s)])
        if p1 != p2:
            break
    if p1 == p2:  # 0-cpu tasks may legally reuse one worker — that is an
        # environment artifact, not a hash defect; don't fail on it
        pytest.skip("could not obtain two distinct worker processes")
    (_, h1i), (_, h2i) = ray.get([route.remote(keys_i), route.remote(keys_i)])
    assert h1s == h2s == _route_hash(keys_s, 64).to_pylist()
    assert h1i == h2i == _route_hash(keys_i, 64).to_pylist()

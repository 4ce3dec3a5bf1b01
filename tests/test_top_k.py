"""The rank-and-keep family: ``queries._keep_top`` (the batch kernel),
``queries._top_k`` (the operator), the ``_md5`` digest views, and the
queries built on them (sampling, quotas, splits).

The kernel is checked with no Ray session against a sorted-head
reference: sort every row by the keys, then keep each stratum's first k
(null is a stratum of its own, as in SQL's PARTITION BY)."""

from __future__ import annotations

import hashlib

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owlcrawler_ray.pipelines import queries as Q


SF = "/root/testdata/sf0.001"


def _reference(rows: list[dict], keys, k: int, by: str | None) -> list[dict]:
    """Each stratum's first k rows in key order, with their 1-based rank."""
    ordered = sorted(rows, key=lambda r: tuple(
        r[c] if o == "ascending" else -r[c] for c, o in keys))
    seen: dict = {}
    out = []
    for r in ordered:
        n = seen.get(None if by is None else r[by], 0)
        seen[None if by is None else r[by]] = n + 1
        if n < k:
            out.append({**r, "rank": n + 1})
    return out


_ROWS = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z", None]), st.integers(0, 3)),
    max_size=40,
)


def _table(rows, ids) -> pa.Table:
    return pa.table({
        "s": pa.array([s for s, _ in rows], pa.string()),
        "a": pa.array([a for _, a in rows], pa.int64()),
        "b": pa.array(ids[:len(rows)], pa.int64()),
    })


@settings(max_examples=300, deadline=None)
@given(rows=_ROWS,
       ids=st.lists(st.integers(-1000, 1000), min_size=40, max_size=40,
                    unique=True),
       k=st.integers(1, 12),
       by=st.sampled_from([None, "s"]),
       orders=st.tuples(st.sampled_from(["ascending", "descending"]),
                        st.sampled_from(["ascending", "descending"])))
def test_keep_top_matches_sorted_head(rows, ids, k, by, orders):
    """Ties on ``a`` are broken by the unique last key ``b``; k runs from
    below to above a stratum's size; the table may be empty."""
    t = _table(rows, ids)
    keys = [("a", orders[0]), ("b", orders[1])]
    want = _reference(t.to_pylist(), keys, k, by)
    if by is None:
        got = Q._keep_top(t, keys, k)
        assert got.schema == t.schema
        assert sorted(got.column("b").to_pylist()) == sorted(
            r["b"] for r in want)
    else:
        got = Q._keep_top(t, keys, k, by=by, rank="rank")
        assert got.column_names == ["s", "a", "b", "rank"]
        assert got.to_pylist() == want  # key order, and the rank
        assert Q._keep_top(t, keys, k, by=by).column_names == ["s", "a", "b"]


def test_keep_top_edges():
    keys = [("a", "ascending")]
    schemaless = pa.table({})
    for by in (None, "s"):
        assert Q._keep_top(schemaless, keys, 3, by=by).num_columns == 0
    empty = _table([], [])
    assert Q._keep_top(empty, keys, 3).equals(empty)
    got = Q._keep_top(empty, keys, 3, by="s", rank="rank")
    assert got.num_rows == 0 and got.column_names == ["s", "a", "b", "rank"]
    # a table of null strata only: one stratum, ranked like any other
    nulls = _table([(None, 2), (None, 1), (None, 0)], [7, 8, 9])
    got = Q._keep_top(nulls, keys, 2, by="s", rank="rank")
    assert got.column("b").to_pylist() == [9, 8]
    assert got.column("rank").to_pylist() == [1, 2]


def test_md5_views_match_hashlib():
    keys = ["", "a", "ü|7", "x" * 300, "42"]
    digests = [hashlib.md5(x.encode()).digest() for x in keys]
    assert Q._md5(pa.array(keys)).to_pylist() == digests
    assert Q._md5_hex(pa.chunked_array([keys[:2], keys[2:]])).to_pylist() == [
        d.hex() for d in digests]
    assert Q._md5_u64(pa.array(keys)).tolist() == [
        int.from_bytes(d[:8], "little") for d in digests]
    # numbers hash as their decimal text, DuckDB's CAST(x AS VARCHAR)
    assert Q._md5(pa.array([-3, 0, 10 ** 12])).to_pylist() == [
        hashlib.md5(str(i).encode()).digest() for i in (-3, 0, 10 ** 12)]
    assert Q._md5(pa.array(keys[1:]).slice(1)).to_pylist() == digests[2:]
    assert len(Q._md5(pa.array([], pa.string()))) == 0


@pytest.mark.parametrize("by", [None, "s"])
def test_top_k_over_one_row_blocks(ray_session, by):
    import ray.data as rd

    rows = [(["x", "y", None][i % 3], (i * 7) % 5) for i in range(60)]
    t = _table(rows, list(range(100, 160)))
    keys = [("a", "descending"), ("b", "ascending")]
    ds = rd.from_arrow([t.slice(i, 1) for i in range(t.num_rows)])
    want = _reference(t.to_pylist(), keys, 4, by)
    if by is None:
        got = Q._top_k(ds, keys, 4).take_all()
        assert [r["b"] for r in got] == [r["b"] for r in want]
    else:
        got = Q._top_k(ds, keys, 4, by=by, rank="rank").take_all()
        assert sorted(got, key=lambda r: r["b"]) == sorted(
            want, key=lambda r: r["b"])


@pytest.mark.parametrize("name", ["source_quota", "stratified_sample"])
def test_null_stratum_matches_oracle(ray_session, tmp_path, name):
    """A null ``source`` (``lang``) is one stratum, as in the oracle's
    PARTITION BY: more than K null-source docs keep K, and none is
    dropped for its null key."""
    import pandas as pd

    n = 3 * Q.SOURCE_QUOTA_K
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "lang": pa.array([[None, "en", None, "de"][i % 4] for i in range(n)]),
        "source": pa.array([[None, "a", None, "b"][i % 4] for i in range(n)]),
        "n_chars": pa.array([i % 9 for i in range(n)], pa.int64()),
    }), tmp_path / "documents.parquet")
    sf = str(tmp_path)
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")

    def norm(df):
        df = df[sorted(df.columns)]
        return df.sort_values(list(df.columns), ignore_index=True)

    want = norm(con.execute(Q.ORACLES[name]).df())
    col = "source" if name == "source_quota" else "lang"
    assert want[col].isna().sum() > 0  # the fixture has a null stratum
    got = norm(Q.QUERIES[name](sf).to_pandas())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize(
    "name", ["top_events_per_user", "source_quota", "stratified_sample"])
def test_per_stratum_column_order(ray_session, name):
    """The per-stratum queries rebuild their rows in the merge (the rank
    column is appended there), so check the column order itself against
    the oracle's SELECT list; the oracle suite compares sorted names."""
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{SF}/documents.parquet')")
    want = [d[0] for d in con.execute(
        f"SELECT * FROM ({Q.ORACLES[name]}) LIMIT 0").description]
    assert Q.QUERIES[name](SF).limit(1).to_pandas().columns.tolist() == want


def test_sample_fraction_matches_sql(ray_session):
    """The hash-threshold sample keeps exactly the rows its DuckDB
    replica (SAMPLE_FRACTION_SQL, _MD5_LE64 style) keeps."""
    import pandas as pd

    con = duckdb.connect()
    con.execute("CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{SF}/lineitem.parquet')")
    want = con.execute(Q.SAMPLE_FRACTION_SQL).df()
    got = Q.q_sample_fraction(SF).to_pandas()
    assert list(got.columns) == list(want.columns)
    key = ["l_orderkey", "l_linenumber"]
    pd.testing.assert_frame_equal(
        got.sort_values(key, ignore_index=True),
        want.sort_values(key, ignore_index=True), check_dtype=False)


def test_dataset_split_properties(ray_session):
    """Deterministic, content-independent, exhaustive and ~80/10/10."""
    from owlcrawler_ray.pipelines.queries import q_dataset_split

    a = q_dataset_split(SF).to_pandas().set_index("doc_id")["split"]
    b = q_dataset_split(SF).to_pandas().set_index("doc_id")["split"]
    assert a.sort_index().equals(b.sort_index())  # re-run stable
    frac = a.value_counts(normalize=True)
    assert 0.70 <= frac["train"] <= 0.90
    assert set(a.unique()) <= {"train", "val", "test"}
    assert len(a) == 500  # every doc assigned exactly once


def test_source_quota_binds(ray_session, tmp_path):
    """When one source exceeds the quota, exactly K longest docs
    survive, ties broken by doc_id; small sources pass through."""
    import owlcrawler_ray.pipelines.queries as Q

    rows = [(i, "w " * (i % 7), "big") for i in range(120)]
    rows += [(1000 + i, "x y z", "small") for i in range(3)]
    sf = _write_docs_chars(tmp_path, rows)
    got = Q.q_source_quota(sf).to_pandas()
    big = got[got["source"] == "big"]
    assert len(big) == Q.SOURCE_QUOTA_K
    assert len(got[got["source"] == "small"]) == 3
    # kept docs are the K with the largest n_chars (ties -> lowest id)
    all_big = sorted(((len("w " * (i % 7)), -i) for i in range(120)),
                     reverse=True)[:Q.SOURCE_QUOTA_K]
    want_ids = sorted(-x[1] for x in all_big)
    assert sorted(big["doc_id"]) == want_ids


def _write_docs_chars(tmp_path, rows):
    d = tmp_path / "corpus_q"
    d.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "source": pa.array([r[2] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
        }),
        str(d / "documents.parquet"),
    )
    return str(d)


def test_sample_fraction(ray_session):
    from owlcrawler_ray.pipelines.queries import q_sample_fraction
    import pyarrow.parquet as _pq

    n = _pq.read_metadata(f"{SF}/lineitem.parquet").num_rows
    got = q_sample_fraction(SF).count()
    assert 0.05 * n < got < 0.15 * n

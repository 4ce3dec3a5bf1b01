"""Driver-mirror correctness gate: every SQL-expressible operator runs as
a Ray pipeline AND as its DuckDB oracle; results must match on row count,
column names and (order-insensitively) values."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from owlcrawler_ray.pipelines.queries import ORACLES, QUERIES

import os

# default sf0.001 for speed; the driver gate runs at sf0.01 — set
# ORACLE_SF=/root/testdata/sf0.01 to mirror it exactly
SF = os.environ.get("ORACLE_SF", "/root/testdata/sf0.001")
TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return c


def _to_pdf(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        df = res.to_pandas()
    elif isinstance(res, pa.Table):
        df = res.to_pandas()
    else:
        df = res
    return df


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[ns]")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_query_matches_oracle(ray_session, con, name):
    got = _normalize(_to_pdf(QUERIES[name](SF)))
    want = _normalize(con.execute(ORACLES[name]).df())
    assert list(got.columns) == list(want.columns), (
        f"{name} columns {list(got.columns)} != {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name} rows {len(got)} != {len(want)}"
    for c in got.columns:
        if pd.api.types.is_float_dtype(want[c]):
            g = got[c].to_numpy(dtype=float)
            w = want[c].to_numpy(dtype=float)
            # the driver compares by VALUE HASH — bit-exact equality. Our
            # rounding helpers are designed to reproduce DuckDB bit-for-bit;
            # this asserts that holds.
            exact = (g == w) | (np.isnan(g) & np.isnan(w))
            assert exact.all(), (
                f"{name}.{c}: {int((~exact).sum())} values differ "
                f"(max abs diff {np.nanmax(np.abs(g - w))})"
            )
        else:
            pd.testing.assert_series_equal(
                got[c], want[c], check_names=False, obj=f"{name}.{c}"
            )


def test_all_queries_have_callable(ray_session):
    for name, fn in QUERIES.items():
        assert callable(fn)


@pytest.mark.parametrize("name", ["customer_order_counts", "dedup_documents",
                                  "broadcast_join", "anti_join_unseen",
                                  "near_dup_dedup", "semantic_dedup"])
def test_customer_order_counts_distributed_join_path(
    ray_session, con, monkeypatch, name
):
    """Each query whose _hash_join picks its branch by size takes the
    broadcast branch at test scale, so a regression in the shuffle branch
    would be invisible there. Zero the broadcast budget to force the
    shuffle and assert it matches the oracle bit-for-bit, same as the
    recorded (broadcast) path."""
    from owlcrawler_ray.pipelines import queries as q

    monkeypatch.setattr(q, "BROADCAST_SEMI_BYTES", 0)
    got = _normalize(_to_pdf(q.QUERIES[name](SF)))
    want = _normalize(con.execute(q.ORACLES[name]).df())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    for c in got.columns:
        pd.testing.assert_series_equal(
            got[c], want[c], check_names=False, check_dtype=False,
            obj=f"{name}.{c}",
        )


def test_training_mix_drops_null_text_like_oracle(ray_session, tmp_path):
    """A null ``text`` row fails the oracle's quality predicate (NULL), so
    DuckDB drops it; the pipeline must drop it too rather than raise in
    the quality kernel. The nulls hit holdout docs (doc_id % 20 == 0),
    cloned docs (doc_id < 50) and docs that would otherwise be kept."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet")
    null = t.column("doc_id").to_numpy() % 7 == 0
    text = [None if n else v
            for n, v in zip(null, t.column("text").to_pylist())]
    t = t.set_column(t.schema.get_field_index("text"), "text",
                     pa.array(text, pa.string()))
    pq.write_table(t, tmp_path / "documents.parquet")
    c = duckdb.connect()
    c.execute("CREATE VIEW documents AS SELECT * FROM "
              f"read_parquet('{tmp_path}/documents.parquet')")
    got = _normalize(_to_pdf(QUERIES["training_mix"](str(tmp_path))))
    want = _normalize(c.execute(ORACLES["training_mix"]).df())
    assert len(want) and want["n_docs"].sum() > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

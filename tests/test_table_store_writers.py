"""The table store's writer abstraction: the SAME round-trip body runs
against ParquetWriter and LanceWriter — the lance leg skips (with reason)
only when the wheel is absent, so if a lance wheel ever lands the branch
is already covered."""

import numpy as np
import pyarrow as pa
import pytest

import owlcrawler_ray.sinks.table_store as ts
from owlcrawler_ray.sinks import table_store


def _sample_table(n=100):
    return pa.table(
        {
            "image_id": pa.array([f"img-{i}" for i in range(n)], pa.string()),
            "bytes": pa.array([bytes([i % 251]) * 16 for i in range(n)],
                              pa.binary()),
            "w": pa.array(np.full(n, 32, np.int32)),
            "h": pa.array(np.full(n, 24, np.int32)),
            "fmt": pa.array(["png"] * n, pa.string()),
            "caption": pa.array([f"cap {i}" for i in range(n)], pa.string()),
            "phash": pa.array(np.arange(n, dtype=np.int64)),
        }
    )


def _writer_or_skip(kind: str):
    if kind == "parquet":
        return ts.ParquetWriter()
    if not ts.HAVE_LANCE:
        pytest.skip("lance wheel not installed in this sandbox")
    return ts.LanceWriter()


@pytest.mark.parametrize("kind", ["parquet", "lance"])
def test_writer_part_roundtrip(tmp_path, kind):
    w = _writer_or_skip(kind)
    t = _sample_table()
    path = str(tmp_path / ("part-0" + w.ext))
    w.write(t, path)
    assert w.read(path).equals(t)


@pytest.mark.parametrize("kind", ["parquet", "lance"])
def test_store_roundtrip_through_writer(tmp_path, kind, monkeypatch):
    """write_part -> commit_round -> read_all_arrow, idempotent recommit,
    and prune — the full store machinery through the chosen writer."""
    monkeypatch.setattr(ts, "WRITER", _writer_or_skip(kind))
    root = str(tmp_path / "store")
    t = _sample_table()
    for rid, sl in ((0, t.slice(0, 60)), (1, t.slice(60))):
        tmp = ts.begin_round(root, "images", rid)
        ts.write_part(tmp, sl, key=f"r{rid}")
        ts.commit_round(root, "images", rid)
    assert ts.list_rounds(root, "images") == [0, 1]
    got = ts.read_all_arrow(root, "images")
    assert got.sort_by("image_id").equals(t.sort_by("image_id"))
    # idempotent re-commit: stale tmp content is discarded
    tmp = ts.begin_round(root, "images", 1)
    ts.write_part(tmp, t.slice(0, 1), key="stale")
    ts.commit_round(root, "images", 1)
    assert ts.read_all_arrow(root, "images").num_rows == t.num_rows
    # write_round on a pa.Table + prune
    ts.write_round(t.slice(0, 5), root, "images", 2)
    assert ts.list_rounds(root, "images") == [0, 1, 2]
    assert ts.prune_rounds_after(root, "images", 1) == [2]
    assert ts.list_rounds(root, "images") == [0, 1]


@pytest.mark.parametrize("kind", ["parquet", "lance"])
def test_store_dataset_read_through_writer(ray_session, tmp_path, kind,
                                           monkeypatch):
    monkeypatch.setattr(ts, "WRITER", _writer_or_skip(kind))
    root = str(tmp_path / "dstore")
    t = _sample_table(40)
    tmp = ts.begin_round(root, "images", 0)
    ts.write_part(tmp, t, key="r0")
    ts.commit_round(root, "images", 0)
    ds = ts.read_all(root, "images")
    assert ds.count() == 40
    assert sorted(ds.schema().names) == sorted(t.schema.names)


def test_format_marker_survives_environment_change(tmp_path, monkeypatch):
    """ADVICE r2: the _SUCCESS marker persists the writer FORMAT, so a
    store written as parquet still reads back after the environment gains
    lance (WRITER flips) — previously such rounds silently read as empty."""
    root = str(tmp_path / "store")
    t = pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]})
    monkeypatch.setattr(ts, "WRITER", ts.WRITERS["parquet"])
    ts.write_round(t, root, "pages", 0)
    with open(f"{root}/pages/round=000000/_SUCCESS") as f:
        assert f.read() == "parquet"
    # same store opened in a "lance-enabled" environment: import-time
    # WRITER is lance, but the round's marker selects the parquet reader
    monkeypatch.setattr(ts, "WRITER", ts.WRITERS["lance"])
    assert ts.round_writer(root, "pages", 0).name == "parquet"
    assert ts.read_all_arrow(root, "pages").num_rows == 3
    assert ts.read_all_arrow_round(root, "pages", 0).num_rows == 3


def test_format_marker_unknown_tag_raises(tmp_path, monkeypatch):
    """A _SUCCESS marker that names no writer (e.g. the pre-marker 'ok')
    raises rather than guessing a reader; a round with no marker yet (a
    reader between two tables' commits) gets the import-time WRITER."""
    root = str(tmp_path / "unknown")
    monkeypatch.setattr(ts, "WRITER", ts.WRITERS["parquet"])
    ts.write_round(pa.table({"k": [1, 2]}), root, "pages", 0)
    with open(f"{root}/pages/round=000000/_SUCCESS", "w") as f:
        f.write("ok")
    with pytest.raises(ValueError, match="naming no writer"):
        ts.round_writer(root, "pages", 0)
    with pytest.raises(ValueError, match="naming no writer"):
        ts.read_all_arrow(root, "pages")
    assert ts.round_writer(root, "stamps", 0) is ts.WRITER
    assert ts.round_part_paths(root, "stamps", 0) == ("parquet", [])


def test_parquet_read_one_block_per_part_no_schemaless_empties(
        ray_session, tmp_path):
    """Regression: Ray 2.49 splits a small parquet part into more read
    tasks than it has row groups; the surplus tasks emit 0-row
    SCHEMA-LESS blocks, which map stages propagate and every union then
    logs the executor's schema-divergence warning. The store reads with
    override_num_blocks=len(files) — one task per budget-bounded part —
    so every materialized block must carry rows AND the full schema."""
    import ray

    root = str(tmp_path / "blkstore")
    t = _sample_table(12)
    # several tiny parts across two rounds, like a low-budget crawl
    tmp = ts.begin_round(root, "images", 0)
    for i in range(3):
        ts.write_part(tmp, t.slice(i * 2, 2), key=f"p{i}")
    ts.commit_round(root, "images", 0)
    ts.write_round(t.slice(6, 6), root, "images", 1)
    ds = ts.read_all(root, "images").map_batches(
        lambda b: b, batch_format="pyarrow", zero_copy_batch=True
    )
    blocks = ray.get(ds.to_arrow_refs())
    assert sum(b.num_rows for b in blocks) == 12
    for b in blocks:
        assert b.num_rows > 0
        assert set(b.schema.names) == set(t.schema.names)


def test_parquet_read_pruned_columns_through_block_rule(ray_session,
                                                        tmp_path):
    """The pruned (columns=...) branch of ParquetWriter.dataset shares
    the cpu-knee block rule but must keep the Ray-2.49 workaround of NOT
    passing partitioning=None (UnboundLocalError) — cover it end to end:
    pruned schema, right rows, no schema-less blocks."""
    import ray

    root = str(tmp_path / "prunestore")
    t = _sample_table(30)
    ts.write_round(t, root, "images", 0)
    ts.write_round(t.slice(0, 10), root, "images", 1)
    ds = ts.read_all(root, "images", columns=["image_id", "phash"])
    blocks = ray.get(ds.to_arrow_refs())
    assert sum(b.num_rows for b in blocks) == 40
    for b in blocks:
        assert b.num_rows > 0
        assert b.schema.names == ["image_id", "phash"]


def test_concat_parts_heals_offset_width_split():
    """Parts that disagree ONLY in string/binary offset width (older
    rounds written before the ImageDecoder large_binary upgrade) must
    concat losslessly to the 64-bit-offset type; any other schema drift
    must still fail loudly."""
    old = pa.table({"bytes": pa.array([b"a"], pa.binary()),
                    "cap": pa.array(["x"], pa.string())})
    new = pa.table({"bytes": pa.array([b"b"], pa.large_binary()),
                    "cap": pa.array(["y"], pa.large_string())})
    t = table_store._concat_parts([old, new])
    assert t.schema.field("bytes").type == pa.large_binary()
    assert t.schema.field("cap").type == pa.large_string()
    assert t.column("bytes").to_pylist() == [b"a", b"b"]
    assert t.column("cap").to_pylist() == ["x", "y"]
    # genuine drift (int vs string) is NOT healed
    with pytest.raises(pa.lib.ArrowTypeError):
        table_store._concat_parts([
            pa.table({"v": pa.array([1], pa.int64())}),
            pa.table({"v": pa.array(["s"], pa.string())}),
        ])

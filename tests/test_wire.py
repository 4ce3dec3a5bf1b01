"""The crawl's table wire (state/wire.py) and what crosses it: a packed
table reads back equal, schema included; a packed slice carries only its
own rows; a state actor's checkpoint files load back; the heavy pass
returns only the columns the driver reads."""

import pyarrow as pa
import pytest

from owlcrawler_ray.functions import ids
from owlcrawler_ray.pipelines.crawl import _fetch_extract
from owlcrawler_ray.sinks import table_store
from owlcrawler_ray.sinks.checkpoint import CheckpointManager, frontier_file
from owlcrawler_ray.sources.corpus import SyntheticWeb, WebConfig
from owlcrawler_ray.state.frontier import entries_table
from owlcrawler_ray.state.shard import StateShard
from owlcrawler_ray.state.wire import pack, unpack


@pytest.mark.parametrize("table", [
    pa.table({"l": pa.array([["a", "b"], [], None, ["c"]],
                            pa.list_(pa.string())),
              "n": pa.array([1, 2, 3, 4], pa.int32())}),
    pa.table({"b": pa.array([b"\x00\xff", b"", None], pa.large_binary())}),
    pa.table({"s": pa.array([], pa.string()),
              "l": pa.array([], pa.list_(pa.string()))}),
    pa.table({"s": pa.array(["x"])}).replace_schema_metadata({"k": "v"}),
], ids=["list_string", "large_binary", "zero_rows", "metadata"])
def test_unpack_pack_roundtrip(table):
    buf = pack(table)
    assert isinstance(buf, pa.Buffer)
    back = unpack(buf)
    assert back.schema.equals(table.schema, check_metadata=True)
    assert back.equals(table)


def test_pack_passes_none_through():
    assert pack(None) is None
    assert unpack(None) is None


def test_packed_slice_carries_only_its_rows():
    """ARROW-10739: a pickled slice carries its whole parent buffer; the
    IPC stream writes only the slice's rows."""
    n = 100_000
    t = pa.table({
        "url": pa.array([f"http://h{i % 97}.test/p{i}" for i in range(n)]),
        "cands": pa.array([[f"http://x.test/{i}", "y"] for i in range(n)],
                          pa.list_(pa.string())),
        "seq": pa.array(range(n), pa.int64()),
    })
    s = t.slice(40_000, 10)
    buf = pack(s)
    assert buf.size < 0.01 * t.nbytes, (buf.size, t.nbytes)
    assert unpack(buf).equals(s)


def test_state_shard_checkpoint_loads_back(tmp_path):
    """A state actor writes its frontier snapshot under the name
    ``CheckpointManager.load`` reads, next to its seen chain, and a fresh
    actor restores both from the round dir."""
    mgr = CheckpointManager(str(tmp_path / "ckpt"))
    shards = [StateShard(i, True, True) for i in range(2)]
    for i, sh in enumerate(shards):
        urls = [f"http://h{i}.test/p{j}" for j in range(3)]
        sh.frontier_push(pack(entries_table(
            urls, [f"h{i}.test"] * 3, [1, 2, 3], [0.0] * 3,
            [10 * i + j for j in range(3)])))
        sh.commit(False, None, None, [f"http://seen{i}.test/"], None)
    tmp = mgr.begin(5)
    outs = [sh.checkpoint(tmp, 5) for sh in shards]
    assert [fr for fr, _ in outs] == [frontier_file(0), frontier_file(1)]
    d = mgr.commit(5, {"seen_chain": {str(i): chain
                                      for i, (_, chain) in enumerate(outs)}})
    frontier, seen, _ = mgr.load(5)
    assert len(frontier) == 2
    for i, (sh, fr, sn) in enumerate(zip(shards, frontier, seen)):
        assert fr.equals(sh.frontier.snapshot())
        assert sn.column("url").to_pylist() == (
            sh.seen.snapshot().column("url").to_pylist())
        back = StateShard(i, True, True)
        back.restore(d, outs[i][1])
        assert back.frontier.snapshot().equals(sh.frontier.snapshot())
        assert back.seen.snapshot().equals(sh.seen.snapshot())


def test_slim_table_has_the_columns_the_driver_reads(tmp_path):
    cfg = WebConfig(num_hosts=3, base_pages=4, n_seed_hosts=2)
    seeds = SyntheticWeb(cfg).seeds()
    batch = entries_table(seeds, ids.host_of_many(seeds), [0] * len(seeds),
                          [0.0] * len(seeds), list(range(len(seeds))))
    out = str(tmp_path / "out")
    raw_tmp = table_store.begin_round(out, "pages", 0)
    imgs_tmp = table_store.begin_round(out, "images", 0)
    slim = unpack(_fetch_extract(pack(batch), cfg, raw_tmp, imgs_tmp))
    assert slim.column_names == ["url", "depth", "status", "fetch_candidates"]
    assert slim.column("url").to_pylist() == seeds
    assert set(slim.column("status").to_pylist()) == {200}

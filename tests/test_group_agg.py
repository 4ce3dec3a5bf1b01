"""``queries._group_agg``, the package's one grouped aggregate: both of
its merge ends against a DuckDB ``GROUP BY`` over drawn tables split into
drawn blocks, the router it relies on, and a scan of the package for any
other grouped-aggregate path (Ray's Aggregate)."""

from __future__ import annotations

import ast
import pathlib

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from owlcrawler_ray.pipelines import queries as Q
from owlcrawler_ray.sinks import table_store

PKG = pathlib.Path(__file__).resolve().parents[1] / "owlcrawler_ray"

_AGGS = [([], "count_all"), ("a", "sum"), ("a", "min"), ("b", "max")]
_OUT = ["n", "sa", "lo", "hi"]
_SQL = ("SELECT {keys}, count(*) AS n, CAST(sum(a) AS BIGINT) AS sa, "
        "min(a) AS lo, max(b) AS hi FROM t GROUP BY {keys}")

_KEY = st.one_of(st.none(), st.integers(0, 5))
_VAL = st.one_of(st.none(), st.integers(-50, 50))


@st.composite
def _tables(draw):
    """A table of (k, k2, a, b) rows, possibly empty, with null keys and
    values; in about half the draws one key carries most rows. Returned
    with the cut points that split it into blocks (zero-row blocks
    included)."""
    rows = draw(st.lists(st.tuples(_KEY, _KEY, _VAL, _VAL), max_size=60))
    if rows and draw(st.booleans()):
        hot = draw(_KEY)
        rows += [(hot, r[1], r[2], r[3]) for r in rows * 3]
    t = pa.table({
        "k": pa.array([r[0] for r in rows], pa.int64()),
        "k2": pa.array([None if r[1] is None else f"s{r[1]}" for r in rows],
                       pa.string()),
        "a": pa.array([r[2] for r in rows], pa.int64()),
        "b": pa.array([r[3] for r in rows], pa.int64()),
    })
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=6)))
    return t, cuts


def _blocks(t: pa.Table, cuts: list[int]):
    bounds = [0] + cuts + [t.num_rows]
    return rd.from_arrow([t.slice(lo, hi - lo)
                          for lo, hi in zip(bounds, bounds[1:])])


def _sorted_rows(t: pa.Table, names: list[str]) -> list[tuple]:
    if not t.num_rows:
        return []
    rows = zip(*[t.column(c).to_pylist() for c in names])
    return sorted(rows, key=lambda r: [(x is None, x) for x in r])


@pytest.mark.parametrize("B", [1, 64])
@settings(max_examples=20, deadline=None)
@given(drawn=_tables(), two_keys=st.booleans())
def test_group_agg_equals_duckdb_group_by(ray_session, drawn, two_keys, B):
    """Both ends give DuckDB's rows: B=1 sends every key to one bucket,
    and B=64 (far above the <= 7 keys) leaves most buckets without rows.
    The driver end is sorted by its keys, nulls last. Both ends also take
    a routed output, whose row-free blocks carry no schema."""
    t, cuts = drawn
    keys = ["k", "k2"] if two_keys else ["k"]
    names = keys + _OUT
    con = duckdb.connect()
    con.register("t", t)
    want = _sorted_rows(
        con.execute(_SQL.format(keys=", ".join(keys))).arrow(), names)

    routed = table_store.collect(
        Q._group_agg(_blocks(t, cuts), keys, _AGGS, _OUT, B=B))
    assert _sorted_rows(routed, names) == want
    if routed.num_rows:
        assert routed.column_names == names

    driver = Q._group_agg(_blocks(t, cuts), keys, _AGGS, _OUT, driver=True)
    assert driver.column_names == names
    assert _sorted_rows(driver, names) == want
    assert not want or driver.equals(
        driver.sort_by([(k, "ascending") for k in keys]))

    # a routed output as input: 16 blocks sorted into B <= 2 buckets, so
    # most blocks the map_groups emits are schema-less and empty
    want = _sorted_rows(con.execute(
        f"SELECT k, count(*) AS n FROM (SELECT DISTINCT {', '.join(keys)} "
        "FROM t) GROUP BY k").arrow(), ["k", "n"])
    pairs = Q._group_agg(_blocks(t, cuts).repartition(16), keys, [], [],
                         B=min(B, 2))
    ends = [Q._group_agg(pairs, ["k"], [([], "count_all")], ["n"],
                         driver=True),
            table_store.collect(Q._group_agg(
                pairs, ["k"], [([], "count_all")], ["n"], B=B))]
    for got in ends:
        assert _sorted_rows(got, ["k", "n"]) == want


def test_group_agg_rows_and_then(ray_session):
    """``rows`` projects each batch before the combiner; ``then`` runs
    on every merged bucket of the routed end."""
    t = pa.table({"w": ["a b", "b", "a a", ""]})
    words = Q._group_agg(
        rd.from_arrow([t.slice(0, 2), t.slice(2)]), ["w"],
        [([], "count_all")], ["n"],
        rows=lambda b: pa.table({"w": pc.list_flatten(
            pc.split_pattern(b.column("w"), " "))}),
        then=lambda m: m.filter(pc.greater(m.column("n"), 1)), B=4)
    got = table_store.collect(words).sort_by("w")
    assert got.to_pydict() == {"w": ["a", "b"], "n": [3, 2]}


def test_route_hash_cross_process_deterministic(ray_session):
    """_group_agg's routed end is only correct if every worker process
    routes the same key to the same bucket: pin that the polars-backed
    _route_hash agrees bit-for-bit across two distinct Ray worker
    processes and the driver, for string and int keys."""
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


def _ray_aggregates(path: pathlib.Path) -> list[str]:
    """``file:line`` of every ``ray.data.aggregate`` import and every
    ``.groupby(...).aggregate(`` call in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        where = f"{path.relative_to(PKG.parent)}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.ImportFrom) and node.module == "ray.data.aggregate":
            found.append(where)
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("ray.data.aggregate") for a in node.names):
            found.append(where)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "aggregate"
              and isinstance(node.func.value, ast.Call)
              and isinstance(node.func.value.func, ast.Attribute)
              and node.func.value.func.attr == "groupby"):
            found.append(where)
    return found


def test_no_ray_aggregate_in_the_package():
    """Grouped aggregates go through _group_agg: Ray's Aggregate pays a
    fixed all-to-all barrier at few keys and walks keys in per-key Python
    at many."""
    assert [c for p in sorted(PKG.rglob("*.py"))
            for c in _ray_aggregates(p)] == []

"""``table_store.collect``, the package's one driver collect: it runs a
Dataset's plan once, drops the schema-less empty blocks of routed
stages, returns ``pa.table({})`` for no rows, and no other code in the
package brings Dataset rows to the driver."""

from __future__ import annotations

import ast
import pathlib

import pyarrow as pa
import ray
import ray.data as rd

from owlcrawler_ray.pipelines import queries as Q
from owlcrawler_ray.sinks import table_store

PKG = pathlib.Path(__file__).resolve().parents[1] / "owlcrawler_ray"
COLLECT_CALLS = {"to_arrow_refs", "take_all", "iter_batches"}


def test_collect_runs_the_plan_once(ray_session, tmp_path):
    log = str(tmp_path / "calls.txt")

    def tag(t: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("call\n")
        return t

    blocks = [pa.table({"x": [i, i + 10]}) for i in range(4)]
    ds = rd.from_arrow(blocks).map_batches(tag, batch_format="pyarrow",
                                           batch_size=None)
    out = table_store.collect(ds)
    assert sorted(out.column("x").to_pylist()) == [0, 1, 2, 3,
                                                    10, 11, 12, 13]
    assert out.schema == pa.schema([("x", pa.int64())])
    with open(log) as f:
        assert len(f.read().splitlines()) == 4


def test_collect_drops_schema_less_router_blocks(ray_session):
    rows = pa.table({"k": [1, 1, 2, 5, 5, 5], "v": [1, 2, 3, 4, 5, 6]})
    # the sort emits one block per input block: six blocks, three keys
    blocks = [rows.slice(i, 1) for i in range(rows.num_rows)]
    routed = Q._shuffle([(rd.from_arrow(blocks), "k")], lambda t: t, B=16)
    # the case under test: row-free partitions leave schema-less blocks
    assert any(b.num_columns == 0 for b in ray.get(routed.to_arrow_refs()))
    out = table_store.collect(routed)
    assert out.schema == rows.schema
    assert out.sort_by([("k", "ascending"), ("v", "ascending")]) == rows


def test_collect_of_no_rows_is_the_empty_table(ray_session):
    typed = rd.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    filtered = rd.from_arrow(pa.table({"x": [1, 2]})).filter(
        lambda r: False)
    for ds in (typed, filtered):
        assert table_store.collect(ds).equals(pa.table({}))


def _collect_calls(path: pathlib.Path) -> list[str]:
    """``file:line func`` of every .to_arrow_refs/.take_all/.iter_batches
    call in ``path``, with ``func`` the enclosing top-level function."""
    found = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = where or child.name
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in COLLECT_CALLS):
                found.append((f"{path.relative_to(PKG.parent)}:"
                              f"{child.lineno}", where))
            walk(child, inner)

    walk(ast.parse(path.read_text()), None)
    return found


def test_only_table_store_collect_brings_rows_to_the_driver():
    calls = [c for p in sorted(PKG.rglob("*.py")) for c in _collect_calls(p)]
    allowed = [c for c in calls
               if c[0].startswith("owlcrawler_ray/sinks/table_store.py:")
               and c[1] == "collect"]
    assert allowed, "table_store.collect no longer calls iter_batches"
    assert [c for c in calls if c not in allowed] == []

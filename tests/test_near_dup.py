"""The near-dup family's two kernels, with no Ray session:
``queries._components`` (connected components of a candidate graph)
against a dict union-find, and ``queries._pair_kernel`` (the per-bucket
half of ``_bucket_pairs``) against brute-force pairs."""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from owlcrawler_ray.pipelines import queries as Q


def _union_find(a, b) -> dict:
    """node -> least node of its component."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return {v: find(v) for v in parent}


def _check_components(a, b):
    nodes, labels = Q._components(a, b)
    want = _union_find(a.tolist(), b.tolist())
    assert nodes.tolist() == sorted(want)
    assert dict(zip(nodes.tolist(), labels.tolist())) == want


_EDGES = st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                  max_size=80)


@settings(max_examples=300, deadline=None)
@given(edges=_EDGES)
def test_components_matches_union_find(edges):
    """Random graphs: self-loops, duplicate edges and negative ids among
    them; every label is the least node of its component."""
    a = np.array([x for x, _ in edges], np.int64)
    b = np.array([y for _, y in edges], np.int64)
    _check_components(a, b)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["path", "star"]))
def test_components_paths_and_stars(n, seed, shape):
    """A path walked in a random node order (the case plain min-label
    propagation needs n rounds for), and a star whose hub is not its
    least node, each with its edges shuffled and some reversed."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n + 1).astype(np.int64) * 3
    if shape == "path":
        a, b = perm[:-1], perm[1:]
    else:
        a, b = np.full(n, perm[0]), perm[1:]
    order = rng.permutation(n)
    flip = rng.random(n) < 0.5
    a, b = a[order], b[order]
    _check_components(np.where(flip, b, a), np.where(flip, a, b))


def test_components_edges():
    """Empty input, one self-loop, duplicates, and string ids (the image
    clusters' ids: the label is the lexicographically least)."""
    e = np.array([], np.int64)
    nodes, labels = Q._components(e, e)
    assert nodes.tolist() == [] and labels.tolist() == []
    nodes, labels = Q._components(np.array([7]), np.array([7]))
    assert nodes.tolist() == [7] and labels.tolist() == [7]
    _check_components(np.array([3, 3, 1, 1]), np.array([1, 1, 3, 2]))
    nodes, labels = Q._components(
        np.array(["b", "d", "c"], object), np.array(["c", "e", "a"], object))
    assert dict(zip(nodes, labels)) == {
        "a": "a", "b": "a", "c": "a", "d": "d", "e": "d"}


def _brute_pairs(rows: list[dict], cap: int, verify) -> list[tuple]:
    """One (a, b) per bucket and pair of the bucket's cap least ids."""
    by: dict = {}
    for r in rows:
        by.setdefault(r["bucket"], []).append(r)
    out = []
    for members in by.values():
        members = sorted(members, key=lambda r: r["id"])[:cap]
        for x, y in itertools.combinations(members, 2):
            if x["id"] < y["id"] and (verify is None or verify(x, y)):
                out.append((x["id"], y["id"]))
    return sorted(out)


_PAIR_ROWS = st.lists(
    st.tuples(st.sampled_from(["0|1", "0|2", "1|1", "3|9"]),
              st.integers(-20, 20), st.integers(0, 9)),
    max_size=50,
)


@settings(max_examples=300, deadline=None)
@given(rows=_PAIR_ROWS, cap=st.integers(1, 8), with_verify=st.booleans())
def test_pair_kernel_matches_brute_force(rows, cap, with_verify):
    """Buckets with one member and with more than ``cap``; ids repeat
    across buckets (a pair may share several) and may repeat within
    one (no self-pair); the verify callback sees aligned row pairs."""
    t = pa.table({
        "bucket": pa.array([r[0] for r in rows], pa.string()),
        "id": pa.array([r[1] for r in rows], pa.int64()),
        "payload": pa.array([r[2] for r in rows], pa.int64()),
    })

    def verify(left: pa.Table, right: pa.Table) -> np.ndarray:
        return (left.column("payload").to_numpy()
                + right.column("payload").to_numpy()) % 3 != 0

    def verify_row(x: dict, y: dict) -> bool:
        return (x["payload"] + y["payload"]) % 3 != 0

    got = Q._pair_kernel(t, "id", cap, verify if with_verify else None)
    assert got.column_names == ["a", "b"]
    want = _brute_pairs(t.to_pylist(), cap,
                        verify_row if with_verify else None)
    assert sorted(zip(got.column("a").to_pylist(),
                      got.column("b").to_pylist())) == want


def test_pair_kernel_string_ids():
    """String ids (the image pairs) keep their type and a < b order."""
    t = pa.table({"bucket": ["k", "k", "k", "j"],
                  "image_id": ["c", "a", "b", "a"]})
    got = Q._pair_kernel(t, "image_id", 1024)
    assert got.schema.field("a").type == pa.string()
    assert sorted(zip(got.column("a").to_pylist(),
                      got.column("b").to_pylist())) == [
        ("a", "b"), ("a", "c"), ("b", "c")]

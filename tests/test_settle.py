"""The crawl round's two settle steps against a per-row reference.

``settle_fetch`` and ``settle_links`` (pipelines/settle.py) apply the
serial rules of ``pipelines/oracle.py`` to a whole round of Arrow
columns. The reference here walks the same round one row at a time, as
the oracle module docstring states the rules:

* occurrences in admit order; a url that already succeeded this round
  is discarded tick-free (dedup at dequeue);
* every other occurrence is one GET and costs one tick, failed or not
  (failures retry per occurrence);
* a page's candidate is kept unless it is seen, or succeeded this round
  at a tick no later than the page's (the check as of its extraction);
* every kept link gets the next seq in (tick, document) order; it is
  pushed unless it succeeded anywhere in the round.

No Ray session: both steps are pure.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owlcrawler_ray.functions import ids
from owlcrawler_ray.pipelines.settle import (
    EPOCH_US, settle_fetch, settle_links,
)
from owlcrawler_ray.state.frontier import ENTRY_SCHEMA, entries_table

ATTEMPTS_SCHEMA = pa.schema([("tick", pa.int64()),
                             ("virtual_time_s", pa.int64()),
                             ("url", pa.string()),
                             ("status", pa.int32())])
UNIVERSE = [f"http://h{h}.test/p{p}" for h in range(3) for p in range(5)]


def _admitted(rows: list[tuple[str, int]]) -> pa.Table:
    """Frontier entries for (url, depth) occurrences, in admit order."""
    return entries_table([u for u, _ in rows],
                         [ids.host_of(u) for u, _ in rows],
                         [d for _, d in rows], [0.0] * len(rows),
                         list(range(len(rows))))


def _slim(rows, status: dict, cands: dict, order=None) -> pa.Table:
    """The heavy pass's slim table: one row per distinct admitted url (at
    its first occurrence's depth), in ``order`` (default: first
    occurrence)."""
    first: dict[str, int] = {}
    for u, d in rows:
        first.setdefault(u, d)
    urls = list(first)
    if order is not None:
        urls = [urls[i] for i in order]
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "depth": pa.array([first[u] for u in urls], pa.int32()),
        "status": pa.array([status[u] for u in urls], pa.int32()),
        "fetch_candidates": pa.array([cands.get(u, []) for u in urls],
                                     pa.list_(pa.string())),
    })


def _reference(rows, status, cands, seen, tick, fetch_seq, next_seq, ts):
    """The round one row at a time: (attempts, successes, stamps, pushes,
    tick, fetch_seq, next_seq)."""
    attempts, succ, done = [], [], {}
    for u, d in rows:
        if u in done:
            continue
        tick += 1
        attempts.append((tick, tick * ts, u, status[u]))
        if status[u] == 200:
            done[u] = tick
            succ.append((u, ids.host_of(u), d, tick, fetch_seq))
            fetch_seq += 1
    stamps, pushes = [], []
    for u, _, d, t, fs in succ:
        queue = []
        for c in cands.get(u, []):
            if c in seen or done.get(c, 1 << 62) <= t:
                continue
            queue.append(c)
            if c not in done:
                pushes.append((c, ids.host_of(c), d + 1, 0.0, next_seq))
            next_seq += 1
        stamps.append((u, t, fs, t * ts, queue))
    return attempts, succ, stamps, pushes, tick, fetch_seq, next_seq


def _check(rows, status, cands, seen, tick=0, fetch_seq=0, next_seq=0,
           ts=5, order=None):
    """Settle one round and compare every output with the reference."""
    want = _reference(rows, status, cands, seen, tick, fetch_seq, next_seq,
                      ts)
    att, succ, tick2, fs2 = settle_fetch(
        _admitted(rows), _slim(rows, status, cands, order), tick, fetch_seq,
        ts)
    assert att.schema == ATTEMPTS_SCHEMA
    assert list(zip(*(att.column(c).to_pylist()
                      for c in att.column_names))) == want[0]
    assert list(zip(*(succ.column(c).to_pylist() for c in
                      ("url", "host", "depth", "tick", "fetch_seq")))) \
        == want[1]
    assert succ.column("fetch_candidates").to_pylist() == [
        cands.get(s[0], []) for s in want[1]]
    assert (tick2, fs2) == want[4:6]
    flat = [c for cs in succ.column("fetch_candidates").to_pylist()
            for c in cs]
    stamps, push, seq2 = settle_links(
        succ, np.array([c in seen for c in flat], dtype=bool), next_seq, ts)
    assert list(zip(*(stamps.column(c).to_pylist() for c in
                      ("url", "tick", "fetch_seq", "virtual_time_s",
                       "links_to_queue")))) == want[2]
    us = [EPOCH_US + s[1] * ts * 1_000_000 for s in want[2]]
    for col in ("fetched_on", "parsed_on"):
        assert stamps.column(col).type == pa.timestamp("us")
        assert stamps.column(col).cast(pa.int64()).to_pylist() == us
    assert push.schema == ENTRY_SCHEMA
    assert list(zip(*(push.column(c).to_pylist()
                      for c in push.column_names))) == want[3]
    assert seq2 == want[6]
    return want


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       rows=st.lists(st.tuples(st.sampled_from(UNIVERSE),
                               st.integers(0, 3)), max_size=14),
       start=st.tuples(st.integers(0, 1000), st.integers(0, 1000),
                       st.integers(0, 1000)),
       ts=st.sampled_from([1, 5]))
def test_settle_matches_per_row_reference(data, rows, start, ts):
    distinct = list(dict.fromkeys(u for u, _ in rows))
    status = {u: data.draw(st.sampled_from([200, 200, 200, 404, 0]))
              for u in distinct}
    cands = {u: data.draw(st.lists(st.sampled_from(UNIVERSE), max_size=6))
             for u in distinct}
    rest = [u for u in UNIVERSE if u not in status]
    seen = set(data.draw(st.lists(st.sampled_from(rest), max_size=8))
               if rest else [])
    order = data.draw(st.permutations(range(len(distinct))))
    _check(rows, status, cands, seen, *start, ts=ts, order=order)


def test_duplicate_admissions_cost_one_tick_per_get():
    a, b, c = UNIVERSE[:3]
    rows = [(a, 0), (b, 0), (a, 1), (c, 0), (b, 2), (a, 1)]
    want = _check(rows, {a: 200, b: 404, c: 200}, {}, set(), tick=10)
    # a: one GET, its two later copies tick-free; b: a GET per copy
    assert [(t, u) for t, _, u, _ in want[0]] == [
        (11, a), (12, b), (13, c), (14, b)]


def test_failure_retries_every_occurrence_then_next_round_succeeds():
    """A url's fetch status is one per round (the heavy pass fetches each
    distinct url once): a failure retries, and costs a tick, at every
    occurrence of its round; the next round that admits it again can
    succeed, and the counters carry over."""
    a, b = UNIVERSE[:2]
    rows = [(a, 0), (b, 0), (a, 0), (a, 0)]
    want = _check(rows, {a: 0, b: 200}, {b: [a]}, set())
    assert [u for _, _, u, _ in want[0]] == [a, b, a, a]
    # b's link to the failed a is kept and queued again
    assert [p[0] for p in want[3]] == [a]
    _, _, _, _, tick, fs, seq = want
    again = _check([(a, 1)], {a: 200}, {}, {b}, tick, fs, seq)
    assert again[1] == [(a, ids.host_of(a), 1, 5, 1)]


def test_links_to_pages_fetched_earlier_same_tick_and_later():
    a, b, c, d = UNIVERSE[:4]
    # b links to a (earlier: dropped), to itself (same tick: dropped), to
    # c (later: kept with a seq, not pushed) and to d (not fetched: pushed)
    cands = {b: [a, b, c, d]}
    want = _check([(a, 0), (b, 0), (c, 0)], {a: 200, b: 200, c: 200}, cands,
                  set(), next_seq=7)
    assert want[2][1][4] == [c, d]
    assert [(p[0], p[4]) for p in want[3]] == [(d, 8)]
    assert want[6] == 9


def test_seen_candidates_are_dropped():
    a, b, c = UNIVERSE[:3]
    want = _check([(a, 2)], {a: 200}, {a: [b, c, b]}, {b})
    assert want[2][0][4] == [c]
    assert want[3] == [(c, ids.host_of(c), 3, 0.0, 0)]


def test_candidate_free_round():
    a, b = UNIVERSE[:2]
    want = _check([(a, 0), (b, 0)], {a: 200, b: 404}, {}, set(), 3, 4, 5)
    assert want[2] == [(a, 4, 4, 20, [])] and want[3] == []


def test_empty_round():
    want = _check([], {}, {}, set(), 3, 4, 5)
    assert want[0] == [] and want[4:] == (3, 4, 5)


def test_admitted_url_missing_from_slim_fails_loudly():
    a = UNIVERSE[0]
    with pytest.raises(RuntimeError, match="missing from fetch output"):
        settle_fetch(_admitted([(a, 0)]), _slim([], {}, {}), 0, 0, 5)

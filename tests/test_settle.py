"""The crawl round's three settle steps against per-row references.

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

``settle_admit`` is checked against a per-entry walk of polite
admission with one token bucket object per host: robots discards, a
take of up to floor(tokens) per host, and a refund of every entry the
``max_ticks`` cap cuts.

No Ray session: all three steps are pure, and importing them imports no
Ray.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owlcrawler_ray.functions import ids
from owlcrawler_ray.pipelines.settle import (
    EPOCH_US, host_rank, settle_admit, settle_fetch, settle_links,
)
from owlcrawler_ray.state.frontier import ENTRY_SCHEMA, entries_table
from owlcrawler_ray.state.politeness import PolitenessConfig, PolitenessGate

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


# -- settle_admit -----------------------------------------------------------

HOSTS = ["a.test", "b.test", "c.test", "d.test"]


def _window(rows: list[tuple[float, int, str]]) -> pa.Table:
    """Frontier entries for (priority, seq, host) rows, in (priority,
    seq) order, as a peek returns them."""
    rows = sorted(rows, key=lambda r: (r[0], r[1]))
    return entries_table([f"http://{h}/p{q}" for _, q, h in rows],
                         [h for _, _, h in rows], [0] * len(rows),
                         [p for p, _, _ in rows], [q for _, q, _ in rows])


class _Bucket:
    """One host's token bucket as an object: refill on every take, and a
    refund that is the exact inverse of the take at the same instant."""

    def __init__(self, rate, burst, tokens, last):
        self.rate, self.burst, self.tokens, self.last = (
            rate, burst, tokens, last)

    def take(self, n, now):
        self.tokens = min(self.burst,
                          self.tokens + (now - self.last) * self.rate)
        self.last = now
        got = min(n, int(self.tokens))
        self.tokens -= got
        return got

    def refund(self, n):
        self.tokens = min(self.burst, self.tokens + n)


def _reference_admit(window, allowed, buckets, now, rate, burst, cap):
    """Polite admission one entry at a time: robots discards, then each
    host (in name order) takes up to its entries' count from its bucket
    and admits its first grants, then the (priority, seq)-ordered
    admissions are cut at ``cap``, refunding each cut entry's token.
    ``buckets`` (host -> [tokens, last]) is updated in place. Returns
    (admitted seqs, consumed seqs)."""
    by_host: dict[str, list] = {}
    discard = []
    for e, ok in zip(window.to_pylist(), allowed):
        if not ok:
            discard.append(e["discovered_seq"])
        else:
            by_host.setdefault(e["host"], []).append(e)
    objs = {}
    admitted = []
    for host, es in sorted(by_host.items()):
        b = objs[host] = _Bucket(rate, burst, *buckets.get(host, (burst, now)))
        admitted.extend(es[:b.take(len(es), now)])
    admitted.sort(key=lambda e: (e["priority"], e["discovered_seq"]))
    if cap is not None:
        for e in admitted[max(cap, 0):]:
            objs[e["host"]].refund(1)
        admitted = admitted[:max(cap, 0)]
    for host, b in objs.items():
        buckets[host] = (b.tokens, b.last)
    seqs = [e["discovered_seq"] for e in admitted]
    return seqs, sorted(discard + seqs)


@settings(max_examples=400, deadline=None)
@given(data=st.data(),
       rate=st.floats(0.05, 3.0), burst=st.floats(1.0, 6.0),
       restored=st.dictionaries(st.sampled_from(HOSTS),
                                st.tuples(st.floats(0.0, 1.0),
                                          st.floats(0.0, 10.0)),
                                max_size=3),
       n_rounds=st.integers(1, 5))
def test_settle_admit_matches_per_entry_walk(data, rate, burst, restored,
                                             n_rounds):
    """Over multi-round draws, ``settle_admit`` admits, consumes and
    leaves every host's (tokens, last) exactly as the per-entry walk
    does: robots discards, new and restored hosts, float rates and
    bursts, and caps that cut admissions."""
    gate = PolitenessGate(PolitenessConfig(rate_per_s=rate, burst=burst))
    # restored tokens as a fraction of burst, as a checkpoint holds them
    gate.restore({h: (f * burst, last) for h, (f, last) in restored.items()})
    want_buckets = gate.state()
    now, seq = 10.0, 0
    for _ in range(n_rounds):
        now += data.draw(st.one_of(st.integers(0, 3).map(lambda k: 5.0 * k),
                                   st.floats(0.0, 10.0)))
        hosts = data.draw(st.lists(st.sampled_from(HOSTS), max_size=16))
        prios = data.draw(st.lists(st.sampled_from([0.0, -1.0, 0.5]),
                                   min_size=len(hosts), max_size=len(hosts)))
        window = _window([(p, seq + i, h)
                          for i, (p, h) in enumerate(zip(prios, hosts))])
        seq += len(hosts)
        allowed = data.draw(st.lists(st.booleans(), min_size=len(hosts),
                                     max_size=len(hosts)))
        cap = data.draw(st.one_of(st.none(), st.integers(-1, 12)))
        want = _reference_admit(window, allowed, want_buckets, now, rate,
                                burst, cap)
        admitted, consumed, buckets = settle_admit(
            window, cap, np.array(allowed, dtype=bool),
            gate.bucket_table(pa.array(hosts, pa.string())), now, rate,
            burst)
        gate.set_buckets(buckets)
        assert admitted.schema == ENTRY_SCHEMA
        assert admitted.column("discovered_seq").to_pylist() == want[0]
        assert admitted.to_pylist() == [
            r for r in window.to_pylist() if r["discovered_seq"] in want[0]]
        assert sorted(consumed.to_pylist()) == want[1]
        assert gate.state() == want_buckets


def test_settle_admit_parity_is_the_first_cap_entries():
    """No verdicts and no buckets: the first ``cap`` entries of the
    window, consumed as they are admitted, whatever their hosts."""
    window = _window([(0.0, i, "a.test") for i in range(5)]
                     + [(-1.0, 9, "b.test")])
    admitted, consumed, buckets = settle_admit(window, 3)
    assert admitted.column("discovered_seq").to_pylist() == [9, 0, 1]
    assert consumed.to_pylist() == [9, 0, 1]
    assert buckets is None
    assert settle_admit(window, 0)[0].num_rows == 0
    assert settle_admit(window, 99)[0].num_rows == 6


def test_entries_cut_by_the_cap_are_not_debited():
    """A host is debited once, by the entries it keeps after the cap:
    an admission the cap cuts entirely leaves the bucket as full as it
    was, and one entry kept costs one token."""
    gate = PolitenessGate(PolitenessConfig(rate_per_s=1.0, burst=4.0))
    window = _window([(0.0, i, "h") for i in range(3)])
    ok = np.ones(3, dtype=bool)

    def admit(cap):
        got, _, b = settle_admit(window, cap, ok,
                                 gate.bucket_table(pa.array(["h"])), 0.0,
                                 1.0, 4.0)
        return got.num_rows, b.column("tokens").to_pylist()

    assert admit(None) == (3, [1.0])
    assert admit(0) == (0, [4.0])
    assert admit(1) == (1, [3.0])
    # a robots discard is consumed but never debited
    got, consumed, b = settle_admit(
        window, None, np.array([False, True, True]),
        gate.bucket_table(pa.array(["h"])), 0.0, 1.0, 4.0)
    assert consumed.to_pylist() == [0, 1, 2]
    assert got.column("discovered_seq").to_pylist() == [1, 2]
    assert b.column("tokens").to_pylist() == [2.0]


def test_host_rank_counts_each_hosts_earlier_entries():
    rank, code, hosts = host_rank(pa.chunked_array(
        [["b", "a", "b"], ["c", "b", "a"]]))
    assert rank.tolist() == [0, 0, 1, 0, 2, 1]
    assert hosts.to_pylist() == ["b", "a", "c"]
    assert code.tolist() == [0, 1, 0, 2, 0, 1]
    assert len(host_rank(pa.array([], pa.string()))[0]) == 0


def test_settle_imports_no_ray():
    """The settle steps are pure: importing them loads neither Ray nor
    Ray Data (checked in a fresh interpreter)."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, owlcrawler_ray.pipelines.settle; "
         "print(sorted(m for m in ('ray', 'ray.data') if m in sys.modules))"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

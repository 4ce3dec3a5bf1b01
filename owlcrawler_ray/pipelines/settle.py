"""The crawl round's rules as three pure steps over Arrow tables.

``pipelines/oracle.py`` states the reference's serial semantics per row:
dedup at dequeue, one tick per actual GET, failures retry per occurrence,
the advisory link check as of each page's extraction, and link seqs in
publish order. These functions apply the same rules to a whole round at
once. They read and write no state: no Ray, no store, no actor. The
crawl loop (``pipelines/crawl.py``) runs the effects around them.

* ``settle_admit`` picks the round's entries from the window the
  frontier shards peeked, in both modes: parity's first K, or polite
  mode's robots verdicts and per-host token buckets.
* ``settle_fetch`` turns the round's admitted entries and the heavy
  pass's slim table into the attempts table and the successes.
* ``settle_links`` turns the successes and the seen flags of their link
  candidates into the stamps sidecar and the frontier entries to push.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions import ids
from ..state.frontier import entries_table, host_rank

EPOCH_US = 1420070400000000  # 2015-01-01T00:00:00 (virtual-clock origin)


def first_occurrences(urls: pa.Array) -> pa.Array:
    """Position of each distinct url's first occurrence, in first-
    occurrence order (``pc.unique`` keeps that order, and ``index_in``
    finds the first match)."""
    return pc.index_in(pc.unique(urls), value_set=urls)


def settle_admit(window: pa.Table, cap: int | None,
                 allowed: np.ndarray | None = None,
                 buckets: pa.Table | None = None, now: float = 0.0,
                 rate_per_s: float = 0.0, burst: float = 0.0
                 ) -> tuple[pa.Table, pa.Array, pa.Table | None]:
    """A round's admission from its window: frontier entries in
    (priority, seq) order.

    An entry whose robots verdict in ``allowed`` is False is discarded:
    consumed, never admitted. With ``buckets`` (polite mode: host,
    tokens, last), each host with an allowed entry refills its bucket to
    ``now`` at ``rate_per_s``, up to ``burst`` (a host the table lacks
    starts full), and keeps its first floor(tokens) allowed entries. The
    first ``cap`` kept entries are admitted (None: all). Each host is
    then debited once, by the entries it has admitted, so an entry the
    cap cuts costs no token and stays queued. Parity passes no verdicts
    and no buckets: its admission is the first ``cap`` entries.

    Returns (the admitted entries in window order; the consumed seqs,
    robots discards and admitted, in window order; the new bucket of
    every host with an allowed entry, None without ``buckets``)."""
    n = window.num_rows
    ok = np.ones(n, bool) if allowed is None else np.asarray(allowed, bool)
    keep = ok.copy()
    if buckets is not None:
        rank, code, hosts = host_rank(
            window.column("host").filter(pa.array(ok)))
        # a host the table lacks reads the appended full bucket
        pos = pc.fill_null(pc.index_in(
            hosts, value_set=buckets.column("host").combine_chunks()),
            buckets.num_rows).to_numpy(zero_copy_only=False)
        tokens = np.append(buckets.column("tokens").to_numpy(), burst)[pos]
        last = np.append(buckets.column("last").to_numpy(), now)[pos]
        tokens = np.minimum(burst, tokens + (now - last) * rate_per_s)
        keep[ok] = rank < np.floor(tokens)[code]
    take = np.flatnonzero(keep)[:None if cap is None else max(cap, 0)]
    admitted = np.zeros(n, bool)
    admitted[take] = True
    consumed = window.column("discovered_seq").filter(
        pa.array(admitted | ~ok)).combine_chunks()
    if buckets is None:
        return window.take(take), consumed, None
    tokens -= np.bincount(code[admitted[ok]], minlength=len(hosts))
    return window.take(take), consumed, pa.table({
        "host": hosts, "tokens": tokens,
        "last": np.full(len(hosts), now, dtype=np.float64)})


def settle_fetch(admitted: pa.Table, slim: pa.Table, tick: int,
                 fetch_seq: int, tick_seconds: int
                 ) -> tuple[pa.Table, pa.Table, int, int]:
    """The round's attempts and successes, from its admitted entries (in
    admit order, duplicates included) and the heavy pass's slim table
    (one row per distinct url, any order).

    Each occurrence costs one tick, except a later occurrence of a url
    whose fetch succeeded: the reference discards it tick-free at
    dequeue. A failure retries per occurrence. A url's status is the same
    for all its occurrences in a round, so "an earlier occurrence
    succeeded" is exactly "status 200 and not the first occurrence".

    Returns (attempts table, successes in tick order with url, host,
    depth, tick, fetch_seq and fetch_candidates, the next tick, the next
    fetch_seq). Raises when an admitted url is missing from ``slim``."""
    urls = admitted.column("url").combine_chunks()
    pos = pc.index_in(urls, value_set=slim.column("url").combine_chunks())
    if pos.null_count:
        raise RuntimeError("admitted url missing from fetch output")
    pos = pos.to_numpy(zero_copy_only=False)
    status = slim.column("status").to_numpy(zero_copy_only=False)[pos]
    first = np.zeros(len(urls), dtype=bool)
    first[first_occurrences(urls).to_numpy(zero_copy_only=False)] = True
    get = first | (status != 200)
    ticks = (tick + np.cumsum(get))[get]
    status = status[get].astype(np.int32)
    get_arr = pa.array(get)
    attempts = pa.table({
        "tick": pa.array(ticks),
        "virtual_time_s": pa.array(ticks * tick_seconds),
        "url": urls.filter(get_arr),
        "status": pa.array(status),
    })
    ok = status == 200
    n_ok = int(ok.sum())
    hit = admitted.filter(get_arr).filter(pa.array(ok))
    page = slim.select(["depth", "fetch_candidates"]).take(pos[get][ok])
    succ = pa.table({
        "url": hit.column("url"),
        "host": hit.column("host"),
        "depth": page.column("depth"),
        "tick": pa.array(ticks[ok]),
        "fetch_seq": pa.array(np.arange(fetch_seq, fetch_seq + n_ok,
                                        dtype=np.int64)),
        "fetch_candidates": page.column("fetch_candidates"),
    })
    return attempts, succ, tick + len(ticks), fetch_seq + n_ok


def settle_links(succ: pa.Table, cand_seen: np.ndarray, next_seq: int,
                 tick_seconds: int) -> tuple[pa.Table, pa.Table, int]:
    """The stamps sidecar and the new frontier entries of a round's
    successes (``settle_fetch``'s, in tick order). ``cand_seen`` holds
    one seen-set flag per candidate of ``pc.list_flatten`` of
    ``fetch_candidates``, probed before the round's successes were added.

    A candidate is kept (into the page's ``links_to_queue``) unless it is
    seen, or was fetched this round at a tick no later than its page's:
    the advisory check runs as of each page's extraction. Every kept
    link gets the next seq, in (tick, document) order, which is the
    reference's publish order. A kept link fetched later this round is
    seen by now, so it is not pushed, but it keeps its seq: seqs reach
    part keys and checkpoints.

    Returns (stamps table, entries to push, the next seq)."""
    cands = succ.column("fetch_candidates").combine_chunks()
    flat = pc.list_flatten(cands)
    parent = pc.list_parent_indices(cands).to_numpy(zero_copy_only=False)
    ticks = succ.column("tick").to_numpy()
    pos = pc.fill_null(
        pc.index_in(flat, value_set=succ.column("url").combine_chunks()), -1
    ).to_numpy(zero_copy_only=False)
    fetched = pos >= 0
    keep = ~(cand_seen | (fetched & (ticks[pos] <= ticks[parent])))
    kept = flat.filter(pa.array(keep))
    kept_parent = parent[keep]
    offsets = np.zeros(len(ticks) + 1, dtype=np.int32)
    np.cumsum(np.bincount(kept_parent, minlength=len(ticks)),
              out=offsets[1:])
    vt_us = pa.array(
        EPOCH_US + ticks * (tick_seconds * 1_000_000)
    ).cast(pa.timestamp("us"))
    stamps = pa.table({
        "url": succ.column("url"),
        "tick": pa.array(ticks),
        "fetch_seq": succ.column("fetch_seq"),
        "virtual_time_s": pa.array(ticks * tick_seconds),
        "links_to_queue": pa.ListArray.from_arrays(pa.array(offsets), kept),
        "fetched_on": vt_us,
        "parsed_on": vt_us,
    })
    seqs = np.arange(next_seq, next_seq + len(kept), dtype=np.int64)
    depths = succ.column("depth").to_numpy(zero_copy_only=False)
    push = np.flatnonzero(~fetched[keep])
    urls = kept.take(pa.array(push))
    entries = entries_table(urls, ids.host_of_many(urls),
                            depths[kept_parent[push]] + 1,
                            np.zeros(len(push), np.float32), seqs[push])
    return stamps, entries, next_seq + len(kept)

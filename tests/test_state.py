import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from owlcrawler_ray.functions.ids import url_hash64_many
from owlcrawler_ray.functions.sketch import BloomFilter, bloom_bit_indices
from owlcrawler_ray.pipelines.settle import settle_admit
from owlcrawler_ray.state import seen as seen_mod
from owlcrawler_ray.state.frontier import FrontierShard, entries_table
from owlcrawler_ray.state.politeness import PolitenessConfig, PolitenessGate
from owlcrawler_ray.state.seen import SeenShard
from owlcrawler_ray.state.shard import StateShard
from owlcrawler_ray.state.wire import pack, unpack

URLS = [f"http://h{i % 7}.test/p{i}" for i in range(500)]


def test_bloom_filter():
    b = BloomFilter(1000, fp_rate=0.01)
    hs = url_hash64_many(URLS)
    b.add_many(hs)
    assert b.contains_many(hs).all()
    other = url_hash64_many([u + "?y" for u in URLS])
    assert b.contains_many(other).mean() < 0.05


def test_seen_shard_test_and_set():
    """add_many is the atomic test-and-set: True = newly inserted."""
    s = SeenShard(0)
    first = s.add_many(URLS[:10])
    assert first.all()
    again = s.add_many(URLS[:10])
    assert not again.any()
    mixed = s.add_many(URLS[5:15])
    assert list(mixed) == [False] * 5 + [True] * 5
    # a url repeated within one batch is new only at its first occurrence
    assert list(s.add_many([URLS[20], URLS[20], URLS[0]])) == [
        True, False, False]
    assert s.size() == 16
    assert s.contains_many(URLS[:15]).all()
    assert not s.contains_many(URLS[15:20]).any()
    s2 = SeenShard(0)
    assert s2.restore(s.snapshot()) == 16
    assert s2.contains_many(URLS[:15] + [URLS[20]]).all()


def test_frontier_order_and_lazy_delete():
    f = FrontierShard(0)
    t = entries_table(
        ["u3", "u1", "u2", "u1dup"], ["h", "h", "h", "h"],
        [0, 0, 0, 0], [0.0, 0.0, 0.0, 0.0], [3, 1, 2, 5],
    )
    f.push_table(t)
    assert f.size() == 4
    top = f.peek(2)
    assert top.column("discovered_seq").to_pylist() == [1, 2]
    f.remove_seqs([1, 2])
    assert f.size() == 2
    top = f.peek(10)
    assert top.column("discovered_seq").to_pylist() == [3, 5]
    # priority beats seq when set
    f.push_table(entries_table(["hot"], ["h"], [0], [-1.0], [99]))
    assert f.peek(1).column("url").to_pylist() == ["hot"]


def test_frontier_snapshot_roundtrip():
    f = FrontierShard(0)
    f.push_table(entries_table(
        ["a", "b", "c"], ["h1", "h2", "h1"], [0, 1, 2],
        [0.0, 0.0, 0.0], [10, 11, 12]))
    f.remove_seqs([11])
    f2 = FrontierShard(0)
    f2.restore(f.snapshot())
    assert f2.size() == 2
    assert f2.peek(10).column("url").to_pylist() == ["a", "c"]


def test_state_shard_hosts_either_role(tmp_path):
    """One state actor per shard index: both roles delegate to the plain
    shards, and a single-role actor (unequal shard counts) reports 0 and
    checkpoints None for the role it does not host. Tables cross packed
    (state/wire.py); the actor writes its own checkpoint files."""
    both = StateShard(1, True, True)
    seen_only = StateShard(2, True, False)
    frontier_only = StateShard(3, False, True)
    assert both.seen.shard_id == both.frontier.shard_id == 1
    assert seen_only.frontier is None and frontier_only.seen is None

    ent = entries_table(["a", "b"], ["h", "h"], [0, 0], [0.0, 0.0], [1, 2])
    assert both.frontier_push(pack(ent)) == 2
    mask = both.commit(False, None, ["a"], ["a", "x"], None)
    assert list(mask) == [False]
    assert list(both.seen_contains(["a", "b"])) == [True, False]
    assert unpack(both.frontier_peek(1)).column("url").to_pylist() == ["a"]
    assert both.commit(False, [1], None, None, None) is None
    assert unpack(both.frontier_peek(5)).column("url").to_pylist() == ["b"]
    assert both.sizes() == (1, 2)
    frontier_only.frontier_push(pack(ent))
    seen_only.commit(False, None, None, ["y"], None)
    assert frontier_only.sizes() == (2, 0)
    assert seen_only.sizes() == (0, 1)

    fr, chain = both.checkpoint(str(tmp_path), 0)
    assert fr == "frontier_shard_0001.parquet"
    assert pq.read_table(tmp_path / fr).column("url").to_pylist() == ["b"]
    assert len(chain) == 1 and (tmp_path / chain[0]).exists()
    both.commit(str(tmp_path), None, None, None, None)  # the ack
    fr, no_chain = frontier_only.checkpoint(str(tmp_path), 0)
    assert fr == "frontier_shard_0003.parquet" and no_chain is None
    fr, seen_chain = seen_only.checkpoint(str(tmp_path), 0)
    assert fr is None and seen_chain
    # no seen role: nothing to ack
    frontier_only.commit(str(tmp_path), None, None, None, None)

    # a restore reads the actor's own files of the round dir
    back = StateShard(1, True, True)
    back.restore(str(tmp_path), chain)
    assert back.sizes() == (1, 2)
    assert list(back.seen_contains(["x", "y"])) == [True, False]
    assert back.advance(None, None) == (None, None)
    # advance: push, then the checkpoint of the pushed queue, then the
    # capped peek of that same queue (the next round's window)
    push = entries_table(["c", "d", "e"], ["h", "h2", "h"], [1, 1, 1],
                         [0.0, 0.0, 0.0], [3, 4, 5])
    ref = FrontierShard(1)
    ref.restore(back.frontier.snapshot())
    ref.push_table(push)
    adv = tmp_path / "adv"
    adv.mkdir()
    (fr, chain), peek = back.advance(pack(push), (str(adv), 1), 2, 1)
    assert back.sizes() == (4, 2)
    assert pq.read_table(adv / fr).to_pydict() == ref.snapshot().to_pydict()
    assert [r["url"] for r in pq.read_table(adv / fr).to_pylist()] == [
        "b", "c", "d", "e"]
    assert unpack(peek).to_pydict() == ref.peek(2, 1).to_pydict()
    assert unpack(peek).column("url").to_pylist() == ["b", "d"]
    lone = StateShard(3, False, True)
    lone.restore(str(tmp_path), None)
    assert lone.sizes() == (2, 0)


def test_politeness_parity_mode_noop_robots():
    g = PolitenessGate(PolitenessConfig())
    assert g.allowed("http://any.test/private/x")


def test_politeness_robots_rules():
    g = PolitenessGate(PolitenessConfig(
        disallow={"h1.test": ["/private/"], "*": ["/admin/"]}))
    assert not g.allowed("http://h1.test/private/a")
    assert g.allowed("http://h2.test/private/a")
    assert not g.allowed("http://h2.test/admin/a")
    assert g.allowed("http://h1.test/ok")
    assert not g.allowed("http://h1.test/private/no")


def _grant(g: PolitenessGate, host: str, want: int, now_s: float) -> int:
    """Admit a window of ``want`` entries of ``host`` at ``now_s`` through
    settle_admit with the gate's buckets; the number admitted."""
    window = entries_table([f"http://{host}/p{i}" for i in range(want)],
                           [host] * want, [0] * want, [0.0] * want,
                           list(range(want)))
    admitted, _, buckets = settle_admit(
        window, None, np.ones(want, dtype=bool),
        g.bucket_table(pa.array([host])), now_s, g.cfg.rate_per_s,
        g.cfg.burst)
    g.set_buckets(buckets)
    return admitted.num_rows


def test_politeness_token_bucket():
    g = PolitenessGate(PolitenessConfig(mode="polite", rate_per_s=1.0, burst=3.0))
    assert _grant(g, "h.test", 10, now_s=0.0) == 3  # burst
    assert _grant(g, "h.test", 10, now_s=0.0) == 0  # drained
    assert _grant(g, "h.test", 10, now_s=5.0) == 3  # refilled, capped
    assert _grant(g, "h.test", 1, now_s=6.0) == 1
    st = g.state()
    g2 = PolitenessGate(PolitenessConfig(mode="polite", rate_per_s=1.0, burst=3.0))
    g2.restore(st)
    assert g2.state() == st
    assert _grant(g2, "h.test", 10, now_s=6.0) == 0


def test_seen_shard_spill_mode(tmp_path):
    """Disk-spill path: tiny memory cap forces sorted parquet runs; exact
    membership, the add_many mask and snapshot/restore all stay correct."""
    import os

    d = str(tmp_path / "spill")
    s = SeenShard(0, spill_dir=d, max_mem_urls=100)
    batch1, batch2, batch3 = URLS[:150], URLS[150:300], URLS[300:450]
    assert s.add_many(batch1).all()
    assert any(f.startswith("seen_run_") for f in os.listdir(d))  # spilled
    assert s.contains_many(batch1).all()
    assert not s.contains_many(batch2).any()
    first = s.add_many(batch2)
    assert first.all()
    again = s.add_many(batch1 + batch2)
    assert not again.any()
    assert s.size() == 300
    s.add_many(batch3)
    assert s.size() == 450
    # snapshot equals logical contents; restore rebuilds identically
    snap = s.snapshot()
    assert snap.num_rows == 450
    assert set(snap.column("url").to_pylist()) == set(URLS[:450])
    s2 = SeenShard(0, spill_dir=str(tmp_path / "spill2"), max_mem_urls=100)
    assert s2.restore(snap) == 450
    assert s2.size() == 450
    assert s2.contains_many(URLS[:450]).all()
    assert not s2.contains_many(URLS[450:]).any()
    # a shard restarted over the same spill dir recovers its runs
    s3 = SeenShard(0, spill_dir=d, max_mem_urls=100)
    spilled = sum(len(h) for h, _ in s3._runs)
    assert spilled >= 100


def test_seen_shard_hash_collisions_stay_exact(tmp_path, monkeypatch):
    """Spilled runs are searched by 64-bit hash, so the string compare at
    hash-equal candidates is the only thing that keeps spilled membership
    exact. A 4-valued hash makes nearly every probe collide: an unseen url
    must never match a spilled url that merely shares its hash, and a
    spilled url must be found however many others share its hash."""
    monkeypatch.setattr(
        seen_mod, "url_hash64_many",
        lambda urls: np.array([len(u) % 4 for u in urls], dtype=np.uint64),
    )
    s = SeenShard(0, spill_dir=str(tmp_path / "weak"), max_mem_urls=16)
    members, others = URLS[:200:2], URLS[1:200:2]
    for i in range(0, len(members), 12):
        assert s.add_many(members[i:i + 12]).all()
    assert len(s._runs) > 1 and s.urls  # spilled runs AND a hot set
    assert s.contains_many(members).all()
    assert not s.contains_many(others).any()
    mask = s.add_many(members[::3] + others[:10])
    assert list(mask) == [False] * len(members[::3]) + [True] * 10
    assert s.size() == len(members) + 10
    assert set(s.snapshot().column("url").to_pylist()) == (
        set(members) | set(others[:10]))


def test_seen_shard_rejects_retired_options():
    import pytest

    from owlcrawler_ray.pipelines.crawl import CrawlConfig

    for kw in ({"capacity": 8}, {"exact": False}, {"use_cuckoo": False}):
        with pytest.raises(ValueError):
            SeenShard(0, **kw)
    for kw in ({"exact_seen": False}, {"use_cuckoo": False},
               {"keep_logs": True}):
        with pytest.raises(ValueError):
            CrawlConfig(**kw)


def test_bloom_sparse_partials_assemble_exactly():
    """anti_join_bloom's distributed build: sparse bit-index partials
    (O(batch keys), never O(build cardinality)) OR-assembled per bit-range
    shard must equal the filter built by add_many — and the partial bytes
    must not scale with the build-side capacity."""
    batch = url_hash64_many([f"http://k{i}.test/" for i in range(500)])

    small, big = BloomFilter(10_000), BloomFilter(50_000_000)
    p_small = np.unique(bloom_bit_indices(batch, small.m, small.k).ravel())
    p_big = np.unique(bloom_bit_indices(batch, big.m, big.k).ravel())
    # partial size is O(batch x k): bounded by the key count either way
    assert len(p_big) <= len(batch) * big.k
    # and ~independent of capacity: nowhere near the full-width bit array
    # (the r2 flaw shipped big.m bits — >5 MB — per partial)
    assert p_big.nbytes < p_small.nbytes * (big.k / small.k) * 2
    assert p_big.nbytes * 20 < big.m // 8

    # shard-OR assembly reproduces add_many bit-for-bit
    direct = BloomFilter(10_000)
    direct.add_many(batch)
    n_shards = 8
    span = direct.m // n_shards
    assembled = BloomFilter(10_000)
    shards = (p_small // span).astype(np.int64)
    for s in range(n_shards):
        local = p_small[shards == s] - s * span
        words = np.zeros(span // 64, dtype=np.uint64)
        np.bitwise_or.at(
            words, (local >> 6).astype(np.int64),
            np.uint64(1) << (local.astype(np.uint64) & np.uint64(63)),
        )
        assembled.bits[s * (span // 64):(s + 1) * (span // 64)] = words
    assert np.array_equal(assembled.bits, direct.bits)
    assert assembled.contains_many(batch).all()


def test_seen_shard_model_based_property():
    """Model-based check (hypothesis): any sequence of add_many batches
    against a spill-enabled shard must agree with a plain set model on
    EVERY URL (no false positives, no false negatives), and each batch's
    mask must mark exactly the urls that were new."""
    import shutil
    import tempfile

    from hypothesis import given, settings
    from hypothesis import strategies as st

    universe = [f"http://h{i % 5}.test/p{i}" for i in range(48)]

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.lists(st.integers(0, 47), min_size=1, max_size=8),
            max_size=40,
        )
    )
    def run(ops):
        d = tempfile.mkdtemp(prefix="seen_model_")
        try:
            s = SeenShard(0, spill_dir=d, max_mem_urls=12)
            model: set[str] = set()
            for idxs in ops:
                urls = [universe[i] for i in idxs]
                got = s.add_many(urls)
                want = []
                for u in urls:
                    want.append(u not in model)
                    model.add(u)
                assert list(got) == want
                mask = s.contains_many(universe)
                assert [bool(m) for m in mask] == [
                    u in model for u in universe
                ]
                assert s.size() == len(model)
            # snapshot -> restore round-trips the exact logical set
            d2 = tempfile.mkdtemp(prefix="seen_model_r_")
            try:
                s2 = SeenShard(0, spill_dir=d2, max_mem_urls=12)
                s2.restore(s.snapshot())
                mask = s2.contains_many(universe)
                assert [bool(m) for m in mask] == [
                    u in model for u in universe
                ]
            finally:
                shutil.rmtree(d2, ignore_errors=True)
        finally:
            shutil.rmtree(d, ignore_errors=True)

    run()


def test_frontier_model_based_property():
    """Model-based check: any interleaving of push / remove(live seqs) /
    peek must agree with a sorted-dict model on ordering ((priority, seq)
    total order), sizes, and snapshot/restore round-trips. Removal follows
    the pipeline contract: only currently-live seqs, each removed once
    (admission removes seqs it just peeked)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=50, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["push", "remove", "peek"]),
                st.lists(st.integers(0, 3), min_size=1, max_size=6),
                st.integers(1, 10),
            ),
            max_size=30,
        )
    )
    def run(steps):
        f = FrontierShard(0)
        model: dict[int, tuple] = {}
        next_seq = 0
        for kind, prios, k in steps:
            if kind == "push":
                entries = []
                for p in prios:
                    e = (float(p), next_seq, f"http://h{p}.test/p{next_seq}",
                         f"h{p}.test", 1)
                    entries.append(e)
                    model[next_seq] = e
                    next_seq += 1
                f.push_table(entries_table(
                    [e[2] for e in entries], [e[3] for e in entries],
                    [e[4] for e in entries], [e[0] for e in entries],
                    [e[1] for e in entries],
                ))
            elif kind == "remove" and model:
                live = sorted(model)
                victims = [live[i % len(live)] for i in prios]
                victims = list(dict.fromkeys(victims))
                f.remove_seqs(victims)
                for s in victims:
                    del model[s]
            else:
                want = sorted(model.values())[:k]
                got = f.peek(k)
                assert got.column("discovered_seq").to_pylist() == [
                    e[1] for e in want
                ]
                assert got.column("url").to_pylist() == [e[2] for e in want]
            assert f.size() == len(model)
        f2 = FrontierShard(1)
        f2.restore(f.snapshot())
        assert f2.size() == len(model)
        assert f2.peek(len(model) + 1).column("discovered_seq").to_pylist() \
            == [e[1] for e in sorted(model.values())]

    run()


def _capped_scan(entries, k, per_host):
    """The first k of ``entries`` by (priority, seq), at most
    ``per_host`` per host (0: no cap) — the brute-force peek."""
    out, taken = [], {}
    for e in sorted(entries):
        if len(out) == k:
            break
        if per_host and taken.get(e[3], 0) >= per_host:
            continue
        taken[e[3]] = taken.get(e[3], 0) + 1
        out.append(e)
    return out


def test_frontier_capped_peek_matches_sorted_scan():
    """FrontierShard: after any sequence of push_table, remove_seqs (foreign and repeated seqs
    too) and drop_urls, peek(k, per_host) equals a brute-force sorted
    scan of the live entries, for any k and cap, and snapshot/restore
    keeps every live entry."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    prio = st.sampled_from([-1.0, 0.0, 0.0, 0.0, 2.5])
    item = st.tuples(prio, st.integers(0, 4), st.integers(0, 5))
    step = st.one_of(
        st.tuples(st.just("push"), st.lists(item, max_size=8)),
        st.tuples(st.just("remove"), st.lists(st.integers(0, 80),
                                              max_size=6)),
        st.tuples(st.just("drop"), st.lists(st.tuples(st.integers(0, 4),
                                                      st.integers(0, 5)),
                                            max_size=4)),
        st.tuples(st.just("peek"), st.tuples(st.integers(0, 30),
                                             st.integers(0, 4))),
    )

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(step, max_size=25),
           seqs=st.permutations(list(range(200))))
    def run(steps, seqs):
        it = iter(seqs)
        f = FrontierShard(0)
        model: dict[int, tuple] = {}
        for kind, arg in steps:
            if kind == "push":
                es = [(p, next(it), f"http://h{h}.test/p{u}", f"h{h}.test", 1)
                      for p, h, u in arg]
                f.push_table(entries_table(
                    [e[2] for e in es], [e[3] for e in es],
                    [e[4] for e in es], [e[0] for e in es],
                    [e[1] for e in es]))
                model.update((e[1], e) for e in es)
            elif kind == "remove":
                f.remove_seqs(arg)
                for q in arg:
                    model.pop(q, None)
            elif kind == "drop":
                urls = [f"http://h{h}.test/p{u}" for h, u in arg]
                f.drop_urls(urls)
                for q in [q for q, e in model.items() if e[2] in urls]:
                    del model[q]
            else:
                k, cap = arg
                got = f.peek(k, cap)
                want = _capped_scan(model.values(), k, cap)
                assert got.column("discovered_seq").to_pylist() == [
                    e[1] for e in want]
                assert got.column("url").to_pylist() == [e[2] for e in want]
                assert got.column("host").to_pylist() == [e[3] for e in want]
            assert f.size() == len(model)
        f2 = FrontierShard(1)
        f2.restore(f.snapshot())
        assert f2.peek(len(model) + 1).column("discovered_seq").to_pylist() \
            == [e[1] for e in sorted(model.values())]

    run()


def test_frontier_long_queue_peek_paths_match_sorted_scan():
    """On a queue far longer than the peek, after removes from deep in
    the queue and url drops: small and large peeks, capped and uncapped,
    each equal the brute-force scan."""
    import random

    rng = random.Random(7)
    f = FrontierShard(0)
    seqs = rng.sample(range(100_000), 3_000)
    es = [(rng.choice([-1.0, 0.0, 0.0, 2.5]), s,
           f"http://h{s % 23}.test/p{s % 997}", f"h{s % 23}.test", 1)
          for s in seqs]
    f.push_table(entries_table([e[2] for e in es], [e[3] for e in es],
                               [e[4] for e in es], [e[0] for e in es],
                               [e[1] for e in es]))
    model = {e[1]: e for e in es}
    for _ in range(5):
        live = sorted(model)
        gone = rng.sample(live[len(live) // 4:], len(live) // 3)
        f.remove_seqs(gone)
        urls = [model[q][2] for q in rng.sample(live, 20) if q in model]
        f.drop_urls(urls)
        for q in gone:
            model.pop(q, None)
        for q in [q for q, e in model.items() if e[2] in urls]:
            del model[q]
        assert f.size() == len(model)
        for k, cap in [(1, 0), (7, 0), (40, 0), (len(model) // 2, 0),
                       (5, 1), (40, 2), (300, 4), (len(model), 3)]:
            got = f.peek(k, cap).column("discovered_seq").to_pylist()
            assert got == [e[1] for e in
                           _capped_scan(model.values(), k, cap)], (k, cap)


def test_politeness_token_bucket_property():
    """Property check: over any admit sequence, a host can never be
    granted more than burst + rate * elapsed tokens in total (the token
    bucket's defining invariant), and grants are never negative."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        reqs=st.lists(
            st.tuples(st.integers(0, 20), st.floats(0.0, 5.0)),
            min_size=1, max_size=25,
        )
    )
    def run(reqs):
        cfg = PolitenessConfig(mode="polite", rate_per_s=2.0, burst=5.0)
        g = PolitenessGate(cfg)
        t = 0.0
        granted = 0
        for want, dt in reqs:
            t += dt
            got = _grant(g, "h.test", want, now_s=t)
            assert 0 <= got <= want
            granted += got
            # total grants can never exceed burst + rate * elapsed
            assert granted <= cfg.burst + cfg.rate_per_s * t + 1e-6

    run()


def test_int_hash64_vectorized_bloom_roundtrip():
    """int_hash64_many (the numeric splitmix64 path under
    anti_join_bloom) must be deterministic, avalanche sequential keys
    apart, and drive the bloom with no false negatives and a sane
    false-positive rate."""
    import numpy as np

    from owlcrawler_ray.functions.ids import int_hash64_many

    keys = np.arange(10_000, dtype=np.int64)
    h1, h2 = int_hash64_many(keys), int_hash64_many(keys)
    assert h1.dtype == np.uint64 and (h1 == h2).all()
    # avalanche: sequential ints must not collide and must spread over
    # the high bits (a multiplicative-only hash fails this)
    assert len(np.unique(h1)) == len(keys)
    assert len(np.unique(h1 >> np.uint64(48))) > 5_000

    b = BloomFilter(10_000, fp_rate=0.01)
    b.add_many(h1)
    assert b.contains_many(h1).all()  # no false negatives
    other = int_hash64_many(np.arange(50_000, 60_000, dtype=np.int64))
    fp = b.contains_many(other).mean()
    assert fp < 0.05, fp


def test_seen_shard_cold_construction_over_dirty_spill_dir(tmp_path):
    """A FRESH shard constructed over an existing spill_dir (actor
    restart / resume before the first checkpoint) must load the runs:
    contains_many and add_many's mask must both see every spilled URL."""
    d = str(tmp_path / "spill")
    urls = [f"http://h/{i}" for i in range(120)]
    s1 = SeenShard(0, spill_dir=d, max_mem_urls=50)
    s1.add_many(urls)
    s2 = SeenShard(0, spill_dir=d, max_mem_urls=50)
    assert s2._runs and not s2.urls  # everything came back from the runs
    assert s2.contains_many(urls).all()
    assert not s2.add_many(urls).any()


def test_parse_robots_agent_groups():
    """Consecutive User-agent lines form ONE group sharing the rules
    that follow (robots spec); a second agent line must not wipe the
    wildcard's membership in the group."""
    from owlcrawler_ray.state.politeness import parse_robots

    txt = "User-agent: *\nUser-agent: otherbot\nDisallow: /private\n"
    assert parse_robots(txt) == [("/private", False)]
    # a NEW group after rules resets membership
    txt2 = ("User-agent: otherbot\nDisallow: /a\n"
            "User-agent: *\nDisallow: /b\n")
    assert parse_robots(txt2) == [("/b", False)]
    # wildcard second in its group still counts
    txt3 = "User-agent: x\nUser-agent: *\nDisallow: /c\n"
    assert parse_robots(txt3) == [("/c", False)]


def test_parse_robots_rfc9309_groups_and_selection():
    """RFC 9309 upgrades (round-4 verdict item #7): Allow lines kept,
    empty Disallow dropped (allow-all form), specific-agent group
    selection with longest-token precedence over `*`."""
    from owlcrawler_ray.state.politeness import parse_robots

    txt = ("User-agent: *\nDisallow: /a\nAllow: /a/pub\n"
           "User-agent: owl\nDisallow: /b\n"
           "User-agent: owlcrawler\nDisallow: /c\nAllow: /c/ok\n")
    # no agent: only the * group
    assert parse_robots(txt) == [("/a", False), ("/a/pub", True)]
    # agent matching BOTH specific tokens: longest token ('owlcrawler')
    # wins and the * group is ignored entirely
    assert parse_robots(txt, agent="OwlCrawler/1.0") == [
        ("/c", False), ("/c/ok", True)]
    # agent matching only the short token
    assert parse_robots(txt, agent="owlbot") == [("/b", False)]
    # agent matching nothing falls back to *
    assert parse_robots(txt, agent="unrelated") == [
        ("/a", False), ("/a/pub", True)]
    # the allow-all form: empty Disallow is no rule at all
    assert parse_robots("User-agent: *\nDisallow:\n") == []


def test_robots_precedence_and_wildcards():
    """RFC 9309 matching: longest-pattern-octets precedence, Allow wins
    ties, `*` spans any octets, trailing `$` anchors the end, no match
    means allowed; query strings participate in the match."""
    from owlcrawler_ray.state.politeness import (
        PolitenessConfig, PolitenessGate, parse_robots)

    from owlcrawler_ray.state.politeness import _CompiledRules

    txt = ("User-agent: *\n"
           "Disallow: /shop/\n"
           "Allow: /shop/public/\n"
           "Disallow: /shop/public/*.json\n"
           "Disallow: /exact.html$\n"
           "Allow: /dup\n"
           "Disallow: /dup\n")
    r = _CompiledRules(parse_robots(txt))
    assert not r.allowed("/shop/cart")            # /shop/ (7)
    assert r.allowed("/shop/public/item")         # allow 14 > disallow 7
    assert not r.allowed("/shop/public/a.json")   # wildcard 21 > allow 14
    assert not r.allowed("/exact.html")           # anchored match
    assert r.allowed("/exact.html.bak")           # $ stops the match
    assert r.allowed("/dup")                      # tie -> Allow wins
    assert r.allowed("/anything-else")            # no match -> allowed
    # gate-level: query participates (pattern can hit it via *)
    gate = PolitenessGate(PolitenessConfig(
        disallow={"*": ["/search?*priv"]}))
    assert not gate.allowed("http://h.test/search?x=priv")
    assert gate.allowed("http://h.test/search?x=pub")


def test_politeness_allowed_survives_malformed_url():
    from owlcrawler_ray.state.politeness import (
        PolitenessConfig, PolitenessGate)

    g = PolitenessGate(PolitenessConfig())
    assert g.allowed("http://host/x") is True
    assert g.allowed("http://[x/p") is False  # malformed -> skip, not crash


def test_frontier_remove_seqs_idempotent_and_foreign_safe():
    """Replayed removes (after compaction re-armed the seq) and foreign
    seqs must not corrupt the live counter."""
    from owlcrawler_ray.state.frontier import FrontierShard, entries_table

    f = FrontierShard(0)
    f.push_table(entries_table(
        ["u0", "u1", "u2"], ["h", "h", "h"], [0, 0, 0],
        [0.0, 0.0, 0.0], [0, 1, 2]))
    assert f.remove_seqs([1]) == 2
    assert f.remove_seqs([1]) == 2   # replay after compaction: no-op
    assert f.remove_seqs([99]) == 2  # foreign seq: no-op
    assert f.peek(10).num_rows == 2
    assert f.remove_seqs([0, 2]) == 0


def test_codec_decode_raises_valueerror_on_all_corruption():
    """decode()'s documented contract is ValueError — truncated headers,
    unknown fmt codes and corrupt zlib streams must all normalize to it
    (callers' catch lists depend on this; a real fetch hands decode
    arbitrary bytes)."""
    import numpy as np
    import pytest

    from owlcrawler_ray.functions import codec

    good = codec.encode(
        np.zeros((4, 4, 3), dtype=np.uint8), "png")
    for bad in (
        codec.MAGIC,                      # truncated header
        codec.MAGIC + b"\xff" + good[5:], # unknown fmt code
        good[:10] + b"garbage",           # corrupt zlib stream
        b"not even close",                # foreign payload
    ):
        with pytest.raises(ValueError):
            codec.decode(bad)


def test_es_fragments_empty_terms_returns_nothing():
    from owlcrawler_ray.functions.textops import es_fragments

    assert es_fragments("hello world " * 5, ()) == []

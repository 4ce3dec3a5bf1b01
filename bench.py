#!/usr/bin/env python
"""Benchmark harness. Prints ONE JSON line:

  {"metric": "...", "value": <headline seconds>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": <sf>, "num_cpus": N,
   "crawl": {urls_per_s, image_rows_per_s, ...}}

Headline = the flagship crawl (fetch -> extract -> decode -> sink) over the
deterministic synthetic web (BENCH_WEB scale), plus per-query timings for
the operator suite over $GRAFT_SF_DIR (default /root/testdata/sf0.1).

  python bench.py              # best-of-2 at $RAY_GRAFT_CPUS (default 32)
  python bench.py --scaling    # 2-cpu vs 8-cpu subprocess runs + efficiency
  GRAFT_SEEN_SPILL=1 python bench.py   # crawl over the spill-mode seen set

The VM has noisy neighbors (identical runs measured 49 s vs 83 s), so
EVERY reported number is a min-of-2: the headline crawl runs as two fresh
subprocess sessions, the query suite as two in-process passes — both raw
legs are recorded in the JSON so round-over-round deltas measure the
engine, not the neighbors.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# window/noise policy constants — ONE definition each: leg_policy's budget
# reservation assumes the sleep it reserves is the sleep run_default takes,
# and the session flag must apply the same band/spread the stop decision
# used, or the recorded quiet/noisy label desynchronizes from the policy
EXTRA_BUDGET_S = 300.0   # spend beyond the mandatory two legs
WAIT_SLEEP_S = 45.0      # spacing between legs in a noisy plateau
LEG_SPREAD_MAX = 1.25    # two-leg agreement bound for min-of-legs trust


def quiet_band_s(ncpu: int) -> float:
    """Crawl-leg seconds under which a window counts as quiet at this
    width (20 s at 32 cpus, scaled to the width's expected runtime)."""
    return 20.0 * (32.0 / max(ncpu, 1))


def _sf_label() -> str:
    """Scale-factor label from the LAST 'sf' segment of the dir basename
    (a raw split on 'sf' anywhere in the path mislabels e.g. .../sf0.1_x)."""
    import re

    m = re.search(r"sf([0-9.]+)", os.path.basename(SF_DIR.rstrip("/")))
    return m.group(1) if m else os.path.basename(SF_DIR.rstrip("/"))

BENCH_QUERIES = [
    "word_index",
    "pricing_summary",
    "exact_dedup",
    "filter_scan",
    "broadcast_join",
    "anti_join_unseen",
    "topk",
    "events_hourly",
    "token_stats",
    "quality_scores",
    "minhash_lsh_pairs",
    "ann_topk",
    "ann_ivf",
    "embedding_near_dup",
    "simhash_dedup",
    "images_decode_stats",
    "images_phash_pairs",
    "bpe_tokens",
    "sessionization",
    "images_thumbnails",
    "video_frame_sample",
    "audio_features",
    "search",
    "search_es",
    "search_highlights",
    "ngram_jaccard_verify",
    "partitioned_join",
    "fifo_order",
    "point_lookup",
    "dedup_documents",
    "top_events_per_user",
    "events_sliding_3h",
    "ann_ivf_centroids",
    "corpus_export",
    "deterministic_sample",
    "hll_distinct_orders",
    "frequent_words",
    "cms_frequent_words",
    "anti_join_bloom",
    "quantiles_price",
    "search_es_envelope",
    "bigram_setops",
    "label_centroids",
    "events_asof_join",
    "events_range_join",
    "stratified_sample",
    "importance_sample",
    "lang_length_quantiles",
    "normalize_text",
    "top_terms_per_doc",
    "users_per_event_type",
    "length_outliers",
    "decontaminate",
    "gopher_repetition",
    "semantic_dedup",
    "near_dup_dedup",
    "sequence_packing",
    "pii_scrub",
    "unigram_rarity",
    "dup_ngram_fraction",
    "source_overlap",
    "embedding_quantize",
    "ann_topk_int8",
    "ann_pq",
    "events_hourly_users_hll",
    "customer_order_counts",
    "dataset_split",
    "source_quota",
    "bm25_search",
    "bigram_pmi",
    "training_mix",
]


def _init_ray() -> None:
    """One shared Ray session bootstrap for every bench mode. worker
    stdout/stderr stay in the per-worker log files: a stray worker print
    forwarded to the driver would pollute the ONE-JSON-line stdout
    contract (observed once from a shuffle reduce task)."""
    import logging

    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=NCPU,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        log_to_driver=False,
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _time_queries() -> dict:
    """One timed pass over the operator suite (page cache pre-warmed by
    the caller)."""
    import ray.data as rd

    from owlcrawler_ray.pipelines.queries import QUERIES

    qtimes = {}
    for name in BENCH_QUERIES:
        t0 = time.perf_counter()
        res = QUERIES[name](SF_DIR)
        if isinstance(res, rd.Dataset):
            res.count()  # drives the full pipeline
        qtimes[name] = round(time.perf_counter() - t0, 3)
    return qtimes


def _warm_page_cache() -> None:
    """Read EVERY sf parquet once so query timings measure
    compute+shuffle, not first disk read (the earlier hand-picked list
    missed customer.parquet, so broadcast_join's pass 1 paid cold I/O)."""
    import glob

    for path in sorted(glob.glob(f"{SF_DIR}/*.parquet")):
        with open(path, "rb") as f:
            f.read()


def run_once() -> dict:
    import ray

    _init_ray()
    from owlcrawler_ray.pipelines.crawl import CrawlConfig, run_crawl
    from owlcrawler_ray.sources.corpus import WebConfig

    # ---- headline: the crawl ------------------------------------------
    # sized so the low-cpu run is minutes of steady-state parallel work
    # (scaling-efficiency evidence needs compute, not orchestration, to
    # dominate): realistic page weight (~8-10 KB html, 64-192 px images),
    # fanout-4 link tree (shallow BFS -> few, large rounds)
    web = WebConfig(num_hosts=120, base_pages=240, hot_factor=8,
                    n_seed_hosts=120, fanout=4, paragraphs=12,
                    words_per_paragraph=50, img_scale=2)
    base = f"/tmp/owlcrawl_bench/{NCPU}"
    shutil.rmtree(base, ignore_errors=True)
    cfg = CrawlConfig(
        web=web,
        budget_per_round=40000,
        num_seen_shards=8,
        num_frontier_shards=8,
        fetch_concurrency=max(2, NCPU - 4),
        fetch_batch_size=32,
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        checkpoint_every=4,
        # GRAFT_SEEN_SPILL=1: run the 10^10-scale seen-set path (sorted
        # parquet runs + vectorized run membership) — the SCALING.md round-3
        # measurement, reproducible: measured FASTER than in-memory
        seen_spill=os.environ.get("GRAFT_SEEN_SPILL") == "1",
        seen_max_mem_urls=2048,
    )
    from owlcrawler_ray.pipelines.crawl import warmup_workers

    # steady-state measurement: NCPU task workers started, with the fused
    # task's module and the Arrow deserializer imported. Ray Data's actors
    # are not started here; the query suite runs in a fresh session and
    # keeps the minimum of two passes, so its first pass pays for them
    warmup_workers(NCPU)
    t0 = time.perf_counter()
    crawler, summary = run_crawl(cfg)
    crawl_sec = time.perf_counter() - t0
    n_images = sum(m["images"] for m in crawler.metrics["rounds"])
    crawler.shutdown()
    crawl_stats = {
        "sec": round(crawl_sec, 3),
        "fetched_urls": summary["fetched"],
        "attempt_ticks": summary["ticks"],
        "image_rows": n_images,
        "urls_per_s": round(summary["fetched"] / crawl_sec, 2),
        "image_rows_per_s": round(n_images / crawl_sec, 2),
        # spill-mode legs must be distinguishable in BENCH history — a
        # seen-set-mode mismatch would silently corrupt min-of-2 deltas
        "seen_spill": cfg.seen_spill,
    }

    # crawl-only result: run_once is ONLY ever the GRAFT_SKIP_QUERIES=1
    # subprocess leg (scaling/headline legs feed min-of-legs ratios);
    # query timings come exclusively from run_default's min-of-2 passes —
    # a single cold pass here would contradict that contract
    out = {
        "metric": "crawl fetch+decode wall-clock (synthetic web, parity "
                  "mode)",
        "value": round(crawl_sec, 3), "unit": "sec", "queries": {},
        "sf": _sf_label(), "num_cpus": NCPU,
        "crawl": crawl_stats,
    }
    ray.shutdown()
    return out


def _crawl_leg(ncpu: int) -> dict:
    """One crawl-only bench run in a FRESH subprocess/Ray session."""
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SKIP_QUERIES="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=env, capture_output=True, text=True,
    )
    # surface the leg's own stderr on any failure: check=True would
    # discard it ('returned non-zero exit status 1' after a 20-minute
    # run), and an empty-stdout leg would die in splitlines()[-1]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"crawl leg at {ncpu} cpus failed (exit {proc.returncode}); "
            f"stderr tail: {proc.stderr[-2000:]!r}"
        )
    return json.loads(lines[-1])


def leg_policy(secs: list[float], ncpu: int, extra_elapsed: float) -> str:
    """Decide what to do after each headline-crawl leg: 'stop' (window is
    quiet and the minimum is trustworthy), 'retry' (take another leg now),
    or 'wait' (sleep first — the window is noisy, and on this VM noise
    windows shift on minute scales, so a SPACED leg is far more likely to
    catch a dip than a back-to-back one; BENCH_r04 recorded a 21.6 s
    "quiet" capture of 13.4 s-capable code because its four legs all fell
    inside one noisy window).

    Pure function of (leg seconds so far, cpu width, extra wall-clock
    already spent beyond the first two legs) so the policy is unit-testable
    without running crawls. Budget: before choosing 'wait' or 'retry' the
    policy RESERVES the cost of that action (the sleep plus one leg at the
    slowest pace seen so far), so the extra spend beyond the mandatory two
    legs stays within EXTRA_BUDGET_S unless the final leg runs slower than
    every previous one — a post-spend check alone would let a 'wait' issued
    at 299 s burn another sleep+leg past the bound."""
    band = quiet_band_s(ncpu)
    srt = sorted(secs)
    # the recorded artifact is min-of-legs, so the minimum is trustworthy
    # once the two SMALLEST legs agree within LEG_SPREAD_MAX inside the
    # quiet band (spread over ALL legs would never recover from noisy
    # early legs and would burn the budget re-confirming a confirmed dip)
    if srt[0] <= band and srt[1] / max(srt[0], 1e-9) <= LEG_SPREAD_MAX:
        return "stop"
    # every leg above the band = a noisy plateau: waiting beats
    # re-measuring the same window; a lone unconfirmed dip = the window
    # is already moving, measure again immediately to confirm it
    act = "wait" if srt[0] > band else "retry"
    cost = srt[-1] + (WAIT_SLEEP_S if act == "wait" else 0.0)
    if extra_elapsed + cost > EXTRA_BUDGET_S:
        return "stop"
    return act


def run_default() -> dict:
    """Default bench: headline crawl = min of TWO fresh subprocess legs
    (+ adaptive spaced legs while the window is noisy, bounded by
    leg_policy's budget); query suite = per-query min of TWO in-process
    passes. Raw legs are kept in the JSON (crawl_legs / queries_runs)."""
    import ray

    # fail on a registry drift BEFORE burning two multi-minute crawl legs
    from owlcrawler_ray.pipelines.queries import QUERIES
    missing = [n for n in BENCH_QUERIES if n not in QUERIES]
    if missing:
        raise SystemExit(f"BENCH_QUERIES not in registry: {missing}")

    legs = [_crawl_leg(NCPU), _crawl_leg(NCPU)]
    t_extra = time.perf_counter()
    while True:
        act = leg_policy([l["crawl"]["sec"] for l in legs], NCPU,
                         time.perf_counter() - t_extra)
        if act == "stop":
            break
        if act == "wait":
            time.sleep(WAIT_SLEEP_S)
        legs.append(_crawl_leg(NCPU))
    best = min(legs, key=lambda r: r["crawl"]["sec"])
    # machine-state flag: record the leg spread so a future reader can
    # tell session noise from a code regression. "quiet" requires BOTH a
    # tight spread AND a minimum inside the quiet band — a stable-slow
    # plateau (e.g. BENCH_r04's 21.6 s capture, spread 1.042) is a noisy
    # session that happens to be flat, not a quiet one
    secs = sorted(l["crawl"]["sec"] for l in legs)
    leg_spread = round(secs[-1] / max(secs[0], 1e-9), 3)
    session = ("quiet" if leg_spread <= LEG_SPREAD_MAX
               and secs[0] <= quiet_band_s(NCPU) else "noisy")

    _init_ray()
    _warm_page_cache()
    runs = [_time_queries() for _ in range(2)]
    # adaptive third pass: the suite runs AFTER the crawl legs, so a
    # window that degrades mid-bench inflates both passes together and
    # min-of-2 cannot save the recorded tail. When the pass totals
    # disagree >1.2x, one more pass (~45-60 s) makes the per-query
    # minima window-robust, same stance as the crawl leg policy.
    t1, t2 = (sum(r.values()) for r in runs)
    if max(t1, t2) > 1.2 * max(min(t1, t2), 1e-9):
        runs.append(_time_queries())
    ray.shutdown()
    qmin = {n: min(r[n] for r in runs) for n in BENCH_QUERIES}

    return {
        "metric": "crawl fetch+decode wall-clock (synthetic web, parity "
                  "mode, min-of-2 fresh sessions) + operator suite timings "
                  "(min-of-2 passes)",
        "value": best["crawl"]["sec"],
        "unit": "sec",
        "queries": qmin,
        "queries_runs": runs,
        "sf": _sf_label(),
        "num_cpus": NCPU,
        "crawl": best["crawl"],
        "crawl_legs": [l["crawl"] for l in legs],
        "leg_spread": leg_spread,
        "session": session,
    }


def run_scaling() -> dict:
    # N=2 vs 4N=8: both legs sit well inside the PHYSICAL core budget. The
    # box advertises 32 logical cpus, but measured ceilings for this
    # memory-/IO-heavy workload under plain multiprocessing are ~0.75 for
    # 4->16 workers and ~2.9x for 8->32 (SMT + DRAM bandwidth) — pairs
    # that include 16+ workers measure the machine, not the engine. 2->8
    # has a ~1.0 hardware ceiling, so the 4x ratio is honest.
    n_lo, n_hi = 2, 8

    # INTERLEAVED lo/hi rounds (the STATS.md A/B methodology): the ratio
    # needs both widths measured in the SAME window, and sequential
    # lo,lo,hi,hi legs straddle window shifts (identical-code legs have
    # measured 1.5-1.9x apart across minutes on this VM). Alternating
    # widths makes each round sample one window; min-of-legs per width
    # then compares like with like. A third round is added when either
    # width's legs disagree >1.25x, for BOTH widths so the extra window
    # is sampled symmetrically.
    results: dict[int, list] = {n_lo: [], n_hi: []}
    for _ in range(2):
        for n in (n_lo, n_hi):
            results[n].append(_crawl_leg(n))

    def _spread(n: int) -> float:
        secs = sorted(l["crawl"]["sec"] for l in results[n])
        return secs[-1] / max(secs[0], 1e-9)

    if _spread(n_lo) > LEG_SPREAD_MAX or _spread(n_hi) > LEG_SPREAD_MAX:
        for n in (n_lo, n_hi):
            results[n].append(_crawl_leg(n))

    raw_legs = {n: sorted(l["crawl"]["sec"] for l in results[n])
                for n in (n_lo, n_hi)}
    lo = min(results[n_lo], key=lambda r: r["crawl"]["sec"])
    hi = min(results[n_hi], key=lambda r: r["crawl"]["sec"])
    thr_lo = lo["crawl"]["urls_per_s"]
    thr_hi = hi["crawl"]["urls_per_s"]
    img_lo = lo["crawl"]["image_rows_per_s"]
    img_hi = hi["crawl"]["image_rows_per_s"]
    return {
        "metric": f"crawl throughput scaling N={n_lo} -> 4N={n_hi} cpus",
        "cpus_lo": n_lo,
        "cpus_hi": n_hi,
        "urls_per_s_lo": thr_lo,
        "urls_per_s_hi": thr_hi,
        "image_rows_per_s_lo": img_lo,
        "image_rows_per_s_hi": img_hi,
        "sec_lo": lo["crawl"]["sec"],
        "sec_hi": hi["crawl"]["sec"],
        "scaling_efficiency": round((thr_hi / thr_lo) / 4.0, 3),
        "image_scaling_efficiency": round((img_hi / img_lo) / 4.0, 3),
        # machine-state evidence: raw legs per level + two flags.
        # "session" is the headline bench's stance exactly — full max/min
        # spread ≤ 1.25 AND the minimum inside the width's quiet band, per
        # width (a lone outlier leg or a stable-slow plateau reads noisy).
        # "minima_confirmed" records the weaker property the RATIO needs:
        # each width's minimum was reproduced within 1.25x by its second-
        # smallest leg, so min-of-legs per width is trustworthy even when
        # an outlier leg flags the session noisy.
        "legs_lo": raw_legs.get(n_lo),
        "legs_hi": raw_legs.get(n_hi),
        "session": ("quiet" if all(
            l[-1] / max(l[0], 1e-9) <= LEG_SPREAD_MAX
            and l[0] <= quiet_band_s(n)
            for n, l in raw_legs.items()) else "noisy"),
        "minima_confirmed": all(
            l[1] / max(l[0], 1e-9) <= LEG_SPREAD_MAX
            for l in raw_legs.values()),
    }


def run_megaround() -> dict:
    """Mega-round driver-loop proof (SCALING.md): ONE crawl round at a
    politeness budget >= 100k ticks, frontier pre-filled with the whole
    web, measuring what fraction of the round the O(budget) DRIVER loops
    (admission peek/merge, tick walk) take vs the distributed work. The
    claim under test: at 10^5-tick rounds the driver is nowhere near the
    ceiling (tick_walk < 10% of round time)."""
    import ray

    _init_ray()
    from owlcrawler_ray.pipelines.crawl import Crawler, CrawlConfig, warmup_workers
    from owlcrawler_ray.sources.corpus import WebConfig

    web = WebConfig(num_hosts=40, base_pages=2700, hot_factor=4,
                    n_seed_hosts=40, fanout=4)
    base = f"/tmp/owlcrawl_mega/{NCPU}"
    shutil.rmtree(base, ignore_errors=True)
    budget = 110_000
    cfg = CrawlConfig(
        web=web, budget_per_round=budget,
        num_seen_shards=8, num_frontier_shards=8,
        fetch_concurrency=max(2, NCPU - 4),
        out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
        max_rounds=1,
        # honor the spill knob like every other bench mode — a mega-round
        # silently measured in-memory under GRAFT_SEEN_SPILL=1 would be
        # indistinguishable from a real spill-mode record
        seen_spill=os.environ.get("GRAFT_SEEN_SPILL") == "1",
        seen_max_mem_urls=2048 if os.environ.get("GRAFT_SEEN_SPILL") == "1"
        else 1 << 20,
    )
    warmup_workers(NCPU)
    c = Crawler(cfg)
    # pre-fill the frontier with the entire web so ONE round admits the
    # full budget (BFS growth would otherwise need many warmup rounds)
    # roots are ALREADY queued by Crawler's seed step (n_seed_hosts ==
    # num_hosts), so only the unseeded page-1..N-1 urls are pushed here
    urls = []
    for i in range(web.num_hosts):
        urls.extend(
            f"http://host-{i}.test/page-{j}.html"
            for j in range(1, web.pages_on(i))
        )
    c._push_frontier(urls, [1] * len(urls), [0.0] * len(urls))
    t0 = time.perf_counter()
    summary = c.run()
    wall = time.perf_counter() - t0
    m = c.metrics["rounds"][0]

    # streaming-view proof (r4 verdict item #1): consume BOTH output
    # views end-to-end as Datasets and show the driver heap does not
    # grow with the corpus — the old pages_table()/images_table() path
    # concatenated every html/image byte on the driver; the streaming
    # views join the bounded per-round stamps sidecar task-side and the
    # driver only sees counts here
    def _rss_mb() -> float:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmRSS"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    store_mb = sum(
        os.path.getsize(os.path.join(dp, fn))
        for dp, _, fns in os.walk(cfg.out_dir) for fn in fns
    ) / (1 << 20)
    rss0 = _rss_mb()
    tv = time.perf_counter()
    n_pages = c.pages_dataset().count()
    n_images = c.images_dataset().count()
    views = {
        "pages_rows": n_pages,
        "images_rows": n_images,
        "consume_sec": round(time.perf_counter() - tv, 3),
        "store_mb": round(store_mb, 1),
        "driver_rss_delta_mb": round(_rss_mb() - rss0, 1),
    }
    c.shutdown()
    ray.shutdown()
    tm = m["timings"]
    round_sec = sum(v for k, v in tm.items())
    out = {
        "metric": "mega-round driver-loop fractions at budget>=100k",
        "budget_per_round": budget,
        "seen_spill": cfg.seen_spill,
        "attempt_ticks": summary["ticks"],
        "fetched_urls": summary["fetched"],
        "num_cpus": NCPU,
        "round_sec": round(round_sec, 3),
        "wall_sec": round(wall, 3),
        "urls_per_s": round(summary["fetched"] / wall, 1),
        "timings": tm,
        "tick_walk_frac": round(tm["tick_walk"] / round_sec, 4),
        "admit_frac": round(tm["admit"] / round_sec, 4),
        "driver_loop_frac": round(
            (tm["tick_walk"] + tm["admit"] + tm["stamps"] + tm["links_push"])
            / round_sec, 4),
        "streaming_views": views,
    }
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--megaround" in sys.argv:
        print(json.dumps(run_megaround()))
    elif os.environ.get("GRAFT_SKIP_QUERIES") == "1":
        print(json.dumps(run_once()))  # crawl-only leg (fresh session)
    else:
        print(json.dumps(run_default()))

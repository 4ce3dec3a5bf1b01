"""The benchmark workloads and their correctness gates.

Each workload sets up once, then repeats its measured unit for
``--seconds`` (at least once; another repetition starts only if the last
one's duration still fits), and reports medians over the repetitions.
Correctness inputs (the serial crawl oracle, the DuckDB results) are
computed once per run, outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import urllib.robotparser

from stats import (
    END_TO_END, median, metric, per_layer_table, phase_sums, ratio,
    unaccounted_s, error_rate,
)
from spans import Tracer

SETUP_TIMEOUT_S = 60
CRAWL_TIMEOUT_S = 90
VIEW_TIMEOUT_S = 60
QUERY_TIMEOUT_S = 60

# seen and frontier shard actors per crawl: each is a process whose start
# costs ~0.4 s on a 4-vCPU VM, paid in every set-up and every resume
SHARDS = 2

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(HERE, "data", "sf0.01")
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def bulk_config(seed: int, base: str, num_cpus: int):
    """Parity mode, heavy pages (~8-10 KB html, 64-192 px images), fanout
    4 so the BFS is shallow: a few large rounds over the in-memory seen
    set. ~1.6k fetched URLs."""
    from owlcrawler_ray.pipelines.crawl import CrawlConfig
    from owlcrawler_ray.sources.corpus import WebConfig

    web = WebConfig(seed=seed, num_hosts=24, base_pages=60, hot_factor=4,
                    n_seed_hosts=24, fanout=4, paragraphs=12,
                    words_per_paragraph=50, img_scale=2)
    return CrawlConfig(
        web=web, budget_per_round=1000,
        num_seen_shards=SHARDS, num_frontier_shards=SHARDS,
        fetch_concurrency=num_cpus, image_concurrency=num_cpus,
        out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
        keep_logs=False, checkpoint_every=4,
    )


def polite_config(seed: int, base: str, num_cpus: int):
    """Polite mode with fetched robots.txt (half the hosts disallow a
    prefix), light image-free pages, per-host buckets of 4 so rounds are
    many and small, a checkpoint every round, and the spill-mode seen set
    with a 64-URL in-memory cap."""
    from owlcrawler_ray.pipelines.crawl import CrawlConfig
    from owlcrawler_ray.sources.corpus import WebConfig
    from owlcrawler_ray.state.politeness import PolitenessConfig

    web = WebConfig(seed=seed, num_hosts=64, base_pages=40, hot_factor=1,
                    n_seed_hosts=64, paragraphs=2, words_per_paragraph=30,
                    max_images=0, robots_frac=0.5)
    return CrawlConfig(
        web=web, mode="polite", budget_per_round=256,
        num_seen_shards=SHARDS, num_frontier_shards=SHARDS,
        politeness=PolitenessConfig(mode="polite", rate_per_s=1.0,
                                    burst=4.0),
        fetch_robots=True, write_images=False,
        seen_spill=True, seen_max_mem_urls=64,
        fetch_concurrency=num_cpus, image_concurrency=num_cpus,
        out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt",
        keep_logs=False, checkpoint_every=1,
    )


def _timeboxed(seconds: float, body) -> None:
    """Run ``body(i)`` at least once, and again while the previous
    repetition's duration still fits in ``seconds``."""
    t0 = time.perf_counter()
    i = 0
    while True:
        a = time.perf_counter()
        body(i)
        last = time.perf_counter() - a
        i += 1
        if time.perf_counter() - t0 + last > seconds:
            return


def _dir_bytes(path: str, skip: str | None = None) -> int:
    total = 0
    for d, dirs, files in os.walk(path):
        if skip:
            dirs[:] = [x for x in dirs if x != skip]
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def cpu_snapshot() -> dict[tuple[int, str], int]:
    """CPU clock ticks (user + system) used so far by this process and by
    each live descendant (Ray's raylet, GCS, workers and actors), keyed by
    (pid, start time)."""
    table = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(d)] = (int(fields[1]), fields[19],
                         int(fields[11]) + int(fields[12]))
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = {}, [os.getpid()]
    while stack:
        pid = stack.pop()
        if pid in table:
            out[(pid, table[pid][1])] = table[pid][2]
        stack.extend(children.get(pid, []))
    return out


def cpu_since(before: dict[tuple[int, str], int]) -> float:
    """CPU seconds used since ``before`` by the processes alive now; a
    process that exited in between is left out (what it used is gone
    from /proc), so is a process's share from before it existed."""
    now = cpu_snapshot()
    ticks = sum(v - before.get(k, 0) for k, v in now.items())
    return ticks / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def attempts_log(out_dir: str) -> list[tuple[int, str, int]]:
    from owlcrawler_ray.sinks import table_store

    t = table_store.read_all_arrow(out_dir, "attempts")
    rows = zip(t.column("tick").to_pylist(), t.column("url").to_pylist(),
               t.column("status").to_pylist())
    return sorted((int(a), u, int(s)) for a, u, s in rows)


def log_digest(log: list[tuple[int, str, int]]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for tick, url, status in log:
        h.update(f"{tick}\t{url}\t{status}\n".encode())
    return h.hexdigest()


def in_child(tmp_dir: str, fn_name: str, *args):
    """``fn_name(*args)`` of this module in a fresh interpreter; arguments
    go in as JSON on stdin and the result comes back as JSON in a file
    (libraries may print to stdout). The oracles run there, so their
    memory never counts in the driver's peak RSS; ``subprocess.run``
    waits for the child."""
    import tempfile

    code = ("import json, sys, workloads; name, args, out = json.load(sys.stdin)\n"
            "with open(out, 'w') as f:\n"
            "    json.dump(getattr(workloads, name)(*args), f)")
    os.makedirs(tmp_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_dir) as tmp:
        out = os.path.join(tmp, "result.json")
        p = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                           input=json.dumps([fn_name, list(args), out]),
                           capture_output=True, text=True, timeout=120)
        if p.returncode:
            raise RuntimeError(f"{fn_name} failed: {p.stderr[-2000:]}")
        with open(out) as f:
            return json.load(f)


def crawl_oracle(kind: str, seed: int) -> dict:
    """What the serial reference semantics (``run_oracle``) produce for
    the workload's web, reduced to what the gates compare."""
    from owlcrawler_ray.pipelines.oracle import run_oracle
    from owlcrawler_ray.sources.corpus import SyntheticWeb

    cfg = {"bulk": bulk_config, "polite": polite_config}[kind](seed, "", 1)
    o = run_oracle(SyntheticWeb(cfg.web))
    return {
        "attempts": [(a["tick"], a["url"], a["status"]) for a in o.attempts],
        "fetch_order": o.fetch_order,
        "seen": sorted(o.seen),
        "images": [(i["image_id"], i["caption"], i["page_url"])
                   for i in o.images],
    }


class Run:
    """State shared by one benchmark run: the operation counter, the
    tracer and the samples the metrics are computed from."""

    def __init__(self, args, ops, work: str):
        self.args = args
        self.ops = ops
        self.work = os.path.join(work, "run")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.traces = os.path.join(work, "traces")
        self.cache = os.path.join(work, "oracle_cache")
        self.tracer = Tracer(bool(args.trace))
        self.samples: dict[str, list[float]] = {}
        self.layer: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def med(self, key: str) -> float:
        return median(self.samples[key])


def setup_ray(run: Run, init_ray) -> tuple[float, float]:
    """ray.init plus worker warm-up: returns its (wall, CPU) seconds."""
    from owlcrawler_ray.pipelines.crawl import warmup_workers

    cpu0 = cpu_snapshot()
    with run.ops.op("setup", SETUP_TIMEOUT_S), run.tracer.span("setup.ray") as sp:
        with run.tracer.span("setup.ray_init"):
            init_ray(run.args.num_cpus)
        with run.tracer.span("setup.warmup_workers"):
            warmup_workers(run.args.num_cpus)
    return sp["dur"], cpu_since(cpu0)


# -- crawl helpers -------------------------------------------------------------

def new_crawler(run: Run, cfg, resume: bool):
    from owlcrawler_ray.pipelines.crawl import Crawler

    name = "resume" if resume else "setup.crawler"
    cpu0 = cpu_snapshot()
    with run.ops.op(name, SETUP_TIMEOUT_S) as op_id, \
            run.tracer.span(name) as sp:
        c = Crawler(cfg, resume=resume)
    if resume:
        run.add("resume_s", sp["dur"])
    else:
        run.add("ctor_s", sp["dur"])
        run.add("ctor_cpu_s", cpu_since(cpu0))
    return c, op_id


def crawl(run: Run, c, label: str) -> tuple[dict, int, float]:
    cpu0 = cpu_snapshot()
    with run.ops.op(label, CRAWL_TIMEOUT_S) as op_id, \
            run.tracer.span(label) as sp:
        summary = c.run()
    run.add("crawl_cpu_s", cpu_since(cpu0))
    return summary, op_id, sp["dur"]


def read_views(run: Run, c):
    """Build and stream out both output views; keeps only the columns the
    gates read. Returns (op_id, pages, images)."""
    import pyarrow as pa

    with run.ops.op("views", VIEW_TIMEOUT_S) as op_id, \
            run.tracer.span("views") as sp:
        with run.tracer.span("views.build") as b:
            pds = c.pages_dataset()
            ids_ = c.images_dataset()
        with run.tracer.span("views.read") as r:
            pages = [t.select(["url", "fetch_seq"])
                     for t in pds.iter_batches(batch_format="pyarrow",
                                               batch_size=None)
                     if t.num_rows]
            imgs = [t.select(["image_id", "caption", "page_url", "tick",
                              "img_idx"])
                    for t in ids_.iter_batches(batch_format="pyarrow",
                                               batch_size=None)
                    if t.num_rows]
    pages = pa.concat_tables(pages) if pages else None
    imgs = pa.concat_tables(imgs) if imgs else None
    n = (pages.num_rows if pages else 0) + (imgs.num_rows if imgs else 0)
    run.add("view_rows_per_s", ratio(n, sp["dur"]))
    run.add("view_build_s", b["dur"])
    run.add("view_read_s", r["dur"])
    return op_id, pages, imgs


def crawl_layers(run: Run, cfg, rounds: list[dict], run_s: float) -> None:
    """Per-layer figures the crawl reports itself (round timings), the
    store sizes, and the in-process checkpoint load."""
    from owlcrawler_ray.sinks import table_store
    from owlcrawler_ray.sinks.checkpoint import CheckpointManager

    sums = phase_sums(rounds)
    L = run.layer
    for p, v in sums.items():
        if p != "total":
            L[f"crawl.{p}_s"] = v
    L["crawl.unaccounted_s"] = unaccounted_s(run_s, rounds)
    L["crawl.run_s"] = run_s
    L["crawl.shard_ctor_s"] = run.med("ctor_s")
    if "resume_s" in run.samples:
        L["crawl.resume_s"] = run.med("resume_s")
    L["table_store.view_build_s"] = run.med("view_build_s")
    L["table_store.view_read_s"] = run.med("view_read_s")
    L["table_store.view_rows_per_s"] = run.med("view_rows_per_s")
    L["crawl.rounds"] = len(rounds)
    att = sum(r["attempts"] for r in rounds)
    L["crawl.attempts"] = att
    L["crawl.success_ratio"] = ratio(sum(r["successes"] for r in rounds), att)
    L["images.rows_per_s"] = ratio(sum(r["images"] for r in rounds), run_s)
    L["checkpoint.bytes"] = _dir_bytes(cfg.ckpt_dir, skip="seen_spill")
    spill = os.path.join(cfg.ckpt_dir, "seen_spill")
    L["seen.spill_bytes"] = _dir_bytes(spill) if os.path.isdir(spill) else 0
    L["table_store.parts"] = sum(
        len(table_store.round_part_paths(cfg.out_dir, name, r)[1])
        for name in ("pages", "images")
        for r in table_store.list_rounds(cfg.out_dir, name))
    mgr = CheckpointManager(cfg.ckpt_dir)
    with run.tracer.span("checkpoint.load") as sp:
        mgr.load(mgr.latest_round())
    L["checkpoint.load_s"] = sp["dur"]


def crawl_finish(run: Run, setup: tuple[float, float], last: dict) -> dict:
    """End-to-end metrics of a crawl workload; in a traced run, also the
    per-layer figures of its last repetition and the layer replay."""
    if run.args.trace:
        import replay

        crawl_layers(run, last["cfg"], last["rounds"], last["run_s"])
        with run.tracer.span("replay"):
            replay.replay(last["cfg"], run, os.path.join(run.work, "replay"))
    urls = sum(run.samples["crawl_urls"])
    run.layer["crawl.urls_per_s"] = ratio(urls, sum(run.samples["crawl_s"]))
    run.layer["crawl.cpu_s"] = sum(run.samples["crawl_cpu_s"])
    run.layer["crawl.setup_wall_s"] = setup[0] + run.med("ctor_s")
    return {
        "urls_per_cpu_s": ratio(urls, sum(run.samples["crawl_cpu_s"])),
        "setup_s": setup[1] + run.med("ctor_cpu_s"),
    }


# -- crawl_bulk ------------------------------------------------------------------

def crawl_bulk(run: Run, init_ray) -> dict:
    args, ops = run.args, run.ops
    with run.tracer.span("oracle"):
        oracle = in_child(run.work, "crawl_oracle", "bulk", args.seed)
    want_attempts = [tuple(a) for a in oracle["attempts"]]
    want_images = [tuple(i) for i in oracle["images"]]
    oracle["seen"] = set(oracle["seen"])
    setup = setup_ray(run, init_ray)
    last = {}

    def once(i: int) -> None:
        base = os.path.join(run.work, f"it{i}")
        cfg = bulk_config(args.seed, base, args.num_cpus)
        c, _ = new_crawler(run, cfg, resume=False)
        summary, op_id, run_s = crawl(run, c, "crawl")
        rounds = c.metrics["rounds"]
        run.add("crawl_urls", summary["fetched"])
        run.add("crawl_s", run_s)
        got = attempts_log(cfg.out_dir)
        ops.check(op_id, "bulk.attempt_log", got == want_attempts,
                  f"{len(got)} attempts vs oracle {len(want_attempts)}")
        ops.check(op_id, "bulk.seen_count", summary["seen"] == len(oracle["seen"]),
                  f"{summary['seen']} seen vs oracle {len(oracle['seen'])}")
        vid, pages, imgs = read_views(run, c)
        order = (pages.sort_by("fetch_seq").column("url").to_pylist()
                 if pages else [])
        ops.check(vid, "bulk.fetch_order", order == oracle["fetch_order"],
                  f"{len(order)} pages vs oracle {len(oracle['fetch_order'])}")
        ops.check(vid, "bulk.seen_set", set(order) == oracle["seen"])
        got_imgs = []
        if imgs:
            s = imgs.sort_by([("tick", "ascending"), ("img_idx", "ascending")])
            got_imgs = list(zip(s.column("image_id").to_pylist(),
                                s.column("caption").to_pylist(),
                                s.column("page_url").to_pylist()))
        ops.check(vid, "bulk.image_rows", got_imgs == want_images,
                  f"{len(got_imgs)} image rows vs oracle {len(want_images)}")
        c.shutdown()
        last.update(cfg=cfg, rounds=rounds, run_s=run_s)
        if i:
            shutil.rmtree(os.path.join(run.work, f"it{i - 1}"),
                          ignore_errors=True)

    _timeboxed(args.seconds, once)
    out = crawl_finish(run, setup, last)
    if args.trace:
        query_layer(run)
    return out


# -- crawl_polite_resume ---------------------------------------------------------

def _robots_disallowed(web, urls: list[str]) -> list[str]:
    """URLs their host's robots.txt disallows, judged by the standard
    library's parser (independent of the crawler's own gate)."""
    from urllib.parse import urlsplit

    parsers: dict[str, urllib.robotparser.RobotFileParser] = {}
    bad = []
    for u in urls:
        host = urlsplit(u).netloc
        rp = parsers.get(host)
        if rp is None:
            rp = parsers[host] = urllib.robotparser.RobotFileParser()
            rp.parse(web.robots_txt(host).splitlines())
        if not rp.can_fetch("*", u):
            bad.append(u)
    return bad


def _max_host_attempts_per_round(out_dir: str) -> int:
    """Largest number of fetch attempts one host got in one round."""
    from collections import Counter
    from urllib.parse import urlsplit

    from owlcrawler_ray.sinks import table_store

    worst = 0
    for r in table_store.list_rounds(out_dir, "attempts"):
        t = table_store.read_all_arrow_round(out_dir, "attempts", r)
        c = Counter(urlsplit(u).netloc for u in t.column("url").to_pylist())
        worst = max([worst, *c.values()])
    return worst


def crawl_polite_resume(run: Run, init_ray) -> dict:
    from dataclasses import replace

    from owlcrawler_ray.sources.corpus import SyntheticWeb

    args, ops = run.args, run.ops
    web = SyntheticWeb(polite_config(args.seed, "", args.num_cpus).web)
    with run.tracer.span("oracle"):
        oracle_seen = set(in_child(run.work, "crawl_oracle", "polite", args.seed)["seen"])
    setup = setup_ray(run, init_ray)

    # the uninterrupted crawl whose attempt log the resumed one must match
    ref_cfg = polite_config(args.seed, os.path.join(run.work, "ref"),
                            args.num_cpus)
    c, _ = new_crawler(run, ref_cfg, resume=False)
    ref, ref_op, ref_s = crawl(run, c, "crawl.reference")
    run.add("crawl_urls", ref["fetched"])
    run.add("crawl_s", ref_s)
    n_rounds = len(c.metrics["rounds"])
    ref_log = attempts_log(ref_cfg.out_dir)
    ref_digest = log_digest(ref_log)
    c.shutdown()
    ops.check(ref_op, "polite.reference_rounds", n_rounds >= 2,
              f"{n_rounds} rounds: nothing to stop halfway")
    last = {}

    def once(i: int) -> None:
        base = os.path.join(run.work, f"it{i}")
        cfg = polite_config(args.seed, base, args.num_cpus)
        c1, _ = new_crawler(run, replace(cfg, max_rounds=n_rounds // 2),
                            resume=False)
        s1, op1, run1 = crawl(run, c1, "crawl.first_half")
        rounds1 = list(c1.metrics["rounds"])
        c1.shutdown()
        c2, rid = new_crawler(run, cfg, resume=True)
        ops.check(rid, "polite.resume_point",
                  c2.fetch_seq == s1["fetched"] and c2.tick == s1["ticks"])
        s2, op2, run2 = crawl(run, c2, "crawl.second_half")
        rounds2 = c2.metrics["rounds"]
        run.add("crawl_urls", s2["fetched"])
        run.add("crawl_s", run1 + run2)
        log = attempts_log(cfg.out_dir)
        ops.check(op2, "polite.attempt_log_digest",
                  log_digest(log) == ref_digest,
                  f"{len(log)} attempts vs uninterrupted {len(ref_log)}")
        fetched = [u for _, u, s in log if s == 200]
        ops.check(op2, "polite.no_double_fetch",
                  len(fetched) == len(set(fetched)) == s2["fetched"])
        bad = _robots_disallowed(web, fetched)
        ops.check(op2, "polite.robots", not bad, f"disallowed: {bad[:3]}")
        stray = set(fetched) - oracle_seen
        ops.check(op2, "polite.within_oracle_seen", not stray,
                  f"not in oracle seen set: {sorted(stray)[:3]}")
        worst = _max_host_attempts_per_round(cfg.out_dir)
        ops.check(op2, "polite.burst", worst <= cfg.politeness.burst,
                  f"a host got {worst} fetches in one round")
        vid, pages, _ = read_views(run, c2)
        urls = pages.column("url").to_pylist() if pages else []
        ops.check(vid, "polite.pages_view",
                  sorted(urls) == sorted(fetched),
                  f"{len(urls)} view rows vs {len(fetched)} fetched")
        c2.shutdown()
        last.update(cfg=cfg, rounds=rounds1 + rounds2, run_s=run1 + run2)
        if i:
            shutil.rmtree(os.path.join(run.work, f"it{i - 1}"),
                          ignore_errors=True)

    _timeboxed(args.seconds, once)
    return crawl_finish(run, setup, last)


# -- queries -------------------------------------------------------------------------

def _to_pandas(res):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    raise TypeError(f"query returned {type(res).__name__}")


def _normalize(df):
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[ns]")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True)


def frames_equal(got, want) -> str | None:
    """None when two normalized frames hold the same values bit for bit
    (NaN equal to NaN), else a one-line reason."""
    import numpy as np
    import pandas as pd

    if list(got.columns) != list(want.columns):
        return f"columns {list(got.columns)} != {list(want.columns)}"
    if len(got) != len(want):
        return f"rows {len(got)} != {len(want)}"
    for c in got.columns:
        if pd.api.types.is_float_dtype(want[c]):
            g = got[c].to_numpy(dtype=float)
            w = want[c].to_numpy(dtype=float)
            if not ((g == w) | (np.isnan(g) & np.isnan(w))).all():
                return f"column {c} differs"
        else:
            try:
                pd.testing.assert_series_equal(got[c], want[c],
                                               check_names=False)
            except AssertionError as e:
                return f"column {c}: {str(e).splitlines()[0]}"
    return None


def _verify_data() -> None:
    """The vendored tables must be the ones the oracles were pinned on."""
    with open(os.path.join(DATA_DIR, "SHA256SUMS")) as f:
        for line in f:
            digest, name = line.split()
            with open(os.path.join(DATA_DIR, name), "rb") as g:
                if hashlib.sha256(g.read()).hexdigest() != digest:
                    raise RuntimeError(f"{name} does not match SHA256SUMS")


def oracle_results(names: list[str], cache_dir: str) -> dict:
    """Normalized DuckDB result of every query in ``names``.

    The results are a pure function of the vendored tables (verified
    against SHA256SUMS first), the oracle SQL and the DuckDB and pandas
    versions, so they are cached under that key: later runs in the same
    repository skip the ~5 s of DuckDB work. The cache holds only frames
    this function pickled itself."""
    from importlib.metadata import version

    import pandas as pd

    from owlcrawler_ray.pipelines.queries import ORACLES

    _verify_data()
    h = hashlib.sha256()
    with open(os.path.join(DATA_DIR, "SHA256SUMS"), "rb") as f:
        h.update(f.read())
    h.update(json.dumps({q: ORACLES[q] for q in sorted(names)}).encode())
    h.update(f"{version('duckdb')} {pd.__version__}".encode())
    path = os.path.join(cache_dir, h.hexdigest()[:32] + ".pkl")
    if not os.path.exists(path):
        in_child(cache_dir, "duckdb_oracle", names, path)
    return pd.read_pickle(path)


def duckdb_oracle(names: list[str], path: str) -> None:
    import duckdb
    import pandas as pd

    from owlcrawler_ray.pipelines.queries import ORACLES

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{DATA_DIR}/{t}.parquet')")
    want = {q: _normalize(con.execute(ORACLES[q]).df()) for q in names}
    con.close()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pd.to_pickle(want, path + ".tmp")
    os.replace(path + ".tmp", path)


def oracled_queries() -> list[str]:
    from owlcrawler_ray.pipelines.queries import ORACLES, QUERIES

    return [q for q in QUERIES if q in ORACLES]


def query_layer(run: Run) -> None:
    """The ``pipelines.queries`` layer, measured in crawl_bulk's traced
    run: every oracled query once, in a seed-shuffled order, each gated
    on its DuckDB result; fills ``queries.<name>_s`` and
    ``queries.total_s``."""
    from owlcrawler_ray.pipelines.queries import QUERIES

    ops = run.ops
    names = oracled_queries()
    random.Random(run.args.seed).shuffle(names)
    with run.tracer.span("oracle"):
        want = oracle_results(names, run.cache)
    total = 0.0
    for q in names:
        with ops.op(f"query.{q}", QUERY_TIMEOUT_S) as op_id, \
                run.tracer.span(f"query.{q}") as sp:
            got = _to_pandas(QUERIES[q](DATA_DIR))
        total += sp["dur"]
        run.layer[f"queries.{q}_s"] = sp["dur"]
        why = frames_equal(_normalize(got), want[q])
        ops.check(op_id, f"query.{q}", why is None, why or "")
    run.layer["queries.total_s"] = total


RUNNERS = {
    "crawl_bulk": crawl_bulk,
    "crawl_polite_resume": crawl_polite_resume,
}


def run(args, ops, work: str, init_ray) -> dict:
    """Run one workload; returns the metrics object of the result line."""
    r = Run(args, ops, work)
    e2e = RUNNERS[args.workload](r, init_ray)
    e2e["driver_peak_rss_mb"] = _peak_rss_mb()
    print("perfbench: samples " + json.dumps(
        {k: [round(x, 4) for x in v] for k, v in r.samples.items()}),
        file=sys.stderr)
    if not args.trace:
        return {k: metric(e2e[k], END_TO_END[k][0]) for k in END_TO_END}
    table = per_layer_table(oracled_queries())
    r.layer["trace.urls_per_cpu_s"] = e2e["urls_per_cpu_s"]
    r.layer["trace.spans"] = len(r.tracer.spans)
    r.layer["error_rate"] = error_rate(ops.attempted, ops.failed)
    unknown = set(r.layer) - set(table)
    if unknown:
        raise KeyError(f"per-layer values outside the table: {sorted(unknown)}")
    r.tracer.write(os.path.join(
        r.traces, f"{args.workload}-seed{args.seed}.json"))
    return {k: metric(float(r.layer.get(k, 0.0)), u)
            for k, (u, _) in table.items()}

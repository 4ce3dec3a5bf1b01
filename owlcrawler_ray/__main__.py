"""The ``ray job submit`` driver surface:

    ray job submit --working-dir . -- python -m owlcrawler_ray \
        --out /data/crawl/out --ckpt /data/crawl/ckpt --budget 40000

On a cluster the job driver connects to the running Ray instance
(``ray.init()`` with no address inside a job attaches to the cluster);
standalone it starts a local session. A killed job re-submitted with
``--resume`` restores the last committed checkpoint and re-produces the
missing rounds byte-identically (pruning any output rounds newer than the
checkpoint — see sinks/checkpoint.py and the resume test suite).

This is a SCRIPT entry point, so it owns its Ray session (the library
itself never calls ray.init; the graft driver imports __ray_entry__ into
an already-initialised session).
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    import ray

    from .pipelines.crawl import CrawlConfig
    from .sources.corpus import WebConfig
    from .state.politeness import PolitenessConfig

    p = argparse.ArgumentParser(prog="python -m owlcrawler_ray")
    p.add_argument("--out", required=True, help="output table root")
    p.add_argument("--ckpt", required=True, help="checkpoint root")
    p.add_argument("--budget", type=int, default=4096,
                   help="politeness ticks per round")
    p.add_argument("--mode", choices=["parity", "polite"], default="parity")
    p.add_argument("--resume", action="store_true",
                   help="restore the latest committed checkpoint first")
    p.add_argument("--max-ticks", type=int, default=None)
    p.add_argument("--seen-shards", type=int, default=8)
    p.add_argument("--frontier-shards", type=int, default=8)
    p.add_argument("--fetch-concurrency", type=int, default=16)
    p.add_argument("--robots", action="store_true",
                   help="fetch+cache robots.txt per host (polite mode)")
    p.add_argument("--agent", default="",
                   help="user-agent product token for RFC 9309 robots "
                        "group selection (unset: honor only `*` groups)")
    p.add_argument("--add-site", action="append", default=[],
                   metavar="URL",
                   help="inject a new seed site before running (repeatable;"
                        " with --resume this grows an existing crawl — the"
                        " webapp submit-a-site path)")
    p.add_argument("--num-hosts", type=int, default=6)
    p.add_argument("--base-pages", type=int, default=12)
    p.add_argument("--seed-hosts", type=int, default=3)
    p.add_argument("--rate", type=float, default=1.0,
                   help="polite mode: fetch tokens per virtual second per"
                        " host")
    p.add_argument("--burst", type=float, default=4.0,
                   help="polite mode: per-host token-bucket burst")
    p.add_argument("--seen-spill", action="store_true",
                   help="spill each seen shard's exact set to sorted"
                        " parquet runs (the 10^10-URL memory model)")
    args = p.parse_args(argv)

    started_ray = False
    if not ray.is_initialized():
        # inside `ray job submit` this attaches to the cluster; standalone
        # (incl. this sandbox) it starts a local session
        ray.init(include_dashboard=False, logging_level="ERROR")
        started_ray = True

    cfg = CrawlConfig(
        web=WebConfig(num_hosts=args.num_hosts, base_pages=args.base_pages,
                      n_seed_hosts=args.seed_hosts),
        mode=args.mode,
        budget_per_round=args.budget,
        max_ticks=args.max_ticks,
        num_seen_shards=args.seen_shards,
        num_frontier_shards=args.frontier_shards,
        fetch_concurrency=args.fetch_concurrency,
        out_dir=args.out,
        ckpt_dir=args.ckpt,
        fetch_robots=args.robots,
        politeness=PolitenessConfig(
            rate_per_s=args.rate, burst=args.burst, agent=args.agent,
        ),
        seen_spill=args.seen_spill,
    )
    from .pipelines.crawl import Crawler
    crawler = Crawler(cfg, resume=args.resume)
    if args.add_site:
        crawler.add_sites(args.add_site)
    summary = crawler.run()
    crawler.shutdown()
    print(json.dumps(summary))
    if started_ray:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())

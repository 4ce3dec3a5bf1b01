"""A state actor pays pyarrow's pandas import when it starts and never
imports Ray Data.

Every table crosses the actor boundary as a packed Arrow IPC buffer
(state/wire.py), so Ray's ``pa.Table`` reducer, which imports
``ray.data`` on first use, never runs in a state actor. An IPC read
builds no array, so ``StateShard.__init__`` builds one: without it the
pandas import pyarrow does on a process's first ``pa.array`` would move
into the crawl's first peek.

Runs in a subprocess with its own 2-cpu Ray session, as
test_warmup.py does, so the actors are fresh processes."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# probes each state actor through Ray's built-in ``__ray_call__`` hook
# after Crawler(cfg) and again after run()
PROBE = """
import json, sys, tempfile
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from owlcrawler_ray.pipelines.crawl import CrawlConfig, Crawler
from owlcrawler_ray.sources.corpus import WebConfig
from owlcrawler_ray.state.politeness import PolitenessConfig

def mods(actor):
    return ["pandas" in sys.modules, "ray.data" in sys.modules]

base = tempfile.mkdtemp()
cfg = CrawlConfig(
    web=WebConfig(num_hosts=4, base_pages=6, n_seed_hosts=4, max_images=0,
                  paragraphs=1, words_per_paragraph=10),
    mode="polite", budget_per_round=16, num_seen_shards=2,
    num_frontier_shards=2, fetch_concurrency=2, image_concurrency=1,
    seen_spill=True, fetch_robots=True,
    politeness=PolitenessConfig(mode="polite", rate_per_s=1.0, burst=4.0),
    out_dir=base + "/out", ckpt_dir=base + "/ckpt")
c = Crawler(cfg)
built = ray.get([a.__ray_call__.remote(mods) for a in c.state])
summary = c.run()
ran = ray.get([a.__ray_call__.remote(mods) for a in c.state])
c.shutdown()
print("RESULT " + json.dumps({"built": built, "ran": ran,
                              "fetched": summary["fetched"]}))
ray.shutdown()
"""


def test_state_actor_imports_pandas_at_start_and_never_ray_data():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [REPO] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = [ln for ln in proc.stdout.splitlines()
            if ln.startswith("RESULT ")][-1]
    out = json.loads(line[len("RESULT "):])
    assert out["fetched"] > 0, out
    assert len(out["built"]) == len(out["ran"]) == 2, out
    for pandas, ray_data in out["built"]:
        assert pandas, out  # paid at construction, not in run()
        assert not ray_data, out
    for _, ray_data in out["ran"]:
        assert not ray_data, out

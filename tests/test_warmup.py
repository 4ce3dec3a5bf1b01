"""``warmup_workers(n)`` leaves ``n`` warm task workers and starts no Ray
Data actor.

Runs in a subprocess with its own 2-cpu Ray session: the suite shares one
4-cpu session whose workers earlier tests have already warmed."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Two overlapping num_cpus=1 probes after warmup_workers(2): each reports
# its pid and whether the crawl module was already imported in its worker
# before the probe ran (the probe is defined in __main__, so it is pickled
# by value and imports nothing of the package itself).
PROBE = """
import json, os, sys, time
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from owlcrawler_ray.pipelines.crawl import warmup_workers
warmup_workers(2)

@ray.remote(num_cpus=1)
def probe(hold_s):
    warm = "owlcrawler_ray.pipelines.crawl" in sys.modules
    time.sleep(hold_s)
    return os.getpid(), warm

probes = ray.get([probe.remote(2.0) for _ in range(2)])
actors = [a["name"] for a in ray.util.list_named_actors(all_namespaces=True)]
print("RESULT " + json.dumps({"probes": probes, "actors": actors}))
ray.shutdown()
"""


def test_warmup_leaves_n_warm_task_workers_and_no_data_actors():
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
    pids = {pid for pid, _ in out["probes"]}
    assert len(pids) == 2, out
    assert all(warm for _, warm in out["probes"]), out
    assert "datasets_stats_actor" not in out["actors"], out
    assert "AutoscalingRequester" not in out["actors"], out

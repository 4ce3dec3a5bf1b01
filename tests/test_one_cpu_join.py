"""A shuffled join finishes on a one-CPU Ray session.

``partitioned_join`` always takes the shuffle branch of
``queries._hash_join``. Ray's own hash-shuffle ``Dataset.join`` needs its
aggregator actors to hold CPUs, and at ``num_cpus=1`` it stalled with the
CPU idle; the routed shuffle runs on plain tasks. The query runs in a
subprocess with its own ``num_cpus=1`` session, under a timeout, and its
rows must equal the DuckDB oracle."""

import json
import os
import subprocess
import sys

import duckdb

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF = "/root/testdata/sf0.001"

PROBE = """
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False)
from owlcrawler_ray.pipelines.queries import QUERIES
rows = QUERIES["partitioned_join"](sys.argv[1]).take_all()
print("RESULT " + json.dumps(sorted(
    [r["o_orderkey"], r["revenue_cents"]] for r in rows)))
ray.shutdown()
"""


def test_partitioned_join_on_one_cpu_matches_oracle():
    from owlcrawler_ray.pipelines.queries import ORACLES

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [REPO] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, SF], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = [ln for ln in proc.stdout.splitlines()
            if ln.startswith("RESULT ")][-1]
    got = json.loads(line[len("RESULT "):])

    con = duckdb.connect()
    for t in ("orders", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    want = sorted([int(k), int(v)] for k, v in
                  con.execute(ORACLES["partitioned_join"]).fetchall())
    assert got == want
    assert len(got) > 0

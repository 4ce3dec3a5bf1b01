"""Driver-contract smoke: entry() and the queries()/oracle_sql() registry
shape, exactly as the driver exercises them."""

import sys

sys.path.insert(0, "/root/repo")


def test_entry_returns_images_dataset(ray_session):
    import __ray_entry__ as e

    ds = e.entry()
    n = ds.count()
    assert n > 0
    schema = ds.schema()
    assert schema.names == [
        "image_id", "bytes", "w", "h", "fmt", "caption", "phash"
    ]


def test_registry_shape(ray_session):
    import __ray_entry__ as e

    qs, osql = e.queries(), e.oracle_sql()
    assert len(qs) >= 30
    assert set(osql) <= set(qs)
    assert len(osql) >= 20
    for name, fn in qs.items():
        assert callable(fn), name
    for name, sql in osql.items():
        assert "SELECT" in sql.upper(), name


def test_cli_job_entry_runs_and_resumes(ray_session, tmp_path):
    """python -m owlcrawler_ray (the ray-job-submit surface): runs inside
    an existing Ray session without re-initing, supports kill+resume."""
    from owlcrawler_ray.__main__ import main

    out, ck = str(tmp_path / "out"), str(tmp_path / "ck")
    rc = main(["--out", out, "--ckpt", ck, "--budget", "10",
               "--max-ticks", "12", "--num-hosts", "3", "--base-pages", "6",
               "--seed-hosts", "2"])
    assert rc == 0
    rc = main(["--out", out, "--ckpt", ck, "--budget", "17", "--resume",
               "--num-hosts", "3", "--base-pages", "6", "--seed-hosts", "2"])
    assert rc == 0
    from owlcrawler_ray.sinks import table_store

    pages = table_store.read_all_arrow(out, "pages")
    urls = pages.column("url").to_pylist()
    assert len(urls) == len(set(urls)) > 0


def test_registry_scoreboard_prefix():
    """The driver scoreboard records a bounded 50-entry prefix of the
    registry walk, so the registry pins an explicit curated prefix
    (queries._SCOREBOARD_PREFIX): every dedup-family OUTPUT stage and at
    least one live-crawl surface must sit inside the recorded window
    (round-4 verdict, next-round item #2)."""
    import __ray_entry__ as e
    from owlcrawler_ray.pipelines.queries import _SCOREBOARD_PREFIX

    qs, osql = e.queries(), e.oracle_sql()
    names = list(qs)
    assert len(_SCOREBOARD_PREFIX) == 50
    assert names[:50] == _SCOREBOARD_PREFIX
    window = set(names[:50])
    # every dedup family's stages, incl. each kept-corpus OUTPUT stage
    assert {
        "exact_dedup", "dedup_documents",            # exact
        "minhash_lsh_pairs", "ngram_jaccard_verify",  # minhash candidates
        "near_dup_components", "near_dup_dedup",      # minhash output
        "embedding_near_dup", "semantic_dedup",       # embedding family
        "simhash_dedup", "doc_fingerprints",          # simhash family
        "image_dup_clusters",                         # image-side output
    } <= window
    # at least one live-crawl surface
    assert "crawl_pages" in window
    # the composed training-data pipeline (quality -> decontaminate ->
    # dedup -> per-lang mix) is driver-recorded
    assert "training_mix" in window
    # demoted queries keep their oracle (bit-exactness stays pytest-gated)
    demoted_oracled = [n for n in names[50:] if n in osql]
    assert "search" in demoted_oracled  # redundant relevance-model proof
    assert "token_stats" in demoted_oracled  # subsumed by training_mix
    # and every prefix entry exists & oracled entries dominate the window
    assert sum(1 for n in names[:50] if n in osql) == 48


def test_registry_pin():
    """The traced benchmark run walks the registry in a seed-shuffled
    order of ``list(QUERIES)`` and times the oracled queries, so the
    query names, their order and every oracle string are part of the
    benchmark. This pins them by hash."""
    import hashlib
    import json

    from owlcrawler_ray.pipelines.queries import ORACLES, QUERIES

    digest = hashlib.sha256(json.dumps(
        [list(QUERIES), list(ORACLES), ORACLES]).encode()).hexdigest()
    assert (len(QUERIES), len(ORACLES)) == (86, 65)
    assert digest.startswith("d831840154c1e756"), (
        f"registry hash {digest[:16]}: a change to QUERIES' names or order "
        "or to an ORACLES string is a benchmark change (it reorders or "
        "re-times the traced run's queries); land it with the next "
        "benchmark change (ROADMAP item 15), not in a query refactor")

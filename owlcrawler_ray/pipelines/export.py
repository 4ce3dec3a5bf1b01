"""Resumable partitioned corpus export — the training-data sink shape.

The briefing's resumable-output requirement ("write partitioned Parquet,
one directory per input shard / key range, so a failed run can skip
finished partitions") applied to the query layer, reusing the crawl's
atomic table_store machinery (begin/commit + ``_SUCCESS``):

    out_root/bucket=0007/round=000000/part-*.parquet
    out_root/bucket=0007/round=000000/_SUCCESS

Pipeline: documents stream -> exact dedup (md5(text), first-writer-wins;
keep-ids stay a Dataset, filtered in with a LEFT SEMI queries._hash_join)
-> quality filter (n_chars >= min_chars, the stats-view "parsed"
predicate) -> bucket = doc_id % n_buckets -> per-bucket
part files written FROM INSIDE the map tasks (content-keyed names, so
task retries overwrite idempotently) -> driver commits each bucket dir.

Resume: a re-run lists committed buckets first and prunes them OUT of the
stream (the filter runs at the map, so completed buckets cost nothing but
the scan); only missing buckets are rewritten. At 10^10 docs each bucket
is an independent key-range unit of work — the property that lets a
killed export restart without rewriting finished output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..sinks import table_store

MIN_CHARS = 100


def _export_buckets(root: str, n_buckets: int, source, rows, bucket_of,
                    part_key) -> pa.Table:
    """The bucketed writer of both exports. Skips the committed buckets,
    opens the rest, and streams ``source()`` (built only when a bucket is
    left) through one map whose tasks project and gate each batch with
    ``rows``, split it by ``bucket_of`` and write each open bucket's
    share as one content-keyed part named ``part_key(bucket, share)``;
    the count is the barrier, then each bucket dir commits atomically.
    Returns (bucket, n_docs) read back from disk."""
    todo = [b for b in range(n_buckets)
            if not table_store.round_complete(root, _bucket_name(b), 0)]
    if todo:
        tmps_ref = ray.put({
            b: table_store.begin_round(root, _bucket_name(b), 0)
            for b in todo
        })

        def shard_write(batch: pa.Table) -> pa.Table:
            tdirs = ray.get(tmps_ref)
            # a shuffled join's row-free bucket has no columns
            t = rows(batch) if batch.num_columns else batch
            if t.num_rows:
                buckets = bucket_of(t)
                for b in np.unique(buckets).tolist():
                    if b in tdirs:
                        sub = t.filter(pa.array(buckets == b))
                        table_store.write_part(tdirs[b], sub,
                                               key=part_key(b, sub))
            return pa.table({"n": [t.num_rows]})

        source().map_batches(shard_write, batch_format="pyarrow").count()
        for b in todo:
            table_store.commit_round(root, _bucket_name(b), 0)
    return _bucket_counts(root, n_buckets)


def export_pages(crawl_out: str, export_root: str, n_buckets: int = 8,
                 min_chars: int = 50) -> pa.Table:
    """End-to-end training-corpus composition over REAL crawl output:
    the crawl's pages rounds stream in lazily (table_store.read_all — no
    whole-corpus materialization), each batch computes text length,
    applies the quality gate, buckets by blake2b(doc_id), and writes
    part files into the same atomic per-bucket commit structure as
    export_corpus. Resume semantics identical: committed buckets are
    skipped. Returns (bucket, n_docs) read back from disk."""
    from ..functions.ids import shard_of

    def rows(batch: pa.Table) -> pa.Table:
        # text assembly is pure Arrow ("title para1 para2 ..."); empty-
        # paragraph pages keep the bare title with no trailing separator,
        # matching ' '.join([title] + paras) exactly
        paras = batch.column("text")
        title = batch.column("title")
        both = pc.binary_join_element_wise(
            title, pc.binary_join(paras, " "), " "
        )
        texts = pc.if_else(
            pc.equal(pc.list_value_length(paras), 0), title, both
        )
        n_chars = pc.cast(pc.utf8_length(texts), pa.int64())
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "url": batch.column("url"),
                "text": texts,
                "n_chars": n_chars,
            }
        ).filter(pc.greater_equal(n_chars, min_chars))

    # prune at the read: the projection touches only these four columns,
    # and the dominant pages payload (html, large_binary, 10-20x
    # decompression) would otherwise stream through every worker heap
    # just to be dropped
    return _export_buckets(
        export_root, n_buckets,
        lambda: table_store.read_all(
            crawl_out, "pages", columns=["doc_id", "url", "title", "text"]),
        rows,
        lambda t: shard_of(t.column("doc_id").to_pylist(), n_buckets),
        lambda b, sub: (f"pg{b}-{sub.column('doc_id')[0].as_py()}"
                        f"-{sub.num_rows}"),
    )


def _bucket_name(b: int) -> str:
    return f"bucket={b:04d}"


def _bucket_counts(root: str, n_buckets: int) -> pa.Table:
    """(bucket, n_docs) read back from the committed output — the on-disk
    truth, via part FOOTER metadata only (parquet footers / lance
    manifests). The previous form pulled every bucket's full table
    (including text payloads) onto the driver just to count rows — an
    O(corpus) driver materialization at 10^10 docs; footer counts are
    O(parts) tiny reads. An uncommitted/empty bucket counts 0, matching
    the empty-table read it replaced."""
    rows_b = list(range(n_buckets))
    rows_n = [
        sum(
            table_store.round_num_rows(root, _bucket_name(b), r)
            for r in table_store.list_rounds(root, _bucket_name(b))
        )
        for b in rows_b
    ]
    return pa.table(
        {"bucket": pa.array(rows_b, pa.int64()),
         "n_docs": pa.array(rows_n, pa.int64())}
    )


def export_corpus(sf_dir: str, out_root: str, n_buckets: int = 16) -> pa.Table:
    """Run (or resume) the export; returns (bucket, n_docs) read back from
    the committed output — the on-disk truth, not in-flight counters."""
    from .queries import (_group_agg, _hash_join, _join_width, _md5_hex,
                          _read, _table_bytes, _table_rows)

    def source():
        ds = _read(sf_dir, "documents",
                   columns=["doc_id", "text", "n_chars"])
        # keep-id set: min doc_id per content hash — the same aggregate
        # as q_exact_dedup
        keep_tbl = _group_agg(
            ds, ["h"], [("doc_id", "min")], ["keep_id"],
            rows=lambda b: pa.table({"h": _md5_hex(b.column("text")),
                                     "doc_id": b.column("doc_id")}))
        # LEFT SEMI join on the keep ids (see queries._hash_join): they
        # are unique (one min doc_id per content hash) and number at most
        # the footer row count, so small corpora take the broadcast branch
        # and 10^10-doc corpora the shuffle — the keep side never lands on
        # the driver there
        return _hash_join(
            ds, keep_tbl.select_columns(["keep_id"]), "doc_id", "keep_id",
            "left semi",
            est_right_bytes=16 * _table_rows(sf_dir, "documents"),
            B=_join_width(_table_bytes(sf_dir, "documents")),
        )

    return _export_buckets(
        out_root, n_buckets, source,
        lambda t: t.filter(
            pc.greater_equal(t.column("n_chars"), MIN_CHARS)),
        lambda t: (t.column("doc_id").to_numpy() % n_buckets).astype(
            np.int64),
        lambda b, sub: (f"b{b}-{int(sub.column('doc_id')[0].as_py())}"
                        f"-{sub.num_rows}"),
    )

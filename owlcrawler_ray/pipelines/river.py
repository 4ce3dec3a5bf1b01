"""Incremental index maintenance — the CouchDB→ES river analog (S13).

The reference wires an external CDC river (elastic_search.go:169-185:
type couchdb, bulk_size 100) that tails CouchDB's change feed and bulk-
indexes new pages into Elasticsearch. This engine's page store already
HAS a change feed: the committed ``pages`` round dirs (each round = one
bulk of new docs, atomic behind ``_SUCCESS``). The river tails those
rounds and maintains the inverted word index as per-round DELTA
partitions in the same table store:

    out_root/windex/round=000007/part-*.parquet   (that round's postings)

Properties mirroring the reference river:
  * incremental — only NEW rounds are indexed on each poll();
  * bulk writes — one delta partition per round (the bulk_size analog);
  * idempotent / resumable — a re-polled or crash-replayed round is
    skipped by its ``_SUCCESS`` (the same mechanism as every other sink),
    so the river can never double-index;
  * eventually consistent — ``index_table()`` merges the deltas with one
    small groupby (log-structured-merge compaction on read); the merged
    result is IDENTICAL to a from-scratch batch rebuild (pytest-gated).

At 10^10 pages the deltas stay bounded by the round budget and the merge
is word-partitioned; nothing here materializes the corpus.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..sinks import table_store


def _round_postings(pages: pa.Table) -> pa.Table:
    """(word, doc_id, n) partial postings for one round's pages — the
    same word semantics as the couchdb search view (couchdb.go:87-96 +
    F4 len>2): TEXT paragraphs only (the reference designSearch view
    iterates doc.text.text and never the title), split on spaces.
    Fully Arrow-vectorized (the q_word_index kernel shape): paragraph
    join -> split -> list_flatten/list_parent_indices — no per-row
    Python loop in the postings hot path."""
    joined = pc.binary_join(pages.column("text"), " ")
    words = pc.split_pattern(joined, " ")
    flat = pc.list_flatten(words)
    parents = pc.list_parent_indices(words)
    doc_ids = pages.column("doc_id").take(parents)
    keep = pc.greater(pc.utf8_length(flat), 2)  # F4: len(word) > 2
    t = pa.table(
        {"word": flat.filter(keep), "doc_id": doc_ids.filter(keep)}
    )
    if t.num_rows == 0:
        return pa.table(
            {"word": pa.array([], pa.string()),
             "doc_id": pa.array([], pa.string()),
             "n": pa.array([], pa.int64())}
        )
    return (
        t.group_by(["word", "doc_id"]).aggregate([([], "count_all")])
        .rename_columns(["word", "doc_id", "n"])
    )


def _postings_for_parts(writer_name: str, paths: list[str]) -> pa.Table:
    """Task-side round read: part paths -> pruned (doc_id, text) read ->
    postings. Runs as a Ray task so page bytes never touch the driver."""
    from ..sinks.table_store import WRITERS

    w = WRITERS[writer_name]
    tables = [w.read(p, columns=["doc_id", "text"]) for p in paths]
    if not tables:
        return _round_postings(
            pa.table({"doc_id": pa.array([], pa.string()),
                      "text": pa.array([], pa.list_(pa.string()))})
        )
    return _round_postings(pa.concat_tables(tables, promote_options="default"))


# wrapped ONCE at module scope: ray.remote caches the exported function
# per WRAPPER, so re-wrapping inside poll() would pickle+export a fresh
# function to the cluster on every call of a long-lived river (the same
# per-closure-export pitfall documented at stages/fetch.py)
_POSTINGS_TASK = ray.remote(num_cpus=1)(_postings_for_parts)

_EMPTY_INDEX = pa.table(
    {"word": pa.array([], pa.string()),
     "doc_id": pa.array([], pa.string()),
     "n": pa.array([], pa.int64())}
)


class IndexRiver:
    """Tails the pages rounds of a crawl output dir and maintains the
    word-index delta partitions. Stateless across restarts: the indexed
    set is recovered from the committed ``windex`` rounds on disk."""

    def __init__(self, out_root: str):
        self.out_root = out_root

    def indexed_rounds(self) -> list[int]:
        return table_store.list_rounds(self.out_root, "windex")

    def pending_rounds(self) -> list[int]:
        done = set(self.indexed_rounds())
        return [
            r for r in table_store.list_rounds(self.out_root, "pages")
            if r not in done
        ]

    def poll(self) -> list[int]:
        """Index every committed-but-unindexed pages round; returns the
        round ids indexed by this call. Each round's postings are computed
        in a Ray task (the bulk worker) that reads the round's part files
        ITSELF, pruned to (doc_id, text) — the driver ships only paths, so
        no page row (in particular no ``html`` large_binary) ever crosses
        driver memory. This matches the reference river's remote tail of
        the change feed (elastic_search.go:169-185)."""
        newly = []
        pending = self.pending_rounds()
        futs = []
        for r in pending:
            wname, paths = table_store.round_part_paths(
                self.out_root, "pages", r
            )
            futs.append((r, _POSTINGS_TASK.remote(wname, paths)))
        for r, fut in futs:
            delta = ray.get(fut)
            tmp = table_store.begin_round(self.out_root, "windex", r)
            table_store.write_part(tmp, delta, key=f"windex-{r}")
            table_store.commit_round(self.out_root, "windex", r)
            newly.append(r)
        return newly

    def index_table(self) -> pa.Table:
        """The merged index: LSM-style compaction of the round deltas —
        one small groupby over (word, doc_id) partials. Driver-side Arrow
        merge: the small/test surface. At 10^10 pages the merged index is
        itself huge — use index_dataset() there."""
        deltas = table_store.read_all_arrow(self.out_root, "windex")
        if deltas.num_rows == 0:
            # a store with NO committed windex rounds reads back as a
            # zero-COLUMN table; returning it as-is would KeyError every
            # caller (search(), status pages) that touches the schema —
            # the river is documented stateless/restartable, so a
            # pre-first-poll query must yield an empty INDEX, not a crash
            return _EMPTY_INDEX
        return (
            deltas.group_by(["word", "doc_id"]).aggregate([("n", "sum")])
            .rename_columns(["word", "doc_id", "n"])
        )

    def index_dataset(self):
        """The scale path for the merged index: the same LSM compaction as
        a LAZY Ray Dataset (streaming read of the delta rounds -> one
        hash-partitioned groupby), so the merged postings never land on
        the driver. Equality with index_table() is pytest-gated."""
        from .queries import _group_agg

        return _group_agg(table_store.read_all(self.out_root, "windex"),
                          ["word", "doc_id"], [("n", "sum")], ["n"])

    def search(self, term: str, k: int = 10) -> pa.Table:
        """Point lookup against the maintained index (the ES query the
        river feeds): postings for one word, count-desc."""
        idx = self.index_table()
        hits = idx.filter(pc.equal(idx.column("word"), term))
        order = pc.sort_indices(
            hits, sort_keys=[("n", "descending"), ("doc_id", "ascending")]
        )
        return hits.take(order[:k])

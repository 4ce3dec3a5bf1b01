"""Partitioned, resumable columnar table store (Lance when available,
Parquet otherwise — the sandbox has no lance wheel, so Parquet is the
active default).

The format choice is ONE writer object (``WRITER``, chosen at import):
every write/commit/read path below dispatches through it, so the Lance
branch is the same code path the Parquet tests exercise — not an
untested ``if``. tests/test_table_store_writers.py runs the identical
round-trip against both writers (the lance leg skips itself, with
reason, only when the wheel is absent).

Replaces the reference's CouchDB page store (couchdb/couchdb.go:143-214).
Layout — one directory per crawl round:

    root/<name>/round=000042/part-*.parquet   (or part-*.lance dirs)
    root/<name>/round=000042/_SUCCESS

Writes are atomic per round: data lands in ``<dir>.tmp`` and is renamed
into place, then ``_SUCCESS`` is written; a resumed run skips rounds whose
``_SUCCESS`` exists, so a killed ``ray job submit`` never double-appends
(the idempotent-commit requirement of SURVEY.md §4 "Retries").
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

try:  # pragma: no cover - not present in this sandbox
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


class ParquetWriter:
    """Columnar part writer (always available). One part = one file."""

    name = "parquet"
    ext = ".parquet"

    def write(self, table: pa.Table, path: str) -> None:
        pq.write_table(table, path)

    def read(self, path: str, columns: list[str] | None = None) -> pa.Table:
        return pq.read_table(path, columns=columns)

    def write_dataset(self, ds, out_dir: str) -> None:
        # Ray's write_parquet names files "{uuid}_{task}_{block}.parquet";
        # every reader below discovers parts by the "part-" prefix, so a
        # round written through this branch would commit fine yet read
        # back EMPTY. Rename into the store's contract (driver-side: this
        # branch is only ever called under write_round's atomic tmp dir).
        ds.write_parquet(out_dir)
        for f in os.listdir(out_dir):
            if f.endswith(self.ext) and not f.startswith("part-"):
                os.rename(os.path.join(out_dir, f),
                          os.path.join(out_dir, "part-" + f))

    def num_rows(self, path: str) -> int:
        """Row count from the parquet footer — no column data is read."""
        return pq.ParquetFile(path).metadata.num_rows

    def dataset(self, files: list[str], columns: list[str] | None = None):
        import ray
        import ray.data as rd

        # partitioning=None: don't let hive inference graft a `round`
        # column out of the round=NNNNNN path segment — the stored schema
        # is the contract; `columns` prunes heavy payloads (html, image
        # bytes) at the read, so a projection never leaves storage.
        # Ray 2.49's parquet datasource raises UnboundLocalError when
        # columns are combined with partitioning=None, so the pruned path
        # keeps the default hive partitioning — the explicit column list
        # already excludes any path-grafted column, so the output schema
        # is identical either way.
        # Block count clamped BOTH ways (measured on a 256-part megaround
        # pages store — 69.9 MB compressed / 1.27 GB in Arrow — with
        # interleaved min-of-4 legs):
        #  * never MORE tasks than part files — Ray 2.49 otherwise splits
        #    a small part into more tasks than it has row groups and the
        #    surplus tasks emit 0-row SCHEMA-LESS blocks, which map
        #    stages propagate and every union then logs the executor's
        #    schema-divergence warning (per-file also read 1.34 s vs the
        #    winning 0.68-0.70 s);
        #  * below that, COALESCE small parts toward max(~4 MB
        #    compressed per task, 2 tasks/cpu) — compressed bytes alone
        #    underestimate work when payloads decompress 10-20x (the
        #    4 MB-only rule picked 5 tasks: 2.0 s; 64 tasks = 2/cpu read
        #    0.70 s vs 1.11 s for Ray's own planning), so the cpu knee
        #    keeps decompression parallel while still merging KB-sized
        #    parts that would otherwise pay task overhead per file.
        # Big parts stay one task per file (no intra-file split) — parts
        # are budget-bounded round slices, never multi-GB monoliths; at
        # real scale len(files) >> 2*cpus and the size term governs.
        try:
            cpus = int(ray.cluster_resources().get("CPU", 4))
        except Exception:
            cpus = 4
        size_blocks = -(-sum(os.path.getsize(f) for f in files) // (4 << 20))
        n_blocks = min(len(files), max(size_blocks, 2 * cpus, 1))
        if columns is None:
            return rd.read_parquet(
                files, partitioning=None, override_num_blocks=n_blocks
            )
        return rd.read_parquet(
            files, columns=columns, override_num_blocks=n_blocks
        )


class LanceWriter:
    """Lance-format part writer (the north rule's target table format).
    One part = one self-contained lance dataset directory. Selected
    automatically when the ``lance`` wheel is importable; the store's
    write/commit/read machinery is IDENTICAL either way (the writer is
    the only varying object — tests exercise the same round-trip through
    both, the lance leg skipping only when the wheel is absent)."""

    name = "lance"
    ext = ".lance"

    def write(self, table: pa.Table, path: str) -> None:
        import lance as _lance

        _lance.write_dataset(table, path, mode="create")

    def read(self, path: str, columns: list[str] | None = None) -> pa.Table:
        import lance as _lance

        return _lance.dataset(path).to_table(columns=columns)

    def write_dataset(self, ds, out_dir: str) -> None:
        ds.write_lance(os.path.join(out_dir, "part-ds" + self.ext))

    def num_rows(self, path: str) -> int:
        import lance as _lance

        return _lance.dataset(path).count_rows()

    def dataset(self, files: list[str], columns: list[str] | None = None):
        import ray.data as rd

        parts = [rd.read_lance(f, columns=columns) for f in files]
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out


WRITERS = {"parquet": ParquetWriter(), "lance": LanceWriter()}
WRITER = WRITERS["lance"] if HAVE_LANCE else WRITERS["parquet"]


def _round_dir(root: str, name: str, round_id: int) -> str:
    return os.path.join(root, name, f"round={round_id:06d}")


def round_complete(root: str, name: str, round_id: int) -> bool:
    return os.path.exists(os.path.join(_round_dir(root, name, round_id), "_SUCCESS"))


def _mark_success(final: str) -> None:
    """The _SUCCESS marker persists the FORMAT NAME of the writer that
    produced the round, so a store written as parquet and later opened in
    a lance-enabled environment (or vice versa) reads back with the
    matching reader instead of silently matching zero part files. It is
    renamed into place, so a reader never sees it empty."""
    path = os.path.join(final, "_SUCCESS")
    with open(path + ".tmp", "w") as f:
        f.write(WRITER.name)
    os.rename(path + ".tmp", path)


def round_writer(root: str, name: str, round_id: int):
    """Reader for a committed round, selected from the format name in its
    _SUCCESS marker; a marker that names no writer raises. A round with
    no marker yet (a reader between two tables' commits) gets the
    import-time WRITER, and round_part_paths then finds no parts."""
    try:
        with open(os.path.join(_round_dir(root, name, round_id),
                               "_SUCCESS")) as f:
            tag = f.read().strip()
    except OSError:
        return WRITER
    if tag not in WRITERS:
        raise ValueError(
            f"round {round_id} of table {name!r} under {root!r} has a "
            f"_SUCCESS marker naming no writer ({tag!r}; known: "
            f"{sorted(WRITERS)})"
        )
    return WRITERS[tag]


def write_round(ds, root: str, name: str, round_id: int) -> str:
    """ds: ray.data.Dataset | pyarrow.Table -> committed round directory."""
    final = _round_dir(root, name, round_id)
    if os.path.exists(os.path.join(final, "_SUCCESS")):
        return final  # already committed by a previous (killed) run
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(final, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    if isinstance(ds, pa.Table):
        WRITER.write(ds, os.path.join(tmp, "part-0" + WRITER.ext))
    else:  # ray Dataset — distributed write, one file per block set
        WRITER.write_dataset(ds, tmp)
    os.rename(tmp, final)
    _mark_success(final)
    return final


def begin_round(root: str, name: str, round_id: int) -> str:
    """Start a side-effect-written round: returns the tmp dir that stage
    tasks write part files into (content-hash filenames -> task retries
    overwrite rather than duplicate). Commit with commit_round()."""
    tmp = _round_dir(root, name, round_id) + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    return tmp


def commit_round(root: str, name: str, round_id: int) -> str:
    """Atomically promote the tmp dir written by stage tasks. If the round
    was already committed (resume replay), the tmp content is identical by
    determinism and is simply discarded."""
    final = _round_dir(root, name, round_id)
    tmp = final + ".tmp"
    if os.path.exists(os.path.join(final, "_SUCCESS")):
        shutil.rmtree(tmp, ignore_errors=True)
        return final
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    _mark_success(final)
    return final


def write_part(tmp_dir: str, table: pa.Table, key: str) -> None:
    """Write one part (file or lance dataset dir, per WRITER) with a
    deterministic content-derived name (safe under task retries)."""
    import hashlib

    digest = hashlib.blake2b(key.encode(), digest_size=8).hexdigest()
    WRITER.write(table, os.path.join(tmp_dir, f"part-{digest}{WRITER.ext}"))


def prune_rounds_after(root: str, name: str, round_id: int) -> list[int]:
    """Delete every round dir (committed or not) with id > round_id.

    Resume safety: a run killed after writing round N+1's data but before
    checkpointing it leaves a committed round dir NEWER than the restored
    checkpoint. The resumed run may chunk rounds differently (e.g. a new
    budget_per_round — fingerprint() explicitly allows that), so the stale
    round's rows are NOT the rows the resumed run will produce; if its
    ``_SUCCESS`` survived, commit_round would silently discard the
    recomputed data in its favor. Restoring therefore prunes all rounds
    beyond the checkpoint before re-running (checkpoint.py docstring)."""
    base = os.path.join(root, name)
    if not os.path.isdir(base):
        return []
    pruned = []
    for d in sorted(os.listdir(base)):
        if not d.startswith("round="):
            continue
        rid = int(d.split("=")[1].split(".")[0])
        if rid > round_id:
            shutil.rmtree(os.path.join(base, d), ignore_errors=True)
            pruned.append(rid)
    return pruned


def list_rounds(root: str, name: str) -> list[int]:
    base = os.path.join(root, name)
    if not os.path.isdir(base):
        return []
    out = []
    for d in sorted(os.listdir(base)):
        if d.startswith("round=") and os.path.exists(
            os.path.join(base, d, "_SUCCESS")
        ):
            out.append(int(d.split("=")[1]))
    return out


def round_part_paths(root: str, name: str, round_id: int) -> tuple[str, list[str]]:
    """(writer_name, part paths) for one committed round — the plumbing
    that lets tasks read a round remotely (see pipelines/river.py) without
    the driver touching row data."""
    w = round_writer(root, name, round_id)
    d = _round_dir(root, name, round_id)
    try:  # a sibling table's round may not be committed yet (e.g. a
        names = sorted(os.listdir(d))  # reader between the pages and
    except OSError:                    # stamps commits) — report "no
        names = []                     # parts", don't crash the view
    return w.name, [
        os.path.join(d, f) for f in names
        if f.startswith("part-") and f.endswith(w.ext)
    ]


def round_num_rows(root: str, name: str, round_id: int) -> int:
    """Exact row count of one committed round from part METADATA (parquet
    footers / lance manifests) — O(parts) tiny reads, no row data. Lets
    per-round metrics report what the store actually holds (image decode
    drops and fetch misses excluded) instead of candidate counts."""
    wname, paths = round_part_paths(root, name, round_id)
    w = WRITERS[wname]
    return sum(w.num_rows(p) for p in paths)


def _part_paths(root: str, name: str) -> list[tuple[str, str]]:
    """[(writer_name, path)] across committed rounds — each round read
    with the format its _SUCCESS marker records."""
    out = []
    for r in list_rounds(root, name):
        wname, paths = round_part_paths(root, name, r)
        out.extend((wname, p) for p in paths)
    return out


def read_all(root: str, name: str, columns: list[str] | None = None):
    """All committed rounds as one ray Dataset (lazy, streaming); pass
    ``columns`` to prune heavy payloads at the read."""
    import ray.data as rd

    pairs = _part_paths(root, name)
    if not pairs:
        return rd.from_items([])
    # mixed-format stores (written across environments) union one lazy
    # dataset per format
    by_writer: dict[str, list[str]] = {}
    for wname, p in pairs:
        by_writer.setdefault(wname, []).append(p)
    parts = [
        WRITERS[wname].dataset(files, columns=columns)
        for wname, files in by_writer.items()
    ]
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def round_dataset(root: str, name: str, round_id: int,
                  columns: list[str] | None = None):
    """ONE committed round's parts as a lazy ray Dataset (None when the
    round committed empty — e.g. a pages round whose every admission
    404'd writes no parts). The per-round granularity is what lets a
    reader broadcast that round's bounded sidecar (stamps) into a
    map_batches join instead of shuffling the whole store."""
    wname, paths = round_part_paths(root, name, round_id)
    if not paths:
        return None
    return WRITERS[wname].dataset(paths, columns=columns)


def _concat_parts(tables: list[pa.Table]) -> pa.Table:
    """concat with STRICT promotion, healing exactly one benign split:
    parts that disagree only in string/binary offset width (binary vs
    large_binary, string vs large_string — e.g. an images store whose
    older rounds predate the decoder's large_binary upgrade). Those casts
    are lossless, so widen and retry; every other schema drift still
    fails loudly (permissive promotion across the board would silently
    paper over genuine part corruption with int upcasts and null fills).
    """
    try:
        return pa.concat_tables(tables, promote_options="default")
    except pa.lib.ArrowTypeError:
        widen = {pa.binary(): pa.large_binary(),
                 pa.string(): pa.large_string()}

        def widened(t: pa.Table) -> pa.Table:
            for i, f in enumerate(t.schema):
                if f.type in widen:
                    t = t.set_column(
                        i, f.name, t.column(i).cast(widen[f.type]))
            return t

        return pa.concat_tables(
            [widened(t) for t in tables], promote_options="default")


def read_all_arrow_round(root: str, name: str, round_id: int) -> pa.Table:
    """One committed round's parts as an Arrow table."""
    wname, paths = round_part_paths(root, name, round_id)
    tables = [WRITERS[wname].read(p) for p in paths]
    if not tables:
        return pa.table({})
    return _concat_parts(tables)


def read_all_arrow(root: str, name: str,
                   columns: list[str] | None = None) -> pa.Table:
    """All committed rounds as one in-memory Arrow table (small/test use;
    pass ``columns`` to prune heavy payloads like html at the read)."""
    tables = [
        WRITERS[wname].read(p, columns=columns)
        for wname, p in _part_paths(root, name)
    ]
    if not tables:
        return pa.table({})
    return _concat_parts(tables)


def collect(ds) -> pa.Table:
    """The package's one driver collect: the rows of Dataset ``ds`` as
    one Arrow table, its plan run once (``to_arrow_refs`` runs a lazy
    plan twice in Ray 2.49, the second time to fetch the schema).
    Row-free blocks are dropped, as routed and grouped stages emit
    schema-less empty ones; with no rows at all the result is
    ``pa.table({})``."""
    tables = [t for t in ds.iter_batches(batch_size=None,
                                         batch_format="pyarrow")
              if t.num_rows]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")

"""The crawl's wire format for Arrow tables between its own processes.

Every table the crawl passes to or from its heavy-pass tasks and its
state actors crosses as ONE Arrow IPC stream buffer (``pack``), read
back zero-copy on the other side (``unpack``). Ray ships a ``pa.Buffer``
as one out-of-band pickle buffer. A ``pa.Table`` it would instead pass
through its Python-level Arrow reducer
(``ray/_private/arrow_serialization.py``), which walks every array and
buffer in Python to work around ARROW-10739 (a pickled slice carries its
whole parent buffer) and imports ``ray.data`` into the process on first
use. The IPC stream writer does not have that bug: a slice packs only
its own rows.

This is no global serializer: Ray Data's blocks, which the views and
queries move, keep Ray's own path.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.ipc as ipc


def pack(table: pa.Table | None) -> pa.Buffer | None:
    """``table`` as one IPC stream buffer (None stays None)."""
    if table is None:
        return None
    sink = pa.BufferOutputStream()
    with ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue()


def unpack(buf: pa.Buffer | None) -> pa.Table | None:
    """The table ``pack`` wrote into ``buf`` (None stays None)."""
    if buf is None:
        return None
    return ipc.open_stream(buf).read_all()

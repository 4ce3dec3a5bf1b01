"""Deterministic generator for the BASELINE.json input_hint table:
(image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
 caption:string, phash:int64).

Used as the input side for the image-processing queries (decode
validation, phash near-dup detection) and by tests. Scale parameter n;
``with_near_dups`` adds lossy re-encodes of the first k images under new
ids so near-dup detection has deterministic positives.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions import codec, ids

_FMTS = ("png", "jpeg", "webp")
_DIMS = ((32, 32), (48, 32), (64, 48), (96, 64))

SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
    ]
)


def rows_for_indices(indices, n: int, with_near_dups: int) -> pa.Table:
    """Rows of make_images_table(n, with_near_dups) for a slice of flat
    indices (0..n-1 = base images, n..n+dups-1 = lossy re-encodes of base
    i-n). Pure function of the index -> the table synthesizes DISTRIBUTED
    via rd.range(total).map_batches(...), no driver-side generation."""
    # make_images_table caps dups at min(with_near_dups, n) (a dup needs
    # a base image to re-encode); an index past that cap would silently
    # synthesize a "dup" of a base that does not exist in the driver
    # table, breaking the documented equivalence — fail loud instead
    limit = n + min(with_near_dups, n)
    rows = {k: [] for k in
            ("image_id", "bytes", "w", "h", "fmt", "caption", "phash")}
    for idx in indices:
        idx = int(idx)
        if idx >= limit:
            raise ValueError(
                f"index {idx} beyond make_images_table(n={n}, "
                f"with_near_dups={with_near_dups}) row count {limit}"
            )
        if idx < n:
            i = idx
            fmt = _FMTS[i % 3]
            url = f"http://images.test/img-{i}.{fmt}"
            base_id = ids.doc_id(url)
            pix = codec.synth_pixels(base_id, *_DIMS[i % len(_DIMS)])
        else:
            i = idx - n
            fmt = "jpeg" if _FMTS[i % 3] != "jpeg" else "webp"
            url = f"http://images.test/dup-{i}.{fmt}"
            src_fmt = _FMTS[i % 3]
            src_id = ids.doc_id(f"http://images.test/img-{i}.{src_fmt}")
            pix = codec.synth_pixels(src_id, *_DIMS[i % len(_DIMS)])
        w, h = _DIMS[i % len(_DIMS)]
        buf = codec.encode(pix, fmt)
        dec, *_ = codec.decode(buf)
        rows["image_id"].append(ids.doc_id(url))
        rows["bytes"].append(buf)
        rows["w"].append(w)
        rows["h"].append(h)
        rows["fmt"].append(fmt)
        rows["caption"].append(f"synthetic image {i} caption")
        rows["phash"].append(codec.phash64(dec))
    return pa.table(
        {
            "image_id": pa.array(rows["image_id"], pa.string()),
            "bytes": pa.array(rows["bytes"], pa.binary()),
            "w": pa.array(np.asarray(rows["w"], np.int32)),
            "h": pa.array(np.asarray(rows["h"], np.int32)),
            "fmt": pa.array(rows["fmt"], pa.string()),
            "caption": pa.array(rows["caption"], pa.string()),
            "phash": pa.array(np.asarray(rows["phash"], np.int64)),
        },
        schema=SCHEMA,
    )


def make_images_table(n: int, with_near_dups: int = 0) -> pa.Table:
    """The whole table on the driver: n base images, then re-encodes of
    the first min(with_near_dups, n) of them."""
    return rows_for_indices(range(n + min(with_near_dups, n)), n,
                            with_near_dups)

"""Image stages (graft axis): explode page image refs -> fetch bytes ->
decode/phash -> rows in the BASELINE.json input_hint shape
(image_id, bytes, w, h, fmt, caption, phash).

The reference has no image handling; the north rule grafts it on. Binary
payloads ride ``large_binary`` Arrow columns end to end (zero-copy through
the object store). The decode stage is a batch kernel: each payload is
validated and inflated once (``codec.decode_quantized``), only its 32x32
phash grid is dequantized, and the whole batch is hashed by one
``codec.phash_batch`` call; the kept rows' payload and pass-through
columns are taken from the input batch, never rebuilt from Python
lists. Kernels are state-free; both stages run inside the crawl's fused
round task, built per call. The fetch stage asks the corpus for a whole
batch of images at once, so every pixel seed of the batch comes from
one ``functions.seeding`` call.
"""

from __future__ import annotations

import numpy as np
import logging

import pyarrow as pa

from ..functions import codec, ids
from ..sources.corpus import WebConfig, shared_web

_LOG = logging.getLogger("owlcrawler_ray.images")

class ImageFetcher:
    """image_url batch -> +bytes (corpus-backed; a real impl holds an HTTP
    session per actor). One ``SyntheticWeb.image_bytes_many`` call seeds
    and synthesizes the batch; missing/foreign urls yield empty bytes +
    ok=False."""

    def __init__(self, web_cfg: WebConfig):
        self.web = shared_web(web_cfg)

    def __call__(self, batch: pa.Table) -> pa.Table:
        got = self.web.image_bytes_many(batch.column("image_url").to_pylist())
        return batch.append_column(
            "bytes", pa.array([b or b"" for b in got], type=pa.large_binary())
        ).append_column(
            "ok", pa.array([b is not None for b in got], type=pa.bool_()))


class ImageDecoder:
    """+bytes -> image_id, w, h, fmt, phash (the input_hint row shape).

    Rows with an empty payload (fetch failures) are skipped; rows whose
    payload fails to decode are dropped, mirroring the reference's
    drop-on-error stance for fetch failures (fetcher.go:51-54); the
    per-actor ``n_bad`` counter and a WARNING log record the drop volume
    (the "no silent caps" rule).
    """

    def __init__(self):
        codec._dct_matrix(32)  # build the DCT basis once per actor
        self.n_bad = 0  # undecodable payloads dropped by this actor

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep, ws, hs, fmts, grids = [], [], [], [], []
        for i, b in enumerate(batch.column("bytes").to_pylist()):
            if not b:
                continue
            try:
                q, fmt, s, w, h = codec.decode_quantized(b)
            except ValueError:  # codec normalizes all corrupt-payload errors
                self.n_bad += 1
                _LOG.warning("ImageDecoder: dropped undecodable payload "
                             "for %s (%d so far on this actor)",
                             batch.column("image_url")[i].as_py(), self.n_bad)
                continue
            keep.append(i)
            ws.append(w)
            hs.append(h)
            fmts.append(fmt)
            grids.append(codec.dequantize(codec.phash_sample(q), s))
        kept = batch.take(pa.array(keep, type=pa.int64()))
        phash = codec.phash_batch(
            np.stack(grids) if grids
            else np.empty((0, 32, 32, 3), dtype=np.uint8))
        urls = kept.column("image_url").to_pylist()
        out = pa.table(
            {
                "image_id": pa.array([ids.doc_id(u) for u in urls],
                                     type=pa.string()),
                # large_binary (64-bit offsets), same as the fetch stage:
                # int32-offset binary overflows past 2 GiB of payload per
                # batch — the module contract is large_binary end to end
                "bytes": kept.column("bytes").cast(pa.large_binary()),
                "w": pa.array(np.asarray(ws, dtype=np.int32)),
                "h": pa.array(np.asarray(hs, dtype=np.int32)),
                "fmt": pa.array(fmts, type=pa.string()),
                "caption": kept.column("caption").cast(pa.string()),
                "phash": pa.array(phash),
                "tick": kept.column("tick").cast(pa.int64()),
                "img_idx": kept.column("img_idx").cast(pa.int32()),
            }
        )
        if "page_url" in batch.column_names:
            out = out.append_column(
                "page_url", kept.column("page_url").cast(pa.string()))
        return out

"""Extract stage: (+html) batch -> text structure + link sets + image refs.

Fuses the reference's extractor worker (extractor.go:47-61: ExtractText +
ExtractLinks + timestamps, then publish links) into the stage right after
fetch — the html never leaves the batch, so the reference's
publish-before-save crash window (SURVEY.md §3.2) cannot exist.

Output columns (Arrow list columns, doc order preserved):
  title:string, h1..h4,text: list<string>, links: list<string> (to_store),
  fetch_candidates: list<string> (fetch-CLASS links before the advisory
  seen filter — that filter is a separate stage because it needs the
  seen-set actors), img_urls/img_captions: list<string>.

HTML parsing is inherently per-document; the batch loop is over documents
(one ``extract_all`` walk each: one regex tokenization of the page, or
the HTMLParser pass when the page falls outside the token grammar — see
``functions/parse.py``), with all column assembly vectorized via Arrow.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions import ids
from ..functions.parse import extract_all


def extract_batch(batch: pa.Table) -> pa.Table:
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    statuses = batch.column("status").to_pylist()
    titles = []
    h1s, h2s, h3s, h4s, texts = [], [], [], [], []
    links, candidates = [], []
    img_urls, img_caps = [], []
    for url, html_bytes, status in zip(urls, htmls, statuses):
        if status != 200 or not html_bytes:
            titles.append("")
            for col in (h1s, h2s, h3s, h4s, texts, links, candidates,
                        img_urls, img_caps):
                col.append([])
            continue
        html = bytes(html_bytes).decode("utf-8", errors="replace")
        page, to_fetch, to_store, imgs = extract_all(html, url)
        titles.append(page.title)
        h1s.append(page.h1)
        h2s.append(page.h2)
        h3s.append(page.h3)
        h4s.append(page.h4)
        texts.append(page.text)
        links.append(to_store)
        candidates.append(to_fetch)
        img_urls.append([i[0] for i in imgs])
        img_caps.append([i[1] for i in imgs])
    ls = pa.list_(pa.string())
    return (
        # explicit string type: an untyped empty pa.array is null-typed
        # and would schema-mismatch non-empty batches at concat
        batch.append_column(
            "doc_id",
            pa.array([ids.doc_id(u) for u in urls], type=pa.string()))
        .append_column("title", pa.array(titles, type=pa.string()))
        .append_column("h1", pa.array(h1s, type=ls))
        .append_column("h2", pa.array(h2s, type=ls))
        .append_column("h3", pa.array(h3s, type=ls))
        .append_column("h4", pa.array(h4s, type=ls))
        .append_column("text", pa.array(texts, type=ls))
        .append_column("links", pa.array(links, type=ls))
        .append_column("fetch_candidates", pa.array(candidates, type=ls))
        .append_column("img_urls", pa.array(img_urls, type=ls))
        .append_column("img_captions", pa.array(img_caps, type=ls))
    )

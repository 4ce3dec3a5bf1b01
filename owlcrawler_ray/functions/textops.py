"""Text-analysis kernels for training-data pipelines: SimHash, rolling-hash
document fingerprints, n-gram language ID, token counting.

All deterministic (md5/blake2b-based — no Python hash()), all designed to
run vectorized-per-batch inside map_batches.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

_WORD_RE = re.compile(r"\w+", re.UNICODE)

# tiny stopword inventories for the n-gram/stopword language heuristic
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "for", "it"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "por", "con", "los"},
    "de": {"der", "die", "und", "das", "ist", "von", "mit", "den", "ein", "zu"},
    "fr": {"le", "la", "les", "de", "et", "un", "une", "est", "que", "pour"},
    "zh": set(),  # handled by the CJK-codepoint ratio below
}


def simhash64(text: str) -> int:
    """64-bit SimHash over word unigrams weighted by count; md5-based so it
    is stable across runs/processes. Returns SIGNED int64."""
    counts: dict[str, int] = {}
    for w in text.split(" "):
        if w:
            counts[w] = counts.get(w, 0) + 1
    if not counts:
        return 0
    votes = np.zeros(64, dtype=np.int64)
    for w, c in counts.items():
        h = int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "little")
        bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        votes += np.where(bits.astype(bool), c, -c)
    val = np.uint64(0)
    for i in range(64):
        if votes[i] > 0:
            val |= np.uint64(1) << np.uint64(i)
    return int(np.int64(val))


def _tokenize_md5(texts):
    """Shared batch tokenize prologue for the vectorized text kernels
    (simhash64_batch, min_fingerprint_batch): whitespace-split the whole
    Arrow string array, drop empty words, dictionary-encode, and md5 each
    BATCH-unique word once. Returns (n_docs, pos, codes, md5_bytes):
    pos/codes are int64 arrays in doc-major order; md5_bytes is the
    (nv, 8) uint8 array of each vocab word's first 8 digest bytes
    (little-endian significance, contiguous — viewable as '<u8')."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n_docs = len(texts)
    words = pc.split_pattern(texts, " ")
    flat = pc.list_flatten(words)
    pos = pc.list_parent_indices(words).to_numpy().astype(np.int64)
    keep = pc.not_equal(flat, "")
    if isinstance(keep, pa.ChunkedArray):
        keep = keep.combine_chunks()
    mask = keep.to_numpy(zero_copy_only=False)
    flat, pos = flat.filter(keep), pos[mask]
    if len(pos) == 0:
        return n_docs, pos, np.zeros(0, np.int64), np.zeros((0, 8), np.uint8)
    enc = flat.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy().astype(np.int64)
    md5b = np.frombuffer(
        b"".join(hashlib.md5(w.encode()).digest()[:8]
                 for w in enc.dictionary.to_pylist()),
        dtype=np.uint8,
    ).reshape(-1, 8)
    return n_docs, pos, codes, md5b


def simhash64_batch(texts) -> np.ndarray:
    """Vectorized simhash64 over a whole Arrow string array — the batch
    twin of simhash64 (bit-identity pinned by
    tests/test_rows_only_ops.py::test_simhash_batch_matches_reference).
    md5 runs once per BATCH-UNIQUE word (dictionary encode) instead of
    once per (doc, unique-word), and the 64-lane vote tally is one numpy
    scatter-add over (+count/-count) sign rows — no per-word 64-element
    allocations. Returns signed int64 signatures, one per input row."""
    n_docs, pos, codes, md5b = _tokenize_md5(texts)
    out = np.zeros(n_docs, dtype=np.int64)
    if len(pos) == 0:
        return out
    nv = len(md5b)
    # (doc, word) counts without a hash table: unique over combined keys
    uk, counts = np.unique(pos * nv + codes, return_counts=True)
    udoc, ucode = uk // nv, uk % nv
    # bits i = (h >> i) & 1 via unpackbits over the little-endian byte
    # view (byte0 = least significant)
    hbits = np.unpackbits(md5b, axis=1, bitorder="little").astype(np.int64)
    signs = (2 * hbits - 1).astype(np.int8)  # (nv, 64): +1/-1 per bit
    # segment-sum per doc: udoc is sorted (np.unique), so one buffered
    # add.reduceat over run starts — NOT np.add.at, whose unbuffered
    # scatter measured ~2 s alone on a 500k-pair batch. int8 gather +
    # int32 product keep the (U, 64) intermediate 8x/2x smaller (the
    # first-touch page faults on it dominated the int64 form); per-doc
    # vote sums cannot overflow int32 within one Arrow batch (word
    # instances per array < 2^31 by the int32 list-offset bound).
    prod = counts.astype(np.int32)[:, None] * signs[ucode]  # (U, 64) i32
    starts = np.nonzero(
        np.concatenate([[True], udoc[1:] != udoc[:-1]])
    )[0]
    # contiguous segments -> cumsum at segment ends, then a boundary
    # diff (np.add.reduceat on 2D measured ~10x slower: per-segment
    # ufunc dispatch vs one vectorized pass; |cumsum| <= word instances
    # < 2^31 so int32 cannot overflow)
    cs = np.cumsum(prod, axis=0, dtype=np.int32)
    ends = np.concatenate([starts[1:], [len(udoc)]])
    votes = np.zeros((n_docs, 64), dtype=np.int32)
    votes[udoc[starts]] = np.diff(
        cs[ends - 1], axis=0, prepend=np.zeros((1, 64), np.int32)
    )
    packed = np.packbits(votes > 0, axis=1, bitorder="little")
    return packed.view("<u8").ravel().astype(np.uint64).view(np.int64)


_B = 1000003
_M = (1 << 61) - 1


def fingerprints(text: str, window: int = 8) -> list[int]:
    """Rabin-Karp rolling-hash fingerprints over word windows (winnowing
    basis for copy detection). Deterministic; one hash per window."""
    ws = [w for w in text.split(" ") if w]
    if not ws:
        return []
    hs = [
        int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "little") % _M
        for w in ws
    ]
    if len(hs) <= window:
        val = 0
        for h in hs:
            val = (val * _B + h) % _M
        return [val]
    out = []
    power = pow(_B, window - 1, _M)
    val = 0
    for h in hs[:window]:
        val = (val * _B + h) % _M
    out.append(val)
    for i in range(window, len(hs)):
        val = ((val - hs[i - window] * power) * _B + hs[i]) % _M
        out.append(val)
    return out


def min_fingerprint(text: str, window: int = 8) -> int:
    fps = fingerprints(text, window)
    return min(fps) if fps else -1


def _mersenne_fold(x: np.ndarray) -> np.ndarray:
    """One fold of x (uint64) toward its residue mod 2^61-1:
    q*2^61 + r ≡ q + r. Output < 2^61 + (x >> 61)'s max — callers fold
    twice then subtract the single possible remaining M."""
    m = np.uint64(_M)
    return (x >> np.uint64(61)) + (x & m)


def _modmul_const(a: np.ndarray, c: int) -> np.ndarray:
    """(a * c) mod 2^61-1 for a uint64 array (< M) and a constant c < M,
    without 128-bit ints: split both into 31/30-bit halves; every partial
    product and carry stays under 2^64, and each power-of-two factor
    reduces via the Mersenne identity 2^61 ≡ 1."""
    m = np.uint64(_M)
    a1, a0 = a >> np.uint64(31), a & np.uint64(0x7FFFFFFF)
    c1, c0 = c >> 31, c & 0x7FFFFFFF
    # a1*c1 * 2^62 ≡ a1*c1 * 2   (a1*c1 < 2^60, doubled < 2^61)
    r = _mersenne_fold(a1 * np.uint64(c1) << np.uint64(1))
    # (a1*c0 + a0*c1) * 2^31: fold the sum, then u1*2^61 + u0*2^31
    t1 = _mersenne_fold(a1 * np.uint64(c0) + a0 * np.uint64(c1))
    r += (t1 >> np.uint64(30)) + ((t1 & np.uint64(0x3FFFFFFF))
                                  << np.uint64(31))
    r += _mersenne_fold(a0 * np.uint64(c0))
    r = _mersenne_fold(_mersenne_fold(r))
    return np.where(r >= m, r - m, r)


def min_fingerprint_batch(texts, window: int = 8) -> np.ndarray:
    """Vectorized min_fingerprint over a whole Arrow string array — the
    batch twin of min_fingerprint (bit-identity pinned by
    tests/test_rows_only_ops.py::test_min_fingerprint_batch_matches_reference).
    md5 runs once per BATCH-unique word (dictionary encode) instead of
    once per word instance, and every window hash is the direct
    polynomial sum_k h[i+k] * B^(w-1-k) mod M — mathematically equal to
    the reference's rolling recurrence — evaluated as `window` fused
    multiply-accumulate passes over the flat word-hash array in exact
    Mersenne-mod uint64 arithmetic. Returns int64; empty docs -> -1."""
    n_docs, pos, codes, md5b = _tokenize_md5(texts)
    out = np.full(n_docs, -1, dtype=np.int64)
    if len(pos) == 0:
        return out
    uh = md5b.view("<u8").ravel()
    uh = _mersenne_fold(_mersenne_fold(uh))  # full 64 -> 61-bit reduction
    uh = np.where(uh >= np.uint64(_M), uh - np.uint64(_M), uh)
    h = uh[codes]  # flat per-instance word hashes, doc-major order
    counts = np.bincount(pos, minlength=n_docs)
    offs = np.concatenate([[0], np.cumsum(counts)])
    m = np.uint64(_M)

    # long docs (n > window): every in-doc window start is a flat
    # position p with pos_in_doc(p) <= count - window
    pows = [pow(_B, window - 1 - k, _M) for k in range(window)]
    total = len(h)
    if total >= window:
        nwin = total - window + 1
        acc = np.zeros(nwin, dtype=np.uint64)
        for k in range(window):
            acc = _mersenne_fold(acc + _modmul_const(h[k:k + nwin], pows[k]))
        acc = np.where(acc >= m, acc - m, acc)
        pin = np.arange(total, dtype=np.int64) - np.repeat(offs[:-1], counts)
        row_of = pos[:nwin]
        valid = pin[:nwin] <= counts[row_of] - window
        vwin, vrow = acc[valid], row_of[valid]
        if len(vwin):
            # vrow is sorted (doc-major) -> one segment-min reduceat
            starts = np.nonzero(
                np.concatenate([[True], vrow[1:] != vrow[:-1]])
            )[0]
            out[vrow[starts]] = np.minimum.reduceat(
                vwin, starts).astype(np.int64)

    # short docs (1 <= n < window): one fold over all n words; group by
    # n so each group is one vectorized polynomial of its own degree.
    # n == window is excluded: those docs' single valid window is already
    # emitted by the long-docs branch when total >= window, and when
    # total < window no doc can hold `window` words at all.
    for n in range(1, window):
        docs = np.nonzero(counts == n)[0]
        if not len(docs):
            continue
        gather = (offs[docs][:, None] + np.arange(n)).ravel()
        hs = h[gather].reshape(len(docs), n)
        acc = np.zeros(len(docs), dtype=np.uint64)
        for k in range(n):
            acc = _mersenne_fold(
                acc + _modmul_const(hs[:, k], pow(_B, n - 1 - k, _M)))
        acc = np.where(acc >= m, acc - m, acc)
        out[docs] = acc.astype(np.int64)
    return out


def predict_lang(text: str) -> str:
    """Stopword/CJK-ratio language heuristic. On word-salad synthetic text
    this degrades to 'unknown' — the honest answer; the pipeline shape
    (stateless scoring stage) is what carries to real corpora."""
    if not text:
        return "unknown"
    cjk = sum(1 for ch in text[:400] if "一" <= ch <= "鿿")
    if cjk / max(len(text[:400]), 1) > 0.1:
        return "zh"
    words = [w.lower() for w in _WORD_RE.findall(text[:2000])]
    if not words:
        return "unknown"
    best, best_score = "unknown", 0.0
    wset = words[:500]
    for lang, markers in _LANG_MARKERS.items():
        if not markers:
            continue
        score = sum(1 for w in wset if w in markers) / len(wset)
        if score > best_score:
            best, best_score = lang, score
    return best if best_score >= 0.05 else "unknown"


def predict_lang_batch(texts) -> "pa.Array":
    """Vectorized predict_lang over a whole string column — Arrow RE2
    kernels + numpy bincounts, no per-row Python. Tokenization splits on
    RE2 ``[^\\p{L}\\p{N}_]+`` — the unicode class matching Python re's
    ``\\w`` regime (a bare RE2 ``\\W`` is ASCII-only and would carve
    stopword fragments out of accented words: 'leçon' -> 'le'+'on'
    scores as French; caught in review, pinned by the accented edge
    inventory in tests/test_vecs.py). Differentially asserted against
    the scalar per row over every testdata corpus, accented/combining/
    fullwidth/Arabic/Cyrillic probes, and null rows. Known residual
    skew: RE2's Unicode tables run ahead of CPython's (codepoints
    assigned in Unicode 15+ are word chars here, unassigned to re) —
    the divergence set shrinks as CPython catches up and cannot affect
    any codepoint assigned in Unicode <= 14.

    Decision order matches the scalar exactly: empty -> unknown; CJK
    codepoints > 10% of the first 400 chars -> zh; no words in the first
    2000 chars -> unknown; else the first (dict-order) language whose
    stopword hit-share over the first 500 words strictly exceeds the
    running best, accepted at >= 0.05. Null rows -> unknown (defined via
    fill_null, not NaN-cast accident)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if n == 0:
        return pa.array([], pa.string())
    # CJK branch: literal char class (RE2 rejects \uXXXX escapes)
    t400 = pc.utf8_slice_codeunits(texts, 0, 400)
    cjk = pc.fill_null(
        pc.count_substring_regex(t400, "[一-鿿]"), 0
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    l400 = pc.fill_null(pc.utf8_length(t400), 0).to_numpy(
        zero_copy_only=False).astype(np.int64)
    is_zh = cjk / np.maximum(l400, 1) > 0.1
    # word branch: \w+ findall == split on the complement with empties
    # dropped (null rows split to null -> zero words via the flatten)
    t2k = pc.utf8_slice_codeunits(texts, 0, 2000)
    words = pc.split_pattern_regex(t2k, r"[^\p{L}\p{N}_]+")
    flat = pc.list_flatten(words)
    parent = pc.list_parent_indices(words).to_numpy(
        zero_copy_only=False).astype(np.int64)
    keep = pc.fill_null(pc.not_equal(flat, ""), False).to_numpy(
        zero_copy_only=False).astype(bool)
    flat = flat.filter(pa.array(keep))
    parent = parent[keep]
    # cap at the first 500 words per row (groups are contiguous)
    wc = np.bincount(parent, minlength=n)
    starts = np.concatenate([[0], np.cumsum(wc)[:-1]])
    rank = np.arange(len(parent), dtype=np.int64) - starts[parent]
    cap = rank < 500
    flat = flat.filter(pa.array(cap))
    parent = parent[cap]
    low = pc.utf8_lower(flat)
    nw = np.minimum(wc, 500)
    best = np.full(n, "unknown", dtype=object)
    best_score = np.zeros(n, dtype=np.float64)
    for lang, markers in _LANG_MARKERS.items():
        if not markers:
            continue
        hit = pc.is_in(low, value_set=pa.array(sorted(markers))).to_numpy(
            zero_copy_only=False)
        hits = np.bincount(parent[hit], minlength=n)
        score = hits / np.maximum(nw, 1)
        better = score > best_score
        best[better] = lang
        best_score[better] = score[better]
    out = np.where(best_score >= 0.05, best, "unknown")
    out = np.where(nw > 0, out, "unknown")
    out = np.where(is_zh, "zh", out)
    out = np.where(l400 > 0, out, "unknown")
    return pa.array(out.tolist(), pa.string())


# 256-entry per-byte popcount table: hamming64_many does ONE LUT gather
# over the uint8 view + a row sum instead of 64 shift/mask passes
_POPCOUNT8 = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def hamming64_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized hamming distance between two int64 arrays."""
    x = (a.astype(np.int64).view(np.uint64)) ^ (b.astype(np.int64).view(np.uint64))
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    return (
        _POPCOUNT8[np.ascontiguousarray(x).view(np.uint8)]
        .reshape(len(x), 8).sum(axis=1).astype(np.int64)
    )


_PRE_TAG = "_-_strong_-_"
_POST_TAG = "_!-_strong_-_"


def phrase_pattern(t0: str, t1: str) -> str:
    """The slop-1 phrase regex of the reference's match_phrase query
    (first two terms, at most one intervening word): THE single phrase
    model — both the ranking side (webapp search scoring) and the
    highlighting side (es_fragments) compile this, so the two can never
    silently diverge."""
    return re.escape(t0) + r"( [a-z]+)? " + re.escape(t1)


def es_score(texts, terms: tuple[str, ...]):
    """The ES relevance model as one vectorized int64 expression: the sum
    of each term's tf, plus 10 x slop-1 phrase matches of the first two
    terms when there are at least two (RE2, the engine of the DuckDB
    oracles). The one scorer of the search queries and the webapp."""
    import pyarrow as pa
    import pyarrow.compute as pc

    score = pc.cast(pc.count_substring(texts, terms[0]), pa.int64())
    for t in terms[1:]:
        score = pc.add(score, pc.count_substring(texts, t))
    if len(terms) >= 2:
        phrase = phrase_pattern(terms[0], terms[1])
        score = pc.add(score, pc.multiply(
            pc.count_substring_regex(texts, phrase), 10))
    return score


def es_fragments(
    text: str,
    terms: tuple[str, ...],
    frag_size: int = 150,
    n_frags: int = 3,
    lead: int = 40,
    sanitize: bool = True,
) -> list[tuple[int, int, str]]:
    """The reference's ES highlight model re-expressed deterministically
    (elastic_search.go:123-154: fragment_size=150, number_of_fragments=3,
    order=score, highlight_query = match(terms) + match_phrase slop 1
    boost 10, sentinel pre/post tags sanitized to <strong> by the webapp,
    webapp/main.go:137-141).

    Fragmentation rule (deterministic stand-in for ES's FVH): walk term
    hits left to right; each fragment is the 150-char window starting 40
    chars before its first uncovered hit; every hit fully inside the
    window joins the fragment. Fragment score = term hits inside + 10 x
    slop-1 phrase matches fully inside. Fragments are returned ordered by
    (score desc, start asc), top n_frags, with every term hit wrapped in
    <strong>..</strong>.

    Returns [(score, start_offset, highlighted_fragment)].
    """
    # an empty alternation branch compiles to '' and matches a
    # zero-width hit at EVERY offset — garbage fragments; drop empty
    # terms individually (not just the all-empty case)
    terms = [t for t in terms if t]
    if not terms:
        return []
    term_re = re.compile("|".join(re.escape(t) for t in terms))
    phrase_re = (
        re.compile(phrase_pattern(terms[0], terms[1]))
        if len(terms) >= 2
        else None
    )
    hits = list(term_re.finditer(text))
    if not hits:
        return []
    phrase_spans = (
        [(m.start(), m.end()) for m in phrase_re.finditer(text)]
        if phrase_re is not None
        else []
    )
    frags: list[tuple[int, int, int, list]] = []
    i = 0
    while i < len(hits):
        start = max(hits[i].start() - lead, 0)
        end = start + frag_size
        inside = []
        while i < len(hits) and hits[i].end() <= end:
            inside.append(hits[i])
            i += 1
        if not inside:  # a hit longer than the window: take it alone
            inside.append(hits[i])
            end = hits[i].end()
            i += 1
        n_phrase = sum(1 for s, e in phrase_spans if s >= start and e <= end)
        frags.append((len(inside) + 10 * n_phrase, start, end, inside))
    frags.sort(key=lambda f: (-f[0], f[1]))
    out = []
    for score, start, end, inside in frags[:n_frags]:
        seg = text[start:end]
        for m in reversed(inside):  # right-to-left keeps offsets valid
            s, e = m.start() - start, m.end() - start
            seg = seg[:s] + _PRE_TAG + seg[s:e] + _POST_TAG + seg[e:]
        # sanitize=False returns the sentinel-marked form so an
        # HTML-rendering caller can escape the corpus text FIRST and only
        # then turn the (escape-proof) sentinels into live tags
        out.append((score, start, sanitize_highlight(seg) if sanitize else seg))
    return out


def sanitize_highlight(s: str) -> str:
    """The webapp's highlight sanitizer (reference webapp/main.go:137-141):
    replace the ES sentinel markers with real <strong> tags."""
    return s.replace("_-_strong_-_", "<strong>").replace(
        "_!-_strong_-_", "</strong>"
    )


def parse_stats_rows(rows: list[dict]) -> dict:
    """The stats-view reduce parser (reference couchdb/couchdb.go:291-311 +
    couchdb_test.go fixture): [{key, value}] rows -> {fetched, parsed}."""
    out = {"fetched": 0, "parsed": 0}
    for r in rows:
        if r.get("key") == "fetched_on":
            out["fetched"] = int(r.get("value", 0))
        elif r.get("key") == "parsed_on":
            out["parsed"] = int(r.get("value", 0))
    return out


def utf8_quality_counts(texts):
    """(n_chars, n_alpha, n_tokens) float64 arrays for a string column,
    computed over the FLAT UTF-8 byte buffer — one boolean-mask cumsum
    per count + one reduceat-style segment diff at the row offsets, no
    per-row Python. Byte-level identities that make this exact for any
    valid UTF-8 (differential- and edge-tested in tests/test_vecs.py):

      * codepoints  = non-continuation bytes ((b & 0xC0) != 0x80),
        so n_chars == Python len(t);
      * '[a-zA-Z]'  never appears inside a multibyte sequence
        (continuation bytes are >= 0x80), so the byte count == the
        regex-substitution count;
      * 0x20 likewise, so n_tokens == len(t.split(' ')) == spaces + 1.

    The pc.count_substring_regex route was measured SLOWER than the
    Python loop it was meant to replace (121 vs 68 ms on 5k docs at
    sf0.1); this flat path is 31 ms on the same input."""
    import pyarrow as pa

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if n == 0:
        z = np.empty(0, np.float64)
        return z, z.copy(), z.copy()
    if texts.null_count:
        raise ValueError("utf8_quality_counts: null text rows")
    odt = np.int64 if pa.types.is_large_string(texts.type) else np.int32
    offs = np.frombuffer(
        texts.buffers()[1], odt, n + 1, texts.offset * np.dtype(odt).itemsize
    ).astype(np.int64)
    data = np.frombuffer(texts.buffers()[2], np.uint8)
    b = data[offs[0]:offs[-1]]
    offs = offs - offs[0]

    def segsum(mask):
        cs = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
        return (cs[offs[1:]] - cs[offs[:-1]]).astype(np.float64)

    n_chars = segsum((b & 0xC0) != 0x80)
    n_alpha = segsum(((b >= 65) & (b <= 90)) | ((b >= 97) & (b <= 122)))
    n_toks = segsum(b == 32) + 1.0
    return n_chars, n_alpha, n_toks

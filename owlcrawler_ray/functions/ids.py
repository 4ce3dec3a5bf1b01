"""URL identity: doc ids, seed ids, 64-bit url hashes, host split.

Reference identity scheme (/root/reference):
  * doc_id = base64url(url) WITH padding — Go ``base64.URLEncoding``
    (fetcher.go:64, couchdb/couchdb.go:148-151);
  * seed docs get a ``site-`` prefix (couchdb/couchdb.go:147-149), which is
    why a seed URL itself is still "unseen" for the fetch-dedup check;
  * NO canonicalization — the URL string is the identity (no lowercasing,
    no slash or query normalization). Our extra canonicalization is a config
    flag that defaults OFF for parity (SURVEY.md §2.2 M4).
"""

from __future__ import annotations

import base64
import hashlib
from urllib.parse import urlsplit

import numpy as np


def doc_id(url: str) -> str:
    """base64url with padding, byte-identical to Go base64.URLEncoding."""
    return base64.urlsafe_b64encode(url.encode("utf-8")).decode("ascii")


def seed_doc_id(url: str) -> str:
    return "site-" + doc_id(url)


def decode_doc_id(did: str) -> str:
    if did.startswith("site-"):
        did = did[5:]
    return base64.urlsafe_b64decode(did.encode("ascii")).decode("utf-8")


def canonicalize(url: str, enabled: bool = False) -> str:
    """Parity mode (enabled=False): identity, like the reference.
    Scale mode: lowercase scheme/host, drop fragment, strip default port."""
    if not enabled:
        return url
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    netloc = parts.netloc.lower()
    for p, d in (("http", ":80"), ("https", ":443")):
        if scheme == p and netloc.endswith(d):
            netloc = netloc[: -len(d)]
    path = parts.path or "/"
    out = f"{scheme}://{netloc}{path}"
    if parts.query:
        out += f"?{parts.query}"
    return out


def host_of(url: str) -> str:
    try:
        return urlsplit(url).netloc
    except ValueError:
        return ""


def host_of_many(urls) -> list[str]:
    """Vectorized ``host_of`` over a list or Arrow string array: one RE2
    pass captures everything between ``scheme://`` and the first
    ``/?#`` — bit-equal to ``urlsplit().netloc`` for every scheme-ful
    URL without IPv6 brackets. Non-matches (scheme-less, protocol-
    relative) and bracket hosts (where urlsplit may RAISE on malformed
    input and host_of maps that to "") fall back to the scalar path, so
    the function is exactly host_of, just ~10x faster on the crawl's
    link volume."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = urls if isinstance(urls, pa.Array) else pa.array(urls, pa.string())
    if len(arr) == 0:
        return []
    st = pc.extract_regex(
        arr, pattern=r"^[A-Za-z][A-Za-z0-9+.\-]*://(?P<host>[^/?#]*)"
    )
    # NB: .field() ignores STRUCT-level nulls (non-matches read as ""),
    # so validity must come from the struct array itself
    hosts = st.field("host")
    bad = pc.or_(
        pc.invert(pc.is_valid(st)),
        pc.match_substring_regex(pc.fill_null(hosts, ""), r"[\[\]]"),
    )
    out = hosts.to_pylist()
    if pc.any(bad).as_py():  # rare: python fixups only where flagged
        import numpy as np

        for i in np.nonzero(bad.to_numpy(zero_copy_only=False))[0]:
            out[i] = host_of(arr[int(i)].as_py())
    return out


def url_hash64(url: str) -> int:
    """Stable 64-bit hash of a URL (blake2b/8B) — sharding + sketch key.
    Stable across processes and runs (unlike Python hash())."""
    return int.from_bytes(
        hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest(), "little"
    )


def url_hash64_many(urls) -> np.ndarray:
    """Batch hash -> uint64 ndarray: per-string blake2b (STABLE across
    processes, runs and library versions — seen-set checkpoints and
    sketches depend on that). It is a Python-level loop per string; at
    crawl-frontier rates that is fine, and NUMERIC key columns should
    use the vectorized ``int_hash64_many`` below instead.
    """
    return np.fromiter(
        (url_hash64(u) for u in urls), dtype=np.uint64, count=len(urls)
    )


def shard_of(urls, num_shards: int) -> np.ndarray:
    return (url_hash64_many(urls) % np.uint64(num_shards)).astype(np.int64)


def shard_of_repeated(keys, num_shards: int) -> np.ndarray:
    """``shard_of`` for keys that repeat, e.g. the hosts of a round's
    urls (a list or an Arrow string array): the keys are dictionary-
    encoded, each distinct key is hashed once, and the shards are taken
    back by index."""
    import pyarrow as pa

    arr = keys if isinstance(keys, pa.Array) else pa.array(keys, pa.string())
    enc = arr.dictionary_encode()
    shards = shard_of(enc.dictionary.to_pylist(), num_shards)
    return shards[enc.indices.to_numpy(zero_copy_only=False)]


def int_hash64_many(keys: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over integer keys -> uint64.

    The NUMERIC-key companion to ``url_hash64_many``: that one loops
    Python blake2b per string (fine at crawl-frontier rates, wrong for a
    numeric probe column at table-scan rates). Used where both the build
    and probe sides hash through the SAME function (bloom routing) — the
    value is internal consistency + avalanche, not stability across
    hash-function changes."""
    with np.errstate(over="ignore"):
        z = keys.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

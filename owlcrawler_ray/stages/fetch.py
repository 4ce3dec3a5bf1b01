"""Fetch stage: url batch -> (+status, +html).

Replaces the reference's fetcher worker loop (fetcher.go:35-84: HTTP GET
with a fixed UA, whole body in memory, one URL at a time off NATS). Here
the fetcher is a callable CLASS that runs inside the crawl's heavy-pass
tasks — session/connection state (in the sandbox, just the corpus
config) is built ONCE per configuration per worker process
(``cached_fetcher``); ``__call__`` handles one Arrow batch of URLs.

Fetch errors do NOT raise: the reference logs and drops (fetcher.go:51-54);
we record ``status`` per row (0 = transport error, else HTTP status) so
downstream stages can route (SURVEY.md §2.3 F6) and failed URLs stay
un-seen (retryable on later queued occurrences).
"""

from __future__ import annotations

import pyarrow as pa

from ..sources.corpus import WebConfig, shared_web

USER_AGENT = "OwlCrawlerRay - https://github.com/fmpwizard/owlcrawler (rebuild)"


class CorpusFetcher:
    """Deterministic sandbox fetcher (the Fetcher protocol's corpus impl).

    A real network fetcher implements the same __call__ contract with a
    session created in __init__ (one per worker process, reused across
    batches — never per batch/row)."""

    def __init__(self, web_cfg: WebConfig):
        self.web = shared_web(web_cfg)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        statuses, bodies = [], []
        for u in urls:
            status, body = self.web.fetch(u)
            statuses.append(status)
            bodies.append(body)
        return batch.append_column(
            "status", pa.array(statuses, type=pa.int32())
        ).append_column("html", pa.array(bodies, type=pa.large_binary()))


class HttpFetcher:
    """Real network fetcher (S5, fetcher.go:44-61) behind the same
    ``__call__`` contract as CorpusFetcher. Session machinery is built
    ONCE per worker process (``cached_fetcher``): a urllib opener plus a
    thread pool of ``max_parallel`` so one batch's I/O-bound GETs overlap
    inside a ``num_cpus=1`` task — the stdlib stand-in for an aiohttp
    session.

    Status routing per F6: a transport error records status 0 with an
    empty body (the reference logs-and-drops the message, fetcher.go:
    51-54 — a 0-status row is filtered by the 200-gate downstream and the
    URL stays un-seen, i.e. retryable); HTTP error statuses are recorded
    as-is with whatever body the server returned. The User-Agent mirrors
    the reference's fixed string semantics (fetcher.go:47).

    ``rewrite_base``: optional "http://127.0.0.1:PORT" every request is
    physically sent to, with the logical URL's host carried in the Host
    header — the standard vhost pattern, so the full crawl pipeline can
    run against a local in-process HTTP server in tests. None (default)
    fetches the URL itself."""

    def __init__(self, timeout_s: float = 10.0, max_parallel: int = 16,
                 rewrite_base: str | None = None,
                 user_agent: str = USER_AGENT):
        import urllib.request
        from concurrent.futures import ThreadPoolExecutor

        self._opener = urllib.request.build_opener()
        self._pool = ThreadPoolExecutor(max_workers=max_parallel)
        self._timeout = timeout_s
        self._base = rewrite_base.rstrip("/") if rewrite_base else None
        self._ua = user_agent

    def fetch_one(self, url: str) -> tuple[int, bytes]:
        import urllib.error
        import urllib.parse
        import urllib.request

        target, headers = url, {"User-Agent": self._ua}
        if self._base is not None:
            parts = urllib.parse.urlsplit(url)
            target = self._base + (parts.path or "/")
            if parts.query:
                target += "?" + parts.query
            headers["Host"] = parts.netloc
        req = urllib.request.Request(target, headers=headers)
        try:
            with self._opener.open(req, timeout=self._timeout) as resp:
                return int(resp.status), resp.read()
        except urllib.error.HTTPError as e:
            try:
                body = e.read()
            except Exception:
                body = b""
            return int(e.code), body
        except Exception:
            return 0, b""  # transport error -> drop-and-stay-retryable

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        results = list(self._pool.map(self.fetch_one, urls))
        return batch.append_column(
            "status", pa.array([s for s, _ in results], type=pa.int32())
        ).append_column(
            "html", pa.array([b for _, b in results], type=pa.large_binary())
        )

    def close(self) -> None:
        self._pool.shutdown(wait=False)


# Per-worker-process fetcher cache for the heavy-pass tasks. The factory
# arrives unpickled afresh with every task, so caching on its identity
# would build (and never close) one thread-pool fetcher per TASK per
# worker. Keying on the pickled factory bytes instead bounds it to one
# live fetcher per distinct configuration per worker process.
_FETCHER_CACHE: dict[bytes, object] = {}


def cached_fetcher(factory):
    from ray import cloudpickle

    key = cloudpickle.dumps(factory)
    f = _FETCHER_CACHE.get(key)
    if f is None:
        f = factory()
        _FETCHER_CACHE[key] = f
    return f


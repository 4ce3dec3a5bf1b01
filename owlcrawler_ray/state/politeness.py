"""Politeness + robots: per-host token buckets on a virtual clock.

The reference's rate limit is a GLOBAL blocking ``<-time.Tick(5s)`` before
every fetch, per fetcher process — explicitly not per-host and acknowledged
as non-scaling ("TODO implement a distributed tick, so you can have 100
fetchers", fetcher.go:97-99). Two modes here:

* PARITY mode — reproduce the reference budget exactly: one fetch
  *attempt* per tick of ``CrawlConfig.tick_seconds`` (5) virtual seconds,
  a single global clock; the crawl loop charges one tick per attempt and
  stamps ``virtual_time_s = tick_seconds * tick_index`` (nothing sleeps —
  the clock is bookkeeping, so throughput is compute-bound while ordering
  matches the reference's serial timeline). The gate takes no part.

* POLITE (scale) mode — the north-rule upgrade: one token bucket per host
  (capacity ``burst``, refill ``rate_per_s`` on the virtual clock), plus a
  robots.txt rules cache per host. A bucket is plain data, host ->
  (tokens, last), held by the gate; ``pipelines/settle.py::settle_admit``
  spends it: each host's first floor(tokens) entries of the round's
  window are admitted, the rest of that host's queue stays in the
  frontier, so a hot host cannot monopolize a round (skew control at
  admission, complementing hot-host block splitting at fetch).

Robots sources (the reference has no robots handling at all — SURVEY.md
§2.4 St6; this is a north-rule graft): static config (``disallow`` maps
host pattern -> path prefixes) and/or a fetched+parsed+cached per-host
/robots.txt via ``robots_fetcher`` — the corpus web serves deterministic
robots documents (``WebConfig.robots_frac``), a real crawler serves HTTP.
Robots semantics are RFC 9309 (round-5 upgrade): Allow + Disallow rules,
``*``/``$`` wildcards, longest-pattern-octets precedence with Allow
winning ties, specific user-agent group selection over ``*``, and
queries participating in the path match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from urllib.parse import urlsplit

import pyarrow as pa


@dataclass
class PolitenessConfig:
    mode: str = "parity"  # read by nothing: CrawlConfig.mode decides
    rate_per_s: float = 1.0  # polite mode: tokens/virtual-second/host
    burst: float = 4.0
    disallow: dict[str, list[str]] = field(default_factory=dict)
    # RFC 9309 group selection: when set, robots groups whose user-agent
    # token matches this product name (longest case-insensitive token
    # match) take precedence over the `*` groups; unset honors only `*`
    agent: str = ""


def parse_robots(text: str, agent: str = "") -> list[tuple[str, bool]]:
    """RFC 9309 robots.txt parser -> [(path_pattern, allow)] for the
    selected user-agent.

    Semantics implemented (upgraded from the pre-r5 Disallow-prefix
    subset per the round-4 verdict's robots-fidelity item):

    * grouping — CONSECUTIVE User-agent lines form one group sharing the
      rules that follow (`User-agent: *` then `User-agent: otherbot`
      then `Disallow: /x` binds /x to both; a later User-agent line
      after rules starts a NEW group);
    * group selection (§2.2.1) — if ``agent`` is set and any group names
      a token that case-insensitively matches it (substring product-token
      match, LONGEST token wins), the union of THOSE groups' rules
      applies and every `*` group is ignored; otherwise the `*` groups
      apply;
    * both ``Allow`` and ``Disallow`` lines are kept (the allow bit);
    * an EMPTY Disallow/Allow value means "no rule" and is dropped
      (the classic allow-all `Disallow:` form);
    * `*` and `$` wildcards in rule paths are preserved verbatim here
      and interpreted by the matcher (rule_matcher / PolitenessGate):
      `*` spans any octets, a trailing `$` anchors the pattern end.

    Precedence (longest-pattern-wins, Allow on ties) is the MATCHER's
    job — this function only selects and returns the raw rule list."""
    groups: list[tuple[list[str], list[tuple[str, bool]]]] = []
    cur_agents: list[str] = []
    cur_rules: list[tuple[str, bool]] = []
    in_agent_block = False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, val = line.partition(":")
        key, val = key.strip().lower(), val.strip()
        if key == "user-agent":
            if not in_agent_block:  # first agent line of a NEW group
                if cur_agents:
                    groups.append((cur_agents, cur_rules))
                cur_agents, cur_rules = [], []
            in_agent_block = True
            cur_agents.append(val.lower())
        else:
            in_agent_block = False
            if key in ("disallow", "allow") and val and cur_agents:
                cur_rules.append((val, key == "allow"))
    if cur_agents:
        groups.append((cur_agents, cur_rules))
    # selection: longest specific token match beats *, which beats nothing
    best_token = ""
    if agent:
        al = agent.lower()
        for agents, _ in groups:
            for tok in agents:
                if tok != "*" and tok in al and len(tok) > len(best_token):
                    best_token = tok
    rules: list[tuple[str, bool]] = []
    for agents, grules in groups:
        if (best_token and best_token in agents) or (
            not best_token and "*" in agents
        ):
            rules.extend(grules)
    return rules


def _rule_regex(pattern: str) -> "re.Pattern[str]":
    """Compile one robots path pattern: `*` spans any octets, a trailing
    `$` anchors the end; everything else is literal, matched from the
    path start (RFC 9309 §2.2.2)."""
    body, anchor = (pattern[:-1], True) if pattern.endswith("$") else (
        pattern, False)
    rx = "^" + ".*".join(re.escape(p) for p in body.split("*"))
    return re.compile(rx + "$" if anchor else rx)


class _CompiledRules:
    """Per-host compiled rule set with RFC 9309 precedence: the matching
    rule with the MOST PATTERN OCTETS governs; on a specificity tie the
    least-restrictive (Allow) rule wins; no match -> allowed."""

    __slots__ = ("rules",)

    def __init__(self, raw: list[tuple[str, bool]]):
        self.rules = [(p, allow, _rule_regex(p)) for p, allow in raw]

    def allowed(self, path: str) -> bool:
        best_len = -1
        best_allow = True
        for p, allow, rx in self.rules:
            if rx.match(path) is None:
                continue
            n = len(p)
            if n > best_len or (n == best_len and allow and not best_allow):
                best_len, best_allow = n, allow
        return best_allow


class PolitenessGate:
    """Polite mode's per-host state on the crawl driver: the robots
    verdict of a url (``allowed``), and each host's token bucket as data,
    host -> (tokens, last), which ``settle_admit`` reads and rewrites
    (``bucket_table``/``set_buckets``) and the checkpoint manifest
    carries (``state``/``restore``). Buckets are per host and hosts are
    host-sharded, so a gate per frontier shard would need no cross-actor
    coordination (ROADMAP item 5).

    Robots rules come from (a) static config (``disallow``) and/or (b) a
    ``robots_fetcher(host) -> text`` callback — the REAL path: the crawl
    wires it to a /robots.txt fetch against the (corpus) web, parsed once
    per host and cached here (St6)."""

    def __init__(self, cfg: PolitenessConfig, robots_fetcher=None):
        self.cfg = cfg
        self.buckets: dict[str, tuple[float, float]] = {}
        self.robots: dict[str, _CompiledRules] = {}
        self.robots_fetcher = robots_fetcher

    # -- robots ----------------------------------------------------------
    def rules_for(self, host: str) -> _CompiledRules:
        if host not in self.robots:
            rules: list[tuple[str, bool]] = []
            # static config: disallow prefixes (prefix == the RFC pattern
            # form with no wildcards)
            for pat, prefixes in self.cfg.disallow.items():
                if pat == host or pat == "*":
                    rules.extend((p, False) for p in prefixes)
            if self.robots_fetcher is not None:
                try:
                    rules.extend(parse_robots(self.robots_fetcher(host),
                                              agent=self.cfg.agent))
                except Exception:
                    pass  # unreachable robots.txt -> allow (common practice)
            self.robots[host] = _CompiledRules(rules)
        return self.robots[host]

    def allowed(self, url: str) -> bool:
        try:
            parts = urlsplit(url)
        except ValueError:
            # malformed URL from hostile page content (e.g. an unclosed
            # IPv6 bracket that survived link resolution) — skip it
            # rather than crash the admission loop
            return False
        path = parts.path or "/"
        if parts.query:  # RFC 9309 matches path + optional query
            path += "?" + parts.query
        return self.rules_for(parts.netloc).allowed(path)

    # -- token buckets ---------------------------------------------------
    def bucket_table(self, hosts: pa.Array) -> pa.Table:
        """The buckets the gate holds of ``hosts``: settle_admit's input."""
        have = [h for h in hosts.to_pylist() if h in self.buckets]
        tokens, last = zip(*map(self.buckets.get, have)) if have else ((), ())
        return pa.table({"host": pa.array(have, pa.string()),
                         "tokens": pa.array(tokens, pa.float64()),
                         "last": pa.array(last, pa.float64())})

    def set_buckets(self, t: pa.Table) -> None:
        """Store the buckets settle_admit returned."""
        self.buckets.update(zip(t.column("host").to_pylist(), zip(
            t.column("tokens").to_pylist(), t.column("last").to_pylist())))

    def state(self) -> dict:
        return dict(self.buckets)

    def restore(self, st: dict) -> None:
        self.buckets.update((h, (tokens, last))
                            for h, (tokens, last) in st.items())

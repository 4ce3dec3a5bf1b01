r"""HTML text + link extraction with the reference's exact semantics.

Behavioral spec (reference: owlcrawler ``parse/parse.go``):

ExtractText (parse.go:33-85):
  * a tokenizer walks the document; a *tracked tag* state is set on every
    start tag: one of title/h1/h2/h3/h4/script is tracked, ANY other start
    tag resets tracking to "none" (parse.go:47-61);
  * every end tag resets tracking to "none" (parse.go:62-63) — so only text
    lexically between a tracked start tag and the next tag boundary counts;
  * self-closing tags (``<br/>``) leave the tracking state untouched
    (SelfClosingTagToken matches no switch case);
  * each text node is whitespace-trimmed; empty results are dropped
    (parse.go:65-79);
  * tracked title: last one wins (assignment, parse.go:66);
    h1..h4: appended in document order; script text: dropped (parse.go:77-78);
    all other non-empty text: appended to ``text`` (parse.go:79-80);
  * script (and style) element content is raw text — tags inside it are not
    parsed. style is NOT tracked, so CSS text lands in ``text`` (quirk kept).

ExtractLinks (parse.go:88-131):
  * split the page URL into scheme + host (parse.go:89);
  * for every ``<a>`` START tag (self-closing ``<a/>`` ignored), for every
    ``href`` attribute in order (parse.go:104-106):
      - ``//x``  -> "{scheme}://x"          store + fetch-candidate (parse.go:107-113)
      - ``/x``   -> "{scheme}://{host}/x"   store + fetch-candidate (parse.go:114-120)
      - anything else (absolute, mailto, ``#``, empty) -> store only
        (parse.go:121-124);
  * fetch candidacy is decided per-link by an injected ``should_fetch``
    callback (parse.go:30, 110, 117); append order = document order.

The tokenizer is Python's ``html.parser.HTMLParser``: ``extract_text``,
``extract_links`` and ``extract_images`` run it and are the spec (the
serial oracle, ``pipelines/oracle.py``, calls them). The crawl's hot path,
``extract_all``, returns the same three results from one page walk and
takes a fast path that builds no parser object:

  * one ``findall`` of ``_TOKEN`` splits the page into a closed grammar
    of token forms, each with simple HTMLParser semantics:
      - text ``[^<]+`` — one data event, ``html.unescape``d (only runs
        holding ``&`` can change);
      - start tags ``<name attr …>`` / ``<name attr … />``: the name ends
        only at ``[\t\n\r\f />\x00]`` (HTMLParser's tag-name rule), so
        only those ASCII characters separate attributes here too; names
        lower-cased; attribute values double-quoted, single-quoted,
        unquoted (not starting with a quote or ``=``) or absent (``None``;
        ``=""`` is ``""``), unescaped; ``script``/``style`` never match;
      - ``<script …>[^<]*</script>`` and ``<style …>[^<]*</style>`` (names
        ASCII case-insensitive) as one raw-text token: the start tag, its
        content as ONE un-unescaped data event, and the end tag — the
        content holds no ``<``, so its first ``</script`` is the close;
      - end tags ``</name …>`` up to the first ``>``;
      - ``<!doctype …>`` and comments ``<!-- … -->`` closed by the first
        ``--\s*>`` after the opener — no events that matter here;
      - every non-text form also takes the whitespace after it (text is
        stripped, so that whitespace never reaches the output);
  * if the tokens do not cover the page (their lengths do not sum to
    ``len(page)``: ``findall`` skips what no form matches), the WHOLE
    page runs through ``_CombinedExtractor``, the HTMLParser path, from
    byte 0. No page is split between the two paths.

The token walk routes through the same ``_record_text``,
``_collect_hrefs`` and ``_collect_img`` as the parser subclasses, so tag
routing and URL resolution live in one place.
``tests/test_parse.py`` guards the equivalence: a hypothesis fuzz over
an adversarial fragment alphabet and every page of two corpus webs, each
checked against the three HTMLParser extractors. That fuzz is also the
guard for CPython itself — recent security releases changed
HTMLParser's comment and raw-text (script/style) handling; if the
running version disagrees with a token form, the fuzz test fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser
from operator import itemgetter
from typing import Callable
from urllib.parse import urlsplit

_TRACKED = ("title", "h1", "h2", "h3", "h4", "script")


@dataclass
class PageStructure:
    title: str = ""
    h1: list[str] = field(default_factory=list)
    h2: list[str] = field(default_factory=list)
    h3: list[str] = field(default_factory=list)
    h4: list[str] = field(default_factory=list)
    text: list[str] = field(default_factory=list)


class _TextExtractor(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.page = PageStructure()
        self._tok = ""  # currently tracked tag, "" = none

    def handle_starttag(self, tag: str, attrs) -> None:
        self._tok = tag if tag in _TRACKED else ""

    def handle_endtag(self, tag: str) -> None:
        self._tok = ""

    def handle_startendtag(self, tag: str, attrs) -> None:
        # self-closing tag: reference leaves tracking state untouched
        pass

    def handle_data(self, data: str) -> None:
        _record_text(self.page, self._tok, data)


def _record_text(page: PageStructure, tok: str, data: str) -> None:
    """Route one data token into the page by the tracked tag — the
    reference's switch (shared by the standalone and fused extractors,
    so the tag routing can never diverge between them)."""
    txt = data.strip()
    if not txt:
        return
    if tok == "title":
        page.title = txt
    elif tok == "h1":
        page.h1.append(txt)
    elif tok == "h2":
        page.h2.append(txt)
    elif tok == "h3":
        page.h3.append(txt)
    elif tok == "h4":
        page.h4.append(txt)
    elif tok == "script":
        return
    else:
        page.text.append(txt)


def _resolve_rel(scheme: str, host: str, val: str) -> str | None:
    """Resolve a scheme-relative ('//x') or root-relative ('/x') href/src
    against the page origin; None for every other form (the reference's
    unfetchable third href class). The ONE copy of the resolution rules
    shared by link, image and fused extractors."""
    if val.startswith("//"):
        return f"{scheme}:{val}"
    if val.startswith("/"):
        return f"{scheme}://{host}{val}"
    return None


def _collect_hrefs(scheme: str, host: str, attrs, to_store: list,
                   to_fetch: list, should_fetch) -> None:
    """Reference href semantics over one <a> tag's attrs: every href is
    stored (resolved where resolvable, verbatim otherwise); only the
    resolvable classes passing ``should_fetch`` become fetch links."""
    for key, val in attrs:
        if key != "href":
            continue
        val = val if val is not None else ""
        url = _resolve_rel(scheme, host, val)
        if url is None:
            to_store.append(val)
        else:
            to_store.append(url)
            if should_fetch(url):
                to_fetch.append(url)


def _collect_img(scheme: str, host: str, attrs, images: list) -> None:
    """<img src alt> with hrefs' resolution rules (graft axis)."""
    d = dict(attrs)
    src = d.get("src") or ""
    if not src:
        return
    url = _resolve_rel(scheme, host, src)
    images.append((url if url is not None else src, d.get("alt") or ""))


def extract_text(payload: str) -> PageStructure:
    """payload html -> PageStructure (reference ExtractText semantics)."""
    p = _TextExtractor()
    try:
        p.feed(payload)
        p.close()
    except Exception:
        pass  # reference breaks the token loop on error and keeps what it has
    return p.page


class _LinkExtractor(HTMLParser):
    def __init__(self, scheme: str, host: str,
                 should_fetch: Callable[[str], bool]) -> None:
        super().__init__(convert_charrefs=True)
        self.scheme, self.host = scheme, host
        self.should_fetch = should_fetch
        self.to_fetch: list[str] = []
        self.to_store: list[str] = []

    def handle_startendtag(self, tag: str, attrs) -> None:
        # self-closing <a/> is a SelfClosingTagToken in the reference's
        # tokenizer and matches no switch case — never a link source
        pass

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag != "a":
            return
        _collect_hrefs(self.scheme, self.host, attrs,
                       self.to_store, self.to_fetch, self.should_fetch)


def extract_links(payload: str, original_url: str,
                  should_fetch: Callable[[str], bool] = lambda u: True,
                  ) -> tuple[list[str], list[str]]:
    """payload html + page url -> (to_fetch, to_store) link lists.

    ``to_fetch`` ⊆ same-scheme-host resolved links that pass ``should_fetch``
    (the reference's scope policy: only scheme-relative and root-relative
    hrefs are ever fetchable); ``to_store`` holds every href in document
    order, resolved where resolvable.
    """
    try:
        parts = urlsplit(original_url)
        scheme, host = parts.scheme, parts.netloc
    except ValueError:
        scheme, host = "", ""
    p = _LinkExtractor(scheme, host, should_fetch)
    try:
        p.feed(payload)
        p.close()
    except Exception:
        pass
    return p.to_fetch, p.to_store


class _ImageExtractor(HTMLParser):
    """``<img src alt>`` collector (graft axis — not in the reference, which
    has no image handling; BASELINE.json input_hint defines the target
    schema). Relative srcs resolve with the reference's href rules."""

    def __init__(self, scheme: str, host: str) -> None:
        super().__init__(convert_charrefs=True)
        self.scheme, self.host = scheme, host
        self.images: list[tuple[str, str]] = []  # (resolved src, alt)

    def _handle(self, tag: str, attrs) -> None:
        if tag == "img":
            _collect_img(self.scheme, self.host, attrs, self.images)

    handle_starttag = _handle
    handle_startendtag = _handle


def extract_images(payload: str, original_url: str) -> list[tuple[str, str]]:
    """html -> [(image_url, caption/alt)] in document order."""
    try:
        parts = urlsplit(original_url)
        scheme, host = parts.scheme, parts.netloc
    except ValueError:
        scheme, host = "", ""
    p = _ImageExtractor(scheme, host)
    try:
        p.feed(payload)
        p.close()
    except Exception:
        pass
    return p.images


def fetchable_links(payload: str, original_url: str) -> list[str]:
    """All fetch-CLASS links (scheme/root-relative, resolved, doc order),
    before any seen-set policy — the crawl pipeline applies the policy later
    so the advisory filter can run as its own vectorized stage."""
    fetch, _ = extract_links(payload, original_url, lambda u: True)
    return fetch


def _always(url: str) -> bool:
    return True


class _CombinedExtractor(HTMLParser):
    """Single-pass text + links + images extractor (hot-path fusion of
    _TextExtractor, _LinkExtractor and _ImageExtractor — identical
    semantics, one tokenizer walk instead of three; equivalence is
    property-tested against the three separate extractors)."""

    def __init__(self, scheme: str, host: str) -> None:
        super().__init__(convert_charrefs=True)
        self.scheme, self.host = scheme, host
        self.page = PageStructure()
        self._tok = ""
        self.to_fetch: list[str] = []
        self.to_store: list[str] = []
        self.images: list[tuple[str, str]] = []

    def handle_starttag(self, tag: str, attrs) -> None:
        self._tok = tag if tag in _TRACKED else ""
        if tag == "a":
            self._hrefs(attrs)
        elif tag == "img":
            self._img(attrs)

    def handle_endtag(self, tag: str) -> None:
        self._tok = ""

    def handle_startendtag(self, tag: str, attrs) -> None:
        # self-closing: tracking untouched, <a/> is never a link source,
        # but <img/> still counts (images aren't reference semantics)
        if tag == "img":
            self._img(attrs)

    def _hrefs(self, attrs) -> None:
        # fetch candidates BEFORE the seen policy -> should_fetch is
        # always-true here (the crawl's advisory filter runs downstream)
        _collect_hrefs(self.scheme, self.host, attrs,
                       self.to_store, self.to_fetch, _always)

    def _img(self, attrs) -> None:
        _collect_img(self.scheme, self.host, attrs, self.images)

    def handle_data(self, data: str) -> None:
        _record_text(self.page, self._tok, data)


# ---- the fast path's token grammar (module docstring) -----------------
_WS = r"[\t\n\r\f ]"
_ANAME = r"[a-zA-Z_:][-a-zA-Z0-9_:.]*"
# double-quoted | single-quoted | unquoted (no leading quote or "=")
_AVALUE = r"""(?:"([^"]*)"|'([^']*)'|([^\s"'=>][^\s>]*))"""
# one attribute: name, "=" when valued, one of the three value groups
_ATTR_PARTS = re.compile(
    _WS + "+(" + _ANAME + ")(?:" + _WS + "*(=)" + _WS + "*" + _AVALUE + ")?")
# the same, uncaptured, for the tokenizer (the pattern has no literal "(")
_ATTRS = "(?:" + re.sub(r"\((?!\?)", "(?:", _ATTR_PARTS.pattern) + ")*"
_SCRIPT = "[sS][cC][rR][iI][pP][tT]"
_STYLE = "[sS][tT][yY][lL][eE]"
# groups: 1 whole token, 2 text, 3 tag name, 4 attrs, 5 "/" of "/>",
# 6 end tag or whole script element, 7 "<style", 8 style content. Every
# non-text form also takes the whitespace after it: a whitespace-only
# run records nothing, and a text run's leading whitespace is stripped
# by _record_text anyway (re's \s and str.strip() agree on every code
# point), so one token fewer per tag boundary changes no output.
_TOKEN = re.compile(
    r"(([^<]+)|(?:"
    r"<(?!(?:" + _SCRIPT + "|" + _STYLE + r")[\t\n\r\f />])"
    r"([a-zA-Z][^\t\n\r\f />\x00]*)(" + _ATTRS + ")" + _WS + r"*(/?)>"
    r"|(</[a-zA-Z][^>]*>"
    "|<" + _SCRIPT + _ATTRS + _WS + "*>[^<]*</" + _SCRIPT + _WS + "*>)"
    "|(<" + _STYLE + ")" + _ATTRS + _WS + "*>([^<]*)</" + _STYLE + _WS
    + "*>"
    "|<![dD][oO][cC][tT][yY][pP][eE][^>]*>"
    r"|<!--(?s:.*?)--\s*>"
    r")\s*)"
)
_whole = itemgetter(0)


def _attr_list(attrs: str) -> list[tuple[str, str | None]]:
    """Group 4 of a start tag -> HTMLParser's attrs list."""
    out = []
    for name, eq, dq, sq, bare in _ATTR_PARTS.findall(attrs):
        if eq:
            val = dq or sq or bare
            if "&" in val:
                val = unescape(val)
        else:
            val = None
        out.append((name.lower(), val))
    return out


def _extract_tokens(payload: str, scheme: str, host: str):
    """The fast path: None when the grammar does not cover the page."""
    toks = _TOKEN.findall(payload)
    if sum(map(len, map(_whole, toks))) != len(payload):
        return None
    page = PageStructure()
    to_fetch: list[str] = []
    to_store: list[str] = []
    images: list[tuple[str, str]] = []
    tok = ""
    for _, text, name, attrs, slash, reset, style, css in toks:
        if text:
            _record_text(page, tok, unescape(text) if "&" in text else text)
        elif name:
            name = name.lower()
            if slash:
                # self-closing: tracking untouched, <a/> is no link source
                if name == "img":
                    _collect_img(scheme, host, _attr_list(attrs), images)
                continue
            tok = name if name in _TRACKED else ""
            if name == "a":
                _collect_hrefs(scheme, host, _attr_list(attrs), to_store,
                               to_fetch, _always)
            elif name == "img":
                _collect_img(scheme, host, _attr_list(attrs), images)
        elif reset:
            # an end tag, or a script element: its start tag tracks
            # "script" (content dropped) and its end tag resets
            tok = ""
        elif style:
            # style is untracked: start tag resets, content is text
            _record_text(page, "", css)
            tok = ""
    return page, to_fetch, to_store, images


def extract_all(payload: str, original_url: str):
    """One page walk -> (PageStructure, fetch_candidates, to_store,
    images). fetch_candidates = fetch-class links BEFORE the seen policy
    (the crawl's advisory filter applies it downstream). Takes the token
    fast path when its grammar covers the page, else the HTMLParser path
    (module docstring); both equal the three standalone extractors."""
    try:
        parts = urlsplit(original_url)
        scheme, host = parts.scheme, parts.netloc
    except ValueError:
        scheme, host = "", ""
    out = _extract_tokens(payload, scheme, host)
    if out is not None:
        return out
    return _extract_parser(payload, scheme, host)


def _extract_parser(payload: str, scheme: str, host: str):
    """The whole-page fallback: ``_CombinedExtractor`` from byte 0."""
    p = _CombinedExtractor(scheme, host)
    try:
        p.feed(payload)
        p.close()
    except Exception:
        pass
    return p.page, p.to_fetch, p.to_store, p.images

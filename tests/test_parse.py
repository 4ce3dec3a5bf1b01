"""Golden tests pinning the reference's extractor semantics
(owlcrawler parse/parse.go + parse/parse_test.go behavior):
tracked-tag routing, script drop, trim, last-title-wins, per-tag-boundary
reset, the three href classes, document order, self-closing neutrality."""

from owlcrawler_ray.functions.parse import (
    extract_images,
    extract_links,
    extract_text,
    fetchable_links,
)

# a golden page exercising every branch the reference's tests pin:
# title, h1..h4, script-exclusion, nested-tag reset, the three href classes
GOLDEN = """<!DOCTYPE html>
<html><head>
<title>First title</title>
<title>Therapy for the whole owl - Final Title</title>
<script type="text/javascript">var skipme = "not indexed";</script>
<style>body { color: red; }</style>
</head>
<body>
<h1>Services Provided</h1>
<h2>Individual Therapy</h2>
<h3>Sub section</h3>
<h4>Fine print</h4>
<h1><span>nested resets tracking</span></h1>
<nav>
<a href="/index.html">Home</a>
<a href="/about.html">About</a>
<a href="/services.html">Services</a>
<a href="/fees.html">Fees</a>
<a href="/contact.html">Contact</a>
<a href="/books.html">Books</a>
<a href="//cdn.example.org/lib.html">scheme relative</a>
<a href="http://www.amazon.com/some-book">store only</a>
<a href="#">fragment</a>
<a href="mailto:owl@example.com">mail</a>
</nav>
<p>Some body text here.</p>
<br/>
<script>document.write("also skipped");</script>
</body></html>"""

SCRIPT_ONLY = """<html><head>
<script type="text/javascript">
  var s = "entirely script";
  function f() { return 1; }
</script>
</head><body></body></html>"""


def test_title_last_wins():
    page = extract_text(GOLDEN)
    assert page.title == "Therapy for the whole owl - Final Title"


def test_heading_routing():
    page = extract_text(GOLDEN)
    assert page.h1 == ["Services Provided"]  # nested <span> reset tracking
    assert page.h2 == ["Individual Therapy"]
    assert page.h3 == ["Sub section"]
    assert page.h4 == ["Fine print"]


def test_nested_tag_resets_tracking():
    # <h1><span>x</span></h1>: the <span> start tag resets tracking, so the
    # text lands in the generic text list, not h1 (parse.go:47-63 semantics)
    page = extract_text(GOLDEN)
    assert "nested resets tracking" in page.text
    assert "nested resets tracking" not in page.h1


def test_script_text_dropped():
    page = extract_text(GOLDEN)
    joined = " ".join(page.text)
    assert "skipme" not in joined and "also skipped" not in joined


def test_style_text_kept_quirk():
    # style is NOT a tracked tag in the reference, so CSS text lands in text
    page = extract_text(GOLDEN)
    assert any("color: red" in t for t in page.text)


def test_script_only_page_has_empty_text():
    page = extract_text(SCRIPT_ONLY)
    assert page.text == []
    assert page.title == ""


def test_trim_and_drop_empty():
    page = extract_text("<p>  spaced  </p><p>   </p>")
    assert page.text == ["spaced"]


def test_link_classes_and_order():
    base = "http://drowl.example"
    fetch, store = extract_links(GOLDEN, base, lambda u: True)
    # six root-relative + one scheme-relative are fetch-class
    assert fetch == [
        "http://drowl.example/index.html",
        "http://drowl.example/about.html",
        "http://drowl.example/services.html",
        "http://drowl.example/fees.html",
        "http://drowl.example/contact.html",
        "http://drowl.example/books.html",
        "http://cdn.example.org/lib.html",
    ]
    # store holds EVERY href in document order, resolved where resolvable
    assert store == fetch[:6] + [
        "http://cdn.example.org/lib.html",
        "http://www.amazon.com/some-book",
        "#",
        "mailto:owl@example.com",
    ]


def test_root_relative_only_without_scheme_relative():
    html = '<a href="/a.html">a</a><a href="http://off.site/b">b</a>'
    fetch, store = extract_links(html, "https://h.test:8080/x")
    assert fetch == ["https://h.test:8080/a.html"]  # host includes port
    assert store == ["https://h.test:8080/a.html", "http://off.site/b"]


def test_should_fetch_callback_filters():
    fetch, store = extract_links(GOLDEN, "http://drowl.example",
                                 lambda u: u.endswith("about.html"))
    assert fetch == ["http://drowl.example/about.html"]
    assert len(store) == 10


def test_self_closing_a_ignored():
    html = '<a href="/x.html"/><a href="/y.html">y</a>'
    assert fetchable_links(html, "http://h.test") == ["http://h.test/y.html"]


def test_multiple_hrefs_on_one_tag():
    html = '<a href="/x.html" href="/y.html">both</a>'
    assert fetchable_links(html, "http://h.test") == [
        "http://h.test/x.html", "http://h.test/y.html"
    ]


def test_a_inside_script_not_a_link():
    html = '<script>var a = \'<a href="/no.html">\';</script>'
    assert fetchable_links(html, "http://h.test") == []


def test_extract_images_resolution_and_alt():
    html = (
        '<img src="/pics/a.png" alt="cap a">'
        '<img src="//cdn.test/b.jpeg" alt="cap b"/>'
        '<img src="http://x.test/c.webp">'
        "<img alt='no src'>"
    )
    imgs = extract_images(html, "http://h.test/p")
    assert imgs == [
        ("http://h.test/pics/a.png", "cap a"),
        ("http://cdn.test/b.jpeg", "cap b"),
        ("http://x.test/c.webp", ""),
    ]


def test_extract_all_equivalent_to_separate_passes():
    from owlcrawler_ray.functions.parse import extract_all
    from owlcrawler_ray.sources.corpus import TEST_WEB, SyntheticWeb

    web = SyntheticWeb(TEST_WEB)
    docs = [GOLDEN, SCRIPT_ONLY] + [
        web.html_for(hi, pi) for hi in range(3) for pi in range(5)
    ]
    for html in docs:
        base = "http://host-0.test/page-1.html"
        page, fetch, store, imgs = extract_all(html, base)
        want_page = extract_text(html)
        want_fetch, want_store = extract_links(html, base, lambda u: True)
        want_imgs = extract_images(html, base)
        assert page == want_page
        assert fetch == want_fetch
        assert store == want_store
        assert imgs == want_imgs


# fuzz alphabet: well-formed tokens of every fast-path form (so whole
# documents take it), their near misses, and raw fragments that split
# tags, so documents also fall back and the two paths are compared across
# the grammar's edges
FUZZ_FRAGMENTS = [
    # attributes: double/single-quoted, unquoted, empty, valueless,
    # entities, upper case, spaces around "=", repeats, "/" endings
    "<a href='/x'>", '<a href="//h.t/y">', "<a href=http://z/w>",
    "<a href=/u/>", '<a href="/v"/>', "<A HREF='/up'>", "<a href=''>",
    '<a href="">', "<a href>", "<a href = '/sp' >", "<a href='/1' href='/2'>",
    "<a href='/e?a=1&amp;b=2'>", '<a title="&lt;t&gt;" href="/t">',
    "<a href='/d' disabled>", "<a href==/eq>", "<a\thref='/tab'\n>",
    "<img src='/i.png' alt='c'>", '<IMG SRC="/I.PNG" ALT="C"/>',
    "<img src=/bare.png alt=x>", "<img alt='no src'>", "<img src=''>",
    "<img src='/e&amp;.png' alt='&quot;q&quot;'>",
    # \xa0 and \v are whitespace to re but not to HTMLParser's tag names
    "<a\xa0href='/nbsp'>", "<a\x0bhref='/vt'>", "<a href='/x'\xa0>",
    "<a href=/q\x0b>", "<a\x00>",
    # names: tracked, untracked, upper case, dashed, near script/style
    "<a-b>", "<a:b href='/ns'>", "<scripts>", "</scripts>", "<h1>", "</h1>",
    "<H2>", "</H2 >", "<title>", "</title>", "<TITLE>", "<h4>", "</h4>",
    "<br/>", "<br />", "<p>", "</p>", "<div class='x'>", "</div>", "</a>",
    # raw text: upper/mixed case, entities and "<" in content, odd ends
    "<script>", "</script>", "</script >", "<script/>", "<SCRIPT>",
    "</SCRIPT>", "<script type='t'>", "<style>", "</style>", "<Style>",
    "</STYLE>", "<style media=all>", "<script>var a = 1 &amp; 2;</script>",
    "<SCRIPT>if (a < b) {}</SCRIPT>", "<Style>p { x: 1 } &amp;</Style>",
    "<style>a<b</style>", "<script>x</script >", "<script>y</ script>",
    # declarations and comments
    "<!DOCTYPE html>", "<!doctype html>", "<!DocType x>", "<!-- c -->",
    "<!--", "-->", "<!-- a -- >", "<!---->", "<!-->", "<!x>", "<?pi?>",
    # text, entities, stray markup and split tags
    "text ", "  ", "\n", "&amp;", "&lt;", "&#65;", "&", "&nbsp", "\xa0",
    "\x0b", "<", ">", "'", '"', "x<y>z", "</>", "</ a>", "<a", " href",
    "=", "'/frag'", "/>",
]


def test_extract_all_fuzz_equivalence(monkeypatch):
    """Hypothesis fuzz: extract_all (token fast path or the HTMLParser
    fallback) must agree with the three separate extractors on tag soup,
    and the alphabet must drive documents down both paths."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from owlcrawler_ray.functions import parse
    from owlcrawler_ray.functions.parse import extract_all

    calls = {"docs": 0, "fallback": 0}
    fallback = parse._extract_parser

    def counting(*args):
        calls["fallback"] += 1
        return fallback(*args)

    monkeypatch.setattr(parse, "_extract_parser", counting)

    @given(st.lists(st.sampled_from(FUZZ_FRAGMENTS), max_size=30))
    @settings(max_examples=2500, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def check(parts):
        html = "".join(parts)
        base = "http://host.test/p"
        calls["docs"] += 1
        page, fetch, store, imgs = extract_all(html, base)
        assert page == extract_text(html)
        want_fetch, want_store = extract_links(html, base, lambda u: True)
        assert fetch == want_fetch
        assert store == want_store
        assert imgs == extract_images(html, base)

    check()
    assert 0 < calls["fallback"] < calls["docs"]


def test_extract_all_corpus_pages_take_fast_path(monkeypatch):
    """Every page of a polite-shaped web (light, image-free, robots) and a
    bulk-shaped web (heavy text, images) takes the token fast path and
    equals the three HTMLParser extractors."""
    from owlcrawler_ray.functions import parse
    from owlcrawler_ray.functions.parse import extract_all
    from owlcrawler_ray.sources.corpus import SyntheticWeb, WebConfig

    def no_fallback(*args):
        raise AssertionError("corpus page fell back to HTMLParser")

    monkeypatch.setattr(parse, "_extract_parser", no_fallback)
    polite = WebConfig(seed=3, num_hosts=64, base_pages=40, hot_factor=1,
                       n_seed_hosts=64, paragraphs=2, words_per_paragraph=30,
                       max_images=0, robots_frac=0.5)
    bulk = WebConfig(seed=3, num_hosts=24, base_pages=60, hot_factor=4,
                     n_seed_hosts=24, fanout=4, paragraphs=12,
                     words_per_paragraph=50, img_scale=2)
    n = 0
    for cfg in (polite, bulk):
        web = SyntheticWeb(cfg)
        for hi in range(cfg.num_hosts):
            for pi in range(cfg.pages_on(hi)):
                url = web.page_url(hi, pi)
                html = web.fetch(url)[1].decode("utf-8")
                want_fetch, want_store = extract_links(html, url)
                assert extract_all(html, url) == (
                    extract_text(html), want_fetch, want_store,
                    extract_images(html, url)), url
                n += 1
    assert n == 2560 + 1620

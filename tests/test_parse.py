import random

import pyarrow.parquet as pq
import pytest

from crawlbench import gen
from spider_ray import parse
from spider_ray.corpus import write_corpus
from spider_ray.parse import _Extractor, extract, parse_page


def spec(html: str) -> tuple[str | None, list[str]]:
    """``_Extractor`` alone, with extract's title cleanup: the slow path
    that every answer of ``extract`` must equal."""
    p = _Extractor()
    p.feed(html)
    p.close()
    title = p.title
    if title:
        title = title.replace("\n", "").strip()
    return title, p.hrefs


def both(html: str) -> tuple[str | None, list[str]]:
    """``extract(html)``, asserted equal to the spec."""
    out = extract(html)
    assert out == spec(html)
    return out


def test_title_basic():
    t, _ = both("<html><head><title>Hello World</title></head><body></body></html>")
    assert t == "Hello World"


def test_title_cleanup_newlines_and_strip():
    # reference crawler.py:165-168: '\n' removed, then strip
    t, _ = both("<title>\n  A\nB  \n</title>")
    assert t == "AB"  # '\n' removed joins the fragments, then strip
    t2, _ = both("<title>\n  AB  \n</title>")
    assert t2 == "AB"
    t3, _ = both("<title>  A \n B </title>")
    assert t3 == "A  B"  # newline removed (not replaced by space), then strip


def test_title_missing_is_none_and_empty_stays_empty():
    t, _ = both("<html><body>x</body></html>")
    assert t is None
    t2, _ = both("<title></title>")
    assert t2 == ""


def test_first_title_wins():
    t, _ = both("<title>first</title><title>second</title>")
    assert t == "first"


def test_entities_unescaped():
    t, _ = both("<title>A &amp; B</title>")
    assert t == "A & B"


def test_hrefs_in_order_and_skip_missing():
    _, hrefs = both(
        '<a href="x">1</a><a>no</a><a href="">empty</a><a href="y">2</a><a href>bare</a>'
    )
    assert hrefs == ["x", "", "y", ""]


def test_parse_page_body_verbatim():
    html = "<html><head><title>T</title></head><body>Bé</body></html>".encode()
    title, body, hrefs = parse_page(html)
    assert title == "T"
    assert body == html.decode("utf-8")
    assert hrefs == []
    assert (title, hrefs) == spec(body)


# Named cases for the constructs where a regex and html.parser can disagree:
# (html, title, hrefs). Each runs through extract and the spec.
CASES = {
    "self_closing_title": ("<title/>X</title>", "", []),
    "self_closing_title_spaced": ("<title />X</title><title>Y</title>", "", []),
    "title_unquoted_value_ending_in_slash": ("<title x=y/>T</title>", "T", []),
    "upper_case_title": ("<TITLE>T</Title >", "T", []),
    "upper_case_a_href": ("<A HREF=X>x</A>", None, ["X"]),
    "single_quoted_href": ("<a href='s'>", None, ["s"]),
    "unquoted_href": ("<a href=u/v>", None, ["u/v"]),
    "valueless_href": ("<a href>", None, [""]),
    "valueless_href_self_closing": ("<a href/>", None, [""]),
    "spaced_equals_href": ("<a href = 'q' >", None, ["q"]),
    "two_hrefs_first_wins": ('<a href="1" HREF="2">', None, ["1"]),
    "href_after_other_attrs": ('<a title="href=w" hrefx=0 href="v">', None, ["v"]),
    "gt_inside_quoted_href": ('<a href="x>y">', None, ["x>y"]),
    "lt_inside_quoted_href": ('<a href="x<y">', None, ["x<y"]),
    "bare_lt_in_text": ("<title>T</title>1 < 2 <a href=h>", "T", ["h"]),
    "bare_lt_in_title": ("<title>1 < 2</title>", "1 < 2", []),
    "amp_in_href": ('<a href="/p?a=1&amp;b=2">', None, ["/p?a=1&b=2"]),
    "amp_in_title": ("<title>A &lt;B&gt;</title>", "A <B>", []),
    "a_inside_script": ('<script><a href="s"></script><a href="t">', None, ["t"]),
    "title_inside_style": ("<style><title>S</title></style><title>T</title>", "T", []),
    "a_inside_comment": ('<!-- <a href="c"> --><a href="d">', None, ["d"]),
    "a_inside_cdata": ('<![CDATA[ > <a href="c"> ]]><a href="d">', None, ["d"]),
    "processing_instruction": ('<?pi x?><a href="d">', None, ["d"]),
    # a "<![" keyword html.parser's _markupbase does not know: a bogus
    # comment up to the next ">"
    "unknown_marked_section": ('<![foo[x]]><a href="d">', None, ["d"]),
    "cut_cdata_marked_section": ('<![CD<a href="c"><a href="d">', None, ["d"]),
    "nameless_marked_section": ('<![ x><a href="d">', None, ["d"]),
    "unknown_marked_section_in_title": ("<title>T<![foo[x]]>U</title>", "TU", []),
    "unterminated_title": ("<title>T <a href=x>", "T", ["x"]),
    "unterminated_title_at_end": ("<title>T", "T", []),
    "markup_inside_title": ("<title>A<b>B</b>C</title>", "ABC", []),
    "a_inside_title": ('<title>A<a href="x">B</a></title>', "AB", ["x"]),
    "unicode_space_in_tag": ("<a\xa0href=x>", None, []),
    "unicode_space_after_unquoted_value": ("<a href=x\xa0y>", None, ["x"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_case_matches_spec(name):
    html, title, hrefs = CASES[name]
    assert both(html) == (title, hrefs)


def test_page_with_amp_takes_the_extractor_path(monkeypatch):
    calls = []
    feed = _Extractor.feed
    monkeypatch.setattr(_Extractor, "feed", lambda self, data: calls.append(1) or feed(self, data))
    page = '<html><head><title>T</title></head><body><a href="x">y</a></body></html>'
    assert extract(page) == ("T", ["x"])
    assert calls == []  # a plain page never builds the html.parser
    assert extract(page.replace("y</a>", "y &amp; z</a>")) == ("T", ["x"])
    assert calls == [1]


# --- the differential proof ------------------------------------------------
# The engine and the oracle both call ``extract``, so the oracle tests cannot
# see a fast-path error: these compare ``extract`` with ``_Extractor`` alone.

BFS_SHAPE = dict(n_pages=4000, n_hosts=16, links_per_page=10, n_words=300, n_seeds=4)
POLITE_SHAPE = dict(n_pages=80, n_hosts=8, links_per_page=4, n_words=20, n_seeds=4, sitemap=True)


def _write_corpus_pages(out_dir, seed: int) -> list[str]:
    write_corpus(str(out_dir), n_pages=1500, n_hosts=8, seed=seed)
    return [h.decode() for h in pq.read_table(str(out_dir)).column("html").to_pylist()]


def _gen_pages(seed: int, shape: dict) -> list[str]:
    return [p.html for p in gen.make_corpus(seed, **shape).pages.values()]


def _fast_share(pages: list[str]) -> float:
    return sum(parse._fast_extract(p) is not None for p in pages) / len(pages)


@pytest.mark.parametrize(
    "source,seed",
    [("write_corpus", s) for s in (1, 2, 3)]
    + [("crawl_bfs", s) for s in (11, 12, 13)]
    + [("crawl_polite", s) for s in (21, 22, 23)],
)
def test_extract_matches_extractor_on_generated_corpora(tmp_path, source, seed):
    if source == "write_corpus":
        pages = _write_corpus_pages(tmp_path, seed)
    else:
        pages = _gen_pages(seed, BFS_SHAPE if source == "crawl_bfs" else POLITE_SHAPE)
    for page in pages:
        assert extract(page) == spec(page), page
    share = _fast_share(pages)
    print(f"{source} seed {seed}: {len(pages)} pages, fast path {share:.1%}")
    if source == "crawl_bfs":
        assert share >= 0.9


_INSERTS = [
    # tags and attributes
    "<b>", "</b>", "<br/>", "<p class=x>", "</a>", '<a href="m">', "<a href='n'>",
    "<a href=o>", "<a href>", "<A HREF=P>", '<a id="i" href="q" href="r">', " data-x=1",
    ' href="s"', " title='t'", "<a-b>", "</a b>", "<a/href=u>", '<a href=="v">',
    # quotes and entities
    '"', "'", "=", ">", "&amp;", "&lt;a href=w&gt;", "&#39;", "&", "&nbsp",
    # comments, CDATA, processing instructions, declarations
    '<!-- > <a href="c"> -->', "<!---->", '<![CDATA[ > <a href="d"> ]]>',
    '<?pi > <a href="e"> ?>', "<!doctype html>",
    # raw-text elements
    '<script><a href="f"></script>', "<style><title>g</title></style>", "<SCRIPT>",
    '<textarea><a href="h"></textarea>',
    # title markup
    "<title/>", "<title />", "<title>", "</title>", "<title>x<b>y</b></title>",
    # bare <
    "<", "< ", "<3", "<\xa0", "\xa0",
]


def _mutate(rng: random.Random, page: str) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(page) + 1)
        r = rng.random()
        if r < 0.55:  # an insert anywhere, inside tags and values too
            page = page[:pos] + rng.choice(_INSERTS) + page[pos:]
        elif r < 0.70:  # letter case of a span
            n = rng.randint(1, 12)
            page = page[:pos] + page[pos : pos + n].swapcase() + page[pos + n :]
        elif r < 0.80:  # a cut: can leave a tag, a value or the title open
            page = page[:pos] + page[pos + rng.randint(1, 8) :]
        else:  # rewrite the first title or link in place
            old, new = rng.choice(
                [
                    ("<title>", "<title/>"),
                    ("<title>", "<title />"),
                    ("<title>", "<TITLE lang=en>"),
                    ("</title>", ""),
                    ("</title>", "</Title >"),
                    ("</title>", "<b>x</b></title>"),
                    ("</title>", " &amp; x</title>"),
                    ("</title>", " < x</title>"),
                    ('<a href="', "<a href='"),
                    ('<a href="', "<A HREF = \""),
                    ('<a href="', '<a class=c href="'),
                    ('<a href="', '<a title="x>y" href="'),
                    ('<a href="', '<a href="z" href="'),
                    ("<a>", "<a href>"),
                    ("<p>", "<p/>"),
                ]
            )
            page = page.replace(old, new, 1)
    return page


def test_extract_matches_extractor_under_mutation_fuzz(tmp_path):
    rng = random.Random(2024)
    bfs_pages = _gen_pages(31, BFS_SHAPE)[:600]
    bfs_share = _fast_share(bfs_pages)
    print(f"unmutated crawl_bfs pages: fast path {bfs_share:.1%}")
    assert bfs_share >= 0.9
    pages = bfs_pages + _gen_pages(32, POLITE_SHAPE) + _write_corpus_pages(tmp_path, 33)[:300]
    n = fast = 0
    for page in pages:
        for _ in range(8):
            m = _mutate(rng, page)
            n += 1
            fast += parse._fast_extract(m) is not None
            assert extract(m) == spec(m), m
    print(f"mutation fuzz: {n} pages, fast path {fast / n:.1%}")
    assert 0 < fast < n  # both paths ran

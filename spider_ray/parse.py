"""HTML parse spec: title + link extraction.

Pure-stdlib (``html.parser``) replacement for the reference's
BeautifulSoup+lxml parse (crawler.py:157-172). Neither bs4 nor lxml is
available in this environment, so the spec is self-contained and shared by the
engine and the sequential oracle (SURVEY.md §7 hard-part 2). Semantics:

- ``title``: text content of the FIRST ``<title>`` element (entity references
  unescaped), or ``None`` when the document has no title tag
  (``getattr(soup.title, 'text', None)``, crawler.py:165-166). Cleanup when
  truthy: ``'\\n'`` removed, then ``.strip()`` (crawler.py:167-168).
- ``hrefs``: the ``href`` attribute of every ``<a>`` tag in document order;
  ``<a>`` tags without an href are skipped (the ``KeyError`` continue,
  crawler.py:153-154); a valueless ``href`` attribute yields ``""`` (bs4
  parity).
- ``body``: the full decoded response text verbatim (``response.text``,
  crawler.py:170) — this is the "extracted text" whose byte-identity per url
  is the per-row invariant (BASELINE.json input_hint).

``_Extractor`` (``html.parser``) stays the spec. ``extract`` answers most
pages from a fast path instead: a prescan of C-speed string and regex scans,
then one regex search for the first title and one tag regex for the ``<a>``
hrefs. The prescan sends a page to ``_Extractor`` unchanged when it holds any
construct where a regex and ``html.parser`` can disagree:

- ``&`` (character references are unescaped by ``html.parser``);
- ``<!`` or ``<?`` (comments, CDATA, declarations, processing instructions);
- a ``script`` or ``style`` start tag, or that of another element whose
  content some ``html.parser`` version reads as raw text (``_RAW_TEXT``);
- a ``<`` that does not open a well-formed tag (``_TAG_RE``: ASCII names,
  whitespace-separated attributes with double-quoted, single-quoted,
  unquoted or no values), checked as "tags matched == ``text.count("<")``",
  which also rules out a ``<`` inside an attribute value. ``_TAG_RE``
  matches neither ``<!``, ``<?`` nor a raw-text start tag, so this one
  check also enforces the two rules above;
- a first ``<title>`` tag that ends in ``/>``, has no closing tag, or holds
  markup before its ``</title>``.

``tests/test_parse.py`` pins ``extract`` to ``_Extractor`` on generated
corpora and a seeded mutation fuzz of them; ``tools/parse_probe.py`` reports
the per-page cost of both paths and the fast-path hit rate.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser


class _Extractor(HTMLParser):
    """One-pass title + href collector."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._title_parts: list[str] = []
        self._in_title = False
        self.title_found = False
        self.hrefs: list[str] = []

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag == "a":
            for name, value in attrs:
                if name == "href":
                    self.hrefs.append(value if value is not None else "")
                    break  # first href attribute wins (bs4 attrs-dict parity)
        elif tag == "title" and not self.title_found:
            self._in_title = True
            self.title_found = True

    def handle_endtag(self, tag: str) -> None:
        if tag == "title":
            self._in_title = False

    def handle_data(self, data: str) -> None:
        if self._in_title:
            self._title_parts.append(data)

    def parse_marked_section(self, i: int, report: int = 1) -> int:
        """``_markupbase`` raises ``AssertionError`` on a ``<![`` that is not
        followed by a keyword it knows (``<![foo[x]]>``, a cut ``<![CD``,
        ``<![ x>``). Such a section is a bogus comment up to the next ``>``,
        the HTML5 tokenizer's rule; -1 (unterminated) leaves it to
        ``goahead``, as for any other unterminated declaration."""
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            end = self.rawdata.find(">", i + 3)
            return -1 if end < 0 else end + 1

    @property
    def title(self) -> str | None:
        if not self.title_found:
            return None
        return "".join(self._title_parts)


# The fast path's grammar. Letter case is spelled out instead of re.I, which
# would also match non-ASCII letters that case-fold to ASCII (U+212A KELVIN
# SIGN to "k"); whitespace is html.parser's ASCII set, and an unquoted value
# stops at any character a regex ``\s`` matches, so a tag this grammar
# accepts splits into the same name, attributes and values in html.parser.
_WS = r"[ \t\n\r\f]"
_NAME = r"[a-zA-Z_:][-a-zA-Z0-9_:.]*"
_VALUE = r"""(?:"[^"]*"|'[^']*'|[^\s"'=<>`]+)"""
_ATTR = rf"{_NAME}(?:{_WS}*={_WS}*{_VALUE})?"
_ATTRS = rf"(?:{_WS}+{_ATTR})*"
# the elements whose content some html.parser version reads as raw text
# (3.11: script, style); their start tags are not accepted
_RAW_TEXT = "script|style|textarea|xmp|iframe|noembed|noframes|noscript|plaintext"
_TAG_RE = re.compile(
    rf"<(?:(?!(?ai:{_RAW_TEXT})(?:{_WS}|[/>]))[a-zA-Z][a-zA-Z0-9]*{_ATTRS}{_WS}*/?"
    rf"|/[a-zA-Z][a-zA-Z0-9]*{_WS}*)>"
)
_HREF = r"[hH][rR][eE][fF]"
# an <a> tag → (first href attribute or "", its double-quoted, single-quoted
# and unquoted value); the attributes before it are ones not named href
_A_RE = re.compile(
    rf"<[aA](?:{_WS}+(?!{_HREF}(?:{_WS}|[=/>])){_ATTR})*"
    rf"({_WS}+{_HREF}(?:{_WS}*={_WS}*(?:\"([^\"]*)\"|'([^']*)'|([^\s\"'=<>`]+)))?)?"
    rf"{_ATTRS}{_WS}*/?>"
)
_TITLE_RE = re.compile(rf"<[tT][iI][tT][lL][eE](?:{_WS}|[/>])")
_END_TITLE_RE = re.compile(rf"</[tT][iI][tT][lL][eE]{_WS}*>")


def _fast_extract(text: str) -> tuple[str | None, list[str]] | None:
    """``(raw title, hrefs)`` of a page without the constructs listed in
    the module docstring, or ``None`` to send the page to ``_Extractor``."""
    # a "<!", "<?" or raw-text start tag is a "<" that _TAG_RE does not match
    if "&" in text or len(_TAG_RE.findall(text)) != text.count("<"):
        return None
    title = None
    m = _TITLE_RE.search(text)
    if m is not None:
        start = _TAG_RE.match(text, m.start()).end()
        close = _END_TITLE_RE.search(text, start)
        if text[start - 2] == "/" or close is None:  # self-closing or unterminated
            return None
        title = text[start : close.start()]
        if "<" in title:  # markup inside the title
            return None
    return title, [dq or sq or uq for attr, dq, sq, uq in _A_RE.findall(text) if attr]


def extract(html_text: str) -> tuple[str | None, list[str]]:
    """Parse one document → ``(title, hrefs)`` per the spec above.

    Title cleanup matches crawler.py:165-168 exactly: ``None`` stays ``None``,
    an empty-string title stays ``""`` (falsy → no cleanup applied), otherwise
    newlines removed then stripped.
    """
    fast = _fast_extract(html_text)
    if fast is None:
        p = _Extractor()
        p.feed(html_text)
        p.close()
        title, hrefs = p.title, p.hrefs
    else:
        title, hrefs = fast
    if title:
        title = title.replace("\n", "").strip()
    return title, hrefs


def parse_page(html_bytes: bytes) -> tuple[str | None, str, list[str]]:
    """Full fetch-side parse: ``(title, body, hrefs)``.

    ``body`` is the decoded text verbatim (crawler.py:170 ``response.text``);
    the corpus stores utf-8 — decode errors are replaced, deterministically.
    """
    body = html_bytes.decode("utf-8", errors="replace")
    title, hrefs = extract(body)
    return title, body, hrefs

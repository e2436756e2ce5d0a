"""Deterministic synthetic ``pages`` corpus — the stand-in for the live network.

Per BASELINE.json ``input_hint`` the engine crawls a Parquet table of
Common-Crawl-style pages with columns
``(url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string)``;
"fetching" a URL means looking its row up in this table, and a URL absent from
the table is the fetch-failure path (reference crawler.py:102-104).

Generation spec (FIXTURES.md §1), fully seeded/deterministic:

- URLs ``https://h{k}.example/p{j}``; host 0 is the hot host carrying
  ``hot_share`` (~50%) of all pages (skew handling exercise).
- Embedded link graph: each page links to ``links_per_page`` targets chosen by
  a per-page RNG — a mix of same-host and cross-host links, plus
  deterministically interleaved edge cases:
  query-string hrefs (dropped by the filter, crawler.py:148-149), relative
  hrefs (joined against the START url — quirk q1, crawler.py:151), dangling
  hrefs to URLs absent from the corpus (fetch-miss path), ``<a>`` tags with no
  href (crawler.py:154), pages without ``<title>`` and titles with newlines +
  padding (title-cleanup, crawler.py:165-168).
- Every RNG is derived from ``(seed, host, page)`` via ``random.Random(str)``
  string seeding (process-stable), so any shard of the corpus can be generated
  independently — which is how the Ray-parallel writer scales generation.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from datetime import datetime, timedelta

import pyarrow as pa
import pyarrow.parquet as pq

# html/text use 64-bit offsets: a corpus slice can exceed the 2 GiB int32
# offset limit of binary/string when concatenated for broadcast
# (SURVEY.md §7 hard-part 6)
PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.large_binary()),
        ("text", pa.large_string()),
        ("lang", pa.string()),
    ]
)

_LANGS = ["en", "de", "fr", "uk"]
_VOCAB = (
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt labore dolore magna aliqua enim minim veniam quis "
    "nostrud exercitation ullamco laboris nisi aliquip commodo consequat"
).split()
_BASE_TS = datetime(2024, 1, 1)
_CHUNK = 5000  # pages per corpus file (write_corpus)


def host_page_counts(n_pages: int, n_hosts: int, hot_share: float = 0.5) -> list[int]:
    """Pages per host; host 0 is hot (gets everything when n_hosts == 1)."""
    if n_hosts == 1:
        return [n_pages]
    n0 = max(1, int(n_pages * hot_share))
    rest = n_pages - n0
    counts = [n0]
    base, extra = divmod(rest, n_hosts - 1)
    counts += [base + (1 if i < extra else 0) for i in range(n_hosts - 1)]
    return counts


def page_url(host: int, page: int) -> str:
    return f"https://h{host}.example/p{page}"


def _page_text(rng: random.Random, n_words: int) -> str:
    return " ".join(rng.choice(_VOCAB) for _ in range(n_words))


def render_page(
    host: int,
    page: int,
    ordinal: int,
    counts: list[int],
    links_per_page: int,
    seed: int,
    n_words: int,
) -> tuple[str, bytes, str]:
    """Render one page → (url, html_bytes, text). Pure function of its args."""
    rng = random.Random(f"{seed}:{host}:{page}")
    n_hosts = len(counts)
    text = _page_text(rng, n_words)

    # title edge cases (exercise crawler.py:165-168 cleanup + the no-title path)
    if ordinal % 17 == 3:
        title_html = ""  # no <title> → title is None
    elif ordinal % 5 == 2:
        title_html = f"<title>\n  Page {host}.{page}\n — {rng.choice(_VOCAB)}  \n</title>"
    else:
        title_html = f"<title>Page {host}.{page} | {rng.choice(_VOCAB)}</title>"

    anchors: list[str] = []
    if ordinal % 7 == 1:
        anchors.append("<a>no href here</a>")  # KeyError-skip path, crawler.py:154
    for li in range(links_per_page):
        gi = ordinal * links_per_page + li
        t_host = rng.randrange(n_hosts) if rng.random() < 0.4 else host
        t_page = rng.randrange(max(1, counts[t_host]))
        if gi % 6 == 2:
            anchors.append(f'<a href="{page_url(t_host, t_page)}?q={gi}">q</a>')
        elif gi % 9 == 4:
            anchors.append(f'<a href="https://h{t_host}.example/missing{gi}">dangle</a>')
        elif gi % 4 == 1:
            anchors.append(f'<a href="p{t_page}">rel</a>')  # joins against START url (q1)
        else:
            anchors.append(f'<a href="{page_url(t_host, t_page)}">abs</a>')

    html = (
        f"<html><head>{title_html}</head><body><p>{text}</p>\n"
        + "\n".join(anchors)
        + "\n</body></html>"
    )
    return page_url(host, page), html.encode("utf-8"), text


def build_pages_slice(
    n_pages: int,
    n_hosts: int,
    links_per_page: int,
    seed: int,
    n_words: int,
    hot_share: float,
    host: int,
    pages: Iterable[int],
) -> pa.Table:
    """Materialize the given pages of one host, in that order — the unit of
    parallel generation (each page depends only on the global counts and its
    own (seed, host, page) RNG)."""
    counts = host_page_counts(n_pages, n_hosts, hot_share)
    offset = sum(counts[:host])

    urls, tss, htmls, texts, langs = [], [], [], [], []
    for j in pages:
        ordinal = offset + j
        url, html, text = render_page(
            host, j, ordinal, counts, links_per_page, seed, n_words
        )
        urls.append(url)
        tss.append(_BASE_TS + timedelta(seconds=ordinal))
        htmls.append(html)
        texts.append(text)
        langs.append(_LANGS[ordinal % len(_LANGS)])
    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            pa.array(tss, pa.timestamp("us")),
            pa.array(htmls, pa.large_binary()),
            pa.array(texts, pa.large_string()),
            pa.array(langs, pa.string()),
        ],
        schema=PAGES_SCHEMA,
    )


def build_pages_table(
    n_pages: int = 200,
    n_hosts: int = 8,
    links_per_page: int = 5,
    seed: int = 42,
    n_words: int = 60,
    hot_share: float = 0.5,
    host_range: tuple[int, int] | None = None,
) -> pa.Table:
    """Materialize (a host-slice of) the corpus as one Arrow table."""
    counts = host_page_counts(n_pages, n_hosts, hot_share)
    lo, hi = host_range if host_range else (0, n_hosts)
    return pa.concat_tables(
        build_pages_slice(
            n_pages, n_hosts, links_per_page, seed, n_words, hot_share, k, range(counts[k])
        )
        for k in range(lo, hi)
    )


def write_corpus(
    out_dir: str,
    n_pages: int = 200,
    n_hosts: int = 8,
    links_per_page: int = 5,
    seed: int = 42,
    n_words: int = 60,
    hot_share: float = 0.5,
) -> str:
    """Write the corpus as parquet, one file per host-chunk so reads
    parallelize and generation could be sharded. Returns ``out_dir``.

    A host's pages are cut into files of ``_CHUNK`` pages in url order, and
    each file holds its rows in url order: parquet url statistics compare
    strings, so a cut by numeric page id (``p0..p4999``, ``p5000..``) would
    give every file of a big host about the same ``min..max`` url range, and
    the partitioned fetch's per-host range predicate
    (``stages.fetch.frontier_filter``) could prune none of them."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    counts = host_page_counts(n_pages, n_hosts, hot_share)
    units = []
    for k in range(n_hosts):
        # same host prefix: url order is the order of str(page id)
        ids = sorted(range(counts[k]), key=str)
        units += [(k, lo, ids[lo : lo + _CHUNK]) for lo in range(0, counts[k], _CHUNK)]

    def write_unit(unit) -> None:
        k, lo, ids = unit
        tbl = build_pages_slice(
            n_pages, n_hosts, links_per_page, seed, n_words, hot_share, k, ids
        )
        pq.write_table(tbl, os.path.join(out_dir, f"pages-h{k:04d}-p{lo:07d}.parquet"))

    import ray

    if ray.is_initialized() and n_pages >= 20_000:
        # parallel generation: one task per (host, url-range) slice
        write_remote = ray.remote(write_unit)
        ray.get([write_remote.remote(u) for u in units])
    else:
        for u in units:
            write_unit(u)
    return out_dir


def corpus_as_dict(tbl: pa.Table) -> dict[str, bytes]:
    """url → html bytes, for the sequential oracle's in-memory 'network'."""
    return dict(zip(tbl.column("url").to_pylist(), tbl.column("html").to_pylist()))


def corpus_from_documents(sf_dir: str, out_dir: str, n_hosts: int = 16, links: int = 4) -> str:
    """Render the driver's ``documents`` table into a pages corpus
    (input_hint schema): doc ``i`` becomes ``https://d{i % n_hosts}.example/doc{i}``
    with a deterministic link graph over doc ids. Runs as a Ray pipeline so
    corpus construction itself scales (read → map_batches render → parquet)."""
    import os

    import numpy as np
    import ray

    os.makedirs(out_dir, exist_ok=True)
    from spider_ray.blockutil import read_clean_parquet

    # clean read: the driver testdata is pandas-written parquet whose
    # schema blob breaks hash(Schema) in the read op's own SplitBlocks
    docs = read_clean_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"]
    )
    n_docs = docs.count()

    def render(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        urls, htmls = [], []
        for i, text, lang in zip(ids, texts, langs):
            anchors = "".join(
                f'<a href="https://d{t % n_hosts}.example/doc{t}">l</a>'
                for t in ((i * 7 + 3 * j + 1) % n_docs for j in range(links))
            )
            urls.append(f"https://d{i % n_hosts}.example/doc{i}")
            htmls.append(
                f"<html><head><title>doc {i} ({lang})</title></head>"
                f"<body><p>{text}</p>{anchors}</body></html>".encode("utf-8")
            )
        return pa.Table.from_arrays(
            [
                pa.array(urls, pa.string()),
                pa.array([_BASE_TS + timedelta(seconds=i) for i in ids], pa.timestamp("us")),
                pa.array(htmls, pa.large_binary()),
                pa.array(texts, pa.large_string()),
                pa.array(langs, pa.string()),
            ],
            schema=PAGES_SCHEMA,
        )

    docs.map_batches(render, batch_format="pyarrow").write_parquet(out_dir)
    return out_dir

"""Seeded inputs for the benchmark: a pages corpus with its link lists, and
the query tables.

Nothing here imports ``spider_ray``: the workload is a function of the seed
and of this file only, so a change to the engine cannot change what it is
measured on. Every page records, next to its rendered HTML, the facts the
independent simulation needs (the raw hrefs in document order and the title
a correct parser must extract).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORDS = (
    "river stone lantern copper meadow harbor signal orchard canvas ember "
    "glacier quartz willow beacon prairie summit thunder velvet marble falcon "
    "cedar tide atlas pepper saffron anchor bramble cobalt dune fjord grove "
    "hollow ivory juniper kestrel lagoon mosaic nectar onyx pebble"
).split()

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.large_binary()),
        ("text", pa.large_string()),
        ("lang", pa.string()),
    ]
)


@dataclass
class Page:
    url: str
    html: str
    title: str | None  # what a correct parser extracts from the <title>
    hrefs: list[str] = field(default_factory=list)  # <a href> values, in order


@dataclass
class Corpus:
    pages: dict[str, Page]
    seeds: list[str]

    def write(self, out_dir: str) -> str:
        """One parquet file per host, rows in url order, so the
        partitioned fetch can prune by file and row-group statistics."""
        os.makedirs(out_dir, exist_ok=True)
        by_host: dict[str, list[Page]] = {}
        for p in self.pages.values():
            by_host.setdefault(p.url.split("/")[2], []).append(p)
        base = datetime(2024, 1, 1)
        for host, pages in sorted(by_host.items()):
            pages.sort(key=lambda p: p.url)
            tbl = pa.Table.from_arrays(
                [
                    pa.array([p.url for p in pages], pa.string()),
                    pa.array(
                        [base + timedelta(seconds=i) for i in range(len(pages))],
                        pa.timestamp("us"),
                    ),
                    pa.array([p.html.encode() for p in pages], pa.large_binary()),
                    pa.array([p.html for p in pages], pa.large_string()),
                    pa.array(["en"] * len(pages), pa.string()),
                ],
                schema=PAGES_SCHEMA,
            )
            pq.write_table(tbl, os.path.join(out_dir, f"pages-{host}.parquet"))
        return out_dir


def host_name(h: int) -> str:
    return f"h{h}.example"


def page_url(h: int, j: int) -> str:
    return f"https://{host_name(h)}/p{j}"


def _title(rng: random.Random, h: int, j: int) -> tuple[str, str | None]:
    """→ (title markup, expected extracted title). Covers the parser's
    cleanup rules: missing tag, empty tag, newlines with padding, entities."""
    word = rng.choice(WORDS)
    r = rng.random()
    if r < 0.08:
        return "", None
    if r < 0.10:
        return "<title></title>", ""
    if r < 0.30:
        return f"<title>\n  Page {h}.{j}\n | {word}  \n</title>", f"Page {h}.{j} | {word}"
    if r < 0.37:
        return f"<title>{word} &amp; {h}.{j}</title>", f"{word} & {h}.{j}"
    return f"<title>Page {h}.{j} | {word}</title>", f"Page {h}.{j} | {word}"


def _href(rng: random.Random, h: int, counts: list[int], serial: int) -> str:
    """One link of a mixed kind: same-host, cross-host, relative (resolved
    against the crawl's start url), query-string (dropped), dangling (a
    fetch miss), and upper-case or default-port spellings of a real page
    (equal after canonicalization)."""
    r = rng.random()
    t = h if r < 0.5 else rng.randrange(len(counts))
    j = rng.randrange(counts[t])
    r = rng.random()
    if r < 0.62:
        return page_url(t, j)
    if r < 0.74:
        return f"p{rng.randrange(counts[0])}"
    if r < 0.84:
        return f"{page_url(t, j)}?s={serial}"
    if r < 0.88:
        return f"https://{host_name(t)}/gone{serial}"
    if r < 0.94:
        return f"HTTPS://H{t}.EXAMPLE/p{j}"
    return f"https://{host_name(t)}:443/p{j}"


def make_corpus(
    seed: int,
    n_pages: int,
    n_hosts: int,
    links_per_page: int,
    n_words: int,
    n_seeds: int,
    sitemap: bool = False,
) -> Corpus:
    """A corpus of ``n_pages`` on ``n_hosts`` hosts, host 0 holding half
    of them, each page with ``links_per_page`` links on
    average. ``sitemap``: the start page also links to every page of the
    hot host (in a seeded order), so the whole hot host is discovered in the
    first round and drains at its budget; the crawl's round count then
    hardly varies with the seed."""
    rng = random.Random(f"crawlbench-corpus:{seed}")
    hot = n_pages // 2
    base, extra = divmod(n_pages - hot, n_hosts - 1)
    counts = [hot] + [base + (i < extra) for i in range(n_hosts - 1)]
    pages: dict[str, Page] = {}
    serial = 0
    for h, n in enumerate(counts):
        for j in range(n):
            title_html, title = _title(rng, h, j)
            text = " ".join(rng.choice(WORDS) for _ in range(n_words))
            hrefs, anchors = [], []
            if sitemap and h == j == 0:
                for t in rng.sample(range(1, n), n - 1):
                    hrefs.append(page_url(0, t))
                    anchors.append(f'<a href="{page_url(0, t)}">map</a>')
            for _ in range(rng.randint(links_per_page // 2, links_per_page * 3 // 2)):
                if rng.random() < 0.04:
                    anchors.append("<a>no link</a>")
                serial += 1
                href = _href(rng, h, counts, serial)
                hrefs.append(href)
                anchors.append(f'<a href="{href}">{rng.choice(WORDS)}</a>')
            html = (
                f"<html><head>{title_html}</head><body><p>{text}</p>\n"
                + "\n".join(anchors)
                + "\n</body></html>"
            )
            pages[page_url(h, j)] = Page(page_url(h, j), html, title, hrefs)
    # the first seed is schemeless (the crawl adds https://); one seed is a
    # page that does not exist
    seeds = [f"{host_name(0)}/p0"]
    seeds += [page_url(h % n_hosts, h // n_hosts) for h in range(1, n_seeds - 1)]
    seeds.append(f"https://{host_name(1)}/gone0")
    return Corpus(pages, seeds)


# ---------------------------------------------------------------------------
# query tables (the schemas of the engine's test tables)

DOC_WORDS = WORDS + "the and of to in a is der die und el los le les et".split()
LANGS = ["en", "de", "fr", "es", "zh"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def _ts(base: datetime, us: np.ndarray) -> pa.Array:
    return pa.array(np.datetime64(base, "us") + us.astype("timedelta64[us]"))


def make_tables(
    seed: int,
    n_docs: int = 300,
    n_events: int = 5000,
    n_users: int = 300,
    n_orders: int = 3000,
    n_customers: int = 300,
    n_parts: int = 400,
    n_suppliers: int = 50,
    n_vecs: int = 300,
    dim: int = 32,
) -> dict[str, pa.Table]:
    rng = np.random.default_rng([seed, 7])
    prng = random.Random(f"crawlbench-tables:{seed}")

    # documents: prose with stopwords and punctuation, plus planted exact
    # and near duplicates (one word changed) so the dedup answers are not
    # empty
    texts: list[str] = []
    for i in range(n_docs):
        r = prng.random()
        if i > 10 and r < 0.06:
            texts.append(texts[prng.randrange(i)])
        elif i > 10 and r < 0.16:
            words = texts[prng.randrange(i)].split(" ")
            k = prng.randrange(len(words))
            words[k] = prng.choice(DOC_WORDS)
            texts.append(" ".join(words))
        else:
            n = prng.randint(8, 90)
            words = [prng.choice(DOC_WORDS) for _ in range(n)]
            for k in range(7, n, prng.randint(6, 12)):
                words[k] += prng.choice(".,;!?")
            texts.append(" ".join(words))
    documents = pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([LANGS[i] for i in rng.integers(0, 5, n_docs)]),
            "source": pa.array([f"src{i % 20}" for i in range(n_docs)]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )

    # events: per-user streams over 30 days; values are whole cents
    ev_us = np.sort(rng.integers(0, 30 * 86400 * 10**6, n_events))
    events = pa.table(
        {
            "event_id": pa.array(np.arange(n_events), pa.int64()),
            "ts": _ts(datetime(2024, 1, 1), ev_us),
            "user_id": pa.array(rng.integers(0, n_users, n_events), pa.int64()),
            "event_type": pa.array([EVENT_TYPES[i] for i in rng.integers(0, 5, n_events)]),
            "value": pa.array(rng.integers(1, 100_000, n_events) / 100.0),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)]),
        }
    )

    emb = rng.normal(size=(n_vecs, dim)).astype(np.float32)
    embeddings = pa.table(
        {
            "vec_id": pa.array(np.arange(n_vecs), pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float32())),
            "label": pa.array(rng.integers(0, 4, n_vecs), pa.int32()),
        }
    )

    region = pa.table(
        {
            "r_regionkey": pa.array(np.arange(5), pa.int32()),
            "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"],
        }
    )
    nation = pa.table(
        {
            "n_nationkey": pa.array(np.arange(25), pa.int32()),
            "n_name": [f"NATION_{i}" for i in range(25)],
            "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
        }
    )
    customer = pa.table(
        {
            "c_custkey": pa.array(np.arange(n_customers), pa.int64()),
            "c_name": [f"Customer#{i:09d}" for i in range(n_customers)],
            "c_nationkey": pa.array(rng.integers(0, 25, n_customers), pa.int32()),
            "c_acctbal": pa.array(rng.integers(-99_999, 999_999, n_customers) / 100.0),
            "c_mktsegment": pa.array([SEGMENTS[i] for i in rng.integers(0, 5, n_customers)]),
        }
    )
    supplier = pa.table(
        {
            "s_suppkey": pa.array(np.arange(n_suppliers), pa.int64()),
            "s_name": [f"Supplier#{i:09d}" for i in range(n_suppliers)],
            "s_nationkey": pa.array(rng.integers(0, 25, n_suppliers), pa.int32()),
            "s_acctbal": pa.array(rng.integers(-99_999, 999_999, n_suppliers) / 100.0),
        }
    )
    part = pa.table(
        {
            "p_partkey": pa.array(np.arange(n_parts), pa.int64()),
            "p_name": [f"part {i}" for i in range(n_parts)],
            "p_brand": [f"Brand#{i}" for i in rng.integers(1, 26, n_parts)],
            "p_type": [["ECONOMY", "STANDARD", "PROMO"][i] for i in rng.integers(0, 3, n_parts)],
            "p_size": pa.array(rng.integers(1, 51, n_parts), pa.int32()),
            "p_retailprice": pa.array(90_000 + np.arange(n_parts) * 10 / 100.0),
        }
    )

    day = 86400 * 10**6
    o_days = rng.integers(0, 6 * 365, n_orders)
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, n_customers, n_orders), pa.int64()),
            "o_orderstatus": pa.array([["F", "O", "P"][i] for i in rng.integers(0, 3, n_orders)]),
            "o_totalprice": pa.array(rng.integers(100_000, 50_000_000, n_orders) / 100.0),
            "o_orderdate": _ts(datetime(1995, 1, 1), o_days * day),
            "o_orderpriority": pa.array([PRIORITIES[i] for i in rng.integers(0, 5, n_orders)]),
        }
    )
    # about one order in twenty has no line items (the anti-join's answer)
    n_lines = rng.integers(1, 8, n_orders) * (rng.random(n_orders) > 0.05)
    l_order = np.repeat(np.arange(n_orders), n_lines)
    n_li = len(l_order)
    l_num = np.concatenate([np.arange(1, k + 1) for k in n_lines if k]).astype(np.int32)
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(l_order, pa.int64()),
            "l_partkey": pa.array(rng.integers(0, n_parts, n_li), pa.int64()),
            "l_suppkey": pa.array(rng.integers(0, n_suppliers, n_li), pa.int64()),
            "l_linenumber": pa.array(l_num, pa.int32()),
            "l_quantity": pa.array(rng.integers(1, 51, n_li).astype(np.float64)),
            "l_extendedprice": pa.array(rng.integers(100_000, 10_000_000, n_li) / 100.0),
            "l_discount": pa.array(rng.integers(0, 11, n_li) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, n_li) / 100.0),
            "l_returnflag": pa.array([["A", "N", "R"][i] for i in rng.integers(0, 3, n_li)]),
            "l_linestatus": pa.array([["F", "O"][i] for i in rng.integers(0, 2, n_li)]),
            "l_shipdate": _ts(
                datetime(1995, 1, 1), (o_days[l_order] + rng.integers(1, 120, n_li)) * day
            ),
        }
    )
    return {
        "documents": documents,
        "events": events,
        "embeddings": embeddings,
        "region": region,
        "nation": nation,
        "customer": customer,
        "supplier": supplier,
        "part": part,
        "orders": orders,
        "lineitem": lineitem,
    }


def write_tables(tables: dict[str, pa.Table], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    for name, tbl in tables.items():
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))
    return out_dir

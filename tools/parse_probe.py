#!/usr/bin/env python
"""Per-page cost of the page parse, without a crawl or Ray.

For one seed, times ``parse._Extractor`` alone (``html.parser``, the spec)
and ``parse.extract`` (the fast path in front of it) on every page of three
generated corpora, and reports the share of pages the fast path answers:

- ``write_corpus``: ``spider_ray.corpus.write_corpus`` pages (written to a
  temporary directory and read back);
- ``crawl_bfs`` and ``crawl_polite``: ``crawlbench/gen.py:make_corpus``
  pages at the shapes of the benchmark's two workloads (only imported).

Each timing is the best of ``--repeat`` passes over the corpus, so it is a
steady-state figure on a warm interpreter.

Usage: python tools/parse_probe.py [--seed N] [--pages N] [--repeat N]
Prints one JSON line per corpus.
"""
import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import pyarrow.parquet as pq  # noqa: E402

from crawlbench import gen  # noqa: E402
from spider_ray import parse  # noqa: E402
from spider_ray.corpus import write_corpus  # noqa: E402

SHAPES = {
    "crawl_bfs": dict(n_pages=4000, n_hosts=16, links_per_page=10, n_words=300, n_seeds=4),
    "crawl_polite": dict(
        n_pages=80, n_hosts=8, links_per_page=4, n_words=20, n_seeds=4, sitemap=True
    ),
}


def extractor_only(html: str) -> None:
    p = parse._Extractor()
    p.feed(html)
    p.close()


def best_us_per_page(fn, pages: list[str], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for page in pages:
            fn(page)
        best = min(best, time.perf_counter() - t0)
    return best / len(pages) * 1e6


def report(name: str, pages: list[str], repeat: int) -> dict:
    fast = sum(parse._fast_extract(p) is not None for p in pages)
    return {
        "corpus": name,
        "pages": len(pages),
        "mean_page_chars": round(sum(map(len, pages)) / len(pages)),
        "extractor_us_per_page": round(best_us_per_page(extractor_only, pages, repeat), 1),
        "extract_us_per_page": round(best_us_per_page(parse.extract, pages, repeat), 1),
        "fast_path_share": round(fast / len(pages), 4),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=9101)
    ap.add_argument("--pages", type=int, default=4000, help="write_corpus pages")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as d:
        write_corpus(d, n_pages=args.pages, n_hosts=16, links_per_page=10, seed=args.seed)
        htmls = pq.read_table(d, columns=["html"]).column("html").to_pylist()
    corpora = {"write_corpus": [h.decode("utf-8") for h in htmls]}
    for name, shape in SHAPES.items():
        corpora[name] = [p.html for p in gen.make_corpus(args.seed, **shape).pages.values()]
    for name, pages in corpora.items():
        print(json.dumps({"seed": args.seed, **report(name, pages, args.repeat)}))


if __name__ == "__main__":
    main()

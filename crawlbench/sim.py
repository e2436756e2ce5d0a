"""Independent BFS simulation of the crawl over the generator's link lists.

It shares no code with ``spider_ray``: it reads the hrefs and titles that
``gen.py`` recorded for each page, and applies the crawl rules directly.

- A round fetches pending urls in rank order. With per-host budgets, each
  host fetches at most its budget of its lowest-ranked pending urls and the
  rest wait, keeping their depth and rank.
- A fetched url absent from the corpus is a miss. A fetched page is stored
  with its title, its HTML as text, its depth and rank, and the start url as
  parent.
- Pages shallower than ``max_depth`` yield their links in document order.
  Links with a query string are dropped. Relative links resolve against the
  start url. Scheme and host are lower-cased and the default https port
  dropped. A link equal to the start url is dropped. Robots rules drop
  links whose path starts with a disallowed prefix of their host.
- Candidates sort by (depth, parent rank, position); the first occurrence
  of each unseen url is claimed with the next dense rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from crawlbench.gen import Corpus


@dataclass
class SimResult:
    start_url: str
    # (url, title, text, depth, discovery_rank), in rank order
    store: list[tuple] = field(default_factory=list)
    # per round: (fetched, crawled, misses, claimed, deferred)
    rounds: list[tuple] = field(default_factory=list)
    total_calls: int = 0
    crawled: int = 0


def canonical(url: str) -> str:
    scheme, rest = url.split("://", 1)
    host, _, path = rest.partition("/")
    scheme, host = scheme.lower(), host.lower()
    if scheme == "https" and host.endswith(":443"):
        host = host[: -len(":443")]
    return f"{scheme}://{host}/{path}"


def resolve(href: str, start_url: str) -> str | None:
    if "?" in href:
        return None
    if "://" in href:
        url = canonical(href)
    else:
        url = start_url.rsplit("/", 1)[0] + "/" + href
    return None if url == start_url else url


def allowed(url: str, robots: dict[str, list[str]] | None) -> bool:
    if not robots:
        return True
    host, _, path = url.split("://", 1)[1].partition("/")
    return not any(("/" + path).startswith(p) for p in robots.get(host, ()))


def simulate(
    corpus: Corpus,
    max_depth: int,
    per_host_budget: int | None = None,
    robots: dict[str, list[str]] | None = None,
) -> SimResult:
    seeds = [s if s.startswith("http") else "https://" + s for s in corpus.seeds]
    start = canonical(seeds[0])
    res = SimResult(start_url=start)
    seen: set[str] = set()
    pending: list[tuple[int, int, str]] = []  # (rank, depth, url)
    for s in seeds:
        url = canonical(s)
        if url not in seen and allowed(url, robots):
            seen.add(url)
            pending.append((len(seen) - 1, 0, url))
    next_rank = len(seen)

    while pending:
        pending.sort()
        if per_host_budget is None:
            fetch, deferred = pending, []
        else:
            taken: dict[str, int] = {}
            fetch, deferred = [], []
            for item in pending:
                host = item[2].split("/")[2]
                if taken.get(host, 0) < per_host_budget:
                    taken[host] = taken.get(host, 0) + 1
                    fetch.append(item)
                else:
                    deferred.append(item)

        cands: list[tuple[int, int, int, str]] = []
        crawled = 0
        for rank, depth, url in fetch:
            page = corpus.pages.get(url)
            if page is None:
                continue
            crawled += 1
            res.store.append((url, page.title, page.html, depth, rank))
            if depth < max_depth:
                children = [resolve(h, start) for h in page.hrefs]
                for pos, child in enumerate(c for c in children if c is not None):
                    if allowed(child, robots):
                        cands.append((depth + 1, rank, pos, child))
        cands.sort()
        new = []
        for depth, _rank, _pos, url in cands:
            if url not in seen:
                seen.add(url)
                new.append((next_rank, depth, url))
                next_rank += 1

        res.rounds.append(
            (len(fetch), crawled, len(fetch) - crawled, len(new), len(deferred))
        )
        res.total_calls += len(fetch)
        res.crawled += crawled
        pending = deferred + new

    res.store.sort(key=lambda r: r[4])
    return res

"""The two workloads. Every pass of both runs the same three phases in
order: crawls from the seeds, store-op blocks on copies of the store the
last crawl left, and a list of registry queries. The workloads differ in
what each phase is made of:

- ``crawl_bfs``: two large unthrottled crawls with the engine's defaults,
  one store block, one query of each family and ``minhash_lsh_pairs``;
- ``crawl_polite``: a budgeted crawl with robots rules, partitioned fetch
  and bloom seen shards, two store blocks, one query of each family.

Every metric is timed over its own phase, so no crawl figure includes a
query and no query latency includes a crawl. Each operation is timed on
its own and checked after the timing.

The engine is driven only through its public functions: ``crawl``, the
``store_ops`` functions and the query registry.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

import pandas as pd

from crawlbench import checks, gen, sim, sql, trace

MAX_DEPTH = 40  # deeper than any corpus here: crawls run to exhaustion


class Tally:
    """Operations attempted and failed, check errors and timing samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run one operation; → (ok, result, seconds). An exception counts
        the operation as failed and is reported on stderr."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"operation {what} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return False, None, time.perf_counter() - t0
        return True, out, time.perf_counter() - t0

    def skip(self, n: int) -> None:
        """Operations that cannot run because an earlier one of the pass
        failed count as attempted and failed, so every pass attempts the
        same operations."""
        self.attempted += n
        self.failed += n


def median(xs):
    return statistics.median(xs) if xs else None


def _span_sum(spans, name, lo, hi):
    sel = trace.within(spans, name, lo, hi)
    return sum(s["end"] - s["start"] for s in sel), len(sel), sum(s["n"] or 0 for s in sel)


FAMILIES = {
    "relational": [
        "q1_pricing_summary", "orders_by_segment", "q3_shipping_priority",
        "orders_without_lineitems", "distinct_users_per_type", "distinct_users_hll",
        "user_running_total", "asof_prev_event", "sessionize",
    ],
    "textops": ["top_tokens", "quality_scores"],
    "dedup": ["dedup_exact", "minhash_lsh_pairs", "simhash_near_dup_pairs"],
    "graph": ["pagerank_docs"],
    "ann": ["embedding_topk"],
}
# one cheap query of each family, for the crawl workloads
SAMPLE_QUERIES = ["q1_pricing_summary", "top_tokens", "dedup_exact", "pagerank_docs", "embedding_topk"]

ROBOTS = {"h2.example": ["/p1"], "h3.example": ["/gone"], "h5.example": ["/p2", "/p3"]}


class Workload:
    """One pass: ``crawls_per_pass`` crawls of ``corpus`` with ``config``,
    ``store_blocks`` store-op blocks, then each query of ``query_names``
    once."""

    name = ""
    corpus: dict = {}
    config: dict = {}
    crawls_per_pass = 1
    store_blocks = 1
    query_names: list[str] = SAMPLE_QUERIES
    # catch ×2, catch_contains ×2, count_all, upsert ×3, delete, compact
    BLOCK_OPS = 10
    # the warm-up pass skips this query: its code paths are warmed by the
    # others, and its seconds of sort-based exchanges are paid on every
    # call, not once
    NOT_WARMED = {"minhash_lsh_pairs"}

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work
        self.out = os.path.join(work, "out")
        corpus = gen.make_corpus(seed, **self.corpus)
        self.seeds = corpus.seeds
        self.corpus_dir = corpus.write(os.path.join(work, "corpus"))
        budget, robots = self.config.get("per_host_budget"), self.config.get("robots")
        self.sim = sim.simulate(corpus, MAX_DEPTH, per_host_budget=budget, robots=robots)
        self.unthrottled = sim.simulate(corpus, MAX_DEPTH, robots=robots) if budget else None
        self.tables = gen.write_tables(gen.make_tables(seed), os.path.join(work, "tables"))
        self.expected = sql.expected_answers(self.tables, self.query_names)
        self.passes: list[dict] = []  # per timed pass: query figures
        self.crawls: list[dict] = []  # per timed crawl: window, result, wall
        self.op_ms: dict[str, list[float]] = defaultdict(list)
        self.part_files: list[int] = []
        self.store_mb: list[float] = []

    def reset(self) -> None:
        """Forget the figures of the passes so far (the warm-up pass)."""
        self.passes.clear()
        self.crawls.clear()
        self.op_ms.clear()
        self.part_files.clear()
        self.store_mb.clear()

    def run_pass(self, tally: Tally, traced: bool = False, warm: bool = False) -> None:
        """The crawls, then the store-op blocks on fresh copies of the store
        the last one left (each block meets the crawl's part files), then
        the queries. A warm-up pass runs one crawl and one block."""
        for _ in range(1 if warm else self.crawls_per_pass):
            start = time.time()
            got = self._crawl(tally, traced)
            if got is not None:
                res, wall, n_files = got
                self.crawls.append(dict(start=start, end=time.time(), result=res, wall=wall))
                self.part_files.append(n_files)
        blocks = 1 if warm else self.store_blocks
        if got is None:
            tally.skip(blocks * self.BLOCK_OPS)
        else:
            copy = os.path.join(self.work, "ops")
            for _ in range(blocks):
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(os.path.join(self.out, "store"), os.path.join(copy, "store"))
                self._store_block(tally, copy)
        self.passes.append(self._queries(tally, traced, warm))

    def _crawl(self, tally: Tally, traced: bool):
        from spider_ray.pipelines.crawl import crawl

        shutil.rmtree(self.out, ignore_errors=True)
        cfg = dict(self.config, collect_shard_stats=traced)
        ok, res, wall = tally.attempt("crawl", crawl, self.corpus_dir, self.seeds, self.out, **cfg)
        if not ok:
            return None
        tally.errors += checks.crawl_errors(
            checks.read_store_rows(self.out), res.rounds, res.total_calls,
            res.crawled, self.sim, self.unthrottled,
        )
        ops = sum(r["candidates"] + r["claimed"] + r["fetched"] for r in res.rounds)
        tally.samples["pages_per_s"].append(res.crawled / wall)
        tally.samples["frontier_ops_per_s"].append(ops / wall)
        files = checks.store_files(self.out)
        self.store_mb.append(sum(map(os.path.getsize, files)) / 1e6)
        tally.samples["store_mb"].append(self.store_mb[-1])
        return res, wall, len(files)

    def _store_block(self, tally: Tally, out: str) -> None:
        from spider_ray.pipelines import store_ops

        rows = checks.expected_store_rows(self.sim)
        start = self.sim.start_url

        def frame(ds):
            return list(ds.to_pandas().itertuples(index=False, name=None))

        def head(pred):
            return [(r[0], r[1]) for r in rows if pred(r)][:10]

        reads = [
            ("catch", lambda: frame(store_ops.catch(out, start, 10)), head(lambda r: True)),
            ("catch", lambda: frame(store_ops.catch(out, "h7.example/none", 10)), []),
            ("catch_contains", lambda: frame(store_ops.catch_contains(out, "h1.example", 10)),
             head(lambda r: "h1.example" in r[0])),
            ("catch_contains", lambda: frame(store_ops.catch_contains(out, "/p2", 10)),
             head(lambda r: "/p2" in r[0])),
            ("count", lambda: store_ops.count_all(out), len(rows)),
        ]
        # two existing pages (overwritten in place) and a new one (appended,
        # then deleted): most writes are in-place rewrites, so the median
        # write sits inside that group rather than at its edge
        olds = [rows[len(rows) // 3], rows[2 * len(rows) // 3]]
        new_url = f"https://h{self.seed % 7 + 1}.example/new-{self.seed}"
        max_rank = max(r[5] for r in rows)
        writes = [
            (
                "upsert",
                lambda old=old: store_ops.upsert_url(out, old[0], "new title", "new text"),
                dict(zip(checks.STORE_COLS, old)),
            )
            for old in olds
        ] + [
            ("upsert", lambda: store_ops.upsert_url(out, new_url, "added", "body"), None),
            ("delete", lambda: store_ops.delete_url(out, new_url), True),
        ]
        expected = self._after_update(rows, olds)
        for i, (kind, fn, want) in enumerate(reads + writes):
            ok, got, secs = tally.attempt(kind, fn)
            if not ok:
                tally.skip(self.BLOCK_OPS - i - 1)  # the rest of the block
                return
            tally.errors += checks.equal_errors(f"{kind} #{i}", got, want)
            self.op_ms[kind].append(secs * 1e3)
            tally.samples["store_read_ms" if i < len(reads) else "store_write_ms"].append(secs * 1e3)
            if kind == "upsert" and want is None:
                # the appended row: depth 0, the next rank, itself as parent
                added = (new_url, "added", new_url, "body", 0, max_rank + 1)
                tally.errors += checks.multiset_errors(
                    "store after upsert of a new url", checks.read_store_rows(out),
                    expected + [added],
                )

        tally.errors += checks.multiset_errors(
            "store after writes", checks.read_store_rows(out), expected
        )
        ok, n, secs = tally.attempt("compact", store_ops.compact_store, out)
        if ok:
            self.op_ms["compact"].append(secs * 1e3)
            tally.samples["compact_s"].append(secs)
            tally.errors += checks.equal_errors("compact_store count", n, len(expected))
            tally.errors += checks.multiset_errors(
                "store after compact_store", checks.read_store_rows(out), expected
            )

    @staticmethod
    def _after_update(rows, olds):
        changed = {o[0] for o in olds}
        return [
            (r[0], "new title", r[2], "new text", r[4], r[5]) if r[0] in changed else r
            for r in rows
        ]

    def _queries(self, tally: Tally, traced: bool, warm: bool) -> dict:
        from spider_ray.pipelines.registry import QUERIES

        record = dict(latency={}, exchange_s=0.0, executions=0)
        executions = trace.EXECUTIONS[0] if traced else 0
        for name in self.query_names:
            if warm and name in self.NOT_WARMED:
                continue

            def run():
                out = QUERIES[name](self.tables)
                df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
                return out, df

            with trace.span(f"query.{name}") if traced else contextlib.nullcontext():
                ok, got, secs = tally.attempt(name, run)
            if not ok:
                continue
            out, df = got
            record["latency"][name] = secs
            tally.samples["query_latency_s"].append(secs)
            if name in sql.BOUNDED:
                _sql, key, cols, rel = sql.BOUNDED[name]
                tally.errors += checks.bound_errors(name, df, self.expected[name], key, cols, rel)
            else:
                tally.errors += checks.frame_errors(name, df, self.expected[name])
            if traced and hasattr(out, "stats"):
                record["exchange_s"] += exchange_seconds(out)
        if traced:
            record["executions"] = trace.EXECUTIONS[0] - executions
        if len(record["latency"]) == len(self.query_names):
            tally.samples["query_pass_s"].append(sum(record["latency"].values()))
        return record

    def layers(self, spans: list[dict]) -> dict[str, float]:
        """Per-layer figures of the timed passes, as medians over passes
        (query figures) or over crawls (crawl figures)."""
        per: dict[str, list[float]] = defaultdict(list)
        for p in self.passes:
            for fam, names in FAMILIES.items():
                per[f"queries.{fam}_s"].append(sum(p["latency"].get(n, 0.0) for n in names))
            per["queries.exchange_s"].append(p["exchange_s"])
            per["queries.executions"].append(p["executions"])
        for c in self.crawls:
            lo, hi, res, wall = c["start"], c["end"], c["result"], c["wall"]
            rounds = res.rounds
            split_s, calls, _ = _span_sum(spans, "politeness.split", lo, hi)
            splits = trace.within(spans, "politeness.split", lo, hi)
            cand = sum(r["candidates"] for r in rounds)
            claimed = sum(r["claimed"] for r in rounds)
            fetch_s, batches, _ = _span_sum(spans, "fetch.batch", lo, hi)
            expand_s, _, pages = _span_sum(spans, "expand.batch", lo, hi)
            offer_s, offers, offered = _span_sum(spans, "seen.offer", lo, hi)
            harvest_s, _, _ = _span_sum(spans, "seen.harvest", lo, hi)
            items = sum(s["n_items"] for s in res.shard_stats)
            vals = {
                "crawl.rounds": len(rounds),
                "crawl.fetch_parse_s": sum(r["t_fetch_parse"] for r in rounds) - split_s,
                "crawl.refill_s": sum(r["t_frontier_refill"] for r in rounds),
                "crawl.outside_rounds_s": wall - sum(r["elapsed_s"] for r in rounds),
                "crawl.candidates": cand,
                "crawl.claimed": claimed,
                "crawl.claim_ratio": claimed / cand if cand else 0.0,
                "crawl.frontier_ops_per_s": (
                    cand + claimed + sum(r["fetched"] for r in rounds)
                ) / wall,
                "politeness.split_s": split_s,
                "politeness.calls": calls,
                "politeness.deferred_rows": sum(r["deferred"] for r in rounds),
                "politeness.input_blocks_max": max((s["n"] for s in splits), default=0),
                "fetch.busy_s": fetch_s,
                "fetch.batches": batches,
                "fetch.misses": sum(r["misses"] for r in rounds),
                "expand.busy_s": expand_s,
                "expand.pages": pages,
                "seen.offer_calls": offers,
                "seen.offered_urls": offered,
                "seen.offer_busy_s": offer_s,
                "seen.harvest_busy_s": harvest_s,
                "seen.items": items,
                "seen.state_bytes_per_url": (
                    sum(s["state_bytes"] for s in res.shard_stats) / items if items else 0.0
                ),
            }
            for k, v in vals.items():
                per[k].append(v)
        out = {k: median(v) for k, v in per.items()}
        out["store.part_files"] = median(self.part_files)
        out["store.mb"] = median(self.store_mb)
        for kind in ("catch", "catch_contains", "count", "upsert", "delete", "compact"):
            out[f"store.{kind}_ms"] = median(self.op_ms[kind])
        return out


class CrawlBfs(Workload):
    name = "crawl_bfs"
    corpus = dict(n_pages=4000, n_hosts=16, links_per_page=10, n_words=300, n_seeds=4)
    # the engine's defaults: indexed fetch, 8 exact seen shards
    config = dict(max_depth=MAX_DEPTH)
    crawls_per_pass = 2
    # the exchange-heavy dedup query on top of one query of each family
    query_names = SAMPLE_QUERIES + ["minhash_lsh_pairs"]


class CrawlPolite(Workload):
    name = "crawl_polite"
    corpus = dict(n_pages=80, n_hosts=8, links_per_page=4, n_words=20, n_seeds=4, sitemap=True)
    config = dict(
        max_depth=MAX_DEPTH,
        per_host_budget=8,
        robots=ROBOTS,
        fetch_mode="partitioned",
        seen_mode="bloom",
    )
    store_blocks = 2


# Ray Data operators that exchange rows between all blocks
ALL_TO_ALL = ("Sort", "Aggregate", "Repartition", "Shuffle", "Join")


def exchange_seconds(ds) -> float:
    """Wall time Ray attributes to all-to-all operators in ``ds``'s stats:
    the operators that ``Dataset.stats()`` prints as ``Operator N <name>:
    executed in <t>``, read at full precision from the summary it prints.
    Every exchange of one execution reports that execution's whole time,
    so the largest one is taken, not their sum."""
    ex = ds._current_executor
    times, stack = [], [(ex.get_stats() if ex else ds._plan.stats()).to_summary()]
    while stack:
        summ = stack.pop()
        stack.extend(p for p in summ.parents if p)
        if len(summ.operators_stats) == 1:
            op = summ.operators_stats[0]
            name, secs = op.operator_name, op.time_total_s
        elif summ.operators_stats:
            name, secs = summ.base_name, summ.time_total_s
        else:
            continue
        if any(k in name for k in ALL_TO_ALL):
            times.append(secs)
    return max(times, default=0.0)


WORKLOADS = {w.name: w for w in (CrawlBfs, CrawlPolite)}

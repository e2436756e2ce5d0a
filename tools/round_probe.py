#!/usr/bin/env python
"""Per-round shape and time of the crawl's round body, untraced.

Builds the ``crawlbench/gen.py`` corpus of one benchmark workload's shape
for a seed (the shape and the crawl config are read from
``crawlbench/workloads.py``; nothing there is edited), runs one warm-up
crawl and then ``--crawls`` timed crawls of it with no span tracing, and
prints, per round of the last crawl, ``fetched`` (frontier rows fetched),
``fetch_blocks`` (the blocks handed to the fetch, one fetch/parse task
each) and the medians over the timed crawls of ``t_fetch_parse`` (the round
body's wall time, the split included), ``t_politeness`` (the split's) and
``t_frontier_refill`` (the refill's), then the median crawl wall time and
the Ray Data executions each timed crawl started (counted with
``crawlbench/trace.py:count_executions``).

Ray starts like the benchmark's: every CPU of the process's affinity and a
512 MB object store. An older engine without ``fetch_blocks`` prints
``null`` there.

Usage: python tools/round_probe.py [--workload crawl_bfs|crawl_polite]
                                   [--seed N] [--crawls N]
Prints one JSON line per round, then one summary line.
"""
import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import ray  # noqa: E402

from crawlbench import gen, trace, workloads  # noqa: E402
from spider_ray.pipelines.crawl import crawl  # noqa: E402

SHAPES = {w.name: w for w in (workloads.CrawlBfs, workloads.CrawlPolite)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(SHAPES), default="crawl_bfs")
    ap.add_argument("--seed", type=int, default=9101)
    ap.add_argument("--crawls", type=int, default=5)
    args = ap.parse_args()
    shape = SHAPES[args.workload]
    if not ray.is_initialized():
        ray.init(
            num_cpus=len(os.sched_getaffinity(0)),
            object_store_memory=512 * 1024 * 1024,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
        )
    ray.data.DataContext.get_current().enable_progress_bars = False
    trace.count_executions()
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    with tempfile.TemporaryDirectory() as work:
        corpus = gen.make_corpus(args.seed, **shape.corpus)
        corpus_dir = corpus.write(os.path.join(work, "corpus"))
        out = os.path.join(work, "out")
        walls, rounds, executions = [], [], []
        for i in range(args.crawls + 1):
            shutil.rmtree(out, ignore_errors=True)
            before = trace.EXECUTIONS[0]
            t0 = time.perf_counter()
            res = crawl(corpus_dir, corpus.seeds, out, **shape.config)
            if i:  # the first crawl warms the workers and the shard pool
                walls.append(time.perf_counter() - t0)
                rounds.append(res.rounds)
                executions.append(trace.EXECUTIONS[0] - before)

    def med(r: int, key: str) -> float:
        return round(statistics.median(rs[r][key] for rs in rounds if len(rs) > r), 4)

    for r, last in enumerate(rounds[-1]):
        print(
            json.dumps(
                {
                    "round": r,
                    "fetched": last["fetched"],
                    "fetch_blocks": last.get("fetch_blocks"),
                    "t_fetch_parse": med(r, "t_fetch_parse"),
                    "t_politeness": med(r, "t_politeness"),
                    "t_frontier_refill": med(r, "t_frontier_refill"),
                }
            )
        )
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "crawls": len(walls),
                "median_crawl_s": round(statistics.median(walls), 4),
                "walls": [round(w, 3) for w in walls],
                "ray_data_executions": executions,
            }
        )
    )


if __name__ == "__main__":
    main()

"""Crawl, store and query benchmark for the spider_ray engine.

    python3 crawlbench/run.py --workload crawl_bfs --seed 1 --seconds 10 --trace 0

Run it from anywhere; it works on the checkout that contains it. It builds
the workload's inputs from the seed, starts a Ray session sized to this
process's CPU affinity, runs one warm-up pass and then whole passes until
``--seconds`` have gone by, checks every output, and prints one JSON line
last: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; ``--trace 1`` records spans around the
engine's layers and reports the per-layer metrics instead. The full record
(and, when traced, the spans) goes to ``.crawlbench/out/`` in the checkout.

    python3 crawlbench/run.py --selftest

feeds every check corrupted outputs and exits non-zero unless each is
rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import itertools
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def metric_units(trace: int) -> dict[str, str]:
    """The unit of every metric BENCHMARK.json declares for this kind of
    run: the end-to-end metrics untraced, the per-layer ones traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


class RssSampler(threading.Thread):
    """Peak summed RSS of this process and all its descendants."""

    def __init__(self, period: float = 0.1) -> None:
        super().__init__(daemon=True)
        self.period = period
        self.peak = 0
        self._done = threading.Event()

    def run(self) -> None:
        import psutil

        me = psutil.Process()
        while not self._done.is_set():
            total = 0
            for p in [me] + me.children(recursive=True):
                try:
                    total += p.memory_info().rss
                except psutil.Error:
                    pass
            self.peak = max(self.peak, total)
            self._done.wait(self.period)

    def stop(self) -> float:
        self._done.set()
        self.join()
        return self.peak / 1e6


def stop_descendants() -> None:
    import psutil

    procs = psutil.Process().children(recursive=True)
    for p in procs:
        try:
            p.terminate()
        except psutil.Error:
            pass
    _gone, alive = psutil.wait_procs(procs, timeout=10)
    for p in alive:
        try:
            p.kill()
        except psutil.Error:
            pass
    psutil.wait_procs(alive, timeout=10)


def short_alias(work: str) -> tuple[str, str | None]:
    """A short path to ``work/s``, for Ray's temp dir and ``TMPDIR``: Ray's
    session sockets live under its temp dir and must fit the 107-byte
    AF_UNIX path limit, which a temp dir inside a long checkout path would
    pass. Beyond 40 bytes the alias is a symlink under /tmp, so the files
    themselves stay in the checkout. → (alias, symlink to remove or None)"""
    real = os.path.join(work, "s")
    os.makedirs(real)
    if len(real) <= 40:
        return real, None
    for i in itertools.count():
        link = f"/tmp/cb{os.getpid()}-{i}"
        try:
            os.symlink(real, link)
            return link, link
        except FileExistsError:
            continue


def _exit_on_signal(signum, _frame):
    sys.exit(128 + signum)


def start_ray(ray_tmp: str) -> None:
    import ray

    ray.init(
        num_cpus=len(os.sched_getaffinity(0)),
        object_store_memory=512 * 1024 * 1024,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _temp_dir=ray_tmp,
    )
    # ray.init installs its own SIGTERM handler; a SIGTERM must instead
    # unwind like an error, so the session is still stopped
    signal.signal(signal.SIGTERM, _exit_on_signal)
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def measure(args, work: str, short: str, out_dir: str) -> dict:
    import ray  # also puts Ray's bundled psutil on sys.path
    import psutil

    from crawlbench import trace, workloads

    born = psutil.Process().create_time()
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    prepare_s = time.perf_counter() - t0  # inputs and expected answers

    sampler = RssSampler()
    sampler.start()
    try:
        start_ray(os.path.join(short, "ray"))
        if args.trace:
            trace.install()
            trace.count_executions()
        warm = workloads.Tally()
        wl.run_pass(warm, traced=bool(args.trace), warm=True)
        wl.reset()
        setup_s = time.time() - born - prepare_s

        tally = workloads.Tally()
        t_run = time.perf_counter()
        while True:
            wl.run_pass(tally, traced=bool(args.trace))
            if time.perf_counter() - t_run >= args.seconds:
                break
        measured_s = time.perf_counter() - t_run
        peak_rss_mb = sampler.stop()
    finally:
        if sampler.is_alive():
            sampler.stop()
        ray.shutdown()
        stop_descendants()

    errors = warm.errors + tally.errors
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    s = tally.samples
    record = dict(
        workload=args.workload, seed=args.seed, trace=args.trace,
        cpus=len(os.sched_getaffinity(0)), prepare_s=prepare_s,
        measured_s=measured_s, errors=errors, samples=dict(s),
    )
    if args.trace:
        spans = trace.load_spans(os.environ[trace.ENV])
        values = wl.layers(spans)
        with open(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json"), "w") as f:
            json.dump(spans, f)
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "query_p50_ms": (
                statistics.median(s["query_latency_s"]) * 1e3 if s["query_latency_s"] else None
            ),
        }
        for k in ("pages_per_s", "frontier_ops_per_s", "store_mb", "store_read_ms",
                  "store_write_ms", "compact_s", "query_pass_s"):
            if s.get(k):
                values[k] = statistics.median(s[k])
    record["figures"] = {k: v for k, v in values.items() if v is not None}
    units = metric_units(args.trace)
    metrics = {
        k: {"value": v, "unit": units[k]} for k, v in record["figures"].items() if k in units
    }
    record["missing"] = sorted(set(units) - set(metrics))
    with open(os.path.join(out_dir, f"{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    return {
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }, record["missing"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["crawl_bfs", "crawl_polite"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "spider_ray")):
        print(f"no spider_ray package in {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    # the checkout must be importable here and in every Ray worker, which
    # inherit the environment when the session starts; this script's own
    # directory leaves sys.path so its module names (trace, sql, ...) cannot
    # shadow others
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [ROOT] + [p for p in sys.path if os.path.abspath(p or ".") != here]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    if args.selftest:
        from crawlbench import selftest

        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")

    signal.signal(signal.SIGTERM, _exit_on_signal)
    base = os.path.join(ROOT, ".crawlbench")
    work = os.path.join(base, f"work-{os.getpid()}")
    out_dir = os.path.join(base, "out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work)
    short, link = short_alias(work)
    try:
        # the engine's own temporary files (in this process and, since Ray
        # starts after this, in its workers) stay in the checkout too
        os.environ["TMPDIR"] = os.path.join(short, "tmp")
        os.makedirs(os.environ["TMPDIR"])
        if args.trace:
            from crawlbench import trace

            os.environ[trace.ENV] = os.path.join(work, "spans")
            os.makedirs(os.environ[trace.ENV])
        result, missing = measure(args, work, short, out_dir)
    finally:
        if link:
            os.unlink(link)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    if missing:
        # every operation that would give these failed
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

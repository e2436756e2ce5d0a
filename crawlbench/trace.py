"""Spans around the calls into the engine's layers, for the traced run.

A span is ``{name, start, end, parent, pid, id, n}``: wall-clock times in
seconds, the id of the enclosing span in the same process (or None), and an
optional work count. Every process appends its spans to its own JSON-lines
file under the directory named by ``CRAWLBENCH_SPANS``; the benchmark's
main process merges them when the run ends. The variable is set before Ray starts, so Ray
workers and actors inherit it, and this module reaches them because the
checkout is on their ``PYTHONPATH``.

``install()`` rebinds the module attributes that ``pipelines/crawl.py``
calls through (and the one that ``stages/fetch.py`` builds its per-batch
function from). Nothing in ``spider_ray/`` is edited.
"""

from __future__ import annotations

import contextlib
import glob
import inspect
import itertools
import json
import os
import threading
import time

ENV = "CRAWLBENCH_SPANS"

_local = threading.local()
_ids = itertools.count(1)
_file = None
_lock = threading.Lock()


def record(
    name: str, start: float, end: float, n: int | None = None, parent=None, sid=None
) -> None:
    global _file
    span = {
        "name": name,
        "start": start,
        "end": end,
        "parent": parent,
        "pid": os.getpid(),
        "id": sid or f"{os.getpid()}.{next(_ids)}",
        "n": n,
    }
    with _lock:
        if _file is None:
            path = os.path.join(os.environ[ENV], f"spans-{os.getpid()}.jsonl")
            _file = open(path, "a", buffering=1)
        # one flushed line per span: an actor killed at the end of a crawl
        # keeps what it recorded
        _file.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def span(name: str, n: int | None = None):
    """Span in the calling process; nested spans name their parent."""
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    sid = f"{os.getpid()}.{next(_ids)}"
    parent = stack[-1] if stack else None
    stack.append(sid)
    t0 = time.time()
    try:
        yield
    finally:
        stack.pop()
        record(name, t0, time.time(), n, parent, sid)


def _rows(x) -> int | None:
    return getattr(x, "num_rows", None)


def timed_udf(fn, name: str):
    """Wrap a per-batch function so each call records a span with its input
    row count. Generator functions are timed inside each ``next`` only, so
    the time of operators fused after them is not counted."""
    if inspect.isgeneratorfunction(fn):

        def gen(batch, *args, **kwargs):
            it = fn(batch, *args, **kwargs)
            busy, t_first = 0.0, time.time()
            while True:
                t0 = time.perf_counter()
                try:
                    out = next(it)
                except StopIteration:
                    busy += time.perf_counter() - t0
                    break
                busy += time.perf_counter() - t0
                yield out
            record(name, t_first, t_first + busy, _rows(batch))

        gen.__name__ = getattr(fn, "__name__", name)
        return gen

    def call(batch, *args, **kwargs):
        t0 = time.time()
        out = fn(batch, *args, **kwargs)
        record(name, t0, time.time(), _rows(batch))
        return out

    call.__name__ = getattr(fn, "__name__", name)
    return call


def wrap_new_udfs(ds, before, name: str):
    """Wrap the per-batch functions of every map operator in ``ds``'s plan
    that is not in the plan of ``before`` (the layer's input)."""
    from ray.data._internal.logical.operators.map_operator import AbstractUDFMap

    old = set(map(id, _ops(before))) if before is not None else set()
    for op in _ops(ds):
        if isinstance(op, AbstractUDFMap) and id(op) not in old and callable(op._fn):
            if not inspect.isclass(op._fn):
                op._fn = timed_udf(op._fn, name)
    return ds


def _ops(ds):
    stack, seen = [ds._logical_plan.dag], []
    while stack:
        op = stack.pop()
        seen.append(op)
        stack.extend(op.input_dependencies)
    return seen


def input_blocks(ds) -> int:
    """Blocks already materialized under ``ds`` (no execution)."""
    total = 0
    for op in _ops(ds):
        data = getattr(op, "input_data", None) or getattr(op, "_input_data", None)
        if isinstance(data, list):
            total += sum(len(b.blocks) for b in data)
    return total


def install() -> None:
    """Rebind the layer entry points the crawl calls through."""
    import spider_ray.pipelines.crawl as crawl_mod
    import spider_ray.stages.fetch as fetch_mod
    from spider_ray.state.seen import UrlSeenShard

    split = crawl_mod.politeness_split

    def politeness_split(pending, *args, **kwargs):
        blocks = input_blocks(pending)
        with span("politeness.split", n=blocks):
            return split(pending, *args, **kwargs)

    load = crawl_mod.load_corpus_ref

    def load_corpus_ref(*args, **kwargs):
        with span("fetch.load_corpus"):
            return load(*args, **kwargs)

    make_fetch_fn = fetch_mod.make_fetch_fn

    def traced_make_fetch_fn(table_ref):
        return timed_udf(make_fetch_fn(table_ref), "fetch.batch")

    fetch_partitioned = fetch_mod.fetch_partitioned

    def traced_fetch_partitioned(frontier, *args, **kwargs):
        ds = fetch_partitioned(frontier, *args, **kwargs)
        return wrap_new_udfs(ds, frontier, "fetch.batch")

    make_stage = crawl_mod.make_parse_store_expand

    def make_parse_store_expand(*args, **kwargs):
        return timed_udf(make_stage(*args, **kwargs), "expand.batch")

    class TracedSeenShard(UrlSeenShard):
        def offer(self, round_id, urls, keys):
            t0 = time.time()
            out = super().offer(round_id, urls, keys)
            record("seen.offer", t0, time.time(), len(urls))
            return out

        def harvest(self, round_id):
            t0 = time.time()
            out = super().harvest(round_id)
            record("seen.harvest", t0, time.time(), out.num_rows)
            return out

    crawl_mod.politeness_split = politeness_split
    crawl_mod.load_corpus_ref = load_corpus_ref
    crawl_mod.make_parse_store_expand = make_parse_store_expand
    crawl_mod.UrlSeenShard = TracedSeenShard
    fetch_mod.make_fetch_fn = traced_make_fetch_fn
    fetch_mod.fetch_partitioned = traced_fetch_partitioned


EXECUTIONS = [0]  # Ray Data executions started in this process


def count_executions() -> None:
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        EXECUTIONS[0] += 1
        return execute(self, *args, **kwargs)

    StreamingExecutor.execute = counted


def load_spans(span_dir: str) -> list[dict]:
    spans = []
    for path in glob.glob(os.path.join(span_dir, "spans-*.jsonl")):
        with open(path) as f:
            spans += [json.loads(line) for line in f if line.strip()]
    spans.sort(key=lambda s: s["start"])
    return spans


def within(spans: list[dict], name: str, lo: float, hi: float) -> list[dict]:
    return [s for s in spans if s["name"] == name and lo <= s["start"] <= hi]

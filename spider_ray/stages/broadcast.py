"""Worker-global cache for broadcast objects.

``ray.get`` of a plasma-backed Arrow table is zero-copy, but ``ray.get`` of
a Python dict/list DESERIALIZES on every call — a per-batch ``ray.get`` in a
``map_batches`` UDF re-unpickles the whole broadcast object per batch. Ray
worker processes persist across Dataset executions, so caching the
deserialized object per-process amortizes the cost to once per worker (the
same pattern the corpus fetch index uses, stages/fetch.py)."""

from __future__ import annotations

import ray

_CACHE: dict = {}


def get_broadcast(ref):
    """Deserialize ``ref`` once per worker process; later calls are dict
    lookups. Keep at most a handful of live broadcasts per worker."""
    obj = _CACHE.get(ref)
    if obj is None:
        obj = ray.get(ref)
        if len(_CACHE) > 8:
            _CACHE.clear()
        _CACHE[ref] = obj
    return obj


def session_key() -> tuple:
    """Names the current Ray session: the job id plus the driver's node id
    (a new local cluster restarts job ids at ``01000000``). Driver-side
    memos of ObjectRefs or actor handles key on it, so nothing from an
    earlier ``ray.init`` in the same process is ever reused."""
    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()

"""Fetch stage: "download" = look the URL up in the pages corpus.

Replaces the reference's live HTTP GET (crawler.py:121-138). A URL absent
from the corpus is the fetch-failure path (crawler.py:102-104): the row is
dropped here and accounted as a miss by the driver (fetched − crawled),
never retried — reference semantics.

Two physical strategies (SURVEY.md §2.1 S1), chosen by ``fetch_mode``:

- **indexed** (default): the corpus html table AND a hash-sorted url index
  (two numpy arrays) are ``ray.put`` ONCE by the driver; every worker reads
  all of it zero-copy from the object store — no per-worker index build at
  all — and serves each batch with a vectorized ``searchsorted`` + one
  Arrow ``take``. This is the broadcast-small-side pattern — right whenever
  the corpus fits the cluster object store.
- **partitioned**: the same per-batch map, but each batch reads only the
  corpus files and row groups of its own hosts, pruned by per-host url
  ranges (``fetch_partitioned``). Right when the corpus is far larger than
  the object store: I/O follows the frontier's hosts, not the corpus.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from spider_ray.state.seen import HASH_SENTINEL_URL, url_hash_batch


class _CorpusIndex:
    """url → row lookup over the broadcast corpus, SHARED via the object
    store: the driver ships ``(table, sorted_hashes, row_indices)`` where
    the numpy arrays are a 64-bit-hash-sorted index over the url column.
    Workers deserialize all three ZERO-COPY from plasma — there is NO
    per-worker build step (the previous per-worker 3M-entry python dict
    cost ~8 s and ~400 MB heap in EVERY worker Ray spawned, and a cold
    worker spawned mid-round stalled its whole block behind the build).
    Lookups are vectorized: hash the batch urls, ``np.searchsorted`` into
    the shared index, verify by actual url equality (hash collisions fall
    back to probing the equal-hash run)."""

    def __init__(self, payload):
        tbl, self._hashes, self._rows, *rest = payload
        if rest:
            # broadcast sentinel (see seen.HASH_SENTINEL_URL): this
            # process's hash function must reproduce the index builder's
            # values, or every lookup would silently miss
            here = url_hash_batch([HASH_SENTINEL_URL])[0]
            if here != rest[0]:
                raise RuntimeError(
                    "url-hash implementation skew between the index builder "
                    f"and this worker (sentinel {rest[0]} != {here}) — "
                    "pandas version mismatch across the cluster?"
                )
        self._urls = tbl.column("url")
        self._html = tbl.column("html")
        self._chunk_offsets = np.cumsum(
            [0] + [len(c) for c in self._html.chunks], dtype=np.int64
        )

    def _take(self, col: pa.ChunkedArray, rows: np.ndarray) -> pa.Array:
        """Row take over a MULTI-chunk column without touching untaken
        chunks (``ChunkedArray.take`` concatenates the whole column
        internally — a multi-GB copy per call on the broadcast corpus):
        group the row ids per chunk, take within each chunk, restore the
        caller's order."""
        if rows.size == 0:
            # all-miss batch (expected near the crawl edge: every frontier
            # url out of corpus) — concat_arrays([]) would raise
            return pa.array([], type=col.type)
        order = np.argsort(rows, kind="stable")
        srows = rows[order]
        cid = np.searchsorted(self._chunk_offsets, srows, side="right") - 1
        parts = []
        for c in np.unique(cid):
            sel = srows[cid == c] - self._chunk_offsets[c]
            parts.append(col.chunk(int(c)).take(pa.array(sel)))
        merged = pa.concat_arrays(parts) if len(parts) != 1 else parts[0]
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        return merged.take(pa.array(inv))

    def _resolve(self, burls: list[str]) -> np.ndarray:
        """Corpus row per url, -1 for misses."""
        n = len(self._hashes)
        bh = url_hash_batch(burls)
        pos = np.searchsorted(self._hashes, bh)
        out = np.full(len(burls), -1, dtype=np.int64)
        in_range = pos < n
        cand = np.where(in_range, pos, 0)
        hash_hit = in_range & (self._hashes[cand] == bh)
        if hash_hit.any():
            hit_idx = np.flatnonzero(hash_hit)
            rows = self._rows[pos[hit_idx]]
            # vectorized url-equality verify (one C-level object compare,
            # not a python loop per hit — this runs per frontier row per
            # round); the python probe below only ever sees the ~n²·2⁻⁶⁴
            # hash-collision mismatches
            got = self._take(self._urls, rows).to_numpy(zero_copy_only=False)
            want = np.asarray(burls, dtype=object)[hit_idx]
            ok = got == want
            out[hit_idx[ok]] = rows[ok]
            for i in hit_idx[~ok]:
                # 64-bit hash collision: probe the equal-hash run
                u = burls[i]
                p = pos[i]
                while p < n and self._hashes[p] == bh[i]:
                    r2 = int(self._rows[p])
                    if self._urls[r2].as_py() == u:
                        out[i] = r2
                        break
                    p += 1
        return out

    def lookup(self, batch: pa.Table) -> pa.Table:
        # object ndarray, not to_pylist: the hash pass wants an ndarray
        # anyway, and this skips one list materialization per batch
        burls = batch.column("url").to_numpy(zero_copy_only=False)
        idx = self._resolve(burls)
        hit_rows = np.flatnonzero(idx >= 0)
        sub = batch.select(["url", "depth", "rank"]).take(pa.array(hit_rows))
        html = self._take(self._html, idx[hit_rows])
        return sub.append_column("html", html)


# Worker-process-global cache: Ray worker processes persist across Dataset
# executions, so the index is built once per worker for the whole crawl even
# though each BFS round is a separate execution. (An actor pool would give
# the same amortization but pays pool startup EVERY round, since Ray Data
# actor pools are per-execution — measured at ~3s/round at test scale.)
_CORPUS_CACHE: dict = {}


def _ensure_index(table_ref) -> _CorpusIndex:
    idx = _CORPUS_CACHE.get(table_ref)
    if idx is None:
        idx = _CorpusIndex(ray.get(table_ref))
        _CORPUS_CACHE.clear()  # one corpus per worker — don't leak old runs
        _CORPUS_CACHE[table_ref] = idx
    return idx


def make_fetch_fn(table_ref):
    def fetch(batch: pa.Table) -> pa.Table:
        return _ensure_index(table_ref).lookup(batch)

    return fetch


def prewarm_workers(table_ref, n_workers: int) -> None:
    """Spawn (up to) ``n_workers`` worker processes and map the shared
    corpus + index into each, so the first big fetch round doesn't
    serialize behind process spawn. (The index itself needs no build — it
    is deserialized zero-copy from plasma.)"""

    @ray.remote
    def _warm(i: int) -> int:
        idx = _ensure_index(table_ref)
        if i == 0:
            # fault the shared html pages into memory ONCE (they are plasma
            # shm pages — the first toucher pays for everyone); otherwise
            # the first big fetch round pays ~1-2 s/GB of page faults
            for chunk in idx._html.chunks:
                for buf in chunk.buffers():
                    if buf is not None:
                        np.frombuffer(buf, dtype=np.uint8)[:: 4096].sum()
        return 0

    ray.get([_warm.remote(i) for i in range(n_workers)])


def fetch_indexed(frontier: Dataset, table_ref, batch_size: int) -> Dataset:
    return frontier.map_batches(
        make_fetch_fn(table_ref), batch_format="pyarrow", batch_size=batch_size
    )


# one pyarrow dataset handle per worker PROCESS (not per batch): the handle
# discovers and caches the corpus file listing + parquet metadata, which is
# exactly the work a per-batch re-open would repeat every round
_PADS_CACHE: dict = {}


def _corpus_pads(path: str):
    d = _PADS_CACHE.get(path)
    if d is None:
        import pyarrow.dataset as pads

        _PADS_CACHE.clear()  # one corpus per run — don't leak old handles
        d = _PADS_CACHE[path] = pads.dataset(path)
    return d


_HOST_URL = pa.schema([("host", pa.string()), ("url", pa.string())])


def frontier_filter(urls, hosts) -> pc.Expression:
    """Corpus read predicate for frontier urls and their hosts: OR over the
    hosts of ``min_url_h ≤ url ≤ max_url_h``, AND ``url.isin(urls)``.
    pyarrow prunes parquet files and row groups on the ranges' statistics,
    not on ``isin``, and the corpus keeps each host in files of its own: one
    range over several hosts would keep every file sorting between them."""
    t = pa.table({"host": hosts, "url": urls}, schema=_HOST_URL)
    t = t.sort_by([("host", "ascending"), ("url", "ascending")])
    h, u = t.column("host").to_numpy(zero_copy_only=False), t.column("url").to_pylist()
    # first row of every host, then the end: each host's urls are u[i:j]
    bounds = [0, *(np.flatnonzero(h[1:] != h[:-1]) + 1), len(u)] if u else []
    url = pc.field("url")
    ranges = ((url >= u[i]) & (url <= u[j - 1]) for i, j in zip(bounds, bounds[1:]))
    keep = functools.reduce(operator.or_, ranges, pc.scalar(False))  # no urls → no file
    return keep & url.isin(t.column("url").combine_chunks())


def fetch_partitioned(frontier: Dataset, corpus_path: str, batch_size: int) -> Dataset:
    """Scale path for corpora far larger than the cluster object store: one
    per-batch map, like ``fetch_indexed``, with no exchange. Each batch reads
    ONLY the corpus files and row groups holding its own hosts' urls
    (``frontier_filter``) and joins them back by url, so I/O is O(frontier's
    hosts), not O(corpus) — the layout-aware pattern that replaces the
    broadcast index at the 100 TB tier.

    Hot-host safety (SURVEY.md §7 hard-part 5) comes from the row cut: a
    hot host's rows spread over every batch, so no task gets the whole
    host. The trade: a host's files are scanned (after row-group pruning)
    once per batch that holds it, not once per round."""

    def fetch(batch: pa.Table) -> pa.Table:
        flt = frontier_filter(batch.column("url"), batch.column("host"))
        t = _corpus_pads(corpus_path).to_table(filter=flt, columns=["url", "html"])
        # Arrow-native inner merge on url (corpus urls are unique): a pandas
        # round-trip would downgrade html large_binary → binary and attach
        # the b'pandas' schema blob that breaks downstream schema hashing
        rows = batch.select(["url", "depth", "rank"])
        pos = pc.index_in(rows.column("url"), value_set=t.column("url").combine_chunks())
        hit = pos.is_valid()
        return rows.filter(hit).append_column("html", t.column("html").take(pos.filter(hit)))

    return frontier.map_batches(fetch, batch_format="pyarrow", batch_size=batch_size)


_REF_CACHE: dict = {}


def load_corpus_ref(corpus_path: str):
    """Driver-side: read the corpus (url+html only — prune at the read) and
    put it in the object store once for all fetch workers. Memoized per
    (Ray session, path, file list, max mtime) so repeated crawls (warmup +
    measured run, kill + resume) share one broadcast copy, while a corpus
    REGENERATED at the same path is re-read instead of silently serving
    stale pages, and a new ``ray.init`` never gets a ref owned by a
    shut-down session."""
    import glob
    import os

    import pyarrow.parquet as pq

    from spider_ray.stages.broadcast import session_key

    root = os.path.abspath(corpus_path)
    paths = (
        sorted(glob.glob(os.path.join(root, "*.parquet")))
        if os.path.isdir(root)
        else [root]
    )
    src_mtime = max((os.path.getmtime(p) for p in paths), default=0)
    key = (session_key(), root, tuple(paths), src_mtime)
    if key in _REF_CACHE:
        return _REF_CACHE[key]
    _REF_CACHE.clear()  # one corpus per session is the common case — don't
    # pin superseded broadcast tables in the object store

    # On-disk prepared cache: the combined table as UNCOMPRESSED Arrow IPC
    # (zero-copy mmap on reload) + the hash index as npz. A fresh process
    # (each scaling-protocol subprocess) then skips read+combine+hash
    # (~2 min at 8 GB on this host) and pays only the ray.put.
    prep = os.path.join(root, "_prepared.arrow")
    # v2: hash function changed (blake2b → vectorized siphash) — a v1 npz
    # holds hashes the lookup side no longer computes, so it must never be
    # picked up by mtime alone
    idxf = os.path.join(root, "_prepared_idx_v2.npz")
    # The persisted index is only valid if THIS process's hash function
    # produces the same values the builder's did — pandas' hash_array is an
    # implementation detail, not a stable contract, so the npz carries a
    # sentinel hash and a mismatch (e.g. a pandas upgrade) forces an index
    # rebuild instead of silently missing every lookup. The same sentinel
    # also rides the broadcast payload so RUNTIME driver/worker skew fails
    # loudly too (see _CorpusIndex.__init__).
    sentinel = url_hash_batch([HASH_SENTINEL_URL])[0]

    def _build_index(tbl):
        urls = tbl.column("url").to_numpy(zero_copy_only=False)
        hashes = url_hash_batch(urls)
        order = np.argsort(hashes, kind="stable").astype(np.int64)
        return hashes[order], order

    def _save_index(h_sorted, order):
        try:  # best effort — the npz only saves the next process the build
            np.savez(
                idxf + ".tmp.npz",
                h=h_sorted,
                o=order,
                s=np.array([sentinel], dtype=np.uint64),
            )
            os.replace(idxf + ".tmp.npz", idxf)
        except OSError:
            pass

    if (
        os.path.isdir(root)
        and os.path.exists(prep)
        and os.path.getmtime(prep) >= src_mtime
    ):
        import pyarrow.ipc as ipc

        tbl = ipc.open_file(pa.memory_map(prep)).read_all()
        d = None
        if os.path.exists(idxf) and os.path.getmtime(idxf) >= src_mtime:
            d = np.load(idxf)
            if "s" not in d or d["s"][0] != sentinel:
                d = None  # hash implementation moved — rebuild below
        if d is not None:
            h_sorted, order = d["h"], d["o"]
        else:
            # prepared table valid but index missing/stale (e.g. the hash
            # function version moved): rebuild JUST the index from the
            # mmapped table — seconds, vs minutes for a full re-read
            h_sorted, order = _build_index(tbl)
            _save_index(h_sorted, order)
        ref = ray.put((tbl, h_sorted, order, sentinel))
        _REF_CACHE[key] = ref
        return ref

    big = pa.schema([("url", pa.string()), ("html", pa.large_binary())])

    def _read(p):
        return pq.read_table(p, columns=["url", "html"]).cast(big)

    # parquet decode releases the GIL — a thread pool reads the shards in
    # parallel (a serial driver read of a multi-GB corpus took minutes)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=16) as ex:
        tbls = list(ex.map(_read, paths))
    # Re-chunk to a handful of ~512 MB chunks, combining GROUPS serially:
    # ray.put of a many-hundred-chunk table is pathologically slow
    # (measured 223 s at 615 chunks vs ~10 s at 1), a SINGLE 8 GB
    # combine_chunks is super-linear (110-200 s vs ~0.5 s per 500 MB
    # group), and workers must never combine (a full copy per worker).
    # _CorpusIndex._take handles the remaining few chunks without copies.
    group, size, groups = [], 0, []
    for t in tbls:
        group.append(t)
        size += t.nbytes
        if size >= 512 * 1024 * 1024:
            groups.append(group)
            group, size = [], 0
    if group:
        groups.append(group)
    tbl = pa.concat_tables(
        pa.concat_tables(g).combine_chunks() for g in groups
    )
    del tbls
    h_sorted, order = _build_index(tbl)
    if os.path.isdir(root):
        try:  # persist the prepared form for the next process (best effort)
            import pyarrow.ipc as ipc

            tmp = prep + ".tmp"
            with pa.OSFile(tmp, "wb") as f, ipc.new_file(f, tbl.schema) as w:
                w.write_table(tbl)
            os.replace(tmp, prep)
        except OSError:
            pass
        _save_index(h_sorted, order)
    ref = ray.put((tbl, h_sorted, order, sentinel))
    _REF_CACHE[key] = ref
    return ref

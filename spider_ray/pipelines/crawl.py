"""The flagship pipeline: a Ray-Data-native BFS crawl over a pages corpus.

Distributed implementation of the canonical crawl semantics defined by the
sequential oracle (spider_ray.oracle — SURVEY.md §3.1); the reference
recursion (crawler.py:92-119) becomes a driver loop over BFS rounds:

  frontier (url, host, depth, rank; an Arrow table on the driver)
    → politeness_split                      [per-host budgets, deferral]
    → ONE Ray task per fetch_now block, every task of a round at once:
        fetch (broadcast index | partitioned read)   [fetch_mode]
        → parse + store-part write + robots gate
        → dedup+claim OFFER to seen shards  [all-to-all = url-hash routing]
    → HARVEST winners per shard → sort(claim_key) + dense rank  [_refill]
    → deferred + ranked → next frontier (+ its checkpoint)

The round body starts no Ray Data execution. ``fetch_now`` is cut into
``_target_blocks`` blocks and each block is one ``_round_body_task``, which
fetches it in ``fetch_batch_size``-row batches and parses the fetched rows
in ``parse_batch_size``-row batches. Each round's metrics row carries
``fetch_blocks`` (its task count).

One bound, ``_DRIVER_ROWS``, picks where the frontier lives. Up to it, the
frontier, the split's two parts and the ranked claims are Arrow tables on
the driver: the driver ranks the round's candidates (PARALLEL per-slice
decode tasks when there is more than one slice), the politeness split runs
on the driver with no execution, and the checkpoint writer thread writes
the table. The one Dataset a round builds there is ``pending``, the
split's input. Above it the frontier is a materialized Dataset: a
distributed sort+rank, the distributed threshold reduce, a repartition of
``fetch_now`` whose block refs go to the same body tasks, and a streaming
``write_parquet`` checkpoint.

The no-cache crawl (``use_cache=False``, the reference's ``--no-cache``)
runs the same body without the offer: the stage emits its candidate rows
and ``_refill`` ranks those instead of shard harvests.

Scale notes (the 100 TB / 10^10-URL design point):
- Only frontier METADATA (url + 3 ints) is ever materialized or shuffled;
  page bodies stream through fetch→parse→parquet inside one task and are
  never held beyond a batch.
- All per-round data movement is frontier-sized, never corpus-sized.
- The seen state is K hash-partitioned actors (exact or bloom); its lineage
  is the seeds file + the union of per-round frontier checkpoints (every
  claimed url is pending at the end of its claim round), replayed on resume.
- Shard actors live as long as the Ray session, not the crawl: a crawl
  takes idle shards from a per-session pool (``_take_shards``), resets
  them to its seen mode, and spawns only the ones missing; on success it
  resets them (idle shards hold no urls) and returns them to the pool. A
  failed crawl kills its shards, so none ever reaches the pool.
- Rounds promote atomically (write to ``rounds/.rXXXX.tmp``, rename; the
  checkpoint writer thread is serialized so promotion order is strict), so
  a killed job resumes from the last complete round and reproduces the
  byte-identical final store (tested in tests/test_resume.py).
"""

from __future__ import annotations

import glob
import logging
import os
import shutil
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import Dataset

from spider_ray.blockutil import collect_table, compact_table
from spider_ray.canonical import canonicalize, ensure_scheme, host_of, human_repr
from spider_ray.oracle import robots_allows
from spider_ray.stages import claim
from spider_ray.stages.broadcast import session_key
from spider_ray.stages.expand import add_host_column, make_parse_store_expand
from spider_ray.stages import fetch as fetch_mod
from spider_ray.stages.fetch import load_corpus_ref
from spider_ray.stages.politeness import politeness_split
from spider_ray.stages.rank import assign_ranks
from spider_ray.state.seen import (
    SEEN_MODES,
    Claims,
    UrlSeenShard,
    claims_table,
    iter_shard_groups,
    route_sentinel,
)

# the reference's logging surface (spider/controllers/core/loggers —
# ``crawl_info`` lines consumed by its log-based tests): one structured
# info line per round + a completion line, on a dedicated logger users can
# route or silence independently of ray.data's loggers
LOG = logging.getLogger("spider_ray.crawl")

FRONTIER_COLS = ["url", "host", "depth", "rank"]
FETCH_MODES = ("indexed", "partitioned")
FRONTIER_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("depth", pa.int32()),
        ("rank", pa.int64()),
    ]
)


# frontier rows the driver may hold (module docstring): a round with at
# most this many candidates ranks on the driver, and a frontier of at most
# this many rows stays an Arrow table there (split, cut into the body's
# blocks and checkpointed without a Ray Data execution). Frontier rows are
# ~100 B of metadata, so even 8M rows is ~800 MB moved once and a
# sub-second driver sort, cheaper than a distributed execution
_DRIVER_ROWS = 8_000_000


@dataclass
class CrawlConfig:
    max_depth: int = 1
    per_host_budget: int | None = None
    # robots: a rules dict (host → disallowed path prefixes) or the path of
    # a robots parquet table (host, disallow_prefix, crawl_delay_ms) —
    # crawl_delay_ms rows become per-host politeness budgets
    robots: dict[str, list[str]] | str | None = None
    host_budgets: dict[str, int] | None = None
    seen_shards: int = 8
    seen_mode: str = "exact"  # SEEN_MODES: "exact" | "bloom"
    use_cache: bool = True  # False = reference --no-cache: no claims at all
    bloom_bits: int = 1 << 24
    # FETCH_MODES: "indexed" (broadcast corpus, cached task fn) |
    # "partitioned" (per-batch reads of the batch hosts' corpus files)
    fetch_mode: str = "indexed"
    # a round's body task cuts its frontier block into fetch batches of
    # this many rows, and the fetched rows into parse batches (below); a
    # block smaller than a batch is one batch
    fetch_batch_size: int = 1024
    # parse batches bound BOTH per-batch memory (html + parsed text) AND the
    # dedup-offer granularity: each batch locally min-key-dedups its
    # candidates then blocks once on its shard offers, so bigger batches
    # mean fewer actor round-trips AND a better local dedup rate (links of
    # neighboring pages overlap heavily) — 2048 pages ≈ 8-16 MB per batch
    parse_batch_size: int = 2048
    max_rounds: int | None = None  # stop after N rounds this call (resume later)
    proxy: str | None = None  # validated eagerly (S2); a no-op in corpus mode
    # opt-in: gather per-shard seen-state stats (items, structure bytes,
    # actor RSS) at crawl end — an O(seen) pass per shard, so OFF by default
    # to keep benched crawls pure
    collect_shard_stats: bool = False


@dataclass
class CrawlResult:
    out_dir: str
    rounds: list[dict] = field(default_factory=list)
    total_calls: int = 0
    crawled: int = 0
    seen_count: int = 0
    finished: bool = True
    shard_stats: list[dict] = field(default_factory=list)

    @property
    def store_path(self) -> str:
        return os.path.join(self.out_dir, "store")


def _store_round_dir(out_dir: str, r: int) -> str:
    return os.path.join(out_dir, "store", f"r{r:04d}")


def _round_dir(out_dir: str, r: int) -> str:
    return os.path.join(out_dir, "rounds", f"r{r:04d}")


def _store_rows_count(store_dir: str) -> int:
    return sum(
        pq.read_metadata(p).num_rows
        for p in glob.glob(os.path.join(store_dir, "*.parquet"))
    )


def _decode_candidates(batch: pa.Table) -> pa.Table:
    keys = batch.column("claim_key").to_numpy()
    depth = pa.array(claim.decode_depth(keys), pa.int32())
    out = batch.append_column("depth", depth)
    out = add_host_column(out)
    return out.select(FRONTIER_COLS)


@ray.remote
def _decode_block_task(tbl: pa.Table, offset: int, length: int) -> pa.Table:
    """Per-slice candidate decode (depth bits + host regex) as a parallel
    task — the host extraction costs ~0.6 s/M rows, serial driver time the
    refill path cannot afford on multi-million-claim rounds. The ranked
    table arrives as ONE ``ray.put`` ref (every task reads it zero-copy
    from plasma — shipping ``tbl.slice(...)`` per task would serialize the
    FULL parent buffers once per slice, ~nblocks× the frontier size), and
    the output is compacted so the returned slice doesn't re-ship them."""
    return compact_table(_decode_candidates(tbl.slice(offset, length)))


@ray.remote
def _claims_table_task(claims: Claims) -> pa.Table:
    """One shard's harvest as Arrow, for the distributed rank path."""
    return claims_table([claims])


def _refill(source: list, harvested: bool, n_cand: int, next_rank: int, blocks):
    """Rank a round's new ``(url, claim_key)`` candidates into the next
    frontier: ascending claim key, dense ranks from ``next_rank``, then
    depth and host decoded from the key and url.

    ``source`` is the round's shard harvests (``Claims`` refs) when
    ``harvested``, else, for the no-cache crawl, refs of the body tasks'
    candidate tables. Returns ``(ranked, n_new)``: up to ``_DRIVER_ROWS``
    candidates ``ranked`` is an Arrow table, above it a Dataset."""
    if n_cand > _DRIVER_ROWS:
        if harvested:
            source = [_claims_table_task.remote(h) for h in source]
        return assign_ranks(
            ray.data.from_arrow_refs(source).sort("claim_key"),
            next_rank,
            col="rank",
            post_fn=_decode_candidates,
        )
    # sort+rank on the driver — a distributed execution costs more than the
    # data
    got = ray.get(source)
    tbl = claims_table(got) if harvested else pa.concat_tables(got)
    if tbl.num_rows == 0:
        return None, 0
    tbl = tbl.take(pa.compute.sort_indices(tbl, sort_keys=[("claim_key", "ascending")]))
    n_new = tbl.num_rows
    tbl = tbl.append_column(
        "rank", pa.array(np.arange(next_rank, next_rank + n_new, dtype=np.int64))
    )
    step = -(-n_new // blocks(n_new))
    if step == n_new:
        # one slice: decoding it here costs less than a task round trip
        return _decode_candidates(tbl), n_new
    # the decode runs as PARALLEL per-slice tasks (no serial decode on the
    # driver). ONE put; tasks slice by (offset, length) — see
    # _decode_block_task for the pickle trap
    tref = ray.put(tbl)
    slices = [
        _decode_block_task.remote(tref, i, min(step, n_new - i))
        for i in range(0, n_new, step)
    ]
    return pa.concat_tables(ray.get(slices)), n_new


@ray.remote(max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError], num_returns=2)
def _round_body_task(block: pa.Table, fetch, fetch_batch: int, stage, parse_batch: int):
    """One frontier block's round body: ``fetch`` over ``fetch_batch``-row
    slices of the block, and ``stage`` (parse + store write + robots gate
    + offer) over ``parse_batch``-row batches of the fetched rows, each run
    as soon as its rows are fetched (so no more than about a parse batch
    plus a fetch batch of page bodies is held at once). Returns the
    stage's output rows (one count row per parse batch, or the no-cache
    crawl's candidate rows) and their count; ``(0, None)`` when no page was
    fetched.

    Retried like a Ray Data task (``max_retries=-1`` and Ray system
    errors): a retry fetches the same rows, rewrites the same store parts
    (named by their ranks) and offers the same candidates again, which the
    shards claim once."""
    outs, held = [], None
    for i in range(0, block.num_rows, fetch_batch):
        got = fetch(block.slice(i, fetch_batch))
        held = got if held is None else pa.concat_tables([held, got])
        while held.num_rows >= parse_batch:
            outs.append(stage(held.slice(0, parse_batch)))
            held = held.slice(parse_batch)
    if held is not None and held.num_rows:
        outs.append(stage(held))
    if not outs:
        return 0, None
    out = pa.concat_tables(outs)
    return out.num_rows, out


def _body_blocks(fetch_now, blocks) -> tuple[list, int]:
    """``fetch_now`` as the round body's inputs, ``blocks(n)`` of them,
    and its row count ``n``: compacted slices of a driver table, or the
    block refs of a Dataset repartitioned and materialized."""
    if isinstance(fetch_now, pa.Table):
        n = fetch_now.num_rows
        step = max(1, -(-n // blocks(n)))
        return [compact_table(fetch_now.slice(i, step)) for i in range(0, n, step)], n
    n = fetch_now.count()
    if n == 0:
        return [], 0
    return fetch_now.repartition(blocks(n)).materialize().to_arrow_refs(), n


# Idle seen-shard actors of this process, per Ray session and shard class.
# Spawning a shard process costs far more than a crawl round's shard work,
# so crawls in one session share one set. Keyed by ``session_key``, so a
# handle from an earlier ``ray.init`` is never reused.
_SHARD_POOL: dict[tuple, list] = {}
_SHARD_POOL_LOCK = threading.Lock()


def _shard_pool_key() -> tuple:
    # UrlSeenShard is read at call time: rebinding the module global swaps
    # the actor class, and such shards get a pool of their own
    return (*session_key(), UrlSeenShard)


def _take_shards(n: int, mode: str, bloom_bits: int) -> list:
    """``n`` empty seen shards of ``mode``: idle ones from the pool, reset,
    plus new actors for the rest."""
    key = _shard_pool_key()
    with _SHARD_POOL_LOCK:
        for k in [k for k in _SHARD_POOL if k[:2] != key[:2]]:
            del _SHARD_POOL[k]  # an earlier session's handles
        idle = _SHARD_POOL.setdefault(key, [])
        shards, idle[:] = idle[:n], idle[n:]
    try:
        ray.get([s.reset.remote(mode, bloom_bits) for s in shards])
    except ray.exceptions.RayActorError:
        # a pooled actor died while idle: drop the pool, start afresh
        with _SHARD_POOL_LOCK:
            shards += _SHARD_POOL.pop(key, [])
        _kill_shards(shards)
        shards = []
    except BaseException:
        _kill_shards(shards)
        raise
    actor = ray.remote(key[2])
    new = [actor.remote(mode, bloom_bits) for _ in range(n - len(shards))]
    for s in new:
        s.n_items.remote()  # fire-and-forget: actor processes start spawning
        # NOW, overlapped with driver-side seed normalization — otherwise the
        # spawn (~1-2 s for 8 processes) lands on round 0's critical path at
        # the first claim/offer
    return shards + new


def _return_shards(shards: list) -> None:
    for s in shards:
        s.reset.remote()  # ordered before the next crawl's reset
    key = _shard_pool_key()
    with _SHARD_POOL_LOCK:
        _SHARD_POOL.setdefault(key, []).extend(shards)


def _kill_shards(shards: list) -> None:
    for s in shards:
        ray.kill(s)


def _seed_frontier(
    seeds: list[str],
    shards: list,
    n_shards: int,
    robots: dict | None,
    use_cache: bool = True,
) -> tuple[pa.Table, str]:
    """Driver-side round-0 admission: canonical seed list, robots-gated,
    deduplicated here (unless ``use_cache`` is off), claimed on the shards
    with ``bulk_add`` and ranked densely from 0. Returns (frontier,
    start_url)."""
    start_url = canonicalize(ensure_scheme(seeds[0]))
    ordered: list[str] = []
    seen_local: set[str] = set()
    for s in seeds:
        c = canonicalize(ensure_scheme(s))
        if (use_cache and c in seen_local) or not robots_allows(c, robots):
            continue
        seen_local.add(c)
        ordered.append(c)
    # claim on the shards — keeps shard state authoritative
    seed_arr = np.asarray(ordered, dtype=object)
    ray.get(
        [
            shards[s].bulk_add.remote(seed_arr[rows].tolist())
            for s, rows in iter_shard_groups(seed_arr, n_shards)
        ]
    )
    tbl = pa.Table.from_arrays(
        [
            pa.array(ordered, pa.string()),
            pa.array([host_of(u) for u in ordered], pa.string()),
            pa.array(np.zeros(len(ordered), dtype=np.int32)),
            pa.array(np.arange(len(ordered), dtype=np.int64)),
        ],
        schema=FRONTIER_SCHEMA,
    )
    return tbl, start_url


def _target_blocks(n_rows: int, cpus: int, batch_size: int) -> int:
    """Block count for a round's frontier: enough blocks that every CPU has
    work, capped so blocks never get degenerate."""
    desired = max(
        -(-n_rows // batch_size),  # ceil
        min(cpus, -(-n_rows // 64)),
    )
    return max(1, min(desired, 4 * cpus))


def _checkpoint_round(
    out_dir: str,
    r: int,
    frontier: pa.Table | Dataset | None,
    seed_tbl: pa.Table | None,
    metrics: list[dict],
) -> None:
    """Write round r's checkpoint and atomically promote it. ``frontier``
    is the next pending frontier: the driver's table (None when empty) or,
    above ``_DRIVER_ROWS``, a Dataset streamed through ``write_parquet``.

    The URL-seen lineage needs NO separate claims files: every claimed url
    sits in the pending frontier at the end of its claim round (it is only
    removed by being fetched in a LATER round), so the union of all rounds'
    frontier files + the seed list reproduces the full seen set on resume.
    Seeds are the one exception (fetched in round 0, never pending at a
    checkpoint) and get their own tiny file."""
    tmp = os.path.join(out_dir, "rounds", f".r{r:04d}.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "frontier"), exist_ok=True)

    if isinstance(frontier, Dataset):
        frontier.write_parquet(os.path.join(tmp, "frontier"))
    else:
        pq.write_table(
            FRONTIER_SCHEMA.empty_table() if frontier is None else frontier,
            os.path.join(tmp, "frontier", "data.parquet"),
        )

    if seed_tbl is not None and seed_tbl.num_rows:
        pq.write_table(seed_tbl.select(["url"]), os.path.join(tmp, "seeds.parquet"))

    pq.write_table(pa.Table.from_pylist(metrics), os.path.join(tmp, "metrics.parquet"))
    final = _round_dir(out_dir, r)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)


class _DeferSigint:
    """Defer Ctrl-C to round boundaries (reference
    delayed_kb_interrupt.py:9-28): a SIGINT arriving mid-round is recorded
    and re-raised as KeyboardInterrupt AFTER the in-flight round body and
    checkpoint submission complete, so round atomicity (and therefore
    resume exactness) survives an interactive interrupt. No-op outside the
    main thread (signal handlers can only be installed there)."""

    def __enter__(self):
        self._pending = None
        try:
            self._old = signal.signal(signal.SIGINT, self._capture)
        except ValueError:  # not the main thread
            self._old = None
        return self

    def _capture(self, signum, frame):
        self._pending = (signum, frame)

    def check(self):
        """Raise the deferred interrupt, if any (call at a safe point)."""
        if self._pending is not None:
            self._pending = None
            raise KeyboardInterrupt

    def __exit__(self, *exc):
        if self._old is not None:
            signal.signal(signal.SIGINT, self._old)
            if self._pending is not None and exc == (None, None, None):
                raise KeyboardInterrupt
        return False


class _CheckpointThread(threading.Thread):
    """Checkpoint writer whose failure is NOT silent: a swallowed write
    error would let later rounds promote past a missing one, and resume's
    claim replay (which globs every round dir) would silently rebuild an
    incomplete seen set. join_and_raise re-raises in the driver."""

    def __init__(self, *args):
        super().__init__(target=self._run, args=args)
        self.error: BaseException | None = None

    def _run(self, *args):
        try:
            _checkpoint_round(*args)
        except BaseException as e:  # noqa: BLE001 — must reach the driver
            self.error = e

    def join_and_raise(self):
        self.join()
        if self.error is not None:
            raise RuntimeError("checkpoint write failed") from self.error


def _find_last_complete_round(out_dir: str) -> int | None:
    rounds = glob.glob(os.path.join(out_dir, "rounds", "r[0-9]*"))
    if not rounds:
        return None
    # numeric max — lexicographic sort breaks past round 9999 (r10000 < r9999)
    return max(int(os.path.basename(r)[1:]) for r in rounds)


def _restore(
    out_dir: str, shards: list, n_shards: int
) -> tuple[list[str], int, list[dict]]:
    """Rebuild the seen state from the checkpoints (claims replayed across
    ALL rounds); return the last complete round's frontier files, the next
    round's index and the metrics so far."""
    last = _find_last_complete_round(out_dir)
    if last is None:
        raise RuntimeError(
            f"nothing to resume from: no complete round checkpoints under "
            f"{os.path.join(out_dir, 'rounds')} (a re-crawl reconcile discards "
            f"old checkpoints — run without --resume)"
        )
    # clean partial work from EVERY round past the last complete checkpoint:
    # round last+2 may have started writing store parts while checkpoint
    # last+1 was still in flight, and a stale partial dir would leak rows
    # into read_store if the resumed run is truncated with max_rounds
    for d in glob.glob(os.path.join(out_dir, "store", "r[0-9]*")):
        if int(os.path.basename(d)[1:]) > last:
            shutil.rmtree(d, ignore_errors=True)
    for t in glob.glob(os.path.join(out_dir, "rounds", ".r*.tmp")):
        shutil.rmtree(t, ignore_errors=True)

    # seen set = seeds ∪ union of every round's pending frontier (each
    # claimed url is pending at the end of its claim round — see
    # _checkpoint_round docstring)
    claim_files: list[str] = []
    for r in range(last + 1):
        claim_files += glob.glob(os.path.join(_round_dir(out_dir, r), "frontier", "*.parquet"))
        claim_files += glob.glob(os.path.join(_round_dir(out_dir, r), "seeds.parquet"))
    claims_ds = ray.data.read_parquet(claim_files, columns=["url"])

    sentinel = route_sentinel()

    def bulk(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_numpy(zero_copy_only=False)
        ray.get(
            [
                shards[s].bulk_add.remote(urls[rows].tolist())
                for s, rows in iter_shard_groups(urls, n_shards, sentinel)
            ]
        )
        return pa.Table.from_pylist([{"n": len(urls)}])

    claims_ds.map_batches(bulk, batch_format="pyarrow").count()

    metrics_tbl = pq.read_table(os.path.join(_round_dir(out_dir, last), "metrics.parquet"))
    frontier_files = glob.glob(os.path.join(_round_dir(out_dir, last), "frontier", "*.parquet"))
    return frontier_files, last + 1, metrics_tbl.to_pylist()


def crawl(
    corpus_path: str,
    seeds: list[str],
    out_dir: str,
    cfg: CrawlConfig | None = None,
    resume: bool = False,
    **overrides,
) -> CrawlResult:
    """Run (or resume) a crawl. See module docstring for the round anatomy."""
    if not seeds:
        raise ValueError("crawl() needs at least one seed url")
    cfg = replace(cfg or CrawlConfig(), **overrides)
    if not 0 <= cfg.max_depth <= claim.MAX_DEPTH:
        raise ValueError(f"max_depth must be in 0..{claim.MAX_DEPTH}, got {cfg.max_depth}")
    if cfg.seen_shards < 1:
        raise ValueError(f"seen_shards must be >= 1, got {cfg.seen_shards}")
    if cfg.bloom_bits < 64 or cfg.bloom_bits % 64:
        raise ValueError(f"bloom_bits must be a positive multiple of 64, got {cfg.bloom_bits}")
    for knob in ("fetch_batch_size", "parse_batch_size"):
        if getattr(cfg, knob) < 1:
            raise ValueError(f"{knob} must be >= 1, got {getattr(cfg, knob)}")
    if cfg.fetch_mode not in FETCH_MODES:
        raise ValueError(
            f"unknown fetch_mode {cfg.fetch_mode!r} (expected one of {FETCH_MODES})"
        )
    if cfg.seen_mode not in SEEN_MODES:
        raise ValueError(
            f"unknown seen_mode {cfg.seen_mode!r} (expected one of {SEEN_MODES})"
        )
    if cfg.proxy is not None:
        from spider_ray.config import validate_proxy

        validate_proxy(cfg.proxy)  # S2: fail fast on bad proxy format
    if cfg.per_host_budget is not None and cfg.per_host_budget < 1:
        raise ValueError(
            "per_host_budget must be >= 1 (0 would defer every URL forever — "
            "the reference's Semaphore(0) hangs the same way, crawler.py:82)"
        )
    if not resume:
        # a fresh crawl owns the whole out_dir: stale store/rounds dirs from
        # an earlier (possibly deeper) run would otherwise leak into
        # read_store() and hijack a later --resume
        shutil.rmtree(os.path.join(out_dir, "store"), ignore_errors=True)
        shutil.rmtree(os.path.join(out_dir, "rounds"), ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "store"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "rounds"), exist_ok=True)

    if isinstance(cfg.robots, str):
        # load (and fail on) the robots table before any actors exist
        from spider_ray.robots import load_robots_table

        rules, table_budgets = load_robots_table(cfg.robots)
        # robots-derived budgets may only TIGHTEN the user's global cap,
        # never loosen it; explicit cfg.host_budgets entries win outright
        if cfg.per_host_budget is not None:
            table_budgets = {
                h: min(b, cfg.per_host_budget) for h, b in table_budgets.items()
            }
        cfg = replace(
            cfg, robots=rules, host_budgets={**table_budgets, **(cfg.host_budgets or {})}
        )
    if cfg.host_budgets and any(b < 1 for b in cfg.host_budgets.values()):
        raise ValueError("host_budgets values must be >= 1 (0 defers forever)")

    shards = _take_shards(cfg.seen_shards, cfg.seen_mode, cfg.bloom_bits)
    try:
        result = _crawl_rounds(corpus_path, seeds, out_dir, cfg, resume, shards)
    except BaseException:
        # a failed crawl's shards hold half a round of state: never pool them
        _kill_shards(shards)
        raise
    _return_shards(shards)
    return result


def _crawl_rounds(
    corpus_path: str,
    seeds: list[str],
    out_dir: str,
    cfg: CrawlConfig,
    resume: bool,
    shards: list,
) -> CrawlResult:
    """The round loop of ``crawl`` on shards the caller owns."""
    # the per-batch fetch of either mode, from the broadcast corpus or the
    # corpus path (make_fetch_fn is looked up at call time: a rebound one
    # wraps it)
    fetch = fetch_mod.make_fetch_fn(
        load_corpus_ref(corpus_path) if cfg.fetch_mode == "indexed" else corpus_path
    )

    start_url = canonicalize(ensure_scheme(seeds[0]))
    parent_value = human_repr(start_url)
    cpus = int(ray.cluster_resources().get("CPU", 4))

    def blocks(n_rows: int) -> int:
        return _target_blocks(n_rows, cpus, cfg.fetch_batch_size)

    # front: the next round's frontier — an Arrow table up to _DRIVER_ROWS
    # rows, a materialized Dataset above
    if resume:
        files, round_idx, metrics = _restore(out_dir, shards, cfg.seen_shards)
        pending_count = sum(pq.read_metadata(f).num_rows for f in files)
        if pending_count > _DRIVER_ROWS:
            front = ray.data.read_parquet(files).materialize()
        else:
            front = pq.read_table(files, schema=FRONTIER_SCHEMA)
        last = metrics[-1]
        next_rank = last["next_rank"]
        total_calls = last["total_calls"]
        crawled_cum = last["crawled_cum"]
        seed_tbl = None
    else:
        seed_tbl, start_url = _seed_frontier(
            seeds, shards, cfg.seen_shards, cfg.robots, cfg.use_cache
        )
        parent_value = human_repr(start_url)
        front = seed_tbl
        pending_count = seed_tbl.num_rows
        round_idx, next_rank = 0, seed_tbl.num_rows
        total_calls, crawled_cum = 0, 0
        metrics = []

    rounds_run = 0
    ckpt_thread: threading.Thread | None = None
    intr = _DeferSigint()
    intr.__enter__()  # defer Ctrl-C to round boundaries
    try:
        while pending_count > 0 and (cfg.max_rounds is None or rounds_run < cfg.max_rounds):
            r = round_idx
            t0 = time.perf_counter()
            store_dir = _store_round_dir(out_dir, r)
            shutil.rmtree(store_dir, ignore_errors=True)  # crashed-attempt leftovers
            os.makedirs(store_dir)

            t_split = time.perf_counter()
            # the split takes the frontier as a Dataset (the benchmark's
            # rebound split reads its blocks; below the bound it is the one
            # Dataset a round builds) and the driver's table beside it
            held = front if isinstance(front, pa.Table) else None
            pending = front if held is None else ray.data.from_arrow(held)
            fetch_now, deferred = politeness_split(
                pending,
                cfg.per_host_budget,
                cfg.host_budgets,
                driver_rows=_DRIVER_ROWS,
                table=held,
            )
            t_politeness = time.perf_counter() - t_split
            inputs, n_fetch = _body_blocks(front if deferred is None else fetch_now, blocks)
            n_defer = pending_count - n_fetch

            # the round body: one task per block, fetch → parse → store-part
            # write → robots gate → dedup+claim OFFER to the seen shards
            # (fused in expand.py). Only per-batch counts come back;
            # candidates never hit the object store. The candidates' one
            # unavoidable all-to-all is the url-hash actor routing itself.
            # --no-cache (use_cache.py:19-28) admits every candidate
            # occurrence: nothing is offered or claimed, and the stage
            # returns the candidate rows instead of counts.
            stage = make_parse_store_expand(
                start_url,
                parent_value,
                cfg.max_depth,
                store_dir,
                offer_to=(
                    (shards, r + 1, cfg.seen_shards, route_sentinel())
                    if cfg.use_cache
                    else None
                ),
                robots_rules=cfg.robots,
            )
            sizes, outs = [], []
            for block in inputs:
                n_out, out = _round_body_task.remote(
                    block, fetch, cfg.fetch_batch_size, stage, cfg.parse_batch_size
                )
                sizes.append(n_out)
                outs.append(out)
            if cfg.use_cache:
                counts = [t for t in ray.get(outs) if t is not None]
                crawled_this = sum(pa.compute.sum(t.column("crawled")).as_py() for t in counts)
                n_cand = sum(pa.compute.sum(t.column("candidates")).as_py() for t in counts)
            else:
                sizes = ray.get(sizes)
                crawled_this = _store_rows_count(store_dir)
                n_cand = sum(sizes)
            t_parse = time.perf_counter() - t0

            t1 = time.perf_counter()
            ranked, n_new = None, 0
            if n_cand > 0:
                if cfg.use_cache:
                    source = [s.harvest.remote(r + 1) for s in shards]
                else:
                    source = [out for out, n in zip(outs, sizes) if n]
                ranked, n_new = _refill(source, cfg.use_cache, n_cand, next_rank, blocks)
            t_refill = time.perf_counter() - t1

            next_rank += n_new
            total_calls += n_fetch
            crawled_cum += crawled_this
            pending_count = n_defer + n_new

            # next frontier: deferred + ranked, on the driver up to the bound
            parts = [p for p in (deferred if n_defer else None, ranked) if p is not None]
            if pending_count > _DRIVER_ROWS:
                # materialized once: the deferred filter then runs once, not
                # once per consumer (checkpoint write, next split)
                front = reduce(
                    Dataset.union,
                    [p if isinstance(p, Dataset) else ray.data.from_arrow(p) for p in parts],
                ).materialize()
            elif pending_count == 0:
                front = None
            else:
                front = pa.concat_tables(
                    [
                        p if isinstance(p, pa.Table) else collect_table(p).select(FRONTIER_COLS)
                        for p in parts
                    ]
                )

            metrics.append(
                {
                    "round": r,
                    "fetched": n_fetch,
                    "fetch_blocks": len(inputs),
                    "crawled": crawled_this,
                    "misses": n_fetch - crawled_this,
                    "claimed": n_new,
                    "candidates": n_cand,
                    "deferred": n_defer,
                    "elapsed_s": time.perf_counter() - t0,
                    "t_politeness": t_politeness,
                    "t_fetch_parse": t_parse,
                    "t_frontier_refill": t_refill,
                    "total_calls": total_calls,
                    "crawled_cum": crawled_cum,
                    "next_rank": next_rank,
                }
            )
            LOG.info(
                "crawl_info round=%d fetched=%d crawled=%d misses=%d "
                "claimed=%d deferred=%d elapsed=%.2fs",
                r,
                n_fetch,
                crawled_this,
                n_fetch - crawled_this,
                n_new,
                n_defer,
                metrics[-1]["elapsed_s"],
            )
            # checkpoint r overlaps round r+1's heavy execution via a single
            # writer thread; threads are serialized (join before submit) so
            # round dirs promote strictly in order — resume correctness depends
            # on rounds/rK existing for every K < last
            if ckpt_thread is not None:
                ckpt_thread.join_and_raise()
            ckpt_thread = _CheckpointThread(
                out_dir, r, front, seed_tbl if r == 0 else None, list(metrics)
            )
            ckpt_thread.start()
            seed_tbl = None
            round_idx += 1
            rounds_run += 1
            # a Ctrl-C captured mid-round surfaces HERE, at the round
            # boundary (round r's checkpoint is already submitted, so resume
            # is exact) — without this, an interrupt during an unbounded
            # crawl would be swallowed until every round completed
            intr.check()

        if ckpt_thread is not None:
            ckpt_thread.join_and_raise()
        seen_count = sum(ray.get([s.n_items.remote() for s in shards]))
        shard_stats = (
            ray.get([s.stats.remote() for s in shards])
            if cfg.collect_shard_stats
            else []
        )
        LOG.info(
            "crawl_done rounds=%d crawled=%d total_calls=%d seen=%d finished=%s",
            len(metrics),
            crawled_cum,
            total_calls,
            seen_count,
            pending_count == 0,
        )
        intr.check()  # a deferred Ctrl-C surfaces before reporting success
    finally:
        # restore the SIGINT handler WITHOUT raising (a raise here would
        # mask the original exception), then join the checkpoint writer
        # thread: it must not outlive a failed crawl (crawl() kills the
        # failed crawl's shards)
        intr._old is not None and signal.signal(signal.SIGINT, intr._old)
        if ckpt_thread is not None and ckpt_thread.is_alive():
            ckpt_thread.join()
    return CrawlResult(
        out_dir=out_dir,
        rounds=metrics,
        total_calls=total_calls,
        crawled=crawled_cum,
        seen_count=seen_count,
        finished=pending_count == 0,
        shard_stats=shard_stats,
    )


def read_store(
    out_dir: str, canonical_order: bool = False, columns: list[str] | None = None
) -> Dataset:
    """The crawl output as a Dataset (the reference's ``url`` table,
    schema.py:11-19, with text inline instead of side files).

    Pass ``columns`` to prune at the read — a query that never touches the
    page ``text`` must not scan it (on a 10^10-row store the text column IS
    the store; every metadata query would otherwise be a full-corpus scan)."""
    files = sorted(glob.glob(os.path.join(out_dir, "store", "r[0-9]*", "*.parquet")))
    if not files:  # empty store (e.g. freshly 'cobweb create'd) → empty table
        from spider_ray.stages.expand import STORE_SCHEMA

        empty = STORE_SCHEMA.empty_table()
        return ray.data.from_arrow(empty.select(columns) if columns else empty)
    # clean read: store parts are engine-written (metadata-free), but the
    # finalize_store retry net can rewrite parts through pandas blocks —
    # stripping at the read keeps hash(Schema) working downstream either way
    from spider_ray.blockutil import read_clean_parquet

    sort_keys = ["depth", "discovery_rank"]
    read_cols = columns
    extra = []
    if canonical_order and columns is not None:
        # the sort needs its keys — read them alongside the pruned
        # selection and drop them after ordering
        extra = [k for k in sort_keys if k not in columns]
        read_cols = columns + extra
    ds = read_clean_parquet(files, columns=read_cols)
    if canonical_order:
        ds = ds.sort(sort_keys)
        if extra:
            ds = ds.drop_columns(extra)
    return ds

"""Per-host politeness: round-scoped fetch budgets with deferral.

The reference's ``--concur`` semaphore never actually limits anything (quirk
q5, crawler.py:82) — the engine implements the INTENDED semantics (a per-host
fetch budget per round). Deferral delays a fetch; it never drops a row and
never re-ranks one: claims happen at frontier-admission time, and a deferred
row keeps its ``(depth, rank)`` (SURVEY.md §7 hard-part 4). So budgets leave
the set of stored urls unchanged. They DO change the canonical order: a
deferred page is fetched in a later round, so the links it adds are claimed
later, and its children get later ranks than in an unthrottled crawl, and
sometimes deeper depths (a page that an unthrottled crawl reaches through
a deferred parent may be claimed first through a deeper one). The
sequential oracle (``spider_ray.oracle``, same ``per_host_budget``) defines
the budgeted order, and the engine matches it.

Three physical paths, picked per call:

- **Driver** — the frontier is already materialized and holds at most
  ``driver_rows`` rows (the crawl passes its one bound on frontier metadata
  the driver may hold, ``pipelines/crawl.py:_DRIVER_ROWS``). Its blocks
  come to the driver with one ``ray.get`` of the block refs (``blockutil.
  collect_table``, which starts no execution either), one call of each
  kernel below gives the thresholds, and ``_fetch_now`` flags the rows. No
  Ray Data execution runs: ``fetch_now`` comes back already cut into
  ``fetch_blocks(n)`` slices and ``deferred`` as one block, both
  materialized, so their counts are block metadata.
- **Broadcast** — above ``driver_rows`` (or on a lazy frontier), with at
  most ``_BROADCAST_LIMIT`` throttled hosts: the thresholds table goes out
  as one object and a ``map_batches`` flags the rows.
- **``shard_join``** — above ``_BROADCAST_LIMIT`` throttled hosts (the
  10^8-host path): the frontier is joined with the thresholds on host.

All three flag rows with the same Arrow kernel, ``_fetch_now``.

Hot-host-safe shape of the two distributed paths (SURVEY.md §7 hard-part
5): "keep the b smallest ranks per host" is computed WITHOUT ever putting
one host's rows in one task. Ranks are globally unique ints, so the
selection is equivalent to a per-host RANK THRESHOLD (the b-th smallest
rank), and the threshold is computed in two vectorized stages:

1. per-block partial (``partial_topb``): each block keeps at most b rows
   per host (pandas sort + cumcount — C-level), so a 50 %-skewed
   10^10-row frontier contributes ≤ b × n_blocks candidate rows per host,
   spread across tasks;
2. per-host reduce (``shard_thresholds``) over the REDUCED candidates picks
   the b-th smallest rank.

The reduce is one ``blockutil.shard_exchange`` on host (every candidate of
a host lands in one kernel call); the thresholds table is one row per
THROTTLED host. The driver path runs the same two kernels once each over
the whole frontier. All three paths are tested equal.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset
from ray.data.dataset import MaterializedDataset

from spider_ray.blockutil import collect_table, presplit, shard_exchange, shard_join

# hosts whose thresholds are broadcast as one table; past it the frontier is
# joined with the thresholds through a shard exchange on host
_BROADCAST_LIMIT = 1_000_000

_THRESHOLD_SCHEMA = pa.schema([("host", pa.string()), ("_thr", pa.int64())])


def _fetch_now(tbl: pa.Table, thr: pa.Table):
    """True for a row of an unthrottled host (no row in ``thr``, a
    thresholds table) or a rank at or below its host's threshold."""
    t = pc.take(thr["_thr"], pc.index_in(tbl["host"], value_set=thr["host"].combine_chunks()))
    return pc.fill_null(pc.less_equal(tbl["rank"], t), True)


def _split_on_driver(
    pending: MaterializedDataset, partial_topb, shard_thresholds, fetch_blocks
) -> tuple[Dataset, Dataset | None]:
    """The driver path (module docstring): the frontier's blocks by one
    ``collect_table``, one call of each kernel, one flag."""
    tbl = collect_table(pending)
    if tbl is None:
        return pending, None
    tbl = tbl.replace_schema_metadata(None)
    cand = partial_topb(tbl.select(["host", "rank"]).to_pandas())
    if cand.num_rows == 0:
        return pending, None  # no throttled host in this frontier
    now = _fetch_now(tbl, shard_thresholds(cand.to_pandas()))
    fetch_now = tbl.filter(now)
    return (
        presplit(fetch_now, fetch_blocks(fetch_now.num_rows)),
        ray.data.from_arrow(tbl.filter(pc.invert(now))),
    )


def politeness_split(
    pending: Dataset,
    per_host_budget: int | None,
    host_budgets: dict[str, int] | None = None,
    *,
    driver_rows: int = 0,
    fetch_blocks: Callable[[int], int] = lambda n: 1,
) -> tuple[Dataset, Dataset | None]:
    """→ (fetch_now, deferred). With no budget at all, everything fetches
    now. ``host_budgets`` (e.g. derived from robots crawl_delay_ms —
    spider_ray.robots) overrides the global default per host; a host with
    neither budget is unthrottled. When the frontier holds no throttled
    host, ``deferred`` is None and ``fetch_now`` is ``pending``.

    A materialized ``pending`` of at most ``driver_rows`` rows is split on
    the driver, with ``fetch_now`` cut into ``fetch_blocks(n_fetch)``
    blocks; both parts come back materialized."""
    if per_host_budget is None and not host_budgets:
        return pending, None

    budget = per_host_budget
    overrides = host_budgets or {}
    max_budget = max([budget or 0, *overrides.values()])

    def partial_topb(batch: pd.DataFrame) -> pa.Table:
        d = batch[["host", "rank"]]
        if budget is None:
            # only override hosts are throttled — everything else is
            # irrelevant to threshold computation
            d = d[d["host"].isin(overrides)]
        d = d.sort_values(["host", "rank"])
        idx = d.groupby("host", sort=False).cumcount()
        # keep ≥1 row per throttled host even when every budget is 0, so the
        # host still reaches the threshold reduce (which then defers it)
        d = d[idx < max(max_budget, 1)]
        return pa.Table.from_pandas(d, preserve_index=False).replace_schema_metadata(None)

    def shard_thresholds(g: pd.DataFrame) -> pa.Table:
        """ONE vectorized pass per call (never per host): lexsort by
        (host, rank), find host boundaries, index the b-th smallest rank of
        each host. b ≤ 0 (a host_budgets override meaning 'skip this
        round') → threshold -1: ranks are non-negative, so every row of
        that host defers (min(b,len)-1 would index ranks[-1] — the LARGEST
        rank — and silently fetch everything)."""
        hosts = g["host"].to_numpy()
        ranks = g["rank"].to_numpy()
        order = np.lexsort((ranks, hosts))
        hosts, ranks = hosts[order], ranks[order]
        new = np.empty(len(hosts), dtype=bool)
        new[0] = True
        new[1:] = hosts[1:] != hosts[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(hosts)))
        g_hosts = hosts[starts]
        if overrides:
            b = pd.Series(g_hosts).map(overrides)
            b = (b.fillna(-1 if budget is None else budget)).to_numpy(np.int64)
        else:
            b = np.full(len(g_hosts), budget, dtype=np.int64)
        eff = np.minimum(b, sizes) - 1
        thr = np.where(eff >= 0, ranks[starts + np.maximum(eff, 0)], -1)
        return pa.table(
            {"host": pa.array(g_hosts, pa.string()), "_thr": pa.array(thr.astype(np.int64))},
            schema=_THRESHOLD_SCHEMA,
        )

    if isinstance(pending, MaterializedDataset) and pending.count() <= driver_rows:
        return _split_on_driver(pending, partial_topb, shard_thresholds, fetch_blocks)

    cand = pending.map_batches(partial_topb, batch_format="pandas")

    # per-host candidate sets are ≤ max_budget × n_blocks rows — bounded
    # even at 100 % skew (this reduce runs over the reduced candidates,
    # never the frontier)
    thresholds = shard_exchange(cand, "host", shard_thresholds, _THRESHOLD_SCHEMA).materialize()
    n_hosts = thresholds.count()
    if n_hosts == 0:
        # no throttled host present in this round's frontier (e.g. override
        # hosts crawled out in earlier rounds): everything fetches now —
        # skip the flag map + materialize + two filter executions over the
        # whole frontier (behavior-identical; crawl handles deferred=None)
        return pending, None

    if n_hosts <= _BROADCAST_LIMIT:
        thr_ref = ray.put(collect_table(thresholds))

        def flag(batch: pa.Table) -> pa.Table:
            from spider_ray.stages.broadcast import get_broadcast

            # metadata-free out: the b'pandas' blob breaks hash(Schema) in
            # downstream coalesces and the frontier union
            batch = batch.replace_schema_metadata(None)
            return batch.append_column("_fetch_now", _fetch_now(batch, get_broadcast(thr_ref)))

        flagged = pending.map_batches(flag, batch_format="pyarrow")
    else:

        def join_flag(rows: pd.DataFrame, thr: pd.DataFrame) -> pa.Table:
            rows = pa.Table.from_pandas(rows, preserve_index=False).replace_schema_metadata(None)
            thr = pa.Table.from_pandas(thr, schema=_THRESHOLD_SCHEMA, preserve_index=False)
            return rows.append_column("_fetch_now", _fetch_now(rows, thr))

        flagged = shard_join(
            pending,
            thresholds,
            "host",
            join_flag,
            # never reached: the frontier has rows here, and every one of
            # them comes back flagged
            pa.schema([]),
        )

    flagged = flagged.materialize()  # frontier metadata only — small
    fetch_now = flagged.filter(expr="_fetch_now == True").drop_columns(["_fetch_now"])
    deferred = flagged.filter(expr="_fetch_now == False").drop_columns(["_fetch_now"])
    return fetch_now, deferred

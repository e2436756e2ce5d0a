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

Hot-host-safe physical shape (SURVEY.md §7 hard-part 5): "keep the b
smallest ranks per host" is computed WITHOUT ever putting one host's rows in
one task. Ranks are globally unique ints, so the selection is equivalent to
a per-host RANK THRESHOLD (the b-th smallest rank), and the threshold is
computed in two vectorized stages:

1. per-block partial: each block keeps at most b rows per host (pandas
   sort + cumcount — C-level), so a 50 %-skewed 10^10-row frontier
   contributes ≤ b × n_blocks candidate rows per host, spread across tasks;
2. per-host reduce over the REDUCED candidates picks the b-th smallest rank.

The thresholds table is one row per THROTTLED host. It is applied as a
broadcast dict when small (≤ ``broadcast_limit`` hosts — always true in this
sandbox) and as a left-outer hash JOIN on host beyond that (the 10^8-host
path); both paths are tested equal.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

_BROADCAST_LIMIT = 1_000_000


def politeness_split(
    pending: Dataset,
    per_host_budget: int | None,
    host_budgets: dict[str, int] | None = None,
    broadcast_limit: int = _BROADCAST_LIMIT,
) -> tuple[Dataset, Dataset]:
    """→ (fetch_now, deferred). With no budget at all, everything fetches
    now. ``host_budgets`` (e.g. derived from robots crawl_delay_ms —
    spider_ray.robots) overrides the global default per host; a host with
    neither budget is unthrottled."""
    if per_host_budget is None and not host_budgets:
        return pending, None

    budget = per_host_budget
    overrides = host_budgets or {}
    max_budget = max([budget or 0, *overrides.values()])

    from spider_ray.blockutil import default_shuffle_partitions

    num_shards = default_shuffle_partitions()

    def partial_topb(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch[["host", "rank"]]
        if budget is None:
            # only override hosts are throttled — everything else is
            # irrelevant to threshold computation
            d = d[d["host"].isin(overrides)]
        if not len(d):
            return pd.DataFrame(
                {
                    "_shard": pd.Series([], dtype=np.int64),
                    "host": pd.Series([], dtype=object),
                    "rank": pd.Series([], dtype=np.int64),
                }
            )
        d = d.sort_values(["host", "rank"])
        idx = d.groupby("host", sort=False).cumcount()
        # keep ≥1 row per throttled host even when every budget is 0, so the
        # host still reaches the threshold reduce (which then defers it)
        d = d[idx < max(max_budget, 1)]
        # shard by host hash: one host lands wholly in one shard, so the
        # b-th-smallest reduce is exact per shard
        shard = (pd.util.hash_array(d["host"].to_numpy()) % num_shards).astype(np.int64)
        return pd.DataFrame(
            {"_shard": shard, "host": d["host"], "rank": d["rank"]}
        )

    cand = pending.map_batches(partial_topb, batch_format="pandas")

    def shard_thresholds(g: pd.DataFrame) -> pd.DataFrame:
        """ONE vectorized pass per shard (never per host): lexsort by
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
        # metadata-free Arrow out: a pandas-built block carries the
        # b'pandas' schema blob, which breaks hash(Schema) in every
        # downstream coalesce (see blockutil.strip_schema_metadata)
        return pa.table(
            {"host": pa.array(g_hosts, pa.string()), "_thr": pa.array(thr.astype(np.int64))}
        )

    # per-host candidate sets are ≤ max_budget × n_blocks rows — bounded
    # even at 100 % skew (this reduce runs over the reduced candidates,
    # never the frontier)
    from spider_ray.blockutil import drop_empty_blocks

    thresholds = cand.groupby("_shard").map_groups(
        shard_thresholds, batch_format="pandas"
    )
    # drop columnless empty partition blocks — they break the join path
    thresholds = drop_empty_blocks(
        thresholds, pa.schema([("host", pa.string()), ("_thr", pa.int64())])
    )
    n_hosts = thresholds.count()
    if n_hosts == 0:
        # no throttled host present in this round's frontier (e.g. override
        # hosts crawled out in earlier rounds): everything fetches now —
        # skip the flag map + materialize + two filter executions over the
        # whole frontier (behavior-identical; crawl handles deferred=None
        # and keeps its presplit fast path)
        return pending, None

    if n_hosts <= broadcast_limit:
        tbl = thresholds.to_pandas()
        thr_ref = ray.put(dict(zip(tbl["host"], tbl["_thr"].astype(np.int64))))

        def flag(batch: pd.DataFrame) -> pd.DataFrame:
            from spider_ray.stages.broadcast import get_broadcast

            thr = get_broadcast(thr_ref)
            t = batch["host"].map(thr)
            batch = batch.assign(_fetch_now=(t.isna() | (batch["rank"] <= t)))
            # metadata-free Arrow out (the b'pandas' blob breaks
            # hash(Schema) in downstream coalesces / the frontier union)
            return pa.Table.from_pandas(batch, preserve_index=False).replace_schema_metadata(None)

        flagged = pending.map_batches(flag, batch_format="pandas")
    else:
        joined = drop_empty_blocks(pending).join(  # every join input must
            # be empty-block-free — see blockutil.drop_empty_blocks
            thresholds,
            join_type="left_outer",
            num_partitions=max(8, n_hosts // 500_000),
            on=("host",),
        )

        def flag_joined(batch: pd.DataFrame) -> pa.Table:
            t = batch["_thr"]
            batch = batch.assign(_fetch_now=(t.isna() | (batch["rank"] <= t)))
            batch = batch.drop(columns=["_thr"])
            return pa.Table.from_pandas(batch, preserve_index=False).replace_schema_metadata(None)

        flagged = joined.map_batches(flag_joined, batch_format="pandas")

    flagged = flagged.materialize()  # frontier metadata only — small
    fetch_now = flagged.filter(expr="_fetch_now == True").drop_columns(["_fetch_now"])
    deferred = flagged.filter(expr="_fetch_now == False").drop_columns(["_fetch_now"])
    return fetch_now, deferred

"""Relational query ops over the driver test tables.

Each function mirrors a reference capability (SURVEY.md §2 S6/A1/A2/A4/A5 —
select-by-key + limit, count_all, grouped counts, top-k) or a standard
pipeline shape (pre-aggregated groupby, broadcast join, event-time windows),
expressed Ray-Data-first and paired 1:1 with ANSI SQL in
``spider_ray.pipelines.registry`` for the DuckDB oracle.

Determinism contract with the oracle: every aggregate over float money
columns is computed in INTEGER CENTS (``round(x*100)`` as int64) so Ray's
per-block partial sums and DuckDB's sequential sums agree bit-exactly —
float summation order would otherwise differ in the last ulp and break the
driver's value-hash compare.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
from ray.data import Dataset
from ray.data.aggregate import Sum


def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


def _read(sf_dir: str, name: str, columns: list[str]) -> Dataset:
    """Pruned read with the pandas schema-metadata blob stripped AT the
    read (see blockutil.read_clean_parquet) — the blob makes hash(Schema)
    raise in every coalescing step, including the read op's own
    SplitBlocks."""
    from spider_ray.blockutil import read_clean_parquet

    return read_clean_parquet(_t(sf_dir, name), columns=columns)


def count_documents(sf_dir: str) -> pa.Table:
    """A1 count_all (reference postgres_database.py:184-200 → ds.count())."""
    n = _read(sf_dir, "documents", ["doc_id"]).count()
    return pa.table({"n": pa.array([n], pa.int64())})


def catch_by_source(sf_dir: str, source: str = "src7", limit: int = 10) -> Dataset:
    """S6 'catch': select-by-parent + limit (postgres_database.py:144-160),
    keyed on ``source`` with a deterministic ORDER BY (the reference's
    unordered LIMIT is nondeterministic; both sides order by doc_id)."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return ds.filter(expr=f"source == '{source}'").sort("doc_id").limit(limit)


def source_counts(sf_dir: str) -> Dataset:
    """A4 grouped counts (per-'host' skew stats analog), with per-batch
    PARTIAL aggregation (the q1 combiner pattern) — the shuffle carries
    O(sources × blocks) partial rows, never O(documents)."""
    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.append_column(
            "n_docs", pa.array(np.ones(batch.num_rows, dtype=np.int64))
        )
        g = t.group_by("source").aggregate([("n_docs", "sum"), ("n_chars", "sum")])
        # select by NAME ("<col>_sum"), not positional rename_columns —
        # pyarrow's aggregate column ORDER has flipped across versions
        # (keys-first in 16.x, aggregates-first historically)
        return pa.table(
            {
                "source": g.column("source"),
                "n_docs": g.column("n_docs_sum"),
                "total_chars": g.column("n_chars_sum"),
            }
        )

    from spider_ray.blockutil import merge_keyed_sums

    return merge_keyed_sums(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["source"],
        sums=["n_docs", "total_chars"],
        empty_schema=pa.schema(
            [
                ("source", pa.string()),
                ("n_docs", pa.int64()),
                ("total_chars", pa.int64()),
            ]
        ),
    )


def topk_longest_docs(sf_dir: str, k: int = 20) -> Dataset:
    """A5 top-k with deterministic tie-break."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(k)


def _cents(arr: np.ndarray) -> np.ndarray:
    return np.rint(np.asarray(arr, dtype=np.float64) * 100).astype(np.int64)


def _us(col) -> np.ndarray:
    """A date/timestamp column as int64 epoch-µs — the form times cross an
    exchange in (see events_hourly)."""
    return col.to_numpy().astype("datetime64[us]").astype(np.int64)


def _ts_as_us(b: pa.Table) -> pa.Table:
    """``b`` with its ``ts`` column as int64 epoch-µs."""
    return b.set_column(b.schema.get_field_index("ts"), "ts", pa.array(_us(b.column("ts"))))


def _isin_sorted(sorted_keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Membership mask of ``probe`` in ``sorted_keys`` by one vectorized
    searchsorted — the kernel of every semi and anti join here."""
    if not len(sorted_keys):
        return np.zeros(len(probe), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, probe), len(sorted_keys) - 1)
    return sorted_keys[pos] == probe


def q1_pricing_summary(sf_dir: str) -> Dataset:
    """TPC-H-Q1-shaped grouped aggregate with per-batch PARTIAL aggregation:
    each batch emits one partial row per (returnflag, linestatus), then a
    small groupby sums partials — rows shuffled = O(groups × blocks), not
    O(rows) (the pre-aggregate pattern for wide groupbys at scale)."""
    ds = _read(
        sf_dir,
        "lineitem",
        [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ],
    )

    def partial(batch: pa.Table) -> pa.Table:
        # pure numpy/arrow — no pandas conversion on the hot path
        qty_c = _cents(batch.column("l_quantity").to_numpy())
        base_c = _cents(batch.column("l_extendedprice").to_numpy())
        disc_c4 = base_c * (100 - _cents(batch.column("l_discount").to_numpy()))
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty_c": pa.array(qty_c),
                "sum_base_c": pa.array(base_c),
                "sum_disc_c4": pa.array(disc_c4),
                "count_order": pa.array(np.ones(len(qty_c), dtype=np.int64)),
            }
        )
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("sum_qty_c", "sum"),
                ("sum_base_c", "sum"),
                ("sum_disc_c4", "sum"),
                ("count_order", "sum"),
            ]
        )
        # by-name selection — see source_counts for why not rename_columns
        return pa.table(
            {
                "l_returnflag": g.column("l_returnflag"),
                "l_linestatus": g.column("l_linestatus"),
                "sum_qty_c": g.column("sum_qty_c_sum"),
                "sum_base_c": g.column("sum_base_c_sum"),
                "sum_disc_c4": g.column("sum_disc_c4_sum"),
                "count_order": g.column("count_order_sum"),
            }
        )

    from spider_ray.blockutil import merge_keyed_sums

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)
    return merge_keyed_sums(
        partials,
        keys=["l_returnflag", "l_linestatus"],
        sums=["sum_qty_c", "sum_base_c", "sum_disc_c4", "count_order"],
        empty_schema=pa.schema(
            [
                ("l_returnflag", pa.string()),
                ("l_linestatus", pa.string()),
                ("sum_qty_c", pa.int64()),
                ("sum_base_c", pa.int64()),
                ("sum_disc_c4", pa.int64()),
                ("count_order", pa.int64()),
            ]
        ),
    )


def orders_by_segment(sf_dir: str) -> Dataset:
    """Broadcast join: customer (small side) is read once on the driver and
    shipped via ``ray.put``; orders stream through a map_batches lookup —
    no shuffle (SURVEY.md §2.4; the guide's dimension-table pattern)."""
    cust = pq.read_table(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    # broadcast payload is two parallel NUMPY arrays (custkeys sorted +
    # their segments), not a python dict: the per-batch lookup is then one
    # vectorized np.searchsorted instead of an interpreter call per order
    # row (10^9 at the design point)
    ck = np.asarray(cust.column("c_custkey"), dtype=np.int64)
    seg_arr = np.asarray(cust.column("c_mktsegment").to_pylist(), dtype=object)
    order = np.argsort(ck, kind="stable")
    lookup_ref = ray.put((ck[order], seg_arr[order]))

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def join_partial(batch: pa.Table) -> pa.Table:
        from spider_ray.stages.broadcast import get_broadcast

        ck_s, segs = get_broadcast(lookup_ref)  # deserialized once per worker
        keys = batch.column("o_custkey").to_numpy()
        if len(ck_s):
            pos = np.searchsorted(ck_s, keys)
            cand = np.minimum(pos, len(ck_s) - 1)
            hit = ck_s[cand] == keys
            seg = np.take(segs, cand)  # np.take, not fancy indexing (BASELINE.md)
            seg[~hit] = None  # unmatched orders keep the dict-path nulls
        else:  # empty customer table: every order unmatched (all-null)
            seg = np.full(len(keys), None, dtype=object)
        total_c = _cents(batch.column("o_totalprice").to_numpy())
        t = pa.table(
            {
                "mktsegment": pa.array(seg, pa.string()),
                "n_orders": pa.array(np.ones(len(seg), dtype=np.int64)),
                "total_c": pa.array(total_c),
            }
        )
        g = t.group_by("mktsegment").aggregate(
            [("n_orders", "sum"), ("total_c", "sum")]
        )
        # by-name selection — see source_counts for why not rename_columns
        return pa.table(
            {
                "mktsegment": g.column("mktsegment"),
                "n_orders": g.column("n_orders_sum"),
                "total_c": g.column("total_c_sum"),
            }
        )

    from spider_ray.blockutil import merge_keyed_sums

    partials = ds.map_batches(join_partial, batch_format="pyarrow", batch_size=16384)
    return merge_keyed_sums(
        partials,
        keys=["mktsegment"],
        sums=["n_orders", "total_c"],
        empty_schema=pa.schema(
            [
                ("mktsegment", pa.string()),
                ("n_orders", pa.int64()),
                ("total_c", pa.int64()),
            ]
        ),
    )


def events_hourly(sf_dir: str) -> Dataset:
    """Event-time tumbling window (1h) as a vectorized truncate + groupby.

    The window key crosses the shuffle as int64 epoch-µs and is cast back to
    timestamp[us] after the aggregate: Ray's sort-shuffle map re-materializes
    key columns through numpy, where a datetime column nondeterministically
    hits a lossy-precision conversion path (ray.air tensor_extensions warns);
    an int key shuffles the same 8 bytes with no datetime handling at all."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def trunc(batch: pa.Table) -> pa.Table:
        # per-batch PARTIAL count (the q1 combiner pattern): the shuffle
        # carries O(groups × blocks) partial rows, never O(events).
        # floor_temporal keeps the INPUT column's unit — pin to µs before
        # the int64 round-trip (a ns-unit parquet would otherwise come back
        # 1000× off when cast_back assumes timestamp[us])
        hour = pc.floor_temporal(batch.column("ts"), unit="hour").cast(
            pa.timestamp("us")
        )
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "hour": hour.cast(pa.int64()),
                "n": pa.array(np.ones(len(hour), dtype=np.int64)),
            }
        )
        g = t.group_by(["event_type", "hour"]).aggregate([("n", "sum")])
        # by-name selection — see source_counts for why not rename_columns
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "hour": g.column("hour"),
                "n": g.column("n_sum"),
            }
        )

    def cast_back(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("hour"),
            "hour",
            batch.column("hour").cast(pa.timestamp("us")),
        )

    from spider_ray.blockutil import merge_keyed_sums

    return merge_keyed_sums(
        ds.map_batches(trunc, batch_format="pyarrow"),
        keys=["event_type", "hour"],
        sums=["n"],
        empty_schema=pa.schema(
            [("event_type", pa.string()), ("hour", pa.int64()), ("n", pa.int64())]
        ),
    ).map_batches(cast_back, batch_format="pyarrow")


def events_sliding(sf_dir: str, size_min: int = 60, slide_min: int = 30) -> Dataset:
    """Sliding event-time window (size 60 min, slide 30 min) as a union of
    ``size/slide`` shifted tumbling windows — each event lands in exactly
    size/slide windows, all computed in one vectorized pass + one groupby
    (the standard way to express sliding windows on a batch engine)."""
    ds = _read(sf_dir, "events", ["event_type", "ts"])
    n_shifts = size_min // slide_min

    def assign(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy()
        et = batch.column("event_type")
        size = np.timedelta64(size_min, "m")
        slide = np.timedelta64(slide_min, "m")
        outs = []
        for i in range(n_shifts):
            off = slide * i
            start = ((ts - off).astype(f"datetime64[m]").astype(np.int64) // size_min)
            start = (start * size_min).astype("datetime64[m]") + off
            outs.append(
                pa.table(
                    {
                        "event_type": et,
                        # int64 epoch-µs through the shuffle — see
                        # events_hourly for why the key is not a timestamp
                        "window_start": pa.array(
                            start.astype("datetime64[us]").astype(np.int64)
                        ),
                        "n": pa.array(np.ones(len(start), dtype=np.int64)),
                    }
                )
            )
        # per-batch PARTIAL count — the shuffle carries partial rows only
        g = (
            pa.concat_tables(outs)
            .group_by(["event_type", "window_start"])
            .aggregate([("n", "sum")])
        )
        # by-name selection — see source_counts for why not rename_columns
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "window_start": g.column("window_start"),
                "n": g.column("n_sum"),
            }
        )

    def cast_back(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("window_start"),
            "window_start",
            batch.column("window_start").cast(pa.timestamp("us")),
        )

    from spider_ray.blockutil import merge_keyed_sums

    return merge_keyed_sums(
        ds.map_batches(assign, batch_format="pyarrow"),
        keys=["event_type", "window_start"],
        sums=["n"],
        empty_schema=pa.schema(
            [
                ("event_type", pa.string()),
                ("window_start", pa.int64()),
                ("n", pa.int64()),
            ]
        ),
    ).map_batches(cast_back, batch_format="pyarrow")


def top_events_per_type(sf_dir: str, k: int = 3) -> Dataset:
    """Top-k-per-group: the k highest-value events of each type
    (deterministic tie-break by event_id).

    Physical shape: per-BLOCK partial top-k (vectorized pandas sort +
    cumcount — C level), then a merge of the ≤ k × n_blocks × n_types
    partial rows. The old ``groupby.map_groups`` put ALL rows of one
    event_type in one task — with few types that is a handful of giant
    tasks; partial-then-merge shuffles only k rows per (type, block)."""
    ds = _read(sf_dir, "events", ["event_type", "event_id", "value"])

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch
        if "value_c" not in d.columns:
            d = d.assign(value_c=_cents(d["value"].to_numpy()))[
                ["event_type", "event_id", "value_c"]
            ]
        d = d.sort_values(
            ["event_type", "value_c", "event_id"], ascending=[True, False, True]
        )
        keep = d.groupby("event_type", sort=False).cumcount() < k
        return d.loc[keep]

    partials = ds.map_batches(local_topk, batch_format="pandas", batch_size=16384)
    # partials are metadata-sized (k per type per block); final_merge
    # inserts an intermediate repartition(cpus) merge level automatically
    # if partial rows exceed its threshold (the 10^6-block tier)
    from spider_ray.blockutil import final_merge

    return final_merge(
        partials,
        local_topk,
        pa.schema(
            [("event_type", pa.string()), ("event_id", pa.int64()), ("value_c", pa.int64())]
        ),
    )


def top_users_by_events(sf_dir: str, k: int = 10) -> Dataset:
    """Per-batch PARTIAL counts (q1 combiner pattern) → ``shard_exchange``
    on user_id (each shard sums per user and keeps its local top-k, valid
    because the global top-k is a subset of the union of shard top-ks) →
    answer-sized final merge. The exchange carries O(users × blocks) rows,
    never O(events), and nothing pays a user-grain sort."""
    from spider_ray.blockutil import final_merge, shard_exchange

    ds = _read(sf_dir, "events", ["user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.append_column(
            "n_events", pa.array(np.ones(batch.num_rows, dtype=np.int64))
        )
        g = t.group_by("user_id").aggregate([("n_events", "sum")])
        # by-name selection — see source_counts for why not rename_columns
        return pa.table(
            {"user_id": g.column("user_id"), "n_events": g.column("n_events_sum")}
        )

    def shard_topk(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        n = g["n_events"].to_numpy()
        order = np.argsort(uid, kind="stable")
        uid, n = uid[order], n[order]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        uid = uid[starts]
        tot = np.add.reduceat(n, starts)
        top = np.lexsort((uid, -tot))[:k]
        return pa.table(
            {
                "user_id": pa.array(uid[top], pa.int64()),
                "n_events": pa.array(tot[top], pa.int64()),
            }
        )

    def merge_topk(d: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((d["user_id"].to_numpy(), -d["n_events"].to_numpy()))[:k]
        return d.iloc[order].reset_index(drop=True)

    schema = pa.schema([("user_id", pa.int64()), ("n_events", pa.int64())])
    shards = shard_exchange(
        ds.map_batches(partial, batch_format="pyarrow"), "user_id", shard_topk, schema
    )
    return final_merge(shards, merge_topk, schema)


def q3_shipping_priority(
    sf_dir: str,
    segment: str = "BUILDING",
    cutoff: str = "1998-01-01",
    k: int = 10,
    broadcast_customer: bool = True,
) -> Dataset:
    """TPC-H-Q3-shaped 3-table join: top-k orders of one market segment by
    lineitem revenue either side of a date cutoff.

    Physical plan (a LARGE ⋈ LARGE join as a first-class relational query,
    not just inside the crawl's frontier⋈pages stage):

    - customer is the dimension side: the driver reads only (custkey,
      segment), filters to the segment, and broadcasts the matching keys as
      ONE sorted int64 array via ``ray.put`` (the orders_by_segment
      pattern; ~1.2 MB per 10^6 matching customers — broadcast stays sane
      far past the test tier). ``broadcast_customer=False`` switches to
      a ``shard_join`` SEMI-JOIN on custkey for a customer side too big to
      broadcast, both sides filtered at the scan, pytest-pinned equal to
      the broadcast path.
    - orders ⋈ lineitem (both fact tables) is a broadcast-free
      ``shard_join`` on orderkey, both sides filtered AT THE SCAN; lineitem
      revenue is PARTIAL-aggregated per batch first, so the exchange
      carries one row per (orderkey, block) on the big side, never one per
      lineitem row.
    - each shard does one vectorized reduce + searchsorted probe and emits
      only its local top-k; the final merge sees ≤ k rows per shard.

    Dates cross the exchange as int64 epoch-µs (see events_hourly) and are
    cast back to timestamp[us] at the very end. Revenue uses the q1
    integer contract: ``revenue_c4 = Σ cents(extprice) × (100 −
    cents(discount))`` so partial sums match DuckDB bit-exactly."""
    from spider_ray.blockutil import final_merge, shard_join

    cut_us = np.int64(np.datetime64(cutoff, "us").astype(np.int64))
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    if broadcast_customer:
        cust = pq.read_table(
            _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
        )
        keys = cust.filter(pc.equal(cust.column("c_mktsegment"), segment)).column(
            "c_custkey"
        )
        ck_ref = ray.put(np.sort(keys.to_numpy().astype(np.int64)))

        def orders_side(b: pa.Table) -> pd.DataFrame:
            from spider_ray.stages.broadcast import get_broadcast

            cks = get_broadcast(ck_ref)  # sorted custkeys, once per worker
            dt = _us(b.column("o_orderdate"))
            keep = (dt < cut_us) & _isin_sorted(cks, b.column("o_custkey").to_numpy())
            return pd.DataFrame(
                {"o_orderkey": b.column("o_orderkey").to_numpy()[keep], "o_orderdate": dt[keep]}
            )

        order_rows = orders.map_batches(orders_side, batch_format="pyarrow")
    else:
        # Shuffle semi-join path — the documented seam for a customer side
        # too big to broadcast: both sides filter at the scan; the exchange
        # carries (custkey[, orderkey, orderdate]) int64 rows only.
        cust_ds = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

        def cust_side(b: pa.Table) -> pa.Table:
            ck = b.filter(pc.equal(b.column("c_mktsegment"), segment)).column("c_custkey")
            return pa.table({"o_custkey": ck.cast(pa.int64())})

        def ord_side(b: pa.Table) -> pd.DataFrame:
            dt = _us(b.column("o_orderdate"))
            keep = dt < cut_us
            return pd.DataFrame(
                {
                    "o_custkey": b.column("o_custkey").to_numpy()[keep],
                    "o_orderkey": b.column("o_orderkey").to_numpy()[keep],
                    "o_orderdate": dt[keep],
                }
            )

        def shard_semi(c: pd.DataFrame, o: pd.DataFrame) -> pd.DataFrame:
            hit = _isin_sorted(np.sort(c["o_custkey"].to_numpy()), o["o_custkey"].to_numpy())
            return o.loc[hit, ["o_orderkey", "o_orderdate"]]

        order_rows = shard_join(
            cust_ds.map_batches(cust_side, batch_format="pyarrow"),
            orders.map_batches(ord_side, batch_format="pyarrow"),
            "o_custkey",
            shard_semi,
            pa.schema([("o_orderkey", pa.int64()), ("o_orderdate", pa.int64())]),
        )

    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def line_side(b: pa.Table) -> pd.DataFrame:
        keep = _us(b.column("l_shipdate")) > cut_us
        key = b.column("l_orderkey").to_numpy()[keep]
        rev = _cents(b.column("l_extendedprice").to_numpy()[keep]) * (
            100 - _cents(b.column("l_discount").to_numpy()[keep])
        )
        if len(key):  # per-batch PARTIAL sum per orderkey — combiner pattern
            order = np.argsort(key, kind="stable")
            key, rev = key[order], rev[order]
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            key, rev = key[starts], np.add.reduceat(rev, starts)
        return pd.DataFrame({"o_orderkey": key, "revenue_c4": rev})

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        # merge fn for final_merge: top-k + the int64-µs → datetime cast
        # (idempotent — the cast is skipped when a prior level already did
        # it; doing it here instead of a trailing map_batches keeps the
        # schema on EMPTY results, which map_batches would never visit)
        b = b.sort_values(["revenue_c4", "o_orderkey"], ascending=[False, True]).head(k)
        if b["o_orderdate"].dtype == np.int64:
            b = b.assign(
                o_orderdate=b["o_orderdate"].to_numpy().astype("datetime64[us]")
            )
        return b

    def shard_merge(o: pd.DataFrame, li: pd.DataFrame) -> pd.DataFrame:
        if not len(o) or not len(li):
            return topk(pd.DataFrame({c: np.array([], np.int64) for c in schema.names}))
        lk = li["o_orderkey"].to_numpy()
        lr = li["revenue_c4"].to_numpy()
        order = np.argsort(lk, kind="stable")
        lk, lr = lk[order], lr[order]
        starts = np.flatnonzero(np.r_[True, lk[1:] != lk[:-1]])
        uk, ur = lk[starts], np.add.reduceat(lr, starts)
        ok = o["o_orderkey"].to_numpy()
        od = o["o_orderdate"].to_numpy()
        oo = np.argsort(ok, kind="stable")
        ok, od = ok[oo], od[oo]
        pos = np.minimum(np.searchsorted(ok, uk), len(ok) - 1)
        hit = ok[pos] == uk  # inner join: orderkey unique on the orders side
        out = pd.DataFrame(
            {
                "o_orderkey": uk[hit],
                "revenue_c4": ur[hit],
                "o_orderdate": np.take(od, pos[hit]),
            }
        )
        return topk(out)  # ≤ k rows leave each shard

    # the µs→timestamp cast lives inside ``topk`` (idempotently), so this
    # schema is the FINAL one — final_merge returns it as-is on the empty
    # path (a trailing cast map_batches would drop an empty result's schema)
    schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("revenue_c4", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
        ]
    )
    merged = shard_join(
        order_rows,
        line.map_batches(line_side, batch_format="pyarrow"),
        "o_orderkey",
        shard_merge,
        schema,
    )
    return final_merge(merged, topk, schema)


def distinct_users_per_type(sf_dir: str) -> Dataset:
    """Exact COUNT(DISTINCT user_id) per event_type.

    Physical shape: per-batch local distinct of (event_type, user_id) via a
    keys-only Arrow group_by (vectorized, shrinks repeats before anything
    moves), then ONE ``shard_exchange`` on user_id — every user lands in
    exactly one shard, so a per-shard distinct + count is globally exact —
    then a metadata-sized merge sums the partial counts per type. The
    exchange carries the locally-distinct pairs only; that is the
    irreducible cost of an EXACT distinct (the approximate alternative at
    unbounded user cardinality is distinct_users_hll)."""
    from spider_ray.blockutil import merge_keyed_sums, shard_exchange

    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def local_distinct(b: pa.Table) -> pa.Table:
        return b.group_by(["event_type", "user_id"]).aggregate([])

    def shard_count(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(subset=["event_type", "user_id"])
        c = d.groupby("event_type", sort=False).size()
        return pd.DataFrame(
            {
                "event_type": c.index.to_numpy(dtype=object),
                "n_users": c.to_numpy().astype(np.int64),
            }
        )

    schema = pa.schema([("event_type", pa.string()), ("n_users", pa.int64())])
    partials = shard_exchange(
        ds.map_batches(local_distinct, batch_format="pyarrow"),
        "user_id",
        shard_count,
        schema,
    )
    return merge_keyed_sums(
        partials, keys=["event_type"], sums=["n_users"], empty_schema=schema
    )


def distinct_users_hll(sf_dir: str, precision_bits: int = 12) -> pa.Table:
    """Approximate COUNT(DISTINCT user_id) per event_type via HyperLogLog —
    the unbounded-cardinality scale path that ``distinct_users_per_type``'s
    docstring promises: the exact operator's exchange carries every locally
    distinct (type, user) pair, which is O(users); this one's exchange is
    O(types × 2^p) REGISTER rows no matter how many users exist.

    Shape: per-batch vectorized register partials (one ``pd.util.hash_array``
    per batch; register index = hash top p bits, rho = 1 + trailing zeros of
    the suffix — same 2^-k geometric law as the classic leading-zero form,
    and ctz vectorizes exactly: ``log2(w & -w)`` is a float-exact power of
    two). (type, register) is PACKED into one int64 key — 52-bit type hash
    ‖ p-bit register — so both the per-batch merge and the cross-block
    ``shard_exchange`` ride one int key and a ``reduceat`` (a 2-key string
    groupby here measured 7× slower than the EXACT operator — the
    string-sort-shuffle pitfall). Final registers are ≤ types·2^p rows; the
    standard HLL estimate (alpha_m bias factor + linear-counting
    small-range correction) runs on that answer-sized table. Deterministic
    given the pandas build (hash_array is version-stable only within a run
    — fine for an in-run estimate, the same caveat the fetch index guards
    with a sentinel). A 52-bit type-hash collision (odds ~types²/2^53)
    would merge two types' registers — the exact operator is the
    collision-free path.

    Accuracy: σ ≈ 1.04/√(2^p) ≈ 1.6 % at the default p=12;
    tests pin ≤ 5 % against the exact operator at sf0.01. No SQL oracle by
    design (DuckDB's approx_count_distinct is a different HLL
    implementation) — the driver records the rows-only check."""
    from spider_ray.blockutil import shard_exchange

    p = precision_bits
    m = 1 << p
    suffix_bits = np.uint64(64 - p)
    suffix_mask = np.uint64((1 << (64 - p)) - 1)
    ds = _read(sf_dir, "events", ["event_type", "user_id"])

    def _merge_by_kid(kid, rho, et):
        order = np.argsort(kid, kind="stable")
        kid, rho, et = kid[order], rho[order], et[order]
        starts = np.flatnonzero(np.r_[True, kid[1:] != kid[:-1]])
        return kid[starts], np.maximum.reduceat(rho, starts), et[starts]

    def local_registers(b: pa.Table) -> pd.DataFrame:
        h = pd.util.hash_array(b.column("user_id").to_numpy()).astype(np.uint64)
        reg = h >> suffix_bits
        w = h & suffix_mask
        rho = np.full(len(h), int(suffix_bits) + 1, dtype=np.int64)
        nz = w != 0
        # ctz: isolate the lowest set bit (two's-complement wraparound on
        # uint64), log2 of an exact power of two is float-exact
        low = w[nz] & (np.zeros(1, dtype=np.uint64) - w[nz])
        rho[nz] = np.log2(low.astype(np.float64)).astype(np.int64) + 1
        et = b.column("event_type").to_pandas().to_numpy()
        th = pd.util.hash_array(et).astype(np.uint64)
        kid = (((th >> np.uint64(12)) << np.uint64(p)) | reg).view(np.int64)
        kid, rho, et = _merge_by_kid(kid, rho, et)
        return pd.DataFrame({"kid": kid, "event_type": et, "rho": rho})

    def shard_registers(g: pd.DataFrame) -> pd.DataFrame:
        kid, rho, et = _merge_by_kid(
            g["kid"].to_numpy(), g["rho"].to_numpy(), g["event_type"].to_numpy()
        )
        return pd.DataFrame({"event_type": et, "rho": rho})

    regs = shard_exchange(
        ds.map_batches(local_registers, batch_format="pyarrow"),
        "kid",
        shard_registers,
        pa.schema([("event_type", pa.string()), ("rho", pa.int64())]),
    ).to_pandas()  # ≤ types × 2^p rows — register-sized, never row-sized
    alpha = 0.7213 / (1 + 1.079 / m)
    types, counts = [], []
    for et, g in regs.groupby("event_type", sort=True):
        rho = g["rho"].to_numpy()
        zeros = m - len(rho)  # registers never hit stay 0
        denom = zeros + np.sum(np.exp2(-rho.astype(np.float64)))
        est = alpha * m * m / denom
        if est <= 2.5 * m and zeros > 0:
            est = m * np.log(m / zeros)  # linear-counting small-range fix
        types.append(et)
        counts.append(int(round(est)))
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "n_users_approx": pa.array(counts, pa.int64()),
        }
    )


def orders_without_lineitems(sf_dir: str) -> Dataset:
    """Anti-join as a first-class relational query: orders with NO lineitem
    rows (the same distributed anti-join shape the seen-state refill uses,
    seen.py — here exposed over the driver tables with a SQL oracle).

    Physical shape: one ``shard_join`` on orderkey; the lineitem side is
    reduced to per-batch UNIQUE orderkeys first, so the exchange carries
    O(distinct keys per block), not O(lineitem rows); each shard then does
    one vectorized searchsorted membership test. No broadcast: both sides
    may be fact-table-sized."""
    from spider_ray.blockutil import shard_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    line = _read(sf_dir, "lineitem", ["l_orderkey"])

    def shard_anti(o: pd.DataFrame, li: pd.DataFrame) -> pa.Table:
        # Arrow out with a pinned schema: an EMPTY pandas block with an
        # object column would make Ray's size estimator guess (stderr
        # noise) and could let the string type drift across shards.
        ok = o["o_orderkey"].to_numpy()
        miss = ~_isin_sorted(np.unique(li["o_orderkey"].to_numpy()), ok)
        return pa.table(
            {
                "o_orderkey": pa.array(ok[miss], pa.int64()),
                "o_orderpriority": pa.array(
                    o["o_orderpriority"].to_numpy()[miss], pa.string()
                ),
            }
        )

    def line_keys(b: pa.Table) -> pa.Table:
        key = np.unique(b.column("l_orderkey").to_numpy())  # per-batch combiner
        return pa.table({"o_orderkey": pa.array(key, pa.int64())})

    return shard_join(
        orders,
        line.map_batches(line_keys, batch_format="pyarrow"),
        "o_orderkey",
        shard_anti,
        pa.schema([("o_orderkey", pa.int64()), ("o_orderpriority", pa.string())]),
    )


def doc_length_quantiles(
    sf_dir: str, qs: tuple[float, ...] = (0.5, 0.9, 0.99)
) -> pa.Table:
    """Exact discrete quantiles of documents.n_chars via a distributed
    value histogram: per-batch value counts (combiner), one int-key groupby
    whose output is DISTINCT-VALUE-sized (not row-sized), then an
    answer-sized driver cumsum picks the quantile values.

    Contract: exact for bounded-cardinality numeric columns (lengths,
    scores, small ints) — the shuffle and the driver step are both
    O(distinct values), independent of row count, so this holds at 10^11
    rows as long as the value domain stays bounded (doc lengths do). For
    unbounded domains the same shape degrades gracefully to fixed-width
    bins (approximate) or a t-digest; neither is needed for the surface
    this query serves.

    Index rule pinned to DuckDB's ``quantile_disc``: the value at 1-based
    rank ``ceil(q·n)`` of the sorted column, with q read as an exact
    decimal (Fraction(str(q)) — float64 ``0.9*10`` rounds UP to rank 10
    where DuckDB returns rank 9; tests/test_relational_extras.py pins the
    adversarial cases)."""
    import math
    from fractions import Fraction

    ds = _read(sf_dir, "documents", ["n_chars"])

    def local_counts(b: pa.Table) -> pa.Table:
        t = b.append_column("n", pa.array(np.ones(b.num_rows, dtype=np.int64)))
        g = t.group_by("n_chars").aggregate([("n", "sum")])
        # by-name selection — see source_counts for why not rename_columns
        return pa.table({"n_chars": g.column("n_chars"), "n": g.column("n_sum")})

    # partials are distinct-value × blocks rows (bounded by the value
    # domain) — merge them on the driver with one pandas groupby instead of
    # paying a sort-based all-to-all before an inevitable to_pandas
    hist = ds.map_batches(local_counts, batch_format="pyarrow").to_pandas()
    if len(hist):
        hist = hist.groupby("n_chars", as_index=False)["n"].sum()
    names = [f"p{round(q * 100)}" for q in qs]
    if not len(hist):
        return pa.table({nm: pa.array([None], pa.int64()) for nm in names})
    v = hist["n_chars"].to_numpy()
    c = hist["n"].to_numpy()
    order = np.argsort(v)
    v, cum = v[order], np.cumsum(c[order])
    total = int(cum[-1])
    out = {}
    for nm, q in zip(names, qs):
        rank = max(1, math.ceil(Fraction(str(q)) * total))
        idx = int(np.searchsorted(cum, rank, side="left"))
        out[nm] = int(v[min(idx, len(v) - 1)])
    return pa.table({nm: pa.array([out[nm]], pa.int64()) for nm in names})


def sessionize(sf_dir: str, gap_minutes: int = 30) -> Dataset:
    """Session counts per user (streaming-shaped op per SURVEY.md §2.6 RD
    mapping): a new session begins when ts − prev_ts > gap.

    Physical shape: ``shard_exchange`` on user_id (every user's rows land
    in exactly one call), then ONE vectorized pass per call: lexsort by
    (user, ts), boundary masks via shifted compares, per-user counts via
    ``np.add.reduceat``. A per-USER ``groupby.map_groups`` would pay one
    Python interpreter call per user — 10^9 round-trips at the design
    point; this pays one per shard."""
    from spider_ray.blockutil import shard_exchange

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    gap = np.int64(gap_minutes * 60 * 1_000_000)

    def shard_sessions(b: pd.DataFrame) -> pd.DataFrame:
        uid = b["user_id"].to_numpy()
        ts = b["ts"].to_numpy()
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        new_user = np.empty(len(uid), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        gap_start = np.empty(len(uid), dtype=bool)
        gap_start[0] = True
        gap_start[1:] = (ts[1:] - ts[:-1]) > gap
        starts = (new_user | gap_start).astype(np.int64)
        run_idx = np.flatnonzero(new_user)
        return pd.DataFrame(
            {"user_id": uid[run_idx], "n_sessions": np.add.reduceat(starts, run_idx)}
        )

    return shard_exchange(
        ds.map_batches(_ts_as_us, batch_format="pyarrow"),
        "user_id",
        shard_sessions,
        pa.schema([("user_id", pa.int64()), ("n_sessions", pa.int64())]),
    )


def _event_sides(sf_dir: str, left_type: str, right_type: str) -> Dataset:
    """ONE scan of events → the rows of both sides of an events self-join.

    Shared physical shape of the as-of and range joins below: both join
    sides come from the same table, so a single pruned read emits both,
    tagged with ``_side`` (1 = left/probe, 0 = right/build); a
    ``shard_exchange`` on user_id then co-locates every user's rows from
    BOTH sides in one call. The exchange carries only rows of the two
    filtered types — four int64 columns, no text/props payload."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def tag(b: pa.Table) -> pd.DataFrame:
        et = b.column("event_type")
        keep = pc.or_(pc.equal(et, left_type), pc.equal(et, right_type))
        b = b.filter(keep)
        side = pc.equal(b.column("event_type"), left_type).to_numpy(
            zero_copy_only=False
        )
        return pd.DataFrame(
            {
                "_side": side.astype(np.int64),
                "event_id": b.column("event_id").to_numpy(),
                "user_id": b.column("user_id").to_numpy(),
                "ts": _us(b.column("ts")),
                "value_c": np.round(b.column("value").to_numpy() * 100).astype(
                    np.int64
                ),
            }
        )

    return ds.map_batches(tag, batch_format="pyarrow")


def asof_prev_event(
    sf_dir: str,
    left_type: str = "click",
    right_type: str = "view",
) -> Dataset:
    """AS-OF join (backward, strict): attach to each ``left_type`` event the
    integer-cents value of the same user's most recent STRICTLY-earlier
    ``right_type`` event; unmatched probes drop (inner as-of, DuckDB
    ``ASOF JOIN`` semantics with ``l.ts > r.ts``).

    Ray Data has no as-of join; this is the (a)-style composition from the
    build brief: co-locate both sides on the equality key (one scan,
    ``_event_sides``, one ``shard_exchange``), then per shard ONE
    ``pd.merge_asof`` call — pandas' compiled backward-scan kernel, never a
    Python row loop. Determinism: the right side is first reduced to
    max(value_c) per (user, ts), so tied build timestamps cannot make the
    answer depend on scan order (the SQL oracle applies the identical
    reduction).

    Scale shape: the exchange carries four int64 columns of the two
    filtered types only; each shard's kernel is O(n log n) in ITS OWN rows.
    The partitioning assumption is user-cardinality ≫ shards (true at the
    10^9-user design point); a single pathological user concentrating the
    table in one shard would need the salt-and-merge variant (salt the
    build side, probe each salt — the documented seam, not built because
    merge_asof's per-shard cost is already linear-ish)."""
    from spider_ray.blockutil import shard_exchange

    def shard_asof(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["_side"] == 1]
        right = g[g["_side"] == 0]
        # deterministic build side: one row per (user, ts), max value_c
        r = right.groupby(["user_id", "ts"], as_index=False)["value_c"].max()
        m = pd.merge_asof(
            left[["event_id", "user_id", "ts"]].sort_values("ts"),
            r.rename(columns={"value_c": "prev_value_c"}).sort_values("ts"),
            on="ts",
            by="user_id",
            direction="backward",
            allow_exact_matches=False,
        ).dropna(subset=["prev_value_c"])
        return pd.DataFrame(
            {
                "event_id": m["event_id"].to_numpy(dtype=np.int64),
                "user_id": m["user_id"].to_numpy(dtype=np.int64),
                "prev_value_c": m["prev_value_c"].to_numpy(dtype=np.int64),
            }
        )

    return shard_exchange(
        _event_sides(sf_dir, left_type, right_type),
        "user_id",
        shard_asof,
        pa.schema(
            [("event_id", pa.int64()), ("user_id", pa.int64()), ("prev_value_c", pa.int64())]
        ),
    )


def events_range_join(
    sf_dir: str,
    left_type: str = "purchase",
    right_type: str = "view",
    window_minutes: int = 60,
) -> Dataset:
    """RANGE (band) join: for each ``left_type`` event, the count of the
    same user's ``right_type`` events inside the half-open window
    ``[l.ts − W, l.ts)`` — every probe row kept (count 0 when none), i.e.
    the non-equi interval join ``r.ts >= l.ts - W AND r.ts < l.ts`` on top
    of the user equality key.

    Physical shape: the same one-scan ``_event_sides`` + user_id
    ``shard_exchange`` as ``asof_prev_event``, then per shard the window
    count is computed as a DIFFERENCE OF TWO AS-OF LOOKUPS over the build
    side's per-user cumulative counter: matches(l) = |r.ts < l.ts| − |r.ts
    < l.ts − W| — two ``pd.merge_asof`` calls per shard instead of any
    per-row interval scan, so a hot window cannot degrade to quadratic the
    way a naive banded nested loop does. Tied build timestamps are handled
    by the stable (user, ts) sort: the last tie carries the max cumulative
    count, which is exactly |r.ts ≤ t|.

    Scale: identical exchange and partitioning contract as the as-of join
    (int64 metadata only, one shard per user). For a keyless/global band
    join the seam is time-bucket partitioning with ±1-bucket replication of
    the build side — not built because every reference- and brief-named use
    is keyed."""
    from spider_ray.blockutil import shard_exchange

    gap = np.int64(window_minutes * 60 * 1_000_000)

    def shard_window_count(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["_side"] == 1]
        right = (
            g[g["_side"] == 0][["user_id", "ts"]]
            .sort_values(["user_id", "ts"], kind="stable")
            .reset_index(drop=True)
        )
        right["cum"] = right.groupby("user_id").cumcount() + 1
        rs = right.sort_values("ts", kind="stable")
        ls = left[["event_id", "user_id", "ts"]].sort_values("ts")

        def cum_before(probe: pd.DataFrame) -> np.ndarray:
            # |build rows with r.ts < probe.ts| per probe row (strict asof)
            m = pd.merge_asof(
                probe,
                rs,
                on="ts",
                by="user_id",
                direction="backward",
                allow_exact_matches=False,
            )
            return m["cum"].fillna(0).to_numpy(dtype=np.int64)

        hi = cum_before(ls)
        lo = cum_before(ls.assign(ts=ls["ts"] - gap))
        return pd.DataFrame(
            {
                "event_id": ls["event_id"].to_numpy(dtype=np.int64),
                "user_id": ls["user_id"].to_numpy(dtype=np.int64),
                "n_in_window": hi - lo,
            }
        )

    return shard_exchange(
        _event_sides(sf_dir, left_type, right_type),
        "user_id",
        shard_window_count,
        pa.schema(
            [("event_id", pa.int64()), ("user_id", pa.int64()), ("n_in_window", pa.int64())]
        ),
    )


def _disc_quantile_ranks(
    qs: tuple[float, ...], total: int
) -> list[int]:
    """1-based target ranks under the DuckDB ``quantile_disc`` rule: the
    value at rank ``ceil(q·n)``, with q read as an EXACT decimal —
    ``Fraction(str(q))`` — because float64 ``0.9*10`` rounds UP to rank 10
    where DuckDB returns rank 9 (pinned in tests/test_relational_extras.py
    for the global variant; the grouped variant shares this helper so the
    rule cannot drift between them)."""
    import math
    from fractions import Fraction

    return [max(1, math.ceil(Fraction(str(q)) * total)) for q in qs]


def length_quantiles_by_source(
    sf_dir: str, qs: tuple[float, ...] = (0.5, 0.9)
) -> pa.Table:
    """GROUPED exact discrete quantiles: per-source p50/p90 of
    documents.n_chars — the per-domain length-distribution profile a
    training-data pipeline uses to set source-specific length filters.

    Same distributed-value-histogram shape as ``doc_length_quantiles``, one
    level deeper: per-batch (source, n_chars) counts (combiner), one
    groupby whose output is O(sources × distinct lengths) — never
    O(documents) — then an answer-sized driver pass computes each group's
    quantiles under the shared ``_disc_quantile_ranks`` rule. The shuffle
    and driver step stay bounded by the value domain at any row count, the
    same contract (and caveat) as the global variant."""
    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def local_counts(b: pa.Table) -> pa.Table:
        t = b.append_column("n", pa.array(np.ones(b.num_rows, dtype=np.int64)))
        g = t.group_by(["source", "n_chars"]).aggregate([("n", "sum")])
        # by-name selection — see source_counts for why not rename_columns
        return pa.table(
            {
                "source": g.column("source"),
                "n_chars": g.column("n_chars"),
                "n": g.column("n_sum"),
            }
        )

    # partials are O(sources × distinct lengths × blocks) — driver-side
    # pandas merge beats a sort-based all-to-all before an inevitable
    # to_pandas (the doc_length_quantiles rationale)
    hist = ds.map_batches(local_counts, batch_format="pyarrow").to_pandas()
    if hist.empty:
        # no documents: Ray drops the columns of a zero-row to_pandas —
        # rebuild the empty frame with its schema
        hist = pd.DataFrame({"source": [], "n_chars": [], "n": []})
    else:
        hist = hist.groupby(["source", "n_chars"], as_index=False)["n"].sum()
    names = [f"p{round(q * 100)}" for q in qs]
    out: dict[str, list] = {"source": []}
    for nm in names:
        out[nm] = []
    for source, g in hist.sort_values(["source", "n_chars"]).groupby(
        "source", sort=True
    ):
        v = g["n_chars"].to_numpy()
        cum = np.cumsum(g["n"].to_numpy())
        total = int(cum[-1])
        out["source"].append(source)
        for nm, rank in zip(names, _disc_quantile_ranks(qs, total)):
            idx = int(np.searchsorted(cum, rank, side="left"))
            out[nm].append(int(v[min(idx, len(v) - 1)]))
    cols: dict[str, pa.Array] = {"source": pa.array(out["source"], pa.string())}
    for nm in names:
        cols[nm] = pa.array(out[nm], pa.int64())
    return pa.table(cols)


def user_running_total(sf_dir: str, event_type: str = "purchase") -> Dataset:
    """Per-key ordered WINDOW function: the running integer-cents total of
    each user's ``event_type`` events, ordered by (ts, event_id) — SQL's
    ``SUM(value) OVER (PARTITION BY user_id ORDER BY ts, event_id)``.

    Ray Data has no window functions; the composition is the sessionize
    shape: filter at the read, ``shard_exchange`` on user_id (every user's
    rows in one call), then ONE vectorized pass per shard — lexsort by
    (user, ts, event_id), global cumsum, and a per-group rebase via
    ``np.repeat`` of the cumsum at group starts. No per-user Python call,
    no per-row loop; the exchange carries four int64 columns of the single
    filtered type. Output is row-sized by contract (a window function
    returns one row per input row) — it streams back out, never collects."""
    from spider_ray.blockutil import shard_exchange

    def shard_running(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        eid = g["event_id"].to_numpy()
        val = g["value_c"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, eid, val = uid[order], eid[order], val[order]
        cum = np.cumsum(val)
        new_user = np.empty(len(uid), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(new_user)
        # cumsum value just BEFORE each group start, broadcast per row
        base = np.repeat(
            np.concatenate(([np.int64(0)], cum[starts[1:] - 1])),
            np.diff(np.append(starts, len(uid))),
        )
        return pd.DataFrame(
            {"event_id": eid, "user_id": uid, "running_c": cum - base}
        )

    return shard_exchange(
        _typed_events(sf_dir, event_type),
        "user_id",
        shard_running,
        pa.schema(
            [("event_id", pa.int64()), ("user_id", pa.int64()), ("running_c", pa.int64())]
        ),
    )


def _typed_events(sf_dir: str, event_type: str) -> Dataset:
    """(event_id, user_id, ts µs, value_c) of one event type, filtered at
    the read — the input of the per-user window functions."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def rows(b: pa.Table) -> pd.DataFrame:
        b = b.filter(pc.equal(b.column("event_type"), event_type))
        return pd.DataFrame(
            {
                "event_id": b.column("event_id").to_numpy(),
                "user_id": b.column("user_id").to_numpy(),
                "ts": _us(b.column("ts")),
                "value_c": np.round(b.column("value").to_numpy() * 100).astype(np.int64),
            }
        )

    return ds.map_batches(rows, batch_format="pyarrow")


# named group for pyarrow (extract_regex requires one); the SQL oracle uses
# the identical pattern with a positional group — both engines are RE2, so
# the MATCH semantics are byte-identical (registry.py pairs them)
PROPS_K_RE = r'"k":\s*(?P<k>\d+)'


def props_extract_stats(sf_dir: str) -> Dataset:
    """Semi-structured field extraction: pull the integer ``k`` out of the
    JSON-ish ``events.props`` string with ONE vectorized RE2 pass
    (``pc.extract_regex`` — no JSON parser, no per-row Python), then a
    grouped aggregate per event_type (sum/max/count of k over MATCHING
    rows; non-matching rows drop on both sides by contract).

    This is the log-pipeline staple — schema-on-read over a sloppy string
    column — expressed as the q1 combiner shape: the regex pass and a
    per-batch partial aggregate run where the data is, the shuffle carries
    O(types × blocks) partial rows, never O(events)."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(b: pa.Table) -> pa.Table:
        ex = pc.extract_regex(b.column("props"), PROPS_K_RE)
        k = pc.struct_field(ex, 0).cast(pa.int64())
        keep = pc.is_valid(k)
        et = b.column("event_type").filter(keep)
        t = pa.table(
            {
                "event_type": et,
                "k": k.filter(keep),
                "n": pa.array(np.ones(len(et), dtype=np.int64)),
            }
        )
        g = t.group_by("event_type").aggregate(
            [("k", "sum"), ("k", "max"), ("n", "sum")]
        )
        # by-name selection — see source_counts for why not rename_columns
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "sum_k": g.column("k_sum"),
                "max_k": g.column("k_max"),
                "n": g.column("n_sum"),
            }
        )

    from spider_ray.blockutil import merge_keyed_sums

    return merge_keyed_sums(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["event_type"],
        aggs={"sum_k": "sum", "max_k": "max", "n": "sum"},
        empty_schema=pa.schema(
            [
                ("event_type", pa.string()),
                ("sum_k", pa.int64()),
                ("max_k", pa.int64()),
                ("n", pa.int64()),
            ]
        ),
    )


def user_event_gaps(sf_dir: str) -> Dataset:
    """LAG-diff window aggregate: per user, the count / sum / max of the
    inter-event time gaps (µs) between consecutive events ordered by ts —
    SQL's ``ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)`` folded
    into a per-user aggregate. Users with fewer than two events drop (they
    have no gaps), matching the oracle's ``WHERE g IS NOT NULL``.

    Physical shape: the sessionize composition — one ``shard_exchange`` of
    (user_id, ts) int64 pairs on user_id, then ONE vectorized pass per
    shard (lexsort, shifted same-user compare, ``reduceat`` per-user
    count/sum/max). Determinism under tied timestamps: the gap multiset of
    a sorted sequence depends only on the ts multiset, so every aggregate
    here is tie-order-invariant on both engines."""
    from spider_ray.blockutil import shard_exchange

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("n_gaps", pa.int64()),
            ("sum_gap_us", pa.int64()),
            ("max_gap_us", pa.int64()),
        ]
    )

    def shard_gaps(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        same = uid[1:] == uid[:-1]
        gaps = (ts[1:] - ts[:-1])[same]
        guid = uid[1:][same]  # sorted (subsequence of the sorted uid)
        if not len(guid):
            return schema.empty_table()
        starts = np.flatnonzero(np.r_[True, guid[1:] != guid[:-1]])
        return pa.table(
            {
                "user_id": pa.array(guid[starts], pa.int64()),
                "n_gaps": pa.array(np.diff(np.append(starts, len(guid)))),
                "sum_gap_us": pa.array(np.add.reduceat(gaps, starts)),
                "max_gap_us": pa.array(np.maximum.reduceat(gaps, starts)),
            }
        )

    # every user lives in exactly one shard, so the per-shard aggregates
    # are already globally final
    return shard_exchange(
        ds.map_batches(_ts_as_us, batch_format="pyarrow"), "user_id", shard_gaps, schema
    )


def event_type_transitions(sf_dir: str) -> Dataset:
    """Sequence bigram counts: how often event type A is IMMEDIATELY
    followed by type B within one user's timeline (the Markov transition
    table behind funnel / next-action analyses). Each user's first event
    has no predecessor and drops, matching the oracle's
    ``WHERE prev_type IS NOT NULL``.

    Determinism: consecutive-pair CONTENT (unlike the gap multiset above)
    does depend on tie order, so both engines order by (ts, event_id) —
    the registry SQL uses the same two-key window ORDER BY.

    Physical shape: ``shard_exchange`` on user_id carrying (user, ts,
    event_id, type); per shard one lexsort + shifted compare builds the
    pairs and a vectorized groupby emits ≤ types² partial rows; a
    metadata-sized merge sums shard partials."""
    from spider_ray.blockutil import merge_keyed_sums, shard_exchange

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def shard_transitions(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        eid = g["event_id"].to_numpy()
        et = g["event_type"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, et = uid[order], et[order]
        same = uid[1:] == uid[:-1]
        pairs = pd.DataFrame(
            {"prev_type": et[:-1][same], "event_type": et[1:][same]}
        )
        c = pairs.groupby(["prev_type", "event_type"], sort=False).size()
        idx = c.index.to_frame(index=False)
        return pa.table(
            {
                "prev_type": pa.array(
                    idx["prev_type"].to_numpy(dtype=object), pa.string()
                ),
                "event_type": pa.array(
                    idx["event_type"].to_numpy(dtype=object), pa.string()
                ),
                "n": pa.array(c.to_numpy().astype(np.int64)),
            }
        )

    schema = pa.schema(
        [("prev_type", pa.string()), ("event_type", pa.string()), ("n", pa.int64())]
    )
    partials = shard_exchange(
        ds.map_batches(_ts_as_us, batch_format="pyarrow"),
        "user_id",
        shard_transitions,
        schema,
    )
    return merge_keyed_sums(
        partials, keys=["prev_type", "event_type"], sums=["n"], empty_schema=schema
    )


def order_lineitem_counts(sf_dir: str) -> Dataset:
    """LEFT OUTER join of two fact tables with zero-fill: every order with
    the count and integer-cents quantity sum of its lineitems — 0/0 for
    orders with none (the complement of ``orders_without_lineitems``'
    anti-join; together they cover the outer-join family the inner-join q3
    does not).

    Physical shape: one ``shard_join`` on orderkey; the lineitem side is
    PARTIAL-aggregated per batch (sort + ``reduceat`` count/sum per key —
    the q3 combiner), so the exchange carries one row per (orderkey, block)
    on the big side; each shard re-reduces its partials and probes them
    from the orders side with one ``searchsorted``, emitting zero-filled
    misses. Output is row-sized by contract (one row per order) and
    streams — never collected."""
    from spider_ray.blockutil import shard_join

    orders = _read(sf_dir, "orders", ["o_orderkey"])
    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def l_side(b: pa.Table) -> pd.DataFrame:
        key = b.column("l_orderkey").to_numpy()
        qty = _cents(b.column("l_quantity").to_numpy())
        # per-batch PARTIAL (count, sum) per orderkey — combiner pattern
        order = np.argsort(key, kind="stable")
        key, qty = key[order], qty[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        n = np.diff(np.append(starts, len(key)))
        return pd.DataFrame(
            {
                "o_orderkey": key[starts],
                "n_items": n.astype(np.int64),
                "sum_qty_c": np.add.reduceat(qty, starts),
            }
        )

    def shard_left(o: pd.DataFrame, li: pd.DataFrame) -> pa.Table:
        ok = o["o_orderkey"].to_numpy()
        lk = li["o_orderkey"].to_numpy()
        n_items = np.zeros(len(ok), dtype=np.int64)
        sum_qty = np.zeros(len(ok), dtype=np.int64)
        if len(lk):
            order = np.argsort(lk, kind="stable")
            lk = lk[order]
            ln = li["n_items"].to_numpy()[order]
            ls = li["sum_qty_c"].to_numpy()[order]
            starts = np.flatnonzero(np.r_[True, lk[1:] != lk[:-1]])
            uk = lk[starts]
            un = np.add.reduceat(ln, starts)
            us = np.add.reduceat(ls, starts)
            pos = np.minimum(np.searchsorted(uk, ok), len(uk) - 1)
            hit = uk[pos] == ok
            n_items[hit] = un[pos[hit]]
            sum_qty[hit] = us[pos[hit]]
        return pa.table(
            {
                "o_orderkey": pa.array(ok, pa.int64()),
                "n_items": pa.array(n_items),
                "sum_qty_c": pa.array(sum_qty),
            }
        )

    return shard_join(
        orders,
        line.map_batches(l_side, batch_format="pyarrow"),
        "o_orderkey",
        shard_left,
        pa.schema(
            [("o_orderkey", pa.int64()), ("n_items", pa.int64()), ("sum_qty_c", pa.int64())]
        ),
    )


# the events generator's closed type vocabulary (TESTDATA.md); a type
# outside this list would be dropped by the pivot on BOTH engines (the SQL
# oracle enumerates the same columns), so the contract is explicit
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_type_pivot(
    sf_dir: str, types: tuple[str, ...] = EVENT_TYPES
) -> Dataset:
    """PIVOT: one row per user with a count column per event type (the
    wide per-entity feature vector a training pipeline feeds downstream).
    Requires a KNOWN column vocabulary — the fixed ``types`` tuple — which
    is what makes a pivot oracle-expressible as static FILTER aggregates.

    Physical shape: per batch, one vectorized ``pc.equal``+cast per type
    builds 0/1 indicator columns and an Arrow group_by reduces them to
    per-(user, block) partials; one ``shard_exchange`` on user_id then sums
    the partials (one vectorized sort+reduceat per shard, no user-grain
    sort-aggregate). The exchange carries O(users × blocks) rows of
    ``len(types)`` int64s — the q1 combiner contract, never one row per
    event; the output stays distributed (it is user-sized). An
    UNKNOWN-vocab pivot would need a distinct-types pass first (the
    two-phase seam); every named use here has a closed vocabulary."""
    from spider_ray.blockutil import shard_exchange

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    names = [f"n_{t}" for t in types]

    def partial(b: pa.Table) -> pa.Table:
        et = b.column("event_type")
        cols: dict[str, pa.ChunkedArray | pa.Array] = {
            "user_id": b.column("user_id")
        }
        for t, nm in zip(types, names):
            cols[nm] = pc.cast(pc.equal(et, t), pa.int64())
        g = pa.table(cols).group_by("user_id").aggregate(
            [(nm, "sum") for nm in names]
        )
        # by-name selection — see source_counts for why not rename_columns
        out = {"user_id": g.column("user_id")}
        for nm in names:
            out[nm] = g.column(f"{nm}_sum")
        return pa.table(out)

    def shard_pivot(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        order = np.argsort(uid, kind="stable")
        uid = uid[order]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        out = {"user_id": pa.array(uid[starts], pa.int64())}
        for nm in names:
            out[nm] = pa.array(
                np.add.reduceat(g[nm].to_numpy()[order], starts), pa.int64()
            )
        return pa.table(out)

    return shard_exchange(
        ds.map_batches(partial, batch_format="pyarrow"),
        "user_id",
        shard_pivot,
        pa.schema([("user_id", pa.int64())] + [(nm, pa.int64()) for nm in names]),
    )


def source_lang_rollup(sf_dir: str) -> Dataset:
    """ROLLUP / GROUPING SETS aggregate: document counts and char totals at
    THREE grouping levels — (source, lang), (source), grand total — with
    the literal ``'ALL'`` as the rolled-up key value (the SQL side
    COALESCEs its GROUPING SETS NULLs to the same literal, so the result
    stays value-hash comparable; real source/lang values are never null in
    this table, making the marker unambiguous).

    Physical shape: ONE combiner pass aggregates the FINEST level (the q1
    contract — the shuffle carries O(sources×langs × blocks) partial rows,
    never documents); the coarser levels are then derived FROM the finest
    aggregate in a single task via the rollup identity (every coarser cell
    is a sum of finest cells) — the fact table is scanned and shuffled
    exactly once regardless of how many grouping sets are requested.
    Single-task contract: the finest aggregate is grouping-key-sized
    (sources × langs), low-cardinality by the nature of rollup keys."""
    ds = _read(sf_dir, "documents", ["source", "lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.append_column(
            "n_docs", pa.array(np.ones(batch.num_rows, dtype=np.int64))
        )
        g = t.group_by(["source", "lang"]).aggregate(
            [("n_docs", "sum"), ("n_chars", "sum")]
        )
        # by-name selection — see source_counts for why not rename_columns
        return pa.table(
            {
                "source": g.column("source"),
                "lang": g.column("lang"),
                "n_docs": g.column("n_docs_sum"),
                "total_chars": g.column("n_chars_sum"),
            }
        )

    from spider_ray.blockutil import merge_keyed_sums

    finest = merge_keyed_sums(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["source", "lang"],
        sums=["n_docs", "total_chars"],
        empty_schema=pa.schema(
            [
                ("source", pa.string()),
                ("lang", pa.string()),
                ("n_docs", pa.int64()),
                ("total_chars", pa.int64()),
            ]
        ),
    )

    def rollup(d: pd.DataFrame) -> pd.DataFrame:
        cols = ["source", "lang", "n_docs", "total_chars"]
        lvl1 = d.groupby("source", as_index=False)[["n_docs", "total_chars"]].sum()
        lvl1["lang"] = "ALL"
        lvl0 = pd.DataFrame(
            {
                "source": ["ALL"],
                "lang": ["ALL"],
                "n_docs": [d["n_docs"].sum()],
                "total_chars": [d["total_chars"].sum()],
            }
        )
        return pd.concat([d[cols], lvl1[cols], lvl0[cols]], ignore_index=True)

    # ONE task over the key-sized finest table (not final_merge: the rollup
    # finalizer is not idempotent, and its input is already globally final)
    return finest.repartition(1).map_batches(
        rollup, batch_format="pandas", batch_size=None
    )


def q5_revenue_by_nation(
    sf_dir: str,
    date_lo: str = "1997-01-01",
    date_hi: str = "1999-01-01",
) -> Dataset:
    """TPC-H-Q5-shaped multi-way join: lineitem revenue per nation where the
    ordering customer and the line's supplier sit in the SAME nation, over a
    two-year order-date window — the widest join chain in the surface
    (customer ⋈ orders ⋈ lineitem ⋈ supplier ⋈ nation).

    Physical plan (one fact⋈fact exchange, everything else broadcast):
    - supplier→nationkey, customer→nationkey and nationkey→name are
      DIMENSION lookups, shipped once via ``ray.put`` as sorted parallel
      numpy arrays (the orders_by_segment pattern). customer is the one
      that grows with the fact tables; at a truly fact-sized customer the
      q3 ``broadcast_customer=False`` semi-join shape applies unchanged
      (demonstrated there, not duplicated here).
    - orders ⋈ lineitem is the q3 ``shard_join`` on orderkey. The lineitem
      side PARTIAL-aggregates revenue per (orderkey, supplier-nation)
      inside each batch before the exchange — it carries one row per
      (orderkey, s_nat, block), never one per lineitem.
    - each shard probes orders' (orderkey → customer-nation) with one
      searchsorted, keeps rows where the nations match, and emits per-nation
      revenue partials; the final merge is nation-sized (≤25 rows a shard).

    Revenue uses the q1 integer contract (``cents(extprice) × (100 −
    cents(discount))``) so partial sums match DuckDB bit-exactly."""
    from spider_ray.blockutil import final_merge, shard_join

    lo_us = np.int64(np.datetime64(date_lo, "us").astype(np.int64))
    hi_us = np.int64(np.datetime64(date_hi, "us").astype(np.int64))

    def _sorted_lookup(table: str, key: str, val: str):
        t = pq.read_table(_t(sf_dir, table), columns=[key, val])
        k = t.column(key).to_numpy().astype(np.int64)
        v = t.column(val).to_numpy().astype(np.int64)
        order = np.argsort(k, kind="stable")
        return k[order], v[order]

    sup_ref = ray.put(_sorted_lookup("supplier", "s_suppkey", "s_nationkey"))
    cust_ref = ray.put(_sorted_lookup("customer", "c_custkey", "c_nationkey"))

    def _probe(keys_sorted, vals, probe):
        # inner-join semantics: the generator guarantees FK integrity, but
        # misses (empty dimension) drop the row rather than emitting junk
        if not len(keys_sorted):
            return np.full(len(probe), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(keys_sorted, probe), len(keys_sorted) - 1)
        out = vals[pos].copy()
        out[keys_sorted[pos] != probe] = -1
        return out

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    )

    def orders_side(b: pa.Table) -> pd.DataFrame:
        from spider_ray.stages.broadcast import get_broadcast

        ck, cv = get_broadcast(cust_ref)
        dt = _us(b.column("o_orderdate"))
        keep = (dt >= lo_us) & (dt < hi_us)
        key = b.column("o_orderkey").to_numpy()[keep]
        c_nat = _probe(ck, cv, b.column("o_custkey").to_numpy()[keep])
        ok = c_nat >= 0
        return pd.DataFrame({"o_orderkey": key[ok], "o_nat": c_nat[ok]})

    def line_side(b: pa.Table) -> pd.DataFrame:
        from spider_ray.stages.broadcast import get_broadcast

        sk, sv = get_broadcast(sup_ref)
        key = b.column("l_orderkey").to_numpy()
        s_nat = _probe(sk, sv, b.column("l_suppkey").to_numpy())
        rev = _cents(b.column("l_extendedprice").to_numpy()) * (
            100 - _cents(b.column("l_discount").to_numpy())
        )
        ok = s_nat >= 0
        key, s_nat, rev = key[ok], s_nat[ok], rev[ok]
        # per-batch PARTIAL per (orderkey, s_nat) — the q1 combiner pattern
        order = np.lexsort((s_nat, key))
        key, s_nat, rev = key[order], s_nat[order], rev[order]
        new = np.r_[True, (key[1:] != key[:-1]) | (s_nat[1:] != s_nat[:-1])]
        starts = np.flatnonzero(new[: len(key)])
        return pd.DataFrame(
            {
                "o_orderkey": key[starts],
                "nat": s_nat[starts],
                "revenue_c4": np.add.reduceat(rev, starts) if len(key) else rev,
            }
        )

    def shard_join_nat(o: pd.DataFrame, li: pd.DataFrame) -> pa.Table:
        ok = o["o_orderkey"].to_numpy()
        oc = o["o_nat"].to_numpy()
        order = np.argsort(ok, kind="stable")
        ok, oc = ok[order], oc[order]
        c_nat = _probe(ok, oc, li["o_orderkey"].to_numpy())
        hit = c_nat == li["nat"].to_numpy()
        nat = li["nat"].to_numpy()[hit]
        rev = li["revenue_c4"].to_numpy()[hit]
        if len(nat):
            order = np.argsort(nat, kind="stable")
            nat, rev = nat[order], rev[order]
            starts = np.flatnonzero(np.r_[True, nat[1:] != nat[:-1]])
            nat = nat[starts]
            rev = np.add.reduceat(rev, starts)
        return pa.table(
            {
                "nat": pa.array(nat, pa.int64()),
                "revenue_c4": pa.array(rev, pa.int64()),
            }
        )

    per_nat = shard_join(
        orders.map_batches(orders_side, batch_format="pyarrow"),
        line.map_batches(line_side, batch_format="pyarrow"),
        "o_orderkey",
        shard_join_nat,
        pa.schema([("nat", pa.int64()), ("revenue_c4", pa.int64())]),
    )

    # Final reduce: the shards already emit per-nation partials (≤25 rows
    # each), so the finish is ANSWER-sized — final_merge's single task
    # replaces a second sort-based groupby all-to-all (measured ~2.5 s of
    # the 7.3 s wall at sf0.1 for 800 rows). Nation names (≤25 by contract)
    # ride the closure; the merge keys on n_name so a second application is
    # a no-op (final_merge's idempotence contract).
    nt = pq.read_table(_t(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    nk = nt.column("n_nationkey").to_numpy().astype(np.int64)
    names = np.asarray(nt.column("n_name").to_pylist(), dtype=object)
    order = np.argsort(nk, kind="stable")
    nk, names = nk[order], names[order]

    def merge_nations(d: pd.DataFrame) -> pd.DataFrame:
        if "nat" in d.columns:
            nat = d["nat"].to_numpy()
            pos = np.minimum(np.searchsorted(nk, nat), max(len(nk) - 1, 0))
            d = pd.DataFrame(
                {
                    "n_name": np.take(names, pos),
                    "revenue_c4": d["revenue_c4"].to_numpy(),
                }
            )
        return d.groupby("n_name", as_index=False)["revenue_c4"].sum()

    return final_merge(
        per_nat,
        merge_nations,
        pa.schema([("n_name", pa.string()), ("revenue_c4", pa.int64())]),
    )


def latest_event_per_user(sf_dir: str) -> Dataset:
    """ARGMAX-per-group: each user's most recent event (tie-break: larger
    event_id), the per-entity-state extraction every incremental pipeline
    needs ("current session", "last seen", "latest profile").

    Physical shape: per-batch PARTIAL argmax (one lexsort + last-per-key
    slice — the exchange carries one candidate row per (user, block), never
    one per event), then a ``shard_exchange`` on user where the same
    vectorized reduce picks the global winner. Timestamps cross the
    exchange as int64 epoch-µs (the events_hourly contract) and come back
    as timestamp[us] at the end."""
    from spider_ray.blockutil import shard_exchange

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def _argmax_rows(user, ts, eid, etype):
        if not len(user):
            return user, ts, eid, etype
        # last row per user under (user, ts, event_id) order == argmax
        order = np.lexsort((eid, ts, user))
        user, ts, eid = user[order], ts[order], eid[order]
        etype = etype[order] if len(etype) else etype
        last = np.r_[user[1:] != user[:-1], True]
        return user[last], ts[last], eid[last], etype[last]

    def partial(b: pa.Table) -> pd.DataFrame:
        user, ts, eid, etype = _argmax_rows(
            b.column("user_id").to_numpy(),
            _us(b.column("ts")),
            b.column("event_id").to_numpy(),
            np.asarray(b.column("event_type").to_pylist(), dtype=object),
        )
        return pd.DataFrame(
            {"user_id": user, "ts_us": ts, "event_id": eid, "event_type": etype}
        )

    def shard_final(g: pd.DataFrame) -> pa.Table:
        user, ts, eid, etype = _argmax_rows(
            g["user_id"].to_numpy(),
            g["ts_us"].to_numpy(),
            g["event_id"].to_numpy(),
            g["event_type"].to_numpy(),
        )
        return pa.table(
            {
                "user_id": pa.array(user, pa.int64()),
                "ts": pa.array(ts.astype("datetime64[us]")),
                "event_id": pa.array(eid, pa.int64()),
                "event_type": pa.array(etype, pa.string()),
            }
        )

    return shard_exchange(
        ds.map_batches(partial, batch_format="pyarrow"),
        "user_id",
        shard_final,
        pa.schema(
            [
                ("user_id", pa.int64()),
                ("ts", pa.timestamp("us")),
                ("event_id", pa.int64()),
                ("event_type", pa.string()),
            ]
        ),
    )


def doc_length_histogram(sf_dir: str, bin_width: int = 50) -> Dataset:
    """Fixed-width HISTOGRAM over document length — the distribution probe
    run before choosing filter thresholds at corpus scale. Per-batch
    partial (sort + reduceat per bin — bin count is data-bounded, the
    shuffle carries O(bins × blocks) rows) then a tiny groupby sum; all
    integer, so bit-exact vs the SQL ``n_chars // w`` oracle."""
    ds = _read(sf_dir, "documents", ["n_chars"])
    w = np.int64(bin_width)

    def partial(b: pa.Table) -> pa.Table:
        n = b.column("n_chars").to_numpy()
        if not len(n):
            return pa.table(
                {
                    "bin": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                    "total_chars": pa.array([], pa.int64()),
                }
            )
        bins = n // w
        order = np.argsort(bins, kind="stable")
        bins, n = bins[order], n[order]
        starts = np.flatnonzero(np.r_[True, bins[1:] != bins[:-1]])
        return pa.table(
            {
                "bin": pa.array(bins[starts], pa.int64()),
                "n_docs": pa.array(
                    np.diff(np.append(starts, len(bins))).astype(np.int64)
                ),
                "total_chars": pa.array(np.add.reduceat(n, starts))
                if len(n)
                else pa.array([], pa.int64()),
            }
        )

    from spider_ray.blockutil import merge_keyed_sums

    return merge_keyed_sums(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["bin"],
        sums=["n_docs", "total_chars"],
        empty_schema=pa.schema(
            [("bin", pa.int64()), ("n_docs", pa.int64()), ("total_chars", pa.int64())]
        ),
    )


def repeat_buyers(sf_dir: str) -> Dataset:
    """Set INTERSECTION over a keyed fact stream: users with BOTH a click
    and a purchase event (the audience-segmentation shape; SQL INTERSECT).

    Physical shape: each batch reduces to at most one (user, has_click,
    has_purchase) flag row per user seen in the batch (arrow group_by max);
    the ``shard_exchange`` on user_id co-locates each user, so one
    vectorized maximum.reduceat per shard ORs the flags AND applies the
    both-flags filter locally — rows exchanged = O(users × blocks) flag
    rows, shard output already answer-sized (no user-grain
    sort-aggregate)."""
    from spider_ray.blockutil import shard_exchange

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(b: pa.Table) -> pa.Table:
        et = b.column("event_type")
        mask = pc.or_(pc.equal(et, "click"), pc.equal(et, "purchase"))
        t = b.filter(mask)
        is_p = pc.cast(pc.equal(t.column("event_type"), "purchase"), pa.int64())
        flags = pa.table(
            {
                "user_id": t.column("user_id"),
                "has_click": pc.subtract(pa.scalar(1, pa.int64()), is_p),
                "has_purchase": is_p,
            }
        )
        g = flags.group_by("user_id").aggregate(
            [("has_click", "max"), ("has_purchase", "max")]
        )
        return pa.table(
            {
                "user_id": g.column("user_id"),
                "has_click": g.column("has_click_max"),
                "has_purchase": g.column("has_purchase_max"),
            }
        )

    def shard_both(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        order = np.argsort(uid, kind="stable")
        uid = uid[order]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        hc = np.maximum.reduceat(g["has_click"].to_numpy()[order], starts)
        hp = np.maximum.reduceat(g["has_purchase"].to_numpy()[order], starts)
        keep = (hc == 1) & (hp == 1)
        return pa.table({"user_id": pa.array(uid[starts][keep], pa.int64())})

    return shard_exchange(
        ds.map_batches(partial, batch_format="pyarrow"),
        "user_id",
        shard_both,
        pa.schema([("user_id", pa.int64())]),
    )


def part_brand_stats(sf_dir: str) -> Dataset:
    """Grouped aggregate over the part catalog (the one table the surface
    did not yet touch): per brand — part count, integer-cents retail-price
    sum, max size. The q1 combiner contract."""
    ds = _read(sf_dir, "part", ["p_brand", "p_retailprice", "p_size"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "p_brand": b.column("p_brand"),
                "n_parts": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                "retail_c": pa.array(_cents(b.column("p_retailprice").to_numpy())),
                "max_size": pc.cast(b.column("p_size"), pa.int64()),
            }
        )
        g = t.group_by("p_brand").aggregate(
            [("n_parts", "sum"), ("retail_c", "sum"), ("max_size", "max")]
        )
        return pa.table(
            {
                "p_brand": g.column("p_brand"),
                "n_parts": g.column("n_parts_sum"),
                "retail_c": g.column("retail_c_sum"),
                "max_size": g.column("max_size_max"),
            }
        )

    from spider_ray.blockutil import merge_keyed_sums

    return merge_keyed_sums(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["p_brand"],
        aggs={"n_parts": "sum", "retail_c": "sum", "max_size": "max"},
        empty_schema=pa.schema(
            [
                ("p_brand", pa.string()),
                ("n_parts", pa.int64()),
                ("retail_c", pa.int64()),
                ("max_size", pa.int64()),
            ]
        ),
    )


def _bloom_positions(keys: np.ndarray, m: int, k: int) -> np.ndarray:
    """(n, k) bit positions for int64 keys: classic double hashing
    (h1 + i*h2 mod m, h2 forced odd) over two independent
    ``pd.util.hash_array`` streams — all vectorized, no per-key Python."""
    h1 = pd.util.hash_array(keys.astype(np.int64))
    h2 = pd.util.hash_array(keys.astype(np.int64) ^ np.int64(-0x61C8864680B583EB)) | 1
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m)).astype(np.int64)


def high_value_lineitem_stats(
    sf_dir: str,
    min_total_cents: int = 45_000_000,  # $450,000.00 in integer cents
    bloom_bits: int = 1 << 22,
    n_hashes: int = 4,
) -> Dataset:
    """BLOOM-prefiltered exact semi-join: lineitem stats (count + base-price
    cents per returnflag) restricted to high-value orders. The scale
    pattern this demonstrates: when the filtered build side is too big to
    broadcast exactly but its BLOOM is cheap (~1.2 bits/key at these
    parameters vs 64 bits/key for the sorted-array broadcast), probe the
    fact table against the bloom FIRST so only survivors (true matches + a
    tunable false-positive sliver) enter the exact ``shard_join`` semi-join
    — the exchange shrinks from every lineitem to ~the answer.

    Build: each orders batch emits its bloom bit positions (uint32-sized
    ints, ≈ n_hashes × matching keys per batch); the driver ORs them into
    one bitmask and broadcasts it via ``ray.put``. At a 10^9-key build side
    the positions stream becomes a tree-OR of per-block masks instead —
    documented seam, same contract. Exactness does NOT depend on the bloom:
    every survivor is re-verified against the true key set in the shard
    semi-join below, so false positives cost only exchange bytes."""
    from spider_ray.blockutil import final_merge, shard_join

    thresh = np.int64(min_total_cents)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def order_keys(b: pa.Table) -> pa.Table:
        key = b.column("o_orderkey").to_numpy()
        keep = _cents(b.column("o_totalprice").to_numpy()) >= thresh
        return pa.table({"o_orderkey": pa.array(key[keep], pa.int64())})

    keys_ds = orders.map_batches(order_keys, batch_format="pyarrow")

    def to_positions(b: pa.Table) -> pa.Table:
        pos = _bloom_positions(b.column("o_orderkey").to_numpy(), bloom_bits, n_hashes)
        return pa.table({"pos": pa.array(np.unique(pos), pa.int64())})

    # positions stream is n_hashes × matching-keys ints — answer-sized for a
    # selective predicate; collected once to build the driver-side mask
    mask = np.zeros(bloom_bits, dtype=bool)
    for blk in keys_ds.map_batches(to_positions, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        mask[blk.column("pos").to_numpy()] = True
    bloom_ref = ray.put(np.packbits(mask))

    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice"])

    def line_side(b: pa.Table) -> pd.DataFrame:
        from spider_ray.stages.broadcast import get_broadcast

        packed = get_broadcast(bloom_ref)
        key = b.column("l_orderkey").to_numpy()
        pos = _bloom_positions(key, bloom_bits, n_hashes)
        hit = (
            (packed[pos >> 3] & (np.uint8(0x80) >> (pos & 7).astype(np.uint8))) != 0
        ).all(axis=1)
        key = key[hit]
        flag = np.asarray(b.column("l_returnflag").to_pylist(), dtype=object)[hit]
        base = _cents(b.column("l_extendedprice").to_numpy())[hit]
        # partial per (orderkey, flag) before the exchange
        fcode, fvals = pd.factorize(flag, sort=True)
        order = np.lexsort((fcode, key))
        key, fcode, base = key[order], fcode[order], base[order]
        starts = np.flatnonzero(
            np.r_[True, (key[1:] != key[:-1]) | (fcode[1:] != fcode[:-1])][: len(key)]
        )
        return pd.DataFrame(
            {
                "o_orderkey": key[starts],
                "l_returnflag": np.take(fvals, fcode[starts]).astype(object),
                "n_items": np.diff(np.append(starts, len(key))).astype(np.int64),
                "sum_base_c": np.add.reduceat(base, starts) if len(key) else base,
            }
        )

    def shard_verify(o: pd.DataFrame, li: pd.DataFrame) -> pa.Table:
        hit = _isin_sorted(np.sort(o["o_orderkey"].to_numpy()), li["o_orderkey"].to_numpy())
        agg = li.loc[hit].groupby("l_returnflag", as_index=False)[
            ["n_items", "sum_base_c"]
        ].sum()
        return pa.table(
            {
                "l_returnflag": pa.array(agg["l_returnflag"], pa.string()),
                "n_items": pa.array(agg["n_items"].to_numpy(), pa.int64()),
                "sum_base_c": pa.array(agg["sum_base_c"].to_numpy(), pa.int64()),
            }
        )

    schema = pa.schema(
        [("l_returnflag", pa.string()), ("n_items", pa.int64()), ("sum_base_c", pa.int64())]
    )
    per_flag = shard_join(
        keys_ds,
        line.map_batches(line_side, batch_format="pyarrow"),
        "o_orderkey",
        shard_verify,
        schema,
    )

    # shard_verify already reduced to ≤|flags| rows per shard — finish with
    # final_merge's single answer-sized task instead of a second sort-based
    # groupby all-to-all (the q5 fix; measured ~2.5 s of wall at sf0.1).
    # Keyed sums of partial sums are idempotent under re-application.
    def merge_flags(d: pd.DataFrame) -> pd.DataFrame:
        return d.groupby("l_returnflag", as_index=False)[
            ["n_items", "sum_base_c"]
        ].sum()

    return final_merge(per_flag, merge_flags, schema)


def doc_length_ranks(sf_dir: str) -> Dataset:
    """Per-row GLOBAL RANK / CDF position without a global sort: for every
    document, how many documents are strictly shorter (``n_less``) and how
    many are at-most-as-long (``n_leq`` — the cumulative-distribution
    numerator). Integer counts, not float percentiles, so the result is
    hash-exact vs the SQL window oracle.

    Physical shape (the two-pass rank pattern): pass 1 builds the global
    VALUE histogram — per-batch value-count partials, one groupby whose
    exchange is distinct-value-sized, collected to the driver (bounded by
    the value domain, NOT the row count) and turned into prefix sums; pass
    2 broadcasts (sorted values, cum-counts) via ``ray.put`` and streams
    the table through one searchsorted per batch. A sort-based rank would
    shuffle every row twice; this moves each row once and the histogram
    once."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def val_partial(b: pa.Table) -> pa.Table:
        n = b.column("n_chars").to_numpy()
        vals, counts = np.unique(n, return_counts=True)
        return pa.table(
            {
                "value": pa.array(vals, pa.int64()),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    # partials are distinct-value × blocks rows — driver-side pandas merge
    # beats a sort-based all-to-all before an inevitable to_pandas (the
    # doc_length_quantiles rationale)
    hist = ds.map_batches(val_partial, batch_format="pyarrow").to_pandas()
    if hist.empty:
        # no documents: Ray drops the columns of a zero-row to_pandas —
        # rebuild the empty frame with its schema
        hist = pd.DataFrame(
            {"value": np.array([], np.int64), "n": np.array([], np.int64)}
        )
    else:
        hist = hist.groupby("value", as_index=False)["n"].sum()
    vals = hist["value"].to_numpy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    counts = hist["n"].to_numpy()[order]
    cum_leq = np.cumsum(counts)
    cum_less = cum_leq - counts
    rank_ref = ray.put((vals, cum_less, cum_leq))

    def attach_ranks(b: pa.Table) -> pa.Table:
        from spider_ray.stages.broadcast import get_broadcast

        v, less, leq = get_broadcast(rank_ref)
        n = b.column("n_chars").to_numpy()
        pos = np.searchsorted(v, n)  # every n is in v by construction
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_chars": b.column("n_chars"),
                "n_less": pa.array(np.take(less, pos)),
                "n_leq": pa.array(np.take(leq, pos)),
            }
        )

    return ds.map_batches(attach_ranks, batch_format="pyarrow")


def source_lang_cube(sf_dir: str) -> Dataset:
    """CUBE aggregate: document counts and char totals at ALL FOUR grouping
    levels — (source, lang), (source), (lang), grand total — completing the
    grouping-sets family next to ``source_lang_rollup`` (which lacks the
    (lang) slice). Same contract: one combiner pass aggregates the FINEST
    level only; every coarser cell is derived from the key-sized finest
    aggregate in a single task (the cube identity), so the fact table is
    scanned and shuffled exactly once for 2^k grouping sets. 'ALL' is the
    rolled-up marker on both engines (COALESCE on the SQL side)."""
    ds = _read(sf_dir, "documents", ["source", "lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.append_column(
            "n_docs", pa.array(np.ones(batch.num_rows, dtype=np.int64))
        )
        g = t.group_by(["source", "lang"]).aggregate(
            [("n_docs", "sum"), ("n_chars", "sum")]
        )
        return pa.table(
            {
                "source": g.column("source"),
                "lang": g.column("lang"),
                "n_docs": g.column("n_docs_sum"),
                "total_chars": g.column("n_chars_sum"),
            }
        )

    from spider_ray.blockutil import merge_keyed_sums

    finest = merge_keyed_sums(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["source", "lang"],
        sums=["n_docs", "total_chars"],
        empty_schema=pa.schema(
            [
                ("source", pa.string()),
                ("lang", pa.string()),
                ("n_docs", pa.int64()),
                ("total_chars", pa.int64()),
            ]
        ),
    )

    def cube(d: pd.DataFrame) -> pd.DataFrame:
        cols = ["source", "lang", "n_docs", "total_chars"]
        by_source = d.groupby("source", as_index=False)[["n_docs", "total_chars"]].sum()
        by_source["lang"] = "ALL"
        by_lang = d.groupby("lang", as_index=False)[["n_docs", "total_chars"]].sum()
        by_lang["source"] = "ALL"
        total = pd.DataFrame(
            {
                "source": ["ALL"],
                "lang": ["ALL"],
                "n_docs": [d["n_docs"].sum()],
                "total_chars": [d["total_chars"].sum()],
            }
        )
        return pd.concat(
            [d[cols], by_source[cols], by_lang[cols], total[cols]], ignore_index=True
        )

    # one task over the key-sized finest table (same contract as rollup)
    return finest.repartition(1).map_batches(
        cube, batch_format="pandas", batch_size=None
    )


def event_value_stats(sf_dir: str) -> Dataset:
    """Distributed VARIANCE via sufficient statistics: per event type the
    (n, Σx, Σx²) triple over integer-cents values — the decomposable form
    every scale-out engine uses for stddev/variance (the float two-pass
    formula would need the mean broadcast first; the raw-moment triple
    shuffles three int64s and stays bit-exact, letting the CALLER finish
    variance in whatever precision it wants). Cents² of a ≤$10k value ×
    10^10 rows stays under int64; the SQL oracle applies identical casts."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        v = _cents(b.column("value").to_numpy())
        t = pa.table(
            {
                "event_type": b.column("event_type"),
                "n": pa.array(np.ones(len(v), dtype=np.int64)),
                "sum_c": pa.array(v),
                "sum_sq_c": pa.array(v * v),
            }
        )
        g = t.group_by("event_type").aggregate(
            [("n", "sum"), ("sum_c", "sum"), ("sum_sq_c", "sum")]
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "n": g.column("n_sum"),
                "sum_c": g.column("sum_c_sum"),
                "sum_sq_c": g.column("sum_sq_c_sum"),
            }
        )

    from spider_ray.blockutil import merge_keyed_sums

    return merge_keyed_sums(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["event_type"],
        sums=["n", "sum_c", "sum_sq_c"],
        empty_schema=pa.schema(
            [
                ("event_type", pa.string()),
                ("n", pa.int64()),
                ("sum_c", pa.int64()),
                ("sum_sq_c", pa.int64()),
            ]
        ),
    )


def signup_click_purchase_funnel(sf_dir: str) -> Dataset:
    """Ordered FUNNEL (sequence-pattern match): users with a signup, then a
    click strictly AFTER it, then a purchase strictly after that click —
    the 3-step conversion query of event analytics. The greedy-earliest
    witness rule (earliest signup, then earliest qualifying click, then
    any later purchase) is optimal for subsequence containment, so
    existence of ANY chain == greedy success and the result is
    witness-independent; the SQL oracle states it as an EXISTS join chain.

    Physical shape: one scan filters to the three step types and ships
    (user, step, ts_us) int rows through a ``shard_exchange`` on user_id —
    the sessionize cost class (one row per matching event; the text and
    the other event columns never move). No per-batch minima are kept: a
    qualifying click can be later than any per-batch prefix (the
    threshold is another user's-step min, unknown at batch time), so
    per-batch pruning beyond the type filter would be lossy. Per shard
    the chain evaluates VECTORIZED: per-user min signup via a masked
    ``np.minimum.at``, one threshold-mask per subsequent step — no
    per-user Python loop."""
    from spider_ray.blockutil import shard_exchange

    steps = {"signup": 0, "click": 1, "purchase": 2}
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def partial(b: pa.Table) -> pd.DataFrame:
        et = b.column("event_type")
        mask = pc.is_in(et, value_set=pa.array(list(steps)))
        t = b.filter(mask)
        codes = np.zeros(t.num_rows, dtype=np.int8)
        for name, code in steps.items():
            codes[np.asarray(pc.equal(t.column("event_type"), name))] = code
        return pd.DataFrame(
            {
                "user_id": t.column("user_id").to_numpy(),
                "step": codes,
                "ts_us": _us(t.column("ts")),
            }
        )

    _SENT = np.iinfo(np.int64).max

    def shard_funnel(g: pd.DataFrame) -> pa.Table:
        user = g["user_id"].to_numpy()
        step = g["step"].to_numpy()
        ts = g["ts_us"].to_numpy()
        uu = np.unique(user)
        uidx = np.searchsorted(uu, user)
        # step 0: per-user earliest signup
        lo = np.full(len(uu), _SENT, dtype=np.int64)
        m0 = step == 0
        np.minimum.at(lo, uidx[m0], ts[m0])
        # step 1: per-user earliest click strictly after the signup
        c = np.full(len(uu), _SENT, dtype=np.int64)
        m1 = step == 1
        q1 = ts[m1] > lo[uidx[m1]]  # sentinel lo ⇒ never true
        np.minimum.at(c, uidx[m1][q1], ts[m1][q1])
        # step 2: any purchase strictly after that click
        m2 = step == 2
        q2 = ts[m2] > c[uidx[m2]]
        hit = np.unique(uidx[m2][q2])
        return pa.table({"user_id": pa.array(uu[hit], pa.int64())})

    return shard_exchange(
        ds.map_batches(partial, batch_format="pyarrow"),
        "user_id",
        shard_funnel,
        pa.schema([("user_id", pa.int64())]),
    )


def q17_small_qty_revenue(sf_dir: str, brand: str = "Brand#13") -> pa.Table:
    """TPC-H-Q17-shaped aggregate-then-self-join: total base price of
    lineitems whose quantity is below 20% of the per-part average, among
    parts of one brand — the "compare each row to its group's aggregate"
    pattern (reference has no analog; standard pipeline shape).

    Physical plan (two streaming passes, zero shuffles of fact rows):
    - the brand's partkey set is DIMENSION-sized (1/25th of part) →
      broadcast once as a sorted array;
    - pass 1 computes per-partkey (count, sum_qty_c) with per-batch
      PARTIAL aggregation — the exchange carries one row per (partkey ∩
      brand, block); the aggregate is brand-partkey-sized and broadcast;
    - pass 2 re-streams lineitem, probes the broadcast aggregate with one
      searchsorted per batch, and the qualifying predicate is evaluated in
      integers (``5·qty_c·n < sum_qty_c`` ⇔ qty < 0.2·avg — no float
      division, so Ray and DuckDB agree bit-exactly);
    - the result is ONE row of partial sums (Dataset.aggregate on the
      driver — answer-sized by construction)."""
    part_t = pq.read_table(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand"],
        filters=[("p_brand", "==", brand)],
    )
    pk_sorted = np.sort(part_t.column("p_partkey").to_numpy().astype(np.int64))
    pk_ref = ray.put(pk_sorted)

    line = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])

    def pass1(b: pa.Table) -> pa.Table:
        from spider_ray.stages.broadcast import get_broadcast

        pks = get_broadcast(pk_ref)
        key = b.column("l_partkey").to_numpy()
        keep = _isin_sorted(pks, key)
        key = key[keep]
        qty_c = _cents(b.column("l_quantity").to_numpy()[keep])
        uk, inv = np.unique(key, return_inverse=True)
        n = np.zeros(len(uk), dtype=np.int64)
        sq = np.zeros(len(uk), dtype=np.int64)
        np.add.at(n, inv, 1)
        np.add.at(sq, inv, qty_c)
        return pa.table(
            {
                "l_partkey": pa.array(uk, pa.int64()),
                "n": pa.array(n),
                "sq": pa.array(sq),
            }
        )

    agg = (
        line.map_batches(pass1, batch_format="pyarrow")
        .groupby("l_partkey")
        .aggregate(Sum("n", alias_name="n"), Sum("sq", alias_name="sq"))
        .to_pandas()  # brand-partkey-sized (|part|/25 rows)
    )
    if agg.empty:
        # unknown brand / no matching lineitems: Ray drops the columns of a
        # zero-row to_pandas — rebuild the empty frame with its schema
        agg = pd.DataFrame({"l_partkey": [], "n": [], "sq": []})
    ak = agg["l_partkey"].to_numpy().astype(np.int64)
    order = np.argsort(ak, kind="stable")
    agg_ref = ray.put(
        (ak[order], agg["n"].to_numpy()[order].astype(np.int64),
         agg["sq"].to_numpy()[order].astype(np.int64))
    )

    def pass2(b: pa.Table) -> pa.Table:
        from spider_ray.stages.broadcast import get_broadcast

        ks, ns, sqs = get_broadcast(agg_ref)
        key = b.column("l_partkey").to_numpy()
        if not len(ks):  # unknown brand: nothing can qualify
            return pa.table(
                {
                    "total_base_c": pa.array([0], pa.int64()),
                    "n_items": pa.array([0], pa.int64()),
                }
            )
        pos = np.minimum(np.searchsorted(ks, key), len(ks) - 1)
        hit = ks[pos] == key
        qty_c = _cents(b.column("l_quantity").to_numpy())
        base_c = _cents(b.column("l_extendedprice").to_numpy())
        keep = hit & (5 * qty_c * ns[pos] < sqs[pos])
        return pa.table(
            {
                "total_base_c": pa.array([int(base_c[keep].sum())], pa.int64()),
                "n_items": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    res = line.map_batches(pass2, batch_format="pyarrow").aggregate(
        Sum("total_base_c", alias_name="total_base_c"),
        Sum("n_items", alias_name="n_items"),
    )
    return pa.table(
        {
            "total_base_c": pa.array([int(res["total_base_c"] or 0)], pa.int64()),
            "n_items": pa.array([int(res["n_items"] or 0)], pa.int64()),
        }
    )


def q18_large_orders(sf_dir: str, min_qty: int = 300) -> Dataset:
    """TPC-H-Q18-shaped GROUP BY + HAVING + enrichment join: orders whose
    total lineitem quantity exceeds ``min_qty``, with customer name.

    Physical plan: per-batch PARTIAL (orderkey, qty_c) sums → one
    ``shard_exchange`` on orderkey (each orderkey in one call, so the
    per-shard reduce is one vectorized reduceat AND applies the HAVING
    filter locally — the shard output is already the answer-sized tail;
    a key-grain ``groupby(l_orderkey)`` sort-aggregate measured 4.1 s of
    the 4.7 s wall at sf0.1 vs ~0.6 s for the shard shape) → broadcast the
    qualifying (orderkey, sum_qty_c) + the customer name dimension → one
    streaming probe pass over orders. No fact⋈fact exchange: the only
    exchange is the combiner-reduced one."""
    from spider_ray.blockutil import drop_empty_blocks, shard_exchange

    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def partial(b: pa.Table) -> pa.Table:
        key = b.column("l_orderkey").to_numpy()
        qty_c = _cents(b.column("l_quantity").to_numpy())
        uk, inv = np.unique(key, return_inverse=True)
        sq = np.zeros(len(uk), dtype=np.int64)
        np.add.at(sq, inv, qty_c)
        return pa.table({"l_orderkey": pa.array(uk, pa.int64()), "sum_qty_c": pa.array(sq)})

    def shard_sum(g: pd.DataFrame) -> pa.Table:
        key = g["l_orderkey"].to_numpy()
        sq = g["sum_qty_c"].to_numpy()
        order = np.argsort(key, kind="stable")
        key, sq = key[order], sq[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        tot = np.add.reduceat(sq, starts) if len(key) else sq
        key = key[starts]
        keep = tot > min_qty * 100  # HAVING, applied at the shard grain
        return pa.table(
            {
                "l_orderkey": pa.array(key[keep], pa.int64()),
                "sum_qty_c": pa.array(tot[keep], pa.int64()),
            }
        )

    big = shard_exchange(
        line.map_batches(partial, batch_format="pyarrow"),
        "l_orderkey",
        shard_sum,
        pa.schema([("l_orderkey", pa.int64()), ("sum_qty_c", pa.int64())]),
    ).to_pandas()  # answer-sized: the HAVING tail
    if big.empty:
        # no order clears the threshold: Ray drops the columns of a
        # zero-row to_pandas — rebuild the empty frame with its schema
        big = pd.DataFrame({"l_orderkey": [], "sum_qty_c": []})
    bk = big["l_orderkey"].to_numpy().astype(np.int64)
    order = np.argsort(bk, kind="stable")
    big_ref = ray.put((bk[order], big["sum_qty_c"].to_numpy()[order].astype(np.int64)))

    cust = pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey", "c_name"])
    ck = cust.column("c_custkey").to_numpy().astype(np.int64)
    corder = np.argsort(ck, kind="stable")
    cust_ref = ray.put(
        (ck[corder], np.asarray(cust.column("c_name").to_pylist(), dtype=object)[corder])
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def probe(b: pa.Table) -> pa.Table:
        from spider_ray.stages.broadcast import get_broadcast

        ks, sq = get_broadcast(big_ref)
        cks, cnames = get_broadcast(cust_ref)
        key = b.column("o_orderkey").to_numpy()
        if len(ks):
            pos = np.minimum(np.searchsorted(ks, key), len(ks) - 1)
            hit = ks[pos] == key
        else:
            pos = np.zeros(len(key), dtype=np.int64)
            hit = np.zeros(len(key), dtype=bool)
        custk = b.column("o_custkey").to_numpy()[hit]
        cpos = np.minimum(np.searchsorted(cks, custk), max(len(cks) - 1, 0))
        name = cnames[cpos] if len(cks) else np.full(len(custk), "", dtype=object)
        return pa.table(
            {
                "c_name": pa.array(name, pa.string()),
                "o_orderkey": pa.array(key[hit], pa.int64()),
                "totalprice_c": pa.array(
                    _cents(b.column("o_totalprice").to_numpy()[hit]), pa.int64()
                ),
                "sum_qty_c": pa.array(sq[pos[hit]], pa.int64()),
            }
        )

    # schema survives an all-filtered result (Ray prunes empty blocks)
    return drop_empty_blocks(
        orders.map_batches(probe, batch_format="pyarrow"),
        pa.schema(
            [
                ("c_name", pa.string()),
                ("o_orderkey", pa.int64()),
                ("totalprice_c", pa.int64()),
                ("sum_qty_c", pa.int64()),
            ]
        ),
    )


def user_value_moving_sum(
    sf_dir: str, event_type: str = "purchase", window: int = 3
) -> Dataset:
    """Bounded-frame window function — SQL's ``SUM(value) OVER (PARTITION
    BY user_id ORDER BY ts, event_id ROWS BETWEEN 2 PRECEDING AND CURRENT
    ROW)`` — the rolling-feature shape (moving averages/sums per key) that
    complements the unbounded-frame ``user_running_total``.

    Same physical plan as running total (``shard_exchange`` on user_id, one
    lexsort + cumsum pass per shard); the bounded frame is ``cum[i] −
    cum[max(group_start, i−w+1) − 1]`` computed with one ``np.maximum``
    over the per-row group-start index — no per-row loop, no per-user
    Python call."""
    from spider_ray.blockutil import shard_exchange

    def shard_window(g: pd.DataFrame) -> pd.DataFrame:
        uid = g["user_id"].to_numpy()
        ts = g["ts"].to_numpy()
        eid = g["event_id"].to_numpy()
        val = g["value_c"].to_numpy()
        order = np.lexsort((eid, ts, uid))
        uid, eid, val = uid[order], eid[order], val[order]
        cum = np.concatenate(([np.int64(0)], np.cumsum(val)))
        new_user = np.empty(len(uid), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(new_user)
        # per-row index of the row's group start, then the bounded frame
        grp_start = np.repeat(starts, np.diff(np.append(starts, len(uid))))
        idx = np.arange(len(uid))
        lo = np.maximum(grp_start, idx - (window - 1))
        return pd.DataFrame(
            {"event_id": eid, "user_id": uid, "moving_c": cum[idx + 1] - cum[lo]}
        )

    return shard_exchange(
        _typed_events(sf_dir, event_type),
        "user_id",
        shard_window,
        pa.schema(
            [("event_id", pa.int64()), ("user_id", pa.int64()), ("moving_c", pa.int64())]
        ),
    )


def mode_lang_per_source(sf_dir: str) -> Dataset:
    """MODE per group (argmax-of-counts): the most frequent ``lang`` per
    ``source``, ties broken by lang ascending — the categorical-mode
    aggregate Ray Data lacks. Per-batch (source, lang) count partials →
    ``merge_keyed_sums`` (complete counts) → the argmax over its
    answer-sized output (the (source × lang) grid is ≤ a few hundred rows
    at any corpus size — categorical domains don't grow with the data).

    The argmax runs only on COMPLETE counts: over partial counts it would
    drop a lang that loses one partial but wins the total (which
    ``final_merge``'s intermediate level used to do to this query above its
    row threshold). Over complete, key-unique counts it is idempotent, so
    ``final_merge`` may apply it at any level."""
    from spider_ray.blockutil import final_merge, merge_keyed_sums

    ds = _read(sf_dir, "documents", ["source", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.append_column("n_docs", pa.array(np.ones(b.num_rows, dtype=np.int64)))
        g = t.group_by(["source", "lang"]).aggregate([("n_docs", "sum")])
        return pa.table(
            {
                "source": g.column("source"),
                "lang": g.column("lang"),
                "n_docs": g.column("n_docs_sum"),
            }
        )

    def argmax(bt: pd.DataFrame) -> pa.Table:
        # lang ascending then stable sort by count desc ⇒ first row per
        # source is (max count, min lang) — the SQL row_number tie rule
        bt = bt.sort_values("lang", kind="stable")
        bt = bt.sort_values("n_docs", ascending=False, kind="stable")
        top = bt.drop_duplicates("source", keep="first")
        return pa.table(
            {
                "source": pa.array(top["source"].to_numpy(), pa.string()),
                "lang": pa.array(top["lang"].to_numpy(), pa.string()),
                "n_docs": pa.array(top["n_docs"].to_numpy(), pa.int64()),
            }
        )

    schema = pa.schema(
        [("source", pa.string()), ("lang", pa.string()), ("n_docs", pa.int64())]
    )
    counts = merge_keyed_sums(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["source", "lang"],
        sums=["n_docs"],
        empty_schema=schema,
    )
    return final_merge(counts, argmax, schema)


def clickers_without_purchase(sf_dir: str) -> Dataset:
    """Keyed set DIFFERENCE (SQL EXCEPT) at (user, day) grain: the
    user-days with a click but NO purchase — the complement of
    ``repeat_buyers``' intersection (plain per-user EXCEPT would be empty
    on this dense corpus; the day grain is the shape a churn/abandonment
    pipeline actually queries). Per-batch partial: distinct (user, day)
    per flag (one np.unique over packed keys), emitted as indicator
    partials; the ``shard_exchange`` on (user, day) co-locates each pair,
    so one maximum.reduceat per shard ORs the indicators AND applies the
    EXCEPT filter locally (no pair-grain sort-aggregate). Day crosses the
    exchange as int64 epoch-µs (the events_hourly rule) and is cast back
    after."""
    from spider_ray.blockutil import shard_exchange

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def partial(b: pa.Table) -> pa.Table:
        et = b.column("event_type").to_numpy(zero_copy_only=False)
        uid = b.column("user_id").to_numpy()
        day = (
            pc.floor_temporal(b.column("ts"), unit="day")
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy()
        )
        out_u, out_d, out_c, out_p = [], [], [], []
        for flag, mask in (("c", et == "click"), ("p", et == "purchase")):
            pairs = np.unique(
                np.stack([uid[mask], day[mask]], axis=1), axis=0
            )
            out_u.append(pairs[:, 0])
            out_d.append(pairs[:, 1])
            one = np.ones(len(pairs), dtype=np.int64)
            zero = np.zeros(len(pairs), dtype=np.int64)
            out_c.append(one if flag == "c" else zero)
            out_p.append(zero if flag == "c" else one)
        return pa.table(
            {
                "user_id": pa.array(np.concatenate(out_u), pa.int64()),
                "day": pa.array(np.concatenate(out_d), pa.int64()),
                "c": pa.array(np.concatenate(out_c)),
                "p": pa.array(np.concatenate(out_p)),
            }
        )

    def shard_diff(g: pd.DataFrame) -> pa.Table:
        uid = g["user_id"].to_numpy()
        day = g["day"].to_numpy()
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        starts = np.flatnonzero(
            np.r_[True, (uid[1:] != uid[:-1]) | (day[1:] != day[:-1])]
        )
        c = np.maximum.reduceat(g["c"].to_numpy()[order], starts)
        p = np.maximum.reduceat(g["p"].to_numpy()[order], starts)
        keep = (c == 1) & (p == 0)
        return pa.table(
            {
                "user_id": pa.array(uid[starts][keep], pa.int64()),
                "day": pa.array(day[starts][keep]).cast(pa.timestamp("us")),
            }
        )

    from spider_ray.blockutil import drop_empty_blocks

    schema = pa.schema([("user_id", pa.int64()), ("day", pa.timestamp("us"))])
    # an all-purchaser corpus yields an EMPTY difference — pin the schema
    # through Ray's empty-block pruning (blockutil.drop_empty_blocks)
    return drop_empty_blocks(
        shard_exchange(
            ds.map_batches(partial, batch_format="pyarrow"),
            ["user_id", "day"],
            shard_diff,
            schema,
        ),
        schema,
    )


def late_shipment_priority_counts(
    sf_dir: str, ship_cutoff: str = "1998-06-01"
) -> Dataset:
    """TPC-H-Q4-shaped EXISTS semi-join + grouped count: orders having at
    least one lineitem shipped on/after ``ship_cutoff``, counted per
    order priority — the POSITIVE counterpart of the
    ``orders_without_lineitems`` anti-join, same ``shard_join`` shape.

    Both sides are fact-sized so neither broadcasts: lineitem reduces to
    per-batch UNIQUE qualifying orderkeys before the exchange, the shard
    does one searchsorted membership test, and the per-priority counts
    leave each shard as ≤ 5 partial rows."""
    from spider_ray.blockutil import merge_keyed_sums, shard_join

    cutoff_us = np.int64(np.datetime64(ship_cutoff, "us").astype(np.int64))
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def l_side(b: pa.Table) -> pa.Table:
        late = _us(b.column("l_shipdate")) >= cutoff_us
        key = np.unique(b.column("l_orderkey").to_numpy()[late])
        return pa.table({"o_orderkey": pa.array(key, pa.int64())})

    def shard_semi(o: pd.DataFrame, li: pd.DataFrame) -> pa.Table:
        hit = _isin_sorted(np.unique(li["o_orderkey"].to_numpy()), o["o_orderkey"].to_numpy())
        up, cnt = np.unique(o["o_orderpriority"].to_numpy()[hit], return_counts=True)
        return pa.table(
            {
                "o_orderpriority": pa.array(up, pa.string()),
                "n_orders": pa.array(cnt.astype(np.int64)),
            }
        )

    schema = pa.schema([("o_orderpriority", pa.string()), ("n_orders", pa.int64())])
    # ≤5 partial rows leave each shard — answer-sized, so the finish is
    # final_merge's single task, not a second sort-based groupby all-to-all
    return merge_keyed_sums(
        shard_join(
            orders,
            line.map_batches(l_side, batch_format="pyarrow"),
            "o_orderkey",
            shard_semi,
            schema,
        ),
        keys=["o_orderpriority"],
        sums=["n_orders"],
        empty_schema=schema,
    )


def nation_customer_supplier_balance(sf_dir: str) -> Dataset:
    """FULL OUTER join — the last join variant in the family (inner/
    broadcast: q5; left outer: order_lineitem_counts; anti:
    orders_without_lineitems; semi: late_shipment_priority_counts; as-of /
    range: asof_prev_event / events_range_join): per-nation customer count
    vs supplier count, zero-filled on BOTH sides so nations with only
    customers or only suppliers survive.

    Physical plan: both sides reduce to per-batch (nationkey, n) partials
    (combiner), union with a side tag, one key-sized groupby sums each
    side's count per nation — the full-outer zero-fill falls out of the
    union (a key present on one side simply has 0 partials from the
    other). The nation-name dimension is broadcast. Exchange rows:
    O(nations × blocks)."""
    cust = _read(sf_dir, "customer", ["c_nationkey"])
    supp = _read(sf_dir, "supplier", ["s_nationkey"])

    nat = pq.read_table(_t(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    nk = nat.column("n_nationkey").to_numpy().astype(np.int64)
    order = np.argsort(nk, kind="stable")
    nat_ref = ray.put(
        (nk[order], np.asarray(nat.column("n_name").to_pylist(), dtype=object)[order])
    )

    def side(col: str, is_supp: int):
        def partial(b: pa.Table) -> pa.Table:
            key = b.column(col).to_numpy().astype(np.int64)
            uk, cnt = np.unique(key, return_counts=True)
            z = np.zeros(len(uk), dtype=np.int64)
            c = cnt.astype(np.int64)
            return pa.table(
                {
                    "nationkey": pa.array(uk, pa.int64()),
                    "n_customers": pa.array(z if is_supp else c),
                    "n_suppliers": pa.array(c if is_supp else z),
                }
            )

        return partial

    tagged = cust.map_batches(side("c_nationkey", 0), batch_format="pyarrow").union(
        supp.map_batches(side("s_nationkey", 1), batch_format="pyarrow")
    )
    from spider_ray.blockutil import merge_keyed_sums

    agg = merge_keyed_sums(
        tagged,
        keys=["nationkey"],
        sums=["n_customers", "n_suppliers"],
        empty_schema=pa.schema(
            [
                ("nationkey", pa.int64()),
                ("n_customers", pa.int64()),
                ("n_suppliers", pa.int64()),
            ]
        ),
    )

    def attach_name(b: pa.Table) -> pa.Table:
        from spider_ray.stages.broadcast import get_broadcast

        ks, names = get_broadcast(nat_ref)
        key = b.column("nationkey").to_numpy().astype(np.int64)
        pos = np.minimum(np.searchsorted(ks, key), max(len(ks) - 1, 0))
        name = names[pos] if len(ks) else np.full(len(key), "", dtype=object)
        return pa.table(
            {
                "n_name": pa.array(name, pa.string()),
                "n_customers": b.column("n_customers"),
                "n_suppliers": b.column("n_suppliers"),
            }
        )

    return agg.map_batches(attach_name, batch_format="pyarrow")


def hourly_active_users(sf_dir: str) -> Dataset:
    """Windowed DISTINCT count — distinct users per event-time hour (the
    'hourly actives' metric; events_hourly counts rows, this counts
    users). Per-batch partial: one np.unique over packed (hour, user)
    int64 pairs — the exchange carries distinct-(hour, user)-per-block
    rows, never event rows. Cross-block dedup is the ``shard_exchange`` on
    (hour, user) (a pair lives wholly in one shard, so one np.unique per
    shard is a GLOBAL dedup and the shard emits per-hour partial counts
    directly); the hour-keyed combiner finish is final_merge's single task
    — this replaces the previous pair-grain ``groupby((hour, user))`` +
    hour-grain groupby pair of sort-based all-to-alls (2.7 s → ~1.2 s at
    sf0.1/32 cpus). Hour crosses the exchange as int64 epoch-µs (the
    events_hourly rule)."""
    from spider_ray.blockutil import merge_keyed_sums, shard_exchange

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def partial(b: pa.Table) -> pa.Table:
        hour = (
            pc.floor_temporal(b.column("ts"), unit="hour")
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy()
        )
        uid = b.column("user_id").to_numpy()
        pairs = np.unique(np.stack([hour, uid], axis=1), axis=0)
        return pa.table(
            {
                "hour": pa.array(pairs[:, 0], pa.int64()),
                "user_id": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    def shard_distinct_counts(g: pd.DataFrame) -> pa.Table:
        pairs = np.unique(
            np.stack([g["hour"].to_numpy(), g["user_id"].to_numpy()], axis=1),
            axis=0,
        )
        uh, cnt = np.unique(pairs[:, 0], return_counts=True)
        return pa.table(
            {
                "hour": pa.array(uh, pa.int64()),
                "n_users": pa.array(cnt.astype(np.int64)),
            }
        )

    schema = pa.schema([("hour", pa.int64()), ("n_users", pa.int64())])
    agg = merge_keyed_sums(
        shard_exchange(
            ds.map_batches(partial, batch_format="pyarrow"),
            ["hour", "user_id"],
            shard_distinct_counts,
            schema,
        ),
        keys=["hour"],
        sums=["n_users"],
        empty_schema=schema,
    )

    def cast_back(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour": b.column("hour").cast(pa.timestamp("us")),
                "n_users": b.column("n_users"),
            }
        )

    return agg.map_batches(cast_back, batch_format="pyarrow")

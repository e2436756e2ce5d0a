"""Block-level utilities for working around Ray Data block-schema gaps."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset


def strip_schema_metadata(ds: Dataset) -> Dataset:
    """Zero-copy per-block pass dropping schema-level metadata.

    Parquet written via pandas carries a ``b'pandas'`` schema-metadata blob;
    ``hash(pa.Schema)`` RAISES on such schemas (the embedded dict), which
    makes every downstream block-coalescing step log ``Failed to hash the
    schemas (for deduplication)`` and fall back to the slow unify path.
    Apply directly after ``read_parquet`` of pandas-written files
    (``batch_size=None`` = one batch per block, so this pass itself never
    coalesces)."""
    return ds.map_batches(
        lambda t: t.replace_schema_metadata(None),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )


def drop_empty_blocks(ds: Dataset, empty_schema: pa.Schema | None = None) -> Dataset:
    """Materialize ``ds`` and rebuild it from its non-empty block refs only
    (block METADATA is inspected, blocks are never fetched to the driver).

    EVERY ``Dataset.join`` input must pass through here (ray 2.49): the
    hash-shuffle operator broadcasts each input's schema to the aggregators
    via empty blocks piggybacked on the FIRST submitted shuffle task
    (hash_shuffle.py:584 ``send_empty_blocks=should_broadcast_schemas``),
    but a shuffle task whose input block is empty returns early WITHOUT
    sending anything (hash_shuffle.py:223) — so when an empty block happens
    to be the first one submitted, partitions that receive no data rows get
    ZERO-COLUMN tables and Arrow's join raises ``No match or multiple
    matches for key field reference``. Block arrival order is
    load-dependent, which made this a flake. Related: the hash-aggregate
    itself emits zero-column blocks for empty output partitions, and
    ``map_batches`` skips empty blocks entirely, so they cannot be
    normalized by a downstream transform — dropping the blocks is the only
    reliable fix."""
    mds = ds.materialize()
    refs = []
    for bundle in mds.iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows:
                refs.append(ref)
    if not refs:
        if empty_schema is None:
            base = getattr(mds.schema(), "base_schema", None)
            empty_schema = base if isinstance(base, pa.Schema) else pa.schema([])
        return ray.data.from_arrow(empty_schema.empty_table())
    return ray.data.from_arrow_refs(refs)


def unique_pairs(lo, hi):
    """Dedup sorted ``(lo, hi)`` int64 pair arrays, returned sorted.

    Packed-uint64 ``np.unique`` when both ids fit 32 bits (~5× faster than
    a 2-column drop_duplicates — BASELINE.md); otherwise a lexsort-based
    unique, because at the 10^10-row tier ids exceed 32 bits and a packed
    key would silently collide distinct pairs instead of failing loudly."""
    import numpy as np

    if len(hi) == 0:
        return lo, hi
    # lo.max() is checked too (not just hi.max()): packing is only safe when
    # BOTH columns fit 32 bits, and relying on the callers' elementwise
    # lo<=hi ordering contract to imply it would fail silently if a future
    # caller passed unordered columns
    if hi.max() < 1 << 32 and lo.min() >= 0 and lo.max() < 1 << 32:
        uk = np.unique((lo.astype(np.uint64) << np.uint64(32)) | hi.astype(np.uint64))
        return (uk >> np.uint64(32)).astype(np.int64), (
            uk & np.uint64(0xFFFFFFFF)
        ).astype(np.int64)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    keep = np.empty(len(lo), dtype=bool)
    keep[0] = True
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[keep], hi[keep]


def final_merge(
    ds: Dataset,
    fn,
    empty_schema: pa.Schema,
    *,
    batch_format: str = "pandas",
    threshold_rows: int = 2_000_000,
) -> Dataset:
    """Answer-sized final merge with a two-level guard.

    The pair/top-k pipelines end by coalescing their (answer-sized) partial
    rows into ONE task and running an idempotent merge ``fn`` — right at any
    plausible scale, but a 10^6-block run could still funnel too many rows
    through the single task. This helper inspects the partials' row count
    from block METADATA (one materialize — the inputs to every caller are
    already survivor/partial-sized) and, above ``threshold_rows``, inserts
    one intermediate ``repartition(cpus)`` merge level before the final
    single task. Empty blocks (schema-less, from sparse shards — see
    drop_empty_blocks) are dropped in the same pass. ``fn`` must be
    idempotent (dedup / local-top-k both are)."""
    mds = ds.materialize()
    refs, total = [], 0
    for bundle in mds.iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows:
                refs.append(ref)
                total += meta.num_rows
    if not refs:
        # Return the empty table DIRECTLY — Ray Data prunes an empty
        # dataset's block through any downstream op (repartition /
        # map_batches both yield a zero-column result), so running the
        # merge fn here would destroy the schema, not preserve it. fn is
        # idempotent, so skipping it on zero rows is a no-op by contract;
        # empty_schema must therefore be fn's OUTPUT schema.
        return ray.data.from_arrow(empty_schema.empty_table())
    base = ray.data.from_arrow_refs(refs)
    if total > threshold_rows:
        base = base.repartition(default_shuffle_partitions()).map_batches(
            fn, batch_format=batch_format, batch_size=None
        )
    return base.repartition(1).map_batches(
        fn, batch_format=batch_format, batch_size=None
    )


def merge_keyed_sums(
    partials: Dataset,
    *,
    keys: list[str],
    sums: list[str] | None = None,
    aggs: dict[str, str] | None = None,
    empty_schema: pa.Schema,
    threshold_rows: int = 2_000_000,
) -> Dataset:
    """final_merge specialization for the commonest finish: per-block
    partial aggregates over a BOUNDED key grid (returnflag×linestatus,
    segment, priority, hour, …). The input is key-grid × blocks rows, so
    one task replaces a full sort-based ``groupby(keys).aggregate(…)``
    all-to-all — measured ~1-2.5 s per query at sf0.1/32 cpus for grids of
    5-500 keys. Pass ``sums`` for all-sum columns or ``aggs`` mapping
    column → 'sum' | 'max' | 'min'; each is a semigroup merge of partials,
    idempotent under re-application, which is final_merge's fn contract
    (the two-level guard may apply fn twice)."""
    if aggs is None:
        aggs = {c: "sum" for c in (sums or [])}
    cols = list(aggs)

    def merge(d: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: a null key is a real group under Ray's groupby
        # (e.g. orders_by_segment's unmatched-order segment) — pandas
        # would silently drop it otherwise
        out = d.groupby(keys, as_index=False, sort=False, dropna=False).agg(aggs)
        return out[keys + cols]

    return final_merge(
        partials, merge, empty_schema, threshold_rows=threshold_rows
    )


def default_shuffle_partitions(floor: int = 4, cap: int = 256) -> int:
    """Join/aggregate fan-out scaled to the cluster: ~one hash partition per
    CPU, floored and capped. A hard-coded ``num_partitions=4`` is right at
    sf0.1 on one node but funnels every shuffle of a 256-node cluster
    through 4 reducers; deriving it from ``cluster_resources`` keeps reducer
    parallelism proportional to the machine."""
    return max(floor, min(cap, int(ray.cluster_resources().get("CPU", 4))))


def attach_payload(
    pairs: Dataset,
    payload: Dataset,
    *,
    pairs_key: str,
    payload_key: str,
    payload_col: str,
    out_col: str,
    pair_cols: dict,
    num_shards: int,
    dedup_on: list[str] | None = None,
) -> Dataset:
    """Broadcast-free inner equi-join of a binary payload column onto pair
    rows, as ONE task-based sort shuffle — the replacement for
    ``Dataset.join`` in the sketch-verify pipelines.

    Why not ``Dataset.join``: ray 2.49's join is a hash-shuffle operator that
    spawns ``num_partitions`` aggregator ACTORS per join per execution (three
    joins cost three fleet spawns — measured ~2-3 s each on this host even
    warm), and its schema broadcast makes empty input blocks a load-order
    flake (see drop_empty_blocks), which forces an extra full
    materialization per join input. This shape instead tags both sides,
    unions them, groupbys on an int shard key (the cheap task-based sort
    shuffle), and does a vectorized pandas merge per shard — no actors, no
    materialization, flake-free. Measured 3× faster end-to-end on the
    minhash pipeline at sf0.1.

    ``pairs`` rows keep every column in ``pair_cols`` (name → filler value
    of the right dtype, used to pad the payload side so the union schemas
    match) and gain ``out_col``. ``payload`` must be exactly
    ``(payload_key: int64, payload_col: binary)`` with unique keys. Shard
    sizes are ~N/num_shards on either side — size ``num_shards`` so one
    shard's payload slice fits a worker heap. ``dedup_on``: drop duplicate
    pair rows per shard BEFORE the merge — global dedup when ``pairs_key``
    is in ``dedup_on`` (all copies of a pair hash to the same shard)."""
    import numpy as np
    import pandas as pd

    names = list(pair_cols)

    def tag_payload(b: pd.DataFrame) -> pd.DataFrame:
        k = b[payload_key].to_numpy().astype(np.int64)
        cols = {"_s": (pd.util.hash_array(k) % num_shards).astype(np.int64)}
        cols["_t"] = np.zeros(len(k), dtype=np.int8)
        for n in names:
            cols[n] = pair_cols[n]
        cols["_k"] = k
        cols[out_col] = b[payload_col]
        return pd.DataFrame(cols)

    def tag_pairs(b: pd.DataFrame) -> pd.DataFrame:
        k = b[pairs_key].to_numpy().astype(np.int64)
        cols = {"_s": (pd.util.hash_array(k) % num_shards).astype(np.int64)}
        cols["_t"] = np.ones(len(k), dtype=np.int8)
        for n in names:
            cols[n] = b[n]
        cols["_k"] = k
        cols[out_col] = b"" if len(k) else np.array([], dtype=object)
        return pd.DataFrame(cols)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        is_pay = g["_t"].to_numpy() == 0
        pay = g.loc[is_pay, ["_k", out_col]]
        p = g.loc[~is_pay, names + ["_k"]]
        if dedup_on:
            p = p.drop_duplicates(subset=dedup_on)
        out = p.merge(pay, on="_k", how="inner")
        return out[names + [out_col]]

    tagged = pairs.map_batches(tag_pairs, batch_format="pandas").union(
        payload.map_batches(tag_payload, batch_format="pandas")
    )
    return tagged.groupby("_s").map_groups(merge, batch_format="pandas")


# read_clean_parquet checks every file's footer schema up to this count,
# then falls back to a spread sample (see its docstring)
_SCHEMA_PROBE_ALL = 64


def read_clean_parquet(path, columns: list[str] | None = None, **kwargs) -> Dataset:
    """``read_parquet`` with the file's schema passed EXPLICITLY, minus
    metadata. Pandas-written parquet carries a ``b'pandas'`` schema-metadata
    blob whose embedded dict makes ``hash(pa.Schema)`` raise, so every
    block-coalescing step (``SplitBlocks``, unions, shuffles) inside the
    READ op itself logs ``Failed to hash the schemas (for deduplication)``
    and falls back to the slow unify path — a downstream
    ``strip_schema_metadata`` map can't reach those. Stripping at the read
    means blocks never carry the blob at all. When ``columns`` is given the
    schema must describe exactly the selected columns (ray 2.49 contract).

    Schema-drift handling: footer schemas are checked for EVERY file up to
    ``_SCHEMA_PROBE_ALL`` files (footer reads are cheap); beyond that, a
    spread sample is checked — at that count the directory is one writer's
    partitioned output and a single odd file out is a corruption class this
    guard does not claim to catch (the full check would cost a driver-side
    metadata scan per read). On any detected disagreement (drifted part
    files — e.g. string vs large_string from a different writer) the pin is
    dropped and the read falls back to ray's own unify path plus a
    per-block metadata strip, instead of mis-casting or raising on
    whichever file sort order put first."""
    import glob
    import os

    import pyarrow.parquet as pq

    probes = [path]
    if isinstance(path, (list, tuple)):
        probes = list(path)
    if os.path.isdir(probes[0]):
        probes = sorted(
            glob.glob(os.path.join(probes[0], "**", "*.parquet"), recursive=True)
        )
        if not probes:
            raise FileNotFoundError(f"no parquet files under directory {path!r}")
    if len(probes) <= _SCHEMA_PROBE_ALL:
        sample = set(probes)
    else:
        step = len(probes) // _SCHEMA_PROBE_ALL
        sample = set(probes[::step]) | {probes[-1]}
    schemas = [pq.read_schema(p).remove_metadata() for p in sorted(sample)]
    if any(not s.equals(schemas[0]) for s in schemas[1:]):
        # drifted parts: no safe single pin — let the read unify, then strip
        return strip_schema_metadata(
            ray.data.read_parquet(path, columns=columns, **kwargs)
        )
    full = schemas[0]
    schema = pa.schema([full.field(c) for c in columns]) if columns else full
    return ray.data.read_parquet(path, columns=columns, schema=schema, **kwargs)

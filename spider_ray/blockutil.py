"""Block-level utilities for working around Ray Data block-schema gaps."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset
from ray.data.block import BlockAccessor


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

    Ray Data's sort and hash exchanges emit ZERO-COLUMN blocks for output
    partitions that receive no rows, and ``map_batches`` skips empty blocks
    entirely, so a downstream transform cannot normalize them: a consumer
    that reads columns off every block (a ``union``, ``to_pandas`` of an
    all-empty result, a schema probe) meets a table with no columns.
    Dropping the blocks is the only reliable fix; with no rows left the
    result is ``empty_schema``'s empty table."""
    mds, refs, _, _ = _live_blocks(ds)
    if not refs:
        if empty_schema is None:
            base = getattr(mds.schema(), "base_schema", None)
            empty_schema = base if isinstance(base, pa.Schema) else pa.schema([])
        return ray.data.from_arrow(empty_schema.empty_table())
    return ray.data.from_arrow_refs(refs)


def _live_blocks(ds: Dataset):
    """Materialize ``ds``; return it with its non-empty block refs, their
    row total and their byte total, read from block METADATA (no block
    reaches the driver)."""
    mds = ds.materialize()
    refs, total, nbytes = [], 0, 0
    for bundle in mds.iter_internal_ref_bundles():
        for ref, meta in zip(bundle.block_refs, bundle.metadata):
            if meta.num_rows:
                refs.append(ref)
                total += meta.num_rows
                nbytes += meta.size_bytes or 0
    return mds, refs, total, nbytes


def collect_table(ds: Dataset) -> pa.Table | None:
    """``ds``'s rows as one Arrow table on the driver; None when it has
    none. ``materialize()`` comes first: on a dataset built from in-memory
    blocks (``from_arrow``, ``from_arrow_refs``, ``from_pandas``) it hands
    back those blocks without a streaming execution, where
    ``to_arrow_refs`` alone starts one (measured on Ray 2.49: 0 executions
    and 6 ms against 1 execution and 20 ms for four 15-row blocks)."""
    tbls = [t for t in ray.get(ds.materialize().to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tbls) if tbls else None


def compact_table(t: pa.Table) -> pa.Table:
    """Fresh buffers sized to the table. A SLICED Arrow column pickles its
    FULL parent buffers (measured on pyarrow 16: a 1000-row slice of a
    1M-row table serializes 38.7 MB; compacted, 37 KB) and
    ``combine_chunks`` does NOT compact a single sliced chunk —
    ``concat_arrays`` does. Apply before shipping any slice-derived table
    (a Ray task's return value, a ``ray.data.from_arrow`` block)."""
    if t.num_rows == 0:
        return t
    return pa.Table.from_arrays(
        [pa.concat_arrays(list(c.chunks)) for c in t.columns], schema=t.schema
    )


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
    _, refs, total, _ = _live_blocks(ds)
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


def default_shuffle_partitions() -> int:
    """Exchange fan-out scaled to the cluster: ~one hash partition per CPU,
    at least 4 and at most 256. A hard-coded ``num_partitions=4`` is right at
    sf0.1 on one node but funnels every shuffle of a 256-node cluster
    through 4 reducers; deriving it from ``cluster_resources`` keeps reducer
    parallelism proportional to the machine."""
    return max(4, min(256, int(ray.cluster_resources().get("CPU", 4))))


# shard_exchange runs one task at or below this many input rows, and about
# one shard per this many rows above it (capped at one per CPU). With Ray at
# 4 CPUs on a 4-CPU host, a sessionize-style lexsort + reduceat kernel ran
# fastest as one task up to ~1.25M rows, and two shards first beat one task
# between 1.5M and 1.75M (figures in CHANGES.md, which call the host
# one-core: its nproc honoured OMP_NUM_THREADS=1)
_ROWS_PER_SHARD = 1_500_000
# ... and one shard per this many input bytes (block metadata), whichever
# gives more shards: a few wide rows (minhash sketches, embedding vectors)
# must not reach one task whole. The value is the size the pipelines refuse
# to broadcast to every worker (ann.embedding_near_dup_lsh's
# verify_broadcast_limit), so a payload too big to broadcast is also split
_BYTES_PER_SHARD = 128 << 20


def _key_hash(t: pa.Table, key: str | list[str]) -> np.ndarray:
    """uint64 hash of ``key``: one column, or several XOR-combined with the
    i-th column's hash rotated by i bits (so equal values in two key
    columns do not cancel to 0). Integer columns hash as int64 with nulls
    as 0, so one key value lands in one shard whatever the width or null
    count of the block it came from."""
    h = np.zeros(t.num_rows, dtype=np.uint64)
    for i, k in enumerate([key] if isinstance(key, str) else key):
        col = t.column(k)
        if pa.types.is_integer(col.type):
            col = pc.fill_null(col.cast(pa.int64(), safe=False), 0)
        hk = pd.util.hash_array(col.to_numpy())
        if i:
            hk = (hk << np.uint64(i)) | (hk >> np.uint64(64 - i))
        h ^= hk
    return h


def _exchange(
    base: Dataset, rows: int, nbytes: int, key, fn, batch_format: str, out_schema: pa.Schema
) -> Dataset:
    """Run ``fn`` over ``base`` (``rows`` > 0 non-empty rows, ``nbytes``
    bytes) with every ``key`` group inside one call: one task when the input
    is small, else a sort exchange on a hashed int shard column. The sort
    leaves a zero-column block for every partition that got no rows, so the
    multi-shard result keeps only its non-empty blocks (``out_schema``'s
    empty table when ``fn`` kept nothing)."""
    n = min(
        default_shuffle_partitions(),
        max(-(-rows // _ROWS_PER_SHARD), -(-nbytes // _BYTES_PER_SHARD)),
    )
    if n <= 1:
        return base.repartition(1).map_batches(
            fn, batch_format=batch_format, batch_size=None
        )

    def add_shard(t: pa.Table) -> pa.Table:
        s = (_key_hash(t, key) % np.uint64(n)).astype(np.int64)
        # pandas-made blocks carry a b'pandas' metadata blob that makes
        # every sort-exchange concat fail to hash the schema
        return t.replace_schema_metadata(None).append_column("_s", pa.array(s))

    def per_shard(g):
        if isinstance(g, pd.DataFrame):
            return fn(g.drop(columns=["_s"]))
        return fn(g.drop_columns(["_s"]))

    return drop_empty_blocks(
        base.map_batches(add_shard, batch_format="pyarrow")
        .groupby("_s", num_partitions=n)
        .map_groups(per_shard, batch_format=batch_format),
        out_schema,
    )


def shard_exchange(ds: Dataset, key: str | list[str], fn, out_schema: pa.Schema) -> Dataset:
    """The engine's one hash-partitioned exchange: ``fn`` runs over pandas
    frames that each hold whole ``key`` groups (all rows of one key value
    land in one call), so ``fn`` must be correct on any union of key groups.

    The shape follows the input's row and byte totals, read from block
    metadata after one materialize (empty blocks are dropped, as in
    ``final_merge``): up to ``_ROWS_PER_SHARD`` rows and ``_BYTES_PER_SHARD``
    bytes, ``fn`` runs once over everything in a single task — no sort
    exchange, whose fixed per-task cost dominates small inputs. Above
    either, the rows are tagged with ``hash(key) % n`` and exchanged by a
    task-based ``groupby(...).map_groups`` with ``n = min(cpus,
    max(ceil(rows / _ROWS_PER_SHARD), ceil(bytes / _BYTES_PER_SHARD)))``
    partitions, so one shard's slice fits a worker heap — sorting an
    n-valued int column is the cheap kind of sort shuffle (a
    ``repartition(keys=...)`` needs the HASH_SHUFFLE strategy, measured 12×
    slower here, and ``Dataset.join`` spawns an actor fleet per call).
    Zero rows give ``out_schema``'s empty table without calling ``fn``, and
    no block of the result is a zero-column empty one."""
    _, refs, rows, nbytes = _live_blocks(ds)
    if not rows:
        return ray.data.from_arrow(out_schema.empty_table())
    return _exchange(ray.data.from_arrow_refs(refs), rows, nbytes, key, fn, "pandas", out_schema)


@ray.remote
def _arrow_schema(block) -> pa.Schema:
    return BlockAccessor.for_block(block).to_arrow().schema


def shard_join(
    left: Dataset, right: Dataset, key: str | list[str], fn, out_schema: pa.Schema
) -> Dataset:
    """``shard_exchange`` over two inputs: ``fn(left_rows, right_rows)`` runs
    with every ``key`` group of BOTH sides inside one call — the shape of
    every broadcast-free semi, anti, outer and verify join here. Both sides
    name the key the same; columns both sides carry must share a type.

    The sides are unioned with a ``_t`` side tag, each padded with nulls
    for the other side's columns; ``fn`` gets each side back as a pandas
    frame with exactly its own columns and types (an empty frame when a
    shard holds no rows of that side)."""
    sides = []
    for d in (left, right):
        mds, refs, rows, nbytes = _live_blocks(d)
        schema = getattr(mds.schema(), "base_schema", None)
        if not isinstance(schema, pa.Schema):
            # pandas blocks, or no rows: read the Arrow schema off one block
            # (an empty one when the side has no rows) in a small task
            probe = refs or [r for b in mds.iter_internal_ref_bundles() for r in b.block_refs]
            schema = ray.get(_arrow_schema.remote(probe[0])) if probe else pa.schema([])
        sides.append((refs, rows, nbytes, schema))
    rows = sides[0][1] + sides[1][1]
    if not rows:
        return ray.data.from_arrow(out_schema.empty_table())
    names = list(dict.fromkeys(n for *_, s in sides for n in s.names))
    fields = {f.name: f for *_, s in reversed(sides) for f in s}

    def tagger(i: int, own: pa.Schema):
        def tag(t: pa.Table) -> pa.Table:
            cols = {c: t.column(c) for c in own.names}
            for c in names:
                if c not in cols:
                    cols[c] = pa.nulls(t.num_rows, fields[c].type)
            cols["_t"] = pa.array(np.full(t.num_rows, i, dtype=np.int8))
            return pa.table([cols[c] for c in names + ["_t"]], names=names + ["_t"])

        return tag

    parts = [
        ray.data.from_arrow_refs(refs).map_batches(tagger(i, s), batch_format="pyarrow")
        for i, (refs, *_, s) in enumerate(sides)
        if refs
    ]
    tagged = parts[0] if len(parts) == 1 else parts[0].union(parts[1])

    def split(t: pa.Table):
        # Arrow batches, not pandas: a null-padded int column would come back
        # as float64, and each side is cut back to its own columns and types
        side = t.column("_t").to_numpy()
        return fn(
            *(
                t.filter(pa.array(side == i)).select(s.names).to_pandas()
                for i, (*_, s) in enumerate(sides)
            )
        )

    return _exchange(
        tagged, rows, sides[0][2] + sides[1][2], key, split, "pyarrow", out_schema
    )


def attach_payload(
    pairs: Dataset,
    payload: Dataset,
    *,
    pairs_key: str,
    payload_key: str,
    payload_col: str,
    out_col: str,
    dedup_on: list[str] | None = None,
) -> Dataset:
    """Broadcast-free inner equi-join of a binary payload column onto pair
    rows, as one ``shard_join`` — the replacement for ``Dataset.join`` in
    the sketch-verify pipelines.

    Why not ``Dataset.join``: ray 2.49's join is a hash-shuffle operator that
    spawns ``num_partitions`` aggregator ACTORS per join per execution (three
    joins cost three fleet spawns — measured ~2-3 s each even warm), and
    its schema broadcast made an empty input block a load-order flake
    (partitions with no rows came out zero-column, and Arrow's join raised
    on them). The shard exchange needs neither: no
    actors, a vectorized pandas merge per shard. Measured 3× faster
    end-to-end on the minhash pipeline at sf0.1.

    ``pairs`` rows keep all their columns and gain ``out_col``. ``payload``
    must be exactly ``(payload_key: int64, payload_col: binary)`` with unique
    keys. ``dedup_on``: drop duplicate pair rows per shard BEFORE the merge —
    global dedup when ``pairs_key`` is in ``dedup_on`` (all copies of a pair
    hash to the same shard). The shard count follows the input's rows and
    bytes together (see ``shard_exchange``), so a payload of wide values —
    sketches, vectors — is spread over one shard per ``_BYTES_PER_SHARD``
    rather than merged in one task."""

    def key_payload(t: pa.Table) -> pa.Table:
        return pa.table({"_k": t.column(payload_key), out_col: t.column(payload_col)})

    def key_pairs(t: pa.Table) -> pa.Table:
        return t.append_column("_k", t.column(pairs_key))

    def merge(pay: pd.DataFrame, p: pd.DataFrame) -> pd.DataFrame:
        names = [c for c in p.columns if c != "_k"]
        if dedup_on:
            p = p.drop_duplicates(subset=dedup_on)
        return p.merge(pay, on="_k", how="inner")[names + [out_col]]

    return shard_join(
        payload.map_batches(key_payload, batch_format="pyarrow"),
        pairs.map_batches(key_pairs, batch_format="pyarrow"),
        "_k",
        merge,
        # zero rows in: a zero-column empty result, as every consumer
        # (a verify map) prunes it to anyway
        pa.schema([]),
    )


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

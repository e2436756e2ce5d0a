"""Query/maintenance ops over a crawl store — the reference's ``catch`` /
``cobweb`` surface (SURVEY.md §3.2-§3.3) re-expressed over the store
parquet instead of a SQL database.
"""

from __future__ import annotations

import glob
import logging
import os
import shutil

import numpy as np
import pandas as pd
import ray
from ray.data import Dataset

from spider_ray.canonical import canonicalize, ensure_scheme, human_repr
from spider_ray.pipelines.crawl import read_store

# reference db_ops_controller logs one line per operation and its tests
# assert on them (test_db_ops_controller.py:21-41) — same surface here
LOG = logging.getLogger("spider_ray.store")


def catch(out_dir: str, parent_url: str, limit: int = 10) -> Dataset:
    """'catch': rows by parent + limit (cli.py:54-60 →
    postgres_database.py:144-160). The lookup key is normalized exactly like
    the reference (``URL(url).human_repr()``, db_ops_controller.py:59);
    ordered by discovery_rank for a deterministic LIMIT."""
    import pyarrow as pa
    import pyarrow.compute as pc

    key = human_repr(canonicalize(ensure_scheme(parent_url)))
    LOG.info("catch parent=%s limit=%d", key, limit)
    # column-pruned read: the flagship user query must never scan the page
    # text bytes (the reference SELECTs url,title only, :153); vectorized
    # equality filter — NOT an interpolated expr string (the key is
    # percent-DECODED, so it can legally contain quotes/spaces)
    ds = read_store(out_dir, columns=["url", "title", "parent", "discovery_rank"])
    return _first_by_rank(ds, lambda t: pc.equal(t["parent"], pa.scalar(key)), limit)


def catch_contains(out_dir: str, fragment: str, limit: int = 10) -> Dataset:
    """The Redis backend's alternate lookup semantics: substring match over
    keys, stop at limit (redis_database.py:108-134 ``SCAN MATCH *x*``).
    Documented variant; ``catch`` (SQL equality) is canonical."""
    import pyarrow.compute as pc

    ds = read_store(out_dir, columns=["url", "title", "discovery_rank"])
    # vectorized substring match (a per-row Python lambda here cost one
    # interpreter call per store row)
    return _first_by_rank(ds, lambda t: pc.match_substring(t["url"], fragment), limit)


def _first_by_rank(ds: Dataset, pred, limit: int) -> Dataset:
    """(url, title) of the ``limit`` rows matching ``pred`` with the lowest
    discovery_rank, in rank order: a per-block filter + top-``limit``, then
    ``final_merge``'s single sort + head — no distributed sort of the
    store."""
    import pyarrow as pa

    from spider_ray.blockutil import final_merge

    schema = pa.schema(
        [("url", pa.string()), ("title", pa.string()), ("discovery_rank", pa.int64())]
    )

    def head(t: pa.Table) -> pa.Table:
        return t.select(schema.names).sort_by("discovery_rank").slice(0, limit)

    top = final_merge(
        ds.map_batches(lambda t: head(t.filter(pred(t))), batch_format="pyarrow"),
        head,
        schema,
        batch_format="pyarrow",
    )
    return top.select_columns(["url", "title"])


def count_all(out_dir: str) -> int:
    """'cobweb count' (A1, postgres_database.py:184-200)."""
    n = read_store(out_dir).count()
    LOG.info("count_all n=%d", n)
    return n


def drop_store(out_dir: str) -> None:
    """'cobweb drop': delete the table AND the page files
    (db_ops_controller.py:71-83 + html_file_writer.py:46-55) — here one
    prefix delete, since bodies live inline in the store parquet."""
    LOG.info("drop_store out_dir=%s", out_dir)
    shutil.rmtree(os.path.join(out_dir, "store"), ignore_errors=True)
    shutil.rmtree(os.path.join(out_dir, "rounds"), ignore_errors=True)


def _store_files(out_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out_dir, "store", "r[0-9]*", "*.parquet")))


def _files_containing(out_dir: str, key: str) -> list[str]:
    """Store part files that may hold ``key`` — pruned by parquet row-group
    statistics (count_rows reads stats, not data), so a single-url operation
    touches O(1) part files, not the store."""
    import pyarrow.dataset as pads

    hits = []
    for f in _store_files(out_dir):
        if pads.dataset([f]).count_rows(filter=pads.field("url") == key) > 0:
            hits.append(f)
    return hits


def _rewrite_part(path: str, tbl) -> None:
    import pyarrow.parquet as pq

    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.tmp")
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)


def delete_url(out_dir: str, url: str) -> bool:
    """Single-url delete (reference ``html_file_writer.py:38-45`` delete +
    the DB row delete): locate the part file(s) holding the url via
    statistics pruning and atomically rewrite them without its rows.
    Returns True iff a row was deleted."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    key = canonicalize(ensure_scheme(url))
    LOG.info("delete_url url=%s", key)
    deleted = False
    for f in _files_containing(out_dir, key):
        tbl = pq.read_table(f)
        keep = pc.invert(pc.equal(tbl.column("url"), key))
        kept = tbl.filter(keep)
        if kept.num_rows < tbl.num_rows:
            deleted = True
            if kept.num_rows:
                _rewrite_part(f, kept)
            else:
                os.remove(f)
    return deleted


def upsert_url(
    out_dir: str, url: str, title: str, text: str, overwrite: bool = True
) -> dict | None:
    """Single-url upsert with the reference's overwrite-flag semantics
    (postgres_database.py:162-182): when the url exists and ``overwrite``
    is False, nothing changes and the OLD row is returned; when it exists
    and ``overwrite`` is True, its title/text are replaced in place (parent,
    depth and discovery_rank are preserved so catch/canonical ordering is
    stable) and the old row is returned; when absent, a new row is appended
    (depth 0, rank = max+1) and None is returned."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from spider_ray.stages.expand import STORE_SCHEMA

    key = canonicalize(ensure_scheme(url))
    LOG.info("upsert_url url=%s overwrite=%s", key, overwrite)
    hits = _files_containing(out_dir, key)
    if hits:
        f = hits[0]
        tbl = pq.read_table(f)
        mask = pc.equal(tbl.column("url"), key)
        idx = int(np.flatnonzero(mask.to_numpy(zero_copy_only=False))[0])
        old = {c: tbl.column(c)[idx].as_py() for c in tbl.schema.names}
        if not overwrite:
            return old
        cols = {c: tbl.column(c).to_pylist() for c in tbl.schema.names}
        cols["title"][idx] = title
        cols["text"][idx] = text
        _rewrite_part(f, pa.table(cols, schema=tbl.schema))
        return old

    ds = read_store(out_dir, columns=["discovery_rank"])  # never scan text
    max_rank = int(ds.max("discovery_rank")) if ds.count() else -1
    rounds = sorted(glob.glob(os.path.join(out_dir, "store", "r[0-9]*")))
    rdir = rounds[-1] if rounds else os.path.join(out_dir, "store", "r0000")
    os.makedirs(rdir, exist_ok=True)
    row = pa.table(
        {
            "url": [key],
            "title": [title],
            "parent": [human_repr(key)],
            "text": [text],
            "depth": pa.array([0], "int32"),
            "discovery_rank": [max_rank + 1],
        },
        schema=STORE_SCHEMA,
    )
    _rewrite_part(os.path.join(rdir, f"part-upsert-{max_rank + 1}.parquet"), row)
    return None


def compact_store(out_dir: str, target_rows_per_file: int = 500_000) -> int:
    """Maintenance op: rewrite the store's many per-round/per-task part
    files into few large files (long crawls produce thousands of small
    parquet parts — a read-amplification problem at scale). Atomic swap:
    compacted files land in a tmp dir which replaces ``store/`` wholesale
    (as ``r0000``, preserving the read layout). Returns the row count."""
    ds = read_store(out_dir)
    n = ds.count()
    if n == 0:
        return 0
    tmp = os.path.join(out_dir, ".compact")
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(os.path.join(tmp, "r0000"), min_rows_per_file=target_rows_per_file)
    store = os.path.join(out_dir, "store")
    old = os.path.join(out_dir, ".old_store")
    # two renames instead of rmtree-then-move: the old store stays intact
    # (recoverable at .old_store) until the new one is fully in place
    shutil.rmtree(old, ignore_errors=True)
    os.replace(store, old)
    os.replace(tmp, store)
    shutil.rmtree(old)
    return n


def _first_row_per_url(rows: Dataset, pref: str) -> Dataset:
    """One store row per url: the row with the smallest ``pref``, as
    ``STORE_SCHEMA`` Arrow. A ``shard_exchange`` on url puts every copy of
    a url in one kernel call, which sorts by ``pref`` and keeps each url's
    first row — so byte-identical copies (a retry-duplicated part file:
    same url and rank) collapse to one row as well."""
    import pyarrow as pa

    from spider_ray.blockutil import shard_exchange
    from spider_ray.stages.expand import STORE_SCHEMA

    def first(d: pd.DataFrame) -> pa.Table:
        d = d.sort_values(pref, kind="stable").drop_duplicates("url")
        return pa.Table.from_pandas(
            d[STORE_SCHEMA.names], schema=STORE_SCHEMA, preserve_index=False
        ).replace_schema_metadata(None)

    return shard_exchange(rows, "url", first, STORE_SCHEMA)


def finalize_store(store_root: str, out_path: str) -> None:
    """Optional exactness net after task retries: rewrite the store keeping
    one row per url (min discovery_rank — ranks are unique per crawl, so it
    alone identifies the winner). Reference analog: the DB's UNIQUE(url)
    upsert (schema.py:15, postgres_database.py:122-131)."""
    from spider_ray.blockutil import read_clean_parquet
    from spider_ray.state.seen import url_hash_batch

    rows = read_clean_parquet(store_root)
    # Write to a tmp dir and promote only after the invariant check below
    # passes — raising with out_path already populated would leave a
    # duplicate-bearing directory a retry or careless caller could consume
    # (the same tmp+rename convention as the store part writer).
    building = out_path.rstrip("/") + ".building"
    shutil.rmtree(building, ignore_errors=True)
    _first_row_per_url(rows, "discovery_rank").write_parquet(building)
    # Safety check outside the exchange: exactly one row per distinct url
    # of the input (counted by 64-bit url hash, 8 B per url on the driver;
    # a collision, odds ~n²/2^65, would fail it falsely) must survive. A
    # violation means a url's rows were split across kernel calls or
    # dropped; fail loudly rather than ship duplicates from an "exactness
    # net".
    def url_hashes(t) -> dict:
        return {"h": np.unique(url_hash_batch(t.column("url").to_numpy(zero_copy_only=False)))}

    hashes = read_clean_parquet(store_root, columns=["url"]).map_batches(
        url_hashes, batch_format="pyarrow", batch_size=None
    )
    parts = [b["h"] for b in hashes.iter_batches(batch_format="numpy", batch_size=None)]
    n_urls = len(np.unique(np.concatenate(parts))) if parts else 0
    n_out = ray.data.read_parquet(building).count()
    if n_out != n_urls:
        shutil.rmtree(building, ignore_errors=True)
        raise RuntimeError(
            f"finalize_store invariant violated: {n_out} rows written for "
            f"{n_urls} urls — the url exchange did not keep exactly one row "
            "per url"
        )
    shutil.rmtree(out_path, ignore_errors=True)
    os.replace(building, out_path)


def reconcile_stores(old_dir: str, new_dir: str, out_path: str, overwrite: bool = True) -> Dataset:
    """Cross-run upsert (S3): re-crawl reconciliation with the reference's
    overwrite flag semantics (postgres_database.py:104-142,162-182 —
    ON CONFLICT(url) DO UPDATE when overwrite, keep-old when not). The
    winner preference ``(preferred generation first, then min
    discovery_rank)`` is encoded into ONE int64 key ``_k`` (the claim-key
    trick from stages/claim.py), and ``_first_row_per_url`` keeps each
    url's row with the smallest ``_k``. The winner is the new row when
    ``overwrite`` else the old row (deterministic tie-break by
    discovery_rank within a generation, for stores that hold duplicate
    urls — --no-cache crawls or retry-duplicated parts). The new
    generation's ranks are offset past the old generation's maximum so the
    merged store keeps UNIQUE discovery_ranks (catch/canonical ordering
    stay deterministic across re-crawls)."""
    old_ds = read_store(old_dir)
    probe = read_store(old_dir, columns=["discovery_rank"])  # offset probe
    # scans ranks only, not the page text
    rank_offset = 0
    if probe.count() > 0:
        rank_offset = int(probe.max("discovery_rank")) + 1
    want = 1 if overwrite else 0
    _GEN_SHIFT = 48  # ranks stay < 2^48 — claim.RANK_BITS is 42

    def keyed(gen: int):
        pref = 0 if gen == want else 1

        def f(b: pd.DataFrame) -> pd.DataFrame:
            rank = b["discovery_rank"].astype("int64") + (rank_offset if gen == 1 else 0)
            return b.assign(discovery_rank=rank, _k=(pref << _GEN_SHIFT) | rank)

        return f

    old = old_ds.map_batches(keyed(0), batch_format="pandas")
    new = read_store(new_dir).map_batches(keyed(1), batch_format="pandas")
    _first_row_per_url(old.union(new), "_k").write_parquet(out_path)
    return ray.data.read_parquet(out_path)

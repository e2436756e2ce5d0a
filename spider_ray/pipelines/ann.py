"""Similarity search over an embedding column (``list<float>``).

- ``brute_topk``: exact cosine top-k. The query matrix is broadcast once
  (``ray.put``); every batch computes a numpy matmul against it and emits its
  LOCAL top-k (a per-batch partial), and a final tiny reduce merges partials
  — the shuffle carries k rows per block, never the corpus.
- ``lsh_topk``: the scale path — signed-random-projection LSH buckets
  (seeded hyperplanes, identical on every worker); only buckets within
  ``probe_hamming`` of the query's bucket are scanned. Approximate; recall
  rises with probe distance (tested against brute force).

Float discipline: all similarity math in float64; the oracle-checked query
(registry: ``embedding_topk``) returns only the ranked vec_ids, not the
float scores, so the DuckDB compare is over exact integers.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import Dataset

_N_PLANES = 8  # 256 LSH buckets
_PLANES_SEED = 7
_GRAM_CHUNK = 2048  # row-chunk bound for per-bucket gram verification


def _emb(sf_dir: str) -> Dataset:
    from spider_ray.blockutil import read_clean_parquet

    return read_clean_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )


def _to_matrix(batch: pd.DataFrame) -> np.ndarray:
    return np.stack(batch["embedding"].to_numpy()).astype(np.float64)


def query_vector(sf_dir: str, vec_id: int = 0) -> np.ndarray:
    """One row by key via parquet predicate pushdown — only row groups whose
    vec_id statistics cover the key are read, never the whole table."""
    tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "==", vec_id)],
    )
    if tbl.num_rows == 0:
        raise KeyError(f"vec_id {vec_id} not found")
    return np.asarray(tbl.column("embedding")[0].as_py(), dtype=np.float64)


def brute_topk(sf_dir: str, k: int = 10, query_id: int = 0) -> Dataset:
    """Exact cosine top-k vs the embedding of ``query_id``; deterministic
    tie-break by vec_id. Returns (vec_id,) in rank order."""
    q = query_vector(sf_dir, query_id)
    q = q / np.linalg.norm(q)
    q_ref = ray.put(q)

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        from spider_ray.stages.broadcast import get_broadcast

        qv = get_broadcast(q_ref)
        m = _to_matrix(batch)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        cos = m @ qv
        ids = batch["vec_id"].to_numpy()
        order = np.lexsort((ids, -cos))[:k]
        return pd.DataFrame({"vec_id": ids[order].astype(np.int64), "cos": cos[order]})

    partials = _emb(sf_dir).map_batches(local_topk, batch_format="pandas", batch_size=8192)
    merged = partials.to_pandas()  # ≤ k × n_blocks rows — tiny
    order = np.lexsort((merged["vec_id"].to_numpy(), -merged["cos"].to_numpy()))[:k]
    out = merged.iloc[order][["vec_id"]].reset_index(drop=True)
    return ray.data.from_pandas(out)


_IVF_SEED = 11


def _sample_matrix(sf_dir: str, sample: int) -> np.ndarray:
    """Deterministic DISTRIBUTED sample of ≈``sample`` unit-normalized
    embeddings: each batch keeps rows with ``vec_id % stride == 0`` (a
    pushed-down, layout-independent stride sample), and only those sampled
    rows ever reach the driver — never the full table."""
    ds = _emb(sf_dir)
    n = ds.count()  # parquet metadata only
    stride = max(1, n // max(1, sample))

    def keep(batch: pa.Table) -> pa.Table:
        mask = (batch.column("vec_id").to_numpy() % stride) == 0
        return batch.filter(pa.array(mask)).select(["embedding"])

    sampled = ds.map_batches(keep, batch_format="pyarrow")
    tbl = pa.concat_tables(ray.get(sampled.to_arrow_refs()))
    m = np.stack(tbl["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def train_ivf_centroids(
    sf_dir: str,
    n_clusters: int = 16,
    sample: int = 2048,
    iters: int = 10,
    matrix: np.ndarray | None = None,
) -> np.ndarray:
    """Deterministic mini k-means on a SAMPLE of the embeddings — the coarse
    quantizer of an IVF index. The sample is collected distributedly
    (``_sample_matrix``); centroid training stays a driver-side numpy loop
    (centroids are tiny). Pass ``matrix`` (already unit-normalized) to train
    on data the caller has in hand (tests)."""
    m = _sample_matrix(sf_dir, sample) if matrix is None else matrix
    rng = np.random.RandomState(_IVF_SEED)
    idx = rng.choice(len(m), size=min(sample, len(m)), replace=False)
    x = m[idx]
    n_clusters = min(n_clusters, len(x))  # tiny corpora: ≤1 point per cluster
    cent = x[rng.choice(len(x), size=n_clusters, replace=False)]
    for _ in range(iters):
        assign = (x @ cent.T).argmax(axis=1)  # cosine on unit vectors
        for c in range(n_clusters):
            mask = assign == c
            if mask.any():
                v = x[mask].mean(axis=0)
                cent[c] = v / np.linalg.norm(v)
    return cent


def ivf_topk(
    sf_dir: str, k: int = 10, query_id: int = 0, nprobe: int = 4, n_clusters: int = 16
) -> pd.DataFrame:
    """IVF approximate top-k: scan only the ``nprobe`` clusters nearest the
    query. Centroids train on a distributed sample, the query row comes via
    predicate pushdown, centroids are broadcast; every batch assigns its
    vectors to clusters (one matmul) and scores only the rows in probed
    clusters. This is the index-free streaming version — ``ivf_ingest`` +
    ``ivf_topk_bucketed`` below are the ingest-time layout that makes
    non-probed clusters never leave storage at all. ``nprobe >=
    n_clusters`` probes everything → exact (== brute_topk), which is the
    registry's oracle-checked mode."""
    q = query_vector(sf_dir, query_id)
    q = q / np.linalg.norm(q)
    cent = train_ivf_centroids(sf_dir, n_clusters)
    probe_set = set(np.argsort(-(cent @ q))[:nprobe].tolist())
    ref = ray.put((q, cent, probe_set))

    def scan(batch: pd.DataFrame) -> pd.DataFrame:
        from spider_ray.stages.broadcast import get_broadcast

        qv, c, ok = get_broadcast(ref)
        m = _to_matrix(batch)
        norm = m / np.linalg.norm(m, axis=1, keepdims=True)
        assign = (norm @ c.T).argmax(axis=1)
        keep = np.isin(assign, list(ok))
        if not keep.any():
            return pd.DataFrame(
                {"vec_id": pd.Series([], dtype=np.int64), "cos": pd.Series([], dtype=np.float64)}
            )
        cos = norm[keep] @ qv
        ids = batch["vec_id"].to_numpy()[keep]
        order = np.lexsort((ids, -cos))[:k]
        return pd.DataFrame({"vec_id": ids[order].astype(np.int64), "cos": cos[order]})

    partials = _emb(sf_dir).map_batches(scan, batch_format="pandas", batch_size=8192)
    merged = partials.to_pandas()
    order = np.lexsort((merged["vec_id"].to_numpy(), -merged["cos"].to_numpy()))[:k]
    return merged.iloc[order].reset_index(drop=True)


def ivf_ingest(sf_dir: str, index_dir: str, n_clusters: int = 16) -> np.ndarray:
    """Ingest-time IVF layout: assign every embedding to its nearest
    centroid and write the table PARTITIONED BY cluster id (hive dirs
    ``cluster=K/``). Probes then read only their buckets' files — at the
    100 TB tier non-probed clusters never leave storage. Returns (and
    persists) the trained centroids."""
    import shutil

    cent = train_ivf_centroids(sf_dir, n_clusters)
    shutil.rmtree(index_dir, ignore_errors=True)
    os.makedirs(index_dir, exist_ok=True)
    ref = ray.put(cent)

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        from spider_ray.stages.broadcast import get_broadcast

        c = get_broadcast(ref)
        m = _to_matrix(batch)
        norm = m / np.linalg.norm(m, axis=1, keepdims=True)
        batch = batch.copy()
        batch["cluster"] = (norm @ c.T).argmax(axis=1).astype(np.int64)
        return batch

    _emb(sf_dir).map_batches(assign, batch_format="pandas").write_parquet(
        index_dir, partition_cols=["cluster"]
    )
    np.save(os.path.join(index_dir, "centroids.npy"), cent)
    return cent


def ivf_topk_bucketed(
    sf_dir: str, index_dir: str, k: int = 10, query_id: int = 0, nprobe: int = 4
) -> pd.DataFrame:
    """Top-k over a cluster-partitioned IVF index: ONLY the ``nprobe``
    probed buckets' parquet files are opened (pruned at the read — see
    test_ann_index for the files-touched assertion)."""
    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    q = query_vector(sf_dir, query_id)
    q = q / np.linalg.norm(q)
    probes = np.argsort(-(cent @ q))[:nprobe].tolist()
    import glob

    # expand bucket dirs to their files (read_parquet accepts a dir OR a
    # list of files, not a list of dirs); a centroid owning zero rows
    # simply contributes no files
    paths = sorted(
        f
        for c in probes
        for f in glob.glob(os.path.join(index_dir, f"cluster={c}", "*.parquet"))
    )
    q_ref = ray.put(q)

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        from spider_ray.stages.broadcast import get_broadcast

        qv = get_broadcast(q_ref)
        m = _to_matrix(batch)
        norm = m / np.linalg.norm(m, axis=1, keepdims=True)
        cos = norm @ qv
        ids = batch["vec_id"].to_numpy()
        order = np.lexsort((ids, -cos))[:k]
        return pd.DataFrame({"vec_id": ids[order].astype(np.int64), "cos": cos[order]})

    partials = ray.data.read_parquet(paths, columns=["vec_id", "embedding"]).map_batches(
        local_topk, batch_format="pandas", batch_size=8192
    )
    merged = partials.to_pandas()
    order = np.lexsort((merged["vec_id"].to_numpy(), -merged["cos"].to_numpy()))[:k]
    return merged.iloc[order].reset_index(drop=True)


def _bucket_of(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    signs = (m @ planes.T) > 0
    return (signs << np.arange(planes.shape[0])).sum(axis=1).astype(np.int64)


def embedding_near_dup_lsh(
    sf_dir: str,
    threshold_pct: int = 40,
    n_planes: int = 3,
    n_tables: int = 24,
    verify_broadcast_limit: int = 128 << 20,
) -> Dataset:
    """Scale path for embedding-cosine near-dup: signed-random-projection
    LSH with ``n_tables`` independent plane sets.

    Shuffle discipline (the sketch-attach pattern from
    dedup.minhash_lsh_pairs): bucket rows carry METADATA ONLY —
    ``(table_id, bucket, vec_id)``, ~24 B — through one task-based sort
    shuffle that expands each bucket into ordered pairs, deduplicated
    per shard (a pair colliding in many tables costs one verify).

    Exact-cosine verification has TWO paths, gated on the byte size of the
    vectors table (the politeness/fetch dual-path pattern):

    - ``≤ verify_broadcast_limit`` (default 128 MB ≈ 250k vectors at
      dim 64): the normalized matrix ships ONCE via ``ray.put`` and each
      pair shard verifies locally — candidate pairs cross one extra sort
      shuffle as two int64s (16 B), embedding bytes never cross at all.
      At threshold 40 the recall-1.0 plane/table setting makes buckets
      dense (collision prob ≈ 0.96 even for orthogonal vectors), so
      per-pair vector attach would ship ~1 KB × |candidates| — measured
      13.8 s vs ~2 s at sf0.1.
    - beyond the limit: vectors are attached once per unique pair side
      from a ``(vec_id, v)`` table via ``blockutil.attach_payload`` —
      embedding bytes cross the all-to-all exactly twice per deduped
      candidate pair, never ×n_tables per bucket row. No stage uses
      ``Dataset.join`` (no aggregator-actor fleet per execution). Both
      paths are pytest-asserted equal (tests/test_dedup.py).

    Every candidate is verified exactly (float64 cosine vs the integer
    percent threshold), so precision is exact; recall ≈ 1-(1-p^planes)^tables
    rises with tables / falls with planes (planes also shrink buckets — the
    knob trades join volume for recall). The defaults give recall 1.0 on
    the deterministic sf0.001/sf0.01 fixtures (verified exhaustively vs the
    all-pairs answer), which is what makes the registry's exact-pairs SQL
    its driver oracle; the recall property is additionally pytest-gated
    against brute force in tests/test_dedup.py."""
    from spider_ray.blockutil import (
        attach_payload,
        final_merge,
        shard_exchange,
        unique_pairs,
    )

    thr = threshold_pct
    rng = np.random.RandomState(_PLANES_SEED + 1)
    dim = len(query_vector(sf_dir, 0))
    planes = rng.standard_normal((n_tables, n_planes, dim))
    planes_ref = ray.put(planes)

    # broadcast gate: parquet metadata only — the table itself is read
    # driver-side only when it fits under the limit
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    n_vecs = pq.ParquetFile(emb_path).metadata.num_rows
    vec_ref = None
    if n_vecs * dim * 8 <= verify_broadcast_limit:
        tbl = pq.read_table(emb_path, columns=["vec_id", "embedding"])
        ids = np.asarray(tbl.column("vec_id"), dtype=np.int64)
        m = np.array(tbl.column("embedding").to_pylist(), dtype=np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        order = np.argsort(ids)
        # np.take, not m[order]: fancy row gathers are ~30× slower than
        # take(axis=0) on this numpy build — at the 128 MB gate that is
        # seconds of driver time
        vec_ref = ray.put((ids[order], np.take(m, order, axis=0)))

    ds = _emb(sf_dir)

    # vectors table: one row per vec_id, normalized float64 bytes — joined
    # back per pair side AFTER pair dedup (raw bytes: list columns are not
    # joinable payloads)
    def to_vecs(batch: pd.DataFrame) -> pa.Table:
        m = _to_matrix(batch)
        norm = m / np.linalg.norm(m, axis=1, keepdims=True)
        ids = batch["vec_id"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "vec_id": pa.array(ids),
                "v": pa.array([norm[i].tobytes() for i in range(len(ids))], pa.large_binary()),
            }
        )

    # lazy: 0-row map outputs keep their schema through the task-based
    # attach shuffle (no Dataset.join → no empty-block hazard to guard)
    vecs = ds.map_batches(to_vecs, batch_format="pandas", batch_size=4096)

    def to_buckets(batch: pd.DataFrame) -> pa.Table:
        from spider_ray.stages.broadcast import get_broadcast

        pl = get_broadcast(planes_ref)
        m = _to_matrix(batch)
        norm = m / np.linalg.norm(m, axis=1, keepdims=True)
        ids = batch["vec_id"].to_numpy().astype(np.int64)
        out_t, out_b, out_id = [], [], []
        for t in range(pl.shape[0]):
            out_t.append(np.full(len(ids), t, dtype=np.int64))
            out_b.append(_bucket_of(norm, pl[t]))
            out_id.append(ids)
        return pa.table(
            {
                "table_id": pa.array(np.concatenate(out_t)),
                "bucket": pa.array(np.concatenate(out_b)),
                "vec_id": pa.array(np.concatenate(out_id)),
            }
        )

    # Candidate pairs WITHOUT Dataset.join (see dedup.minhash_lsh_pairs for
    # the rationale — join spawns an aggregator-actor fleet per execution
    # and its empty-block schema broadcast forces extra materializations):
    # one shard_exchange on (table_id, bucket) — one LSH bucket wholly in
    # one call — then a vectorized per-SHARD pass — lexsort + bucket
    # boundaries + triu expansion, one Python call per shard, never per
    # bucket or per pair. batch_size=None: one bucket batch per INPUT block.
    buckets = ds.map_batches(to_buckets, batch_format="pandas", batch_size=None)

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        t = g["table_id"].to_numpy()
        bkt = g["bucket"].to_numpy()
        d = g["vec_id"].to_numpy()
        order = np.lexsort((d, bkt, t))
        t, bkt, d = t[order], bkt[order], d[order]
        new = np.empty(len(t), dtype=bool)
        new[0] = True
        new[1:] = (t[1:] != t[:-1]) | (bkt[1:] != bkt[:-1])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(t)))
        if vec_ref is not None:
            # broadcast mode: verify PER BUCKET against the plasma-shared
            # matrix, before any pair row materializes — at the recall-1.0
            # plane setting candidates are ~all pairs, so either shipping
            # them or per-pair vector gathers dominates wall time (a
            # 2×|pairs|×dim gather also thrashes the allocator under task
            # concurrency — the round-1 combine_chunks lesson). Per bucket
            # the members' gram matrix ``sub @ sub.T`` is tiny (bucket
            # size²), costs one small np.take (NOT mat[idx] — fancy row
            # indexing is ~30× slower than take(axis=0) on this numpy
            # build), and yields every pairwise cosine at BLAS speed;
            # only surviving pairs are ever materialized. Buckets larger
            # than _GRAM_CHUNK verify in row chunks to bound the gram
            # block at chunk×size.
            from spider_ray.stages.broadcast import get_broadcast

            ids_s, mat = get_broadcast(vec_ref)
            out_a, out_b = [], []
            for s0, sz in zip(starts, sizes):
                if sz < 2:
                    continue
                seg = d[s0 : s0 + sz]
                sub = np.take(mat, np.searchsorted(ids_s, seg), axis=0)
                col = np.arange(sz)
                for c0 in range(0, sz, _GRAM_CHUNK):
                    blk = sub[c0 : c0 + _GRAM_CHUNK] @ sub.T
                    hit = (blk * 100 >= thr) & (col[None, :] > (c0 + np.arange(blk.shape[0]))[:, None])
                    bi, bj = np.nonzero(hit)
                    if len(bi):
                        out_a.append(seg[c0 + bi])
                        out_b.append(seg[bj])
        else:
            out_a, out_b = [], []
            for s0, sz in zip(starts, sizes):
                if sz < 2:
                    continue
                seg = d[s0 : s0 + sz]
                ia, ib = np.triu_indices(sz, k=1)
                out_a.append(seg[ia])
                out_b.append(seg[ib])
        if not out_a:
            return pd.DataFrame(
                {
                    "vec_a": np.array([], dtype=np.int64),
                    "vec_b": np.array([], dtype=np.int64),
                }
            )
        a = np.concatenate(out_a)
        bb = np.concatenate(out_b)
        # per-shard dedup via blockutil.unique_pairs: packed-key np.unique
        # (~5× faster than a 2-column drop_duplicates) behind an id-width
        # guard — lexsort-unique fallback past 2^32. Cross-shard copies of a
        # pair are merged by the survivor-dedup merge (broadcast mode) or
        # the attach-A shard (attach mode).
        av, bv = unique_pairs(np.minimum(a, bb), np.maximum(a, bb))
        return pd.DataFrame({"vec_a": av, "vec_b": bv})

    pair_schema = pa.schema([("vec_a", pa.int64()), ("vec_b", pa.int64())])
    pairs = shard_exchange(buckets, ["table_id", "bucket"], shard_pairs, pair_schema)

    if vec_ref is not None:
        # pairs are already VERIFIED (inside shard_pairs, against the
        # broadcast matrix); the merge only dedups cross-shard copies of
        # each surviving pair — survivor rows are the final answer size.
        def dedup_merge(b: pd.DataFrame) -> pa.Table:
            # unique_pairs mirrors shard_pairs' id-width guard: without it,
            # a >2^32 vec_id surviving shard_pairs' own fallback would be
            # re-corrupted here by an unconditional packed key
            av, bv = unique_pairs(
                b["vec_a"].to_numpy(np.int64), b["vec_b"].to_numpy(np.int64)
            )
            return pa.table({"vec_a": pa.array(av), "vec_b": pa.array(bv)})

        # single merge task, not a keyed shuffle: survivors ARE the final
        # answer (what the caller collects anyway). final_merge drops the
        # schema-less empty shard blocks and auto-inserts an intermediate
        # repartition(cpus) merge level above its partial-row threshold.
        return final_merge(pairs, dedup_merge, pair_schema)

    # vector attach: each side's normalized vector crosses the exchange once
    # per unique candidate pair side — never ×n_tables per bucket row
    with_a = attach_payload(
        pairs,
        vecs,
        pairs_key="vec_a",
        payload_key="vec_id",
        payload_col="v",
        out_col="v_a",
        dedup_on=["vec_a", "vec_b"],
    )
    with_ab = attach_payload(
        with_a,
        vecs,
        pairs_key="vec_b",
        payload_key="vec_id",
        payload_col="v",
        out_col="v_b",
    )

    def payload_matrix(col: "pa.ChunkedArray", n_rows: int) -> np.ndarray:
        # fixed-width binary column → (rows, dim) float64 matrix decoded at
        # the BUFFER level: slice each chunk's values buffer by its offsets
        # and view as float64 — no per-row python bytes objects (the
        # b"".join(to_pylist()) it replaces materialized one bytes object
        # per pair row)
        bufs = []
        for chunk in col.chunks:
            if len(chunk) == 0:
                continue
            off_dtype = (
                np.int64 if pa.types.is_large_binary(chunk.type) else np.int32
            )
            offs = np.frombuffer(chunk.buffers()[1], dtype=off_dtype)[
                chunk.offset : chunk.offset + len(chunk) + 1
            ]
            data = np.frombuffer(chunk.buffers()[2], dtype=np.uint8)
            bufs.append(data[offs[0] : offs[-1]])
        # concatenate allocates one fresh (aligned) buffer — a single memcpy
        return np.concatenate(bufs).view(np.float64).reshape(n_rows, -1)

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"vec_a": pa.array([], pa.int64()), "vec_b": pa.array([], pa.int64())}
            )
        va = payload_matrix(batch.column("v_a"), batch.num_rows)
        vb = payload_matrix(batch.column("v_b"), batch.num_rows)
        cos = np.einsum("ij,ij->i", va, vb)
        keep = cos * 100 >= thr
        return pa.table(
            {
                "vec_a": batch.column("vec_a").filter(pa.array(keep)),
                "vec_b": batch.column("vec_b").filter(pa.array(keep)),
            }
        )

    return with_ab.map_batches(verify, batch_format="pyarrow", batch_size=4096)


def lsh_topk(sf_dir: str, k: int = 10, query_id: int = 0, probe_hamming: int = 1) -> pd.DataFrame:
    """Approximate top-k: scan only embeddings whose LSH bucket is within
    ``probe_hamming`` bit flips of the query's bucket."""
    rng = np.random.RandomState(_PLANES_SEED)
    q = query_vector(sf_dir, query_id)  # one read serves dim + query
    planes = rng.standard_normal((_N_PLANES, q.shape[0]))
    q = q / np.linalg.norm(q)
    qb = int(_bucket_of(q[None, :], planes)[0])
    allowed = {
        b
        for b in range(1 << _N_PLANES)
        if bin(b ^ qb).count("1") <= probe_hamming
    }
    q_ref = ray.put((q, planes, allowed))

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        from spider_ray.stages.broadcast import get_broadcast

        qv, pl, ok = get_broadcast(q_ref)
        m = _to_matrix(batch)
        norm = m / np.linalg.norm(m, axis=1, keepdims=True)
        buckets = _bucket_of(norm, pl)
        keep = np.isin(buckets, list(ok))
        if not keep.any():
            return pd.DataFrame({"vec_id": pd.Series([], dtype=np.int64), "cos": pd.Series([], dtype=np.float64)})
        cos = norm[keep] @ qv
        ids = batch["vec_id"].to_numpy()[keep]
        order = np.lexsort((ids, -cos))[:k]
        return pd.DataFrame({"vec_id": ids[order].astype(np.int64), "cos": cos[order]})

    partials = _emb(sf_dir).map_batches(probe, batch_format="pandas", batch_size=8192)
    merged = partials.to_pandas()
    order = np.lexsort((merged["vec_id"].to_numpy(), -merged["cos"].to_numpy()))[:k]
    return merged.iloc[order].reset_index(drop=True)


def kmeans_clusters(
    sf_dir: str,
    k: int = 8,
    iterations: int = 5,
    quant_scale: int = 1 << 16,
) -> Dataset:
    """Deterministic QUANTIZED Lloyd's k-means over the embedding table —
    the iterative-refinement complement to ``ivf_ingest``'s one-shot
    sampled centroids. Returns (cluster_id, n_vecs) after ``iterations``
    assignment/update rounds.

    Determinism contract (why quantized): embeddings are floored to int64
    at ``quant_scale``; distances are exact integer arithmetic
    (|q|² − 2·q·c + |c|² via int64 matmul), centroid updates are integer
    floor-mean — so partial sums are addition-order-free and the result is
    identical at any parallelism/block split (a float k-means could flip a
    near-tie assignment depending on summation order). Ties in the argmin
    go to the LOWEST cluster id (np.argmin first-occurrence). Init =
    the k lowest vec_ids' vectors (parquet predicate pushdown).

    Scale shape: each iteration is ONE streaming pass — centroids broadcast
    via ``ray.put`` (k × dim int64, tiny), every batch computes a matmul
    assignment and emits at most k partial rows (count + packed int64 sum
    vector), and the driver reduces k × n_blocks rows (answer-sized by
    contract) to the next centroid matrix. No shuffle at all until the
    final k-row count aggregate."""
    ds = _emb(sf_dir)

    # init: the k lowest vec_ids (row-group pushdown, never a full scan)
    init_tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", k)],
    ).sort_by("vec_id")
    if init_tbl.num_rows == 0:
        return ray.data.from_arrow(
            pa.table(
                {"cluster_id": pa.array([], pa.int64()), "n_vecs": pa.array([], pa.int64())}
            )
        )
    k = init_tbl.num_rows  # fewer vectors than k: every vector a centroid
    centroids = np.floor(
        np.array(init_tbl.column("embedding").to_pylist(), dtype=np.float64)
        * quant_scale
    ).astype(np.int64)

    def _quant(batch: pd.DataFrame) -> np.ndarray:
        return np.floor(_to_matrix(batch) * quant_scale).astype(np.int64)

    def _assign(q: np.ndarray, cent: np.ndarray) -> np.ndarray:
        # exact integer squared distance; argmin tie → lowest cluster id
        d2 = (
            (q * q).sum(axis=1, keepdims=True)
            - 2 * (q @ cent.T)
            + (cent * cent).sum(axis=1)[None, :]
        )
        return np.argmin(d2, axis=1)

    for _ in range(iterations):
        cent_ref = ray.put(centroids)

        def partial_sums(batch: pd.DataFrame) -> pd.DataFrame:
            from spider_ray.stages.broadcast import get_broadcast

            cent = get_broadcast(cent_ref)
            q = _quant(batch)
            a = _assign(q, cent)
            counts = np.bincount(a, minlength=len(cent)).astype(np.int64)
            sums = np.zeros((len(cent), q.shape[1]), dtype=np.int64)
            np.add.at(sums, a, q)
            nz = np.flatnonzero(counts)
            return pd.DataFrame(
                {
                    "cluster_id": nz.astype(np.int64),
                    "n": counts[nz],
                    "vec_sum": [sums[c].tobytes() for c in nz],
                }
            )

        # k × n_blocks partial rows — answer-sized driver reduce by contract
        agg = ds.map_batches(
            partial_sums, batch_format="pandas", batch_size=4096
        ).to_pandas()
        counts = np.zeros(k, dtype=np.int64)
        sums = np.zeros_like(centroids)
        for cid, n, raw in zip(
            agg["cluster_id"].to_numpy(), agg["n"].to_numpy(), agg["vec_sum"]
        ):
            counts[cid] += n
            sums[cid] += np.frombuffer(raw, dtype=np.int64)
        nz = counts > 0
        centroids = centroids.copy()
        centroids[nz] = sums[nz] // counts[nz, None]  # empty cluster keeps its seat

    cent_ref = ray.put(centroids)

    def final_counts(batch: pd.DataFrame) -> pd.DataFrame:
        from spider_ray.stages.broadcast import get_broadcast

        cent = get_broadcast(cent_ref)
        a = _assign(_quant(batch), cent)
        counts = np.bincount(a, minlength=len(cent)).astype(np.int64)
        nz = np.flatnonzero(counts)
        return pd.DataFrame({"cluster_id": nz.astype(np.int64), "n_vecs": counts[nz]})

    from spider_ray.blockutil import merge_keyed_sums

    # k-clusters × blocks partial rows — answer-sized single-task finish
    return merge_keyed_sums(
        ds.map_batches(final_counts, batch_format="pandas", batch_size=4096),
        keys=["cluster_id"],
        sums=["n_vecs"],
        empty_schema=pa.schema(
            [("cluster_id", pa.int64()), ("n_vecs", pa.int64())]
        ),
    )

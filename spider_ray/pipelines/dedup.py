"""Deduplication family over a documents table — exact, MinHash+LSH,
SimHash, n-gram Jaccard, embedding-cosine — each shaped for the 100 TB tier:

- **exact**: content-hash column (vectorized md5) → ``shard_exchange``
  on the hash → first-wins (min doc_id). One exchange of (fp, doc_id)
  pairs only — the text never moves.
- **MinHash+LSH**: per-doc shingle-hash SKETCHES (vectorized polynomial
  over cached md5 word hashes) are computed once and materialized; 64
  minhashes derive from the sketch (numpy universal hashes); 32 bands × 2
  rows explode to ``(band_id, k1, k2, doc_id)`` rows; candidate pairs come
  from ONE ``shard_exchange`` on the band key + a vectorized per-shard
  pass (lexsort + bucket boundaries + triu — no
  per-bucket Python, no ``Dataset.join`` actor fleets); pairs are deduped
  in the attach shard and verified by EXACT Jaccard over the two docs'
  sketches, attached via ``blockutil.attach_payload`` — document text is
  never broadcast and never moves after the sketch pass. With 2-row bands
  a J=0.8 pair is missed with probability (1-J²)^32 ≈ 6e-15, so the LSH
  output equals the exact all-pairs answer (the DuckDB oracle) at any
  realistic scale.
- **n-gram Jaccard (direct)**: exact Jaccard over word-n-gram hash sets
  within a bounded id slice (broadcast-slice × distributed blocks) — the
  oracle-checked baseline whose unbounded scale path is MinHash+LSH.
- **SimHash**: 64-bit sign-aggregated word-feature hash per doc; the word
  hash is md5-low-64 (DuckDB ``md5_number_lower``) so an ANSI-SQL oracle
  recomputes it exactly; near-dups = small Hamming distance.
- **embedding near-dup**: cosine ≥ τ over an embedding column; brute-force
  within a bounded id range (the oracle-checked baseline), LSH-bucketed for
  the scale path (see ann.py).

Exactness note: Jaccard is computed over 64-bit shingle hashes while the
oracle intersects shingle strings; a within-pair collision (two distinct
shingles of one pair hashing equal) has probability ~|union|²·2⁻⁶⁴ ≈ 1e-15
per pair — negligible against the driver's value-hash compare.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

# 64 universal-hash permutations over a Mersenne prime — fixed seeds, so
# every worker computes identical signatures.
_MINHASH_PERMS = 64
_PRIME = (1 << 61) - 1
_rng = np.random.RandomState(42)
_A = _rng.randint(1, _PRIME, size=_MINHASH_PERMS, dtype=np.int64).astype(np.uint64)
_B = _rng.randint(0, _PRIME, size=_MINHASH_PERMS, dtype=np.int64).astype(np.uint64)
# 32 bands × 2 rows: P(candidate | J) = 1-(1-J²)^32 — ≥ 1-6e-15 at J=0.8,
# so LSH recall is exact for the oracle while random pairs (J≈0) still
# almost never collide. (16×4 missed a J=0.8 pair with p≈2e-4 — visible to
# a value-hash compare at scale.)
_BANDS = 32
_ROWS_PER_BAND = _MINHASH_PERMS // _BANDS


def _docs(sf_dir: str, columns):
    from spider_ray.blockutil import read_clean_parquet

    return read_clean_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


def shingle_set(text: str, n: int = 3) -> set[str]:
    """Word n-gram shingles; docs with fewer than ``n`` words have NO
    shingles (the same convention as the SQL oracle's ``range(1,
    len(words)-1)`` and textops.shingle_stats)."""
    words = text.lower().split()
    if len(words) < n:
        return set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


# odd 64-bit mixing multiplier (golden-ratio constant) for the polynomial
# shingle hash — distinct word-hash n-tuples collide w.p. ~2⁻⁶⁴ per pair,
# the same risk class as any 64-bit shingle hash
_SH_A = np.uint64(0x9E3779B97F4A7C15)


def _shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """Sorted unique 64-bit shingle hashes — the doc's dedup sketch.

    Vectorized: one cached md5-low-64 per WORD, then a degree-n polynomial
    over consecutive word hashes in numpy (the previous per-shingle blake2b
    loop cost ~1 ms/doc and serialized the whole sketch pass)."""
    words = text.lower().split()
    if len(words) < n:
        return np.empty(0, dtype=np.uint64)
    w = np.fromiter((_word_hash(x) for x in words), np.uint64, len(words))
    m = len(words) - n + 1
    with np.errstate(over="ignore"):
        h = np.zeros(m, dtype=np.uint64)
        for j in range(n):
            h = h * _SH_A + w[j : j + m]
    return np.unique(h)


def minhash_from_hashes(h: np.ndarray) -> np.ndarray:
    if h.size == 0:
        return np.full(_MINHASH_PERMS, np.iinfo(np.uint64).max, dtype=np.uint64)
    # (perms × shingles) universal hash, min over shingles — vectorized
    v = (h[None, :] * _A[:, None] + _B[:, None]) % np.uint64(_PRIME)
    return v.min(axis=1)


def minhash_batch(chunk: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Minhash signatures for a WHOLE large_binary sketch chunk at once.

    Returns ``(sigs, lens)``: ``sigs[i]`` is doc i's 64-perm signature,
    ``lens[i]`` its shingle count. Decodes the chunk via its offsets/data
    buffers (one ``np.frombuffer`` over the concatenated uint64 sketch
    bytes — the per-doc ``as_py()`` loop this replaces paid one interpreter
    call per document), then computes each perm's universal hash as ONE 1-D
    pass over the full value array and segments the min per doc with
    ``np.minimum.reduceat``. The perm loop stays 1-D on purpose: the
    broadcast 2-D shape ``(perms × values)`` measured 4.5× SLOWER on this
    numpy build (strided temporaries), and the arithmetic itself — not the
    loop — is the cost floor (the ``% (2^61-1)`` divide; a Mersenne
    shift-add fold also measured slower here). Zero-length docs get an
    all-zero signature row (callers mask them out via ``lens == 0`` — same
    contract as the loop had)."""
    n = len(chunk)
    sigs = np.zeros((_MINHASH_PERMS, n), dtype=np.uint64)
    if n == 0:
        return sigs.T, np.zeros(0, dtype=np.int64)
    off_buf, data_buf = chunk.buffers()[1], chunk.buffers()[2]
    # offset width dispatched on the chunk type (ann.payload_matrix's
    # guard): a plain-binary sketch column (int32 offsets) would otherwise
    # misparse silently under a hard-coded int64 read
    off_dtype = np.int64 if pa.types.is_large_binary(chunk.type) else np.int32
    offsets = np.frombuffer(off_buf, dtype=off_dtype)[
        chunk.offset : chunk.offset + n + 1
    ].astype(np.int64)
    lens = np.diff(offsets) // 8
    if data_buf is None or lens.sum() == 0:
        return sigs.T, lens
    vals = np.frombuffer(data_buf, dtype=np.uint64)[
        offsets[0] // 8 : offsets[-1] // 8
    ]
    starts = (offsets[:-1] - offsets[0]) // 8
    nonempty = np.flatnonzero(lens > 0)
    all_nonempty = nonempty.size == n
    ne_starts = starts if all_nonempty else starts[nonempty]
    prime = np.uint64(_PRIME)
    with np.errstate(over="ignore"):
        for p in range(_MINHASH_PERMS):
            v = (vals * _A[p] + _B[p]) % prime
            # reduceat over nonempty doc starts: a zero-length segment would
            # alias the next doc's first value, so empty docs are excluded
            # and keep their zero rows
            red = np.minimum.reduceat(v, ne_starts)
            if all_nonempty:
                sigs[p] = red
            else:
                sigs[p, nonempty] = red
    return np.ascontiguousarray(sigs.T), lens


def minhash_signature(text: str, n: int = 3) -> np.ndarray:
    """64 minhash values (uint64) for the doc's shingle set."""
    return minhash_from_hashes(_shingle_hashes(text, n))


def sketch_views(col: pa.ChunkedArray) -> list[np.ndarray]:
    """Per-row uint64 views over a (large_)binary sketch column, decoded at
    the BUFFER level: one offsets read + one ``np.frombuffer`` per CHUNK
    over the concatenated sketch bytes, instead of one ``as_py()`` (a bytes
    copy + interpreter call) per row. The returned arrays are zero-copy
    views into the Arrow buffers — same offsets/width discipline as
    ``minhash_batch``, factored for consumers that need per-row arrays
    (the pair verify) rather than a segmented reduction."""
    views: list[np.ndarray] = []
    for chunk in col.chunks:
        n = len(chunk)
        if n == 0:
            continue
        off_dtype = np.int64 if pa.types.is_large_binary(chunk.type) else np.int32
        offsets = np.frombuffer(chunk.buffers()[1], dtype=off_dtype)[
            chunk.offset : chunk.offset + n + 1
        ].astype(np.int64)
        data_buf = chunk.buffers()[2]
        vals = (
            # count= guards against Arrow's 64-byte buffer padding (always
            # 8-divisible in practice, but don't rely on it)
            np.frombuffer(data_buf, dtype=np.uint64, count=len(data_buf) // 8)
            if data_buf is not None
            else np.empty(0, dtype=np.uint64)
        )
        starts = offsets // 8
        views.extend(vals[starts[i] : starts[i + 1]] for i in range(n))
    return views


def band_keys(sig: np.ndarray) -> list[bytes]:
    return [sig[b * _ROWS_PER_BAND : (b + 1) * _ROWS_PER_BAND].tobytes() for b in range(_BANDS)]


def exact_dedup(sf_dir: str) -> Dataset:
    """First-wins exact dedup by content hash (A3 — the reference's
    UNIQUE(url) upsert key, schema.py:15, over text instead of url).

    The md5 crosses the shuffle as TWO int64 columns (digest halves,
    big-endian bit patterns), not as a 32-char hex string: fixed-width int
    keys halve the shuffled key bytes and sort/hash without string
    compares. The reduce is a ``shard_exchange`` on fp_hi (already
    uniform, being md5 bits; min-doc_id per key is one lexsort +
    first-per-key slice per shard) — a two-key
    ``groupby((fp_hi, fp_lo))`` sort-aggregate measured ~1.3 s slower at
    sf0.1. The hex column the oracle expects is rebuilt VECTORIZED (one
    hexlify over the packed digests) after the reduce."""
    from spider_ray.blockutil import shard_exchange

    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        digs = b"".join(hashlib.md5(t.encode()).digest() for t in batch["text"])
        halves = np.frombuffer(digs, dtype=">u8").reshape(-1, 2)
        hi = halves[:, 0].astype(np.uint64).view(np.int64)
        return pd.DataFrame(
            {
                "fp_hi": hi,
                "fp_lo": halves[:, 1].astype(np.uint64).view(np.int64),
                "doc_id": batch["doc_id"],
            }
        )

    def shard_min(g: pd.DataFrame) -> pa.Table:
        hi = g["fp_hi"].to_numpy()
        lo = g["fp_lo"].to_numpy()
        did = g["doc_id"].to_numpy()
        order = np.lexsort((did, lo, hi))
        hi, lo, did = hi[order], lo[order], did[order]
        firsts = np.flatnonzero(
            np.r_[True, (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])]
        )
        return pa.table(
            {
                "fp_hi": pa.array(hi[firsts], pa.int64()),
                "fp_lo": pa.array(lo[firsts], pa.int64()),
                "doc_id": pa.array(did[firsts], pa.int64()),
            }
        )

    def to_hex(batch: pa.Table) -> pa.Table:
        import binascii

        hi = batch.column("fp_hi").to_numpy().view(np.uint64)
        lo = batch.column("fp_lo").to_numpy().view(np.uint64)
        packed = np.column_stack([hi, lo]).astype(">u8").tobytes()
        fps = np.frombuffer(binascii.hexlify(packed), dtype="S32").astype("U32")
        return pa.table(
            {"fp": pa.array(fps, pa.string()), "doc_id": batch.column("doc_id")}
        )

    return shard_exchange(
        _docs(sf_dir, ["doc_id", "text"]).map_batches(fp, batch_format="pandas"),
        "fp_hi",
        shard_min,
        pa.schema([("fp_hi", pa.int64()), ("fp_lo", pa.int64()), ("doc_id", pa.int64())]),
    ).map_batches(to_hex, batch_format="pyarrow")


def ngram_jaccard_pairs(
    sf_dir: str, threshold_pct: int = 30, max_id: int = 200, n: int = 3
) -> Dataset:
    """EXACT word-n-gram Jaccard near-dup pairs among doc_id < max_id — the
    direct (non-sketched) member of the dedup family, computed as a
    DISTRIBUTED block × broadcast-slice product (the same bounded contract
    as embedding_near_dup_pairs): the id-bounded slice's shingle-hash sets
    are broadcast once; every batch intersects its docs' sets against the
    slice and emits qualifying pairs. Returns (doc_a, doc_b, n_inter,
    n_union) with doc_a < doc_b and n_inter·100 ≥ threshold_pct·n_union,
    n_union > 0. The per-pair ``np.intersect1d`` over sorted unique hash
    arrays is O(pairs · set size) bounded by max_id² — the UNBOUNDED scale
    path for this predicate is minhash_lsh_pairs (LSH candidates + the same
    exact verify)."""
    import pyarrow.parquet as pq

    from spider_ray.blockutil import read_clean_parquet

    tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "<", max_id)],
    )
    slice_ids = np.asarray(tbl["doc_id"], dtype=np.int64)
    slice_sets = [_shingle_hashes(t, n) for t in tbl["text"].to_pylist()]
    slice_ref = ray.put((slice_ids, slice_sets))

    ds = read_clean_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < max_id,
    )

    def pairs(batch: pa.Table) -> pa.Table:
        from spider_ray.stages.broadcast import get_broadcast

        all_ids, all_sets = get_broadcast(slice_ref)
        bids = batch.column("doc_id").to_numpy()
        bsets = [_shingle_hashes(t, n) for t in batch.column("text").to_pylist()]
        out_a, out_b, out_i, out_u = [], [], [], []
        for bi, a in enumerate(bids):
            sa = bsets[bi]
            for sj, b in enumerate(all_ids):
                if a >= b:
                    continue
                sb = all_sets[sj]
                inter = np.intersect1d(sa, sb, assume_unique=True).size
                union = sa.size + sb.size - inter
                if union > 0 and inter * 100 >= threshold_pct * union:
                    out_a.append(a)
                    out_b.append(b)
                    out_i.append(inter)
                    out_u.append(union)
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "n_inter": pa.array(out_i, pa.int64()),
                "n_union": pa.array(out_u, pa.int64()),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow", batch_size=4096)


# sketches travel as raw little-endian uint64 bytes: binary columns pass
# through Arrow's hash join (list<uint64> is rejected as a join payload)
_SKETCH_TYPE = pa.large_binary()


from spider_ray.blockutil import drop_empty_blocks as _drop_empty_blocks  # noqa: E402


def sketch_documents(docs: Dataset, n: int = 3) -> Dataset:
    """One pass over the text: (doc_id, sh=sorted unique shingle hashes).
    The sketch is the only derivative of the text the rest of the MinHash
    pipeline touches (~8 B/shingle vs the full document)."""

    def to_sketch(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        sketches = [_shingle_hashes(t, n) for t in batch.column("text").to_pylist()]
        return pa.table(
            {"doc_id": ids, "sh": pa.array([s.tobytes() for s in sketches], _SKETCH_TYPE)}
        )

    return docs.map_batches(to_sketch, batch_format="pyarrow")


def minhash_lsh_pairs(docs: Dataset | str, jaccard_threshold: float = 0.8) -> Dataset:
    """MinHash+LSH near-dup candidate generation + exact-Jaccard verify.

    Returns one row per verified pair: (doc_a, doc_b, n_inter, n_union) with
    doc_a < doc_b and n_inter·100 ≥ pct·n_union, pct = round(threshold·100)
    (integer comparison on both sides — float 0.8·union would disagree with
    the SQL oracle at exact-boundary pairs). Shuffles carry only sketches,
    band keys and id pairs; text moves once (into the sketch pass)."""
    from spider_ray.blockutil import (
        attach_payload,
        default_shuffle_partitions,
        shard_exchange,
        unique_pairs,
    )

    pct = int(round(jaccard_threshold * 100))
    if isinstance(docs, str):
        # re-split: a single parquet file arrives as one block and the
        # shingle-hash pass is CPU-heavy — one task would serialize it;
        # one block per CPU is all the parallelism there is
        docs = _docs(docs, ["doc_id", "text"]).repartition(default_shuffle_partitions())
    # materialized (inside _drop_empty_blocks) so banding + the two verify
    # attaches reuse one sketch pass instead of re-reading text per
    # consumption; sketches spill fine.
    sk = _drop_empty_blocks(
        sketch_documents(docs), pa.schema([("doc_id", pa.int64()), ("sh", _SKETCH_TYPE)])
    )

    def to_bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        sh_col = batch.column("sh")
        # one buffer-level pass per chunk (minhash_batch) — no per-doc
        # as_py()/frombuffer round-trips
        parts = [minhash_batch(c) for c in sh_col.chunks]
        if parts:
            sigs = np.concatenate([p[0] for p in parts])
            lens = np.concatenate([p[1] for p in parts])
        else:
            sigs = np.zeros((0, _MINHASH_PERMS), dtype=np.uint64)
            lens = np.zeros(0, dtype=np.int64)
        ids_out = np.repeat(ids, _BANDS)
        band_id = np.tile(np.arange(_BANDS, dtype=np.int64), len(ids))
        # no shingles → no bands (an all-max signature would bucket every
        # empty doc together into one quadratic bucket)
        keep = np.repeat(lens > 0, _BANDS)
        # 2-row bands → the band key IS the two minhash values (< 2^61, so
        # int64-safe); shuffle on plain int columns, no re-hashing
        k1 = sigs[:, 0::2].astype(np.int64).reshape(-1)
        k2 = sigs[:, 1::2].astype(np.int64).reshape(-1)
        return pa.table(
            {
                "band_id": pa.array(band_id[keep]),
                "k1": pa.array(k1[keep]),
                "k2": pa.array(k2[keep]),
                "doc_id": pa.array(ids_out[keep], pa.int64()),
            }
        )

    # Candidate pairs WITHOUT Dataset.join: one shard_exchange on the full
    # band key (every member of one LSH bucket in one call), then a
    # vectorized per-SHARD pass (lexsort + bucket boundaries + triu
    # expansion) — one Python call per shard, never per bucket or per pair. ray 2.49's join is a hash-shuffle ACTOR fleet per
    # execution (~2-3 s spawn each, measured) and its empty-block schema
    # broadcast is a load-order flake that forces a full materialization of
    # every input (an empty first block leaves partitions zero-column); the
    # exchange needs neither. Caveat (same as the join had): a degenerate bucket of m
    # near-identical docs emits m(m-1)/2 pairs — the pair CONTRACT is
    # quadratic in duplicate-cluster size by definition.
    bands = sk.map_batches(to_bands, batch_format="pyarrow")

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        b = g["band_id"].to_numpy()
        k1 = g["k1"].to_numpy()
        k2 = g["k2"].to_numpy()
        d = g["doc_id"].to_numpy()
        order = np.lexsort((d, k2, k1, b))
        b, k1, k2, d = b[order], k1[order], k2[order], d[order]
        new = np.empty(len(b), dtype=bool)
        new[0] = True
        new[1:] = (b[1:] != b[:-1]) | (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(b)))
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
                    "doc_a": np.array([], dtype=np.int64),
                    "doc_b": np.array([], dtype=np.int64),
                }
            )
        a = np.concatenate(out_a)
        bb = np.concatenate(out_b)
        # per-shard dedup only; the global dedup happens in the attach-A
        # shard (all copies of a pair share doc_a, hence one shard).
        # unique_pairs: packed-key np.unique behind an id-width guard
        av, bv = unique_pairs(np.minimum(a, bb), np.maximum(a, bb))
        return pd.DataFrame({"doc_a": av, "doc_b": bv})

    pairs = shard_exchange(
        bands,
        ["band_id", "k1", "k2"],
        shard_pairs,
        pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())]),
    )

    # verify stage: attach each side's sketch with the same shard exchange
    # (sketch bytes cross it once per unique pair side — never per band
    # collision)
    with_a = attach_payload(
        pairs,
        sk,
        pairs_key="doc_a",
        payload_key="doc_id",
        payload_col="sh",
        out_col="sh_a",
        dedup_on=["doc_a", "doc_b"],
    )
    with_ab = attach_payload(
        with_a,
        sk,
        pairs_key="doc_b",
        payload_key="doc_id",
        payload_col="sh",
        out_col="sh_b",
    )

    def verify(batch: pa.Table) -> pa.Table:
        # sketch decode is ONE buffer-level pass per batch (sketch_views);
        # the per-pair np.intersect1d over the two sorted-unique views IS
        # the exact-Jaccard verify contract and stays
        n = batch.num_rows
        sa_views = sketch_views(batch.column("sh_a"))
        sb_views = sketch_views(batch.column("sh_b"))
        inter = np.zeros(n, dtype=np.int64)
        union = np.zeros(n, dtype=np.int64)
        for i in range(n):
            sa, sb = sa_views[i], sb_views[i]
            inter[i] = np.intersect1d(sa, sb, assume_unique=True).size
            union[i] = sa.size + sb.size - inter[i]
        keep = (union > 0) & (inter * 100 >= pct * union)
        kidx = pa.array(np.flatnonzero(keep))
        return pa.table(
            {
                "doc_a": batch.column("doc_a").take(kidx),
                "doc_b": batch.column("doc_b").take(kidx),
                "n_inter": pa.array(inter[keep]),
                "n_union": pa.array(union[keep]),
            }
        )

    return with_ab.map_batches(verify, batch_format="pyarrow", batch_size=4096)


def _clusters_union_find(pairs: pd.DataFrame) -> pa.Table:
    """Driver-side connected components over an (answer-sized) pair set:
    union-find with path halving, root kept at the component minimum by
    always attaching the larger root under the smaller — O(pairs·α)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"].to_numpy(), pairs["doc_b"].to_numpy()):
        a, b = int(a), int(b)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            # smaller root stays root → every root is its component's min
            parent[max(ra, rb)] = min(ra, rb)
    ids = sorted(parent)
    reps = [find(i) for i in ids]
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "rep_id": pa.array(reps, pa.int64())}
    )


def _clusters_label_propagation(pairs: Dataset, max_iters: int = 10_000) -> pa.Table:
    """DISTRIBUTED connected components by iterative min-label propagation —
    the branch for dup graphs too large for one driver's union-find
    (degenerate boilerplate corpora where the pair set itself is huge).

    Shape: edges are symmetrized ONCE and materialized (src, dst — two
    int64s per direction); labels start as (node, lbl=node). Each iteration
    is label(v) ← min(label(v), min over neighbors u of label(u)), as pure
    Dataset ops: one ``shard_join`` on src merges labels onto edges (the
    attach_payload pattern with an int payload) and emits the propagated
    (dst, lbl) rows together with the current labels, and one
    ``groupby(node).min(lbl)`` produces the next labels. Fixpoint ⇔ the
    exact label sum is unchanged (labels are elementwise monotone
    non-increasing; per-block int64 partials summed as Python ints, so no
    overflow at any id scale). Converges in ≤ graph-diameter iterations —
    near-dup clusters are dense (diameter rarely exceeds a handful), so the
    iteration count stays small exactly when this branch is needed.

    Everything that moves is (int64, int64) rows; no driver state grows
    with the graph. The returned table is the same answer-sized
    (doc_id, rep_id) assignment the union-find produces (pinned equal in
    tests); a caller at the 10^10 tier would write it to parquet instead of
    holding it."""
    from ray.data.aggregate import Min as AggMin

    from spider_ray.blockutil import drop_empty_blocks, shard_join

    def symmetrize(b: pa.Table) -> pa.Table:
        a = b.column("doc_a").to_numpy()
        bb = b.column("doc_b").to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, bb]), pa.int64()),
                "dst": pa.array(np.concatenate([bb, a]), pa.int64()),
            }
        )

    edges = drop_empty_blocks(
        pairs.map_batches(symmetrize, batch_format="pyarrow"),
        pa.schema([("src", pa.int64()), ("dst", pa.int64())]),
    )

    def init_labels(b: pa.Table) -> pa.Table:
        nodes = np.unique(b.column("src").to_numpy())  # per-block dedup only
        return pa.table({"node": pa.array(nodes, pa.int64()), "lbl": pa.array(nodes, pa.int64())})

    labels = (
        edges.map_batches(init_labels, batch_format="pyarrow")
        .groupby("node")
        .aggregate(AggMin("lbl", alias_name="lbl"))
        .materialize()
    )

    def label_sum(lds: Dataset) -> int:
        # exact at any id scale: int64 per-block partials (≤ ~8M rows/block
        # × 2^40-ish ids stays far under 2^63), summed as Python ints
        parts = lds.map_batches(
            lambda b: pa.table(
                {"s": pa.array([int(pc.sum(b.column("lbl")).as_py() or 0)], pa.int64())}
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
        return sum(r["s"] for r in parts.take_all())

    def as_src(b: pa.Table) -> pa.Table:
        return pa.table({"src": b.column("node"), "lbl": b.column("lbl")})

    def merge(lab: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        # emits BOTH the propagated (dst, lbl-of-src) rows and the current
        # label rows themselves, so the next aggregate needs no separate
        # union with the old labels (and no extra exchange)
        out = e.merge(lab, on="src", how="inner")
        return pd.DataFrame(
            {
                "node": np.concatenate(
                    [out["dst"].to_numpy(np.int64), lab["src"].to_numpy(np.int64)]
                ),
                "lbl": np.concatenate(
                    [out["lbl"].to_numpy(np.int64), lab["lbl"].to_numpy(np.int64)]
                ),
            }
        )

    schema = pa.schema([("node", pa.int64()), ("lbl", pa.int64())])
    cur_sum = label_sum(labels)
    for _ in range(max_iters):
        cand = shard_join(
            labels.map_batches(as_src, batch_format="pyarrow"), edges, "src", merge, schema
        )
        labels = (
            cand.groupby("node")
            .aggregate(AggMin("lbl", alias_name="lbl"))
            .materialize()
        )
        new_sum = label_sum(labels)
        if new_sum == cur_sum:  # elementwise monotone ⇒ equal sum = fixpoint
            break
        cur_sum = new_sum
    else:
        raise RuntimeError(f"label propagation did not converge in {max_iters} iters")
    out = labels.to_pandas().sort_values("node")
    return pa.table(
        {
            "doc_id": pa.array(out["node"].to_numpy(), pa.int64()),
            "rep_id": pa.array(out["lbl"].to_numpy(), pa.int64()),
        }
    )


def minhash_dedup_clusters(
    sf_dir: str,
    jaccard_threshold: float = 0.8,
    driver_pair_limit: int = 5_000_000,
) -> pa.Table:
    """Near-dup CLUSTER assignment — the step after pair generation that a
    dedup pipeline actually consumes: ``(doc_id, rep_id)`` for every doc in
    at least one J ≥ threshold pair, where ``rep_id`` is the minimum doc_id
    of the doc's connected component in the pair graph (the canonical
    "keep the representative, drop the rest" rule).

    Scale shape: the pair set is ANSWER-sized (the LSH+verify output the
    caller would collect anyway), so up to ``driver_pair_limit`` pairs the
    union-find runs driver-side — O(pairs·α). Beyond the gate (a degenerate
    boilerplate corpus whose quadratic buckets make the pair set itself
    huge) the distributed min-label-propagation branch takes over instead
    of letting the driver thrash — see _clusters_label_propagation. The two
    branches are pinned equal in tests (gate forced to 0)."""
    pairs = minhash_lsh_pairs(sf_dir, jaccard_threshold).materialize()
    if pairs.count() <= driver_pair_limit:
        return _clusters_union_find(pairs.to_pandas())
    return _clusters_label_propagation(pairs.select_columns(["doc_a", "doc_b"]))


_BIT_SHIFTS = np.arange(64, dtype=np.uint64)
# word → md5-low64 cache (per worker process; synthetic/web vocab is zipfian
# so the hit rate is high); bounded to keep worker heap flat
_WORD_HASH_CACHE: dict[str, int] = {}
_WORD_HASH_CACHE_MAX = 1 << 20


def _word_hash(w: str) -> int:
    """Low 64 bits of md5 — defined exactly as DuckDB ``md5_number_lower``:
    bytes 8..16 of the digest, little-endian (verified against duckdb 1.0)."""
    h = _WORD_HASH_CACHE.get(w)
    if h is None:
        h = int.from_bytes(hashlib.md5(w.encode()).digest()[8:16], "little")
        if len(_WORD_HASH_CACHE) < _WORD_HASH_CACHE_MAX:
            _WORD_HASH_CACHE[w] = h
    return h


def simhash64(text: str) -> int:
    """64-bit SimHash over word features (md5-low-64 word hashes, ±1 per
    bit) — SQL-recomputable via md5_number_lower, see registry oracle."""
    words = text.lower().split()
    if not words:
        return 0
    hs = np.fromiter((_word_hash(w) for w in words), dtype=np.uint64, count=len(words))
    bits = ((hs[:, None] >> _BIT_SHIFTS) & np.uint64(1)).astype(np.int64)
    acc = (2 * bits - 1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << _BIT_SHIFTS).sum())


def simhash_table(sf_dir: str) -> Dataset:
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "simhash": [format(simhash64(t), "016x") for t in batch["text"]],
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


def simhash_near_dup_pairs(sf_dir: str, max_hamming: int = 3) -> Dataset:
    """SimHash near-dup pairs: ``(doc_a, doc_b)`` with hamming distance ≤
    ``max_hamming`` between the docs' 64-bit SimHashes.

    Candidate generation is PIGEONHOLE banding — the 64-bit fingerprint
    splits into ``max_hamming + 1`` bands, and two hashes within
    ``max_hamming`` bit flips MUST agree exactly on at least one band — so
    unlike probabilistic LSH there is no recall knob: recall is exactly 1
    by construction, and every candidate is verified with a vectorized
    popcount, so precision is exact too. That makes the DuckDB
    ``bit_count(xor(...))`` all-pairs SQL its driver oracle at any scale.

    Exchange discipline (the minhash/embedding-LSH shard pattern): band
    rows are ``(band, key, doc_id, sh)`` — 32 B of ints; one
    ``shard_exchange`` on (band, key) co-locates each band bucket, pairs expand +
    verify per shard (only survivors materialize), and a final single-task
    merge dedups the cross-band copies of each surviving pair (survivors
    ARE the answer the caller collects). Hot-bucket note: a band bucket of
    B identical band-keys expands B²/2 candidates — boilerplate-heavy
    corpora should run exact dedup first (A3), which collapses byte-dup
    docs before banding."""
    bands = max_hamming + 1
    band_bits = 64 // bands
    mask = np.uint64((1 << band_bits) - 1)

    def to_bands(batch: pd.DataFrame) -> pa.Table:
        sh = np.fromiter(
            (simhash64(t) for t in batch["text"]), np.uint64, len(batch)
        )
        ids = batch["doc_id"].to_numpy(np.int64)
        out_b, out_k, out_d, out_h = [], [], [], []
        for b in range(bands):
            key = (sh >> np.uint64(b * band_bits)) & mask
            out_b.append(np.full(len(ids), b, dtype=np.int64))
            out_k.append(key.astype(np.int64))
            out_d.append(ids)
            out_h.append(sh.astype(np.int64))  # two's-complement view
        return pa.table(
            {
                "band": pa.array(np.concatenate(out_b)),
                "key": pa.array(np.concatenate(out_k)),
                "doc_id": pa.array(np.concatenate(out_d)),
                "sh": pa.array(np.concatenate(out_h)),
            }
        )

    def shard_pairs(g: pd.DataFrame) -> pd.DataFrame:
        b = g["band"].to_numpy(np.int64)
        k = g["key"].to_numpy(np.int64)
        d = g["doc_id"].to_numpy(np.int64)
        h = g["sh"].to_numpy(np.int64)
        order = np.lexsort((d, k, b))
        b, k, d, h = b[order], k[order], d[order], h[order]
        new = np.empty(len(b), dtype=bool)
        new[0] = True
        new[1:] = (b[1:] != b[:-1]) | (k[1:] != k[:-1])
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, len(b)))
        out_a, out_b2 = [], []
        for s0, sz in zip(starts, sizes):
            if sz < 2:
                continue
            ia, ib = np.triu_indices(sz, k=1)
            xa = h[s0 : s0 + sz].astype(np.uint64)
            # vectorized popcount: xor → bytes → unpackbits → row sum
            x = (xa[ia] ^ xa[ib]).view(np.uint8).reshape(-1, 8)
            ham = np.unpackbits(x, axis=1).sum(axis=1)
            keep = ham <= max_hamming
            seg = d[s0 : s0 + sz]
            out_a.append(seg[ia[keep]])
            out_b2.append(seg[ib[keep]])
        if not out_a:
            return pd.DataFrame(
                {
                    "doc_a": np.array([], dtype=np.int64),
                    "doc_b": np.array([], dtype=np.int64),
                }
            )
        a = np.concatenate(out_a)
        bb = np.concatenate(out_b2)
        # unique_pairs guards the packed-uint64 fast path behind an id-width
        # check: doc_ids beyond 2^32 (the 10^10-row tier) take a lexsort
        # unique instead of silently colliding packed keys
        from spider_ray.blockutil import unique_pairs

        av, bv = unique_pairs(np.minimum(a, bb), np.maximum(a, bb))
        return pd.DataFrame({"doc_a": av, "doc_b": bv})

    def dedup_merge(bt: pd.DataFrame) -> pa.Table:
        from spider_ray.blockutil import unique_pairs

        av, bv = unique_pairs(
            bt["doc_a"].to_numpy(np.int64), bt["doc_b"].to_numpy(np.int64)
        )
        return pa.table({"doc_a": pa.array(av), "doc_b": pa.array(bv)})

    from spider_ray.blockutil import final_merge, shard_exchange

    schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])
    pairs = shard_exchange(
        _docs(sf_dir, ["doc_id", "text"]).map_batches(
            to_bands, batch_format="pandas", batch_size=None
        ),
        ["band", "key"],
        shard_pairs,
        schema,
    )
    # survivors ARE the answer; final_merge drops empty blocks, coalesces to
    # one merge task, and auto-inserts an intermediate repartition(cpus)
    # merge level if partial rows ever exceed its threshold (10^6-block tier)
    return final_merge(pairs, dedup_merge, schema)


def embedding_near_dup_pairs(
    sf_dir: str, threshold_pct: int = 40, max_id: int = 200
) -> Dataset:
    """Embedding-cosine near-dup pairs among vec_id < max_id, computed as a
    DISTRIBUTED block × broadcast-slice product: the (small) id-bounded
    slice is broadcast once; every batch of it computes cosines against the
    slice and emits its qualifying pairs — the same shape scales to an
    unbounded corpus by replacing the broadcast slice with LSH buckets (see
    ann.lsh_topk). Cosine in float64 vs an integer percent threshold;
    returns (vec_a, vec_b), vec_a < vec_b, cos·100 ≥ threshold_pct."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        filters=[("vec_id", "<", max_id)],
    )
    ids = np.asarray(tbl["vec_id"])
    m = np.stack(tbl["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    slice_ref = ray.put((ids, m))

    from spider_ray.blockutil import read_clean_parquet

    ds = read_clean_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filter=pc.field("vec_id") < max_id,
    )

    def pairs(batch: pd.DataFrame) -> pa.Table:
        from spider_ray.stages.broadcast import get_broadcast

        all_ids, all_m = get_broadcast(slice_ref)
        bm = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        bm = bm / np.linalg.norm(bm, axis=1, keepdims=True)
        bids = batch["vec_id"].to_numpy()
        sims = bm @ all_m.T
        bi, aj = np.nonzero((sims * 100 >= threshold_pct) & (bids[:, None] < all_ids[None, :]))
        return pa.table(
            {
                "vec_a": pa.array(bids[bi], pa.int64()),
                "vec_b": pa.array(all_ids[aj], pa.int64()),
            }
        )

    return ds.map_batches(pairs, batch_format="pandas", batch_size=4096)

"""Text-analysis operators over a documents table — the per-document stages a
large-scale training-data pipeline runs before dedup/filtering: token
counting, content fingerprinting, quality scoring, language ID, shingle
statistics.

All stages are ``map_batches`` transforms; scoring regexes are module-level
compiled constants (shipped once with the function, compiled once per worker
process import — nothing is rebuilt per batch). Counting uses vectorized
``pandas.str.count``; each op's semantics are chosen to be expressible in
DuckDB (RE2) with IDENTICAL results, so every one of these has a SQL oracle
(see registry.py):

- token count = number of ``\\S+`` runs;
- fingerprint = md5 hexdigest of the utf-8 text;
- quality flags use integer arithmetic only (no float ratios → no ulp drift);
- language ID = marker-word counts per language, argmax with a fixed
  priority order (numpy argmax picks the first maximum — the SQL CASE chain
  is written in the same order).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset

TOKEN_RE = r"\S+"
# GPT-2-style pre-tokenizer, simplified to be RE2-compatible (no lookahead):
# contractions, letter runs, digit runs, punctuation runs, whitespace runs —
# the "BPE-ish" token estimate used for budget accounting
BPE_RE = r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+"
PUNCT_RE = r"[.,;:!?]"
# ORACLE CONTRACT on \b: Python re's \b is Unicode-aware, DuckDB RE2's is
# ASCII; they agree whenever a marker word's neighbors are ASCII-vs-ASCII or
# ASCII-vs-space (true for this corpus generator and typical Latin-script
# text) but can diverge on mixed-script text, e.g. an ASCII word glued to
# CJK characters. RE2 has no lookahead, so an explicitly-ASCII boundary
# cannot be written identically on both sides — the single-script
# assumption is therefore part of these queries' oracle contract.
STOP_RE = r"\b(?:the|and|of|to|in|a|is)\b"

# language marker words; priority order en > de > es > fr > zh on ties
LANG_MARKERS = [
    ("en", r"\b(?:the|and|is|of|to)\b"),
    ("de", r"\b(?:der|die|und|ist|das)\b"),
    ("es", r"\b(?:el|los|las|y|es)\b"),
    ("fr", r"\b(?:le|les|et|est|une)\b"),
    ("zh", r"(?:的|是|了|在|和)"),
]


def _docs(sf_dir: str, columns: list[str]) -> Dataset:
    from spider_ray.blockutil import read_clean_parquet

    return read_clean_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def token_counts(sf_dir: str) -> Dataset:
    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": batch["text"].str.count(TOKEN_RE).astype(np.int64),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


def bpe_token_counts(sf_dir: str) -> Dataset:
    """BPE-ish token estimate per doc (whitespace count + sub-word-ish
    pattern count) — the budget-accounting pair of ``token_counts``."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_ws_tokens": batch["text"].str.count(TOKEN_RE).astype(np.int64),
                "n_bpe_tokens": batch["text"].str.count(BPE_RE).astype(np.int64),
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


def doc_fingerprints(sf_dir: str) -> Dataset:
    """Exact content fingerprint (md5 of utf-8 text) — the dedup key."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        fps = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in batch["text"]]
        return pd.DataFrame({"doc_id": batch["doc_id"], "fp": fps})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


def quality_scores(sf_dir: str) -> Dataset:
    """Integer-only quality heuristics: token/punct/stopword counts and a
    pass flag (≥10 tokens and ≥5% stopwords — 'looks like prose')."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"]
        n_tokens = text.str.count(TOKEN_RE).astype(np.int64)
        punct = text.str.count(PUNCT_RE).astype(np.int64)
        stop = text.str.lower().str.count(STOP_RE).astype(np.int64)
        passes = (n_tokens >= 10) & (stop * 20 >= n_tokens)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": n_tokens,
                "punct_count": punct,
                "stop_count": stop,
                "passes": passes,
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


def lang_scores_frame(batch: pd.DataFrame) -> np.ndarray:
    low = batch["text"].str.lower()
    return np.stack(
        [low.str.count(rx).to_numpy(dtype=np.int64) for _, rx in LANG_MARKERS], axis=1
    )


def lang_confusion(sf_dir: str) -> Dataset:
    """n-gram-heuristic language ID, reported as a (lang, lang_pred, n)
    confusion table against the corpus label."""

    names = [n for n, _ in LANG_MARKERS]

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        scores = lang_scores_frame(batch)
        pred = [names[i] for i in scores.argmax(axis=1)]  # first max = priority
        # per-batch PARTIAL count — the shuffle carries O(langs² × blocks)
        # partial rows, never O(documents)
        out = pd.DataFrame({"lang": batch["lang"], "lang_pred": pred})
        g = out.groupby(["lang", "lang_pred"], sort=False).size().reset_index(name="n")
        return g

    from spider_ray.blockutil import merge_keyed_sums

    preds = _docs(sf_dir, ["doc_id", "text", "lang"]).map_batches(f, batch_format="pandas")
    return merge_keyed_sums(
        preds,
        keys=["lang", "lang_pred"],
        sums=["n"],
        empty_schema=pa.schema(
            [("lang", pa.string()), ("lang_pred", pa.string()), ("n", pa.int64())]
        ),
    )


def shingle_stats(sf_dir: str, n: int = 3) -> Dataset:
    """Distinct word-n-gram shingles per document (the MinHash input set
    size — useful to size LSH parameters)."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        counts = []
        for t in batch["text"]:
            words = t.lower().split()
            counts.append(
                len({" ".join(words[i : i + n]) for i in range(len(words) - n + 1)})
                if len(words) >= n
                else 0
            )
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "n_shingles": np.asarray(counts, np.int64)}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


def sample_documents(sf_dir: str, pct: int = 10) -> Dataset:
    """Deterministic content-hash downsampling — the training-data
    pipeline's "keep pct% of the corpus" stage, reproducible across runs
    and resumable shards because the keep decision is a pure function of
    the document (no RNG state to coordinate across 256 nodes): keep a doc
    iff ``md5-low-64(text) % 100 < pct``. The hash is md5 digest bytes
    8..16 little-endian — DuckDB's ``md5_number_lower``, the same word-hash
    definition as dedup.simhash — so an ANSI-SQL oracle recomputes the
    exact sample. Uniform per stratum by construction (the hash is
    independent of ``source``), i.e. stratified in expectation without a
    per-stratum pass."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        hs = np.array(
            [
                int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
                for t in batch["text"]
            ],
            dtype=np.uint64,
        )
        return batch.loc[(hs % 100) < pct, ["doc_id", "source", "n_chars"]]

    return _docs(sf_dir, ["doc_id", "source", "n_chars", "text"]).map_batches(
        f, batch_format="pandas"
    )


def rolling_fingerprint(text: str, window: int = 8, base: int = 257, mod: int = (1 << 61) - 1) -> int:
    """Deterministic rolling-hash document fingerprint (Rabin-Karp style):
    min of window hashes — robust to local edits, used by tests as a
    locality-sensitive signature."""
    data = text.encode("utf-8")
    if len(data) < window:
        data = data + b"\x00" * (window - len(data))
    h = 0
    pw = pow(base, window - 1, mod)
    best = None
    for i, b in enumerate(data):
        h = (h * base + b) % mod
        if i >= window:
            h = (h - data[i - window] * pw * base) % mod
        if i >= window - 1:
            best = h if best is None else min(best, h)
    return best


def _token_shard_topk(partials: Dataset, val: str, k: int) -> Dataset:
    """Top-k tokens of a (token, val) partial stream: a ``shard_exchange``
    on token (one int-key exchange instead of a token-grain string
    sort-aggregate — the top_bigrams measurement) sums each shard with one
    pandas C-hash groupby and keeps its local top-k (valid: the global top-k
    is a subset of the union of shard top-ks); an answer-sized final merge
    replaces a vocab-grain sort + limit."""
    from spider_ray.blockutil import final_merge, shard_exchange

    def shard_topk(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("token", as_index=False, sort=False)[val].sum()
        return agg.sort_values(
            [val, "token"], ascending=[False, True], kind="stable"
        ).head(k)[["token", val]]

    def merge_topk(d: pd.DataFrame) -> pd.DataFrame:
        return (
            d.sort_values([val, "token"], ascending=[False, True], kind="stable")
            .head(k)
            .reset_index(drop=True)
        )

    schema = pa.schema([("token", pa.string()), (val, pa.int64())])
    return final_merge(
        shard_exchange(partials, "token", shard_topk, schema), merge_topk, schema
    )


def token_doc_frequency(sf_dir: str, k: int = 50) -> Dataset:
    """Corpus vocabulary DOCUMENT FREQUENCY: for each token, the number of
    documents containing it, top-k by (df DESC, token ASC) — the DF half of
    TF-IDF and the vocabulary profile a training-data pipeline builds before
    tokenizer fitting or stopword selection.

    Tokenization contract (shared with the SQL oracle): single-space split,
    empty tokens dropped — ``string_split(text, ' ')`` on the DuckDB side.

    Physical shape: per batch, ONE ``pc.split_pattern`` → Arrow list array,
    flattened zero-copy with ``list_parent_indices`` (no Python tokenizing
    loop); per-document DISTINCT via a vectorized (doc, token)
    drop_duplicates INSIDE the batch — sound because doc_id is unique in
    the documents table, so no document spans two blocks — then a per-batch
    value_counts emits (token, df) PARTIALS. The exchange carries
    O(vocab × blocks) partial rows, never O(token occurrences): at the
    100 TB design point the exchange is bounded by vocabulary size, the
    same combiner contract as q1. The final top-k is a vocab-sized sort."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    return _token_shard_topk(ds.map_batches(_partial_df, batch_format="pyarrow"), "df", k)


def _partial_df(b: pa.Table) -> pd.DataFrame:
    """Per-batch DOCUMENT-FREQUENCY partials: (token, df-in-this-batch).
    Shared by ``token_doc_frequency`` (top-k profile) and
    ``tfidf_top_terms`` (full-vocab DF) — one tokenization contract."""
    import pyarrow.compute as pc

    toks = pc.split_pattern(b.column("text"), " ")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy()
    d = pd.DataFrame(
        {"doc": parent, "token": flat.to_pandas().to_numpy(dtype=object)}
    )
    d = d[d["token"] != ""].drop_duplicates()
    c = d["token"].value_counts(sort=False)
    return pd.DataFrame(
        {
            "token": c.index.to_numpy(dtype=object),
            "df": c.to_numpy().astype(np.int64),
        }
    )


def top_tokens(sf_dir: str, k: int = 50) -> Dataset:
    """Corpus-wide token OCCURRENCE counts, top-k by (n DESC, token ASC) —
    the classic distributed word count, and the TF half next to
    ``token_doc_frequency``'s DF (same tokenization contract: single-space
    split, empty tokens dropped).

    Physical shape: one ``pc.split_pattern`` per batch → zero-copy flatten
    → ONE ``pc.value_counts`` (all Arrow kernels, no Python token loop)
    emits (token, n) PARTIALS; the exchange carries O(vocab × blocks) rows,
    never O(token occurrences) — the same vocabulary-bounded combiner
    contract as token_doc_frequency. Final top-k is a vocab-sized sort."""
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["text"])

    def partial_tf(b: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(b.column("text"), " "))
        vc = pc.value_counts(flat.combine_chunks())
        tok = vc.field("values")
        cnt = vc.field("counts")
        keep = pc.not_equal(tok, "")
        return pa.table({"token": tok.filter(keep), "n": cnt.filter(keep)})

    return _token_shard_topk(ds.map_batches(partial_tf, batch_format="pyarrow"), "n", k)


def _partial_tf_rows(b: pa.Table) -> pd.DataFrame:
    """Per-batch (doc_id, token, tf) rows — one row per (document, distinct
    token), i.e. the combiner-reduced TERM-FREQUENCY stream (never one row
    per token occurrence). Tokenization contract shared with
    ``_partial_df``/``top_tokens``: single-space split, empties dropped."""
    import pyarrow.compute as pc

    toks = pc.split_pattern(b.column("text"), " ")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy()
    doc_ids = b.column("doc_id").to_numpy()
    d = pd.DataFrame(
        {
            "doc_id": doc_ids[parent],
            "token": flat.to_pandas().to_numpy(dtype=object),
        }
    )
    d = d[d["token"] != ""]
    g = d.groupby(["doc_id", "token"], sort=False).size()
    idx = g.index.to_frame(index=False)
    return pd.DataFrame(
        {
            "doc_id": idx["doc_id"].to_numpy().astype(np.int64),
            "token": idx["token"].to_numpy(dtype=object),
            "tf": g.to_numpy().astype(np.int64),
        }
    )


def _topk_terms(d: pd.DataFrame, k: int) -> pa.Table:
    """Top-k rows per doc_id by (tfidf_scaled DESC, token ASC) — the
    ROW_NUMBER()-window tie rule, shared by both tfidf paths."""
    d = d.sort_values(
        ["doc_id", "tfidf_scaled", "token"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    out = d.groupby("doc_id", sort=False).head(k)
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"].to_numpy().astype(np.int64)),
            "token": pa.array(out["token"].to_numpy(dtype=object), pa.string()),
            "tfidf_scaled": pa.array(
                out["tfidf_scaled"].to_numpy().astype(np.int64)
            ),
        }
    )


def tfidf_top_terms(
    sf_dir: str,
    k: int = 3,
    broadcast_vocab_limit: int = 64 << 20,
) -> Dataset:
    """Per-document top-k terms by TF-IDF — the keyword/topic signal a
    training-data pipeline derives per document for tagging, clustering
    seeds and quality heuristics. Composes the surface's TF and DF halves
    (``top_tokens`` / ``token_doc_frequency``, same tokenization contract).

    Score contract (integer-exact, so the driver's value-hash holds):
    ``tfidf_scaled = (tf * 1_000_000) // df``. The usual ``ln(N/df)`` idf is
    monotone-decreasing in df and N is corpus-constant, so per-document
    RANKING by tf/df equals ranking by tf·ln-idf whenever tf ties break the
    same way — here ties break (score DESC, token ASC) on both engines, and
    the floor-division semantics of numpy int64 ``//`` and DuckDB ``//``
    agree on non-negatives. Ranking, not the absolute idf value, is what
    the operator exports.

    Physical shape, DUAL-PATH on the DF table's byte size (the
    embedding_near_dup_lsh gate pattern; paths pinned equal in pytest):
    - vocab ≤ ``broadcast_vocab_limit``: the (token, df) table broadcasts
      once via ``ray.put`` and ONE stateless pass computes per-batch tf
      rows, a C-hash merge against the vocab, and the per-doc top-k —
      zero exchanges beyond the vocab-bounded DF aggregate itself (a doc's
      tokens never leave its batch: doc_id is row-unique).
    - beyond the limit (web-scale vocab — typos/urls make token types
      grow without bound): a ``shard_join`` on token joins df onto the
      (doc_id, token, tf) stream, then a ``shard_exchange`` on doc_id runs
      the per-doc top-k per shard. Both exchanges carry combiner-reduced
      (doc, token) metadata rows, never token occurrences or text."""
    from spider_ray.blockutil import shard_exchange, shard_join

    ds = _docs(sf_dir, ["doc_id", "text"])
    df_mat = shard_exchange(
        ds.map_batches(_partial_df, batch_format="pyarrow"),
        "token",
        lambda g: g.groupby("token", as_index=False, sort=False)["df"].sum(),
        pa.schema([("token", pa.string()), ("df", pa.int64())]),
    ).materialize()

    if df_mat.size_bytes() <= broadcast_vocab_limit:
        vocab_ref = ray.put(df_mat.to_pandas())

        def score_batch(b: pa.Table) -> pa.Table:
            tf = _partial_tf_rows(b)
            m = tf.merge(ray.get(vocab_ref), on="token", how="inner")
            m["tfidf_scaled"] = (
                m["tf"].to_numpy() * 1_000_000
            ) // m["df"].to_numpy()
            return _topk_terms(m, k)

        return ds.map_batches(score_batch, batch_format="pyarrow")

    def merge_shard(dfs: pd.DataFrame, tfs: pd.DataFrame) -> pd.DataFrame:
        m = tfs.merge(dfs, on="token", how="inner")
        m["tfidf_scaled"] = (m["tf"].to_numpy() * 1_000_000) // m[
            "df"
        ].to_numpy()
        return m[["doc_id", "token", "tfidf_scaled"]]

    schema = pa.schema(
        [("doc_id", pa.int64()), ("token", pa.string()), ("tfidf_scaled", pa.int64())]
    )
    scored = shard_join(
        df_mat,
        ds.map_batches(_partial_tf_rows, batch_format="pyarrow"),
        "token",
        merge_shard,
        schema,
    )
    # every (doc, token) row of one doc lands in one shard, so the
    # per-shard top-k is globally final
    return shard_exchange(scored, "doc_id", lambda g: _topk_terms(g, k), schema)


def dup_ngram_stats(sf_dir: str, n: int = 3) -> Dataset:
    """Duplicate-n-gram fraction per document — the repetition quality
    signal (Gopher/RefinedWeb-style "fraction of text in duplicated
    n-grams"): total word-n-gram shingles, distinct shingles, and the
    integer duplicate percentage ``(total - distinct) * 100 // total``
    (0 for shingle-less docs). High dup_pct marks boilerplate/spam for the
    filtering stage.

    Same per-doc pass as ``shingle_stats`` (the shingle walk is the
    irreducible per-doc work, shared with the MinHash sketch stage);
    integer-only output per the quality_scores determinism rule."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        total_a, dist_a, dup = _dup_pct_arrays(batch["text"], n)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_shingles_total": total_a,
                "n_shingles_distinct": dist_a,
                "dup_pct": dup,
            }
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(f, batch_format="pandas")


def _dup_pct_arrays(texts, n: int):
    """Per-doc duplicate-n-gram arrays (total, distinct, dup_pct int64) —
    the shingle walk is the irreducible per-doc work (shared contract with
    the minhash sketch stage); everything around it is numpy. Shared by
    ``dup_ngram_stats`` and ``clean_documents``."""
    totals, distincts = [], []
    for t in texts:
        words = t.lower().split()
        total = max(0, len(words) - n + 1)
        totals.append(total)
        distincts.append(len({" ".join(words[i : i + n]) for i in range(total)}))
    total_a = np.asarray(totals, np.int64)
    dist_a = np.asarray(distincts, np.int64)
    dup = np.where(
        total_a > 0, (total_a - dist_a) * 100 // np.maximum(total_a, 1), 0
    ).astype(np.int64)
    return total_a, dist_a, dup


def clean_documents(
    sf_dir: str,
    min_tokens: int = 10,
    max_dup_pct: int = 20,
    lang: str = "en",
) -> Dataset:
    """The capstone FILTER COMPOSITION a training-data pipeline runs before
    dedup: keep documents that (a) look like prose (the ``quality_scores``
    gate: ≥ ``min_tokens`` tokens and ≥5 % stopwords), (b) are not
    boilerplate (``dup_ngram_stats``' duplicate-trigram percentage ≤
    ``max_dup_pct``) and (c) the n-gram language heuristic assigns to
    ``lang`` (first-max priority, same rule as ``lang_confusion``). Emits
    the kept docs' metadata manifest (doc_id, source, n_chars).

    Physical shape: all three signals are per-document and computed in ONE
    stateless ``map_batches`` pass — no shuffle anywhere, output streams.
    At 100 TB this is the shape that matters: a signals-then-join design
    would move every doc_id through three exchanges; composing the
    predicates in-batch moves nothing, and the filtered manifest (or the
    kept text itself, by selecting it) writes straight to partitioned
    parquet. Integer-only predicates per the quality_scores determinism
    rule."""
    names = [nm for nm, _ in LANG_MARKERS]
    li = names.index(lang)

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"]
        n_tokens = text.str.count(TOKEN_RE).to_numpy(dtype=np.int64)
        stop = text.str.lower().str.count(STOP_RE).to_numpy(dtype=np.int64)
        _, _, dup = _dup_pct_arrays(text, 3)
        # argmax picks the FIRST maximum — the priority order of the SQL
        # CASE chain (lang_confusion's oracle contract)
        pred = lang_scores_frame(batch).argmax(axis=1) == li
        keep = (
            (n_tokens >= min_tokens)
            & (stop * 20 >= n_tokens)
            & (dup <= max_dup_pct)
            & pred
        )
        out = batch.loc[keep]
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"].to_numpy().astype(np.int64),
                "source": out["source"].to_numpy(dtype=object),
                "n_chars": out["n_chars"].to_numpy().astype(np.int64),
            }
        )

    return _docs(sf_dir, ["doc_id", "source", "n_chars", "text"]).map_batches(
        f, batch_format="pandas"
    )


def length_filtered_docs(
    sf_dir: str, lo_q: float = 0.1, hi_q: float = 0.9
) -> Dataset:
    """Quantile-gated length filter — the composed two-stage quality
    pipeline: compute per-source length quantiles (stage 1, answer-sized),
    then keep each document iff its length lies inside its OWN source's
    [p_lo, p_hi] band (stage 2, streaming filter).

    Scale shape: stage 1 is ``length_quantiles_by_source`` (shuffle bounded
    by sources × distinct lengths); its O(sources) result ships to the
    filter workers inside the function closure — the broadcast-small-side
    pattern, no second shuffle, no join. Stage 2 is one vectorized
    dict-map + mask per batch and streams row-sized output."""
    from spider_ray.pipelines.relational import length_quantiles_by_source

    q = length_quantiles_by_source(sf_dir, (lo_q, hi_q)).to_pandas()
    lo_name, hi_name = (f"p{round(x * 100)}" for x in (lo_q, hi_q))
    lo = dict(zip(q["source"], q[lo_name].astype(np.int64)))
    hi = dict(zip(q["source"], q[hi_name].astype(np.int64)))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["source"]
        keep = (batch["n_chars"] >= s.map(lo)) & (batch["n_chars"] <= s.map(hi))
        return batch.loc[keep, ["doc_id", "source", "n_chars"]]

    return _docs(sf_dir, ["doc_id", "source", "n_chars"]).map_batches(
        f, batch_format="pandas"
    )


# count-min sketch parameters for heavy_hitter_tokens — width × depth × 8 B
# = 64 KiB per block row; seeds are fixed so every block's sketch is mergeable
_CMS_DEPTH = 4
_CMS_WIDTH = 2048
_CMS_SEEDS = ("cms-row-0", "cms-row-1", "cms-row-2", "cms-row-3")


def heavy_hitter_tokens(
    sf_dir: str, k: int = 20, cand_per_block: int = 200
) -> Dataset:
    """Approximate HEAVY HITTERS (top-k tokens) via a COUNT-MIN SKETCH —
    the streaming-sketch answer when the vocabulary is too large even for
    ``top_tokens``' vocab-bounded shuffle (10^9+ token types): the
    exchange is a FIXED 64 KiB sketch + ``cand_per_block`` candidate rows
    per block, independent of vocabulary size.

    Per block: one Arrow tokenize + ``value_counts`` (the top_tokens
    contract), then every (token, count) pair feeds a depth×width CMS via
    vectorized seeded hashes, and the block's ``cand_per_block`` most
    frequent tokens ship as candidates. Driver: sketches merge by
    elementwise SUM (CMS is a commutative monoid — order-free), candidate
    union is re-estimated against the merged sketch (point query = min
    over depth rows), top-k by (estimate DESC, token ASC). Estimates
    never undercount (CMS one-sided error); a true top-k token is missed
    only if it is not in any block's local top-``cand_per_block`` — at a
    Zipfian corpus the global heavy hitters are local heavy hitters
    almost surely (pinned vs the exact operator in pytest).

    Rows-only for the driver (the sketch estimate has no SQL equivalent);
    correctness gates: planted heavy hitters recovered exactly, and
    real-corpus top-k ⊇-overlap with ``top_tokens``."""
    import pyarrow.compute as pc

    ds = _docs(sf_dir, ["text"])

    def _cms_rows(tokens: np.ndarray) -> np.ndarray:
        # (depth, n) column indices from independent seeded hash streams
        return np.stack(
            [
                (pd.util.hash_array(tokens, hash_key=s.ljust(16)) % _CMS_WIDTH)
                for s in _CMS_SEEDS
            ]
        ).astype(np.int64)

    def partial(b: pa.Table) -> pd.DataFrame:
        flat = pc.list_flatten(pc.split_pattern(b.column("text"), " "))
        vc = pc.value_counts(flat.combine_chunks())
        tok = vc.field("values")
        cnt = vc.field("counts")
        keep = pc.not_equal(tok, "")
        tokens = np.asarray(tok.filter(keep).to_pylist(), dtype=object)
        counts = cnt.filter(keep).to_numpy().astype(np.int64)
        cms = np.zeros((_CMS_DEPTH, _CMS_WIDTH), dtype=np.int64)
        if len(tokens):
            idx = _cms_rows(tokens)
            for d in range(_CMS_DEPTH):
                np.add.at(cms[d], idx[d], counts)
        order = np.lexsort((tokens, -counts))[:cand_per_block]
        cand_tok = tokens[order]
        cand_n = counts[order]
        return pd.DataFrame(
            {
                "cms": [cms.tobytes()],
                "cand_tok": ["\x00".join(cand_tok)],
                "cand_n": [cand_n.astype(np.int64).tobytes()],
            }
        )

    rows = ds.map_batches(
        partial, batch_format="pyarrow"
    ).to_pandas()  # one 64 KiB row per block — fixed-size by construction

    cms = np.zeros((_CMS_DEPTH, _CMS_WIDTH), dtype=np.int64)
    cand: set[str] = set()
    for raw, toks in zip(rows["cms"], rows["cand_tok"]):
        cms += np.frombuffer(raw, dtype=np.int64).reshape(_CMS_DEPTH, _CMS_WIDTH)
        if toks:
            cand.update(toks.split("\x00"))
    if not cand:
        return ray.data.from_arrow(
            pa.table({"token": pa.array([], pa.string()), "est_n": pa.array([], pa.int64())})
        )
    cand_arr = np.asarray(sorted(cand), dtype=object)
    idx = _cms_rows(cand_arr)
    est = cms[np.arange(_CMS_DEPTH)[:, None], idx].min(axis=0)
    order = np.lexsort((cand_arr, -est))[:k]
    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "token": cand_arr[order].astype(str),
                "est_n": est[order].astype(np.int64),
            }
        )
    )


def clean_dedup_corpus(sf_dir: str, min_tokens: int = 10, max_dup_pct: int = 20,
                       lang: str = "en") -> Dataset:
    """END-TO-END corpus snapshot: the full preprocessing pipeline a
    training run consumes — quality/language filter (``clean_documents``'
    exact predicates), exact content dedup among the KEPT docs
    (first-wins by doc_id, the ``exact_dedup`` contract), a PARTITIONED
    PARQUET write of the surviving manifest (one directory per source —
    the resumable-output layout), and a read-back count per source. The
    oracle composes the two constituent SQL oracles, so the composition
    cannot drift from its parts.

    Physical shape: filter + fingerprint fuse into ONE stateless pass over
    the text (the clean_documents argument — signals compose in-batch, the
    text moves zero times); dedup is one hash shuffle of
    (fp_hi, fp_lo, doc_id, source, n_chars) int-plus-small-string rows
    with a per-batch min-per-fingerprint combiner; the write streams the
    winner manifest (never collected); the count is a read of the written
    partition layout with a per-batch combiner. The /tmp roundtrip is the
    point, not overhead: it proves the partitioned sink + schema survive a
    write/read cycle inside an oracle-checked query."""
    import shutil
    import tempfile

    from spider_ray.blockutil import read_clean_parquet, shard_exchange

    names = [nm for nm, _ in LANG_MARKERS]
    li = names.index(lang)

    def filter_fp(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"]
        n_tokens = text.str.count(TOKEN_RE).to_numpy(dtype=np.int64)
        stop = text.str.lower().str.count(STOP_RE).to_numpy(dtype=np.int64)
        _, _, dup = _dup_pct_arrays(text, 3)
        pred = lang_scores_frame(batch).argmax(axis=1) == li
        keep = (
            (n_tokens >= min_tokens)
            & (stop * 20 >= n_tokens)
            & (dup <= max_dup_pct)
            & pred
        )
        out = batch.loc[keep]
        if not len(out):
            return pd.DataFrame(
                {
                    "fp_hi": np.array([], dtype=np.int64),
                    "fp_lo": np.array([], dtype=np.int64),
                    "doc_id": np.array([], dtype=np.int64),
                    "source": np.array([], dtype=object),
                    "n_chars": np.array([], dtype=np.int64),
                }
            )
        # same-pass fingerprint (the exact_dedup two-int64 key contract)
        digs = b"".join(hashlib.md5(t.encode()).digest() for t in out["text"])
        halves = np.frombuffer(digs, dtype=">u8").reshape(-1, 2)
        hi = halves[:, 0].astype(np.uint64).view(np.int64)
        lo = halves[:, 1].astype(np.uint64).view(np.int64)
        doc = out["doc_id"].to_numpy().astype(np.int64)
        src = out["source"].to_numpy(dtype=object)
        nch = out["n_chars"].to_numpy().astype(np.int64)
        # per-batch min-doc_id per fingerprint (combiner)
        order = np.lexsort((doc, lo, hi))
        hi, lo, doc, src, nch = hi[order], lo[order], doc[order], src[order], nch[order]
        first = np.r_[True, (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])]
        hi, lo, doc, src, nch = hi[first], lo[first], doc[first], src[first], nch[first]
        return pd.DataFrame(
            {
                "fp_hi": hi,
                "fp_lo": lo,
                "doc_id": doc,
                "source": src,
                "n_chars": nch,
            }
        )

    def shard_min(g: pd.DataFrame) -> pa.Table:
        hi = g["fp_hi"].to_numpy()
        lo = g["fp_lo"].to_numpy()
        doc = g["doc_id"].to_numpy()
        order = np.lexsort((doc, lo, hi))
        hi, lo, doc = hi[order], lo[order], doc[order]
        src = g["source"].to_numpy()[order]
        nch = g["n_chars"].to_numpy()[order]
        first = np.r_[True, (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])]
        return pa.table(
            {
                "doc_id": pa.array(doc[first], pa.int64()),
                "source": pa.array(src[first], pa.string()),
                "n_chars": pa.array(nch[first], pa.int64()),
            }
        )

    winners = shard_exchange(
        _docs(sf_dir, ["doc_id", "source", "n_chars", "text"]).map_batches(
            filter_fp, batch_format="pandas"
        ),
        "fp_hi",
        shard_min,
        pa.schema([("doc_id", pa.int64()), ("source", pa.string()), ("n_chars", pa.int64())]),
    )

    out_dir = tempfile.mkdtemp(prefix="spider_ray_corpus_")
    try:
        winners.write_parquet(out_dir, partition_cols=["source"])
        back = read_clean_parquet(out_dir)

        def count_partial(b: pa.Table) -> pa.Table:
            t = pa.table(
                {
                    "source": pc_cast_str(b.column("source")),
                    "n_docs": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                }
            )
            g = t.group_by("source").aggregate([("n_docs", "sum")])
            return pa.table(
                {"source": g.column("source"), "n_docs": g.column("n_docs_sum")}
            )

        # sources × blocks partials — one driver pandas merge instead of a
        # sort-based all-to-all before an inevitable to_pandas
        result = back.map_batches(count_partial, batch_format="pyarrow").to_pandas()
        if len(result):
            result = result.groupby("source", as_index=False)["n_docs"].sum()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return ray.data.from_pandas(result)


def pc_cast_str(col: "pa.ChunkedArray") -> "pa.ChunkedArray":
    """Hive-partition columns read back as dictionary<string>; normalize to
    plain string so the groupby key dtype is stable."""
    import pyarrow.compute as pc

    if pa.types.is_dictionary(col.type):
        return pc.cast(col, pa.string())
    return col


def top_bigrams(sf_dir: str, k: int = 40) -> Dataset:
    """Corpus-wide word-BIGRAM counts, top-k by (n DESC, w1, w2) — the
    sequence-n-gram sibling of ``top_tokens`` (language-model count
    pipelines start here). Tokenization contract: single-space split;
    a bigram is two ADJACENT raw tokens within one document; pairs with an
    empty side are dropped (matching the SQL's filtered ``list_zip``).

    Physical shape: one ``pc.split_pattern`` + zero-copy flatten per batch;
    adjacency is ``parent[i] == parent[i+1]`` over the flattened parent
    indices (one vectorized compare — pairs never cross documents); one
    pandas groupby-size per batch emits (w1, w2, n) PARTIALS. The exchange
    is a ``shard_exchange`` on (w1, w2) — a two-string-key
    ``Dataset.groupby`` sort-shuffles the bigram strings themselves and
    measured ~10× slower (the distinct_users_hll string-shuffle pitfall);
    every copy of a bigram lands in one shard, so per-shard sums are exact
    and each shard emits only its local top-k, merged by one answer-sized
    final task (k rows a shard). Scale relief for an unbounded vocabulary is
    heavy_hitter_tokens' count-min sketch (same contract, sketched)."""
    import pyarrow.compute as pc

    from spider_ray.blockutil import final_merge, shard_exchange

    ds = _docs(sf_dir, ["text"])

    def partial(b: pa.Table) -> pd.DataFrame:
        toks = pc.split_pattern(b.column("text"), " ")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy()
        vals = flat.to_pandas().to_numpy(dtype=object)
        empty = pd.DataFrame(
            {
                "w1": np.array([], dtype=object),
                "w2": np.array([], dtype=object),
                "n": np.array([], dtype=np.int64),
            }
        )
        if len(vals) < 2:
            return empty
        i1 = np.flatnonzero(parent[1:] == parent[:-1])
        w1, w2 = vals[i1], vals[i1 + 1]
        keep = (w1 != "") & (w2 != "")
        if not keep.any():
            return empty
        d = pd.DataFrame({"w1": w1[keep], "w2": w2[keep]})
        g = d.groupby(["w1", "w2"], sort=False).size()
        idx = g.index.to_frame(index=False)
        return pd.DataFrame(
            {
                "w1": idx["w1"].to_numpy(dtype=object),
                "w2": idx["w2"].to_numpy(dtype=object),
                "n": g.to_numpy().astype(np.int64),
            }
        )

    def shard_topk(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["w1", "w2"], sort=False)["n"].sum().reset_index()
        agg = agg.sort_values(
            ["n", "w1", "w2"], ascending=[False, True, True], kind="stable"
        ).head(k)
        return agg[["w1", "w2", "n"]]

    schema = pa.schema([("w1", pa.string()), ("w2", pa.string()), ("n", pa.int64())])
    partials = shard_exchange(
        ds.map_batches(partial, batch_format="pyarrow"), ["w1", "w2"], shard_topk, schema
    )

    def merge_topk(bt: pd.DataFrame) -> pa.Table:
        top = bt.sort_values(
            ["n", "w1", "w2"], ascending=[False, True, True], kind="stable"
        ).head(k)
        return pa.table(
            {
                "w1": pa.array(top["w1"].to_numpy(dtype=object), pa.string()),
                "w2": pa.array(top["w2"].to_numpy(dtype=object), pa.string()),
                "n": pa.array(top["n"].to_numpy(), pa.int64()),
            }
        )

    return final_merge(partials, merge_topk, schema)


def stratified_sample_documents(
    sf_dir: str, rates: dict[str, int] | None = None, default_rate: int = 25
) -> Dataset:
    """STRATIFIED deterministic sampling — per-stratum keep rates (the
    rebalancing stage of a training-data pipeline: e.g. keep 5% of the
    dominant language, 25% of everything else). Same pure-function contract
    as ``sample_documents`` (md5-low-64(text) % 100 — no RNG state across
    nodes, reproducible/resumable), with the threshold selected per row by
    the stratum column: one vectorized ``np.where`` chain per batch, zero
    shuffles."""
    if rates is None:
        rates = {"en": 5}

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        hs = np.array(
            [
                int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
                for t in batch["text"]
            ],
            dtype=np.uint64,
        )
        lang = batch["lang"].to_numpy(dtype=object)
        rate = np.full(len(lang), default_rate, dtype=np.uint64)
        for lg, r in rates.items():
            rate[lang == lg] = r
        return batch.loc[(hs % 100) < rate, ["doc_id", "lang", "n_chars"]]

    return _docs(sf_dir, ["doc_id", "lang", "n_chars", "text"]).map_batches(
        f, batch_format="pandas"
    )


def split_documents(
    sf_dir: str, train_pct: int = 80, val_pct: int = 10
) -> Dataset:
    """Deterministic TRAIN/VAL/TEST split summary — the assignment is a
    pure function of the document content (md5-low-64(text) % 100 bucketed
    at ``train_pct`` / ``train_pct+val_pct``), so the split is identical
    on every node and every rerun, docs never leak across splits when the
    corpus is re-sharded, and a resumed job re-derives membership instead
    of persisting it. Per-batch (split, n, chars) partials → one 3-key
    groupby — the exchange carries ≤ 3 rows per block."""
    cut2 = train_pct + val_pct

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        hs = np.array(
            [
                int.from_bytes(hashlib.md5(t.encode()).digest()[8:16], "little")
                for t in batch["text"]
            ],
            dtype=np.uint64,
        )
        b = (hs % 100).astype(np.int64)
        split = np.where(b < train_pct, "train", np.where(b < cut2, "val", "test"))
        d = pd.DataFrame({"split": split, "n_chars": batch["n_chars"].to_numpy()})
        g = d.groupby("split", sort=False).agg(
            n_docs=("n_chars", "size"), total_chars=("n_chars", "sum")
        )
        return pd.DataFrame(
            {
                "split": g.index.to_numpy(dtype=object),
                "n_docs": g["n_docs"].to_numpy().astype(np.int64),
                "total_chars": g["total_chars"].to_numpy().astype(np.int64),
            }
        )

    from spider_ray.blockutil import merge_keyed_sums

    return merge_keyed_sums(
        _docs(sf_dir, ["n_chars", "text"]).map_batches(partial, batch_format="pandas"),
        keys=["split"],
        sums=["n_docs", "total_chars"],
        empty_schema=pa.schema(
            [
                ("split", pa.string()),
                ("n_docs", pa.int64()),
                ("total_chars", pa.int64()),
            ]
        ),
    )


def _token_bucket(tokens: np.ndarray, n_buckets: int) -> np.ndarray:
    """Token → bucket id, shared by ingest and lookup (both sides of one
    job run the same pandas build; the cross-version skew concern the
    fetch index guards against does not arise for a /tmp-lifetime index)."""
    return (pd.util.hash_array(tokens) % n_buckets).astype(np.int64)


def invindex_ingest(sf_dir: str, index_dir: str, n_buckets: int = 16) -> None:
    """Build a distributed INVERTED TEXT INDEX: one (token, doc_id, tf)
    posting row per distinct (document, token), written as parquet
    PARTITIONED BY token-hash bucket (hive dirs ``bucket=K/``) — the
    text-retrieval sibling of ``ann.ivf_ingest``. Postings for one token
    land in exactly one bucket, so a lookup opens only its query tokens'
    buckets; at the 100 TB tier non-probed buckets never leave storage.

    One streaming pass over the text (the ``_partial_tf_rows`` combiner:
    per-(doc, token) rows, never per occurrence — a document is never
    split across batches, so per-batch tf is final); the write IS the
    shuffle (each task writes its rows under their bucket dirs)."""
    import shutil

    shutil.rmtree(index_dir, ignore_errors=True)
    os.makedirs(index_dir, exist_ok=True)

    def with_bucket(b: pa.Table) -> pd.DataFrame:
        d = _partial_tf_rows(b)
        d.insert(
            0, "bucket", _token_bucket(d["token"].to_numpy(dtype=object), n_buckets)
        )
        return d

    _docs(sf_dir, ["doc_id", "text"]).map_batches(
        with_bucket, batch_format="pyarrow"
    ).write_parquet(index_dir, partition_cols=["bucket"])


def invindex_bucket_paths(
    index_dir: str, tokens: list[str], n_buckets: int = 16
) -> list[str]:
    """The parquet files a lookup for ``tokens`` must open — ONLY the query
    tokens' bucket dirs (factored out so tests can assert the pruning)."""
    import glob

    buckets = sorted(
        set(_token_bucket(np.asarray(tokens, dtype=object), n_buckets).tolist())
    )
    return sorted(
        f
        for b in buckets
        for f in glob.glob(os.path.join(index_dir, f"bucket={b}", "*.parquet"))
    )


def invindex_lookup(
    index_dir: str, tokens: list[str], n_buckets: int = 16
) -> Dataset:
    """Posting lookup over the bucket-partitioned index: open only the
    query tokens' buckets, then filter token ∈ query at the read (row-group
    pruning on the token column). Returns (token, doc_id, tf)."""
    import pyarrow.compute as pc

    from spider_ray.blockutil import read_clean_parquet

    paths = invindex_bucket_paths(index_dir, tokens, n_buckets)
    if not paths:
        return ray.data.from_arrow(
            pa.schema(
                [("token", pa.string()), ("doc_id", pa.int64()), ("tf", pa.int64())]
            ).empty_table()
        )
    ds = read_clean_parquet(
        paths,
        columns=["token", "doc_id", "tf"],
        filter=pc.field("token").isin(tokens),
    )
    return ds


def inverted_index_lookup(sf_dir: str) -> Dataset:
    """Driver query: build the index under /tmp from the documents table,
    then look up three common tokens plus one absent one (exercises the
    empty-bucket path). The oracle recomputes the postings directly from
    the text."""
    import shutil
    import tempfile

    tokens = ["scan", "column", "window", "zz-absent-token"]
    idx = tempfile.mkdtemp(prefix="spider_ray_invidx_")
    try:
        invindex_ingest(sf_dir, idx)
        out = invindex_lookup(idx, tokens).materialize()
    finally:
        shutil.rmtree(idx, ignore_errors=True)
    return out

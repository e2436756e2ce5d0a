"""Query registry: every implemented operator exposed as a named callable
``(sf_dir) -> Dataset | DataFrame | Table`` plus, where ANSI-SQL can express
the identical computation, a DuckDB oracle string (consumed by
``__ray_entry__.py``; the driver compares row-count + schema + value-hash).

Determinism rules shared by both sides (see relational.py/textops.py):
integer-cents money aggregates, integer-only quality flags, explicit ORDER
BY + tie-breaks on every LIMIT query, BIGINT casts where DuckDB would widen
to HUGEINT, and rank-only (no float column) outputs for similarity queries.
"""

from __future__ import annotations

from spider_ray.pipelines import ann, dedup, graph, multimodal, relational, textops


def embedding_topk_ivf_bucketed(sf_dir: str):
    """The ingest-time IVF layout driven end-to-end: cluster-partitioned
    parquet written under /tmp, then a probe of EVERY bucket (nprobe ==
    n_clusters → exact, so the brute-force SQL is its oracle; the pruned
    narrow-probe path is covered by tests/test_ann_index.py)."""
    import shutil
    import tempfile

    from spider_ray.pipelines import ann as _ann

    idx = tempfile.mkdtemp(prefix="spider_ray_ivf_")
    try:
        _ann.ivf_ingest(sf_dir, idx, n_clusters=8)
        out = _ann.ivf_topk_bucketed(sf_dir, idx, k=10, query_id=0, nprobe=8)
        return out[["vec_id"]]
    finally:
        shutil.rmtree(idx, ignore_errors=True)


def crawl_bfs(_sf_dir: str):
    """Flagship crawl over a deterministic synthetic corpus (the pages table
    per BASELINE.json input_hint is NOT part of the driver views, so this is
    a rows-only query; the pytest oracle in tests/test_crawl_engine.py is
    its correctness gate)."""
    import shutil
    import tempfile

    from spider_ray.corpus import write_corpus
    from spider_ray.pipelines.crawl import crawl, read_store

    root = tempfile.mkdtemp(prefix="spider_ray_crawl_")
    corpus = write_corpus(f"{root}/corpus", n_pages=300, n_hosts=8, links_per_page=5)
    crawl(
        corpus,
        ["https://h0.example/p0", "https://h1.example/p0", "https://h2.example/p3"],
        f"{root}/out",
        max_depth=2,
    )
    df = (
        read_store(f"{root}/out", canonical_order=True)
        .to_pandas()
        .reset_index(drop=True)
    )
    shutil.rmtree(root, ignore_errors=True)
    return df


QUERIES = {
    # reference surface (SURVEY.md §2: S6, A1, A2, A4, A5, A3)
    "count_documents": relational.count_documents,
    "catch_by_source": relational.catch_by_source,
    "source_counts": relational.source_counts,
    "topk_longest_docs": relational.topk_longest_docs,
    "dedup_exact": dedup.exact_dedup,
    # relational / pipeline shapes
    "q1_pricing_summary": relational.q1_pricing_summary,
    "orders_by_segment": relational.orders_by_segment,
    # large⋈large hash-shuffle join (orders⋈lineitem) + dimension broadcast
    "q3_shipping_priority": relational.q3_shipping_priority,
    # exact distinct-count aggregate (per-user hash shards)
    "distinct_users_per_type": relational.distinct_users_per_type,
    # HLL approximate distinct — register-sized shuffle, no SQL oracle by
    # design (DuckDB's approx_count_distinct is a different HLL); gated by
    # the ≤5%-vs-exact pytest contract instead (rows-only for the driver)
    "distinct_users_hll": relational.distinct_users_hll,
    # distributed anti-join over two fact tables
    "orders_without_lineitems": relational.orders_without_lineitems,
    # exact discrete quantiles via distributed value histogram
    "doc_length_quantiles": relational.doc_length_quantiles,
    "events_hourly": relational.events_hourly,
    "events_sliding": relational.events_sliding,
    "top_events_per_type": relational.top_events_per_type,
    "top_users_by_events": relational.top_users_by_events,
    "sessionize": relational.sessionize,
    # as-of join (backward, strict) — Ray Data lacks one; composed as a
    # user_id shard exchange + one compiled merge_asof per shard
    "asof_prev_event": relational.asof_prev_event,
    # non-equi range (band) join — window count as a difference of two
    # as-of lookups over a per-user cumulative counter
    "events_range_join": relational.events_range_join,
    # grouped exact quantiles via per-group distributed value histogram
    "length_quantiles_by_source": relational.length_quantiles_by_source,
    # per-key ordered window function (SUM OVER PARTITION BY ... ORDER BY)
    "user_running_total": relational.user_running_total,
    # vectorized RE2 field extraction from semi-structured props + grouped
    # aggregate (schema-on-read without a JSON parser)
    "props_extract_stats": relational.props_extract_stats,
    # LAG-diff window aggregate (per-user inter-event gap stats)
    "user_event_gaps": relational.user_event_gaps,
    # sequence bigram (Markov transition) counts via the same lag shape
    "event_type_transitions": relational.event_type_transitions,
    # LEFT OUTER large⋈large join with zero-fill (complement of the
    # anti-join; one row per order, streams)
    "order_lineitem_counts": relational.order_lineitem_counts,
    # PIVOT to a fixed column vocabulary (wide per-user type counts)
    "events_type_pivot": relational.events_type_pivot,
    # TPC-H-Q5-shaped 5-table join chain (one fact⋈fact shuffle +
    # broadcast dimensions; revenue per same-nation customer/supplier)
    "q5_revenue_by_nation": relational.q5_revenue_by_nation,
    # ARGMAX per group (latest event per user; partial argmax combiner)
    "latest_event_per_user": relational.latest_event_per_user,
    # fixed-width histogram over document length
    "doc_length_histogram": relational.doc_length_histogram,
    # set INTERSECTION over a keyed stream (users with click AND purchase)
    "repeat_buyers": relational.repeat_buyers,
    # grouped aggregate over the part catalog (count/sum/max)
    "part_brand_stats": relational.part_brand_stats,
    # bloom-prefiltered exact semi-join (high-value orders' lineitems)
    "high_value_lineitem_stats": relational.high_value_lineitem_stats,
    # per-row global rank / CDF position (two-pass value-histogram
    # broadcast — no global sort)
    "doc_length_ranks": relational.doc_length_ranks,
    # CUBE grouping sets (the 2^k-sets sibling of the rollup)
    "source_lang_cube": relational.source_lang_cube,
    # distributed variance via sufficient statistics (n, Σx, Σx²)
    "event_value_stats": relational.event_value_stats,
    # ordered 3-step funnel (sequence-pattern containment per user)
    "signup_click_purchase_funnel": relational.signup_click_purchase_funnel,
    # iterative link analysis: integer PageRank over the synthetic doc graph
    # (K chained share-shuffle iterations; unrolled-CTE SQL oracle)
    "pagerank_docs": graph.pagerank_docs,
    # approximate heavy hitters via count-min sketch (rows-only: fixed
    # 64 KiB exchange per block regardless of vocabulary; pytest pins it
    # to the exact top_tokens and a planted heavy-hitter corpus)
    "heavy_hitter_tokens": textops.heavy_hitter_tokens,
    # iterative ML: deterministic quantized Lloyd's k-means (rows-only for
    # the driver — no SQL can express the iteration; pytest pins it to a
    # sequential numpy oracle)
    "kmeans_clusters": ann.kmeans_clusters,
    # text analysis
    "token_counts": textops.token_counts,
    "bpe_token_counts": textops.bpe_token_counts,
    "doc_fingerprints": textops.doc_fingerprints,
    "quality_scores": textops.quality_scores,
    "lang_confusion": textops.lang_confusion,
    "shingle_stats": textops.shingle_stats,
    # deterministic content-hash downsampling (md5_number_lower % 100)
    "sample_documents": textops.sample_documents,
    # vocabulary document-frequency top-k (per-doc distinct + combiner)
    "token_doc_frequency": textops.token_doc_frequency,
    # corpus-wide word count top-k (the TF half; same vocab-bounded shape)
    "top_tokens": textops.top_tokens,
    # per-doc top-k terms by integer-exact tf/df (dual-path: vocab
    # broadcast / token-hash + doc-hash shuffles — pinned equal in pytest)
    "tfidf_top_terms": textops.tfidf_top_terms,
    # duplicate-n-gram repetition signal (Gopher/RefinedWeb-style)
    "dup_ngram_stats": textops.dup_ngram_stats,
    # composed two-stage quality gate: per-source quantiles → broadcast
    # band filter (no join, no second shuffle)
    "length_filtered_docs": textops.length_filtered_docs,
    # capstone filter composition (prose gate ∧ repetition bound ∧ lang-id)
    # — one stateless pass, zero shuffles
    "clean_documents": textops.clean_documents,
    # ROLLUP / GROUPING SETS: one fact scan + finest combiner; coarser
    # levels derived from the key-sized finest aggregate
    "source_lang_rollup": relational.source_lang_rollup,
    # dedup family / similarity
    "minhash_lsh_pairs": dedup.minhash_lsh_pairs,
    # connected-component representative per near-dup doc (union-find over
    # the answer-sized pair set; SQL oracle = recursive-CTE closure)
    "minhash_dedup_clusters": dedup.minhash_dedup_clusters,
    # direct exact-Jaccard baseline over the bounded id slice (its
    # unbounded scale path is minhash_lsh_pairs)
    "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
    "simhash_table": dedup.simhash_table,
    # pigeonhole banding (bands = max_hamming+1) makes recall exactly 1 by
    # construction — the all-pairs hamming SQL is its oracle at any scale
    "simhash_near_dup_pairs": dedup.simhash_near_dup_pairs,
    "embedding_near_dup": dedup.embedding_near_dup_pairs,
    # scale path: LSH-bucketed candidate pairs (metadata-only join) + exact
    # verify; the default (n_planes=3, n_tables=24) gives recall 1.0 on the
    # deterministic fixtures, so the exact all-pairs SQL is its oracle
    "embedding_near_dup_lsh": ann.embedding_near_dup_lsh,
    "embedding_topk": ann.brute_topk,
    # exact mode (nprobe == n_clusters probes every cluster) → the IVF
    # machinery runs end-to-end AND the result is oracle-comparable to the
    # brute-force SQL; the approximate path is recall-gated in pytest
    "embedding_topk_ivf": lambda sf_dir: ann.ivf_topk(
        sf_dir, k=10, query_id=0, nprobe=16, n_clusters=16
    )[["vec_id"]],
    "embedding_topk_ivf_bucketed": embedding_topk_ivf_bucketed,
    # multimodal plumbing
    "payload_bytes": multimodal.payload_bytes,
    "image_meta_stub": multimodal.image_meta_stub,
    "frame_sample": multimodal.frame_sample,
    "resize_plan": multimodal.resize_plan,
    "audio_meta_stub": multimodal.audio_meta_stub,
    # flagship (rows-only)
    "crawl_bfs": crawl_bfs,
}


ORACLE_SQL = {
    "count_documents": "SELECT count(*) AS n FROM documents",
    "catch_by_source": (
        "SELECT doc_id, source, n_chars FROM documents "
        "WHERE source = 'src7' ORDER BY doc_id LIMIT 10"
    ),
    "source_counts": (
        "SELECT source, count(*) AS n_docs, "
        "CAST(sum(n_chars) AS BIGINT) AS total_chars FROM documents GROUP BY source"
    ),
    "topk_longest_docs": (
        "SELECT doc_id, n_chars FROM documents ORDER BY n_chars DESC, doc_id LIMIT 20"
    ),
    "dedup_exact": (
        "SELECT md5(text) AS fp, min(doc_id) AS doc_id FROM documents GROUP BY md5(text)"
    ),
    "q1_pricing_summary": (
        "SELECT l_returnflag, l_linestatus, "
        "CAST(sum(CAST(round(l_quantity*100) AS BIGINT)) AS BIGINT) AS sum_qty_c, "
        "CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_c, "
        "CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)"
        "*(100-CAST(round(l_discount*100) AS BIGINT))) AS BIGINT) AS sum_disc_c4, "
        "count(*) AS count_order "
        "FROM lineitem GROUP BY l_returnflag, l_linestatus"
    ),
    "orders_by_segment": (
        "SELECT c_mktsegment AS mktsegment, count(*) AS n_orders, "
        "CAST(sum(CAST(round(o_totalprice*100) AS BIGINT)) AS BIGINT) AS total_c "
        "FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment"
    ),
    "q3_shipping_priority": (
        "WITH c AS (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'), "
        "o AS (SELECT o_orderkey, o_orderdate FROM orders JOIN c ON o_custkey = c_custkey "
        "WHERE o_orderdate < TIMESTAMP '1998-01-01'), "
        "l AS (SELECT l_orderkey, CAST(round(l_extendedprice*100) AS BIGINT)"
        "*(100-CAST(round(l_discount*100) AS BIGINT)) AS r FROM lineitem "
        "WHERE l_shipdate > TIMESTAMP '1998-01-01') "
        "SELECT o.o_orderkey, CAST(sum(l.r) AS BIGINT) AS revenue_c4, o.o_orderdate "
        "FROM o JOIN l ON l.l_orderkey = o.o_orderkey "
        "GROUP BY o.o_orderkey, o.o_orderdate "
        "ORDER BY revenue_c4 DESC, o_orderkey LIMIT 10"
    ),
    "distinct_users_per_type": (
        "SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users "
        "FROM events GROUP BY event_type"
    ),
    "orders_without_lineitems": (
        "SELECT o_orderkey, o_orderpriority FROM orders "
        "WHERE o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)"
    ),
    # index rule = value at 1-based rank ceil(q*n) (DuckDB quantile_disc;
    # the engine reads q as an exact decimal — see doc_length_quantiles)
    "doc_length_quantiles": (
        "SELECT CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50, "
        "CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90, "
        "CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99 FROM documents"
    ),
    "events_hourly": (
        "SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n "
        "FROM events GROUP BY event_type, date_trunc('hour', ts)"
    ),
    "events_sliding": (
        "SELECT event_type, window_start, count(*) AS n FROM ("
        "SELECT event_type, ts, "
        "to_timestamp(CAST(floor(epoch(ts - INTERVAL (o.off) MINUTE) / 3600) AS BIGINT) "
        "* 3600)::TIMESTAMP + INTERVAL (o.off) MINUTE AS window_start "
        "FROM events, (SELECT unnest([0, 30]) AS off) o"
        ") GROUP BY event_type, window_start"
    ),
    "top_events_per_type": (
        "SELECT event_type, event_id, value_c FROM ("
        "SELECT event_type, event_id, CAST(round(value*100) AS BIGINT) AS value_c, "
        "row_number() OVER (PARTITION BY event_type "
        "ORDER BY CAST(round(value*100) AS BIGINT) DESC, event_id) AS rn "
        "FROM events) WHERE rn <= 3"
    ),
    "top_users_by_events": (
        "SELECT user_id, count(*) AS n_events FROM events GROUP BY user_id "
        "ORDER BY n_events DESC, user_id LIMIT 10"
    ),
    "sessionize": (
        "SELECT user_id, CAST(count(*) AS BIGINT) AS n_sessions FROM ("
        "SELECT user_id, CASE WHEN prev_ts IS NULL OR ts - prev_ts > INTERVAL 30 MINUTE "
        "THEN 1 ELSE 0 END AS s FROM ("
        "SELECT user_id, ts, lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev_ts "
        "FROM events)) WHERE s = 1 GROUP BY user_id"
    ),
    # strict backward as-of: DuckDB ASOF JOIN picks the greatest r.ts with
    # l.ts > r.ts per probe row; the build side is pre-reduced to one row
    # per (user, ts) — same determinism rule as the engine
    "asof_prev_event": (
        "WITH l AS (SELECT event_id, user_id, ts FROM events "
        "WHERE event_type = 'click'), "
        "r AS (SELECT user_id, ts, max(CAST(round(value*100) AS BIGINT)) "
        "AS prev_value_c FROM events WHERE event_type = 'view' "
        "GROUP BY user_id, ts) "
        "SELECT l.event_id, l.user_id, r.prev_value_c "
        "FROM l ASOF JOIN r ON l.user_id = r.user_id AND l.ts > r.ts"
    ),
    # keyed band join over the half-open window [l.ts - 60min, l.ts)
    "events_range_join": (
        "WITH l AS (SELECT event_id, user_id, ts FROM events "
        "WHERE event_type = 'purchase'), "
        "r AS (SELECT user_id, ts FROM events WHERE event_type = 'view') "
        "SELECT l.event_id, l.user_id, CAST(count(r.ts) AS BIGINT) AS n_in_window "
        "FROM l LEFT JOIN r ON l.user_id = r.user_id "
        "AND r.ts >= l.ts - INTERVAL 60 MINUTE AND r.ts < l.ts "
        "GROUP BY l.event_id, l.user_id"
    ),
    # index rule shared with doc_length_quantiles (quantile_disc = value at
    # 1-based rank ceil(q*n) within each group)
    "length_quantiles_by_source": (
        "SELECT source, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50, "
        "CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90 "
        "FROM documents GROUP BY source ORDER BY source"
    ),
    # per-key ordered window function; (ts, event_id) ordering makes the
    # running sum deterministic under tied timestamps on both sides
    "user_running_total": (
        "SELECT event_id, user_id, "
        "CAST(sum(CAST(round(value*100) AS BIGINT)) "
        "OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) "
        "AS running_c FROM events WHERE event_type = 'purchase'"
    ),
    # both engines are RE2; rows that don't match the pattern drop on both
    # sides (DuckDB regexp_extract returns '' on no match, hence the
    # explicit regexp_matches gate)
    "props_extract_stats": (
        "SELECT event_type, "
        r"""CAST(sum(CAST(regexp_extract(props, '"k":\s*(\d+)', 1) AS BIGINT)) """
        "AS BIGINT) AS sum_k, "
        r"""CAST(max(CAST(regexp_extract(props, '"k":\s*(\d+)', 1) AS BIGINT)) """
        "AS BIGINT) AS max_k, count(*) AS n "
        r"""FROM events WHERE regexp_matches(props, '"k":\s*(\d+)') """
        "GROUP BY event_type"
    ),
    # gap multiset of a ts-sorted sequence is tie-order-invariant, so the
    # aggregates match regardless of how either engine breaks ts ties;
    # users with a single event drop on both sides (g IS NULL)
    "user_event_gaps": (
        "SELECT user_id, CAST(count(*) AS BIGINT) AS n_gaps, "
        "CAST(sum(g) AS BIGINT) AS sum_gap_us, "
        "CAST(max(g) AS BIGINT) AS max_gap_us FROM ("
        "SELECT user_id, epoch_us(ts) - lag(epoch_us(ts)) "
        "OVER (PARTITION BY user_id ORDER BY ts, event_id) AS g FROM events"
        ") WHERE g IS NOT NULL GROUP BY user_id"
    ),
    # consecutive-pair content DOES depend on tie order → both engines
    # order by (ts, event_id); each user's first event drops
    "event_type_transitions": (
        "SELECT prev_type, event_type, count(*) AS n FROM ("
        "SELECT event_type, lag(event_type) "
        "OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_type "
        "FROM events) WHERE prev_type IS NOT NULL "
        "GROUP BY prev_type, event_type"
    ),
    # LEFT OUTER with zero-fill: one row per order, 0/0 when no lineitems
    "order_lineitem_counts": (
        "SELECT o_orderkey, CAST(coalesce(l.n, 0) AS BIGINT) AS n_items, "
        "CAST(coalesce(l.s, 0) AS BIGINT) AS sum_qty_c "
        "FROM orders LEFT JOIN ("
        "SELECT l_orderkey, count(*) AS n, "
        "sum(CAST(round(l_quantity*100) AS BIGINT)) AS s "
        "FROM lineitem GROUP BY l_orderkey) l ON o_orderkey = l.l_orderkey"
    ),
    # static FILTER aggregates = the pivot's closed column vocabulary
    # (relational.EVENT_TYPES); a type absent for a user counts 0 naturally
    "events_type_pivot": (
        "SELECT user_id, "
        "CAST(count(*) FILTER (WHERE event_type='click') AS BIGINT) AS n_click, "
        "CAST(count(*) FILTER (WHERE event_type='error') AS BIGINT) AS n_error, "
        "CAST(count(*) FILTER (WHERE event_type='purchase') AS BIGINT) AS n_purchase, "
        "CAST(count(*) FILTER (WHERE event_type='signup') AS BIGINT) AS n_signup, "
        "CAST(count(*) FILTER (WHERE event_type='view') AS BIGINT) AS n_view "
        "FROM events GROUP BY user_id"
    ),
    "token_counts": (
        r"SELECT doc_id, CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) "
        "AS n_tokens FROM documents"
    ),
    "bpe_token_counts": (
        r"SELECT doc_id, CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) "
        "AS n_ws_tokens, CAST(len(regexp_extract_all(text, "
        r"'''s|''t|''re|''ve|''m|''ll|''d| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+'"
        ")) AS BIGINT) AS n_bpe_tokens FROM documents"
    ),
    "doc_fingerprints": "SELECT doc_id, md5(text) AS fp FROM documents",
    "quality_scores": (
        "SELECT doc_id, n_tokens, punct_count, stop_count, "
        "(n_tokens >= 10 AND stop_count*20 >= n_tokens) AS passes FROM ("
        r"SELECT doc_id, CAST(len(regexp_extract_all(text,'\S+')) AS BIGINT) AS n_tokens, "
        "CAST(len(regexp_extract_all(text,'[.,;:!?]')) AS BIGINT) AS punct_count, "
        r"CAST(len(regexp_extract_all(lower(text),'\b(?:the|and|of|to|in|a|is)\b')) AS BIGINT) "
        "AS stop_count FROM documents)"
    ),
    "lang_confusion": (
        "SELECT lang, lang_pred, count(*) AS n FROM ("
        "SELECT lang, CASE "
        "WHEN s0 >= s1 AND s0 >= s2 AND s0 >= s3 AND s0 >= s4 THEN 'en' "
        "WHEN s1 >= s2 AND s1 >= s3 AND s1 >= s4 THEN 'de' "
        "WHEN s2 >= s3 AND s2 >= s4 THEN 'es' "
        "WHEN s3 >= s4 THEN 'fr' ELSE 'zh' END AS lang_pred FROM ("
        "SELECT lang, "
        r"len(regexp_extract_all(lower(text), '\b(?:the|and|is|of|to)\b')) AS s0, "
        r"len(regexp_extract_all(lower(text), '\b(?:der|die|und|ist|das)\b')) AS s1, "
        r"len(regexp_extract_all(lower(text), '\b(?:el|los|las|y|es)\b')) AS s2, "
        r"len(regexp_extract_all(lower(text), '\b(?:le|les|et|est|une)\b')) AS s3, "
        "len(regexp_extract_all(lower(text), '(?:的|是|了|在|和)')) AS s4 "
        "FROM documents)) GROUP BY lang, lang_pred"
    ),
    "shingle_stats": (
        "SELECT doc_id, CAST(len(list_distinct(list_transform("
        "range(1, len(words)-1), i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]"
        "))) AS BIGINT) AS n_shingles FROM ("
        r"SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS words FROM documents)"
    ),
    "embedding_topk": (
        "WITH q AS (SELECT embedding AS e FROM embeddings WHERE vec_id = 0) "
        "SELECT vec_id FROM embeddings, q "
        "ORDER BY list_cosine_similarity(embedding, q.e) DESC, vec_id LIMIT 10"
    ),
    # exact-mode IVF == brute-force top-k (see QUERIES comment)
    "embedding_topk_ivf": (
        "WITH q AS (SELECT embedding AS e FROM embeddings WHERE vec_id = 0) "
        "SELECT vec_id FROM embeddings, q "
        "ORDER BY list_cosine_similarity(embedding, q.e) DESC, vec_id LIMIT 10"
    ),
    "embedding_topk_ivf_bucketed": (
        "WITH q AS (SELECT embedding AS e FROM embeddings WHERE vec_id = 0) "
        "SELECT vec_id FROM embeddings, q "
        "ORDER BY list_cosine_similarity(embedding, q.e) DESC, vec_id LIMIT 10"
    ),
    # same lowercased \S+ word split + 3-gram shingle construction as the
    # minhash/shingle_stats oracles; dup_pct is integer floor division
    "dup_ngram_stats": (
        "SELECT doc_id, CAST(len(sh_all) AS BIGINT) AS n_shingles_total, "
        "CAST(len(list_distinct(sh_all)) AS BIGINT) AS n_shingles_distinct, "
        "CAST(CASE WHEN len(sh_all) = 0 THEN 0 ELSE "
        "((len(sh_all) - len(list_distinct(sh_all))) * 100) // len(sh_all) "
        "END AS BIGINT) AS dup_pct FROM ("
        "SELECT doc_id, list_transform(range(1, len(words)-1), "
        "i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]) AS sh_all "
        r"FROM (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS words "
        "FROM documents))"
    ),
    # GROUPING SETS NULL markers COALESCEd to the engine's 'ALL' literal
    # (source/lang are never null in this table, so the marker is
    # unambiguous); counts/sums are integer-exact
    "source_lang_rollup": (
        "SELECT COALESCE(source, 'ALL') AS source, "
        "COALESCE(lang, 'ALL') AS lang, "
        "CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(n_chars) AS BIGINT) AS total_chars "
        "FROM documents "
        "GROUP BY GROUPING SETS ((source, lang), (source), ())"
    ),
    "q5_revenue_by_nation": (
        "SELECT n_name, CAST(sum("
        "CAST(round(l_extendedprice*100) AS BIGINT)"
        "*(100-CAST(round(l_discount*100) AS BIGINT))) AS BIGINT) AS revenue_c4 "
        "FROM customer JOIN orders ON c_custkey = o_custkey "
        "JOIN lineitem ON l_orderkey = o_orderkey "
        "JOIN supplier ON l_suppkey = s_suppkey "
        "JOIN nation ON s_nationkey = n_nationkey "
        "WHERE c_nationkey = s_nationkey "
        "AND o_orderdate >= TIMESTAMP '1997-01-01' "
        "AND o_orderdate < TIMESTAMP '1999-01-01' "
        "GROUP BY n_name"
    ),
    "latest_event_per_user": (
        "SELECT user_id, ts, event_id, event_type FROM ("
        "SELECT user_id, ts, event_id, event_type, "
        "row_number() OVER (PARTITION BY user_id "
        "ORDER BY ts DESC, event_id DESC) AS rn FROM events) WHERE rn = 1"
    ),
    "doc_length_histogram": (
        "SELECT n_chars // 50 AS bin, count(*) AS n_docs, "
        "CAST(sum(n_chars) AS BIGINT) AS total_chars "
        "FROM documents GROUP BY n_chars // 50"
    ),
    "repeat_buyers": (
        "SELECT user_id FROM events WHERE event_type = 'click' "
        "INTERSECT "
        "SELECT user_id FROM events WHERE event_type = 'purchase'"
    ),
    "part_brand_stats": (
        "SELECT p_brand, count(*) AS n_parts, "
        "CAST(sum(CAST(round(p_retailprice*100) AS BIGINT)) AS BIGINT) AS retail_c, "
        "CAST(max(p_size) AS BIGINT) AS max_size FROM part GROUP BY p_brand"
    ),
    # the engine's bloom is a PREfilter only — exactness comes from the
    # shard semi-join verify, so the plain IN-subquery is the oracle
    "high_value_lineitem_stats": (
        "SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n_items, "
        "CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_c "
        "FROM lineitem WHERE l_orderkey IN ("
        "SELECT o_orderkey FROM orders "
        "WHERE CAST(round(o_totalprice*100) AS BIGINT) >= 45000000) "
        "GROUP BY l_returnflag"
    ),
    "doc_length_ranks": (
        "SELECT doc_id, n_chars, "
        "CAST(rank() OVER (ORDER BY n_chars) - 1 AS BIGINT) AS n_less, "
        "CAST(count(*) OVER (ORDER BY n_chars RANGE BETWEEN UNBOUNDED PRECEDING "
        "AND CURRENT ROW) AS BIGINT) AS n_leq FROM documents"
    ),
    "source_lang_cube": (
        "SELECT COALESCE(source, 'ALL') AS source, "
        "COALESCE(lang, 'ALL') AS lang, "
        "CAST(count(*) AS BIGINT) AS n_docs, "
        "CAST(sum(n_chars) AS BIGINT) AS total_chars "
        "FROM documents GROUP BY CUBE (source, lang)"
    ),
    "event_value_stats": (
        "SELECT event_type, count(*) AS n, "
        "CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT) AS sum_c, "
        "CAST(sum(CAST(round(value*100) AS BIGINT)*CAST(round(value*100) AS BIGINT)) "
        "AS BIGINT) AS sum_sq_c FROM events GROUP BY event_type"
    ),
    # existence of ANY ordered chain == the engine's greedy-earliest rule
    "signup_click_purchase_funnel": (
        "SELECT DISTINCT e1.user_id FROM events e1, events e2, events e3 "
        "WHERE e1.event_type = 'signup' AND e2.event_type = 'click' "
        "AND e3.event_type = 'purchase' AND e2.user_id = e1.user_id "
        "AND e3.user_id = e1.user_id AND e2.ts > e1.ts AND e3.ts > e2.ts"
    ),
    # identical integer arithmetic, K iterations unrolled as chained CTEs
    "pagerank_docs": graph.pagerank_sql(),
    # the quality_scores prose gate ∧ dup_ngram_stats' dup_pct ≤ 20 ∧ the
    # lang_confusion en rule (s0 >= every other score) — predicates quoted
    # verbatim from those three oracles so the composition cannot drift
    "clean_documents": (
        "SELECT doc_id, source, n_chars FROM ("
        "SELECT doc_id, source, n_chars, "
        r"CAST(len(regexp_extract_all(text,'\S+')) AS BIGINT) AS n_tokens, "
        r"CAST(len(regexp_extract_all(lower(text),'\b(?:the|and|of|to|in|a|is)\b')) AS BIGINT) AS stop_count, "
        "list_transform(range(1, len(words)-1), "
        "i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]) AS sh_all, "
        r"len(regexp_extract_all(lower(text), '\b(?:the|and|is|of|to)\b')) AS s0, "
        r"len(regexp_extract_all(lower(text), '\b(?:der|die|und|ist|das)\b')) AS s1, "
        r"len(regexp_extract_all(lower(text), '\b(?:el|los|las|y|es)\b')) AS s2, "
        r"len(regexp_extract_all(lower(text), '\b(?:le|les|et|est|une)\b')) AS s3, "
        "len(regexp_extract_all(lower(text), '(?:的|是|了|在|和)')) AS s4 "
        "FROM (SELECT doc_id, source, n_chars, text, "
        r"regexp_extract_all(lower(text), '\S+') AS words FROM documents)) "
        "WHERE n_tokens >= 10 AND stop_count*20 >= n_tokens "
        "AND (CASE WHEN len(sh_all) = 0 THEN 0 ELSE "
        "((len(sh_all) - len(list_distinct(sh_all))) * 100) // len(sh_all) "
        "END) <= 20 "
        "AND s0 >= s1 AND s0 >= s2 AND s0 >= s3 AND s0 >= s4"
    ),
    # stage 1 = the length_quantiles_by_source oracle at (0.1, 0.9); stage 2
    # keeps docs inside their OWN source's closed [p10, p90] band
    "length_filtered_docs": (
        "WITH q AS (SELECT source, "
        "CAST(quantile_disc(n_chars, 0.1) AS BIGINT) AS lo, "
        "CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS hi "
        "FROM documents GROUP BY source) "
        "SELECT d.doc_id, d.source, d.n_chars FROM documents d "
        "JOIN q ON d.source = q.source "
        "WHERE d.n_chars >= q.lo AND d.n_chars <= q.hi"
    ),
    # tokenization contract: single-space split, empty tokens dropped
    # (string_split keeps empties where Python .split() drops them — the
    # WHERE clause makes both sides identical); ORDER BY (df DESC, token)
    # is the engine's deterministic top-k tie-break
    "token_doc_frequency": (
        "SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df FROM ("
        "SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents"
        ") WHERE token <> '' GROUP BY token ORDER BY df DESC, token LIMIT 50"
    ),
    # same tokenization contract as token_doc_frequency (single-space
    # split, empties dropped); (n DESC, token) is the top-k tie-break
    "top_tokens": (
        "SELECT token, CAST(count(*) AS BIGINT) AS n FROM ("
        "SELECT unnest(string_split(text, ' ')) AS token FROM documents"
        ") WHERE token <> '' GROUP BY token ORDER BY n DESC, token LIMIT 50"
    ),
    # integer-exact tf-idf ranking: score = (tf * 1e6) // df (floor div on
    # both engines); ties (score DESC, token ASC) — see tfidf_top_terms'
    # docstring for why the constant-N ln-idf factor drops out of the rank
    "tfidf_top_terms": (
        "WITH tok AS ("
        "SELECT doc_id, unnest(string_split(text, ' ')) AS token "
        "FROM documents), "
        "tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf "
        "FROM tok WHERE token <> '' GROUP BY doc_id, token), "
        "df AS (SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df "
        "FROM tok WHERE token <> '' GROUP BY token), "
        "scored AS (SELECT tf.doc_id, tf.token, "
        "(tf.tf * 1000000) // df.df AS tfidf_scaled, "
        "ROW_NUMBER() OVER (PARTITION BY tf.doc_id "
        "ORDER BY (tf.tf * 1000000) // df.df DESC, tf.token ASC) AS r "
        "FROM tf JOIN df USING (token)) "
        "SELECT doc_id, token, tfidf_scaled FROM scored WHERE r <= 3"
    ),
    # keep iff md5-low-64(text) % 100 < 10 — the engine computes the
    # identical hash (md5 digest bytes 8..16 little-endian)
    "sample_documents": (
        "SELECT doc_id, source, n_chars FROM documents "
        "WHERE md5_number_lower(text) % 100 < 10"
    ),
    # transitive closure of the exact all-pairs J>=0.8 graph (the same pair
    # predicate as minhash_lsh_pairs' oracle): rep = min reachable doc_id
    "minhash_dedup_clusters": (
        "WITH RECURSIVE s AS ("
        "SELECT doc_id, list_distinct(list_transform(range(1, len(words)-1), "
        "i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])) AS sh "
        r"FROM (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS words "
        "FROM documents)), "
        "e AS (SELECT a.doc_id AS u, b.doc_id AS v "
        "FROM s a JOIN s b ON a.doc_id < b.doc_id "
        "WHERE len(list_intersect(a.sh,b.sh))*100 >= "
        "80*(len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh))) "
        "AND len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh)) > 0), "
        "ee AS (SELECT u, v FROM e UNION SELECT v, u FROM e), "
        "nodes AS (SELECT DISTINCT u AS doc_id FROM ee), "
        "reach(src, node) AS ("
        "SELECT doc_id, doc_id FROM nodes "
        "UNION "
        "SELECT r.src, ee.v FROM reach r JOIN ee ON r.node = ee.u) "
        "SELECT src AS doc_id, CAST(min(node) AS BIGINT) AS rep_id "
        "FROM reach GROUP BY src"
    ),
    # MinHash+LSH with 32×2 banding misses a J≥0.8 pair w.p. ≤6e-15, so the
    # engine output equals this EXACT all-pairs answer (LSH is the candidate
    # generator; every candidate is verified by exact shingle Jaccard)
    "minhash_lsh_pairs": (
        "WITH s AS ("
        "SELECT doc_id, list_distinct(list_transform(range(1, len(words)-1), "
        "i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])) AS sh "
        r"FROM (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS words "
        "FROM documents)) "
        "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
        "CAST(len(list_intersect(a.sh, b.sh)) AS BIGINT) AS n_inter, "
        "CAST(len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh)) AS BIGINT) AS n_union "
        "FROM s a JOIN s b ON a.doc_id < b.doc_id "
        "WHERE len(list_intersect(a.sh,b.sh))*100 >= "
        "80*(len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh))) "
        "AND len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh)) > 0"
    ),
    # same shingle construction as minhash_lsh_pairs' oracle, bounded to
    # doc_id < 200 both sides (the engine's broadcast-slice contract)
    "ngram_jaccard_pairs": (
        "WITH s AS ("
        "SELECT doc_id, list_distinct(list_transform(range(1, len(words)-1), "
        "i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2])) AS sh "
        r"FROM (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS words "
        "FROM documents WHERE doc_id < 200)) "
        "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
        "CAST(len(list_intersect(a.sh, b.sh)) AS BIGINT) AS n_inter, "
        "CAST(len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh)) AS BIGINT) AS n_union "
        "FROM s a JOIN s b ON a.doc_id < b.doc_id "
        "WHERE len(list_intersect(a.sh,b.sh))*100 >= "
        "30*(len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh))) "
        "AND len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh)) > 0"
    ),
    # word hash = md5_number_lower (md5 digest bytes 8..16 little-endian,
    # same definition as dedup._word_hash) → bit-exact SimHash in SQL
    "simhash_table": (
        r"WITH w AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) "
        "AS word FROM documents), "
        "h AS (SELECT doc_id, md5_number_lower(word) AS hv FROM w), "
        "bpos AS (SELECT unnest(range(64)) AS bit), "
        "acc AS (SELECT doc_id, bit, "
        "sum(CASE WHEN (hv >> bit) & 1 = 1 THEN 1 ELSE -1 END) AS s "
        "FROM h, bpos GROUP BY doc_id, bit), "
        "sim AS (SELECT doc_id, lpad(lower(hex(CAST(sum(CASE WHEN s > 0 THEN "
        "(CAST(1 AS UBIGINT) << bit) ELSE CAST(0 AS UBIGINT) END) AS UBIGINT))),"
        "16,'0') AS simhash FROM acc GROUP BY doc_id) "
        "SELECT d.doc_id, coalesce(sim.simhash, '0000000000000000') AS simhash "
        "FROM documents d LEFT JOIN sim ON d.doc_id = sim.doc_id"
    ),
    # same word-hash SimHash as simhash_table, kept numeric for the
    # pairwise bit_count(xor) hamming filter
    "simhash_near_dup_pairs": (
        r"WITH w AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) "
        "AS word FROM documents), "
        "h AS (SELECT doc_id, md5_number_lower(word) AS hv FROM w), "
        "bpos AS (SELECT unnest(range(64)) AS bit), "
        "acc AS (SELECT doc_id, bit, "
        "sum(CASE WHEN (hv >> bit) & 1 = 1 THEN 1 ELSE -1 END) AS s "
        "FROM h, bpos GROUP BY doc_id, bit), "
        "sim AS (SELECT doc_id, CAST(sum(CASE WHEN s > 0 THEN "
        "(CAST(1 AS UBIGINT) << bit) ELSE CAST(0 AS UBIGINT) END) AS UBIGINT) "
        "AS h FROM acc GROUP BY doc_id), "
        "simall AS (SELECT d.doc_id, coalesce(sim.h, CAST(0 AS UBIGINT)) AS h "
        "FROM documents d LEFT JOIN sim ON d.doc_id = sim.doc_id) "
        "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b FROM simall a "
        "JOIN simall b ON a.doc_id < b.doc_id "
        "WHERE bit_count(xor(a.h, b.h)) <= 3"
    ),
    # FakeDecoder dims are md5-derived (see multimodal.FakeDecoder); the
    # payload is encode(text), so md5(text) == md5(payload)
    "image_meta_stub": (
        "SELECT doc_id, CAST(octet_length(encode(text)) AS BIGINT) AS payload_bytes, "
        "CAST(md5_number_lower(text) % 1024 + 1 AS BIGINT) AS width, "
        "CAST((md5_number_lower(text) >> 10) % 1024 + 1 AS BIGINT) AS height "
        "FROM documents"
    ),
    "embedding_near_dup": (
        "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b FROM embeddings a, embeddings b "
        "WHERE a.vec_id < 200 AND b.vec_id < 200 AND a.vec_id < b.vec_id "
        "AND list_cosine_similarity(a.embedding, b.embedding)*100 >= 40"
    ),
    # LSH is only the candidate generator (every candidate exact-verified;
    # defaults give recall 1.0 on these fixtures — checked exhaustively), so
    # the UNBOUNDED exact all-pairs answer is the oracle
    "embedding_near_dup_lsh": (
        "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b FROM embeddings a, embeddings b "
        "WHERE a.vec_id < b.vec_id "
        "AND list_cosine_similarity(a.embedding, b.embedding)*100 >= 40"
    ),
    "payload_bytes": (
        "SELECT doc_id, CAST(octet_length(encode(text)) AS BIGINT) AS payload_bytes "
        "FROM documents"
    ),
    # frame count = payload_bytes % 24 + 1, kept frames = every 3rd index —
    # generate_series' inclusive upper bound IS n_frames - 1
    "frame_sample": (
        "SELECT doc_id, frame_idx, "
        "md5(text || '#' || CAST(frame_idx AS VARCHAR)) AS frame_fp "
        "FROM (SELECT doc_id, text, unnest(generate_series("
        "0, octet_length(encode(text)) % 24, 3)) AS frame_idx FROM documents)"
    ),
    "resize_plan": (
        "SELECT doc_id, width, height, "
        "CAST(CASE WHEN GREATEST(width, height) <= 256 THEN width "
        "WHEN width >= height THEN 256 "
        "ELSE GREATEST(1, (width * 256) // height) END AS BIGINT) AS out_w, "
        "CAST(CASE WHEN GREATEST(width, height) <= 256 THEN height "
        "WHEN width >= height THEN GREATEST(1, (height * 256) // width) "
        "ELSE 256 END AS BIGINT) AS out_h "
        "FROM (SELECT doc_id, "
        "CAST(md5_number_lower(text) % 1024 + 1 AS BIGINT) AS width, "
        "CAST((md5_number_lower(text) >> 10) % 1024 + 1 AS BIGINT) AS height "
        "FROM documents)"
    ),
    "audio_meta_stub": (
        "SELECT doc_id, CAST(octet_length(encode(text)) // 16 AS BIGINT) AS duration_ms, "
        "CAST(md5_number_lower(text) % 10000 AS BIGINT) AS rms_q, "
        "CAST((md5_number_lower(text) >> 20) % 2 + 1 AS BIGINT) AS channels "
        "FROM documents"
    ),
    # rows-only (no SQL equivalent): crawl_bfs — the pages corpus is not a
    # driver view; its correctness gate is the sequential-oracle pytest
    # suite (tests/test_crawl_engine.py)
}

# end-to-end corpus snapshot: composed FROM the constituent oracles so the
# composition cannot drift from its parts (clean filter ∘ exact dedup on
# the kept set ∘ per-source count; the engine's partitioned-parquet
# write/read roundtrip is invisible to SQL by design — it must not change
# the answer)
QUERIES["clean_dedup_corpus"] = textops.clean_dedup_corpus
ORACLE_SQL["clean_dedup_corpus"] = (
    f"WITH kept AS ({ORACLE_SQL['clean_documents']}), "
    "d AS (SELECT md5(t.text) AS fp, min(t.doc_id) AS doc_id "
    "FROM documents t JOIN kept k ON t.doc_id = k.doc_id "
    "GROUP BY md5(t.text)) "
    "SELECT k.source, count(*) AS n_docs FROM kept k "
    "JOIN d ON k.doc_id = d.doc_id GROUP BY k.source"
)

# TPC-H-Q17-shaped aggregate-then-self-join (compare each row to its
# group's aggregate): brand partkeys broadcast, per-partkey avg via
# combiner groupby, second streaming pass probes the broadcast aggregate;
# the qualifying predicate is integer (5·qty_c·n < sum_qty_c ⇔ qty < 0.2·avg)
QUERIES["q17_small_qty_revenue"] = relational.q17_small_qty_revenue
ORACLE_SQL["q17_small_qty_revenue"] = (
    "WITH agg AS (SELECT l_partkey, CAST(count(*) AS BIGINT) AS n, "
    "CAST(sum(CAST(round(l_quantity*100) AS BIGINT)) AS BIGINT) AS sq "
    "FROM lineitem JOIN part ON l_partkey = p_partkey "
    "WHERE p_brand = 'Brand#13' GROUP BY l_partkey) "
    "SELECT CAST(coalesce(sum(CAST(round(l_extendedprice*100) AS BIGINT)), 0) "
    "AS BIGINT) AS total_base_c, CAST(count(*) AS BIGINT) AS n_items "
    "FROM lineitem JOIN agg ON lineitem.l_partkey = agg.l_partkey "
    "WHERE 5 * CAST(round(l_quantity*100) AS BIGINT) * agg.n < agg.sq"
)

# TPC-H-Q18-shaped GROUP BY + HAVING + enrichment join: the HAVING tail is
# answer-sized, so it broadcasts back over orders — no fact⋈fact shuffle
QUERIES["q18_large_orders"] = relational.q18_large_orders
ORACLE_SQL["q18_large_orders"] = (
    "WITH big AS (SELECT l_orderkey, "
    "CAST(sum(CAST(round(l_quantity*100) AS BIGINT)) AS BIGINT) AS sum_qty_c "
    "FROM lineitem GROUP BY l_orderkey "
    "HAVING sum(CAST(round(l_quantity*100) AS BIGINT)) > 30000) "
    "SELECT c_name, o_orderkey, "
    "CAST(round(o_totalprice*100) AS BIGINT) AS totalprice_c, sum_qty_c "
    "FROM big JOIN orders ON o_orderkey = l_orderkey "
    "JOIN customer ON o_custkey = c_custkey"
)

# bounded-frame window function (ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
# — the rolling-feature sibling of user_running_total, same shard shape
QUERIES["user_value_moving_sum"] = relational.user_value_moving_sum
ORACLE_SQL["user_value_moving_sum"] = (
    "SELECT event_id, user_id, "
    "CAST(sum(CAST(round(value*100) AS BIGINT)) OVER ("
    "PARTITION BY user_id ORDER BY ts, event_id "
    "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS moving_c "
    "FROM events WHERE event_type = 'purchase'"
)

# MODE per group (argmax-of-counts, ties → lang ascending): key-sized
# combiner groupby + one answer-sized argmax merge
QUERIES["mode_lang_per_source"] = relational.mode_lang_per_source
ORACLE_SQL["mode_lang_per_source"] = (
    "SELECT source, lang, n_docs FROM ("
    "SELECT source, lang, CAST(count(*) AS BIGINT) AS n_docs, "
    "row_number() OVER (PARTITION BY source "
    "ORDER BY count(*) DESC, lang) AS rn "
    "FROM documents GROUP BY source, lang) WHERE rn = 1"
)

# keyed set DIFFERENCE (EXCEPT) at (user, day) grain — complement of
# repeat_buyers' INTERSECT; indicator-max groupby over per-batch distinct
# (user, day) pairs
QUERIES["clickers_without_purchase"] = relational.clickers_without_purchase
ORACLE_SQL["clickers_without_purchase"] = (
    "SELECT user_id, date_trunc('day', ts)::TIMESTAMP AS day "
    "FROM events WHERE event_type = 'click' "
    "EXCEPT "
    "SELECT user_id, date_trunc('day', ts)::TIMESTAMP "
    "FROM events WHERE event_type = 'purchase'"
)

# TPC-H-Q4-shaped EXISTS semi-join + grouped count (positive counterpart
# of the orders_without_lineitems anti-join; both sides fact-sized)
QUERIES["late_shipment_priority_counts"] = relational.late_shipment_priority_counts
ORACLE_SQL["late_shipment_priority_counts"] = (
    "SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders "
    "FROM orders WHERE o_orderkey IN ("
    "SELECT l_orderkey FROM lineitem "
    "WHERE l_shipdate >= TIMESTAMP '1998-06-01') "
    "GROUP BY o_orderpriority"
)

# word-BIGRAM count top-k (sequence n-grams; adjacency never crosses a
# document). The SQL's list_zip pads the shorter list with NULL — filtered
# on both sides; empty-token pairs dropped on both sides identically
QUERIES["top_bigrams"] = textops.top_bigrams
ORACLE_SQL["top_bigrams"] = (
    "WITH p AS (SELECT unnest(list_zip(ws, ws[2:])) AS z "
    "FROM (SELECT string_split(text, ' ') AS ws FROM documents)) "
    "SELECT z[1] AS w1, z[2] AS w2, CAST(count(*) AS BIGINT) AS n FROM p "
    "WHERE z[1] <> '' AND z[2] <> '' AND z[2] IS NOT NULL "
    "GROUP BY z[1], z[2] ORDER BY n DESC, w1, w2 LIMIT 40"
)

# per-stratum deterministic sampling (md5 % 100 against a per-lang rate)
QUERIES["stratified_sample_documents"] = textops.stratified_sample_documents
ORACLE_SQL["stratified_sample_documents"] = (
    "SELECT doc_id, lang, n_chars FROM documents "
    "WHERE md5_number_lower(text) % 100 < "
    "CASE WHEN lang = 'en' THEN 5 ELSE 25 END"
)

# deterministic train/val/test split summary (content-hash bucketing —
# membership is a pure function of the doc, stable under re-sharding)
QUERIES["split_documents"] = textops.split_documents
ORACLE_SQL["split_documents"] = (
    "SELECT CASE WHEN md5_number_lower(text) % 100 < 80 THEN 'train' "
    "WHEN md5_number_lower(text) % 100 < 90 THEN 'val' ELSE 'test' END AS split, "
    "CAST(count(*) AS BIGINT) AS n_docs, "
    "CAST(sum(n_chars) AS BIGINT) AS total_chars "
    "FROM documents GROUP BY 1"
)

# FULL OUTER join (zero-filled both sides) — completes the join family;
# the zero-fill falls out of a tagged combiner union, no join operator
QUERIES["nation_customer_supplier_balance"] = (
    relational.nation_customer_supplier_balance
)
ORACLE_SQL["nation_customer_supplier_balance"] = (
    "SELECT n_name, CAST(coalesce(c.n, 0) AS BIGINT) AS n_customers, "
    "CAST(coalesce(s.n, 0) AS BIGINT) AS n_suppliers "
    "FROM (SELECT c_nationkey AS k, count(*) AS n FROM customer GROUP BY 1) c "
    "FULL OUTER JOIN "
    "(SELECT s_nationkey AS k, count(*) AS n FROM supplier GROUP BY 1) s "
    "ON c.k = s.k JOIN nation ON n_nationkey = coalesce(c.k, s.k)"
)

# windowed DISTINCT count (hourly active users): distinct-(hour, user)
# pairs cross the exchange, never event rows
QUERIES["hourly_active_users"] = relational.hourly_active_users
ORACLE_SQL["hourly_active_users"] = (
    "SELECT date_trunc('hour', ts)::TIMESTAMP AS hour, "
    "CAST(count(DISTINCT user_id) AS BIGINT) AS n_users "
    "FROM events GROUP BY 1"
)

# inverted text index driven end-to-end: token-hash-bucketed partitioned
# parquet ingest under /tmp, then a lookup that opens ONLY the query
# tokens' buckets (pruning asserted in tests/test_relational_extras.py)
QUERIES["inverted_index_lookup"] = textops.inverted_index_lookup
ORACLE_SQL["inverted_index_lookup"] = (
    "SELECT token, doc_id, CAST(count(*) AS BIGINT) AS tf FROM ("
    "SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents) "
    "WHERE token IN ('scan', 'column', 'window', 'zz-absent-token') "
    "GROUP BY token, doc_id"
)

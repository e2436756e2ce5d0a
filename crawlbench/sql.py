"""DuckDB oracles for the registry queries the workloads run.

The SQL lives here, not in the engine's registry, so a change to the engine
cannot change the expected answers. Money is compared in integer cents and
similarity answers as integer counts, as the engine's queries define them.
"""

from __future__ import annotations

import os

import duckdb
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]

_CENTS = "CAST(round({} * 100) AS BIGINT)"
_WORDS = r"regexp_extract_all(lower(text), '\S+')"
_SHINGLES = (
    "list_distinct(list_transform(range(1, len(w) - 1), "
    "i -> w[i] || ' ' || w[i + 1] || ' ' || w[i + 2]))"
)


def _pagerank(iterations: int = 5, k: int = 20) -> str:
    """Integer PageRank over the doc-id link graph: node d links to
    (d * 2654435761 + 1000003 * t) mod N for t = 1..3; a node's rank is
    150000000 plus the sum of (85 * r) // 300 over its in-links, starting
    from 10^9 everywhere."""
    ctes = [
        "n AS (SELECT count(*) AS c FROM documents)",
        "e AS (SELECT doc_id AS src, (doc_id * 2654435761 + 1000003 * t) "
        "% (SELECT c FROM n) AS dst FROM documents, range(1, 4) r(t))",
        "r0 AS (SELECT doc_id AS node, CAST(1000000000 AS BIGINT) AS r FROM documents)",
    ]
    for i in range(1, iterations + 1):
        ctes.append(
            f"r{i} AS (SELECT d.doc_id AS node, "
            f"CAST(150000000 + coalesce(s.s, 0) AS BIGINT) AS r FROM documents d "
            f"LEFT JOIN (SELECT e.dst, sum((85 * p.r) // 300) AS s FROM e "
            f"JOIN r{i - 1} p ON e.src = p.node GROUP BY e.dst) s ON s.dst = d.doc_id)"
        )
    return (
        "WITH " + ", ".join(ctes)
        + f" SELECT node AS doc_id, r AS pr FROM r{iterations} "
        f"ORDER BY r DESC, node LIMIT {k}"
    )


ORACLES = {
    "q1_pricing_summary": (
        "SELECT l_returnflag, l_linestatus, "
        f"sum({_CENTS.format('l_quantity')})::BIGINT AS sum_qty_c, "
        f"sum({_CENTS.format('l_extendedprice')})::BIGINT AS sum_base_c, "
        f"sum({_CENTS.format('l_extendedprice')} * (100 - {_CENTS.format('l_discount')}))"
        "::BIGINT AS sum_disc_c4, count(*) AS count_order "
        "FROM lineitem GROUP BY ALL"
    ),
    "orders_by_segment": (
        "SELECT c.c_mktsegment AS mktsegment, count(*) AS n_orders, "
        f"sum({_CENTS.format('o.o_totalprice')})::BIGINT AS total_c "
        "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey GROUP BY 1"
    ),
    "q3_shipping_priority": (
        "SELECT o.o_orderkey, "
        f"sum({_CENTS.format('l.l_extendedprice')} * (100 - {_CENTS.format('l.l_discount')}))"
        "::BIGINT AS revenue_c4, o.o_orderdate "
        "FROM customer c JOIN orders o ON o.o_custkey = c.c_custkey "
        "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
        "WHERE c.c_mktsegment = 'BUILDING' AND o.o_orderdate < TIMESTAMP '1998-01-01' "
        "AND l.l_shipdate > TIMESTAMP '1998-01-01' "
        "GROUP BY o.o_orderkey, o.o_orderdate ORDER BY revenue_c4 DESC, o.o_orderkey LIMIT 10"
    ),
    "orders_without_lineitems": (
        "SELECT o_orderkey, o_orderpriority FROM orders o WHERE NOT EXISTS "
        "(SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey)"
    ),
    "distinct_users_per_type": (
        "SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users "
        "FROM events GROUP BY event_type"
    ),
    "user_running_total": (
        "SELECT event_id, user_id, "
        f"sum({_CENTS.format('value')}) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)::BIGINT AS running_c "
        "FROM events WHERE event_type = 'purchase'"
    ),
    # strictly earlier view of the same user; among views at the same
    # instant the largest value counts
    "asof_prev_event": (
        "WITH v AS (SELECT user_id, ts, "
        f"max({_CENTS.format('value')}) AS prev_value_c FROM events "
        "WHERE event_type = 'view' GROUP BY user_id, ts) "
        "SELECT c.event_id, c.user_id, v.prev_value_c "
        "FROM (SELECT * FROM events WHERE event_type = 'click') c "
        "ASOF JOIN v ON c.user_id = v.user_id AND c.ts > v.ts"
    ),
    "sessionize": (
        "SELECT user_id, count(*)::BIGINT AS n_sessions FROM ("
        "SELECT user_id, ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS gap "
        "FROM events) WHERE gap IS NULL OR gap > INTERVAL 30 MINUTE GROUP BY user_id"
    ),
    "top_tokens": (
        "SELECT token, count(*)::BIGINT AS n FROM "
        "(SELECT unnest(string_split(text, ' ')) AS token FROM documents) "
        "WHERE token <> '' GROUP BY token ORDER BY n DESC, token LIMIT 50"
    ),
    "quality_scores": (
        "SELECT doc_id, n_tokens, punct_count, stop_count, "
        "n_tokens >= 10 AND stop_count * 20 >= n_tokens AS passes FROM ("
        r"SELECT doc_id, len(regexp_extract_all(text, '\S+'))::BIGINT AS n_tokens, "
        "len(regexp_extract_all(text, '[.,;:!?]'))::BIGINT AS punct_count, "
        r"len(regexp_extract_all(lower(text), '\b(?:the|and|of|to|in|a|is)\b'))::BIGINT "
        "AS stop_count FROM documents)"
    ),
    "dedup_exact": (
        "SELECT md5(text) AS fp, min(doc_id) AS doc_id FROM documents GROUP BY fp"
    ),
    # exact word 3-shingle Jaccard >= 0.8, compared in integers
    "minhash_lsh_pairs": (
        f"WITH s AS (SELECT doc_id, {_SHINGLES} AS sh FROM "
        f"(SELECT doc_id, {_WORDS} AS w FROM documents)), "
        "p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
        "len(list_intersect(a.sh, b.sh))::BIGINT AS n_inter, "
        "(len(a.sh) + len(b.sh))::BIGINT AS n_sum "
        "FROM s a JOIN s b ON a.doc_id < b.doc_id) "
        "SELECT doc_a, doc_b, n_inter, n_sum - n_inter AS n_union FROM p "
        "WHERE n_sum > n_inter AND n_inter * 100 >= 80 * (n_sum - n_inter)"
    ),
    # 64-bit SimHash of the lower-cased words (md5 low 64 bits per word, a
    # bit is set when more words have it set than not), hamming <= 3
    "simhash_near_dup_pairs": (
        f"WITH w AS (SELECT doc_id, md5_number_lower(unnest({_WORDS})) AS hv "
        "FROM documents), "
        "b AS (SELECT doc_id, bit, sum(CASE WHEN (hv >> bit) & 1 = 1 THEN 1 ELSE -1 END) AS s "
        "FROM w, range(64) r(bit) GROUP BY doc_id, bit), "
        "h AS (SELECT d.doc_id, CAST(coalesce(sum(CASE WHEN b.s > 0 THEN "
        "CAST(1 AS UBIGINT) << b.bit END), 0) AS UBIGINT) AS h "
        "FROM documents d LEFT JOIN b ON b.doc_id = d.doc_id GROUP BY d.doc_id) "
        "SELECT x.doc_id AS doc_a, y.doc_id AS doc_b FROM h x JOIN h y "
        "ON x.doc_id < y.doc_id WHERE bit_count(xor(x.h, y.h)) <= 3"
    ),
    "pagerank_docs": _pagerank(),
    "embedding_topk": (
        "SELECT e.vec_id FROM embeddings e, "
        "(SELECT embedding AS q FROM embeddings WHERE vec_id = 0) "
        "ORDER BY list_cosine_similarity(e.embedding, q) DESC, e.vec_id LIMIT 10"
    ),
}

# queries whose answer is approximate by design: checked against the exact
# answer of another SQL within a relative bound
BOUNDED = {
    # HyperLogLog distinct users per event type, within 5 % of the exact count
    "distinct_users_hll": (
        ORACLES["distinct_users_per_type"], "event_type", ("n_users_approx", "n_users"), 0.05
    ),
}

QUERY_NAMES = [
    "q1_pricing_summary",
    "orders_by_segment",
    "q3_shipping_priority",
    "orders_without_lineitems",
    "distinct_users_per_type",
    "distinct_users_hll",
    "user_running_total",
    "asof_prev_event",
    "sessionize",
    "top_tokens",
    "quality_scores",
    "dedup_exact",
    "minhash_lsh_pairs",
    "simhash_near_dup_pairs",
    "pagerank_docs",
    "embedding_topk",
]


def expected_answers(table_dir: str, names=QUERY_NAMES) -> dict[str, pd.DataFrame]:
    """The expected answer of each query in ``names``; for a bounded query,
    the exact answer it is held to."""
    con = duckdb.connect()
    try:
        for t in TABLES:
            path = os.path.join(table_dir, f"{t}.parquet").replace("'", "''")
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
        return {
            name: con.execute(BOUNDED[name][0] if name in BOUNDED else ORACLES[name]).fetch_df()
            for name in names
        }
    finally:
        con.close()

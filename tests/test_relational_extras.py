"""Focused tests for the round-5 relational additions: the Q3-shaped
large⋈large join, the exact distinct-count, the anti-join, and the
discrete-quantile operator — each checked against DuckDB on inputs chosen
to hit the seams the sf0.001 oracle sweep can miss (float-rank edges,
empty sides, bigger shard counts)."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF001 = "/root/testdata/sf0.001"
SF01 = "/root/testdata/sf0.01"


def _df(obj) -> pd.DataFrame:
    from ray.data import Dataset

    if isinstance(obj, Dataset):
        df = obj.to_pandas()
    elif isinstance(obj, pa.Table):
        df = obj.to_pandas()
    else:
        df = obj.copy()
    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


@pytest.mark.usefixtures("ray_session")
def test_q3_matches_duckdb_at_sf001():
    """sf0.01: enough rows that every shard has both sides and partial
    top-k boundaries are actually exercised (1180 join groups)."""
    from spider_ray.pipelines.relational import q3_shipping_priority

    got = _df(q3_shipping_priority(SF01))
    want = _df(
        duckdb.sql(
            f"""WITH c AS (SELECT c_custkey FROM '{SF01}/customer.parquet'
            WHERE c_mktsegment = 'BUILDING'),
            o AS (SELECT o_orderkey, o_orderdate FROM '{SF01}/orders.parquet'
            JOIN c ON o_custkey = c_custkey
            WHERE o_orderdate < TIMESTAMP '1998-01-01'),
            l AS (SELECT l_orderkey, CAST(round(l_extendedprice*100) AS BIGINT)
            *(100-CAST(round(l_discount*100) AS BIGINT)) AS r
            FROM '{SF01}/lineitem.parquet'
            WHERE l_shipdate > TIMESTAMP '1998-01-01')
            SELECT o.o_orderkey, CAST(sum(l.r) AS BIGINT) AS revenue_c4,
            o.o_orderdate
            FROM o JOIN l ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderkey, o.o_orderdate
            ORDER BY revenue_c4 DESC, o_orderkey LIMIT 10"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_q3_unknown_segment_is_empty():
    """Empty broadcast side (no matching customers) → empty result, not an
    error — exercises the all-miss orders filter and empty-shard merge."""
    from spider_ray.pipelines.relational import q3_shipping_priority

    ds = q3_shipping_priority(SF001, segment="NO_SUCH_SEGMENT")
    assert ds.count() == 0
    # Dataset-level schema survives the empty path (final_merge's early
    # return) — note ray's to_pandas() itself drops columns at 0 rows, so
    # the schema, not the pandas frame, is the API surface checked here.
    assert ds.schema().names == ["o_orderkey", "revenue_c4", "o_orderdate"]


@pytest.mark.usefixtures("ray_session")
def test_distinct_users_matches_duckdb_at_sf001(shard_shape):
    from spider_ray.pipelines.relational import distinct_users_per_type

    shard_shape(7)
    got = _df(distinct_users_per_type(SF01))
    want = _df(
        duckdb.sql(
            f"SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users "
            f"FROM '{SF01}/events.parquet' GROUP BY event_type"
        ).df()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_anti_join_all_and_none(tmp_path, shard_shape):
    """Two synthetic edges: a lineitem table matching NO orders (every order
    survives) and one matching ALL (empty result)."""
    from spider_ray.pipelines.relational import orders_without_lineitems

    okeys = np.arange(10, dtype=np.int64)
    pq.write_table(
        pa.table(
            {
                "o_orderkey": okeys,
                "o_orderpriority": [f"P{i}" for i in range(10)],
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    pq.write_table(
        pa.table({"l_orderkey": np.arange(100, 105, dtype=np.int64)}),
        str(tmp_path / "lineitem.parquet"),
    )
    shard_shape(3)
    out = orders_without_lineitems(str(tmp_path)).to_pandas()
    assert sorted(out["o_orderkey"]) == list(range(10))

    pq.write_table(
        pa.table({"l_orderkey": np.repeat(okeys, 3)}),
        str(tmp_path / "lineitem.parquet"),
    )
    out = orders_without_lineitems(str(tmp_path)).to_pandas()
    assert len(out) == 0


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n", [1, 2, 7, 10, 13, 997])
def test_quantile_rank_rule_matches_duckdb(tmp_path, n):
    """The float-rank edge: 0.9*10 rounds UP in float64 (rank 10) where
    DuckDB's quantile_disc returns rank 9 — the engine's exact-decimal
    Fraction rule must agree on tie-free values for every probed n."""
    from spider_ray.pipelines.relational import doc_length_quantiles

    rng = np.random.default_rng(n)
    vals = rng.permutation(np.arange(1, n + 1, dtype=np.int64))
    pq.write_table(pa.table({"n_chars": vals}), str(tmp_path / "documents.parquet"))
    qs = (0.3, 0.5, 0.7, 0.9, 0.99)
    got = doc_length_quantiles(str(tmp_path), qs=qs).to_pandas().iloc[0]
    sel = ", ".join(
        f"CAST(quantile_disc(n_chars, {q}) AS BIGINT) AS p{round(q*100)}" for q in qs
    )
    want = duckdb.sql(
        f"SELECT {sel} FROM '{tmp_path}/documents.parquet'"
    ).df().iloc[0]
    for q in qs:
        assert got[f"p{round(q*100)}"] == want[f"p{round(q*100)}"], (n, q)


@pytest.mark.usefixtures("ray_session")
def test_hll_matches_exact_at_sf001():
    """sf0.01 cardinality (150 users/type) sits in the linear-counting
    regime where the estimate is near-exact; pin the 5% contract anyway."""
    from spider_ray.pipelines.relational import distinct_users_hll

    approx = distinct_users_hll(SF01).to_pandas().set_index("event_type")
    exact = (
        duckdb.sql(
            f"SELECT event_type, count(DISTINCT user_id) AS n "
            f"FROM '{SF01}/events.parquet' GROUP BY event_type"
        )
        .df()
        .set_index("event_type")
    )
    assert set(approx.index) == set(exact.index)
    for et in exact.index:
        n, a = exact.loc[et, "n"], approx.loc[et, "n_users_approx"]
        assert abs(a - n) <= max(1, 0.05 * n), (et, a, n)


@pytest.mark.usefixtures("ray_session")
def test_hll_high_cardinality_regime(tmp_path):
    """Planted 120k/30k-distinct types — well past the linear-counting
    cutoff (2.5·2^12 = 10240), so this exercises the raw-HLL estimate and
    the alpha_m bias factor; deterministic hash → a fixed, repeatable
    estimate that must sit within 5% (>3σ at p=12)."""
    from spider_ray.pipelines.relational import distinct_users_hll

    rng = np.random.default_rng(7)
    big = rng.choice(10**9, size=120_000, replace=False).astype(np.int64)
    small = rng.choice(10**9, size=30_000, replace=False).astype(np.int64)
    uid = np.r_[big, big[:50_000], small]  # repeats must not inflate
    et = np.r_[
        np.full(len(big) + 50_000, "big", dtype=object),
        np.full(len(small), "small", dtype=object),
    ]
    pq.write_table(
        pa.table({"event_type": pa.array(et, pa.string()), "user_id": uid}),
        str(tmp_path / "events.parquet"),
    )
    out = (
        distinct_users_hll(str(tmp_path)).to_pandas().set_index("event_type")
    )
    for et_name, n in [("big", 120_000), ("small", 30_000)]:
        a = out.loc[et_name, "n_users_approx"]
        assert abs(a - n) <= 0.05 * n, (et_name, a, n)


@pytest.mark.usefixtures("ray_session")
def test_asof_matches_duckdb_at_sf01(shard_shape):
    from spider_ray.pipelines.relational import asof_prev_event

    shard_shape(5)
    got = _df(asof_prev_event(SF01))
    want = _df(
        duckdb.sql(
            f"""WITH l AS (SELECT event_id, user_id, ts
            FROM '{SF01}/events.parquet' WHERE event_type = 'click'),
            r AS (SELECT user_id, ts, max(CAST(round(value*100) AS BIGINT))
            AS prev_value_c FROM '{SF01}/events.parquet'
            WHERE event_type = 'view' GROUP BY user_id, ts)
            SELECT l.event_id, l.user_id, r.prev_value_c
            FROM l ASOF JOIN r ON l.user_id = r.user_id AND l.ts > r.ts"""
        ).df()
    )
    assert len(got) > 1000  # the probe side really matched
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_range_join_matches_duckdb_at_sf01(shard_shape):
    from spider_ray.pipelines.relational import events_range_join

    shard_shape(5)
    got = _df(events_range_join(SF01))
    want = _df(
        duckdb.sql(
            f"""WITH l AS (SELECT event_id, user_id, ts
            FROM '{SF01}/events.parquet' WHERE event_type = 'purchase'),
            r AS (SELECT user_id, ts FROM '{SF01}/events.parquet'
            WHERE event_type = 'view')
            SELECT l.event_id, l.user_id, CAST(count(r.ts) AS BIGINT)
            AS n_in_window
            FROM l LEFT JOIN r ON l.user_id = r.user_id
            AND r.ts >= l.ts - INTERVAL 60 MINUTE AND r.ts < l.ts
            GROUP BY l.event_id, l.user_id"""
        ).df()
    )
    assert (want["n_in_window"] > 0).any()  # the window really matched
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_asof_and_range_tie_edges(tmp_path, shard_shape):
    """Crafted edges the sf0.01 data can't guarantee: build rows TIED on
    (user, ts) with different values (the max-reduction rule), a probe
    EXACTLY at a build timestamp (strictness: must not match itself), a
    build row exactly at l.ts − W (window is closed at the left edge), and
    a user with probes but no build rows (as-of drops it, range counts 0)."""
    from spider_ray.pipelines.relational import asof_prev_event, events_range_join

    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(60_000_000, "us")  # one minute
    rows = [
        # user 1: two views tied at t0 (values 1.0, 9.0), click at t0
        # (strict → no match) and at t0+1m (→ max of the tie, 900)
        (1, 1, "view", t0, 1.0),
        (2, 1, "view", t0, 9.0),
        (3, 1, "click", t0, 0.0),
        (4, 1, "click", t0 + m, 0.0),
        # user 2: view exactly at purchase.ts − 60m (left-closed → counted)
        # and exactly at purchase.ts (right-open → not counted)
        (5, 2, "view", t0, 0.0),
        (6, 2, "purchase", t0 + 60 * m, 0.0),
        (7, 2, "view", t0 + 60 * m, 0.0),
        # user 3: probes with no build rows at all
        (8, 3, "click", t0, 0.0),
        (9, 3, "purchase", t0, 0.0),
        # user 1 purchase 61m after the tied views → outside the window
        (10, 1, "purchase", t0 + 61 * m, 0.0),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "event_type": pa.array([r[2] for r in rows], pa.string()),
                "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
                "value": pa.array([r[4] for r in rows], pa.float64()),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    shard_shape(3)
    asof = _df(asof_prev_event(str(tmp_path)))
    assert asof.to_dict("records") == [
        {"event_id": 4, "user_id": 1, "prev_value_c": 900}
    ]
    rj = _df(events_range_join(str(tmp_path)))
    want = pd.DataFrame(
        {"event_id": [6, 9, 10], "user_id": [2, 3, 1], "n_in_window": [1, 0, 0]}
    )
    pd.testing.assert_frame_equal(rj, _df(want), check_dtype=False)

    # probe type absent entirely → empty result, no error
    assert asof_prev_event(str(tmp_path), left_type="signup").count() == 0


@pytest.mark.usefixtures("ray_session")
def test_q3_semi_join_path_equals_broadcast(shard_shape):
    """broadcast_customer=False (the no-broadcast shuffle semi-join for a
    fact-sized customer table) must produce the identical top-k at sf0.01,
    including with a shard count that forces multi-row groups."""
    from spider_ray.pipelines.relational import q3_shipping_priority

    want = _df(q3_shipping_priority(SF01))
    shard_shape(5)
    got = _df(q3_shipping_priority(SF01, broadcast_customer=False))
    pd.testing.assert_frame_equal(got, want)

    # empty segment through the semi-join path: schema-typed empty result
    ds = q3_shipping_priority(
        SF001, segment="NO_SUCH_SEGMENT", broadcast_customer=False
    )
    assert ds.count() == 0
    assert ds.schema().names == ["o_orderkey", "revenue_c4", "o_orderdate"]


def test_running_total_tie_and_shard_edges(tmp_path, shard_shape):
    """Crafted window-function edges: ties on (user, ts) broken by event_id,
    negative values (running sum dips), a single-event user, and a shard
    count small enough that users share shards."""
    from spider_ray.pipelines.relational import user_running_total

    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    m = np.timedelta64(60_000_000, "us")
    rows = [
        # user 1: tied ts at t0 — event_id order decides (id 2 before id 5)
        (2, 1, "purchase", t0, 3.0),
        (5, 1, "purchase", t0, 4.0),
        (7, 1, "purchase", t0 + m, -10.0),
        # user 2: single event
        (3, 2, "purchase", t0, 2.5),
        # user 3: other type only → absent from output
        (4, 3, "view", t0, 9.0),
    ]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([r[0] for r in rows], pa.int64()),
                "user_id": pa.array([r[1] for r in rows], pa.int64()),
                "event_type": pa.array([r[2] for r in rows], pa.string()),
                "ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
                "value": pa.array([r[4] for r in rows], pa.float64()),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    shard_shape(2)
    got = _df(user_running_total(str(tmp_path)))
    want = pd.DataFrame(
        {
            "event_id": [2, 3, 5, 7],
            "running_c": [300, 250, 700, -300],
            "user_id": [1, 2, 1, 1],
        }
    )
    pd.testing.assert_frame_equal(got, _df(want), check_dtype=False)


def test_props_extract_drops_nonmatching_rows(tmp_path):
    """The match gate: rows whose props don't contain an integer k (junk,
    float k, empty, absent key) drop from every aggregate on BOTH sides —
    pinned against DuckDB on the same fixture."""
    from spider_ray.pipelines.relational import props_extract_stats

    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    props = ['{"k": 7}', '{"k":  30}', "junk", '{"k": 1.5}', "", '{"j": 4}']
    types = ["a", "a", "a", "b", "b", "b"]
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(range(6), pa.int64()),
                "user_id": pa.array([1] * 6, pa.int64()),
                "event_type": pa.array(types, pa.string()),
                "ts": pa.array([t0] * 6, pa.timestamp("us")),
                "value": pa.array([0.0] * 6, pa.float64()),
                "props": pa.array(props, pa.string()),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    got = _df(props_extract_stats(str(tmp_path)))
    # '{"k": 1.5}' matches the \d+ group as k=1 (RE2 stops at the dot) —
    # identical on both sides; truly non-matching rows vanish
    want = duckdb.sql(
        f"""SELECT event_type,
        CAST(sum(CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k,
        CAST(max(CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT)) AS BIGINT) AS max_k,
        count(*) AS n
        FROM '{tmp_path}/events.parquet'
        WHERE regexp_matches(props, '"k":\\s*(\\d+)') GROUP BY event_type"""
    ).df()
    pd.testing.assert_frame_equal(got, _df(want), check_dtype=False)
    assert got["n"].sum() == 3  # junk, empty and {"j":4} dropped


def test_grouped_quantiles_rank_edge(tmp_path):
    """The float-rank edge per GROUP: n=10 and q=0.9 must pick 1-based rank
    9 (exact-decimal ceil), not rank 10 as float64 0.9*10 would — checked
    against DuckDB quantile_disc group-by on a two-source fixture with
    deliberately different distributions."""
    from spider_ray.pipelines.relational import length_quantiles_by_source

    lengths = list(range(1, 11)) + [100, 200, 300]
    sources = ["a"] * 10 + ["b"] * 3
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(lengths)), pa.int64()),
                "source": pa.array(sources, pa.string()),
                "n_chars": pa.array(lengths, pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = _df(length_quantiles_by_source(str(tmp_path)))
    want = duckdb.sql(
        f"""SELECT source, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50,
        CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90
        FROM '{tmp_path}/documents.parquet' GROUP BY source ORDER BY source"""
    ).df()
    pd.testing.assert_frame_equal(got, _df(want), check_dtype=False)
    # the rank rule, spelled out: source a has n=10 → p90 = rank 9 = value 9
    assert got.loc[got["source"] == "a", "p90"].item() == 9


def test_token_doc_frequency_edges(tmp_path):
    """Tokenization + DF contract: runs of spaces yield empty tokens that
    BOTH sides drop; a token repeated inside one doc counts that doc ONCE;
    the (df DESC, token ASC) tie-break is deterministic."""
    from spider_ray.pipelines.textops import token_doc_frequency

    texts = [
        "apple  banana apple",  # double space → empty token dropped
        "banana cherry",
        "apple",
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(3), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = token_doc_frequency(str(tmp_path), k=10).to_pandas()
    want = pd.DataFrame(
        {"token": ["apple", "banana", "cherry"], "df": [2, 2, 1]}
    )
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want, check_dtype=False
    )


def test_dup_ngram_stats_planted(tmp_path):
    """Planted repetition: a doc that is one phrase repeated (high dup_pct),
    a doc with all-unique shingles (0), and a doc shorter than n (0 total,
    0 dup) — the engine must match DuckDB's list-based computation."""
    from spider_ray.pipelines.textops import dup_ngram_stats

    texts = [
        "spam spam spam spam spam spam",  # 4 shingles, 1 distinct → 75
        "a b c d e f",  # 4 shingles, all distinct → 0
        "x y",  # shorter than n=3 → 0 total
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(3), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = _df(dup_ngram_stats(str(tmp_path)))
    want = duckdb.sql(
        f"""SELECT doc_id, CAST(len(sh_all) AS BIGINT) AS n_shingles_total,
        CAST(len(list_distinct(sh_all)) AS BIGINT) AS n_shingles_distinct,
        CAST(CASE WHEN len(sh_all) = 0 THEN 0 ELSE
        ((len(sh_all) - len(list_distinct(sh_all))) * 100) // len(sh_all)
        END AS BIGINT) AS dup_pct FROM (
        SELECT doc_id, list_transform(range(1, len(words)-1),
        i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]) AS sh_all
        FROM (SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS words
        FROM '{tmp_path}/documents.parquet'))"""
    ).df()
    pd.testing.assert_frame_equal(got, _df(want), check_dtype=False)
    assert got.sort_values("doc_id")["dup_pct"].tolist() == [75, 0, 0]


def test_length_filtered_docs_band_membership(tmp_path):
    """The composed quantile gate on a crafted two-source skew: each source
    filters on its OWN band (a global band would keep source-b outliers),
    and the closed-interval edges keep docs exactly AT p10/p90."""
    from spider_ray.pipelines.textops import length_filtered_docs

    lengths = list(range(1, 11)) + [1000, 2000, 3000, 4000, 5000]
    sources = ["a"] * 10 + ["b"] * 5
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(lengths)), pa.int64()),
                "source": pa.array(sources, pa.string()),
                "n_chars": pa.array(lengths, pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = _df(length_filtered_docs(str(tmp_path)))
    want = duckdb.sql(
        f"""WITH q AS (SELECT source,
        CAST(quantile_disc(n_chars, 0.1) AS BIGINT) AS lo,
        CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS hi
        FROM '{tmp_path}/documents.parquet' GROUP BY source)
        SELECT d.doc_id, d.source, d.n_chars
        FROM '{tmp_path}/documents.parquet' d JOIN q ON d.source = q.source
        WHERE d.n_chars >= q.lo AND d.n_chars <= q.hi"""
    ).df()
    pd.testing.assert_frame_equal(got, _df(want), check_dtype=False)
    # per-source bands: source a keeps 1..9 (p10=1, p90=9), source b keeps
    # 1000..5000 (p10=1000, p90=5000) — lengths that would die under a
    # global band survive under their own source's
    kept_b = got.loc[got["source"] == "b", "n_chars"].tolist()
    assert kept_b == [1000, 2000, 3000, 4000, 5000]


def _write_events(tmp_path, event_id, ts, user_id, event_type, value=None):
    n = len(event_id)
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(np.asarray(event_id, np.int64)),
                "ts": pa.array(pd.to_datetime(ts)).cast(pa.timestamp("us")),
                "user_id": pa.array(np.asarray(user_id, np.int64)),
                "event_type": pa.array(list(event_type), pa.string()),
                "value": pa.array(
                    np.asarray(value if value is not None else np.zeros(n)),
                    pa.float64(),
                ),
            }
        ),
        str(tmp_path / "events.parquet"),
    )


@pytest.mark.usefixtures("ray_session")
def test_user_event_gaps_ties_and_singletons(tmp_path, shard_shape):
    """Tied timestamps yield a 0 gap (not a dropped pair), single-event
    users drop entirely, and the per-user reduceat aggregates match the
    lag-window SQL on the same table."""
    from spider_ray.pipelines.relational import user_event_gaps

    _write_events(
        tmp_path,
        event_id=[1, 2, 3, 4, 5, 6],
        ts=[
            "2024-01-01 10:00:00",  # u1
            "2024-01-01 10:00:00",  # u1 tie → gap 0
            "2024-01-01 10:00:05",  # u1 → gap 5s
            "2024-01-01 09:00:00",  # u2 single event → drops
            "2024-01-01 08:00:00",  # u3
            "2024-01-01 08:00:01",  # u3 → gap 1s
        ],
        user_id=[1, 1, 1, 2, 3, 3],
        event_type=["a"] * 6,
    )
    shard_shape(3)
    got = _df(user_event_gaps(str(tmp_path)))
    want = duckdb.sql(
        f"""SELECT user_id, CAST(count(*) AS BIGINT) AS n_gaps,
        CAST(sum(g) AS BIGINT) AS sum_gap_us, CAST(max(g) AS BIGINT) AS max_gap_us
        FROM (SELECT user_id, epoch_us(ts) - lag(epoch_us(ts))
        OVER (PARTITION BY user_id ORDER BY ts, event_id) AS g
        FROM '{tmp_path}/events.parquet')
        WHERE g IS NOT NULL GROUP BY user_id"""
    ).df()
    pd.testing.assert_frame_equal(got, _df(want), check_dtype=False)
    byu = got.set_index("user_id")
    assert 2 not in byu.index
    assert byu.loc[1, "n_gaps"] == 2 and byu.loc[1, "max_gap_us"] == 5_000_000
    assert byu.loc[3, "sum_gap_us"] == 1_000_000


@pytest.mark.usefixtures("ray_session")
def test_event_type_transitions_tie_break(tmp_path, shard_shape):
    """Tied timestamps order by event_id on BOTH engines — the pair content
    (unlike the gap multiset) depends on the tie-break, so this pins it."""
    from spider_ray.pipelines.relational import event_type_transitions

    _write_events(
        tmp_path,
        event_id=[10, 2, 5, 7, 8],
        # u1: tie at 10:00 → order by event_id: (2,B) then (10,A); then C
        ts=["2024-01-01 10:00:00"] * 2 + ["2024-01-01 11:00:00"] * 1
        + ["2024-01-02 09:00:00", "2024-01-02 09:30:00"],
        user_id=[1, 1, 1, 2, 2],
        event_type=["A", "B", "C", "A", "A"],
    )
    shard_shape(3)
    got = _df(event_type_transitions(str(tmp_path)))
    want = duckdb.sql(
        f"""SELECT prev_type, event_type, count(*) AS n FROM (
        SELECT event_type, lag(event_type)
        OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
        FROM '{tmp_path}/events.parquet')
        WHERE prev_type IS NOT NULL GROUP BY prev_type, event_type"""
    ).df()
    pd.testing.assert_frame_equal(got, _df(want), check_dtype=False)
    pairs = set(map(tuple, got[["event_type", "n", "prev_type"]].to_numpy()))
    # u1 contributes B→A and A→C (event_id tie-break!), u2 contributes A→A
    assert pairs == {("A", 1, "B"), ("C", 1, "A"), ("A", 1, "A")}


@pytest.mark.usefixtures("ray_session")
def test_order_lineitem_counts_zero_fill(tmp_path, shard_shape):
    """LEFT OUTER semantics: every order appears exactly once; orders with
    no lineitems carry 0/0, matched orders carry exact count + cents sum."""
    from spider_ray.pipelines.relational import order_lineitem_counts

    pq.write_table(
        pa.table({"o_orderkey": pa.array(np.arange(6, dtype=np.int64))}),
        str(tmp_path / "orders.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array(
                    np.array([0, 0, 0, 2, 2, 4], dtype=np.int64)
                ),
                "l_quantity": pa.array([1.5, 2.0, 0.25, 10.0, 0.1, 7.0]),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    shard_shape(4)
    got = _df(order_lineitem_counts(str(tmp_path)))
    want = duckdb.sql(
        f"""SELECT o_orderkey, CAST(coalesce(l.n, 0) AS BIGINT) AS n_items,
        CAST(coalesce(l.s, 0) AS BIGINT) AS sum_qty_c
        FROM '{tmp_path}/orders.parquet' LEFT JOIN (
        SELECT l_orderkey, count(*) AS n,
        sum(CAST(round(l_quantity*100) AS BIGINT)) AS s
        FROM '{tmp_path}/lineitem.parquet' GROUP BY l_orderkey) l
        ON o_orderkey = l.l_orderkey"""
    ).df()
    pd.testing.assert_frame_equal(got, _df(want), check_dtype=False)
    byk = got.set_index("o_orderkey")
    assert len(got) == 6
    assert byk.loc[0, "n_items"] == 3 and byk.loc[0, "sum_qty_c"] == 375
    assert byk.loc[1, "n_items"] == 0 and byk.loc[1, "sum_qty_c"] == 0
    assert byk.loc[2, "sum_qty_c"] == 1010


@pytest.mark.usefixtures("ray_session")
def test_events_type_pivot_zero_and_unknown(tmp_path):
    """A user with only one type gets explicit zeros in the other columns;
    a type OUTSIDE the closed vocabulary counts toward no column but still
    yields the user's row (all zeros) — on both engines."""
    from spider_ray.pipelines.relational import events_type_pivot

    _write_events(
        tmp_path,
        event_id=[1, 2, 3, 4],
        ts=["2024-01-01 10:00:00"] * 4,
        user_id=[1, 1, 2, 3],
        event_type=["click", "click", "view", "weird"],
    )
    got = _df(events_type_pivot(str(tmp_path))).set_index("user_id")
    assert got.loc[1, "n_click"] == 2 and got.loc[1, "n_view"] == 0
    assert got.loc[2, "n_view"] == 1 and got.loc[2, "n_click"] == 0
    assert 3 in got.index and got.loc[3].sum() == 0


@pytest.mark.usefixtures("ray_session")
def test_top_tokens_tie_break_and_empties(tmp_path):
    """Double spaces produce empty tokens that drop on both engines; the
    top-k tie-break is (n DESC, token ASC); k truncates."""
    from spider_ray.pipelines.textops import top_tokens

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1], pa.int64()),
                "text": pa.array(
                    ["b a  b c", "a c  d"], pa.string()
                ),  # a:2 b:2 c:2 d:1 (+4 empty tokens dropped)
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = top_tokens(str(tmp_path), k=3).to_pandas()
    assert got["token"].tolist() == ["a", "b", "c"]
    assert got["n"].tolist() == [2, 2, 2]


@pytest.mark.usefixtures("ray_session")
def test_tfidf_top_terms_paths_equal_and_edges(tmp_path):
    """Dual-path pin + contract edges: the broadcast-vocab path and the
    token-hash/doc-hash shuffle path (gate forced to 0) return identical
    tables; score ties break token-ASC; a doc with fewer than k distinct
    tokens emits fewer rows; empty/whitespace-only docs emit none; and the
    result matches the DuckDB window oracle on the same input."""
    from spider_ray.pipelines.registry import ORACLE_SQL
    from spider_ray.pipelines.textops import tfidf_top_terms

    texts = [
        "apple apple banana zebra",  # tf tie apple(2) > banana=zebra(1): token ASC
        "banana banana banana",  # 1 distinct token < k → 1 row
        "",  # no tokens → no rows
        "   ",  # whitespace only → no rows
        "zebra apple",  # rare-vs-common ranking: zebra (df 2) beats apple (df 3)? no — tf equal, df decides
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    broad = _df(tfidf_top_terms(str(tmp_path), k=3))
    shuf = _df(tfidf_top_terms(str(tmp_path), k=3, broadcast_vocab_limit=0))
    pd.testing.assert_frame_equal(broad, shuf)

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = _df(con.execute(ORACLE_SQL["tfidf_top_terms"]).fetch_df())
    pd.testing.assert_frame_equal(
        broad, want.astype(broad.dtypes.to_dict())
    )
    # doc 2 and 3 absent; doc 1 has exactly one row
    assert set(broad["doc_id"]) == {0, 1, 4}
    assert (broad["doc_id"] == 1).sum() == 1


@pytest.mark.usefixtures("ray_session")
def test_clean_documents_each_gate_fires(tmp_path):
    """One planted doc per rejection reason: too few tokens, too few
    stopwords, too repetitive, wrong language — and one doc passing all
    four gates. The engine must agree with the composed SQL oracle AND
    keep exactly the passing doc."""
    from spider_ray.pipelines.registry import ORACLE_SQL
    from spider_ray.pipelines.textops import clean_documents

    prose = (
        "the cat and the dog walked to the park and the river "
        "is a fine place to sit and watch the world go by today"
    )
    texts = [
        prose,  # passes everything
        "the and of",  # < 10 tokens
        "alpha beta gamma delta epsilon zeta eta theta iota kappa",  # 0 stopwords
        ("the and " * 40).strip(),  # stopword-rich but dup_pct ~97
        "der hund und die katze ist das beste der der und und ist",  # German
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "source": pa.array([f"s{i}" for i in range(len(texts))]),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = _df(clean_documents(str(tmp_path)))
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = _df(con.execute(ORACLE_SQL["clean_documents"]).fetch_df())
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))
    assert got["doc_id"].tolist() == [0]


@pytest.mark.usefixtures("ray_session")
def test_source_lang_rollup_levels(tmp_path):
    """Planted rollup: the three grouping levels are all present, the
    coarser cells equal sums of finest cells, and the table matches the
    GROUPING SETS oracle."""
    from spider_ray.pipelines.registry import ORACLE_SQL
    from spider_ray.pipelines.relational import source_lang_rollup

    rows = [
        ("web", "en", 10),
        ("web", "en", 20),
        ("web", "de", 5),
        ("books", "en", 100),
    ]
    pq.write_table(
        pa.table(
            {
                "source": pa.array([r[0] for r in rows]),
                "lang": pa.array([r[1] for r in rows]),
                "n_chars": pa.array([r[2] for r in rows], pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = _df(source_lang_rollup(str(tmp_path)))
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    want = _df(con.execute(ORACLE_SQL["source_lang_rollup"]).fetch_df())
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()))
    g = got.set_index(["source", "lang"])
    assert g.loc[("web", "ALL"), "n_docs"] == 3
    assert g.loc[("web", "ALL"), "total_chars"] == 35
    assert g.loc[("ALL", "ALL"), "n_docs"] == 4
    assert g.loc[("ALL", "ALL"), "total_chars"] == 135
    assert len(got) == 3 + 2 + 1  # finest + per-source + grand total


@pytest.mark.usefixtures("ray_session")
def test_latest_event_tie_break(tmp_path, shard_shape):
    """Two events on the same (user, ts) resolve to the larger event_id —
    the documented argmax tie-break — and the whole output matches the
    row_number SQL on the same synthetic table."""
    from spider_ray.pipelines.relational import latest_event_per_user

    _write_events(
        tmp_path,
        event_id=[7, 3, 11, 2, 5],
        ts=[
            "2024-01-01 10:00:00",
            "2024-01-01 10:00:00",  # same user+ts as event 7: 11 loses? no — id 3 < 7
            "2024-01-02 09:00:00",
            "2024-01-01 08:00:00",
            "2024-01-02 09:00:00",  # user 2 tie at 09:00 → event 11 wins (11 > 5)
        ],
        user_id=[1, 1, 2, 2, 2],
        event_type=["a", "b", "c", "d", "e"],
    )
    shard_shape(3)
    got = _df(latest_event_per_user(str(tmp_path)))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = _df(
        con.execute(
            "SELECT user_id, ts, event_id, event_type FROM ("
            "SELECT user_id, ts, event_id, event_type, row_number() OVER ("
            "PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn "
            "FROM events) WHERE rn = 1"
        ).fetch_df()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    by_user = got.set_index("user_id")
    assert int(by_user.loc[1, "event_id"]) == 7
    assert int(by_user.loc[2, "event_id"]) == 11


@pytest.mark.usefixtures("ray_session")
def test_bloom_semi_join_exact_under_heavy_false_positives():
    """Exactness must NOT depend on the bloom: a 64-bit single-hash bloom
    (near-100% false-positive rate at this key count) produces the same
    answer as the default 4M-bit bloom — every survivor is re-verified in
    the shard semi-join."""
    from spider_ray.pipelines.relational import high_value_lineitem_stats

    tiny = _df(high_value_lineitem_stats(SF001, bloom_bits=64, n_hashes=1))
    full = _df(high_value_lineitem_stats(SF001))
    pd.testing.assert_frame_equal(tiny, full)
    assert len(full) >= 1 and (full["n_items"] > 0).all()


@pytest.mark.usefixtures("ray_session")
def test_q5_empty_date_window_and_odd_shards(shard_shape):
    """A zero-width order-date window yields an empty (schema-stable)
    result; an odd shard count changes nothing (partition invariance)."""
    from spider_ray.pipelines.relational import q5_revenue_by_nation

    empty = _df(
        q5_revenue_by_nation(SF001, date_lo="1997-01-01", date_hi="1997-01-01")
    )
    assert len(empty) == 0
    # (an all-empty Dataset surfaces as a zero-column frame through
    # to_pandas — ray's empty-block schema erasure; row count is the claim)
    shard_shape(3)
    a = _df(q5_revenue_by_nation(SF001))
    shard_shape(16)
    b = _df(q5_revenue_by_nation(SF001))
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.usefixtures("ray_session")
def test_doc_length_histogram_bin_edges(tmp_path):
    """n_chars exactly on a bin boundary lands in the HIGHER bin (floor
    division contract): 49→bin 0, 50→bin 1, 100→bin 2."""
    from spider_ray.pipelines.relational import doc_length_histogram

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "n_chars": pa.array([0, 49, 50, 100], pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = _df(doc_length_histogram(str(tmp_path), bin_width=50))
    want = pd.DataFrame(
        {"bin": [0, 1, 2], "n_docs": [2, 1, 1], "total_chars": [49, 50, 100]}
    )
    pd.testing.assert_frame_equal(got, _df(want), check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_repeat_buyers_requires_both_types(tmp_path):
    """Only users with ≥1 click AND ≥1 purchase survive; click-only,
    purchase-only and other-type users are excluded."""
    from spider_ray.pipelines.relational import repeat_buyers

    _write_events(
        tmp_path,
        event_id=[1, 2, 3, 4, 5, 6],
        ts=["2024-01-01"] * 6,
        user_id=[10, 10, 20, 30, 40, 40],
        event_type=["click", "purchase", "click", "purchase", "view", "view"],
    )
    got = _df(repeat_buyers(str(tmp_path)))
    assert got["user_id"].tolist() == [10]


@pytest.mark.usefixtures("ray_session")
def test_funnel_strictness_and_order(tmp_path, shard_shape):
    """Same-ts steps do NOT chain (strict >); steps out of order do not
    count; a chain spanning the user's whole history does."""
    from spider_ray.pipelines.relational import signup_click_purchase_funnel

    _write_events(
        tmp_path,
        event_id=list(range(1, 11)),
        ts=[
            # user 1: signup, click SAME ts (no), purchase later → no chain
            "2024-01-01 10:00:00", "2024-01-01 10:00:00", "2024-01-01 11:00:00",
            # user 2: purchase, click, signup (reverse order) → no chain
            "2024-01-01 08:00:00", "2024-01-01 09:00:00", "2024-01-01 10:00:00",
            # user 3: signup < click < purchase with noise between → chain
            "2024-01-01 08:00:00", "2024-01-01 09:00:00", "2024-01-01 09:30:00",
            "2024-01-01 10:00:00",
        ],
        user_id=[1, 1, 1, 2, 2, 2, 3, 3, 3, 3],
        event_type=[
            "signup", "click", "purchase",
            "purchase", "click", "signup",
            "signup", "click", "view", "purchase",
        ],
    )
    shard_shape(3)
    got = _df(signup_click_purchase_funnel(str(tmp_path)))
    assert got["user_id"].tolist() == [3]


@pytest.mark.usefixtures("ray_session")
def test_cube_has_all_four_levels(tmp_path):
    """CUBE emits (source,lang), (source,ALL), (ALL,lang), (ALL,ALL) and
    the grand total equals the sum of the finest level."""
    from spider_ray.pipelines.relational import source_lang_cube

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "source": pa.array(["a", "a", "b"], pa.string()),
                "lang": pa.array(["en", "de", "en"], pa.string()),
                "n_chars": pa.array([10, 20, 40], pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = _df(source_lang_cube(str(tmp_path)))
    levels = set(zip(got["source"], got["lang"]))
    assert {("a", "en"), ("a", "de"), ("b", "en")} <= levels
    assert {("a", "ALL"), ("b", "ALL"), ("ALL", "en"), ("ALL", "de")} <= levels
    total = got[(got["source"] == "ALL") & (got["lang"] == "ALL")]
    assert total["n_docs"].iloc[0] == 3 and total["total_chars"].iloc[0] == 70


@pytest.mark.usefixtures("ray_session")
def test_heavy_hitters_planted_and_vs_exact(tmp_path):
    """Planted heavy hitters are recovered in order with estimates ≥ true
    counts (CMS one-sided error) and ≤ true + collision slack; on the real
    sf0.001 corpus the CMS top-20 overlaps the exact top-20 strongly."""
    from spider_ray.pipelines.textops import heavy_hitter_tokens, top_tokens

    rng = np.random.default_rng(11)
    docs = []
    for i in range(40):
        words = (
            ["alpha"] * 25 + ["beta"] * 20 + ["gamma"] * 15
            + [f"noise{rng.integers(0, 5000)}" for _ in range(30)]
        )
        rng.shuffle(words)
        docs.append(" ".join(words))
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(np.arange(40, dtype=np.int64)),
                "text": pa.array(docs, pa.string()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = _df(heavy_hitter_tokens(str(tmp_path), k=3))
    top = got.sort_values("est_n", ascending=False)
    assert top["token"].tolist() == ["alpha", "beta", "gamma"]
    true = {"alpha": 1000, "beta": 800, "gamma": 600}
    for t, n in zip(top["token"], top["est_n"]):
        assert true[t] <= n <= true[t] + 200, (t, n)

    approx = set(_df(heavy_hitter_tokens(SF001, k=20))["token"])
    exact = set(_df(top_tokens(SF001, k=20))["token"])
    assert len(approx & exact) >= 16, approx ^ exact


@pytest.mark.usefixtures("ray_session")
def test_moving_sum_bounded_frame(tmp_path, shard_shape):
    """ROWS BETWEEN 2 PRECEDING AND CURRENT ROW: short groups clamp at the
    group start (never read a previous user's rows), tied timestamps order
    by event_id, and non-matching event types are filtered before the
    window — all vs the DuckDB window oracle on the same table."""
    from spider_ray.pipelines.relational import user_value_moving_sum

    _write_events(
        tmp_path,
        event_id=[1, 2, 3, 4, 5, 6, 7],
        ts=[
            "2024-01-01 10:00:00",  # u1 p
            "2024-01-01 10:00:00",  # u1 p (tie → by event_id)
            "2024-01-01 10:00:02",  # u1 p
            "2024-01-01 10:00:03",  # u1 p (frame drops event 1)
            "2024-01-01 09:00:00",  # u2 p single → window = itself
            "2024-01-01 09:30:00",  # u2 CLICK → filtered out
            "2024-01-01 11:00:00",  # u3 p
        ],
        user_id=[1, 1, 1, 1, 2, 2, 3],
        event_type=["purchase"] * 5 + ["click", "purchase"],
        value=[1.0, 2.0, 4.0, 8.0, 5.0, 99.0, 7.0],
    )
    shard_shape(3)
    got = _df(user_value_moving_sum(str(tmp_path)))
    want = _df(
        duckdb.sql(
            f"""SELECT event_id, user_id,
            CAST(sum(CAST(round(value*100) AS BIGINT)) OVER (
            PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS moving_c
            FROM '{tmp_path}/events.parquet' WHERE event_type = 'purchase'"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    by_eid = got.set_index("event_id")["moving_c"]
    assert by_eid.loc[4] == 1400  # 2+4+8, event 1 rolled out
    assert by_eid.loc[5] == 500  # singleton window
    assert 6 not in by_eid.index  # click filtered


@pytest.mark.usefixtures("ray_session")
def test_clickers_without_purchase_day_grain_and_empty_schema(tmp_path):
    """(user, day) EXCEPT semantics vs DuckDB, and — the regression that
    motivated drop_empty_blocks here — an all-covered corpus returns an
    EMPTY result that still carries the (user_id, day) schema."""
    from spider_ray.pipelines.relational import clickers_without_purchase

    _write_events(
        tmp_path,
        event_id=[1, 2, 3, 4, 5],
        ts=[
            "2024-01-01 10:00:00",  # u1 click day1
            "2024-01-01 23:00:00",  # u1 purchase day1 → covered
            "2024-01-02 10:00:00",  # u1 click day2, no purchase → survives
            "2024-01-01 09:00:00",  # u2 click day1, no purchase → survives
            "2024-01-03 09:00:00",  # u3 purchase only → never emits
        ],
        user_id=[1, 1, 1, 2, 3],
        event_type=["click", "purchase", "click", "click", "purchase"],
    )
    got = _df(clickers_without_purchase(str(tmp_path)))
    want = _df(
        duckdb.sql(
            f"""SELECT user_id, date_trunc('day', ts)::TIMESTAMP AS day
            FROM '{tmp_path}/events.parquet' WHERE event_type = 'click'
            EXCEPT SELECT user_id, date_trunc('day', ts)::TIMESTAMP
            FROM '{tmp_path}/events.parquet' WHERE event_type = 'purchase'"""
        ).df()
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert len(got) == 2

    # all clicks covered by same-day purchases → empty WITH schema
    _write_events(
        tmp_path,
        event_id=[1, 2],
        ts=["2024-01-01 10:00:00", "2024-01-01 11:00:00"],
        user_id=[1, 1],
        event_type=["click", "purchase"],
    )
    empty = clickers_without_purchase(str(tmp_path))
    assert empty.count() == 0
    # Ray's to_pandas drops columns on a zero-row dataset (the documented
    # drop_empty_blocks contract asserts the SCHEMA instead)
    assert [f.name for f in empty.schema().base_schema] == ["user_id", "day"]


@pytest.mark.usefixtures("ray_session")
def test_q17_predicate_and_empty_brand(tmp_path):
    """The integer predicate (5·qty_c·n < sum_qty_c ⇔ qty < 0.2·avg) is
    STRICT and exact at the boundary; a brand with no parts returns the
    (0, 0) row rather than an empty or null table."""
    from spider_ray.pipelines.relational import q17_small_qty_revenue

    pq.write_table(
        pa.table(
            {
                "p_partkey": pa.array([1, 2], pa.int64()),
                "p_brand": pa.array(["B1", "B2"], pa.string()),
            }
        ),
        str(tmp_path / "part.parquet"),
    )
    # part 1: quantities 1, 4, 5, 10 → avg 5, 0.2·avg = 1 → STRICTLY
    # below 1 is nothing... use 0.5: qty_c=50, 5·50·4=1000 < sum_qty_c=2000
    pq.write_table(
        pa.table(
            {
                "l_partkey": pa.array([1, 1, 1, 1, 2], pa.int64()),
                "l_quantity": pa.array([0.5, 4.5, 5.0, 10.0, 1.0], pa.float64()),
                "l_extendedprice": pa.array([10.0, 20.0, 30.0, 40.0, 5.0], pa.float64()),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    got = q17_small_qty_revenue(str(tmp_path), brand="B1").to_pandas()
    want = duckdb.sql(
        f"""WITH agg AS (SELECT l_partkey, CAST(count(*) AS BIGINT) AS n,
        CAST(sum(CAST(round(l_quantity*100) AS BIGINT)) AS BIGINT) AS sq
        FROM '{tmp_path}/lineitem.parquet' JOIN '{tmp_path}/part.parquet'
        ON l_partkey = p_partkey WHERE p_brand = 'B1' GROUP BY l_partkey)
        SELECT CAST(coalesce(sum(CAST(round(l_extendedprice*100) AS BIGINT)), 0)
        AS BIGINT) AS total_base_c, CAST(count(*) AS BIGINT) AS n_items
        FROM '{tmp_path}/lineitem.parquet' l JOIN agg ON l.l_partkey = agg.l_partkey
        WHERE 5 * CAST(round(l_quantity*100) AS BIGINT) * agg.n < agg.sq"""
    ).df()
    pd.testing.assert_frame_equal(_df(got), _df(want), check_dtype=False)
    assert got["n_items"].iloc[0] == 1 and got["total_base_c"].iloc[0] == 1000

    none = q17_small_qty_revenue(str(tmp_path), brand="NOPE").to_pandas()
    assert none["total_base_c"].iloc[0] == 0 and none["n_items"].iloc[0] == 0


@pytest.mark.usefixtures("ray_session")
def test_q18_having_strictness(tmp_path):
    """HAVING is strictly greater-than: an order summing exactly to the
    threshold is excluded; customer names attach to the survivors."""
    from spider_ray.pipelines.relational import q18_large_orders

    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([10, 10, 20, 30], pa.int64()),
                "l_quantity": pa.array([150.0, 150.0, 300.5, 10.0], pa.float64()),
            }
        ),
        str(tmp_path / "lineitem.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([10, 20, 30], pa.int64()),
                "o_custkey": pa.array([7, 8, 7], pa.int64()),
                "o_totalprice": pa.array([100.0, 200.0, 300.0], pa.float64()),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([7, 8], pa.int64()),
                "c_name": pa.array(["Customer#7", "Customer#8"], pa.string()),
            }
        ),
        str(tmp_path / "customer.parquet"),
    )
    got = _df(q18_large_orders(str(tmp_path), min_qty=300))
    # order 10 sums to exactly 300.00 → excluded; order 20 = 300.5 → kept
    assert got["o_orderkey"].tolist() == [20]
    assert got["c_name"].tolist() == ["Customer#8"]
    assert got["sum_qty_c"].tolist() == [30050]


@pytest.mark.usefixtures("ray_session")
def test_top_bigrams_adjacency_and_ties(tmp_path, shard_shape):
    """Bigrams never cross documents, empty-token pairs drop (double
    space breaks adjacency), the tie-break is (n DESC, w1, w2), and the
    sharded path (several shards) equals the DuckDB list_zip oracle."""
    from spider_ray.pipelines.textops import top_bigrams

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    ["a b a b", "b a  b c", "c a"], pa.string()
                ),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    shard_shape(5)
    got = top_bigrams(str(tmp_path), k=10).to_pandas()
    want = duckdb.sql(
        f"""WITH p AS (SELECT unnest(list_zip(ws, ws[2:])) AS z
        FROM (SELECT string_split(text, ' ') AS ws
        FROM '{tmp_path}/documents.parquet'))
        SELECT z[1] AS w1, z[2] AS w2, CAST(count(*) AS BIGINT) AS n FROM p
        WHERE z[1] <> '' AND z[2] <> '' AND z[2] IS NOT NULL
        GROUP BY z[1], z[2] ORDER BY n DESC, w1, w2 LIMIT 10"""
    ).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # 'a b' appears twice in doc0 only; doc1's double space breaks 'a b'
    assert got.iloc[0][["w1", "w2"]].tolist() == ["a", "b"]
    assert got.iloc[0]["n"] == 2


@pytest.mark.usefixtures("ray_session")
def test_full_outer_balance_zero_fill(tmp_path):
    """Nations with only customers or only suppliers survive with a zero
    on the other side — the full-outer contract."""
    from spider_ray.pipelines.relational import nation_customer_supplier_balance

    pq.write_table(
        pa.table(
            {
                "n_nationkey": pa.array([0, 1, 2], pa.int32()),
                "n_name": pa.array(["BOTH", "CUSTONLY", "SUPPONLY"], pa.string()),
            }
        ),
        str(tmp_path / "nation.parquet"),
    )
    pq.write_table(
        pa.table({"c_nationkey": pa.array([0, 0, 1], pa.int32())}),
        str(tmp_path / "customer.parquet"),
    )
    pq.write_table(
        pa.table({"s_nationkey": pa.array([0, 2, 2, 2], pa.int32())}),
        str(tmp_path / "supplier.parquet"),
    )
    got = (
        nation_customer_supplier_balance(str(tmp_path))
        .to_pandas()
        .set_index("n_name")
        .sort_index()
    )
    assert got.loc["BOTH"].tolist() == [2, 1]
    assert got.loc["CUSTONLY"].tolist() == [1, 0]
    assert got.loc["SUPPONLY"].tolist() == [0, 3]


@pytest.mark.usefixtures("ray_session")
def test_hourly_active_users_dedup(tmp_path):
    """A user active 3× in one hour counts once; hour boundaries split."""
    from spider_ray.pipelines.relational import hourly_active_users

    _write_events(
        tmp_path,
        event_id=[1, 2, 3, 4, 5],
        ts=[
            "2024-01-01 10:00:00",
            "2024-01-01 10:20:00",
            "2024-01-01 10:59:59",  # same user, same hour ×3 → 1
            "2024-01-01 11:00:00",  # next hour → counts again
            "2024-01-01 10:30:00",  # second user same hour
        ],
        user_id=[1, 1, 1, 1, 2],
        event_type=["a"] * 5,
    )
    got = _df(hourly_active_users(str(tmp_path)))
    assert got["n_users"].tolist() == [2, 1]


@pytest.mark.usefixtures("ray_session")
def test_split_and_stratified_sample_partition(tmp_path):
    """split_documents partitions the corpus exactly (Σ n_docs == total,
    Σ total_chars == corpus chars) and stratified rates bound each
    stratum's sample: rate 0 keeps nothing, rate 100 keeps everything."""
    from spider_ray.pipelines.textops import (
        split_documents,
        stratified_sample_documents,
    )

    texts = [f"doc number {i} with some words" for i in range(200)]
    langs = ["en" if i % 2 == 0 else "de" for i in range(200)]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(200), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    sp = split_documents(str(tmp_path)).to_pandas()
    assert sp["n_docs"].sum() == 200
    assert sp["total_chars"].sum() == sum(len(t) for t in texts)
    assert set(sp["split"]) <= {"train", "val", "test"}

    none_en = stratified_sample_documents(
        str(tmp_path), rates={"en": 0}, default_rate=100
    ).to_pandas()
    assert (none_en["lang"] == "de").all() and len(none_en) == 100
    all_docs = stratified_sample_documents(
        str(tmp_path), rates={}, default_rate=100
    ).to_pandas()
    assert len(all_docs) == 200


@pytest.mark.usefixtures("ray_session")
def test_invindex_pruned_lookup(tmp_path):
    """The lookup opens ONLY the query tokens' bucket dirs (path-level
    pruning), postings match a direct recount, an absent token contributes
    no rows, and a token outside the probed buckets is invisible even if
    its text matched — the partition contract."""
    from spider_ray.pipelines.textops import (
        _token_bucket,
        invindex_bucket_paths,
        invindex_ingest,
        invindex_lookup,
    )

    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    ["alpha beta alpha", "beta gamma", "alpha  gamma gamma"],
                    pa.string(),
                ),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    idx = str(tmp_path / "idx")
    invindex_ingest(str(tmp_path), idx, n_buckets=8)

    got = (
        invindex_lookup(idx, ["alpha", "gamma", "nope"], n_buckets=8)
        .to_pandas()
        .sort_values(["token", "doc_id"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        f"""SELECT token, doc_id, CAST(count(*) AS BIGINT) AS tf FROM (
        SELECT doc_id, unnest(string_split(text, ' ')) AS token
        FROM '{tmp_path}/documents.parquet')
        WHERE token IN ('alpha', 'gamma', 'nope')
        GROUP BY token, doc_id ORDER BY token, doc_id"""
    ).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # pruning: the probed path set excludes every bucket none of the query
    # tokens hash to — a token in an unprobed bucket never leaves storage
    probed = set(invindex_bucket_paths(idx, ["alpha", "gamma", "nope"], 8))
    all_paths = set(invindex_bucket_paths(idx, ["alpha", "beta", "gamma", "nope"], 8))
    qb = set(_token_bucket(np.array(["alpha", "gamma", "nope"], dtype=object), 8))
    bb = _token_bucket(np.array(["beta"], dtype=object), 8)[0]
    if bb not in qb:  # no collision → beta's bucket must not be probed
        assert probed < all_paths
        beta_only = invindex_lookup(idx, ["alpha"], n_buckets=8).to_pandas()
        assert "beta" not in set(beta_only["token"])


@pytest.mark.usefixtures("ray_session")
def test_length_queries_on_empty_documents(tmp_path):
    """sf0.001's documents filtered to zero rows: both length queries give
    an empty answer with its columns instead of a KeyError (Ray's zero-row
    ``to_pandas`` drops the columns of the histogram they collect)."""
    from spider_ray.pipelines.relational import (
        doc_length_ranks,
        length_quantiles_by_source,
    )

    docs = pq.read_table(f"{SF001}/documents.parquet")
    empty = docs.filter(pa.compute.less(docs["n_chars"], 0))
    pq.write_table(empty, str(tmp_path / "documents.parquet"))
    ranks = doc_length_ranks(str(tmp_path))
    assert ranks.count() == 0
    quant = length_quantiles_by_source(str(tmp_path))
    assert quant.num_rows == 0 and quant.column_names == ["source", "p50", "p90"]


@pytest.mark.usefixtures("ray_session")
def test_mode_lang_two_level_merge_keeps_losing_partials(tmp_path, monkeypatch):
    """mode_lang_per_source above final_merge's row threshold: a lang that
    loses one block's partial count but wins the total must still win
    (the argmax may only see COMPLETE counts)."""
    import spider_ray.blockutil as B
    from spider_ray.pipelines.relational import mode_lang_per_source

    # 8 part files = 8 blocks: lang 'a' has 2 docs of source s in every
    # block (16 in all), lang 'b' has 15 in block 0 only; source t is a
    # plain single-block majority
    d = tmp_path / "documents.parquet"
    d.mkdir()
    for i in range(8):
        langs = ["a", "a"] + (["b"] * 15 if i == 0 else [])
        src = ["s"] * len(langs) + ["t"] * 3
        langs += ["c", "c", "d"]
        pq.write_table(
            pa.table({"source": pa.array(src), "lang": pa.array(langs)}),
            d / f"part-{i}.parquet",
        )
    orig = B.final_merge
    monkeypatch.setattr(
        B, "final_merge", lambda *a, **k: orig(*a, **{**k, "threshold_rows": 1})
    )
    got = _df(mode_lang_per_source(str(tmp_path)))
    rows = sorted(zip(got["source"], got["lang"], got["n_docs"]))
    assert rows == [("s", "a", 16), ("t", "c", 16)]

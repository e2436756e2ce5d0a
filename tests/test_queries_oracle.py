"""Local simulation of the driver's correctness gate: run every registry
query through Ray Data AND its DuckDB oracle SQL over the same parquet
tables, then compare row count, column names, and values (column-name-sorted,
row-sorted — order-insensitive, like the driver's value-hash)."""

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _normalize(obj) -> pd.DataFrame:
    import pyarrow as pa
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


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


def _oracle_names():
    from spider_ray.pipelines.registry import ORACLE_SQL

    return sorted(ORACLE_SQL)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_oracle(name, con):
    _check_against_oracle(name, con)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_oracle_shuffled(name, con, shard_shape):
    """The same check with every shard exchange forced onto its
    multi-shard branch at an odd shard count."""
    shard_shape(7)
    _check_against_oracle(name, con)


def _check_against_oracle(name, con):
    from spider_ray.pipelines.registry import ORACLE_SQL, QUERIES

    ray_df = _normalize(QUERIES[name](SF_DIR))
    sql_df = _normalize(con.execute(ORACLE_SQL[name]).fetch_df())
    assert list(ray_df.columns) == list(sql_df.columns), (
        f"{name}: columns {list(ray_df.columns)} vs {list(sql_df.columns)}"
    )
    assert len(ray_df) == len(sql_df), f"{name}: {len(ray_df)} vs {len(sql_df)} rows"
    for col in ray_df.columns:
        a, b = ray_df[col], sql_df[col]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            pd.testing.assert_series_equal(
                a.astype(float), b.astype(float), check_names=False
            )
        else:
            assert a.astype(str).tolist() == b.astype(str).tolist(), f"{name}.{col}"


@pytest.mark.usefixtures("ray_session")
def test_rows_only_queries_run():
    from spider_ray.pipelines.registry import ORACLE_SQL, QUERIES

    rows_only = [n for n in QUERIES if n not in ORACLE_SQL and n != "crawl_bfs"]
    for name in rows_only:
        out = _normalize(QUERIES[name](SF_DIR))
        assert len(out) >= 0 and len(out.columns) >= 1, name


def test_bench_suite_names_are_registry_queries():
    """Every bench.py QUERY_BENCH entry must be a registered query (a
    rename in one place must fail loudly, not skip silently in bench)."""
    import importlib.util
    import os

    from spider_ray.pipelines.registry import QUERIES

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench", os.path.join(root, "bench.py")
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    unknown = [n for n in bench.QUERY_BENCH if n not in QUERIES]
    assert unknown == []


@pytest.mark.usefixtures("ray_session")
def test_events_hourly_ns_unit_input(tmp_path):
    """A ns-unit events parquet must yield the same hours as a µs-unit one:
    trunc pins the floored hour to timestamp[us] before the int64 shuffle
    round-trip (ADVICE r3 — the unit used to follow the input column)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from spider_ray.pipelines.relational import events_hourly

    ts = pd.to_datetime(
        ["2024-01-01 10:15:00", "2024-01-01 10:45:00", "2024-01-01 11:05:00"]
    )
    for unit, sub in (("us", "us_dir"), ("ns", "ns_dir")):
        d = tmp_path / sub
        d.mkdir()
        tbl = pa.table(
            {
                "event_type": pa.array(["a", "a", "a"]),
                "ts": pa.array(ts).cast(pa.timestamp(unit)),
            }
        )
        pq.write_table(tbl, d / "events.parquet")
    us = events_hourly(str(tmp_path / "us_dir")).to_pandas()
    ns = events_hourly(str(tmp_path / "ns_dir")).to_pandas()
    key = ["event_type", "hour"]
    assert us.sort_values(key).reset_index(drop=True).equals(
        ns.sort_values(key).reset_index(drop=True)
    )
    assert sorted(us["hour"].astype(str)) == [
        "2024-01-01 10:00:00",
        "2024-01-01 11:00:00",
    ]

"""politeness_split unit tests — including the hot-host shape: ONE host
owning the whole frontier (100 % skew), split across many blocks, must
yield the same selection at any partition count, and the driver,
broadcast-dict and join threshold paths must agree.

Every check runs under both shapes: the plain test on the driver path
(``driver_rows`` at least the frontier size), its ``_distributed`` sibling
with ``driver_rows=0``, and its ``_shuffled`` sibling on the distributed
path with the shard exchanges forced onto 7 shards."""

import numpy as np
import pandas as pd
import pytest

# a driver_rows bound above every frontier here: the driver path
DRIVER = 1 << 30


def _frontier(n_rows: int, hosts: list[str], n_blocks: int):
    import ray

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "url": [f"https://x/{i}" for i in range(n_rows)],
            "host": [hosts[i % len(hosts)] for i in range(n_rows)],
            "depth": np.zeros(n_rows, dtype=np.int32),
            # unique, shuffled ranks — selection must be by rank, not order
            "rank": rng.permutation(n_rows).astype(np.int64),
        }
    )
    # materialized, as the crawl's frontier always is below its bound
    return ray.data.from_pandas(df).repartition(n_blocks).materialize(), df


def _expected(df: pd.DataFrame, budget, overrides=None):
    overrides = overrides or {}
    keep = []
    for h, g in df.groupby("host"):
        b = overrides.get(h, budget)
        if b is None:
            keep += list(g["url"])
        else:
            keep += list(g.sort_values("rank").head(b)["url"])
    return set(keep)


def _check_single_hot_host(n_blocks, driver_rows):
    from spider_ray.stages.politeness import politeness_split

    ds, df = _frontier(500, ["hot.example"], n_blocks)
    now, deferred = politeness_split(ds, per_host_budget=16, driver_rows=driver_rows)
    got = set(now.to_pandas()["url"])
    assert got == _expected(df, 16)
    assert deferred.count() == 500 - 16


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_blocks", [1, 7])
def test_single_hot_host_full_skew(n_blocks):
    _check_single_hot_host(n_blocks, DRIVER)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_blocks", [1, 7])
def test_single_hot_host_full_skew_distributed(n_blocks, distributed_splits):
    _check_single_hot_host(n_blocks, 0)
    assert distributed_splits == [1]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_blocks", [1, 7])
def test_single_hot_host_full_skew_shuffled(n_blocks, shard_shape):
    # one host over 7 shards: six of them get no candidate rows
    shard_shape(7)
    _check_single_hot_host(n_blocks, 0)


def _check_overrides_and_unthrottled_hosts(driver_rows):
    from spider_ray.stages.politeness import politeness_split

    ds, df = _frontier(300, ["a", "b", "c"], 5)
    # global budget None → only override hosts throttled
    now, deferred = politeness_split(
        ds, None, host_budgets={"b": 5}, driver_rows=driver_rows
    )
    got = set(now.to_pandas()["url"])
    assert got == _expected(df, None, {"b": 5})
    # global + override
    now2, _ = politeness_split(ds, 10, host_budgets={"c": 3}, driver_rows=driver_rows)
    assert set(now2.to_pandas()["url"]) == _expected(df, 10, {"c": 3})


@pytest.mark.usefixtures("ray_session")
def test_overrides_and_unthrottled_hosts():
    _check_overrides_and_unthrottled_hosts(DRIVER)


@pytest.mark.usefixtures("ray_session")
def test_overrides_and_unthrottled_hosts_distributed(distributed_splits):
    _check_overrides_and_unthrottled_hosts(0)
    assert distributed_splits == [1, 1]


@pytest.mark.usefixtures("ray_session")
def test_overrides_and_unthrottled_hosts_shuffled(shard_shape):
    shard_shape(7)
    _check_overrides_and_unthrottled_hosts(0)


def _check_broadcast_and_join_paths_agree(monkeypatch, driver_rows):
    """The driver path (or, with ``driver_rows=0``, the broadcast path)
    against the ``shard_join`` path, which must actually run."""
    import spider_ray.stages.politeness as P

    joins = []
    join = P.shard_join

    def counted_join(*args, **kwargs):
        joins.append(1)
        return join(*args, **kwargs)

    monkeypatch.setattr(P, "shard_join", counted_join)
    ds, df = _frontier(400, ["a", "b", "c", "d"], 6)
    bc_now, bc_def = P.politeness_split(ds, 12, driver_rows=driver_rows)
    assert joins == []
    monkeypatch.setattr(P, "_BROADCAST_LIMIT", 0)  # force the join path
    j_now, j_def = P.politeness_split(ds, 12, driver_rows=0)
    assert joins == [1]
    assert set(bc_now.to_pandas()["url"]) == set(j_now.to_pandas()["url"])
    assert set(bc_def.to_pandas()["url"]) == set(j_def.to_pandas()["url"])
    assert set(bc_now.to_pandas()["url"]) == _expected(df, 12)


@pytest.mark.usefixtures("ray_session")
def test_broadcast_and_join_paths_agree(monkeypatch):
    _check_broadcast_and_join_paths_agree(monkeypatch, DRIVER)


@pytest.mark.usefixtures("ray_session")
def test_broadcast_and_join_paths_agree_distributed(monkeypatch):
    _check_broadcast_and_join_paths_agree(monkeypatch, 0)


@pytest.mark.usefixtures("ray_session")
def test_broadcast_and_join_paths_agree_shuffled(monkeypatch, shard_shape):
    shard_shape(7)
    _check_broadcast_and_join_paths_agree(monkeypatch, 0)


def _check_zero_budget_defers_everything(driver_rows):
    # b == 0 means "skip this host this round": every row defers (the old
    # threshold math indexed ranks[-1] and silently FETCHED everything)
    from spider_ray.stages.politeness import politeness_split

    ds, df = _frontier(120, ["a", "b"], 4)
    now, deferred = politeness_split(
        ds, None, host_budgets={"b": 0}, driver_rows=driver_rows
    )
    got = now.to_pandas()
    assert set(got["host"]) == {"a"}
    assert len(got) == 60
    assert deferred.count() == 60
    # global zero budget → the whole frontier defers
    now2, def2 = politeness_split(ds, 0, driver_rows=driver_rows)
    assert now2.count() == 0
    assert def2.count() == 120


@pytest.mark.usefixtures("ray_session")
def test_zero_budget_defers_everything():
    _check_zero_budget_defers_everything(DRIVER)


@pytest.mark.usefixtures("ray_session")
def test_zero_budget_defers_everything_distributed(distributed_splits):
    _check_zero_budget_defers_everything(0)
    assert distributed_splits == [1, 1]


@pytest.mark.usefixtures("ray_session")
def test_zero_budget_defers_everything_shuffled(shard_shape):
    shard_shape(7)
    _check_zero_budget_defers_everything(0)


def _check_metadata_free_schemas(driver_rows):
    """Regression: the flag stages once returned raw pandas batches, so
    Ray attached the b'pandas' schema blob on Arrow conversion —
    hash(pa.Schema) raises on the embedded dict and every downstream
    coalesce (frontier union, fetch fusion, store sort) fell back to the
    slow unify path with a 'Failed to hash the schemas' warning."""
    from spider_ray.stages.politeness import politeness_split

    # from_pandas blocks carry the b'pandas' blob the split must drop
    ds, _ = _frontier(200, ["a.example", "b.example", "c.example"], 4)
    fetch_now, deferred = politeness_split(ds, 5, driver_rows=driver_rows)
    for part in (fetch_now, deferred):
        for batch in part.iter_batches(batch_format="pyarrow", batch_size=None):
            assert batch.schema.metadata in (None, {})
            hash(batch.schema)  # raises on any metadata blob


@pytest.mark.usefixtures("ray_session")
def test_flagged_blocks_carry_hashable_metadata_free_schemas():
    _check_metadata_free_schemas(DRIVER)


@pytest.mark.usefixtures("ray_session")
def test_flagged_blocks_carry_hashable_metadata_free_schemas_distributed(
    distributed_splits,
):
    _check_metadata_free_schemas(0)
    assert distributed_splits == [1]


def _check_no_throttled_host(driver_rows):
    """Override budgets for hosts absent from the frontier: everything
    fetches now and the split returns deferred=None without running the
    flag/filter executions."""
    import ray as _ray

    from spider_ray.stages.politeness import politeness_split

    pending = _ray.data.from_pandas(
        pd.DataFrame(
            {
                "url": ["https://a.example/1", "https://b.example/2"],
                "host": ["a.example", "b.example"],
                "depth": [1, 1],
                "rank": [0, 1],
            }
        )
    )
    fetch_now, deferred = politeness_split(
        pending, None, {"absent.example": 2}, driver_rows=driver_rows
    )
    assert deferred is None
    assert fetch_now is pending
    assert fetch_now.count() == 2


@pytest.mark.usefixtures("ray_session")
def test_no_throttled_host_in_frontier_early_returns():
    _check_no_throttled_host(DRIVER)


@pytest.mark.usefixtures("ray_session")
def test_no_throttled_host_in_frontier_early_returns_distributed(distributed_splits):
    _check_no_throttled_host(0)
    assert distributed_splits == [1]


@pytest.mark.usefixtures("ray_session")
def test_driver_split_starts_no_execution(monkeypatch):
    """A budgeted split of a small materialized frontier starts no Ray Data
    execution, and its parts count from block metadata — on a frontier
    built from driver-side slices, as the crawl builds it, and on one that
    went through ``materialize()``. One row over the bound, the distributed
    path runs (so the counter does see executions)."""
    import pyarrow as pa
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from spider_ray.blockutil import presplit
    from spider_ray.stages.politeness import politeness_split

    materialized, df = _frontier(300, ["a", "b", "c"], 5)
    sliced = presplit(pa.Table.from_pandas(df, preserve_index=False), 5)
    executions = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    for ds in (sliced, materialized):
        now, deferred = politeness_split(
            ds, 10, host_budgets={"c": 2}, driver_rows=300, fetch_blocks=lambda n: 4
        )
        assert (now.count(), deferred.count(), now.num_blocks()) == (22, 278, 4)
        assert executions == []
        assert set(now.to_pandas()["url"]) == _expected(df, 10, {"c": 2})
        executions.clear()

    now, deferred = politeness_split(sliced, 10, host_budgets={"c": 2}, driver_rows=299)
    assert now.count() == 22
    assert executions


def test_robots_keep_mask_equals_oracle_randomized():
    """robots_keep_mask is the vectorized batch form of the oracle rule —
    pin elementwise equality on randomized rules × adversarial url shapes
    (the fast path AND every fallback class: no scheme, userinfo, port,
    IPv6, control whitespace, empty path, query/fragment, case)."""
    import random

    import numpy as np
    import pyarrow as pa

    from spider_ray.oracle import robots_allows
    from spider_ray.robots import robots_keep_mask

    rng = random.Random(1234)
    hosts = [f"h{i}.example" for i in range(6)] + ["odd.example"]
    prefix_pool = ["", "/", "/p", "/p1", "/docs/a", "/q?"]

    fixed_urls = [
        "https://h0.example/p1",            # canonical fast path
        "https://H0.EXAMPLE/p1",            # upper-case host
        "https://h1.example",               # empty path → "/"
        "https://h1.example/",              # explicit root
        "https://h2.example/p1?x=1",        # query excluded from path
        "https://h2.example/p1#frag",       # fragment excluded from path
        "https://user@h3.example/p1",       # userinfo → fallback
        "https://h3.example:8080/p1",       # port → fallback
        "https://[::1]/p1",                 # IPv6 → fallback
        "h4.example/p1",                    # no scheme → fallback
        "ftp://h4.example/p1",              # non-http scheme, still parsed
        "https://h5.example/\tp1",          # control char → fallback
        " https://h5.example/p1",           # leading space → fallback
        "https://odd.example/p1x",          # prefix boundary
        "",                                 # empty string
    ]

    for trial in range(20):
        rules = {
            h: rng.sample(prefix_pool, rng.randint(1, 3))
            for h in rng.sample(hosts, rng.randint(0, len(hosts)))
        }
        urls = list(fixed_urls)
        for _ in range(60):
            h = rng.choice(hosts)
            p = rng.choice(["/p1", "/p12", "/docs/a/b", "/x", "", "/p?q=1"])
            urls.append(f"https://{h}{p}")
        rng.shuffle(urls)
        want = np.array([robots_allows(u, rules) for u in urls])
        got = robots_keep_mask(pa.array(urls, pa.string()), rules)
        assert (got == want).all(), (
            trial,
            rules,
            [u for u, g, w in zip(urls, got, want) if g != w],
        )
        # chunked input path (map_batches hands ChunkedArrays)
        ca = pa.chunked_array([urls[: len(urls) // 2], urls[len(urls) // 2 :]])
        assert (robots_keep_mask(ca, rules) == want).all()

    # no-rules identity
    assert robots_keep_mask(pa.array(fixed_urls), {}).all()
    assert robots_keep_mask(pa.array(fixed_urls), None).all()

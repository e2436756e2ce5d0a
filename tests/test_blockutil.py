"""blockutil: drop_empty_blocks, final_merge, the shard exchange
(shard_exchange / shard_join / attach_payload) and the guard that keeps
hand-rolled exchanges out of the engine."""

import pyarrow as pa
import pytest


@pytest.mark.usefixtures("ray_session")
def test_drop_empty_blocks_removes_empties_keeps_rows():
    import ray

    from spider_ray.blockutil import drop_empty_blocks

    t = pa.table({"a": pa.array([1, 2, 3], pa.int64())})
    empty = pa.table({"a": pa.array([], pa.int64())})
    ds = ray.data.from_arrow([empty, t, empty])
    out = drop_empty_blocks(ds)
    assert out.count() == 3
    for bundle in out.materialize().iter_internal_ref_bundles():
        for meta in bundle.metadata:
            assert meta.num_rows > 0


@pytest.mark.usefixtures("ray_session")
def test_drop_empty_blocks_all_empty_keeps_schema():
    import ray

    from spider_ray.blockutil import drop_empty_blocks

    schema = pa.schema([("a", pa.int64()), ("b", pa.string())])
    ds = ray.data.from_arrow(schema.empty_table())
    out = drop_empty_blocks(ds, schema)
    assert out.count() == 0
    assert [f for f in out.schema().base_schema] == list(schema)


@pytest.mark.usefixtures("ray_session")
def test_attach_payload_inner_join_semantics(shard_shape):
    """attach_payload == inner equi-join: matched keys gain the payload,
    unmatched pair rows drop, payload-only keys never surface."""
    import pandas as pd
    import ray

    from spider_ray.blockutil import attach_payload

    pairs = ray.data.from_pandas(
        pd.DataFrame({"a": [1, 2, 9, 3], "b": [10, 20, 90, 30]})
    ).repartition(3)
    payload = ray.data.from_pandas(
        pd.DataFrame({"pk": [1, 2, 3, 4], "pv": [b"x1", b"x2", b"x3", b"x4"]})
    ).repartition(2)
    shard_shape(4)
    out = attach_payload(
        pairs,
        payload,
        pairs_key="a",
        payload_key="pk",
        payload_col="pv",
        out_col="v",
    ).to_pandas()
    got = {(r.a, r.b, bytes(r.v)) for r in out.itertuples()}
    # key 9 has no payload (dropped); key 4's payload has no pair (dropped)
    assert got == {(1, 10, b"x1"), (2, 20, b"x2"), (3, 30, b"x3")}


@pytest.mark.usefixtures("ray_session")
def test_attach_payload_dedup_on_is_global(shard_shape):
    """dedup_on containing pairs_key dedups GLOBALLY: every copy of a pair
    hashes to the same shard regardless of which input block it came from."""
    import pandas as pd
    import ray

    from spider_ray.blockutil import attach_payload

    # the same (a, b) pair repeated across 4 separate input blocks
    dup = pd.DataFrame({"a": [7], "b": [70]})
    pairs = ray.data.from_pandas([dup, dup, dup, dup])
    payload = ray.data.from_pandas(pd.DataFrame({"pk": [7], "pv": [b"p"]}))
    shard_shape(3)
    out = attach_payload(
        pairs,
        payload,
        pairs_key="a",
        payload_key="pk",
        payload_col="pv",
        out_col="v",
        dedup_on=["a", "b"],
    ).to_pandas()
    assert len(out) == 1


@pytest.mark.usefixtures("ray_session")
def test_aggregate_then_join_with_empty_partitions():
    """The original failure shape: multi-block input → hash aggregate
    (emits zero-column blocks for empty partitions) → join."""
    import ray
    from ray.data.aggregate import Count

    from spider_ray.blockutil import drop_empty_blocks

    base = pa.table(
        {"k": pa.array([1, 2, 1], pa.int64()), "v": pa.array([2, 3, 2], pa.int64())}
    )
    right = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3], pa.int64()), "p": pa.array([b"x", b"y", b"z"])})
    )
    agg = (
        ray.data.from_arrow(base)
        .repartition(3)
        .groupby(["k", "v"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    cleaned = drop_empty_blocks(agg, pa.schema([("k", pa.int64()), ("v", pa.int64())]))
    j = cleaned.join(right, join_type="inner", num_partitions=4, on=("k",))
    assert len(j.to_pandas()) == 2

def test_unique_pairs_width_guard():
    """Packed-uint64 fast path below 2^32; lexsort fallback above — ids at
    the 10^10-row tier must not silently collide packed keys (ADVICE r3)."""
    import numpy as np

    from spider_ray.blockutil import unique_pairs

    lo = np.array([1, 1, 2, 1], dtype=np.int64)
    hi = np.array([5, 5, 9, 3], dtype=np.int64)
    a, b = unique_pairs(lo, hi)
    assert list(a) == [1, 1, 2] and list(b) == [3, 5, 9]

    big = np.int64(1) << 40
    lo2 = np.array([big, big, 2, big], dtype=np.int64)
    hi2 = np.array([big + 1, big + 1, big + 5, big + 1], dtype=np.int64)
    a2, b2 = unique_pairs(lo2, hi2)
    assert list(a2) == [2, big] and list(b2) == [big + 5, big + 1]

    e1, e2 = unique_pairs(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert len(e1) == 0 and len(e2) == 0


@pytest.mark.usefixtures("ray_session")
def test_final_merge_two_level_path_matches_single_level():
    """final_merge must produce identical output whether partial rows are
    under the threshold (single merge task) or over it (one intermediate
    repartition(cpus) level first), with empty blocks dropped either way."""
    import pandas as pd
    import ray

    from spider_ray.blockutil import final_merge, unique_pairs

    def dedup(b: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        a, bb = unique_pairs(
            b["doc_a"].to_numpy(np.int64), b["doc_b"].to_numpy(np.int64)
        )
        return pd.DataFrame({"doc_a": a, "doc_b": bb})

    parts = [
        pd.DataFrame({"doc_a": [1, 2, 1], "doc_b": [4, 5, 4]}),
        pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64"),
        pd.DataFrame({"doc_a": [2, 3], "doc_b": [5, 6]}),
    ]
    schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])
    want = [(1, 4), (2, 5), (3, 6)]
    for threshold in (2_000_000, 1):  # single-level, then forced two-level
        ds = ray.data.from_pandas(parts)
        out = final_merge(ds, dedup, schema, threshold_rows=threshold).to_pandas()
        got = sorted(zip(out["doc_a"], out["doc_b"]))
        assert got == want, (threshold, got)


def test_read_clean_parquet_empty_dir_raises(tmp_path):
    from spider_ray.blockutil import read_clean_parquet

    d = tmp_path / "empty"
    d.mkdir()
    with pytest.raises(FileNotFoundError):
        read_clean_parquet(str(d))


@pytest.mark.usefixtures("ray_session")
def test_read_clean_parquet_drifted_parts_fall_back(tmp_path):
    """Part files with drifted schemas (string vs large_string) must read
    via the unify fallback instead of mis-casting under the first file's
    pinned schema (ADVICE r3)."""
    import pyarrow.parquet as pq

    from spider_ray.blockutil import read_clean_parquet

    d = tmp_path / "store"
    d.mkdir()
    pq.write_table(pa.table({"u": pa.array(["a", "b"], pa.string())}), d / "p1.parquet")
    pq.write_table(
        pa.table({"u": pa.array(["c"], pa.large_string())}), d / "p2.parquet"
    )
    out = read_clean_parquet(str(d))
    assert sorted(out.to_pandas()["u"]) == ["a", "b", "c"]


@pytest.mark.usefixtures("ray_session")
def test_read_clean_parquet_mid_list_drift_caught(tmp_path):
    """A drifted part at a NON-endpoint index (≤ the probe-all bound every
    footer is checked) must also take the unify fallback."""
    import pyarrow.parquet as pq

    from spider_ray.blockutil import read_clean_parquet

    d = tmp_path / "store"
    d.mkdir()
    for i, typ in enumerate(
        [pa.string(), pa.large_string(), pa.string(), pa.string(), pa.string()]
    ):
        pq.write_table(
            pa.table({"u": pa.array([f"v{i}"], typ)}), d / f"p{i}.parquet"
        )
    out = read_clean_parquet(str(d))
    assert sorted(out.to_pandas()["u"]) == [f"v{i}" for i in range(5)]


@pytest.mark.usefixtures("ray_session")
def test_final_merge_all_empty_preserves_schema():
    """Zero surviving rows: final_merge must return the pinned empty schema
    UNTOUCHED — Ray prunes an empty dataset's block through any downstream
    op (repartition / map_batches both yield a zero-column dataset), so the
    empty path may not run the merge fn at all."""
    import pandas as pd
    import ray

    from spider_ray.blockutil import final_merge

    parts = [pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64")] * 3
    schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.timestamp("us"))])
    out = final_merge(ray.data.from_pandas(parts), lambda b: b, schema)
    assert out.count() == 0
    assert out.schema().names == ["doc_a", "doc_b"]
    assert out.schema().types == [pa.int64(), pa.timestamp("us")]


@pytest.mark.usefixtures("ray_session")
def test_merge_keyed_sums_null_keys_mixed_aggs_and_two_level():
    """merge_keyed_sums must (a) keep a NULL key as a real group (pandas
    groupby would silently drop it without dropna=False — the
    orders_by_segment unmatched-order path), (b) honor per-column
    'sum'/'max' aggs, and (c) give identical output when the two-level
    threshold path forces a double application (the idempotence contract)."""
    import pandas as pd
    import ray

    from spider_ray.blockutil import merge_keyed_sums

    parts = [
        pd.DataFrame({"k": ["a", None, "b"], "n": [1, 2, 3], "m": [5, 7, 1]}),
        pd.DataFrame({"k": [None, "a"], "n": [10, 20], "m": [2, 9]}),
    ]
    schema = pa.schema([("k", pa.string()), ("n", pa.int64()), ("m", pa.int64())])
    want = {"a": (21, 9), None: (12, 7), "b": (3, 1)}
    for threshold in (2_000_000, 1):  # single-level, then forced two-level
        out = merge_keyed_sums(
            ray.data.from_pandas(parts),
            keys=["k"],
            aggs={"n": "sum", "m": "max"},
            empty_schema=schema,
            threshold_rows=threshold,
        ).to_pandas()
        got = {
            (None if pd.isna(r.k) else r.k): (int(r.n), int(r.m))
            for r in out.itertuples()
        }
        assert got == want, (threshold, got)


@pytest.mark.usefixtures("ray_session")
def test_merge_keyed_sums_empty_input_preserves_schema():
    import pandas as pd
    import ray

    from spider_ray.blockutil import merge_keyed_sums

    parts = [pd.DataFrame({"k": pd.Series([], dtype=object), "n": pd.Series([], dtype="int64")})]
    schema = pa.schema([("k", pa.string()), ("n", pa.int64())])
    out = merge_keyed_sums(
        ray.data.from_pandas(parts), keys=["k"], sums=["n"], empty_schema=schema
    )
    assert out.count() == 0
    assert out.schema().names == ["k", "n"]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("shape", ["one_task", "shuffled"])
def test_shard_exchange_zero_one_and_many_keys(shape, shard_shape):
    """Every call of fn holds whole key groups (each key comes out once),
    fn never sees the shard column, and zero rows give out_schema."""
    import pandas as pd
    import ray

    from spider_ray.blockutil import shard_exchange

    if shape == "shuffled":
        shard_shape(7)
    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])

    def key_sums(g: pd.DataFrame) -> pd.DataFrame:
        assert list(g.columns) == ["k", "v"]
        return g.groupby("k", as_index=False)["v"].sum()

    def run(frames):
        out = shard_exchange(ray.data.from_pandas(frames), "k", key_sums, schema)
        return out, sorted(map(tuple, out.to_pandas().itertuples(index=False)))

    empty = pd.DataFrame({"k": pd.Series([], dtype="int64"), "v": pd.Series([], dtype="int64")})
    out, rows = run([empty])
    assert rows == [] and out.schema().names == ["k", "v"]

    assert run([pd.DataFrame({"k": [5], "v": [3]})])[1] == [(5, 3)]

    frames = [
        pd.DataFrame({"k": [(b * 40 + i) % 23 for i in range(40)], "v": [1] * 40})
        for b in range(5)
    ]
    want = pd.concat(frames).groupby("k")["v"].sum()
    assert run(frames)[1] == sorted(zip(want.index, want.to_numpy()))


@pytest.mark.usefixtures("ray_session")
def test_shard_exchange_blocks_keep_their_columns(shard_shape):
    """Seven shards for two keys: the sort exchange leaves partitions with
    no rows, and none of them may reach the result as a zero-column block
    — nor may a kernel that keeps no rows at all."""
    import pandas as pd
    import ray
    from ray.data.block import BlockAccessor

    from spider_ray.blockutil import shard_exchange

    shard_shape(7)
    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    ds = ray.data.from_pandas([pd.DataFrame({"k": [1, 2] * 20, "v": range(40)})] * 3)

    def block_columns(out):
        return [
            BlockAccessor.for_block(ray.get(ref)).to_arrow().schema.names
            for bundle in out.materialize().iter_internal_ref_bundles()
            for ref in bundle.block_refs
        ]

    kept = shard_exchange(ds, "k", lambda g: g.groupby("k", as_index=False)["v"].sum(), schema)
    assert sorted(map(tuple, kept.to_pandas().itertuples(index=False))) == [
        (1, 3 * sum(range(0, 40, 2))),
        (2, 3 * sum(range(1, 40, 2))),
    ]
    assert block_columns(kept) and all(c == ["k", "v"] for c in block_columns(kept))
    none = shard_exchange(ds, "k", lambda g: g.iloc[:0], schema)
    assert none.count() == 0
    assert all(c == ["k", "v"] for c in block_columns(none))


@pytest.mark.usefixtures("ray_session")
def test_shard_exchange_splits_wide_rows_by_bytes(monkeypatch):
    """A few rows far under the row bound still go to several shards when
    their bytes exceed _BYTES_PER_SHARD — and give the same answer."""
    import uuid

    import pandas as pd
    import ray

    import spider_ray.blockutil as B

    schema = pa.schema([("k", pa.int64()), ("n", pa.int64()), ("call", pa.string())])

    def per_call(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("k", as_index=False).size().rename(columns={"size": "n"})
        return out.assign(call=uuid.uuid4().hex)

    ds = ray.data.from_pandas(
        [
            pd.DataFrame({"k": range(b * 16, b * 16 + 16), "blob": [b"x" * 1024] * 16})
            for b in range(4)
        ]
    )

    def run():
        got = B.shard_exchange(ds, "k", per_call, schema).to_pandas()
        assert sorted(got["k"]) == list(range(64)) and (got["n"] == 1).all()
        return got["call"].nunique()

    assert run() == 1
    monkeypatch.setattr(B, "_BYTES_PER_SHARD", 8 << 10)
    assert B._ROWS_PER_SHARD > 64
    assert run() > 1


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("shape", ["one_task", "shuffled"])
def test_shard_join_sides_keep_their_columns(shape, shard_shape):
    """fn(left, right) gets each side with exactly its own columns and
    dtypes — a typed empty frame when a shard (or the whole input) holds
    no rows of that side."""
    import pandas as pd
    import ray

    from spider_ray.blockutil import shard_join

    if shape == "shuffled":
        shard_shape(7)
    left = ray.data.from_pandas(
        [pd.DataFrame({"k": range(b * 10, b * 10 + 10), "name": [f"n{b}"] * 10}) for b in range(3)]
    )
    right = ray.data.from_pandas(
        pd.DataFrame({"k": [0, 3, 3, 9, 27, 99], "w": [1.5] * 6})
    )
    schema = pa.schema([("k", pa.int64()), ("name", pa.string()), ("n_right", pa.int64())])

    def counts(lt: pd.DataFrame, rt: pd.DataFrame) -> pd.DataFrame:
        assert list(lt.columns) == ["k", "name"] and list(rt.columns) == ["k", "w"]
        assert lt["k"].dtype == "int64" and rt["w"].dtype == "float64"
        n = rt.groupby("k").size()
        return lt.assign(n_right=lt["k"].map(n).fillna(0).astype("int64"))

    got = shard_join(left, right, "k", counts, schema).to_pandas().sort_values("k")
    assert got["k"].tolist() == list(range(30))
    assert dict(zip(got["k"], got["n_right"])) == {
        k: {0: 1, 3: 2, 9: 1, 27: 1}.get(k, 0) for k in range(30)
    }

    none = right.filter(expr="k < 0")
    assert shard_join(left, none, "k", lambda lt, rt: lt, schema).count() == 30
    out = shard_join(none, none, "k", counts, schema)
    assert out.count() == 0 and out.schema().names == schema.names


def test_no_hand_rolled_exchange_outside_shard_exchange():
    """The engine exchanges rows by key only through blockutil's
    shard_exchange / shard_join. Anywhere under ``spider_ray/``, a
    ``.map_groups(`` outside the allowlist is a hand-rolled copy, a call
    with a ``join_type=`` keyword is a ``Dataset.join``, and an
    ``.aggregate(`` outside the query pipelines is a keyed reduce the
    exchange does by contract."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "spider_ray"
    # (file, top-level function) → why it may call map_groups
    allowed = {
        ("blockutil.py", "_exchange"): "the multi-shard branch of shard_exchange itself",
    }
    query_pipelines = {"relational.py", "textops.py", "dedup.py", "graph.py", "ann.py"}
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        may_aggregate = rel.parts[0] == "pipelines" and path.name in query_pipelines
        tree = ast.parse(path.read_text())
        for top in tree.body:
            site = (path.name, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and (
                    (node.attr == "map_groups" and site not in allowed)
                    or (node.attr == "aggregate" and not may_aggregate)
                ):
                    found.append(f"{rel}:{node.lineno} .{node.attr} in {site[1]}")
                if isinstance(node, ast.Call) and any(k.arg == "join_type" for k in node.keywords):
                    found.append(f"{rel}:{node.lineno} join_type= in {site[1]}")
    assert found == []

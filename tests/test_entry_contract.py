"""Pin the driver contract of __ray_entry__: entry() returns a non-empty
result with the stable store schema, queries()/oracle_sql() keys line up,
and the module performs no ray.init/shutdown of its own (the driver owns
the session — reference: the driver calls ray.init before import)."""

import importlib.util
import os

import pytest

ENTRY_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "__ray_entry__.py"
)


def _load():
    spec = importlib.util.spec_from_file_location("ray_entry_t", ENTRY_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_module_never_owns_the_ray_session():
    import ast

    tree = ast.parse(open(ENTRY_PATH).read())
    calls = [
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "ray"
    ]
    assert "init" not in calls and "shutdown" not in calls


def test_registry_keys_align():
    mod = _load()
    q, o = mod.queries(), mod.oracle_sql()
    # every oracle has a query; rows-only queries are the documented four
    assert set(o) <= set(q)
    assert set(q) - set(o) == {
        "crawl_bfs",
        "distinct_users_hll",
        "heavy_hitter_tokens",
        "kmeans_clusters",
    }


@pytest.mark.usefixtures("ray_session")
def test_entry_runs_with_stable_schema():
    mod = _load()
    df = mod.entry()
    assert len(df) > 0
    assert list(df.columns) == [
        "url",
        "title",
        "parent",
        "text",
        "depth",
        "discovery_rank",
    ]
    # canonical order: discovery_rank strictly increasing (BFS order key)
    ranks = df["discovery_rank"].to_numpy()
    assert (ranks[1:] > ranks[:-1]).all()

"""Engine-vs-oracle equivalence (SURVEY.md §5.2): the distributed crawl must
reproduce the sequential oracle's URL-seen set, canonical ordering, and
byte-identical title/text per url — across parallelism / partitioning /
politeness / fetch-strategy settings."""

import pandas as pd
import pytest

from spider_ray.corpus import build_pages_table, corpus_as_dict, write_corpus
from spider_ray.oracle import crawl_oracle

SEEDS = ["https://h0.example/p0", "h1.example/p0", "https://h2.example/p3"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    return write_corpus(str(d), n_pages=200, n_hosts=8, links_per_page=5)


@pytest.fixture(scope="module")
def corpus_dict():
    return corpus_as_dict(build_pages_table(n_pages=200, n_hosts=8, links_per_page=5))


def _run_engine(corpus_dir, tmp_path, **kw):
    from spider_ray.pipelines.crawl import crawl, read_store

    res = crawl(corpus_dir, SEEDS, str(tmp_path / "out"), **kw)
    store = read_store(str(tmp_path / "out")).to_pandas()
    return res, store


def _assert_matches_oracle(res, store: pd.DataFrame, oracle):
    # URL-seen set identical (includes misses)
    engine_seen_store = set(store["url"])
    oracle_store_urls = {r.url for r in oracle.store}
    assert engine_seen_store == oracle_store_urls
    assert res.seen_count == len(oracle.seen)
    # counters match (crawler.py:87-90 semantics)
    assert res.total_calls == oracle.total_calls
    assert res.crawled == oracle.crawled
    # canonical ordering identical
    ordered = store.sort_values(["depth", "discovery_rank"])["url"].tolist()
    assert ordered == oracle.canonical_order()
    # per-url depth, rank, title, text byte-identical; parent always start url
    o = {r.url: r for r in oracle.store}
    for row in store.itertuples():
        ref = o[row.url]
        assert (row.depth, row.discovery_rank) == (ref.depth, ref.discovery_rank), row.url
        assert row.title == ref.title or (pd.isna(row.title) and ref.title is None)
        assert row.text == ref.text, f"text mismatch for {row.url}"
        assert row.parent == ref.parent


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_engine_matches_oracle_depths(corpus_dir, corpus_dict, tmp_path, depth):
    res, store = _run_engine(corpus_dir, tmp_path, max_depth=depth)
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=depth)
    _assert_matches_oracle(res, store, oracle)


@pytest.mark.usefixtures("ray_session")
def test_engine_matches_oracle_with_politeness(corpus_dir, corpus_dict, tmp_path):
    res, store = _run_engine(corpus_dir, tmp_path, max_depth=2, per_host_budget=3)
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=2, per_host_budget=3)
    _assert_matches_oracle(res, store, oracle)
    # politeness keeps the stored url set (quirk q5 contract), though not
    # the order: same store urls as unbudgeted
    free = crawl_oracle(corpus_dict, SEEDS, max_depth=2)
    assert {r.url for r in free.store} == set(store["url"])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("budget", [None, 3])
@pytest.mark.parametrize("bound", [None, 30], ids=["default_bound", "bound30"])
@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
def test_frontiers_at_or_under_the_bound_arrive_cut(
    corpus_dir, corpus_dict, tmp_path, monkeypatch, budget, bound, resume
):
    """Every frontier of at most ``_DRIVER_ROWS`` rows reaches the split
    already cut to ``_target_blocks``. With the bound at 30, round 1 (37
    candidates, 27 claims) ranks through the distributed refill in front
    of a frontier the driver holds; with ``resume`` the first round after
    the resume counts too."""
    import ray

    from spider_ray.pipelines import crawl as crawl_mod

    if bound is not None:
        monkeypatch.setattr(crawl_mod, "_DRIVER_ROWS", bound)
    frontiers = []
    split = crawl_mod.politeness_split

    def recording_split(pending, *args, **kwargs):
        frontiers.append((pending.count(), pending.num_blocks()))
        return split(pending, *args, **kwargs)

    monkeypatch.setattr(crawl_mod, "politeness_split", recording_split)
    refills = []
    rank = crawl_mod.assign_ranks

    def recording_rank(*args, **kwargs):
        ranked, n = rank(*args, **kwargs)
        refills.append(n)
        return ranked, n

    monkeypatch.setattr(crawl_mod, "assign_ranks", recording_rank)
    out = str(tmp_path / "out")
    kw = dict(max_depth=2, per_host_budget=budget)
    if resume:
        assert not crawl_mod.crawl(corpus_dir, SEEDS, out, max_rounds=2, **kw).finished
        del frontiers[:], refills[:]
    res = crawl_mod.crawl(corpus_dir, SEEDS, out, resume=resume, **kw)
    cpus = int(ray.cluster_resources()["CPU"])
    batch = crawl_mod.CrawlConfig().fetch_batch_size
    held = [(rows, n) for rows, n in frontiers if rows <= crawl_mod._DRIVER_ROWS]
    assert held and all(
        n <= crawl_mod._target_blocks(rows, cpus, batch) for rows, n in held
    ), frontiers
    # the 30-row bound ranks round 1 (37 candidates) through the
    # distributed refill; the resumed crawl starts after that round
    assert bool(refills) == (bound is not None and not resume), refills
    store = crawl_mod.read_store(out).to_pandas()
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=2, per_host_budget=budget)
    # a resumed crawl's counters carry the earlier rounds' totals, and its
    # shards hold every claim again after the replay
    _assert_matches_oracle(res, store, oracle)


@pytest.mark.usefixtures("ray_session")
def test_engine_matches_oracle_with_politeness_distributed_split(
    corpus_dir, corpus_dict, tmp_path, distributed_splits, monkeypatch
):
    from spider_ray.pipelines import crawl as crawl_mod

    # _DRIVER_ROWS=0: no frontier is small enough to split on the driver,
    # so every round runs the distributed threshold reduce
    monkeypatch.setattr(crawl_mod, "_DRIVER_ROWS", 0)
    res, store = _run_engine(corpus_dir, tmp_path, max_depth=2, per_host_budget=3)
    assert len(distributed_splits) == len(res.rounds) > 3
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=2, per_host_budget=3)
    _assert_matches_oracle(res, store, oracle)


@pytest.mark.usefixtures("ray_session")
def test_round_metrics_time_the_politeness_split(corpus_dir, tmp_path, distributed_splits):
    import glob

    import pyarrow.parquet as pq

    res, _ = _run_engine(corpus_dir, tmp_path, max_depth=2, per_host_budget=3)
    assert distributed_splits == []  # every round split on the driver
    last = sorted(glob.glob(str(tmp_path / "out" / "rounds" / "r[0-9]*")))[-1]
    rows = pq.read_table(f"{last}/metrics.parquet").to_pylist()
    assert len(rows) == len(res.rounds) > 3
    for row, kept in zip(rows, res.rounds):
        assert 0 <= row["t_politeness"] <= row["t_fetch_parse"], row
        assert row["t_politeness"] == kept["t_politeness"]


@pytest.mark.usefixtures("ray_session")
def test_engine_matches_oracle_with_robots(corpus_dir, corpus_dict, tmp_path):
    robots = {"h1.example": [""], "h2.example": ["/p1"]}
    res, store = _run_engine(corpus_dir, tmp_path, max_depth=2, robots=robots)
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=2, robots=robots)
    _assert_matches_oracle(res, store, oracle)
    assert not any(u.startswith("https://h1.example") for u in store["url"])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("shards", [1, 7])
def test_engine_invariant_to_shard_count(corpus_dir, corpus_dict, tmp_path, shards):
    res, store = _run_engine(corpus_dir, tmp_path, max_depth=2, seen_shards=shards)
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=2)
    _assert_matches_oracle(res, store, oracle)


@pytest.mark.usefixtures("ray_session")
def test_engine_invariant_to_batch_size(corpus_dir, corpus_dict, tmp_path):
    res, store = _run_engine(
        corpus_dir, tmp_path, max_depth=2, fetch_batch_size=7, parse_batch_size=3
    )
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=2)
    _assert_matches_oracle(res, store, oracle)


@pytest.mark.usefixtures("ray_session")
def test_engine_parses_unknown_marked_sections(tmp_path):
    """Pages holding a ``<![`` keyword html.parser's ``_markupbase`` does
    not know (it raised there) crawl like any other page: every third page
    gets ``<![foo[x]]>`` in front of its first link, every fifth a cut
    ``<![CD``, which swallows that link up to its ``>``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    tbl = build_pages_table(n_pages=200, n_hosts=8, links_per_page=5)
    html = [h.decode() for h in tbl.column("html").to_pylist()]
    for i in range(0, len(html), 3):
        html[i] = html[i].replace("<a ", "<![foo[x]]><a ", 1)
    for i in range(0, len(html), 5):
        html[i] = html[i].replace("<a ", "<![CD<a ", 1)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("html"),
        "html",
        pa.array([h.encode() for h in html], pa.large_binary()),
    )
    (tmp_path / "corpus").mkdir()
    pq.write_table(tbl, str(tmp_path / "corpus" / "pages.parquet"))
    res, store = _run_engine(str(tmp_path / "corpus"), tmp_path, max_depth=2)
    oracle = crawl_oracle(corpus_as_dict(tbl), SEEDS, max_depth=2)
    _assert_matches_oracle(res, store, oracle)
    assert any("<![CD" in t for t in store["text"])


def _check_finalize_store_dedups_duplicate_parts(corpus_dir, tmp_path):
    # simulate a task-retry duplicated part file, then run the exactness net
    import glob
    import shutil

    from spider_ray.pipelines.crawl import crawl, read_store
    from spider_ray.pipelines.store_ops import finalize_store

    out = str(tmp_path / "o")
    crawl(corpus_dir, SEEDS, out, max_depth=1)
    clean = read_store(out, canonical_order=True).to_pandas()
    part = glob.glob(f"{out}/store/r0000/*.parquet")[0]
    shutil.copy(part, part.replace(".parquet", "-retry-dup.parquet"))
    assert read_store(out).count() > len(clean)  # duplicates present

    finalize_store(f"{out}/store", str(tmp_path / "final"))
    import ray

    final = (
        ray.data.read_parquet(str(tmp_path / "final"))
        .to_pandas()
        .sort_values(["depth", "discovery_rank"])
        .reset_index(drop=True)
    )
    assert final.equals(clean)


@pytest.mark.usefixtures("ray_session")
def test_finalize_store_dedups_duplicate_parts(corpus_dir, tmp_path):
    _check_finalize_store_dedups_duplicate_parts(corpus_dir, tmp_path)


@pytest.mark.usefixtures("ray_session")
def test_finalize_store_dedups_duplicate_parts_shuffled(corpus_dir, tmp_path, shard_shape):
    # the url exchange over 7 shards: every copy of a url must still meet
    # its twin in one kernel call
    shard_shape(7)
    _check_finalize_store_dedups_duplicate_parts(corpus_dir, tmp_path)


@pytest.mark.usefixtures("ray_session")
def test_engine_partitioned_fetch_mode(corpus_dir, corpus_dict, tmp_path):
    res, store = _run_engine(corpus_dir, tmp_path, max_depth=1, fetch_mode="partitioned")
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=1)
    _assert_matches_oracle(res, store, oracle)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("bound", [None, 0], ids=["default_bound", "bound0"])
def test_engine_partitioned_fetch_with_politeness(
    corpus_dir, corpus_dict, tmp_path, distributed_splits, monkeypatch, bound
):
    # bound 0: every frontier is split by the distributed path and fetch_now
    # reaches the partitioned fetch repartitioned lazily, not cut on the driver
    from spider_ray.pipelines import crawl as crawl_mod

    if bound is not None:
        monkeypatch.setattr(crawl_mod, "_DRIVER_ROWS", bound)
    res, store = _run_engine(
        corpus_dir, tmp_path, max_depth=3, per_host_budget=3, fetch_mode="partitioned"
    )
    assert len(distributed_splits) == (0 if bound is None else len(res.rounds))
    assert len(res.rounds) > 3
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=3, per_host_budget=3)
    _assert_matches_oracle(res, store, oracle)


@pytest.mark.usefixtures("ray_session")
def test_engine_robots_table_with_budgets(corpus_dir, corpus_dict, tmp_path):
    from spider_ray.robots import load_robots_table, write_robots_table

    path = write_robots_table(
        str(tmp_path / "robots.parquet"),
        rules={"h1.example": [""], "h2.example": ["/p1"]},
        delays_ms={"h0.example": 30_000},  # → budget 2/round
    )
    rules, budgets = load_robots_table(path)
    assert budgets == {"h0.example": 2}
    res, store = _run_engine(
        corpus_dir, tmp_path, max_depth=2, robots=path, per_host_budget=5
    )
    oracle = crawl_oracle(
        corpus_dict,
        SEEDS,
        max_depth=2,
        robots=rules,
        per_host_budget=5,
        host_budgets=budgets,
    )
    _assert_matches_oracle(res, store, oracle)
    assert not any(u.startswith("https://h1.example") for u in store["url"])


@pytest.mark.usefixtures("ray_session")
def test_engine_robots_table_with_budgets_distributed_split(
    corpus_dir, corpus_dict, tmp_path, distributed_splits, monkeypatch
):
    from spider_ray.pipelines import crawl as crawl_mod
    from spider_ray.robots import load_robots_table, write_robots_table

    monkeypatch.setattr(crawl_mod, "_DRIVER_ROWS", 0)
    path = write_robots_table(
        str(tmp_path / "robots.parquet"),
        rules={"h1.example": [""], "h2.example": ["/p1"]},
        delays_ms={"h0.example": 30_000},  # → budget 2/round
    )
    rules, budgets = load_robots_table(path)
    res, store = _run_engine(
        corpus_dir,
        tmp_path,
        max_depth=2,
        robots=path,
        per_host_budget=5,
    )
    assert len(distributed_splits) == len(res.rounds)
    oracle = crawl_oracle(
        corpus_dict,
        SEEDS,
        max_depth=2,
        robots=rules,
        per_host_budget=5,
        host_budgets=budgets,
    )
    _assert_matches_oracle(res, store, oracle)
    assert not any(u.startswith("https://h1.example") for u in store["url"])


@pytest.mark.usefixtures("ray_session")
def test_engine_distributed_rank_and_big_checkpoint_paths(
    corpus_dir, corpus_dict, tmp_path, monkeypatch
):
    from spider_ray.pipelines import crawl as crawl_mod
    from spider_ray.pipelines.crawl import crawl, read_store

    # force the >threshold branches: distributed sort+rank for every round
    # (harvests reach Arrow through per-shard tasks) and streaming
    # write_parquet checkpoints — must be byte-equivalent to
    # the driver-side fast paths (and resume from a ray-written frontier)
    monkeypatch.setattr(crawl_mod, "_DRIVER_ROWS", 0)
    res, store = _run_engine(corpus_dir, tmp_path, max_depth=2)
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=2)
    _assert_matches_oracle(res, store, oracle)

    out2 = str(tmp_path / "big_resume")
    part = crawl(corpus_dir, SEEDS, out2, max_depth=2, max_rounds=1)
    assert not part.finished
    resumed = crawl(corpus_dir, SEEDS, out2, max_depth=2, resume=True)
    assert resumed.finished
    df = read_store(out2, canonical_order=True).to_pandas()
    assert df["url"].tolist() == oracle.canonical_order()


def _pooled_shards():
    from spider_ray.pipelines import crawl as crawl_mod

    return list(crawl_mod._SHARD_POOL.get(crawl_mod._shard_pool_key(), []))


@pytest.mark.usefixtures("ray_session")
def test_crawls_in_one_session_reuse_reset_shards(
    corpus_dir, corpus_dict, tmp_path
):
    res, store = _run_engine(corpus_dir, tmp_path, max_depth=2)
    _assert_matches_oracle(res, store, crawl_oracle(corpus_dict, SEEDS, max_depth=2))
    pooled = _pooled_shards()
    assert len(pooled) >= 8

    # another corpus over the same url space, in bloom mode: a shard that
    # kept any url of the first crawl would drop it here
    d2 = write_corpus(str(tmp_path / "corpus2"), n_pages=150, n_hosts=8, links_per_page=4)
    c2 = corpus_as_dict(build_pages_table(n_pages=150, n_hosts=8, links_per_page=4))
    res2, store2 = _run_engine(
        d2, tmp_path / "second", max_depth=2, seen_mode="bloom", bloom_bits=1 << 20
    )
    _assert_matches_oracle(res2, store2, crawl_oracle(c2, SEEDS, max_depth=2))
    assert set(_pooled_shards()) == set(pooled)  # no actor spawned or lost


@pytest.mark.usefixtures("ray_session")
def test_shard_pool_hands_each_shard_to_one_crawl_at_a_time():
    import sys
    import threading

    import ray

    from spider_ray.pipelines import crawl as crawl_mod

    in_use, errors, lock = set(), [], threading.Lock()

    def worker():
        try:
            for _ in range(5):
                shards = crawl_mod._take_shards(2, "exact", 1 << 12)
                with lock:
                    if in_use & set(shards):
                        errors.append("shard handed out twice")
                    in_use.update(shards)
                ray.get([s.n_items.remote() for s in shards])  # hold them a while
                with lock:
                    in_use.difference_update(shards)
                crawl_mod._return_shards(shards)
        except Exception as e:  # noqa: BLE001 — reported by the assert below
            errors.append(repr(e))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    pooled = _pooled_shards()
    assert len(pooled) == len(set(pooled))


@pytest.mark.usefixtures("ray_session")
def test_failed_crawl_kills_its_shards(corpus_dir, corpus_dict, tmp_path, monkeypatch):
    import ray

    from spider_ray.pipelines import crawl as crawl_mod

    taken = []
    take = crawl_mod._take_shards

    def recording_take(*args):
        taken.extend(take(*args))
        return list(taken)

    monkeypatch.setattr(crawl_mod, "_take_shards", recording_take)
    split = crawl_mod.politeness_split
    calls = []

    def failing_split(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("injected mid-crawl failure")
        return split(*args, **kwargs)

    monkeypatch.setattr(crawl_mod, "politeness_split", failing_split)
    with pytest.raises(RuntimeError, match="injected"):
        _run_engine(corpus_dir, tmp_path, max_depth=2)
    assert len(taken) == 8
    assert not set(taken) & set(_pooled_shards())
    for s in taken:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(s.n_items.remote(), timeout=60)

    monkeypatch.undo()
    res, store = _run_engine(corpus_dir, tmp_path / "after", max_depth=2)
    _assert_matches_oracle(res, store, crawl_oracle(corpus_dict, SEEDS, max_depth=2))


@pytest.mark.usefixtures("ray_session")
def test_bloom_mode_no_false_negatives(corpus_dir, corpus_dict, tmp_path):
    # bloom sized generously → no FPs at this scale → identical to exact
    res, store = _run_engine(
        corpus_dir, tmp_path, max_depth=2, seen_mode="bloom", bloom_bits=1 << 20
    )
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=2)
    _assert_matches_oracle(res, store, oracle)


def test_crawl_config_fields_are_pinned():
    """Each CrawlConfig field is a user-facing knob. Adding one takes an
    edit here: a path that only a test needs to force is a module
    constant the test monkeypatches (``crawl._DRIVER_ROWS``), not a field."""
    import dataclasses

    from spider_ray.pipelines.crawl import CrawlConfig

    assert [f.name for f in dataclasses.fields(CrawlConfig)] == [
        "max_depth",
        "per_host_budget",
        "robots",
        "host_budgets",
        "seen_shards",
        "seen_mode",
        "use_cache",
        "bloom_bits",
        "fetch_mode",
        "fetch_batch_size",
        "parse_batch_size",
        "max_rounds",
        "proxy",
        "collect_shard_stats",
    ]


@pytest.mark.usefixtures("ray_session")
def test_unknown_modes_rejected_before_shards_are_taken(corpus_dir, tmp_path):
    from spider_ray.pipelines import crawl as crawl_mod

    crawl_mod.crawl(corpus_dir, SEEDS, str(tmp_path / "warm"), max_depth=0)
    pooled = _pooled_shards()
    for bad in (
        {"fetch_mode": "join"},
        {"fetch_mode": "indexed_actors"},
        {"fetch_mode": "partioned"},
        {"seen_mode": "cuckoo"},
        {"max_depth": 128},
        {"max_depth": -1},
        {"seen_shards": 0},
        {"seen_mode": "bloom", "bloom_bits": 100},
        {"bloom_bits": 0},
        {"fetch_batch_size": 0},
        {"parse_batch_size": 0},
    ):
        out = tmp_path / "bad"
        with pytest.raises(ValueError, match="unknown|max_depth|seen_shards|bloom_bits|batch_size"):
            crawl_mod.crawl(corpus_dir, SEEDS, str(out), **bad)
        assert not out.exists(), bad
        assert _pooled_shards() == pooled, bad


def test_crawls_of_one_corpus_across_ray_restarts(corpus_dir, corpus_dict, tmp_path):
    """The corpus broadcast is memoized per Ray session: after a
    ``ray.shutdown()`` and a new ``ray.init()`` in the same process, a crawl
    of the same corpus path must not reuse the dead session's ObjectRef.
    Runs in a subprocess so the test session's Ray stays untouched."""
    import glob
    import os
    import subprocess
    import sys

    import pyarrow.parquet as pq

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outs = [str(tmp_path / f"o{i}") for i in range(2)]
    code = (
        "import ray\n"
        "from spider_ray.pipelines.crawl import crawl\n"
        f"for out in {outs!r}:\n"
        "    ray.init(address='local', num_cpus=2, include_dashboard=False,\n"
        "             logging_level='ERROR')\n"
        f"    crawl({corpus_dir!r}, {SEEDS!r}, out, max_depth=2, seen_shards=2)\n"
        "    ray.shutdown()\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True, timeout=600)
    oracle = crawl_oracle(corpus_dict, SEEDS, max_depth=2)
    want = sorted(
        ((r.url, r.depth, r.discovery_rank) for r in oracle.store),
        key=lambda t: (t[1], t[2]),
    )
    for out in outs:
        files = glob.glob(f"{out}/store/r*/*.parquet")
        df = pd.concat([pq.read_table(f).to_pandas() for f in files])
        df = df.sort_values(["depth", "discovery_rank"])
        assert list(zip(df["url"], df["depth"], df["discovery_rank"])) == want


def test_corpus_index_all_miss_batch():
    # a batch whose urls ALL miss the corpus (expected near the crawl edge)
    # must come back empty, not crash in pa.concat_arrays([])
    import numpy as np
    import pyarrow as pa

    from spider_ray.stages.fetch import _CorpusIndex
    from spider_ray.state.seen import url_hash_batch

    tbl = pa.table(
        {
            "url": pa.array(["https://a/x", "https://a/y"], pa.string()),
            "html": pa.array([b"<p>x</p>", b"<p>y</p>"], pa.large_binary()),
        }
    )
    hashes = url_hash_batch(tbl.column("url").to_pylist())
    order = np.argsort(hashes, kind="stable").astype(np.int64)
    idx = _CorpusIndex((tbl, hashes[order], order))

    batch = pa.table(
        {
            "url": pa.array(["https://nope/1", "https://nope/2"], pa.string()),
            "depth": pa.array([1, 1], pa.int32()),
            "rank": pa.array([5, 6], pa.int64()),
        }
    )
    out = idx.lookup(batch)
    assert out.num_rows == 0
    assert out.schema.names == ["url", "depth", "rank", "html"]
    # mixed batch still resolves the hit
    mixed = pa.table(
        {
            "url": pa.array(["https://nope/1", "https://a/y"], pa.string()),
            "depth": pa.array([1, 1], pa.int32()),
            "rank": pa.array([5, 6], pa.int64()),
        }
    )
    got = idx.lookup(mixed)
    assert got.column("url").to_pylist() == ["https://a/y"]
    assert got.column("html").to_pylist() == [b"<p>y</p>"]


@pytest.mark.usefixtures("ray_session")
def test_engine_partitioned_fetch_mode_full_skew(tmp_path):
    # 100 % skew: ONE host owns the whole frontier. The per-batch fetch
    # spreads it over every batch, and each batch reads that host's files.
    corpus = write_corpus(
        str(tmp_path / "hot"), n_pages=150, n_hosts=1, links_per_page=5
    )
    cdict = corpus_as_dict(
        build_pages_table(n_pages=150, n_hosts=1, links_per_page=5)
    )
    seeds = ["https://h0.example/p0"]
    from spider_ray.pipelines.crawl import crawl, read_store

    res = crawl(
        corpus, seeds, str(tmp_path / "out"), max_depth=3, fetch_mode="partitioned"
    )
    store = read_store(str(tmp_path / "out")).to_pandas()
    oracle = crawl_oracle(cdict, seeds, max_depth=3)
    _assert_matches_oracle(res, store, oracle)


def _host_of(urls: list[str]) -> list[str]:
    return [u.split("/")[2] for u in urls]


@pytest.mark.usefixtures("ray_session")
def test_partitioned_fetch_matches_corpus_index(tmp_path):
    """The per-batch partitioned fetch returns the broadcast index's rows
    over a many-host frontier cut into a few blocks: a hot host spread over
    every block, an all-miss block, and dangling urls (an unknown page of a
    known host, an unknown host)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from spider_ray.stages.fetch import _CorpusIndex, fetch_partitioned
    from spider_ray.state.seen import url_hash_batch

    corpus = write_corpus(str(tmp_path / "c"), n_pages=300, n_hosts=12, links_per_page=3)
    tbl = pq.read_table(corpus, columns=["url", "html"])
    hashes = url_hash_batch(tbl.column("url").to_pylist())
    order = np.argsort(hashes, kind="stable").astype(np.int64)
    index = _CorpusIndex((tbl, hashes[order], order))

    urls = tbl.column("url").to_pylist()
    hot = [u for u in urls if u.startswith("https://h0.example/")]
    cold = [u for u in urls if not u.startswith("https://h0.example/")][::3]
    dangling = ["https://h3.example/p99999", "https://nohost.example/p1", "https://h0.example/p9999"]
    blocks = [hot[i::3] + cold[i::3] + [dangling[i]] for i in range(3)]
    blocks.append(["https://h5.example/p77777", "https://zz.example/"])  # all miss
    assert all(len(b) > 0 for b in blocks) and len(hot) > 30
    rank = iter(range(10**6))
    parts = [
        pa.table(
            {
                "url": pa.array(b, pa.string()),
                "host": pa.array(_host_of(b), pa.string()),
                "depth": pa.array([i % 3 for i in range(len(b))], pa.int32()),
                "rank": pa.array([next(rank) for _ in b], pa.int64()),
            }
        )
        for b in blocks
    ]
    frontier = ray.data.from_arrow(parts)
    got = pa.concat_tables(
        ray.get(r) for r in fetch_partitioned(frontier, corpus, 16).to_arrow_refs()
    )
    want = pa.concat_tables(index.lookup(p) for p in parts)
    assert got.schema.names == ["url", "depth", "rank", "html"]
    assert got.num_rows == want.num_rows == sum(len(b) for b in blocks) - 5
    assert got.sort_by("url").equals(want.sort_by("url"))


def test_frontier_filter_prunes_to_the_batch_hosts(tmp_path):
    """The shared predicate keeps only the files of a multi-host batch's
    hosts; one min..max range over the same urls keeps the files of every
    host sorting between them too."""
    import os

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from spider_ray.stages.fetch import frontier_filter

    corpus = write_corpus(str(tmp_path / "c"), n_pages=120, n_hosts=6, links_per_page=3)
    dset = pads.dataset(corpus)

    def kept(flt):
        return {
            os.path.basename(f.path)
            for f in dset.get_fragments()
            if any(piece.row_groups for piece in f.split_by_row_group(flt))
        }

    urls = ["https://h1.example/p0", "https://h1.example/p3", "https://h4.example/p2"]
    assert kept(frontier_filter(urls, _host_of(urls))) == {
        "pages-h0001-p0000000.parquet",
        "pages-h0004-p0000000.parquet",
    }
    got = dset.to_table(filter=frontier_filter(urls, _host_of(urls)), columns=["url"])
    assert sorted(got.column("url").to_pylist()) == urls
    one_range = (pc.field("url") >= urls[0]) & (pc.field("url") <= urls[-1])
    assert len(kept(one_range & pc.field("url").isin(urls))) == 4
    assert kept(frontier_filter([], [])) == set()


@pytest.mark.usefixtures("ray_session")
def test_hot_host_files_cut_in_url_order_prune_and_crawl(tmp_path, monkeypatch):
    """``write_corpus`` cuts a host that spans several files in url order,
    so the files' url ranges do not overlap: a batch of the hot host's urls
    keeps only the files whose range holds them, and a partitioned crawl
    over that corpus still equals the oracle."""
    import os

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    import spider_ray.corpus as corpus_mod
    from spider_ray.pipelines.crawl import crawl, read_store
    from spider_ray.stages.fetch import frontier_filter

    monkeypatch.setattr(corpus_mod, "_CHUNK", 20)
    corpus = write_corpus(str(tmp_path / "c"), n_pages=160, n_hosts=4, links_per_page=5)
    dset = pads.dataset(corpus)
    ranges = {}  # hot-host file -> (min url, max url)
    for f in dset.get_fragments():
        urls = pq.read_table(f.path, columns=["url"]).column("url").to_pylist()
        assert urls == sorted(urls)
        if urls[0].startswith("https://h0.example/"):
            ranges[os.path.basename(f.path)] = (urls[0], urls[-1])
    assert len(ranges) == 4  # 80 hot pages in files of 20
    spans = sorted(ranges.values())
    assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))  # no overlap

    def kept(batch):
        flt = frontier_filter(batch, _host_of(batch))
        return {
            os.path.basename(f.path)
            for f in dset.get_fragments()
            if any(piece.row_groups for piece in f.split_by_row_group(flt))
        }

    # one url of one file, then one url of each of two neighbouring files
    for batch in (["https://h0.example/p1"], [spans[1][1], spans[2][0]]):
        holding = {n for n, (lo, hi) in ranges.items() if any(lo <= u <= hi for u in batch)}
        assert len(holding) == len(batch)
        assert kept(batch) == holding

    cdict = corpus_as_dict(build_pages_table(n_pages=160, n_hosts=4, links_per_page=5))
    assert cdict == corpus_as_dict(pq.read_table(corpus))  # the same rows
    res = crawl(corpus, SEEDS, str(tmp_path / "out"), max_depth=3, fetch_mode="partitioned")
    store = read_store(str(tmp_path / "out")).to_pandas()
    _assert_matches_oracle(res, store, crawl_oracle(cdict, SEEDS, max_depth=3))


@pytest.mark.usefixtures("ray_session")
def test_corpus_index_rebuilds_on_hash_sentinel_mismatch(corpus_dir):
    """A persisted index whose sentinel doesn't match this process's hash
    implementation must be rebuilt (not trusted by mtime) — otherwise a
    hash-library change would silently miss every lookup."""
    import numpy as np

    import spider_ray.stages.fetch as F

    ref1 = F.load_corpus_ref(corpus_dir)
    import glob
    import os

    idxs = glob.glob(os.path.join(corpus_dir, "_prepared_idx*.npz"))
    assert idxs, "prepared index should have been persisted"
    d = dict(np.load(idxs[0]))
    d["s"] = np.array([123], dtype=np.uint64)  # wrong-implementation marker
    np.savez(idxs[0], **d)
    os.utime(idxs[0])  # keep it mtime-fresh — only the sentinel is off
    F._REF_CACHE.clear()
    ref2 = F.load_corpus_ref(corpus_dir)
    import ray

    tbl, h, o, *_ = ray.get(ref2)
    # rebuilt index resolves a real corpus url
    idx = F._CorpusIndex((tbl, h, o))
    url = tbl.column("url")[0].as_py()
    import pyarrow as pa

    got = idx.lookup(
        pa.table(
            {
                "url": pa.array([url], pa.string()),
                "depth": pa.array([0], pa.int32()),
                "rank": pa.array([0], pa.int64()),
            }
        )
    )
    assert got.num_rows == 1
    # and the npz was re-persisted with the CORRECT sentinel
    d2 = np.load(idxs[0])
    assert d2["s"][0] != np.uint64(123)


@pytest.mark.usefixtures("ray_session")
def test_corpus_index_rejects_runtime_hash_skew(corpus_dir):
    """The broadcast payload carries the builder's sentinel hash; a worker
    whose hash implementation disagrees must fail LOUDLY in __init__
    instead of silently resolving every url as a miss."""
    import numpy as np

    import ray
    import spider_ray.stages.fetch as F

    tbl, h, o, sentinel = ray.get(F.load_corpus_ref(corpus_dir))
    # matching sentinel: constructs fine
    F._CorpusIndex((tbl, h, o, sentinel))
    # skewed sentinel (a different hash implementation): loud failure
    with pytest.raises(RuntimeError, match="hash implementation skew"):
        F._CorpusIndex((tbl, h, o, np.uint64(int(sentinel) ^ 1)))


@pytest.mark.usefixtures("ray_session")
def test_read_store_canonical_order_with_pruned_columns(corpus_dir, tmp_path):
    """canonical_order=True must work with columns= pruning (the sort keys
    are read alongside and dropped after ordering)."""
    from spider_ray.pipelines.crawl import crawl, read_store

    out = str(tmp_path / "o")
    crawl(corpus_dir, SEEDS, out, max_depth=1)
    full = read_store(out, canonical_order=True).to_pandas()
    pruned = read_store(out, canonical_order=True, columns=["url", "title"]).to_pandas()
    assert list(pruned.columns) == ["url", "title"]
    assert pruned["url"].tolist() == full["url"].tolist()

    import pytest as _pytest

    with _pytest.raises(ValueError):
        from spider_ray.pipelines.crawl import crawl as _c

        _c(corpus_dir, [], str(tmp_path / "noseeds"))

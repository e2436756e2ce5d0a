"""The crawl's round body runs one fetch/parse task per frontier block, and
every task of a round starts at once.

The stage is wrapped through ``crawl_mod.make_parse_store_expand`` (looked
up at call time); each batch it runs writes one JSON file (round, rows,
start, end) that the test reads back after the crawl."""

import copy
import glob
import json
import os
import time
import uuid
from collections import Counter

import pyarrow.parquet as pq
import pytest

from spider_ray.corpus import build_pages_table, corpus_as_dict, write_corpus
from spider_ray.oracle import crawl_oracle

# 16 seeds over 8 hosts: at depth 2 the last round fetches ~500 pages, cut
# into 4 blocks at 4 CPUs
SEEDS = [f"h{i % 8}.example/p{i}" for i in range(16)]
SHAPE = dict(n_pages=1000, n_hosts=8, links_per_page=10)


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    return write_corpus(str(tmp_path_factory.mktemp("wide")), **SHAPE)


def _record_batches(monkeypatch, log_dir: str, sleep_s: float = 0.0) -> None:
    from spider_ray.pipelines import crawl as crawl_mod

    make = crawl_mod.make_parse_store_expand

    def recording(*args, **kwargs):
        fn = make(*args, **kwargs)
        round_id = int(os.path.basename(args[3])[1:])  # the round's store dir

        def stage(batch):
            start = time.time()
            time.sleep(sleep_s)
            out = fn(batch)
            rec = {
                "round": round_id,
                "rows": batch.num_rows,
                "start": start,
                "end": time.time(),
            }
            with open(os.path.join(log_dir, uuid.uuid4().hex), "w") as f:
                json.dump(rec, f)
            return out

        return stage

    monkeypatch.setattr(crawl_mod, "make_parse_store_expand", recording)


def _batches(log_dir: str) -> list[dict]:
    recs = []
    for path in glob.glob(os.path.join(log_dir, "*")):
        with open(path) as f:
            recs.append(json.load(f))
    return recs


@pytest.mark.usefixtures("ray_session")
def test_round_body_runs_one_batch_per_fetch_block(wide_corpus, tmp_path, monkeypatch):
    from ray.data import DataContext

    from spider_ray.pipelines import crawl as crawl_mod

    log = tmp_path / "batches"
    log.mkdir()
    _record_batches(monkeypatch, str(log))
    block_bytes = DataContext.get_current().target_max_block_size
    out = str(tmp_path / "out")
    res = crawl_mod.crawl(wide_corpus, SEEDS, out, max_depth=2)

    assert DataContext.get_current().target_max_block_size == block_bytes
    recs = _batches(str(log))
    per_round = Counter(r["round"] for r in recs)
    assert max(r["fetch_blocks"] for r in res.rounds) >= 3
    for r in res.rounds:
        assert per_round[r["round"]] == r["fetch_blocks"], (r, per_round)
    # the checkpoint's metrics rows carry the same counts
    last = sorted(glob.glob(os.path.join(out, "rounds", "r[0-9]*")))[-1]
    rows = pq.read_table(os.path.join(last, "metrics.parquet")).to_pylist()
    assert [row["fetch_blocks"] for row in rows] == [r["fetch_blocks"] for r in res.rounds]

    store = crawl_mod.read_store(out).to_pandas()
    oracle = crawl_oracle(corpus_as_dict(build_pages_table(**SHAPE)), SEEDS, max_depth=2)
    assert set(store["url"]) == {r.url for r in oracle.store}
    assert (res.total_calls, res.crawled) == (oracle.total_calls, oracle.crawled)


@pytest.mark.usefixtures("ray_session")
def test_tasks_of_a_round_start_together(wide_corpus, tmp_path, monkeypatch):
    """With every batch sleeping 0.3 s, each batch of the widest round
    starts before the first one of that round ends: no task waits for
    another to return. Ray Data's object store budget is set to what the
    benchmark's 512 MB store gives, where an op's task output estimate at
    the default block size let one task start alone."""
    from ray.data import DataContext

    from spider_ray.pipelines import crawl as crawl_mod

    ctx = DataContext.get_current()
    opts = copy.deepcopy(ctx.execution_options)
    opts.resource_limits = opts.resource_limits.copy(object_store_memory=256 * 2**20)
    monkeypatch.setattr(ctx, "execution_options", opts)
    out = str(tmp_path / "out")
    crawl_mod.crawl(wide_corpus, SEEDS, out, max_depth=2)  # warm the workers
    log = tmp_path / "batches"
    log.mkdir()
    _record_batches(monkeypatch, str(log), sleep_s=0.3)
    res = crawl_mod.crawl(wide_corpus, SEEDS, out, max_depth=2)

    wide = max(res.rounds, key=lambda r: r["fetch_blocks"])
    recs = [r for r in _batches(str(log)) if r["round"] == wide["round"]]
    assert len(recs) == wide["fetch_blocks"] >= 3
    first_end = min(r["end"] for r in recs)
    assert all(r["start"] < first_end for r in recs), sorted(
        (round(r["start"] - first_end, 3), r["rows"]) for r in recs
    )


def test_body_task_parses_fixed_batches_as_rows_arrive():
    """The round body's task (called here as a plain function) parses the
    fetched rows in ``parse_batch``-row batches whatever the fetch batch
    size, in row order, and only its last batch is short; misses (rows the
    fetch drops) never reach the stage."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from spider_ray.pipelines.crawl import _round_body_task

    def fetch(batch):  # every fourth row misses
        return batch.filter(pc.not_equal(pc.bit_wise_and(batch["x"], 3), 3))

    for fetch_batch, parse_batch in ((5, 7), (7, 3), (100, 7)):
        parsed = []

        def stage(batch):
            parsed.append(batch["x"].to_pylist())
            return pa.table({"n": [batch.num_rows]})

        n, out = _round_body_task._function(
            pa.table({"x": range(23)}), fetch, fetch_batch, stage, parse_batch
        )
        kept = [x for x in range(23) if x % 4 != 3]
        assert [x for batch in parsed for x in batch] == kept
        sizes = [len(batch) for batch in parsed]
        assert sizes[:-1] == [parse_batch] * (len(sizes) - 1) and 0 < sizes[-1] <= parse_batch
        assert (n, out["n"].to_pylist()) == (len(sizes), sizes)

    assert _round_body_task._function(
        pa.table({"x": [3, 7]}), fetch, 5, stage, 7
    ) == (0, None)


@pytest.mark.usefixtures("ray_session")
def test_killed_body_task_is_retried(wide_corpus, tmp_path, monkeypatch):
    """A round-body task whose worker process dies runs again, as a Ray Data
    task would (``max_retries=-1``): one batch of round 1 kills its worker
    four times, one more than a plain Ray task's default retries, each time
    after its store part is written and its candidates are offered. The
    crawl still equals the oracle: every retry rewrites the same part and
    offers the same candidates again."""
    from spider_ray.pipelines import crawl as crawl_mod

    crashes = tmp_path / "crashes"
    crashes.mkdir()
    victim = crashes / "victim"
    make = crawl_mod.make_parse_store_expand

    def crashing(*args, **kwargs):
        fn = make(*args, **kwargs)
        round_id = int(os.path.basename(args[3])[1:])  # the round's store dir

        def stage(batch):
            out = fn(batch)
            if round_id == 1:
                first = batch.column("url")[0].as_py()
                try:  # the first batch of the round to get here is the victim
                    fd = os.open(victim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                    os.write(fd, first.encode())
                    os.close(fd)
                except FileExistsError:
                    pass
                if victim.read_text() == first and len(list(crashes.glob("kill-*"))) < 4:
                    (crashes / f"kill-{uuid.uuid4().hex}").touch()
                    os._exit(1)
            return out

        return stage

    monkeypatch.setattr(crawl_mod, "make_parse_store_expand", crashing)
    out = str(tmp_path / "out")
    res = crawl_mod.crawl(wide_corpus, SEEDS, out, max_depth=2)

    assert len(list(crashes.glob("kill-*"))) == 4
    store = crawl_mod.read_store(out).to_pandas()
    oracle = crawl_oracle(corpus_as_dict(build_pages_table(**SHAPE)), SEEDS, max_depth=2)
    assert len(store) == len(oracle.store)
    assert set(store["url"]) == {r.url for r in oracle.store}
    assert (res.total_calls, res.crawled) == (oracle.total_calls, oracle.crawled)


POLITE_SHAPE = dict(n_pages=80, n_hosts=8, links_per_page=4)
POLITE_SEEDS = [f"h{i}.example/p{i}" for i in range(4)]
POLITE_ROBOTS = {"h2.example": ["/p1"], "h3.example": ["/gone"], "h5.example": ["/p2", "/p3"]}


@pytest.mark.usefixtures("ray_session")
def test_polite_crawl_starts_no_ray_data_execution(tmp_path, monkeypatch):
    """A crawl of the benchmark's polite shape (robots rules, a per-host
    budget, partitioned fetch, bloom seen shards) under the default
    ``_DRIVER_ROWS`` runs every round without a Ray Data execution: the
    frontier stays Arrow on the driver and each round body is plain Ray
    tasks."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from spider_ray.pipelines import crawl as crawl_mod

    corpus = write_corpus(str(tmp_path / "corpus"), **POLITE_SHAPE)
    executions = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    out = str(tmp_path / "out")
    kw = dict(max_depth=40, per_host_budget=3, robots=POLITE_ROBOTS)
    res = crawl_mod.crawl(
        corpus, POLITE_SEEDS, out, fetch_mode="partitioned", seen_mode="bloom", **kw
    )
    assert executions == []
    assert len(res.rounds) > 3 and sum(r["deferred"] for r in res.rounds) > 0

    store = crawl_mod.read_store(out).to_pandas()
    oracle = crawl_oracle(corpus_as_dict(build_pages_table(**POLITE_SHAPE)), POLITE_SEEDS, **kw)
    assert set(store["url"]) == {r.url for r in oracle.store}
    assert (res.total_calls, res.crawled) == (oracle.total_calls, oracle.crawled)

"""The crawl's round body runs one fetch/parse task per frontier block, and
every task of a round starts at once.

The stage is wrapped through ``crawl_mod.make_parse_store_expand`` (looked
up at call time); each batch it runs writes one JSON file (round, rows,
start, end, the Ray Data block size its task ran with) that the test reads
back after the crawl."""

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
            from ray.data import DataContext

            start = time.time()
            time.sleep(sleep_s)
            out = fn(batch)
            rec = {
                "round": round_id,
                "rows": batch.num_rows,
                "start": start,
                "end": time.time(),
                "block_bytes": DataContext.get_current().target_max_block_size,
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
    assert {r["block_bytes"] for r in recs} == {crawl_mod._BODY_BLOCK_BYTES}
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

"""Kill/resume (SURVEY.md §5.4): running k rounds, stopping, and resuming
from the checkpoint must reproduce the byte-identical final store and
metrics lineage of an uninterrupted run."""

import pandas as pd
import pytest

from spider_ray.corpus import build_pages_table, corpus_as_dict, write_corpus
from spider_ray.oracle import crawl_oracle

SEEDS = ["https://h0.example/p0", "h1.example/p0"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus_resume")
    return write_corpus(str(d), n_pages=150, n_hosts=6, links_per_page=5)


def _store_df(out):
    from spider_ray.pipelines.crawl import read_store

    return (
        read_store(out)
        .to_pandas()
        .sort_values(["depth", "discovery_rank"])
        .reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
def test_kill_resume_identical_store(corpus_dir, tmp_path):
    from spider_ray.pipelines.crawl import crawl

    full = crawl(corpus_dir, SEEDS, str(tmp_path / "full"), max_depth=2)
    assert full.finished

    part = crawl(corpus_dir, SEEDS, str(tmp_path / "resumed"), max_depth=2, max_rounds=1)
    assert not part.finished
    resumed = crawl(
        corpus_dir, SEEDS, str(tmp_path / "resumed"), max_depth=2, resume=True
    )
    assert resumed.finished

    a, b = _store_df(str(tmp_path / "full")), _store_df(str(tmp_path / "resumed"))
    pd.testing.assert_frame_equal(a, b)
    assert resumed.total_calls == full.total_calls
    assert resumed.crawled == full.crawled
    assert resumed.seen_count == full.seen_count
    # metrics lineage: resumed run keeps the prior rounds' rows
    assert [m["round"] for m in resumed.rounds] == [m["round"] for m in full.rounds]
    assert [m["claimed"] for m in resumed.rounds] == [m["claimed"] for m in full.rounds]


@pytest.mark.usefixtures("ray_session")
def test_resume_with_politeness_matches_oracle(corpus_dir, tmp_path):
    from spider_ray.pipelines.crawl import crawl

    out = str(tmp_path / "pol")
    part = crawl(corpus_dir, SEEDS, out, max_depth=2, per_host_budget=4, max_rounds=2)
    assert not part.finished
    resumed = crawl(out_dir=out, corpus_path=corpus_dir, seeds=SEEDS, resume=True,
                    max_depth=2, per_host_budget=4)
    assert resumed.finished

    corpus = corpus_as_dict(build_pages_table(n_pages=150, n_hosts=6, links_per_page=5))
    oracle = crawl_oracle(corpus, SEEDS, max_depth=2, per_host_budget=4)
    df = _store_df(out)
    assert df["url"].tolist() == oracle.canonical_order()
    assert resumed.total_calls == oracle.total_calls


@pytest.mark.usefixtures("ray_session")
def test_resume_with_politeness_matches_oracle_distributed_split(
    corpus_dir, tmp_path, distributed_splits, monkeypatch
):
    from spider_ray.pipelines import crawl as crawl_mod
    from spider_ray.pipelines.crawl import crawl

    # _DRIVER_ROWS=0: every split runs the distributed path, and the
    # frontier checkpoints stream through write_parquet
    monkeypatch.setattr(crawl_mod, "_DRIVER_ROWS", 0)
    out = str(tmp_path / "pol")
    kw = dict(max_depth=2, per_host_budget=4)
    part = crawl(corpus_dir, SEEDS, out, max_rounds=2, **kw)
    assert not part.finished
    resumed = crawl(corpus_dir, SEEDS, out, resume=True, **kw)
    assert resumed.finished
    assert len(distributed_splits) == len(resumed.rounds)

    corpus = corpus_as_dict(build_pages_table(n_pages=150, n_hosts=6, links_per_page=5))
    oracle = crawl_oracle(corpus, SEEDS, max_depth=2, per_host_budget=4)
    df = _store_df(out)
    assert df["url"].tolist() == oracle.canonical_order()
    assert resumed.total_calls == oracle.total_calls


@pytest.mark.usefixtures("ray_session")
def test_sigint_mid_crawl_stops_at_round_boundary_and_resumes(
    corpus_dir, tmp_path, monkeypatch
):
    # a Ctrl-C arriving MID-round must surface at the next round boundary
    # (not be swallowed until the whole crawl completes), leave a complete
    # checkpoint behind, and resume to the byte-identical store
    import os
    import signal

    from spider_ray.pipelines import crawl as crawl_mod
    from spider_ray.pipelines.crawl import crawl

    real_split = crawl_mod.politeness_split
    fired = {"n": 0}

    def interrupting_split(*a, **kw):
        if fired["n"] == 0:
            fired["n"] += 1
            os.kill(os.getpid(), signal.SIGINT)  # lands in _DeferSigint
        return real_split(*a, **kw)

    monkeypatch.setattr(crawl_mod, "politeness_split", interrupting_split)
    out = str(tmp_path / "intr")
    with pytest.raises(KeyboardInterrupt):
        crawl(corpus_dir, SEEDS, out, max_depth=2)
    monkeypatch.setattr(crawl_mod, "politeness_split", real_split)

    # exactly one round ran (the interrupt surfaced at its boundary) and its
    # checkpoint promoted; the deferral handler is uninstalled again
    h = signal.getsignal(signal.SIGINT)
    assert getattr(h, "__qualname__", "") != "_DeferSigint._capture"
    from spider_ray.pipelines.crawl import _find_last_complete_round

    assert _find_last_complete_round(out) == 0

    resumed = crawl(corpus_dir, SEEDS, out, max_depth=2, resume=True)
    assert resumed.finished
    full = crawl(corpus_dir, SEEDS, str(tmp_path / "intr_full"), max_depth=2)
    pd.testing.assert_frame_equal(
        _store_df(out), _store_df(str(tmp_path / "intr_full"))
    )

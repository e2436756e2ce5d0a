import pytest

from spider_ray.corpus import write_corpus

SEEDS = ["https://h0.example/p0", "h1.example/p0"]


@pytest.fixture(scope="module")
def crawled(tmp_path_factory, ray_session):
    from spider_ray.pipelines.crawl import crawl

    root = tmp_path_factory.mktemp("store_ops")
    corpus = write_corpus(str(root / "corpus"), n_pages=120, n_hosts=6)
    out = str(root / "out")
    crawl(corpus, SEEDS, out, max_depth=2)
    return corpus, out, root


@pytest.mark.usefixtures("ray_session")
def test_catch_by_parent(crawled):
    from spider_ray.pipelines.store_ops import catch

    _, out, _ = crawled
    # every store row's parent is the start url (quirk q2) — catch on it
    df = catch(out, "h0.example/p0", limit=5).to_pandas()
    assert len(df) == 5
    assert list(df.columns) == ["url", "title"]
    assert df["url"].iloc[0] == "https://h0.example/p0"
    # unknown parent → empty
    assert catch(out, "https://nope.example/x", limit=5).count() == 0


@pytest.mark.usefixtures("ray_session")
def test_count_all(crawled):
    from spider_ray.pipelines.crawl import read_store
    from spider_ray.pipelines.store_ops import count_all

    _, out, _ = crawled
    assert count_all(out) == read_store(out).count() > 0


def _check_reconcile_overwrite_semantics(crawled, tag):
    from spider_ray.pipelines.crawl import crawl, read_store
    from spider_ray.pipelines.store_ops import reconcile_stores

    corpus, out, root = crawled
    out2 = str(root / f"out2{tag}")
    crawl(corpus, ["https://h2.example/p0"], out2, max_depth=1)
    old = read_store(out).to_pandas()
    new = read_store(out2).to_pandas()
    overlap = set(old.url) & set(new.url)

    merged_ow = reconcile_stores(out, out2, str(root / f"m1{tag}"), overwrite=True).to_pandas()
    merged_keep = reconcile_stores(out, out2, str(root / f"m2{tag}"), overwrite=False).to_pandas()
    assert set(merged_ow.url) == set(old.url) | set(new.url)
    assert set(merged_ow.url) == set(merged_keep.url)
    # merged ranks stay unique (new generation offset past old max)
    assert merged_ow.discovery_rank.is_unique and merged_keep.discovery_rank.is_unique
    offset = old.discovery_rank.max() + 1
    for u in overlap:
        # winner's discovery_rank tells which generation survived
        assert (
            merged_ow[merged_ow.url == u].discovery_rank.iloc[0]
            == new[new.url == u].discovery_rank.iloc[0] + offset
        )
        assert (
            merged_keep[merged_keep.url == u].discovery_rank.iloc[0]
            == old[old.url == u].discovery_rank.iloc[0]
        )


@pytest.mark.usefixtures("ray_session")
def test_reconcile_overwrite_semantics(crawled):
    _check_reconcile_overwrite_semantics(crawled, "")


@pytest.mark.usefixtures("ray_session")
def test_reconcile_overwrite_semantics_shuffled(crawled, shard_shape):
    shard_shape(7)
    _check_reconcile_overwrite_semantics(crawled, "_shuffled")


@pytest.mark.usefixtures("ray_session")
def test_compact_store(crawled):
    import glob
    import os

    from spider_ray.pipelines.crawl import read_store
    from spider_ray.pipelines.store_ops import compact_store

    _, out, _ = crawled
    before = read_store(out, canonical_order=True).to_pandas()
    n_files_before = len(glob.glob(os.path.join(out, "store", "r*", "*.parquet")))
    n = compact_store(out)
    after = read_store(out, canonical_order=True).to_pandas()
    n_files_after = len(glob.glob(os.path.join(out, "store", "r*", "*.parquet")))
    assert n == len(before)
    assert after.equals(before)
    assert n_files_after <= n_files_before


@pytest.mark.usefixtures("ray_session")
def test_drop_store(tmp_path):
    import os

    from spider_ray.corpus import write_corpus as wc
    from spider_ray.pipelines.crawl import crawl
    from spider_ray.pipelines.store_ops import drop_store

    corpus = wc(str(tmp_path / "c"), n_pages=40, n_hosts=4)
    out = str(tmp_path / "o")
    crawl(corpus, ["https://h0.example/p0"], out, max_depth=1)
    assert os.path.exists(os.path.join(out, "store"))
    drop_store(out)
    assert not os.path.exists(os.path.join(out, "store"))
    assert not os.path.exists(os.path.join(out, "rounds"))


def _check_reconcile_survives_duplicated_part_file(crawled, tag):
    # a byte-identical duplicated part (same url AND discovery_rank, e.g. a
    # retry-duplicated file) must yield exactly ONE merged row per url
    import glob
    import shutil

    from spider_ray.pipelines.crawl import crawl, read_store
    from spider_ray.pipelines.store_ops import reconcile_stores

    corpus, out, root = crawled
    out_dup = str(root / f"out_dup{tag}")
    crawl(corpus, ["https://h2.example/p0"], out_dup, max_depth=1)
    part = glob.glob(f"{out_dup}/store/r0000/*.parquet")[0]
    shutil.copy(part, part.replace(".parquet", "-retry-dup.parquet"))
    n_urls_old = read_store(out).to_pandas()["url"].nunique()
    n_urls_new = read_store(out_dup).to_pandas()["url"].nunique()

    merged = reconcile_stores(out, out_dup, str(root / f"m_dup{tag}"), overwrite=True).to_pandas()
    assert merged["url"].is_unique
    assert merged["discovery_rank"].is_unique
    assert merged["url"].nunique() == len(set(read_store(out).to_pandas()["url"]) | set(read_store(out_dup).to_pandas()["url"]))


@pytest.mark.usefixtures("ray_session")
def test_reconcile_survives_duplicated_part_file(crawled):
    _check_reconcile_survives_duplicated_part_file(crawled, "")


@pytest.mark.usefixtures("ray_session")
def test_reconcile_survives_duplicated_part_file_shuffled(crawled, shard_shape):
    shard_shape(7)
    _check_reconcile_survives_duplicated_part_file(crawled, "_shuffled")


@pytest.mark.usefixtures("ray_session")
def test_catch_surface_never_reads_text(crawled):
    # catch/catch_contains prune at the read: the page text column must not
    # leave storage for a url/title lookup (at the 10^10-row tier the text
    # column IS the store)
    from spider_ray.pipelines.crawl import read_store
    from spider_ray.pipelines.store_ops import catch, catch_contains

    _, out, _ = crawled
    pruned = read_store(out, columns=["url", "title", "parent", "discovery_rank"])
    assert "text" not in pruned.schema().names

    df = catch(out, "h0.example/p0", limit=5).to_pandas()
    assert list(df.columns) == ["url", "title"] and len(df) == 5

    sub = catch_contains(out, "h0.example", limit=4).to_pandas()
    assert list(sub.columns) == ["url", "title"]
    assert all("h0.example" in u for u in sub["url"])

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()


@pytest.fixture
def shard_shape(monkeypatch):
    """``shard_shape(n)`` forces every ``shard_exchange`` / ``shard_join``
    onto its multi-shard branch with ``n`` shards (one row per shard, at
    most ``n``), for the rest of the test — the answer must not depend on
    the shard count or on which branch ran."""
    import spider_ray.blockutil as B

    def force(n: int) -> None:
        monkeypatch.setattr(B, "_ROWS_PER_SHARD", 1)
        monkeypatch.setattr(B, "default_shuffle_partitions", lambda: n)

    return force


@pytest.fixture
def distributed_splits(monkeypatch):
    """A list that gains one entry per ``politeness_split`` call that took
    a distributed path (its threshold reduce runs through
    ``shard_exchange``; the driver path never calls it)."""
    import spider_ray.stages.politeness as P

    calls = []
    exchange = P.shard_exchange

    def counted(*args, **kwargs):
        calls.append(1)
        return exchange(*args, **kwargs)

    monkeypatch.setattr(P, "shard_exchange", counted)
    return calls

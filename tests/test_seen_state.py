import numpy as np
import pytest

from spider_ray.state.seen import (
    BloomSeen,
    ExactSeen,
    UrlSeenShard,
    iter_shard_groups,
    route_sentinel,
    shard_ids_batch,
    shard_of,
)


def test_shard_routing_stable():
    assert shard_of("https://a.example/p1", 8) == shard_of("https://a.example/p1", 8)
    assert 0 <= shard_of("x", 5) < 5


def test_shard_ids_batch_matches_scalar():
    urls = [f"https://h{i % 7}.example/p{i}?q={i * 3}" for i in range(200)] + [""]
    sids = shard_ids_batch(urls, 8)
    assert sids.dtype == np.int64
    assert all(int(s) == shard_of(u, 8) for u, s in zip(urls, sids))
    assert ((sids >= 0) & (sids < 8)).all()


def test_iter_shard_groups_is_a_partition():
    urls = np.asarray(
        [f"https://h{i % 5}.example/p{i}" for i in range(333)], dtype=object
    )
    seen_rows: list[int] = []
    for s, rows in iter_shard_groups(urls, 6):
        assert (shard_ids_batch(urls[rows], 6) == s).all()
        seen_rows.extend(rows.tolist())
    # every row appears exactly once across the groups
    assert sorted(seen_rows) == list(range(len(urls)))


def test_route_sentinel_skew_fails_loudly():
    ok = route_sentinel()
    # matching sentinel passes (and caches)
    shard_ids_batch(["https://a.example/"], 4, sentinel=ok)
    with pytest.raises(RuntimeError, match="routing hash skew"):
        shard_ids_batch(["https://a.example/"], 4, sentinel=ok ^ 0x1)


def test_bloom_no_false_negatives_and_fp_bound():
    b = BloomSeen(bits=1 << 16, n_hashes=7)
    urls = [f"https://h{i}.example/p{i}" for i in range(1000)]
    for u in urls:
        b.add(u)
    assert all(u in b for u in urls)  # no false negatives, ever
    probes = [f"https://x{i}.example/q{i}" for i in range(2000)]
    fp = sum(1 for p in probes if p in b)
    # m/n ≈ 65.5 bits/item, k=7 → theoretical fp ~1e-6; allow slack
    assert fp / len(probes) < 0.01


def test_shard_claim_idempotent_within_round():
    sh = UrlSeenShard(mode="exact")
    sh.offer(1, ["a", "b"], [4, 2])
    # a retried parse task re-offers its batch: the claims do not change
    sh.offer(1, ["a", "b"], [4, 2])
    got = sh.harvest(1)
    assert got.urls == ["a", "b"] and got.keys.tolist() == [4, 2]
    # next round: a is seen, c is new
    sh.offer(2, ["a", "c"], [1, 1])
    assert sh.harvest(2).urls == ["c"]
    assert sh.n_items() == 3


def test_shard_bulk_add():
    sh = UrlSeenShard(mode="exact")
    sh.bulk_add(["a", "b"])
    assert sh.bulk_add(["a"]) == 2  # idempotent: a replayed url adds nothing
    sh.offer(5, ["a", "c"], [1, 2])
    assert sh.harvest(5).urls == ["c"]


def test_unknown_seen_mode_raises():
    from spider_ray.state.seen import UrlSeenShard

    with pytest.raises(ValueError):
        UrlSeenShard(mode="Exact")  # typo'd mode must not silently go bloom
    with pytest.raises(ValueError):
        UrlSeenShard(mode="cuckoo")  # not a seen mode (exact, bloom only)


def test_harvest_returns_plain_claims_and_repeats_per_round():
    import pickle

    s = UrlSeenShard(mode="exact")
    s.offer(1, ["https://a/1", "https://a/2", "https://a/1"], [7, 3, 5])
    out = s.harvest(1)
    assert out.num_rows == 2
    assert out.urls == ["https://a/1", "https://a/2"]
    assert out.keys.dtype == np.int64 and out.keys.tolist() == [5, 3]
    # nothing Arrow crosses the actor boundary (see Claims)
    assert b"pyarrow" not in pickle.dumps(out)
    again = s.harvest(1)  # a retried harvest: same claims, nothing re-claimed
    assert again.urls == out.urls and again.keys.tolist() == out.keys.tolist()


def test_shard_methods_never_import_pyarrow():
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys\n"
        "from spider_ray.state.seen import UrlSeenShard\n"
        "s = UrlSeenShard()\n"
        "s.bulk_add(['https://a/0'])\n"
        "s.offer(1, ['https://a/1'], [1])\n"
        "s.harvest(1)\n"
        "s.reset('bloom', 1 << 12)\n"
        "assert 'pyarrow' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True)


def test_reset_clears_state_and_switches_mode():
    s = UrlSeenShard(mode="exact")
    s.bulk_add(["https://a/1"])
    s.offer(1, ["https://a/2"], [4])
    s.harvest(1)
    s.reset("bloom", 1 << 12)
    assert s.stats()["mode"] == "bloom" and s.n_items() == 0
    # neither the old seen set nor round 1's cached harvest survives
    s.offer(1, ["https://a/1", "https://a/2"], [1, 2])
    assert s.harvest(1).urls == ["https://a/1", "https://a/2"]

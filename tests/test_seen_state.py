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


def test_exact_seen_roundtrip():
    s = ExactSeen()
    s.add("a")
    s.add("b")
    d = s.dump_payload()
    s2 = ExactSeen()
    s2.restore_payload(d)
    assert "a" in s2 and "b" in s2 and "c" not in s2 and len(s2) == 2


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


def test_bloom_roundtrip():
    b = BloomSeen(bits=1 << 12, n_hashes=5)
    b.add("u1")
    d = b.dump_payload()
    b2 = BloomSeen()
    b2.restore_payload(d)
    assert "u1" in b2 and "u2" not in b2


def test_shard_claim_idempotent_within_round():
    sh = UrlSeenShard(mode="exact")
    assert sh.check_and_add(1, ["a", "b"]) == [True, True]
    # retry of the same round's batch → same answer (task-retry safety)
    assert sh.check_and_add(1, ["a", "b"]) == [True, True]
    # next round: now seen
    assert sh.check_and_add(2, ["a", "c"]) == [False, True]
    assert sh.n_items() == 3


def test_shard_dump_restore():
    sh = UrlSeenShard(mode="exact")
    sh.check_and_add(1, ["a", "b"])
    d = sh.dump()
    sh2 = UrlSeenShard(mode="exact")
    sh2.restore(d)
    assert sh2.check_and_add(1, ["a"]) == [True]  # same round → idempotent claim
    assert sh2.check_and_add(2, ["b"]) == [False]
    assert sh2.n_items() == 2


def test_shard_bulk_add():
    sh = UrlSeenShard(mode="exact")
    sh.bulk_add(["a", "b"])
    assert sh.check_and_add(5, ["a", "c"]) == [False, True]


def test_cuckoo_no_false_negatives_membership_and_deletion():
    from spider_ray.state.seen import CuckooSeen

    c = CuckooSeen(n_buckets=1 << 12)
    urls = [f"https://h{i}.example/p{i}" for i in range(2000)]
    for u in urls:
        c.add(u)
    assert all(u in c for u in urls)  # no false negatives, ever
    probes = [f"https://x{i}.example/q{i}" for i in range(2000)]
    fp = sum(1 for p in probes if p in c)
    # 16-bit fingerprints, 2 buckets × 4 slots probed → fp ≈ 8/65535 ≈ 1e-4
    assert fp / len(probes) < 0.01
    # deletion — the op Bloom cannot do
    victim = urls[37]
    assert c.discard(victim) is True
    assert c.discard("https://never.example/x") is False
    assert all(u in c for u in urls if u != victim)


def test_cuckoo_overflow_keeps_exactness():
    from spider_ray.state.seen import CuckooSeen

    # tiny table forced into eviction-overflow territory
    c = CuckooSeen(n_buckets=1 << 4, max_kicks=8)
    urls = [f"https://h{i}.example/p{i}" for i in range(500)]
    for u in urls:
        c.add(u)
    assert all(u in c for u in urls)  # overflow set catches kicked inserts


def test_cuckoo_roundtrip():
    from spider_ray.state.seen import CuckooSeen

    c = CuckooSeen(n_buckets=1 << 10)
    for i in range(50):
        c.add(f"u{i}")
    d = c.dump_payload()
    c2 = CuckooSeen()
    c2.restore_payload(d)
    assert all(f"u{i}" in c2 for i in range(50))
    assert "u999" not in c2


def test_shard_cuckoo_mode():
    sh = UrlSeenShard(mode="cuckoo", bloom_bits=1 << 22)
    assert sh.check_and_add(1, ["a", "b"]) == [True, True]
    assert sh.check_and_add(2, ["a", "c"]) == [False, True]
    d = sh.dump()
    sh2 = UrlSeenShard(mode="cuckoo")
    sh2.restore(d)
    assert sh2.check_and_add(3, ["a", "d"]) == [False, True]


def test_cuckoo_shared_fingerprint_discard_no_false_negative():
    # two DISTINCT urls sharing (fp, bucket) must be backed by TWO table
    # entries, so deleting one never turns the other into a false negative
    from spider_ray.state.seen import CuckooSeen

    c = CuckooSeen(n_buckets=1 << 6)  # small bucket space → collisions fast
    first_by_key: dict = {}
    pair = None
    i = 0
    while pair is None:
        u = f"https://col{i}.example/x"
        key = c._fp_h(u)
        if key in first_by_key:
            pair = (first_by_key[key], u)
        else:
            first_by_key[key] = u
        i += 1
    a, b = pair
    c.add(a)
    c.add(b)
    assert len(c) == 2  # __len__ counts insertions (= items here)
    assert c.discard(a) is True
    assert b in c  # the twin survives — duplicate fingerprints are stored
    assert len(c) == 1


def test_unknown_seen_mode_raises():
    from spider_ray.state.seen import UrlSeenShard

    with pytest.raises(ValueError):
        UrlSeenShard(mode="Exact")  # typo'd mode must not silently go bloom


def test_dump_refuses_unharvested_offers_and_restore_clears_offer_state():
    from spider_ray.state.seen import UrlSeenShard

    s = UrlSeenShard(mode="exact")
    s.offer(1, ["https://a/1"], [5])
    with pytest.raises(RuntimeError):
        s.dump()  # mid-phase snapshot would drop the pending offer
    s.harvest(1)
    snap = s.dump()

    # a shard with live offers + cached harvest restoring an older snapshot
    t = UrlSeenShard(mode="exact")
    t.offer(1, ["https://a/1"], [5])
    t.harvest(1)
    t.offer(2, ["https://b/2"], [9])
    t.restore(snap)
    out = t.harvest(2)  # post-restore timeline: nothing offered in round 2
    assert out.num_rows == 0


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
        "s.check_and_add(0, ['https://a/0'])\n"
        "s.offer(1, ['https://a/1'], [1])\n"
        "s.harvest(1)\n"
        "s.reset('bloom', 1 << 12)\n"
        "assert 'pyarrow' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True)


def test_reset_clears_state_and_switches_mode():
    s = UrlSeenShard(mode="exact")
    s.check_and_add(0, ["https://a/1"])
    s.offer(1, ["https://a/2"], [4])
    s.harvest(1)
    s.reset("bloom", 1 << 12)
    assert s.stats()["mode"] == "bloom" and s.n_items() == 0
    # neither the old seen set nor round 1's cached harvest survives
    s.offer(1, ["https://a/1", "https://a/2"], [1, 2])
    assert s.harvest(1).urls == ["https://a/1", "https://a/2"]

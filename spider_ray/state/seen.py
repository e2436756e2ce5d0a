"""Partitioned URL-seen state: actor shards holding exact sets or bloom filters.

Replaces the reference's in-run cache — a plain Python ``set`` in a decorator
closure with check-then-add claim semantics (use_cache.py:14,22-24). At the
10^10-URL design point one set per process cannot work, so the seen state is
K hash-partitioned shards held in Ray actors: shard ``i`` owns every URL
whose 64-bit routing hash is ``i`` mod K (``shard_ids_batch``); every caller
routes each URL to exactly one shard, so membership checks never race
across shards.

Claim protocol: parse tasks ``offer`` each round's candidates with their
claim keys, and after the round's last offer the driver ``harvest``s every
shard. The shard keeps the minimum key per unseen url and claims the
winners at harvest. Both steps are idempotent under Ray task retry: a
re-offered (url, key) pair cannot change a minimum, and a repeated harvest
of a round returns the same claims. Seeds and resume replays use
``bulk_add``, which only adds.

Two seen-set implementations behind one interface (``SEEN_MODES``):

- ``ExactSeen`` — a Python set; exact semantics, used at test scale and the
  default (a 256-node cluster with 64 shards × tens of GiB of heap holds
  ~10^9-10^10 URLs exactly).
- ``BloomSeen`` — a classic bloom filter over a numpy bitset (double hashing
  via blake2b, no false negatives). A false positive drops a never-seen URL
  (~p probability, sized by ``bloom_bits``/``n_hashes``) — the standard
  crawl-frontier trade (PAPERS.md bloom entries); not used where
  oracle-exact output is asserted.

Checkpointing: the shards themselves are never snapshotted. Every claimed
url sits in some round's checkpointed frontier, so resume rebuilds the
seen state by replaying those files through ``bulk_add``
(``pipelines/crawl.py:_restore``; SURVEY.md §7 hard-part 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SEEN_MODES = ("exact", "bloom")


def url_hash_batch(urls) -> np.ndarray:
    """The engine's one vectorized 64-bit url hash (pandas' C siphash via
    ``pd.util.hash_array``, fixed default key — deterministic across
    processes and runs, no ``PYTHONHASHSEED`` dependence). It routes urls
    to seen shards (offer fan-out, seed claim, resume replay) and keys the
    fetch stage's corpus index. The only invariant required: identical
    values in every process that builds or reads the same routing or index
    — guarded by hashing ``HASH_SENTINEL_URL``. Lives here, not in fetch,
    so the shard actors never import pyarrow."""
    import pandas as pd

    arr = np.asarray(urls, dtype=object)
    return pd.util.hash_array(arr, categorize=False).astype(np.uint64)


# pd.util.hash_array is a pandas implementation detail, not a stable
# contract. Hashing this sentinel url guards three skews:
#   - routing: a driver/worker pandas skew on a real cluster would route
#     the same url to DIFFERENT shards from different processes — a url
#     the driver claimed in shard A (a seed, a resume replay) would be
#     offered to shard B by a parse task and claimed again (silent
#     duplicate crawl). The driver computes ``route_sentinel()`` once and
#     ships it inside every routing closure; each worker process re-derives
#     it on first use and fails loudly on mismatch;
#   - a PERSISTED corpus index vs the current process (a pandas upgrade
#     between runs): fetch.load_corpus_ref stores the sentinel hash in the
#     npz and rebuilds on mismatch (the url is part of that file format);
#   - the corpus index builder vs a lookup worker: the sentinel hash rides
#     the broadcast payload and fetch._CorpusIndex re-derives it.
HASH_SENTINEL_URL = "spider-ray-hash-sentinel-v2"
_checked_route_sentinels: set[int] = set()


def route_sentinel() -> int:
    """This process's hash of the fixed sentinel url (driver side: capture
    into routing closures; worker side: compared on first batch)."""
    return int(url_hash_batch([HASH_SENTINEL_URL])[0])


def shard_ids_batch(urls, n_shards: int, sentinel: int | None = None) -> np.ndarray:
    """Vectorized ``shard_of`` over a batch: one C hash pass + one modulo.
    ``sentinel`` (when given) is the DRIVER's ``route_sentinel()``; checked
    once per (process, sentinel) then cached."""
    if sentinel is not None and sentinel not in _checked_route_sentinels:
        here = route_sentinel()
        if here != sentinel:
            raise RuntimeError(
                "url-routing hash skew between the driver and this worker "
                f"(driver sentinel {sentinel}, here {here}) — mixed pandas "
                "versions across the cluster would mis-route urls across "
                "seen shards (silent duplicate crawls); align the "
                "environment instead"
            )
        _checked_route_sentinels.add(sentinel)
    return (url_hash_batch(urls) % np.uint64(n_shards)).astype(np.int64)


def iter_shard_groups(urls, n_shards: int, sentinel: int | None = None):
    """Yield ``(shard_id, row_indices)`` for each non-empty shard — one
    argsort + searchsorted pass instead of a per-url dict loop. ``urls`` is
    any sequence/array of strings; indices index into it positionally."""
    sid = shard_ids_batch(urls, n_shards, sentinel)
    order = np.argsort(sid, kind="stable")
    bounds = np.searchsorted(sid[order], np.arange(n_shards + 1))
    for s in range(n_shards):
        lo, hi = bounds[s], bounds[s + 1]
        if hi > lo:
            yield s, order[lo:hi]


def shard_of(url: str, n_shards: int) -> int:
    """Scalar view of ``shard_ids_batch`` (seeds / tests / single-url
    probes) — MUST stay consistent with the batch path: both sides of a
    crawl route with it."""
    return int(shard_ids_batch([url], n_shards)[0])


class ExactSeen:
    mode = "exact"

    def __init__(self) -> None:
        self._set: set[str] = set()

    def __contains__(self, url: str) -> bool:
        return url in self._set

    def add(self, url: str) -> None:
        self._set.add(url)

    def __len__(self) -> int:
        return len(self._set)

    def state_bytes(self) -> int:
        """Approximate heap footprint of the seen structure (strings + set
        table) — the number the 10^9-url-per-shard memory story is about."""
        import sys

        return sys.getsizeof(self._set) + sum(sys.getsizeof(u) for u in self._set)


class BloomSeen:
    mode = "bloom"

    def __init__(self, bits: int = 1 << 24, n_hashes: int = 7) -> None:
        assert bits % 64 == 0
        self.bits = bits
        self.n_hashes = n_hashes
        self._arr = np.zeros(bits // 64, dtype=np.uint64)
        self._n = 0

    def _positions(self, url: str) -> np.ndarray:
        import hashlib

        d = hashlib.blake2b(url.encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(d[:8], "little")
        h2 = int.from_bytes(d[8:], "little") | 1
        return np.array(
            [(h1 + i * h2) % self.bits for i in range(self.n_hashes)], dtype=np.uint64
        )

    def __contains__(self, url: str) -> bool:
        pos = self._positions(url)
        words = self._arr[pos >> np.uint64(6)]
        masks = np.uint64(1) << (pos & np.uint64(63))
        return bool(np.all(words & masks))

    def add(self, url: str) -> None:
        pos = self._positions(url)
        # bitwise_or.at: plain fancy-indexed |= drops bits when two hash
        # positions land in the same 64-bit word (buffered assignment)
        np.bitwise_or.at(
            self._arr, pos >> np.uint64(6), np.uint64(1) << (pos & np.uint64(63))
        )
        self._n += 1

    def __len__(self) -> int:
        return self._n

    def state_bytes(self) -> int:
        return int(self._arr.nbytes)


@dataclass(eq=False)
class Claims:
    """One shard's harvest: the urls it claimed in a round and their claim
    keys, in offer order. Plain lists and numpy, never Arrow: the first
    Arrow array a fresh actor builds imports pyarrow's pandas layer, and
    returning a table makes Ray import ``ray.data`` to serialize it — about
    2 s per new actor on the first harvest of a crawl. The driver (or a
    task, on large rounds) builds the Arrow table with ``claims_table``."""

    urls: list[str]
    keys: np.ndarray  # int64, aligned with urls

    @property
    def num_rows(self) -> int:
        return len(self.urls)


def claims_table(claims: list[Claims]):
    """One ``(url, claim_key)`` Arrow table over one or more harvests, in
    list order."""
    import pyarrow as pa

    urls = [u for c in claims for u in c.urls]
    keys = np.concatenate([c.keys for c in claims])
    return pa.table(
        {"url": pa.array(urls, pa.string()), "claim_key": pa.array(keys, pa.int64())}
    )


class UrlSeenShard:
    """One hash-range shard of the URL-seen state. Run as a Ray actor
    (``ray.remote(UrlSeenShard)``); all methods are called via actor handles
    from inside ``map_batches`` tasks, which serializes access per shard."""

    def __init__(self, mode: str = "exact", bloom_bits: int = 1 << 24):
        if mode == "exact":
            self._seen = ExactSeen()
        elif mode == "bloom":
            self._seen = BloomSeen(bloom_bits)
        else:
            # a typo'd mode silently falling back to bloom would DROP urls
            # (bloom false positives) while the caller believes they ran
            # the exact-dedup contract — fail loudly instead
            raise ValueError(
                f"unknown seen mode {mode!r} (expected one of {SEEN_MODES})"
            )
        self._round = -1
        # offer/harvest state (dedup+claim fused on the shard)
        self._pending: dict[str, int] = {}
        self._harvest_round = -1
        self._harvest_result = None

    def offer(self, round_id: int, urls: list[str], keys: list[int]) -> int:
        """Phase A of the fused dedup+claim: accumulate the per-url MIN
        claim_key among this round's candidates routed to this shard.
        Replaces a global ``groupby(url).min(claim_key)`` shuffle — the shard
        sees every copy of its urls, so a C-level dict-min is exact and an
        order of magnitude cheaper (measured 6.5s → ~1s at 10^6 candidates).
        Idempotent under task retry: re-offering the same (url, key) pairs
        cannot change a min."""
        if round_id != self._round:
            self._round = round_id
            self._pending = {}
        pend = self._pending
        seen = self._seen
        for u, k in zip(urls, keys):
            cur = pend.get(u)
            if cur is None:
                if u not in seen:
                    pend[u] = k
            elif k < cur:
                pend[u] = k
        return len(urls)

    def harvest(self, round_id: int) -> Claims:
        """Phase B (after ALL offers of the round): claim every pending url
        and return the shard's (url, claim_key) winners as ``Claims``.
        Idempotent per round (resume-safe: a second harvest returns the same
        record without re-claiming)."""
        if round_id == self._harvest_round and self._harvest_result is not None:
            return self._harvest_result
        urls = list(self._pending.keys())
        keys = np.fromiter(self._pending.values(), dtype=np.int64, count=len(urls))
        for u in urls:
            self._seen.add(u)
        self._pending = {}
        self._harvest_round = round_id
        self._harvest_result = Claims(urls, keys)
        return self._harvest_result

    def reset(self, mode: str = "exact", bloom_bits: int = 1 << 24) -> None:
        """Back to a freshly constructed shard, possibly of another mode — a
        pooled actor serves one crawl after another (pipelines/crawl.py)."""
        self.__init__(mode, bloom_bits)

    def bulk_add(self, urls: list[str]) -> int:
        """Add urls outside the offer/harvest protocol: the seed claim and
        the resume replay of checkpointed frontiers. Idempotent."""
        for u in urls:
            if u not in self._seen:
                self._seen.add(u)
        return len(self._seen)

    def n_items(self) -> int:
        return len(self._seen)

    def stats(self) -> dict:
        """Shard observability (the M9 metrics family, per-shard view):
        item count, seen-structure heap bytes, and the actor process RSS —
        the evidence row for the bloom-vs-exact memory story at the
        10^9-urls-per-shard tier."""
        rss = 0
        try:
            with open("/proc/self/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        rss = int(line.split()[1]) * 1024
                        break
        except OSError:
            pass
        return {
            "mode": self._seen.mode,
            "n_items": len(self._seen),
            "state_bytes": self._seen.state_bytes(),
            "rss_bytes": rss,
        }

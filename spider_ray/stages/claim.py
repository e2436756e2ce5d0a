"""Claim-key encoding: the crawl's first-wins ordering as ONE int64.

A candidate's claim priority is the lexicographic triple
``(depth, parent_rank, link_pos)`` (SURVEY.md §3.1). Packing it into a single
int64 turns the per-round first-wins dedup into a plain per-url minimum of
one integer (the seen shards' ``offer``/``harvest``) with no row join-back,
because the winning row's depth/parent_rank/link_pos are all recoverable
from the key itself.

Bit layout (63 bits used, sign bit clear so int64 ordering == priority):
  depth: 7 bits (max crawl depth 127)
  parent_rank: 42 bits (~4.4e12 — covers the 10^10-URL design point)
  link_pos: 14 bits (links beyond 16382 per page are truncated; the
  reference would schedule them, but a page with >16k outlinks is spam by
  any crawl policy — documented engine deviation, never hit by the corpus)
"""

from __future__ import annotations

import numpy as np

DEPTH_BITS = 7
RANK_BITS = 42
POS_BITS = 14
MAX_DEPTH = (1 << DEPTH_BITS) - 1
MAX_RANK = (1 << RANK_BITS) - 1
MAX_POS = (1 << POS_BITS) - 1


def encode(depth: int, parent_rank: int, link_pos: int) -> int:
    assert 0 <= depth <= MAX_DEPTH and 0 <= parent_rank <= MAX_RANK
    return (depth << (RANK_BITS + POS_BITS)) | (parent_rank << POS_BITS) | min(
        link_pos, MAX_POS
    )


def decode_depth(keys: np.ndarray) -> np.ndarray:
    return (keys >> (RANK_BITS + POS_BITS)).astype(np.int32)


def decode_parent_rank(keys: np.ndarray) -> np.ndarray:
    return (keys >> POS_BITS) & MAX_RANK


def decode_link_pos(keys: np.ndarray) -> np.ndarray:
    return (keys & MAX_POS).astype(np.int32)

"""Parse + store-write + link-expand stage: the crawl's single heavy pass.

One streaming ``map_batches`` pass per round does all per-page work
(reference equivalents: parse crawler.py:157-172, save crawler.py:106-112,
link generation crawler.py:140-154):

  in:  fetched rows ``(url, depth, rank, html)``
  side effect: the batch's store rows ``(url, title, parent, text, depth,
      discovery_rank)`` are written as one parquet part file into this
      round's store directory (tmp-file + rename, so readers never see
      partials). Writing inside the stage instead of a second
      ``write_parquet`` pipeline avoids re-running the parse (Ray Data
      datasets re-execute per consumption) and keeps the round single-pass.
  candidates: ``(url, claim_key)`` — one per extracted link of pages with
      ``depth < max_depth`` (depth gate, crawler.py:114-115), already
      canonicalized and quirk-filtered (canonical.generate_refs), then
      robots-gated.
  out: one ``(crawled, candidates)`` count row per batch, the candidates
      having been offered to the seen shards; or, for the no-cache crawl,
      the candidate rows themselves.

The store part file is the reference's fire-and-forget ``db.save``
(crawler.py:106-112) made durable AND retry-idempotent: the part file name
is derived from the batch's content (md5 of its discovery_ranks — globally
unique within a crawl), so a task retried by Ray after its rename rewrites
the SAME file via tmp+rename instead of duplicating rows.
``store_ops.finalize_store`` remains as a belt-and-braces net for exactness
under adversarial failure modes (e.g. a retry that re-batches differently).

The parse (``parse.parse_page``) is per-document: a regex fast path on
plain pages and stdlib ``html.parser`` on the rest; the loop is over a batch
inside one task, with everything around it (take/filter/encode) vectorized
Arrow.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from spider_ray.canonical import generate_refs
from spider_ray.parse import parse_page
from spider_ray.stages import claim

STORE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("title", pa.string()),
        ("parent", pa.string()),
        ("text", pa.string()),
        ("depth", pa.int32()),
        ("discovery_rank", pa.int64()),
    ]
)

CANDIDATE_SCHEMA = pa.schema([("url", pa.string()), ("claim_key", pa.int64())])


COUNTS_SCHEMA = pa.schema([("crawled", pa.int64()), ("candidates", pa.int64())])


def _robots_keep(urls: list[str], keys: list[int], rules) -> tuple[list[str], list[int]]:
    """Inline robots gate over canonical candidate urls — the VECTORIZED
    batch form of the oracle's ``robots_allows`` (robots.robots_keep_mask,
    pinned equal to the oracle rule on randomized rules), so the per-link
    hot path pays arrow kernels, not one interpreter call per candidate."""
    from spider_ray.robots import robots_keep_mask

    if not urls:
        return urls, keys
    mask = robots_keep_mask(pa.array(urls, pa.string()), rules)
    if mask.all():
        return urls, keys
    idx = np.flatnonzero(mask)
    return (
        [urls[i] for i in idx],
        np.asarray(keys, dtype=np.int64)[idx].tolist(),
    )


def make_parse_store_expand(
    start_url: str,
    parent_value: str,
    max_depth: int,
    store_dir: str,
    offer_to=None,
    robots_rules=None,
):
    """The round's one ``map_batches`` stage. Candidate links pass the
    robots gate (``robots_rules``) inline. With
    ``offer_to=(shards, round_id, n_shards, route_sentinel)`` they are then
    routed straight to the seen shards (UrlSeenShard.offer) and only
    per-batch COUNTS flow downstream — the whole round body (fetch → parse
    → store write → robots → dedup offer) is ONE streaming execution with
    no candidate blocks in the object store. With ``offer_to=None`` (the
    no-cache crawl, which claims nothing) the candidate rows themselves are
    the output."""

    def parse_store_expand(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        depths = batch.column("depth").to_pylist()
        ranks = batch.column("rank").to_pylist()
        htmls = batch.column("html").to_pylist()

        titles: list[str | None] = []
        texts: list[str] = []
        cand_urls: list[str] = []
        cand_keys: list[int] = []
        for url, depth, rank, html in zip(urls, depths, ranks, htmls):
            title, body, hrefs = parse_page(html)
            titles.append(title)
            texts.append(body)
            if depth < max_depth:
                for pos, child in enumerate(generate_refs(hrefs, start_url)):
                    cand_urls.append(child)
                    cand_keys.append(claim.encode(depth + 1, rank, pos))

        if robots_rules:
            cand_urls, cand_keys = _robots_keep(cand_urls, cand_keys, robots_rules)

        if urls:
            store = pa.Table.from_arrays(
                [
                    pa.array(urls, pa.string()),
                    pa.array(titles, pa.string()),
                    pa.array([parent_value] * len(urls), pa.string()),
                    pa.array(texts, pa.string()),
                    pa.array(np.asarray(depths, dtype=np.int32)),
                    pa.array(np.asarray(ranks, dtype=np.int64)),
                ],
                schema=STORE_SCHEMA,
            )
            # deterministic per-batch name: ranks are unique across the
            # crawl, so a retried task OVERWRITES its own part instead of
            # duplicating it (and distinct batches can never collide)
            digest = hashlib.md5(
                np.asarray(ranks, dtype=np.int64).tobytes()
            ).hexdigest()
            name = f"part-{digest}.parquet"
            tmp = os.path.join(store_dir, f".{name}.tmp")
            pq.write_table(store, tmp)
            os.replace(tmp, os.path.join(store_dir, name))

        if offer_to is not None:
            import ray

            from spider_ray.state.seen import iter_shard_groups

            shards, round_id, n_shards, sentinel = offer_to
            if cand_urls:
                # LOCAL min-key dedup before offering: a batch's links
                # heavily overlap (sequential pages of one host link into
                # the same neighborhood), and the shard actors' per-offer
                # work is the round's one non-scaling component — shrinking
                # the offered volume in the (scaling) parse tasks preserves
                # the result exactly, because offer() itself accumulates
                # the min key per url. Vectorized: pd.factorize (C hash
                # table, O(n) — np.unique on object strings python-sorts
                # and measured 5x slower than even the old dict loop) +
                # minimum.at for the per-url min, then one hash pass for
                # shard routing.
                import pandas as pd

                k_arr = np.asarray(cand_keys, dtype=np.int64)
                codes, uniq = pd.factorize(
                    np.asarray(cand_urls, dtype=object), sort=False
                )
                uniq = np.asarray(uniq, dtype=object)
                mins = np.full(len(uniq), np.iinfo(np.int64).max, dtype=np.int64)
                np.minimum.at(mins, codes, k_arr)
                ray.get(
                    [
                        shards[s].offer.remote(
                            round_id, uniq[rows].tolist(), mins[rows].tolist()
                        )
                        for s, rows in iter_shard_groups(uniq, n_shards, sentinel)
                    ]
                )
            return pa.Table.from_arrays(
                [
                    pa.array([len(urls)], pa.int64()),
                    pa.array([len(cand_urls)], pa.int64()),
                ],
                schema=COUNTS_SCHEMA,
            )

        return pa.Table.from_arrays(
            [
                pa.array(cand_urls, pa.string()),
                pa.array(np.asarray(cand_keys, dtype=np.int64)),
            ],
            schema=CANDIDATE_SCHEMA,
        )

    return parse_store_expand


_HOST_RE = r"^[a-zA-Z][a-zA-Z0-9+.-]*://(?:[^/?#@]*@)?(?P<host>[^/?#:@]+)"


def add_host_column(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """Vectorized host extraction matching ``canonical.host_of`` exactly
    (lower-case, NO port, no userinfo) — the politeness/budget identity must
    be one key everywhere: seeds, candidates, robots rules and the oracle
    all use the portless host."""
    import pyarrow.compute as pc

    m = pc.extract_regex(batch.column(url_col), _HOST_RE)
    host = pc.struct_field(m, "host")
    return batch.append_column("host", pc.fill_null(host, ""))

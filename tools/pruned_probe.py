#!/usr/bin/env python
"""Pruned-read evidence for ``fetch_mode="partitioned"`` (BASELINE.md round 5).

For a frontier batch of urls over one or more hosts, count the parquet
files, row groups and bytes that survive the partitioned fetch's predicate
(``stages.fetch.frontier_filter``, the one the engine builds per batch) via
parquet STATISTICS (``fragment.split_by_row_group``) against the whole
corpus — deterministic pruning evidence with no page-cache noise, the same
file/row-group pruning ``pyarrow.dataset`` applies inside
``stages.fetch.fetch_partitioned``.

Usage: python tools/pruned_probe.py [corpus_dir] [hosts] [n_urls]
``hosts`` is a comma-separated list (e.g. ``h7`` or ``h2,h9``); the batch
holds ``n_urls`` urls of each. Defaults match the bench corpus at
/tmp/spider_ray_bench/corpus_p3000000.
"""
import json
import os
import sys

import pyarrow.dataset as pads

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from spider_ray.stages.fetch import frontier_filter  # noqa: E402

CORPUS = sys.argv[1] if len(sys.argv) > 1 else "/tmp/spider_ray_bench/corpus_p3000000"
HOSTS = (sys.argv[2] if len(sys.argv) > 2 else "h7").split(",")
N_URLS = int(sys.argv[3]) if len(sys.argv) > 3 else 1000

dset = pads.dataset(CORPUS)

# an N-url frontier slice per host, as one batch of the partitioned fetch
urls = [f"https://{h}.example/p{j}" for h in HOSTS for j in range(0, N_URLS * 5, 5)]
flt = frontier_filter(urls, [u.split("/")[2] for u in urls])

total_files = total_rgs = total_bytes = 0
kept_files = kept_rgs = kept_bytes = 0
for frag in dset.get_fragments():
    frag.ensure_complete_metadata()
    total_files += 1
    total_rgs += len(frag.row_groups)
    total_bytes += sum(rg.total_byte_size for rg in frag.row_groups)
    kept = [rg for piece in frag.split_by_row_group(flt) for rg in piece.row_groups]
    kept_files += bool(kept)
    kept_rgs += len(kept)
    kept_bytes += sum(rg.total_byte_size for rg in kept)

print(
    json.dumps(
        {
            "hosts": HOSTS,
            "frontier_urls": len(urls),
            "corpus_files": total_files,
            "corpus_row_groups": total_rgs,
            "corpus_bytes": total_bytes,
            "surviving_files": kept_files,
            "surviving_row_groups": kept_rgs,
            "surviving_bytes": kept_bytes,
            "bytes_fraction": round(kept_bytes / total_bytes, 6),
        }
    )
)

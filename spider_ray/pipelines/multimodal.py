"""Multimodal-column plumbing: opaque binary payloads + typed metadata.

Image/audio/video columns are treated as opaque ``binary`` with metadata
columns; decode/feature-extract run as actor-pool ``map_batches`` stages
(state — a decoder/model — initialized once per actor). No image/audio
libraries exist in this environment, so the DECODE KERNEL is stubbed:

- ``decode_image`` raises ``NotImplementedError`` — the seam where a real
  decoder (PIL/torchvision/ffmpeg) plugs in;
- ``FakeDecoder`` produces deterministic pseudo-metadata (dims derived from
  the md5 of the payload — md5 so a DuckDB oracle recomputes them via
  ``md5_number_lower``) so the Ray-side plumbing — schema, batch sizing,
  actor signature, output layout — is real and tested end-to-end.

Batch sizing note for real payloads: images/audio are MBs per row — pass a
SMALL ``batch_size`` (e.g. 32) and let ``concurrency × batch_size × row
size`` bound per-actor heap; blocks of wide binary rows also warrant a lower
``DataContext.target_max_block_size``.

The actor pools scale between one and two one-CPU actors
(``concurrency=(1, 2)``): a fixed pool of two never returned on a 2-CPU
session. A 1-CPU session still does not return.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
from ray.data import Dataset


def decode_image(payload: bytes) -> "np.ndarray":
    """The real-decoder seam. Not available in this environment."""
    raise NotImplementedError(
        "image decoding requires an image library not present in this "
        "environment; plug a decoder in here and FakeDecoder stays the "
        "schema contract"
    )


class FakeDecoder:
    """Actor-pool stage: binary payload → deterministic metadata row.

    __init__ = per-actor setup (where a real model/decoder would load);
    __call__ = per-batch work."""

    def __init__(self) -> None:
        self.calls = 0  # stands in for loaded-model state

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        # md5 low 64 bits, defined as DuckDB md5_number_lower (digest bytes
        # 8..16 little-endian) so the dims are ANSI-SQL-recomputable
        hs = np.array(
            [
                int.from_bytes(hashlib.md5(p).digest()[8:16], "little")
                for p in payloads
            ],
            dtype=np.uint64,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload_bytes": pa.array([len(p) for p in payloads], pa.int64()),
                "width": pa.array((hs % 1024 + 1).astype(np.int64)),
                "height": pa.array(((hs >> 10) % 1024 + 1).astype(np.int64)),
            }
        )


def docs_as_payloads(sf_dir: str) -> Dataset:
    """Stand-in multimodal table: documents.text utf-8-encoded as the opaque
    binary payload column (the driver testdata has no real binary column)."""
    from spider_ray.blockutil import read_clean_parquet

    ds = read_clean_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def enc(batch: pa.Table) -> pa.Table:
        # Arrow string storage IS the utf-8 bytes: the string→binary cast
        # reuses the buffers (no per-row encode loop)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload": batch.column("text").cast(pa.binary()),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow")


def payload_bytes(sf_dir: str) -> Dataset:
    """Oracle-checked projection of the binary column: byte length per doc."""
    ds = docs_as_payloads(sf_dir)

    def f(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload_bytes": pa.compute.binary_length(batch.column("payload")).cast(
                    pa.int64()
                ),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def image_meta_stub(sf_dir: str) -> Dataset:
    """The full actor-pool decode pipeline over the stand-in payloads
    (small batches — the real-payload sizing discipline)."""
    return docs_as_payloads(sf_dir).map_batches(
        FakeDecoder,
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 2),
        num_cpus=1,
    )


class FrameSampler:
    """Actor-pool stage: video payload → one row per SAMPLED frame.

    A real implementation holds an ffmpeg/decord handle in ``__init__`` and
    decodes every ``every``-th frame in ``__call__``. The deterministic fake
    derives the frame count from the payload length (``len % 24 + 1``) and
    fingerprints each kept frame with ``md5(payload + b'#' + index)`` so a
    DuckDB ``LATERAL generate_series`` oracle recomputes the exact output.
    The expansion (one input row → many output rows) is done batch-side with
    ``take`` on the original doc_id column, so upstream dtypes pass through
    untouched and blocks grow by at most ``MAX_FRAMES/every``×."""

    MAX_FRAMES = 24

    def __init__(self, every: int = 3) -> None:
        self.every = every  # a real decoder/session handle would live here

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        take_idx: list[int] = []
        frame_idx: list[int] = []
        fps: list[str] = []
        for r, p in enumerate(payloads):
            n = len(p) % self.MAX_FRAMES + 1
            for i in range(0, n, self.every):
                take_idx.append(r)
                frame_idx.append(i)
                fps.append(hashlib.md5(p + b"#%d" % i).hexdigest())
        return pa.table(
            {
                "doc_id": batch.column("doc_id").take(pa.array(take_idx, pa.int64())),
                "frame_idx": pa.array(frame_idx, pa.int64()),
                "frame_fp": pa.array(fps, pa.string()),
            }
        )


def frame_sample(sf_dir: str, every: int = 3, restartable: bool = True) -> Dataset:
    """Video-style frame sampling over the stand-in payload column.

    ``restartable=False`` pins ``max_restarts=0`` on the actor pool: Ray
    fuses the upstream ``enc`` task stage into the pool and ships the fused
    transformer as an object-store constructor arg, which makes every
    RESTARTABLE pool log an E-level actor-restart caveat (ray#53727) even
    though nothing failed. The library default keeps restarts ON (the
    fault-tolerant choice on a real cluster); the bench harness opts out so
    its stderr tail stays clean — the stub actor is stateless and a bench
    rep would rather fail loudly than restart."""
    # ctor kwargs only when non-default: Ray puts fn_constructor_kwargs in
    # the object store and logs the same ray#53727 caveat for every
    # restartable pool that carries them
    kwargs = {"fn_constructor_kwargs": {"every": every}} if every != 3 else {}
    if not restartable:
        kwargs["max_restarts"] = 0
        kwargs["max_task_retries"] = 0
    return docs_as_payloads(sf_dir).map_batches(
        FrameSampler,
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 2),
        num_cpus=1,
        **kwargs,
    )


def resize_plan(sf_dir: str, max_dim: int = 256) -> Dataset:
    """Integer resize plan over the decoded dims: clamp the longest side to
    ``max_dim`` preserving aspect ratio (floor division, min 1px) — the
    arithmetic a real resize stage would hand its kernel. Fully vectorized;
    the oracle recomputes it with SQL CASE + ``//``."""
    ds = image_meta_stub(sf_dir)

    def f(batch: pa.Table) -> pa.Table:
        w = batch.column("width").to_numpy()
        h = batch.column("height").to_numpy()
        big = np.maximum(w, h) > max_dim
        landscape = w >= h
        out_w = np.where(
            ~big, w, np.where(landscape, max_dim, np.maximum(1, (w * max_dim) // h))
        )
        out_h = np.where(
            ~big, h, np.where(landscape, np.maximum(1, (h * max_dim) // w), max_dim)
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "width": batch.column("width"),
                "height": batch.column("height"),
                "out_w": pa.array(out_w.astype(np.int64)),
                "out_h": pa.array(out_h.astype(np.int64)),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


class AudioProbe:
    """Actor-pool stage: audio payload → deterministic feature row
    (duration at a fake 16 kB/s rate, quantized RMS and channel count
    derived from the md5 so DuckDB recomputes them via md5_number_lower)."""

    def __init__(self) -> None:
        self.bytes_per_ms = 16  # a real probe would open a soundfile backend

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        hs = np.array(
            [int.from_bytes(hashlib.md5(p).digest()[8:16], "little") for p in payloads],
            dtype=np.uint64,
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "duration_ms": pa.array(
                    [len(p) // 16 for p in payloads], pa.int64()
                ),
                "rms_q": pa.array((hs % 10000).astype(np.int64)),
                "channels": pa.array(((hs >> np.uint64(20)) % 2 + 1).astype(np.int64)),
            }
        )


def audio_meta_stub(sf_dir: str) -> Dataset:
    """Audio feature extraction over the stand-in payloads."""
    return docs_as_payloads(sf_dir).map_batches(
        AudioProbe,
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 2),
        num_cpus=1,
    )

"""Multimodal columns: image / audio / video as opaque binary + typed metadata.

Large-scale training pipelines carry media payloads next to text. This module
provides the Ray-side plumbing — schemas, batch sizing, task stage
signatures, output layout — with the codec boundary isolated behind
``_decode_*`` functions:

- if a real codec library is importable (PIL for images — NOT present in
  this container), it is used;
- otherwise the deterministic **SyntheticMedia** format below is decoded
  (real parsing of a real byte layout — only the external codecs are
  stubbed). Unknown formats raise ``NotImplementedError`` inside the kernel
  and become error ROWS (failure-is-data), never task crashes.

SyntheticMedia byte layouts (deterministic, generated from integer seeds):

- image: ``b"SIMG" | u16 width | u16 height | u8 channels | payload``
  where payload[i] = (seed*31 + i*7) % 256 — row-major interleaved.
- audio: ``b"SAUD" | u32 sample_rate | u32 n_samples | payload`` of u8
  samples, payload[i] = (seed*17 + i*13) % 256.
- video: ``b"SVID" | u16 n_frames | u16 width | u16 height | frames`` where
  each frame is a 1-channel image payload.

Memory posture (the part that matters at 100 TB): media rows are large, so
these stages run with SMALL ``batch_size`` (default 16) and the block size
budget is payload-aware — a batch of 16 x 8 MB rows = 128 MB per task in
flight, matching the default target block size. Ray runs up to one task per
CPU, so decoded payload in worker heaps is bounded by 128 MB per CPU. Feature outputs are small
fixed-width columns, so downstream stages re-batch freely.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

import ray.data as rd
from ray.data import Dataset

from ..functions.rounding import py_round
from .dedup import typed_map

DEFAULT_MEDIA_BATCH = 16  # large binary rows: keep batch x payload <= block budget


# ---------------------------------------------------------------------------
# synthetic codec (deterministic byte formats; the container has no PIL/ffmpeg)
# ---------------------------------------------------------------------------

def encode_image(seed: int, width: int, height: int, channels: int = 3) -> bytes:
    n = width * height * channels
    payload = ((seed * 31 + np.arange(n, dtype=np.int64) * 7) % 256).astype(np.uint8)
    return b"SIMG" + struct.pack("<HHB", width, height, channels) + payload.tobytes()


def encode_audio(seed: int, sample_rate: int, n_samples: int) -> bytes:
    payload = ((seed * 17 + np.arange(n_samples, dtype=np.int64) * 13) % 256).astype(np.uint8)
    return b"SAUD" + struct.pack("<II", sample_rate, n_samples) + payload.tobytes()


def encode_video(seed: int, n_frames: int, width: int, height: int) -> bytes:
    frames = []
    for f in range(n_frames):
        n = width * height
        frames.append(((seed * 31 + f * 101 + np.arange(n, dtype=np.int64) * 7) % 256)
                      .astype(np.uint8).tobytes())
    return b"SVID" + struct.pack("<HHH", n_frames, width, height) + b"".join(frames)


def _decode_image(payload: bytes) -> np.ndarray:
    """bytes -> HxWxC uint8 array. PIL path first; synthetic format second."""
    if payload[:4] != b"SIMG":
        try:  # pragma: no cover - PIL absent in this container
            import io

            from PIL import Image  # noqa: F401
        except ImportError:
            raise NotImplementedError(
                "real image codecs unavailable (PIL not installed); "
                "only SyntheticMedia SIMG payloads decodable"
            )
        try:
            return np.asarray(Image.open(io.BytesIO(payload)))
        except Exception as e:  # noqa: BLE001 — PIL raises assorted OSErrors
            raise ValueError(f"image decode failed: {e}") from e
    width, height, channels = struct.unpack_from("<HHB", payload, 4)
    data = np.frombuffer(payload, dtype=np.uint8, offset=9)
    if len(data) != width * height * channels:
        raise ValueError("SIMG payload length mismatch")
    return data.reshape(height, width, channels)


def _decode_audio(payload: bytes) -> tuple[int, np.ndarray]:
    if payload[:4] != b"SAUD":
        raise NotImplementedError("real audio codecs unavailable; SAUD only")
    sample_rate, n = struct.unpack_from("<II", payload, 4)
    data = np.frombuffer(payload, dtype=np.uint8, offset=12)
    if len(data) != n:
        raise ValueError("SAUD payload length mismatch")
    return sample_rate, data


def _decode_video_frame_count(payload: bytes) -> tuple[int, int, int]:
    if payload[:4] != b"SVID":
        raise NotImplementedError("real video codecs unavailable; SVID only")
    return struct.unpack_from("<HHH", payload, 4)


# ---------------------------------------------------------------------------
# task stages
# ---------------------------------------------------------------------------

class ImageFeatures:
    """payload -> (width, height, channels, mean_pixel, std_pixel).

    Small batches: payloads are the large thing, outputs are 5 scalars.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"media_id": [], "width": [], "height": [], "channels": [],
               "mean_pixel": [], "std_pixel": [], "error": []}
        for mid, payload in zip(batch.column("media_id").to_pylist(),
                                batch.column("payload").to_pylist()):
            out["media_id"].append(mid)
            try:
                img = _decode_image(payload)
                h, w, c = img.shape
                out["width"].append(w)
                out["height"].append(h)
                out["channels"].append(c)
                # closed-form moments over EXACT integer sums (pixel sums
                # < 2^53 are exact doubles), evaluated in the same float64
                # expression order as the SQL oracle (avg(v*v) - avg(v)^2)
                # so the rounded values are bit-identical; shared half-away
                # rounding, not builtin half-even
                n = img.size
                s1 = int(img.sum(dtype=np.int64))
                s2 = int((img.astype(np.int64) ** 2).sum())
                mean = s1 / n
                var = s2 / n - mean * mean
                out["mean_pixel"].append(py_round(mean, 4))
                out["std_pixel"].append(py_round(float(np.sqrt(max(var, 0.0))), 4))
                out["error"].append(None)
            except (NotImplementedError, ValueError, struct.error) as e:
                out["width"].append(None)
                out["height"].append(None)
                out["channels"].append(None)
                out["mean_pixel"].append(None)
                out["std_pixel"].append(None)
                out["error"].append(str(e))
        return pa.table({
            "media_id": pa.array(out["media_id"], pa.int64()),
            "width": pa.array(out["width"], pa.int32()),
            "height": pa.array(out["height"], pa.int32()),
            "channels": pa.array(out["channels"], pa.int32()),
            "mean_pixel": pa.array(out["mean_pixel"], pa.float64()),
            "std_pixel": pa.array(out["std_pixel"], pa.float64()),
            "error": pa.array(out["error"], pa.string()),
        })


class ImageResize:
    """payload -> re-encoded payload downscaled by integer stride so the
    longest side fits ``max_side`` (the reference clamps vision payloads to
    2048 px longest side, extraction.py:74-86 — same shape of stage)."""

    def __init__(self, max_side: int = 64) -> None:
        self.max_side = max_side

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, payloads, errors = [], [], []
        for mid, payload in zip(batch.column("media_id").to_pylist(),
                                batch.column("payload").to_pylist()):
            ids.append(mid)
            try:
                img = _decode_image(payload)
                h, w, c = img.shape
                stride = max(1, -(-max(h, w) // self.max_side))  # ceil div
                small = np.ascontiguousarray(img[::stride, ::stride, :])
                nh, nw, _ = small.shape
                payloads.append(
                    b"SIMG" + struct.pack("<HHB", nw, nh, c) + small.tobytes()
                )
                errors.append(None)
            except (NotImplementedError, ValueError, struct.error) as e:
                payloads.append(None)
                errors.append(str(e))
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "error": pa.array(errors, pa.string()),
        })


class AudioFeatures:
    """payload -> (sample_rate, n_samples, duration_s, rms)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"media_id": [], "sample_rate": [], "n_samples": [],
               "duration_s": [], "rms": [], "error": []}
        for mid, payload in zip(batch.column("media_id").to_pylist(),
                                batch.column("payload").to_pylist()):
            out["media_id"].append(mid)
            try:
                rate, data = _decode_audio(payload)
                if rate <= 0 or len(data) == 0:
                    # structurally valid header, degenerate content: a
                    # ZeroDivisionError below would kill the TASK, not the
                    # row — failure-is-data (review finding)
                    raise ValueError(
                        f"degenerate audio: rate={rate} n={len(data)}")
                # exact integer sum of squares -> float64 mean: matches the
                # SQL oracle's avg(c*c) bit-for-bit; shared half-away rounding
                sq = int(((data.astype(np.int64) - 128) ** 2).sum())
                out["sample_rate"].append(rate)
                out["n_samples"].append(len(data))
                out["duration_s"].append(py_round(len(data) / rate, 4))
                out["rms"].append(py_round(float(np.sqrt(sq / len(data))), 4))
                out["error"].append(None)
            except (NotImplementedError, ValueError, struct.error) as e:
                out["sample_rate"].append(None)
                out["n_samples"].append(None)
                out["duration_s"].append(None)
                out["rms"].append(None)
                out["error"].append(str(e))
        return pa.table({
            "media_id": pa.array(out["media_id"], pa.int64()),
            "sample_rate": pa.array(out["sample_rate"], pa.int32()),
            "n_samples": pa.array(out["n_samples"], pa.int64()),
            "duration_s": pa.array(out["duration_s"], pa.float64()),
            "rms": pa.array(out["rms"], pa.float64()),
            "error": pa.array(out["error"], pa.string()),
        })


class VideoFrameSampler:
    """payload -> one row PER SAMPLED FRAME (flat_map-shaped output):
    every ``stride``-th frame re-encoded as a standalone SIMG payload."""

    def __init__(self, stride: int = 10) -> None:
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frames, payloads = [], [], []
        for mid, payload in zip(batch.column("media_id").to_pylist(),
                                batch.column("payload").to_pylist()):
            try:
                n_frames, w, h = _decode_video_frame_count(payload)
            except (NotImplementedError, ValueError, struct.error):
                continue  # undecodable video: contributes no frames
            frame_bytes = w * h
            for f in range(0, n_frames, self.stride):
                off = 10 + f * frame_bytes
                ids.append(mid)
                frames.append(f)
                payloads.append(
                    b"SIMG" + struct.pack("<HHB", w, h, 1)
                    + payload[off:off + frame_bytes]
                )
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "frame_index": pa.array(frames, pa.int32()),
            "payload": pa.array(payloads, pa.binary()),
        })


# ---------------------------------------------------------------------------
# synthetic media corpus + pipelines
# ---------------------------------------------------------------------------

def synthesize_media_batch(batch: pa.Table) -> pa.Table:
    """documents batch -> media table (one media row per doc, type cycled
    by doc_id % 3; dimensions derived from doc_id — deterministic)."""
    import json

    ids = batch.column("doc_id").to_pylist()
    out = {"media_id": [], "media_type": [], "payload": [], "meta_json": []}
    for d in ids:
        out["media_id"].append(d)
        kind = d % 3
        if kind == 0:
            w, h = 16 + d % 48, 16 + (d * 7) % 48
            out["media_type"].append("image")
            out["payload"].append(encode_image(d, w, h, 3))
            out["meta_json"].append(json.dumps({"width": w, "height": h}))
        elif kind == 1:
            n = 1000 + (d * 37) % 4000
            out["media_type"].append("audio")
            out["payload"].append(encode_audio(d, 16000, n))
            out["meta_json"].append(json.dumps({"n_samples": n}))
        else:
            nf = 5 + d % 20
            out["media_type"].append("video")
            out["payload"].append(encode_video(d, nf, 16, 12))
            out["meta_json"].append(json.dumps({"n_frames": nf}))
    return pa.table({
        "media_id": pa.array(out["media_id"], pa.int64()),
        "media_type": pa.array(out["media_type"], pa.string()),
        "payload": pa.array(out["payload"], pa.binary()),
        "meta_json": pa.array(out["meta_json"], pa.string()),
    })


_KIND_RESIDUE = {"image": 0, "audio": 1, "video": 2}


def _of_kind(b: pa.Table, kind: str) -> pa.Table:
    """A documents block's rows whose media type is ``kind``."""
    ids = b.column("doc_id").to_numpy(zero_copy_only=False)
    return b.filter(pa.array(ids % 3 == _KIND_RESIDUE[kind]))


def media_dataset(sf_dir: str, kind: str | None = None) -> Dataset:
    """Synthesize the media table; with ``kind``, prefilter doc_ids BEFORE
    encoding so only the requested lane pays the encode cost (review
    finding: filtering after synthesis wasted 2/3 of the work)."""
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    if kind is not None:
        docs = docs.map_batches(lambda b: _of_kind(b, kind),
                                batch_format="pyarrow")
    return docs.map_batches(synthesize_media_batch, batch_format="pyarrow",
                            batch_size=DEFAULT_MEDIA_BATCH * 8)


def image_features(sf_dir: str) -> Dataset:
    """``ImageFeatures`` of the image rows, typed on zero rows: one
    ``typed_map`` over the documents read keeps the image rows, then
    synthesizes and decodes ``DEFAULT_MEDIA_BATCH`` of them at a time."""
    kernel = ImageFeatures()

    def features(b: pa.Table) -> pa.Table:
        b = _of_kind(b, "image")
        return pa.concat_tables([
            kernel(synthesize_media_batch(b.slice(i, DEFAULT_MEDIA_BATCH)))
            for i in range(0, max(b.num_rows, 1), DEFAULT_MEDIA_BATCH)])

    return typed_map(rd.read_parquet(f"{sf_dir}/documents.parquet",
                                     columns=["doc_id"]), features)


def audio_features(sf_dir: str) -> Dataset:
    ds = media_dataset(sf_dir, kind="audio")
    return ds.map_batches(AudioFeatures(), batch_format="pyarrow",
                          batch_size=DEFAULT_MEDIA_BATCH)


def video_frames(sf_dir: str, *, stride: int = 10) -> Dataset:
    ds = media_dataset(sf_dir, kind="video")
    return ds.map_batches(VideoFrameSampler(stride), batch_format="pyarrow",
                          batch_size=DEFAULT_MEDIA_BATCH)

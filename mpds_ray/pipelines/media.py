"""Multimodal decode query surface (large-scale-pipeline brief: multimodal
binary columns as first-class operators).

The driver testdata ships no media table, so the query synthesizes one
deterministically (seeded; REAL binary PPM, WAV and y4m payloads) and runs
the REAL decoders over it: netpbm images and y4m video decode in pure numpy,
WAV/PCM audio through the stdlib ``wave`` module (stages/multimodal.py).
Each decoder runs on ``shard_map`` with one task per fixed slice of at most
``SLICE_ROWS`` rows (payload bytes dominate, so slices stay small). The
oracle is an independent golden built by looping the codec functions
directly, with no Ray (oracle/independent.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.exchange import shard_map
from ..stages.multimodal import decode_audio, decode_image, sample_frames, synth_media_table

MEDIA_N = 96
MEDIA_SEED = 13
SLICE_ROWS = 16


def decode_rows(decode, t: pa.Table, what: str) -> pd.DataFrame:
    """``decode`` over ``t``, one task per slice of at most ``SLICE_ROWS``
    rows; the frames are concatenated in row order under
    ``DRIVER_ROOT_ROW_CAP`` (``what`` names the query in the over-cap
    error)."""
    slices = [t.slice(i, SLICE_ROWS) for i in range(0, t.num_rows, SLICE_ROWS)]
    return shard_map(slices, decode, collect=what)


def media_decode_features(sf_dir: str) -> pd.DataFrame:
    """Decode the synthetic media table with the REAL codecs: image rows get
    true pixel means/dims, audio rows true duration/RMS; video rows are
    left to ``video_frame_features``."""
    t = synth_media_table(MEDIA_N, seed=MEDIA_SEED, real=True)
    img_out = decode_rows(
        decode_image, t.filter(pc.equal(t["kind"], "image")), "media_decode_features"
    )
    aud_out = decode_rows(
        decode_audio, t.filter(pc.equal(t["kind"], "audio")), "media_decode_features"
    )
    img_part = pd.DataFrame(
        {
            "media_id": img_out["media_id"].astype(np.int64),
            "kind": "image",
            "decoded_mean": img_out["decoded_mean"],
            "duration_s": np.nan,
            "rms": np.nan,
        }
    )
    aud_part = pd.DataFrame(
        {
            "media_id": aud_out["media_id"].astype(np.int64),
            "kind": "audio",
            "decoded_mean": np.nan,
            "duration_s": aud_out["duration_s"],
            "rms": aud_out["rms"],
        }
    )
    return (
        pd.concat([img_part, aud_part], ignore_index=True)
        .sort_values("media_id")
        .reset_index(drop=True)
    )


def video_frame_features(sf_dir: str) -> pd.DataFrame:
    """REAL video decode: sample 4 evenly-spaced frames per y4m payload
    (``sample_frames``) and emit per-frame luma stats. Oracle is an
    independent scalar replay of the y4m byte layout (oracle/independent.py
    — never calls sample_frames/decode_y4m)."""
    t = synth_media_table(MEDIA_N, seed=MEDIA_SEED, real=True)
    out = decode_rows(
        sample_frames, t.filter(pc.equal(t["kind"], "video")), "video_frame_features"
    )
    return (
        out.sort_values(["media_id", "frame_idx"])
        .reset_index(drop=True)
        .astype({"media_id": np.int64, "frame_idx": np.int64,
                 "n_frames_total": np.int64, "width": np.int64,
                 "height": np.int64})
    )


QUERIES = {
    "media_decode_features": media_decode_features,
    "video_frame_features": video_frame_features,
}

"""Multimodal (image/audio/video) column stages.

Media payloads are opaque ``binary`` columns with typed metadata. Each
decoder is a plain function from a table of rows (``media_id``,
``payload``) to a frame of features; pipelines/media.py runs it as one Ray
task per small fixed slice of rows (payload bytes dominate — SURVEY
§7.5.7). Decode is real, in pure NumPy or the stdlib:

- **audio**: WAV/PCM via the stdlib ``wave`` module (8/16/32-bit PCM, any
  channel count);
- **image**: binary netpbm (P5/P6 PGM/PPM);
- **video**: YUV4MPEG2 (y4m) — uncompressed planar frames behind a text
  header, the video analogue of netpbm.

An image or video payload in any other format raises ``NotImplementedError``
naming its magic bytes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def decode_netpbm(buf: bytes) -> np.ndarray:
    """Pure-numpy binary netpbm decode: P5 (grayscale) / P6 (RGB), maxval
    <= 255. Returns (h, w) or (h, w, 3) uint8. Raises ValueError on other
    magics."""
    if buf[:2] not in (b"P5", b"P6"):
        raise ValueError(f"not a binary netpbm payload (magic {buf[:2]!r})")
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed; pixel data starts after ONE whitespace byte
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        tokens.append(int(buf[start:pos]))
    pos += 1  # the single whitespace separating header from pixel data
    w, h, maxval = tokens
    if maxval > 255:
        raise ValueError("16-bit netpbm not supported")
    ch = 3 if buf[:2] == b"P6" else 1
    arr = np.frombuffer(buf, dtype=np.uint8, count=w * h * ch, offset=pos)
    return arr.reshape((h, w, 3)) if ch == 3 else arr.reshape((h, w))


def decode_wav(buf: bytes) -> tuple[np.ndarray, int]:
    """Stdlib WAV/PCM decode: returns (samples float64 (n, channels) scaled
    to [-1, 1), sample_rate)."""
    import io
    import wave

    with wave.open(io.BytesIO(buf), "rb") as f:
        sr = f.getframerate()
        ch = f.getnchannels()
        sw = f.getsampwidth()
        raw = f.readframes(f.getnframes())
    if sw == 1:  # unsigned 8-bit
        x = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0
        x /= 128.0
    elif sw == 2:
        x = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif sw == 4:
        x = np.frombuffer(raw, dtype="<i4").astype(np.float64) / 2147483648.0
    else:
        raise ValueError(f"unsupported PCM sample width {sw}")
    return x.reshape(-1, ch), sr


def decode_y4m(buf: bytes) -> tuple[np.ndarray, int, int]:
    """Pure-numpy YUV4MPEG2 decode: returns (luma frames uint8 (n, h, w),
    width, height). Chroma planes are skipped over, not returned — frame
    stats below are luma-based. Supports C420*, C422, C444 and Cmono;
    raises ValueError on a non-y4m payload."""
    if not buf.startswith(b"YUV4MPEG2"):
        raise ValueError(f"not a y4m payload (magic {buf[:9]!r})")
    nl = buf.index(b"\n")
    w = h = None
    cs = b"420"
    for tok in buf[:nl].split(b" ")[1:]:
        if tok[:1] == b"W":
            w = int(tok[1:])
        elif tok[:1] == b"H":
            h = int(tok[1:])
        elif tok[:1] == b"C":
            cs = tok[1:]
    if w is None or h is None:
        raise ValueError("y4m header missing W/H")
    if cs.startswith(b"420"):
        frame_bytes = w * h + 2 * ((w // 2) * (h // 2))
    elif cs.startswith(b"422"):
        frame_bytes = w * h + 2 * ((w // 2) * h)
    elif cs.startswith(b"444"):
        frame_bytes = 3 * w * h
    elif cs == b"mono":
        frame_bytes = w * h
    else:
        raise NotImplementedError(f"y4m colorspace {cs!r}")
    pos = nl + 1
    frames = []
    while pos < len(buf):
        fnl = buf.index(b"\n", pos)
        if not buf[pos:fnl].startswith(b"FRAME"):
            raise ValueError("y4m frame marker missing")
        start = fnl + 1
        if start + frame_bytes > len(buf):
            raise ValueError("truncated y4m frame")
        frames.append(
            np.frombuffer(buf, dtype=np.uint8, count=w * h, offset=start).reshape(h, w)
        )
        pos = start + frame_bytes
    if not frames:
        raise ValueError("y4m stream has no frames")
    return np.stack(frames), w, h


def synth_ppm_payload(width: int, height: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    pix = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
    return b"P6\n# synth\n%d %d\n255\n" % (width, height) + pix.tobytes()


def synth_y4m_payload(width: int, height: int, n_frames: int, seed: int) -> bytes:
    """Deterministic C420 y4m stream: a moving gradient plus seeded noise so
    per-frame luma stats differ frame to frame."""
    rng = np.random.default_rng(seed)
    parts = [b"YUV4MPEG2 W%d H%d F25:1 Ip A1:1 C420\n" % (width, height)]
    base = np.add.outer(np.arange(height), np.arange(width)) % 256
    cw, ch_ = width // 2, height // 2
    for i in range(n_frames):
        y = ((base + 7 * i) % 256).astype(np.uint8)
        y = np.clip(
            y.astype(np.int16) + rng.integers(-8, 9, y.shape, dtype=np.int16), 0, 255
        ).astype(np.uint8)
        u = np.full((ch_, cw), 128, dtype=np.uint8)
        v = np.full((ch_, cw), (120 + i) % 256, dtype=np.uint8)
        parts.append(b"FRAME\n" + y.tobytes() + u.tobytes() + v.tobytes())
    return b"".join(parts)


def synth_wav_payload(n_samples: int, sample_rate: int, seed: int) -> bytes:
    import io
    import wave

    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / sample_rate
    x = 0.5 * np.sin(2 * np.pi * 440.0 * t) + 0.05 * rng.standard_normal(n_samples)
    pcm = np.clip(x * 32767, -32768, 32767).astype("<i2")
    bio = io.BytesIO()
    with wave.open(bio, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(sample_rate)
        f.writeframes(pcm.tobytes())
    return bio.getvalue()

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        ("meta_width", pa.int32()),
        ("meta_height", pa.int32()),
        ("meta_sample_rate", pa.int32()),
    ]
)


def synth_media_table(n: int = 64, seed: int = 42, real: bool = False) -> pa.Table:
    """Deterministic media table. ``real=True`` makes the image payloads
    actual binary PPMs, the audio payloads actual WAV files and the video
    payloads actual y4m streams, so the real decoders run end-to-end;
    ``real=False`` keeps opaque random bytes (undecodable payloads)."""
    rng = np.random.default_rng(seed)
    kinds = np.array(["image", "audio", "video"])[rng.integers(0, 3, n)]
    widths = rng.integers(32, 512, n).astype(np.int32)
    heights = rng.integers(32, 512, n).astype(np.int32)
    payloads = []
    for i in range(n):
        if not real:
            payloads.append(rng.bytes(int(rng.integers(256, 4096))))
        elif kinds[i] == "video":
            payloads.append(
                synth_y4m_payload(int(widths[i]) % 32 + 8, int(heights[i]) % 32 + 8,
                                  int(rng.integers(3, 9)), seed + i)
            )
        elif kinds[i] == "image":
            payloads.append(synth_ppm_payload(int(widths[i]) % 64 + 8,
                                              int(heights[i]) % 64 + 8, seed + i))
        else:
            payloads.append(synth_wav_payload(int(rng.integers(800, 4000)), 16_000, seed + i))
    return pa.table(
        {
            "media_id": pa.array(np.arange(n)),
            "kind": pa.array(kinds),
            "payload": pa.array(payloads, type=pa.binary()),
            "meta_width": pa.array(widths),
            "meta_height": pa.array(heights),
            "meta_sample_rate": pa.array(np.full(n, 16_000, dtype=np.int32)),
        }
    )


def decode_image(batch: pa.Table) -> pd.DataFrame:
    """Image rows -> decoded pixel mean, payload bytes and thumbnail dims
    (the image's, capped at 64)."""
    means, widths, heights, n_bytes = [], [], [], []
    for p in batch["payload"].to_pylist():
        if p[:2] not in (b"P5", b"P6"):
            raise NotImplementedError(
                f"no codec for image payload with magic {p[:4]!r}: only binary "
                "netpbm (P5/P6) decodes"
            )
        img = decode_netpbm(p)
        means.append(float(img.mean()))
        heights.append(img.shape[0])
        widths.append(img.shape[1])
        n_bytes.append(len(p))
    return pd.DataFrame(
        {
            "media_id": batch["media_id"].to_numpy(),
            "decoded_mean": np.round(np.array(means), 6),
            "decoded_bytes": np.array(n_bytes, dtype=np.int64),
            "thumb_width": np.minimum(widths, 64).astype(np.int32),
            "thumb_height": np.minimum(heights, 64).astype(np.int32),
        }
    )


def decode_audio(batch: pa.Table) -> pd.DataFrame:
    """WAV/PCM rows -> duration, RMS, peak, channel count, sample rate."""
    rows = []
    for mid, p in zip(batch["media_id"].to_pylist(), batch["payload"].to_pylist()):
        x, sr = decode_wav(p)
        rows.append(
            (
                mid,
                round(x.shape[0] / sr, 6),
                round(float(np.sqrt((x**2).mean())), 6),
                round(float(np.abs(x).max()), 6),
                x.shape[1],
                sr,
            )
        )
    return pd.DataFrame(
        rows,
        columns=["media_id", "duration_s", "rms", "peak", "n_channels", "sample_rate"],
    )


SAMPLE_FRAMES = 4


def sample_frames(batch: pa.Table) -> pd.DataFrame:
    """y4m video rows -> one row of luma stats per sampled frame:
    ``min(SAMPLE_FRAMES, total)`` evenly spaced distinct frames per video (the
    flat_map shape for frame-level pipelines)."""
    rows = []
    for mid, p in zip(batch["media_id"].to_pylist(), batch["payload"].to_pylist()):
        if not p.startswith(b"YUV4MPEG2"):
            raise NotImplementedError(
                f"no codec for video payload with magic {p[:4]!r}: only "
                "YUV4MPEG2 (y4m) decodes"
            )
        frames, w, h = decode_y4m(p)
        total = frames.shape[0]
        k = min(SAMPLE_FRAMES, total)
        for fi in np.unique((np.arange(k) * total) // k):
            y = frames[fi].astype(np.float64)
            rows.append(
                (mid, int(fi), total, w, h, round(float(y.mean()), 6), round(float(y.std()), 6))
            )
    return pd.DataFrame(
        rows,
        columns=[
            "media_id", "frame_idx", "n_frames_total", "width", "height",
            "y_mean", "y_std",
        ],
    )

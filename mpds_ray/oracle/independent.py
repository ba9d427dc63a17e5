"""INDEPENDENT reference implementations for the golden-parquet queries
(VERDICT r2 'Next round' #2: goldens must not be generated by running the
query under test).

Each builder recomputes the query's answer at test scale (sf0.01) through a
DIFFERENT code path than the engine:

- tokens come from DuckDB's ``TOKENS_SQL_EXPR`` (RE2/SQL), not the engine's
  Arrow-buffer tokenizer;
- sketches use the SCALAR per-doc references the pytest suite already treats
  as oracles (``simhash_batch``, ``_shingles`` — loops, not the segmented
  vectorized kernels);
- near-dup / ANN goldens are BRUTE-FORCE answers (all-pairs loops, exact
  top-k), so the sketch queries are held to the exact result — valid because
  their recall at these thresholds is property-tested at 1.0;
- the DSSL design matrix is rebuilt single-process from DuckDB + the loop-
  port scans in ``oracle/scans.py`` (never the distributed exchange build).

Shared with the engine ON PURPOSE (they are the spec, not the
implementation): the token mapping (via its SQL form), the splitmix64 hash
family, the pair-sampling seeds, and the ``train_dssl_linear`` optimizer
(finite-difference-tested in pytest). Everything distributed or vectorized
is recomputed here.

These builders collect whole test-scale tables on the driver — they are
oracles, not pipelines; never call them at bench scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _con(sf_dir: str):
    import duckdb

    con = duckdb.connect()
    for t in ("documents", "embeddings", "events"):
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def _doc_tokens(sf_dir: str) -> pd.DataFrame:
    """(doc_id, tokens) via the SQL tokenizer — not the Arrow one."""
    from ..tokenize import TOKENS_SQL_EXPR

    con = _con(sf_dir)  # keep the connection alive until .df() runs
    return con.sql(
        f"SELECT doc_id, {TOKENS_SQL_EXPR} AS tokens FROM documents ORDER BY doc_id"
    ).df()


def golden_simhash_docs(sf_dir: str) -> pd.DataFrame:
    """Scalar per-doc SimHash reference (pipelines.text.simhash_batch — the
    pytest oracle loop), over SQL-derived tokens."""
    from ..pipelines.text import simhash_batch

    tok = _doc_tokens(sf_dir)
    sh = simhash_batch([np.asarray(t, dtype=np.int64) for t in tok["tokens"]])
    return pd.DataFrame({"doc_id": tok["doc_id"], "simhash": sh.view(np.int64)})


def _scalar_shingles(sf_dir: str) -> tuple[np.ndarray, list[np.ndarray]]:
    from ..pipelines.text import _shingles

    tok = _doc_tokens(sf_dir)
    sets = [_shingles(np.asarray(t, dtype=np.uint64)) for t in tok["tokens"]]
    return tok["doc_id"].to_numpy(), sets


def golden_doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Scalar rolling-shingle min (per-doc loop); empty docs fold to 0 like
    the segmented reducer's ``empty=0``."""
    ids, sets = _scalar_shingles(sf_dir)
    mins = np.array(
        [s.min() if s.size else np.uint64(0) for s in sets], dtype=np.uint64
    )
    return pd.DataFrame({"doc_id": ids, "fingerprint": (mins ^ np.uint64(1 << 63)).view(np.int64)})


def golden_minhash_dup_candidates(sf_dir: str, threshold: float = 0.5) -> pd.DataFrame:
    """BRUTE-FORCE all-pairs exact shingle Jaccard >= threshold (O(n^2) loop
    over scalar shingle sets). Holds the LSH query to the exact answer: any
    pair the banding misses OR any false survivor breaks the driver hash.
    (Banding recall at these Jaccard levels is property-tested at 1.0.)"""
    ids, sets = _scalar_shingles(sf_dir)
    rows = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            sa, sb = sets[i], sets[j]
            if not sa.size or not sb.size:
                continue
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            if not inter:
                continue
            from ..pipelines.common import round_half_away

            # threshold on the ROUNDED value, exactly like the query's
            # filter — HALF-AWAY, the family's committed rounding (the
            # DuckDB SSJOIN oracle's round(); dyadic Jaccards can sit
            # exactly on a 6-dp half boundary)
            jac = float(round_half_away(inter / (sa.size + sb.size - inter)))
            if jac >= threshold:
                rows.append((ids[i], ids[j], jac))
    out = pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])
    out["doc_a"] = out["doc_a"].astype("int64")
    out["doc_b"] = out["doc_b"].astype("int64")
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def golden_knn_ivf_top10(
    sf_dir: str, n_cells: int = 8, n_probe: int = 2, k: int = 10
) -> pd.DataFrame:
    """Independent SINGLE-PROCESS replay of the IVF spec: deterministic
    splitmix64 hash-sample -> seeded (42) k-means-lite, 5 Lloyd iterations ->
    2-of-8 cell probe -> exact cosine top-10 within the probed cells — plain
    numpy over one DuckDB read, none of the engine's Ray stages (sample
    collection, map-side assignment, partial top-k). A brute-force EQUALITY
    oracle is impossible BY DESIGN: IVF is approximate, and on the diffuse
    sf0.01 embeddings (no cluster structure) the 2-cell probe's recall is far
    below 1 — the brute-force comparison lives in pytest as a recall bound
    (tests/test_text_ops.py::test_ivf_recall)."""
    from ..pipelines.text import _splitmix64

    con = _con(sf_dir)
    df = con.sql("SELECT vec_id, embedding FROM embeddings ORDER BY vec_id").df()
    ids = df["vec_id"].to_numpy()
    m = np.stack([np.asarray(v, dtype=np.float64) for v in df["embedding"]])
    mod = max(1, len(ids) // 2048)  # the engine's sample rule (spec)
    keep = _splitmix64(ids.astype(np.uint64)) % np.uint64(mod) == 0
    sn = m[keep]
    sn = sn / np.linalg.norm(sn, axis=1, keepdims=True)
    rng = np.random.default_rng(42)
    cent = sn[rng.choice(len(sn), n_cells, replace=False)]
    for _ in range(5):
        assign = (sn @ cent.T).argmax(axis=1)
        for c in range(n_cells):
            sel = sn[assign == c]
            if len(sel):
                v = sel.mean(axis=0)
                cent[c] = v / np.linalg.norm(v)
    q = m[ids == 0][0]
    qn = q / np.linalg.norm(q)
    probe = np.argsort(-(cent @ qn))[:n_probe]
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    mask = np.isin((mn @ cent.T).argmax(axis=1), probe) & (ids != 0)
    sims = np.round(mn[mask] @ qn, 6)
    sub = ids[mask]
    order = np.lexsort((sub, -sims))[:k]
    return pd.DataFrame({"vec_id": sub[order], "cos_sim": sims[order]})


def golden_embedding_near_dups_lsh(
    sf_dir: str,
    threshold: float = 0.45,
    n_tables: int = 16,
    n_bits: int = 8,
    max_bucket: int = 512,
) -> pd.DataFrame:
    """Independent scalar replay of the DETERMINISTIC LSH: same seed-42
    hyperplanes, but codes computed per vector with a Python loop, buckets a
    plain dict, and the exact-cosine verify done in float64 per pair —
    never the engine's einsum/groupby path. The algorithm is probabilistic
    over planes but deterministic given the pinned seed, so the golden is an
    exact row-set (non-empty at sf0.01 with these defaults — VERDICT r3
    'What's wrong' #3). Recall vs the exact brute-force answer remains
    pytest-property-tested on planted duplicates."""
    import pyarrow.parquet as pq_

    t = pq_.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    m = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    rng = np.random.default_rng(42)
    planes = [rng.normal(size=(m.shape[1], n_bits)) for _ in range(n_tables)]
    pairs: set[tuple[int, int]] = set()
    for p in planes:
        buckets: dict[int, list[int]] = {}
        for i in range(len(m)):  # deliberately scalar: independent of einsum
            code = 0
            proj = m[i] @ p
            for b in range(n_bits):
                if proj[b] > 0:
                    code |= 1 << b
            buckets.setdefault(code, []).append(i)
        for members in buckets.values():
            if len(members) < 2 or len(members) > max_bucket:
                continue
            srt = sorted(int(ids[i]) for i in members)
            for x in range(len(srt)):
                for y in range(x + 1, len(srt)):
                    pairs.add((srt[x], srt[y]))
    pos = {int(v): i for i, v in enumerate(ids)}
    rows = []
    for a, b in sorted(pairs):
        sim = float(m[pos[a]] @ m[pos[b]])
        if sim >= threshold:
            rows.append((a, b, round(sim, 6)))
    return pd.DataFrame(rows, columns=["vec_a", "vec_b", "cos_sim"]).astype(
        {"vec_a": "int64", "vec_b": "int64", "cos_sim": "float64"}
    )


def golden_dssl_weights(sf_dir: str) -> pd.DataFrame:
    """Single-process DSSL reference: design matrix rebuilt from DuckDB
    (epoch ts, sorted (user_id, ts, event_id)) + the LOOP-port scans of
    ``oracle/scans.py`` — never the distributed exchange build — then the
    same seeded pair generation and the finite-difference-tested optimizer."""
    from ..functions.dssl import (
        calculate_diff_matrix,
        make_smoothness_pairs,
        subsample_pairs,
        train_dssl_linear,
    )
    from ..pipelines.dssl_pipe import FEATURES, make_order_pairs_events, zscale
    from . import scans as loop

    con = _con(sf_dir)
    ev = con.sql(
        """
            SELECT user_id, epoch(ts) AS ts, event_id,
                   CAST(event_type = 'purchase' AS BIGINT) AS is_purchase, value
            FROM events ORDER BY user_id, ts, event_id
            """
    ).df()
    ids = ev["user_id"].to_numpy()
    t = ev["ts"].to_numpy().astype(np.float64)
    lag = loop.time_since_to_event(ids, t, np.ones(len(ev), dtype=np.int64))
    pf = loop.prefix_features(ids, t, ev["value"].to_numpy())
    df = pd.DataFrame(
        {
            "user_id": ids,
            "ts": t,
            "event_id": ev["event_id"],
            "is_purchase": ev["is_purchase"].astype(np.int64),
            "value": ev["value"],
            "secs_since_prev": np.nan_to_num(lag["time_since_last_event"], nan=0.0),
            "cum_value": pf["cumsum"],
            "hour_of_day": (t % 86_400.0) / 3_600.0,
        }
    ).sort_values(["user_id", "ts"]).reset_index(drop=True)
    x, _, _ = zscale(df[FEATURES].to_numpy(dtype=np.float64))
    order_pairs = make_order_pairs_events(df)
    smooth_pairs = subsample_pairs(make_smoothness_pairs(df["user_id"].to_numpy()), 20_000)
    diff_o = calculate_diff_matrix(x, order_pairs)
    diff_s = calculate_diff_matrix(x, smooth_pairs)
    ts_arr = df["ts"].to_numpy()
    dt_s = np.maximum(np.abs(ts_arr[smooth_pairs[:, 0]] - ts_arr[smooth_pairs[:, 1]]), 1.0)
    w = train_dssl_linear(diff_o, diff_s, dt_s, mu_o=1.0, h=0.5, creg1=10.0, creg2=1.0)
    return pd.DataFrame({"feature": FEATURES, "weight": np.round(w, 6)})


def golden_media_decode_features(sf_dir: str) -> pd.DataFrame:
    """Loop the codec functions DIRECTLY over the synthetic media table — no
    Ray, no slicing — to verify the distributed decode pipeline
    end-to-end."""
    from ..pipelines.media import MEDIA_N, MEDIA_SEED
    from ..stages.multimodal import decode_netpbm, decode_wav, synth_media_table

    t = synth_media_table(MEDIA_N, seed=MEDIA_SEED, real=True).to_pandas()
    rows = []
    for _, r in t.iterrows():
        if r["kind"] == "image":
            img = decode_netpbm(bytes(r["payload"]))
            rows.append((r["media_id"], "image", round(float(img.mean()), 6), np.nan, np.nan))
        elif r["kind"] == "audio":
            x, sr = decode_wav(bytes(r["payload"]))
            rows.append(
                (
                    r["media_id"],
                    "audio",
                    np.nan,
                    round(x.shape[0] / sr, 6),
                    round(float(np.sqrt((x**2).mean())), 6),
                )
            )
    out = pd.DataFrame(rows, columns=["media_id", "kind", "decoded_mean", "duration_s", "rms"])
    out["media_id"] = out["media_id"].astype(np.int64)
    return out.sort_values("media_id").reset_index(drop=True)


def golden_video_frame_features(sf_dir: str) -> pd.DataFrame:
    """Independent scalar replay of the y4m byte layout — parses header and
    frames with plain Python string ops and per-pixel loops over the luma
    plane; never calls decode_y4m/sample_frames."""
    from ..pipelines.media import MEDIA_N, MEDIA_SEED
    from ..stages.multimodal import synth_media_table

    t = synth_media_table(MEDIA_N, seed=MEDIA_SEED, real=True).to_pandas()
    rows = []
    for _, r in t.iterrows():
        if r["kind"] != "video":
            continue
        buf = bytes(r["payload"])
        header_end = buf.find(b"\n")
        toks = buf[:header_end].decode("ascii").split(" ")
        w = h = None
        for tk in toks[1:]:
            if tk.startswith("W"):
                w = int(tk[1:])
            elif tk.startswith("H"):
                h = int(tk[1:])
        frame_bytes = w * h + 2 * ((w // 2) * (h // 2))  # C420 layout
        # walk the frames with plain slicing
        lumas = []
        pos = header_end + 1
        while pos < len(buf):
            marker_end = buf.find(b"\n", pos)
            assert buf[pos:marker_end] == b"FRAME"
            lumas.append(buf[marker_end + 1 : marker_end + 1 + w * h])
            pos = marker_end + 1 + frame_bytes
        total = len(lumas)
        k = min(4, total)
        idx = sorted({(j * total) // k for j in range(k)})
        for fi in idx:
            vals = list(lumas[fi])  # per-pixel Python ints
            mean = sum(vals) / len(vals)
            var = sum((v - mean) ** 2 for v in vals) / len(vals)
            rows.append(
                (
                    int(r["media_id"]), int(fi), total, w, h,
                    round(mean, 6), round(var ** 0.5, 6),
                )
            )
    out = pd.DataFrame(
        rows,
        columns=["media_id", "frame_idx", "n_frames_total", "width", "height",
                 "y_mean", "y_std"],
    )
    return out.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)


def _naive_dfa_alpha(x: np.ndarray) -> float:
    """Scalar-loop DFA (fastdfa_core.c semantics): per-interval np.polyfit
    detrend — NOT the engine's closed-form cumulative-sum fits."""
    import math

    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 4:
        return float("nan")
    n_scales = int(math.log10(n) / math.log10(2.0))
    if n_scales >= 1 and 2 ** (n_scales - 1) > n / 2.5:
        n_scales -= 1
    if n_scales < 2:
        return float("nan")
    widths = [int(n / 2**s + 0.5) for s in range(n_scales)]
    y = np.cumsum(x)
    flucts = []
    for w in widths:
        trend = np.empty(n)
        i = 0
        while i + w <= n:
            grid = np.arange(i, i + w, dtype=np.float64)
            coef = np.polyfit(grid, y[i : i + w], 1)
            trend[i : i + w] = coef[0] * grid + coef[1]
            i += w
        trend[i:] = y[i:]  # tail: zero residual (fastdfa_core.c:111-120)
        d = y - trend
        flucts.append(math.sqrt(math.fsum(d * d) / n))
    fl = np.asarray(flucts)
    if np.any(fl <= 0) or not np.all(np.isfinite(fl)):
        return float("nan")
    return float(np.polyfit(np.log10(np.asarray(widths, dtype=np.float64)), np.log10(fl), 1)[0])


def _naive_lomb_dfc(t: np.ndarray, x: np.ndarray, fmin=0.5, fmax=20.0, ofac=4):
    """Per-frequency scalar-loop Scargle periodogram (pinned grid), the
    irregular-sampling spec of extractAccelTestV2.m:60-71 — NOT the engine's
    frequency-chunked vectorization."""
    import math

    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 2:
        return float("nan"), float("nan")
    span = t[-1] - t[0] if t[-1] > t[0] else float(np.ptp(t))
    if span <= 0:
        return float("nan"), float("nan")
    df = 1.0 / (ofac * span)
    freqs = np.arange(df, fmax + 0.5 * df, df)  # the PINNED grid (shared spec)
    mean = math.fsum(x) / n
    xc = x - mean
    var = math.fsum(xc * xc) / (n - 1)
    best_f, best_p = float("nan"), -1.0
    for f in freqs:
        if f <= fmin:
            continue
        w = 2.0 * math.pi * f
        tau = math.atan2(math.fsum(np.sin(2 * w * t)), math.fsum(np.cos(2 * w * t))) / (2.0 * w)
        arg = w * t - w * tau
        c = np.cos(arg)
        s = np.sin(arg)
        if var <= 0:
            p = 0.0
        else:
            sden = math.fsum(s * s)
            sterm = (math.fsum(xc * s) ** 2 / sden) if sden > 0 else 0.0
            p = (math.fsum(xc * c) ** 2 / math.fsum(c * c) + sterm) / (2.0 * var)
        if p > best_p:
            best_f, best_p = float(f), p
    if best_p < 0:
        return float("nan"), float("nan")
    return best_f, best_p


def _naive_pitch(x: np.ndarray, fs: float = 1.0, nfft: int = 256) -> float:
    """Welch pitch via an EXPLICIT per-bin DFT loop (getPitch.m:10-18
    semantics: Hamming window, 50% overlap, one-sided PSD, largest strict
    interior peak) — NOT the engine's rfft."""
    import math

    x = np.asarray(x, dtype=np.float64)
    k = np.arange(nfft, dtype=np.float64)
    win = 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (nfft - 1))
    u = math.fsum(win * win)
    step = nfft // 2
    if x.size < nfft:
        seg = np.zeros(nfft)
        seg[: x.size] = x
        segs = [seg]
    else:
        segs = [x[i : i + nfft] for i in range(0, x.size - nfft + 1, step)]
    nbins = nfft // 2 + 1
    psd = np.zeros(nbins)
    for seg in segs:
        wx = seg * win
        for b in range(nbins):
            ang = -2.0 * np.pi * b * k / nfft
            re = math.fsum(wx * np.cos(ang))
            im = math.fsum(wx * np.sin(ang))
            p = (re * re + im * im) / (fs * u)
            if 0 < b < nbins - 1:
                p *= 2.0
            psd[b] += p
    psd /= len(segs)
    best = -1.0
    best_idx = -1
    for i in range(1, nbins - 1):
        if psd[i] > psd[i - 1] and psd[i] > psd[i + 1] and psd[i] > best:
            best, best_idx = psd[i], i
    if best_idx < 0:
        return float("nan")
    return float((best_idx + 1) / nbins * (fs / 2.0))


def golden_session_spectral_features(sf_dir: str) -> pd.DataFrame:
    """Per-user DFA alpha / Lomb dfc+amp / Welch pitch, single-process scalar
    loops over the (user_id, ts, event_id)-sorted events table."""
    import pyarrow.parquet as pq

    ev = (
        pq.read_table(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
        )
        .to_pandas()
        .sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        .reset_index(drop=True)
    )
    # identical µs→s doubles as the engine's map side (int64 / 1e6)
    ev["ts"] = ev["ts"].astype("int64").to_numpy() / 1e6
    rows = []
    for uid, g in ev.groupby("user_id", sort=True):
        t = g["ts"].to_numpy(dtype=np.float64)
        v = g["value"].to_numpy(dtype=np.float64)
        span = t[-1] - t[0]
        if span > 0:
            dfc, amp = _naive_lomb_dfc((t - t[0]) / span, v)
        else:
            dfc, amp = float("nan"), float("nan")
        rows.append(
            {
                "user_id": int(uid),
                "n_events": len(g),
                "dfa_alpha": _naive_dfa_alpha(v),
                "dfc": dfc,
                "dfc_amp": amp,
                # pitch over the first-differenced sequence (see the engine
                # docstring's pinned conventions)
                "pitch": _naive_pitch(np.diff(v)) if v.size >= 2 else float("nan"),
            }
        )
    out = pd.DataFrame(rows)
    for c in ("dfa_alpha", "dfc", "dfc_amp", "pitch"):
        out[c] = np.round(out[c].to_numpy(dtype=np.float64), 6)
    out["n_events"] = out["n_events"].astype(np.int64)
    return out


BUILDERS = {
    "media_decode_features": golden_media_decode_features,
    "video_frame_features": golden_video_frame_features,
    "simhash_docs": golden_simhash_docs,
    "doc_fingerprints": golden_doc_fingerprints,
    "minhash_dup_candidates": golden_minhash_dup_candidates,
    "knn_ivf_top10": golden_knn_ivf_top10,
    "embedding_near_dups_lsh": golden_embedding_near_dups_lsh,
    "dssl_weights": golden_dssl_weights,
    "session_spectral_features": golden_session_spectral_features,
}

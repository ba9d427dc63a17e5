"""Lomb–Scargle periodogram for irregularly sampled signals.

The reference computes the dominant frequency component with MATLAB ``plomb``
on irregular timestamps (extractAccelTestV2.m:60-71, extractTapTestV2.m:120-131):
``[pxx,f] = plomb(A,T,maxF); keep f>0.5; [amp,i]=max(pxx); dfc=f(i)``.

No SciPy in the target environment, so the normalized periodogram is
implemented directly (O(n * nf), vectorized over frequency chunks). The
frequency grid is PINNED by this oracle (documented in FIXTURES.md, not
bit-matched to MATLAB): oversampling factor 4, df = 1/(4*(t_max-t_min)),
frequencies df, 2*df, ... <= fmax. Classic Scargle (1982) normalization:

    P(f) = 1/(2 s^2) * [ (sum x_c cos w(t-tau))^2 / sum cos^2 w(t-tau)
                       + (sum x_c sin w(t-tau))^2 / sum sin^2 w(t-tau) ]

with x_c the mean-centered signal, s^2 its sample variance, and
tau = atan2(sum sin 2wt, sum cos 2wt)/(2w).
"""

from __future__ import annotations

import numpy as np

# Elements per temporary; kernels.batched.lomb_batch(t=) shares the budget.
CHUNK_ELEMENTS = 4_000_000


def lomb_scargle(t, x, fmax: float = 20.0, ofac: int = 4):
    """Return (freqs, power) on the pinned grid. NaN-free for n >= 2."""
    t = np.asarray(t, dtype=np.float64).ravel()
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.size
    if n < 2:
        return np.empty(0), np.empty(0)
    span = t[-1] - t[0] if t[-1] > t[0] else float(np.ptp(t))
    if span <= 0:
        return np.empty(0), np.empty(0)
    df = 1.0 / (ofac * span)
    freqs = np.arange(df, fmax + 0.5 * df, df)
    if freqs.size == 0:
        return np.empty(0), np.empty(0)
    xc = x - x.mean()
    var = np.var(x, ddof=1)
    if var <= 0:
        return freqs, np.zeros_like(freqs)
    power = np.empty(freqs.size, dtype=np.float64)
    # chunk over frequencies to bound the (nf_chunk x n) temporaries
    chunk = max(1, int(CHUNK_ELEMENTS / max(n, 1)))
    for lo in range(0, freqs.size, chunk):
        w = 2.0 * np.pi * freqs[lo : lo + chunk][:, None]  # (c,1)
        wt = w * t[None, :]  # (c,n)
        tau = np.arctan2(np.sin(2 * wt).sum(axis=1), np.cos(2 * wt).sum(axis=1)) / (
            2.0 * w[:, 0]
        )
        arg = wt - (w[:, 0] * tau)[:, None]
        c = np.cos(arg)
        s = np.sin(arg)
        xc_b = xc[None, :]
        cterm = (xc_b * c).sum(axis=1) ** 2 / (c * c).sum(axis=1)
        sden = (s * s).sum(axis=1)
        sterm = np.where(sden > 0, (xc_b * s).sum(axis=1) ** 2 / np.where(sden > 0, sden, 1.0), 0.0)
        power[lo : lo + chunk] = (cterm + sterm) / (2.0 * var)
    return freqs, power


def dominant_frequency(t, x, fmin: float = 0.5, fmax: float = 20.0, ofac: int = 4):
    """(dfc, dfc_amp): frequency of the max periodogram peak above ``fmin``
    and its amplitude — the reference's dfc/dfc_amp features
    (extractAccelTestV2.m:60-71). NaN/NaN when no grid point survives."""
    freqs, power = lomb_scargle(t, x, fmax=fmax, ofac=ofac)
    keep = freqs > fmin
    if not np.any(keep):
        return float("nan"), float("nan")
    freqs = freqs[keep]
    power = power[keep]
    i = int(np.argmax(power))
    return float(freqs[i]), float(power[i])

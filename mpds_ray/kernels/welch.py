"""Welch PSD + peak pitch (reference getPitch.m:10-18, audio path).

``pwelch(data, hamming(NFFT), [], NFFT, fs)``: Hamming-windowed segments of
length NFFT with 50% overlap (MATLAB default), periodogram per segment,
averaged one-sided PSD. ``getPitch`` then takes the largest local maximum
(``findpeaks`` -> max peak) and converts its index to Hz via
``indx/length(out)*(fs/2)``.

Pinned conventions (engine == oracle; documented, not bit-matched to MATLAB):
one-sided PSD of length NFFT/2+1; a signal shorter than NFFT is processed as a
single zero-padded segment; ``findpeaks`` = strict interior local maxima.
"""

from __future__ import annotations

import numpy as np


def hamming(n: int) -> np.ndarray:
    """MATLAB symmetric Hamming window."""
    if n == 1:
        return np.ones(1)
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def pwelch(x, nfft: int, fs: float) -> np.ndarray:
    """One-sided Welch PSD, Hamming window of length nfft, 50% overlap, of
    each row of x (the last axis)."""
    x = np.asarray(x, dtype=np.float64)
    win = hamming(nfft)
    u = float(np.dot(win, win))  # window power normalization
    step = nfft // 2
    n = x.shape[-1]
    if n < nfft:
        segs = np.zeros(x.shape[:-1] + (1, nfft))
        segs[..., 0, :n] = x
    else:
        n_seg = 1 + (n - nfft) // step
        idx = np.arange(nfft)[None, :] + step * np.arange(n_seg)[:, None]
        segs = x[..., idx]
    spec = np.fft.rfft(segs * win, n=nfft, axis=-1)
    psd = (np.abs(spec) ** 2) / (fs * u)
    psd[..., 1:-1] *= 2.0  # one-sided
    return psd.mean(axis=-2)


def find_peaks(v: np.ndarray) -> np.ndarray:
    """Indices of strict interior local maxima (MATLAB findpeaks default)."""
    return np.flatnonzero(_peaks(np.asarray(v, dtype=np.float64).ravel()))


def _peaks(v: np.ndarray) -> np.ndarray:
    """Mask of the strict interior local maxima along the last axis."""
    peak = np.zeros(v.shape, dtype=bool)
    peak[..., 1:-1] = (v[..., 1:-1] > v[..., :-2]) & (v[..., 1:-1] > v[..., 2:])
    return peak


def pitch_batch(x, fs: float, nfft: int = 10240) -> np.ndarray:
    """``get_pitch`` of each row of an (m, n) matrix: one ``rfft`` over all
    rows' segments, then the first of each row's largest interior peaks."""
    out = pwelch(x, nfft, fs)
    peak = _peaks(out)
    idx = np.where(peak, out, -1.0).argmax(axis=1)  # the PSD is >= 0
    # MATLAB is 1-indexed: pitch = indx/length(out)*(fs/2)
    return np.where(peak.any(axis=1), (idx + 1) / out.shape[1] * (fs / 2.0), np.nan)


def get_pitch(data, fs: float, nfft: int = 10240) -> float:
    """Dominant PSD peak in Hz (getPitch.m:10-18). NaN if no interior peak."""
    return float(pitch_batch(np.ravel(data)[None, :], fs, nfft)[0])

"""Row-batched heavy kernels: DFA and Lomb–Scargle vectorized across MANY
equal-length windows at once.

The scalar kernels (kernels.dfa.fastdfa, kernels.lomb.dominant_frequency)
cost ~0.5 ms/row, too much in a loop over even a few hundred sessions (the
spectral query), let alone 10^6+ windows. For fixed window length n:

- DFA: every step (cumsum, per-scale closed-form line fits, RMS residuals,
  log-log slope) is row-parallel; the interval layout and each scale's
  index sums depend only on n, so a (m, n) matrix computes m exponents in a
  handful of matrix ops per scale, all in one reused buffer.
- Lomb–Scargle on the regular grid t = arange(n)/rate: the frequency grid,
  tau and the cos/sin design matrices depend only on the length and the
  grid parameters, so the periodogram of all m rows is two BLAS matmuls
  (m,n)x(n,nf).
- Lomb–Scargle at irregular times of one span (``lomb_batch(x, t=t)``):
  one complex exponential per sample gives every harmonic of the grid.

The length-only state of DFA and of the regular grid is cached per process
(``STATE_CACHE_BYTES``), so a batch pays only for its data. It is built with
the same expressions as on a cold call and read-only once cached, so a warm
call gives the same bits.

All three match the scalar kernels to ~1e-10 (tests/test_batched_kernels.py).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .dfa import dfa_intervals
from .lomb import CHUNK_ELEMENTS, dominant_frequency

# Bytes of length-only kernel state kept per process, least recently used
# evicted first. Lomb's design matrices take ~26 n^2 bytes per length at the
# default grid, so every length up to ~150 fits at once; a state larger
# than the cap is computed and not kept.
STATE_CACHE_BYTES = 48 << 20


def _arrays(state) -> list[np.ndarray]:
    if isinstance(state, np.ndarray):
        return [state]
    if isinstance(state, (tuple, list)):
        return [a for item in state for a in _arrays(item)]
    return []


class _StateCache:
    """Length-only kernel state by key, at most ``STATE_CACHE_BYTES`` bytes
    (each array counted, views too); least recently used evicted first."""

    def __init__(self) -> None:
        self.entries: OrderedDict = OrderedDict()  # key -> (state, nbytes)
        self.nbytes = 0
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            hit = self.entries.get(key)
            if hit is not None:
                self.entries.move_to_end(key)
                return hit[0]
        state = build()
        arrays = _arrays(state)
        size = sum(a.nbytes for a in arrays)
        if size > STATE_CACHE_BYTES:
            return state
        for a in arrays:
            a.flags.writeable = False
        with self._lock:
            if key not in self.entries:
                self.entries[key] = (state, size)
                self.nbytes += size
            while self.nbytes > STATE_CACHE_BYTES:
                _, (_, old) = self.entries.popitem(last=False)
                self.nbytes -= old
        return state


_STATE = _StateCache()


def _dfa_state(n: int):
    """Per-scale layout of DFA at length n: (scales, lxc, denom), each scale
    (w, n_full, tail_start, seg_idx, sx, sxx, delta); None if degenerate."""
    intervals = dfa_intervals(n)
    if intervals is None:
        return None
    idx = np.arange(n, dtype=np.float64)
    scales = []
    for w in intervals.tolist():  # every width is <= n: >= 1 full interval
        n_full = n // w
        tail_start = n_full * w
        seg_idx = idx[:tail_start].reshape(n_full, w)
        start = seg_idx[:, 0]
        end = seg_idx[:, -1]
        sx = (end + start) * w / 2.0
        sxx = w * (2 * end * end + 2 * start * start + 2 * start * end + end - start) / 6.0
        delta = w * sxx - sx * sx
        scales.append((w, n_full, tail_start, seg_idx, sx, sxx, delta))
    lx = np.log10(intervals.astype(np.float64))
    lxc = lx - lx.mean()
    denom = float((lxc * lxc).sum())
    return scales, lxc, denom


def dfa_batch(x: np.ndarray) -> np.ndarray:
    """DFA alpha for each row of an (m, n) matrix (NaN where degenerate)."""
    x = np.asarray(x, dtype=np.float64)
    m, n = x.shape
    state = _STATE.get(("dfa", n), lambda: _dfa_state(n))
    if state is None:
        return np.full(m, np.nan)
    scales, lxc, denom = state
    y = np.cumsum(x, axis=1)
    flucts = np.empty((m, len(scales)))
    buf = np.empty(m * n)
    for s, (w, n_full, tail_start, seg_idx, sx, sxx, delta) in enumerate(scales):
        seg = y[:, :tail_start].reshape(m, n_full, w)
        tmp = buf[: m * tail_start].reshape(m, n_full, w)
        sy = seg.sum(axis=2)  # (m, k)
        sxy = np.multiply(seg, seg_idx[None], out=tmp).sum(axis=2)
        b = (sy * sxx[None] - sx[None] * sxy) / delta[None]
        a = (w * sxy - sx[None] * sy) / delta[None]
        np.multiply(a[:, :, None], seg_idx[None], out=tmp)  # trend ...
        tmp += b[:, :, None]
        np.subtract(seg, tmp, out=tmp)  # ... residual ...
        resid_sq = np.multiply(tmp, tmp, out=tmp).sum(axis=(1, 2))  # ... squared
        # tail interval: trend = y -> zero residual (fastdfa_core.c:111-120)
        flucts[:, s] = np.sqrt(resid_sq / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ly = np.log10(flucts)
    # rows with any non-finite fluct -> NaN (matches scalar kernel pin); their
    # log10(0) = -inf stays out of the matmul, which sums each row alone
    bad = ~np.isfinite(ly).all(axis=1)
    ly[bad] = 0.0
    alpha = (ly @ lxc) / denom - 0.0  # slope of least-squares line (per row)
    alpha[bad] = np.nan
    return alpha


def _lomb_state(n: int, sample_rate: float, fmin: float, fmax: float, ofac: int):
    """Design of the periodogram at length n on t = arange(n)/sample_rate:
    (c, s, cc, ss_safe, ss_zero, keep, kept freqs); None if degenerate."""
    if n < 2:
        return None
    t = np.arange(n, dtype=np.float64) / sample_rate
    span = t[-1] - t[0]
    if span <= 0:
        return None
    df = 1.0 / (ofac * span)
    freqs = np.arange(df, fmax + 0.5 * df, df)
    keep = freqs > fmin
    if not keep.any():
        return None
    w = 2.0 * np.pi * freqs[:, None]  # (nf, 1)
    wt = w * t[None, :]  # (nf, n)
    tau = np.arctan2(np.sin(2 * wt).sum(axis=1), np.cos(2 * wt).sum(axis=1)) / (2.0 * w[:, 0])
    arg = wt - (w[:, 0] * tau)[:, None]
    c = np.cos(arg)  # (nf, n)
    s = np.sin(arg)
    cc = (c * c).sum(axis=1)  # (nf,)
    ss = (s * s).sum(axis=1)
    ss_safe = np.where(ss > 0, ss, 1.0)
    ss_zero = np.flatnonzero(~(ss > 0))
    return c, s, cc, ss_safe, ss_zero, keep, freqs[keep]


def lomb_batch(
    x: np.ndarray,
    sample_rate: float = 50.0,
    fmin: float = 0.5,
    fmax: float = 20.0,
    ofac: int = 4,
    t: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(dfc, dfc_amp) for each row of an (m, n) matrix sampled on the regular
    grid t = arange(n)/sample_rate — grid/tau/design matrices cached per
    length, periodogram = two matmuls. With ``t``, each row's (m, n) sorted
    times, all of one span: the irregular form (``_lomb_irregular``)."""
    x = np.asarray(x, dtype=np.float64)
    m, n = x.shape
    if t is not None:
        return _lomb_irregular(np.asarray(t, dtype=np.float64), x, fmin, fmax, ofac)
    key = ("lomb", n, sample_rate, fmin, fmax, ofac)
    state = _STATE.get(key, lambda: _lomb_state(n, sample_rate, fmin, fmax, ofac))
    if state is None:
        return np.full(m, np.nan), np.full(m, np.nan)
    c, s, cc, ss_safe, ss_zero, keep, fk = state

    xc = x - x.mean(axis=1, keepdims=True)  # (m, n)
    var = x.var(axis=1, ddof=1)  # (m,)
    # power = xcc^2/cc + (xcs^2/ss, 0 where ss == 0), in place
    power = xc @ c.T  # (m, nf)  BLAS
    xcs = xc @ s.T
    np.multiply(power, power, out=power)
    power /= cc[None, :]
    np.multiply(xcs, xcs, out=xcs)
    xcs /= ss_safe[None, :]
    xcs[:, ss_zero] = 0.0
    power += xcs
    with np.errstate(divide="ignore", invalid="ignore"):
        power /= 2.0 * var[:, None]
    return _peak(power[:, keep], var, fk)


def _peak(pk: np.ndarray, var: np.ndarray, fk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's largest power over the kept frequencies and where it is."""
    imax = np.argmax(pk, axis=1)
    dfc = fk[imax]
    amp = pk[np.arange(pk.shape[0]), imax]
    zero_var = var <= 0
    # constant rows: scalar kernel returns zero power -> argmax = first kept freq
    dfc = np.where(zero_var, fk[0], dfc)
    amp = np.where(zero_var, 0.0, amp)
    return dfc, amp


def _lomb_irregular(t, x, fmin, fmax, ofac) -> tuple[np.ndarray, np.ndarray]:
    """``dominant_frequency`` of each row of x at its times t, both (m, n).

    One span gives one grid f_k = k df, so e^{i w_k t} = (e^{i w_1 t})^k
    (Press & Rybicki, ApJ 338:277, 1989); Z1 = sum xc e^{i w t} and Z2 =
    sum e^{2 i w t} give tau (2 w tau = arg Z2), sum cos^2, sin^2 = (n +-
    |Z2|)/2 and both projections. Rows go in chunks of ``CHUNK_ELEMENTS``
    (rows x frequencies x n). ``dominant_frequency`` redoes a row whose
    phases 2 w t nearly align (two samples, a few evenly spaced), where
    n - |Z2| has lost its digits, or whose top peaks tie (three samples)."""
    m, n = x.shape
    span = t[:, -1] - t[:, 0] if x.size else np.zeros(m)
    bad = np.flatnonzero(span != span[:1])
    if bad.size:
        raise ValueError(f"lomb_batch: row {bad[0]} spans {span[bad[0]]!r}, row 0 "
                         f"{span[0]!r}; the rows of one call must share one grid")
    df = 1.0 / (ofac * span[0]) if m and span[0] > 0 else None
    freqs = np.empty(0) if df is None else np.arange(df, fmax + 0.5 * df, df)
    keep = freqs > fmin
    if not keep.any():
        return np.full(m, np.nan), np.full(m, np.nan)
    step = max(1, CHUNK_ELEMENTS // (freqs.size * n))
    dfc, amp = np.empty(m), np.empty(m)
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        power, var, ss = _lomb_harmonics(t[rows], x[rows], df, freqs.size)
        pk = power[:, keep]
        dfc[rows], amp[rows] = _peak(pk, var, freqs[keep])
        tie = (pk >= amp[rows, None] * (1 - 1e-9)).sum(axis=1) > 1
        for r in lo + np.flatnonzero((ss < 1e-4 * n).any(axis=1) | tie):
            dfc[r], amp[r] = dominant_frequency(t[r], x[r], fmin, fmax, ofac)
    return dfc, amp


def _lomb_harmonics(t, x, df, nf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized periodogram (rows x nf) at f_k = k df, each row's sample
    variance, and n - |Z2| = 2 sum sin^2 (rows x nf)."""
    m, n = x.shape
    xc = x - x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, ddof=1)
    # e[k] = e^{i (k+1) w_1 t}, doubling the known powers each pass. Products
    # go to new arrays: into e's own rows, NumPy's loop (and bits) vary with m
    e = np.empty((nf, m * n), dtype=np.complex128)
    e[0] = np.exp(1j * (2.0 * np.pi * df) * t.ravel())
    k = 1
    while k < nf:
        j = min(k, nf - k)
        e[k : k + j] = e[:j] * e[k - 1]
        k += j
    e = e.reshape(nf, m, n)
    z1 = (e.transpose(1, 0, 2) @ xc[:, :, None])[:, :, 0]  # (m, nf)
    z2 = np.square(e, out=e).sum(axis=2).T
    r2 = np.abs(z2)
    a1 = z1.real * z1.real + z1.imag * z1.imag  # |Z1|^2
    with np.errstate(divide="ignore", invalid="ignore"):
        # Re(Z1^2 e^{-2 i w tau}) = cos projection^2 - sin projection^2
        d = np.where(r2 > 0, (z1 * z1 * z2.conj()).real / r2, (z1 * z1).real)
        ss = n - r2
        power = (a1 + d) / (n + r2) + (a1 - d) / ss
        power /= 2.0 * var[:, None]
    return power, var, ss

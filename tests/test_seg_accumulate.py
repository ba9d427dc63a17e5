"""``partition.seg_accumulate`` is exact: bit for bit the per-run NumPy
accumulate it replaces, and the cummax/cummin built on it bit for bit
pandas' grouped ``cummax`` / ``cummin`` (NaN skipped, first-seen of equal
extremes kept, so -0.0 and 0.0 do not swap)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from mpds_ray.stages.partition import run_bounds, seg_accumulate
from mpds_ray.stages.scans import prefix_features


def _case(seed: int):
    """Entity ids and values: one-row runs, many short runs and (for even
    seeds) one run of at least 5k rows, with NaN, 0.0 and -0.0 values."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(1, 12, int(rng.integers(1, 200)))
    lens[rng.random(lens.size) < 0.3] = 1
    if seed % 2 == 0:
        lens[rng.integers(lens.size)] = int(rng.integers(5_000, 6_000))
    ids = np.repeat(np.arange(lens.size) * 5 + 3, lens)
    x = np.round(rng.normal(size=ids.size), 1)
    u = rng.random(ids.size)
    x[u < 0.15] = np.nan
    x[(u >= 0.15) & (u < 0.3)] = 0.0
    x[(u >= 0.3) & (u < 0.45)] = -0.0
    return ids, x


def _per_run(ufunc, x, starts, lens):
    out = x.copy()
    for s, n in zip(starts, lens):
        out[s : s + n] = ufunc.accumulate(x[s : s + n])
    return out


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("ufunc", [np.add, np.fmax, np.fmin])
def test_equals_per_run_accumulate(ufunc, seed):
    ids, x = _case(seed)
    starts, lens = run_bounds(ids)
    got = seg_accumulate(ufunc, x, starts, lens)
    assert got.tobytes() == _per_run(ufunc, x, starts, lens).tobytes()


def test_rows_outside_the_runs_keep_their_values():
    x = np.arange(10.0)
    starts, lens = np.array([1, 6]), np.array([3, 0])
    got = seg_accumulate(np.add, x, starts, lens)
    assert got.tobytes() == np.array([0, 1, 3, 6, 4, 5, 6, 7, 8, 9], dtype=float).tobytes()


def test_empty_input():
    e = np.zeros(0)
    none = np.zeros(0, dtype=np.int64)
    assert seg_accumulate(np.add, e, none, none).size == 0
    assert all(v.size == 0 for v in prefix_features(e, e, e).values())


@pytest.mark.parametrize("seed", range(8))
def test_cummax_cummin_equal_pandas(seed):
    ids, x = _case(seed)
    t = np.arange(ids.size, dtype=np.float64)
    got = prefix_features(ids, t, x)
    g = pd.Series(x).groupby(ids, sort=False)
    assert got["cummax"].tobytes() == g.cummax().to_numpy().tobytes()
    assert got["cummin"].tobytes() == g.cummin().to_numpy().tobytes()


def test_first_zero_sets_the_sign_of_a_zero_extreme():
    ids = np.zeros(4)
    x = np.array([-0.0, 0.0, -1.0, 0.0])
    got = prefix_features(ids, np.arange(4.0), x)
    assert np.signbit(got["cummax"]).tolist() == [True, True, True, True]
    assert np.signbit(got["cummin"]).tolist() == [True, True, True, True]

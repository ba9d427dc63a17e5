"""session_spectral_features: the driver-gated query that makes the
W9/W10/W11 kernel block (DFA / Lomb-Scargle / Welch pitch) regression-
visible (VERDICT r4 'Next round' #7).

Two layers:
- the NAIVE oracle implementations in oracle/independent.py must agree with
  the engine kernels on arbitrary signals (they are scalar-loop / explicit-
  DFT reimplementations, so agreement is a genuine cross-check);
- the distributed query must agree with the single-process golden builder
  row-for-row at sf0.001 and on hand-made edge users, and with the
  committed golden file at sf0.01, the SF it was built at.
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mpds_ray.kernels.dfa import fastdfa
from mpds_ray.kernels.lomb import dominant_frequency
from mpds_ray.kernels.welch import get_pitch
from mpds_ray.oracle.independent import (
    _naive_dfa_alpha,
    _naive_lomb_dfc,
    _naive_pitch,
    golden_session_spectral_features,
)

SF_DIR = "/root/testdata/sf0.001"
GOLDEN_SF_DIR = os.path.join(os.path.dirname(SF_DIR), "sf0.01")


class TestNaiveVsEngineKernels:
    @pytest.mark.parametrize("n", [17, 64, 200])
    def test_dfa(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n).cumsum()  # correlated -> alpha well-defined
        assert _naive_dfa_alpha(x) == pytest.approx(fastdfa(x), abs=1e-8)

    @pytest.mark.parametrize("n", [16, 120])
    def test_lomb_dfc(self, n):
        rng = np.random.default_rng(n)
        t = np.sort(rng.uniform(0, 1, n))
        t[0], t[-1] = 0.0, 1.0
        x = np.sin(2 * np.pi * 7.0 * t) + 0.1 * rng.normal(size=n)
        nf, na = _naive_lomb_dfc(t, x)
        ef, ea = dominant_frequency(t, x)
        assert nf == ef  # grid points must match exactly
        assert na == pytest.approx(ea, rel=1e-9)
        assert ef == pytest.approx(7.0, abs=0.26)  # recovers the planted tone

    @pytest.mark.parametrize("n", [40, 300])
    def test_pitch(self, n):
        rng = np.random.default_rng(n)
        x = np.sin(2 * np.pi * 0.2 * np.arange(n)) + 0.05 * rng.normal(size=n)
        naive = _naive_pitch(x, fs=1.0, nfft=256)
        eng = get_pitch(x, fs=1.0, nfft=256)
        assert naive == eng  # same grid bin -> identical value
        assert eng == pytest.approx(0.2, abs=0.01)


def _query_vs(sf_dir: str, want: pd.DataFrame) -> None:
    from mpds_ray.pipelines.eventspipe import session_spectral_features

    res = session_spectral_features(sf_dir)
    if not isinstance(res, pd.DataFrame):
        res = res.to_pandas()
    got = res.sort_values("user_id").reset_index(drop=True)
    want = want.sort_values("user_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns], want, check_exact=True, check_dtype=False)


class TestQueryVsGolden:
    def test_matches_independent_golden_sf0001(self, ray_session):
        _query_vs(SF_DIR, golden_session_spectral_features(SF_DIR))

    def test_features_are_discriminative(self):
        # a constant output column would gate nothing; pin the spread
        g = golden_session_spectral_features(SF_DIR)
        assert g["dfa_alpha"].nunique() > len(g) // 2
        assert g["dfc"].nunique() > 3
        assert g["pitch"].nunique() > 3


def _edge_events(path) -> None:
    """A hand-made events table of the users the block kernels must treat
    as the per-user ones do: one to four events, zero time span, a constant
    value, many users of one length, and one long enough (300 events) that
    its pitch averages two Welch segments.

    The constant is 0.0. A nonzero constant is left out: its DFA alpha is
    NaN in the engine (zero fluctuation) but a finite value made of rounding
    noise in the golden's ``np.polyfit`` detrend, per-user kernels too."""
    rng = np.random.default_rng(7)
    lengths = {1: 1, 2: 2, 3: 5, 4: 60, 5: 300, 6: 49, 7: 86, 8: 3, 9: 4}
    lengths.update({u: 64 for u in range(10, 22)})
    uid, ts, val = [], [], []
    for u, n in lengths.items():
        uid.append(np.full(n, u))
        t = np.sort(rng.choice(10**9, size=n, replace=False)) + 1_700_000_000 * 10**6
        ts.append(np.full(n, t[0]) if u == 3 else t)
        val.append(np.zeros(n) if u == 4 else rng.normal(size=n).cumsum())
    uid, ts, val = (np.concatenate(a) for a in (uid, ts, val))
    order = rng.permutation(uid.size)  # the query sorts; the file need not
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array(order, pa.int64()),
                "ts": pa.array(ts[order], pa.timestamp("us")),
                "user_id": pa.array(uid[order], pa.int64()),
                "value": pa.array(val[order], pa.float64()),
            }
        ),
        f"{path}/events.parquet",
    )


class TestEdgeUsers:
    def test_edge_users_match_golden(self, ray_session, tmp_path):
        _edge_events(tmp_path)
        want = golden_session_spectral_features(str(tmp_path))
        # every edge the test means to cover is in the table
        by_user = want.set_index("user_id")
        assert by_user.loc[1, "n_events"] == 1 and np.isnan(by_user.loc[1, "pitch"])
        assert np.isnan(by_user.loc[3, "dfc"])  # zero span
        assert by_user.loc[4, "dfc_amp"] == 0.0  # constant value
        assert by_user.loc[5, "n_events"] == 300
        _query_vs(str(tmp_path), want)


class TestCommittedGolden:
    def test_matches_committed_golden_sf001(self, ray_session):
        from mpds_ray.oracle.golden import golden_path

        want = pd.read_parquet(golden_path("session_spectral_features"))
        _query_vs(GOLDEN_SF_DIR, want)

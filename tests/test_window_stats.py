"""Segment-vectorized token stats vs the per-row kernel library (independent
implementations of the same pinned semantics)."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

import mpds_ray
from mpds_ray.kernels import STAT_KERNELS, fastdfa
from mpds_ray.kernels.lomb import dominant_frequency
from mpds_ray.stages.window_stats import (
    CHEAP_STATS,
    HEAVY_STATS,
    TokenWindowStats,
    token_stats_arrays,
)

rng = np.random.default_rng(42)


def make_lists(n_rows=200, max_len=120, int_vals=True):
    lens = rng.integers(1, max_len, n_rows)
    # include degenerate windows: length 1, 2, constant
    lens[0] = 1
    lens[1] = 2
    vals = []
    for i, m in enumerate(lens):
        if i == 2:
            vals.append(np.full(int(m), 7.0))
        elif int_vals:
            vals.append(rng.integers(0, 50257, int(m)).astype(np.float64))
        else:
            vals.append(rng.normal(size=int(m)))
    flat = np.concatenate(vals)
    offsets = np.r_[0, np.cumsum(lens)].astype(np.int64)
    return flat, offsets, vals


FLAT, OFFS, ROWS = make_lists()


class TestSegmentedVsKernels:
    @pytest.mark.parametrize("stat", [s for s in CHEAP_STATS if s != "n"])
    def test_stat_matches_per_row_kernel(self, stat):
        got = token_stats_arrays(FLAT, OFFS, stats=(stat,))[stat]
        want = np.array([STAT_KERNELS[stat](r) for r in ROWS])
        np.testing.assert_allclose(got, want, equal_nan=True, rtol=1e-10, atol=1e-12)

    def test_float_values_too(self):
        flat, offs, rows = make_lists(80, 60, int_vals=False)
        for stat in ("mean", "std", "s", "k", "En", "mode", "median", "zcr", "ar1"):
            got = token_stats_arrays(flat, offs, stats=(stat,))[stat]
            want = np.array([STAT_KERNELS[stat](r) for r in rows])
            np.testing.assert_allclose(got, want, equal_nan=True, rtol=1e-9, atol=1e-12, err_msg=stat)

    def test_heavy_stats_match(self):
        flat, offs, rows = make_lists(30, 100)
        got = token_stats_arrays(flat, offs, stats=("dfa", "dfc", "dfc_amp"), sample_rate=50.0)
        want_dfa = np.array([fastdfa(r) for r in rows])
        np.testing.assert_allclose(got["dfa"], want_dfa, equal_nan=True, rtol=1e-10)
        want_dfc = np.array(
            [dominant_frequency(np.arange(len(r)) / 50.0, r)[0] for r in rows]
        )
        np.testing.assert_allclose(got["dfc"], want_dfc, equal_nan=True, rtol=1e-10)

    def test_empty_segment_nan(self):
        flat = np.array([1.0, 2.0])
        offs = np.array([0, 2, 2], dtype=np.int64)  # second row empty
        got = token_stats_arrays(flat, offs, stats=("mean", "std", "median", "En"))
        assert np.isnan(got["mean"][1]) and np.isnan(got["median"][1])
        assert got["mean"][0] == 1.5


class TestArrowStage:
    def test_batch_passthrough_and_columns(self):
        toks = [list(map(int, r)) for r in ROWS[:50]]
        batch = pa.table(
            {
                "doc_id": pa.array([f"d{i:04d}" for i in range(50)]),
                "tokens": pa.array(toks, type=pa.list_(pa.int32())),
            }
        )
        out = TokenWindowStats(stats=("mean", "std", "En"))(batch)
        # token passthrough: exact equality (F6 invariant)
        assert out["tokens"].equals(batch["tokens"])
        assert out.num_rows == 50
        want = np.array([STAT_KERNELS["mean"](np.array(t, dtype=float)) for t in toks])
        np.testing.assert_allclose(out["tok_mean"].to_numpy(), want)

    def test_sliced_offsets_handled(self):
        # Arrow slices carry non-zero starting offsets — stage must rebase
        toks = pa.array([[1, 2], [3, 4, 5], [6]], type=pa.list_(pa.int32()))
        batch = pa.table({"tokens": toks}).slice(1, 2)
        out = TokenWindowStats(stats=("mean",))(batch)
        np.testing.assert_allclose(out["tok_mean"].to_numpy(), [4.0, 6.0])


def _pin_inputs():
    r = np.random.default_rng(20261018)
    lens = np.r_[1, 2, 3, 5, r.integers(8, 90, 20)]
    ints = [r.integers(0, 50257, m).astype(np.float64) for m in lens]
    ints[3] = np.full(5, 7.0)
    floats = [r.normal(size=m) for m in lens]
    # >= 50 rows for each of four lengths, values in 0..4: every length
    # group is large and full of ties; rows of one length are interleaved
    tie_lens = r.permutation(np.repeat([7, 16, 33, 64], [60, 55, 50, 52]))
    ties = [r.integers(0, 5, m).astype(np.float64) for m in tie_lens]
    # floats drawn from -0.0, +0.0 and a few finite values, one NaN in
    # every fifth row, plus rows of signed zeros only
    pool = np.array([-0.0, 0.0, 1.5, -2.25, 3.0])
    zero_lens = np.r_[1, 2, 3, r.integers(4, 70, 27)]
    signed = [pool[r.integers(0, pool.size, m)] for m in zero_lens]
    for row in signed[2::5]:
        row[r.integers(0, row.size)] = np.nan
    signed[0] = np.array([-0.0])
    signed[6] = np.where(r.random(zero_lens[6]) < 0.5, -0.0, 0.0)
    signed[8] = np.full(zero_lens[8], -0.0)
    return {
        "ints": ints,
        "floats": floats,
        "with_empty": ints[:4] + [np.zeros(0)] + ints[4:],
        "zero_rows": [],
        "ties": ties,
        "signed_zeros": signed,
    }


# sha256 (first 16 hex digits) of each output's float64 bytes, recorded
# from the implementation that still carried the empty-segment guards in
# its main path; any change to a single bit of any stat fails the pin.
# The heavy stats (HEAVY_STATS) run through BLAS matmuls (``dfa_batch``'s
# ``ly @ lxc``, ``lomb_batch``'s ``xc @ c.T`` and ``xc @ s.T``), so their
# pins hold for the build and kernel they were recorded with: NumPy 1.26.4,
# OpenBLAS 0.3.23.dev, OpenBLAS's SkylakeX kernel. A ``DYNAMIC_ARCH``
# OpenBLAS picks its kernel from the CPU when it loads, so one build can
# give other last bits on another CPU; the test therefore computes the heavy
# digests in a child process that forces the recorded kernel
# (``OPENBLAS_CORETYPE``). A deliberate change to the heavy stats
# re-records their digests under that same kernel.
PIN_NUMPY = "1.26.4"
PIN_BLAS = ("openblas64", "0.3.23.dev")
PIN_CORETYPE = "SkylakeX"
_EMPTY_DIGEST = "e3b0c44298fc1c14"  # sha256 of no bytes
PINNED = {
    "ints": {
        "En": "5cf7dcd552c71f42",
        "ar1": "c356b4be7aaffb07",
        "dfa": "c55ea7d0e5d03786",
        "dfc": "c24d461e113bbd67",
        "dfc_amp": "96e1d656f4494270",
        "iqr": "bc2b06cb6610eb17",
        "k": "d7b129937a43184a",
        "mean": "d5635cc37c724d01",
        "meanTKEO": "2be0997810df32b8",
        "median": "1de76dbc8aa6cc37",
        "mode": "74fda4f5d13f9ad5",
        "mse": "b733d5935dab7782",
        "n": "72d78480c5422b90",
        "q1": "b482b258660e4e2c",
        "q3": "829e780f2aeea703",
        "range": "22301e74d47c4c2b",
        "s": "4307e529acb6ee6b",
        "std": "3ec401b2435e2580",
        "zcr": "f441ec35c48630f6",
    },
    "floats": {
        "En": "40af264450ca6ae0",
        "ar1": "82c345316149bf12",
        "dfa": "d2edebe22af3be3f",
        "dfc": "4a4f3b33aeab1d49",
        "dfc_amp": "802df8754cdf61fc",
        "iqr": "a48c369ffabe03dd",
        "k": "62b01eb2cedd981d",
        "mean": "829b137b3fb4a8e6",
        "meanTKEO": "ae92e3e9dc80135c",
        "median": "a96d60cad4150d17",
        "mode": "8bfae1bb622f7593",
        "mse": "b77d80e4363d458d",
        "n": "72d78480c5422b90",
        "q1": "31f13d0a35c3b198",
        "q3": "d9529d0ddfc436bf",
        "range": "9e6d62a8aee2b8ea",
        "s": "e64339c95c6185f3",
        "std": "6ed474a3917f55f9",
        "zcr": "65c7807b54795601",
    },
    "with_empty": {
        "En": "e0661eacc2374393",
        "ar1": "60d6ada4b801911b",
        "dfa": "e43903e3a993539e",
        "dfc": "845b12d07f04a25f",
        "dfc_amp": "f10bdc7c8cbfe9ba",
        "iqr": "c45b5053161507f1",
        "k": "38848dcefb0c775b",
        "mean": "4b5d8e84d2c317b0",
        "meanTKEO": "0b84ce707e387f84",
        "median": "0185a885139a72dd",
        "mode": "04b47245dd105de8",
        "mse": "89c18f6581958771",
        "n": "46636c36088e236b",
        "q1": "b6e99bfa7a1329b2",
        "q3": "b2015caa2816a464",
        "range": "13e259f1c02f54e8",
        "s": "a98e3b748761748a",
        "std": "0a757e8131f4696d",
        "zcr": "f055766ff6656b5d",
    },
    "zero_rows": dict.fromkeys(CHEAP_STATS + HEAVY_STATS, _EMPTY_DIGEST),
    "ties": {
        "En": "911ec53979d36f83",
        "ar1": "907f35d684c05900",
        "dfa": "fed8549759779c93",
        "dfc": "d4807864d84b6144",
        "dfc_amp": "83416e973a0e32cc",
        "iqr": "3a7ccc84352591fb",
        "k": "f5415e2887f93db1",
        "mean": "05b48b82e52cc9c0",
        "meanTKEO": "b44b3b82d619ec77",
        "median": "82730f11b390f3f7",
        "mode": "c88f458c1c85a406",
        "mse": "58e4b017be97823e",
        "n": "2ff6263f3891366d",
        "q1": "0fd8138978a238c2",
        "q3": "c458f9d9d03406d2",
        "range": "63d68e1dd2ba3c2e",
        "s": "0ebc63cd6731e459",
        "std": "f0c9a4a683c18041",
        "zcr": "810a86fdb1806b0a",
    },
    "signed_zeros": {
        "En": "548bd92622777edd",
        "ar1": "46ef5982dfa9619a",
        "dfa": "f9af4ff4b124783d",
        "dfc": "b83a12eb52cdbbd4",
        "dfc_amp": "8b3ad477da85d07a",
        "iqr": "f2ed46848c6745e9",
        "k": "72949ced465eb753",
        "mean": "8dc9e777560757f9",
        # row 6 (signed zeros only) reads 0.0 as the per-row kernel does;
        # it read NaN while row 7's NaN leaked across the row boundary
        "meanTKEO": "105226e8028ebb59",
        "median": "cd4b219a3870faee",
        "mode": "a8c7be4c0d3fdbf6",
        "mse": "5301124e5ab69e60",
        "n": "eca609d7225a4421",
        "q1": "f2f6129c61d1b29e",
        "q3": "d3b91781f534e8ef",
        "range": "2733b4821e1e5c0d",
        "s": "dde94f76540fa15b",
        "std": "de5fe788f1ba3708",
        "zcr": "c2de4664aabad6e8",
    },
}


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


# Run in the child: NumPy's build, then the heavy digests of every case.
_HEAVY_CHILD = """
import json
import numpy as np
from mpds_ray.stages.window_stats import HEAVY_STATS, token_stats_arrays
from test_window_stats import PINNED, _digest, _pin_batch
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = [blas["name"], blas["version"]]
except (TypeError, KeyError):
    blas = None
digests = {}
with np.errstate(invalid="ignore", divide="ignore"):
    for case in PINNED:
        out = token_stats_arrays(*_pin_batch(case), HEAVY_STATS)
        digests[case] = {k: _digest(v) for k, v in out.items()}
print(json.dumps({"numpy": np.__version__, "blas": blas, "digests": digests}))
"""


@pytest.fixture(scope="module")
def heavy_digests_under_pin_kernel():
    """The HEAVY_STATS digests of every case, computed in one child Python
    process with OpenBLAS forced to the kernel the pins were recorded with.
    Skips where that kernel or the recorded NumPy/BLAS build is not there."""
    path = [str(Path(mpds_ray.__file__).parents[1]), str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(path),
        OPENBLAS_CORETYPE=PIN_CORETYPE,
        OPENBLAS_VERBOSE="2",
    )
    proc = subprocess.run(
        [sys.executable, "-c", _HEAVY_CHILD],
        env=env, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode == -signal.SIGILL:
        pytest.skip(f"OpenBLAS's {PIN_CORETYPE} kernel hit an illegal instruction on this CPU")
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    build = (child["numpy"], tuple(child["blas"] or ()))
    if build != (PIN_NUMPY, PIN_BLAS):
        pytest.skip(f"NumPy and BLAS {build} are not the recorded build {(PIN_NUMPY, PIN_BLAS)}")
    if f"Core: {PIN_CORETYPE}" not in proc.stderr:
        pytest.skip(f"OpenBLAS did not report loading its {PIN_CORETYPE} kernel: {proc.stderr.strip()!r}")
    return child["digests"]


@pytest.mark.parametrize("case", list(PINNED))
def test_stats_bit_identical_to_pin(case, request):
    """Fixed inputs over every cheap and heavy stat, including a batch with
    an empty segment and a zero-row batch: outputs are pinned bit for bit.
    The cheap stats are checked in process; the heavy ones under the
    OpenBLAS kernel they were recorded with (see PINNED)."""
    rows = _pin_inputs()[case]
    flat, offs = _pin_batch(case)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = token_stats_arrays(flat, offs, CHEAP_STATS + HEAVY_STATS)
    assert all(v.size == len(rows) for v in out.values())
    cheap = {k: _digest(v) for k, v in out.items() if k not in HEAVY_STATS}
    assert cheap == {k: v for k, v in PINNED[case].items() if k not in HEAVY_STATS}

    heavy = request.getfixturevalue("heavy_digests_under_pin_kernel")[case]
    assert heavy == {k: PINNED[case][k] for k in HEAVY_STATS}


def _pin_batch(case):
    rows = _pin_inputs()[case]
    flat = np.concatenate(rows) if rows else np.zeros(0)
    offs = np.r_[0, np.cumsum([len(x) for x in rows])].astype(np.int64)
    return flat, offs


@pytest.mark.parametrize("case", list(PINNED))
def test_each_stat_alone_equals_full_block(case):
    """A stat asked for alone is bit-equal to the same stat in the full
    block, whatever intermediates the smaller request skips."""
    flat, offs = _pin_batch(case)
    with np.errstate(invalid="ignore", divide="ignore"):
        full = token_stats_arrays(flat, offs, CHEAP_STATS + HEAVY_STATS)
        for stat in CHEAP_STATS + HEAVY_STATS:
            alone = token_stats_arrays(flat, offs, (stat,))
            assert list(alone) == [stat]
            assert alone[stat].tobytes() == full[stat].tobytes(), stat


def test_null_row_gives_nan_not_a_shifted_value():
    """A null list slot whose offsets span values: its row reads NaN in every
    stat and the rows after it keep their own values."""
    toks = pa.ListArray.from_arrays(
        pa.array([0, 2, 4, 8], type=pa.int32()),
        pa.array([1, 2, 3, 4, 5, 6, 7, 8], type=pa.int32()),
        mask=pa.array([False, True, False]),
    )
    assert toks.null_count == 1 and toks.offsets.to_pylist() == [0, 2, 4, 8]
    stats = CHEAP_STATS + HEAVY_STATS
    with np.errstate(invalid="ignore", divide="ignore"):
        out = TokenWindowStats(stats=stats)(pa.table({"tokens": toks}))
        want = token_stats_arrays(
            np.array([1.0, 2, 5, 6, 7, 8]), np.array([0, 2, 6]), stats
        )
    np.testing.assert_array_equal(out["tok_range"].to_numpy(), [1.0, np.nan, 3.0])
    for stat in stats:
        got = out[f"tok_{stat}"].to_numpy()
        assert np.isnan(got[1]), stat
        np.testing.assert_array_equal(got[[0, 2]], want[stat], err_msg=stat)


@pytest.mark.parametrize("rows", [
    [[1.0, 2, 3, 4], [np.nan, 1, 2, 3]],
    [[1.0, 2, 3, 4], [1e200, 1e200, 2, 3]],
    [[1e200, 1e200, 2, 3], [1.0, 2, 3, 4]],
])
def test_cross_row_nan_or_overflow_stays_in_its_row(rows):
    """``ar1`` and ``meanTKEO`` multiply neighbours; a product across a row
    boundary that is NaN or overflows must not reach either row's value."""
    flat = np.concatenate([np.array(r) for r in rows])
    offs = np.r_[0, np.cumsum([len(r) for r in rows])].astype(np.int64)
    with np.errstate(invalid="ignore", over="ignore"):
        got = token_stats_arrays(flat, offs, ("ar1", "meanTKEO"))
        for stat in ("ar1", "meanTKEO"):
            want = np.array([STAT_KERNELS[stat](np.array(r)) for r in rows])
            np.testing.assert_array_equal(got[stat], want, err_msg=stat)

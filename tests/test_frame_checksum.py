"""The manifest checksum of an Arrow table equals the checksum of its
pandas form, so the flagship sink can checksum what it writes without a
pandas round trip and perfbench's ``read_back`` (which checksums the pandas
form, at float64 and at float32) still agrees with the manifest."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from mpds_ray.pipelines.flagship import process_bucket
from mpds_ray.state.manifest import frame_checksum


def _flagship_output() -> pa.Table:
    """One bucket's flagship output: string entity and source (with a null),
    int64 ts and session_seq, int32 n_tok, float64 stats and features with
    nulls (missing stats, unmatched as-of rows)."""
    rng = np.random.default_rng(11)
    n = 800
    ent = np.sort(rng.integers(0, 30, n))
    stat = rng.normal(size=n)
    stat[rng.random(n) < 0.2] = np.nan
    source = [None if i % 97 == 0 else "ab"[i % 2] for i in range(n)]
    left = pa.table({
        "doc_id": pa.array([f"e{v:03d}" for v in ent]),
        "ts": pa.array(rng.integers(0, 40_000, n)),
        "source": pa.array(source, type=pa.string()),
        "n_tok": pa.array(rng.integers(8, 64, n).astype(np.int32)),
        "tok_mean": pa.array(stat, from_pandas=True),
    })
    k = 60
    right = pa.table({
        "doc_id": pa.array([f"e{v:03d}" for v in rng.integers(0, 30, k)]),
        "ts": pa.array(rng.integers(0, 40_000, k)),
        "score": rng.normal(50, 10, k),
    })
    return process_bucket(left, right, "doc_id", "ts", 300.0, 2_000.0, ["tok_mean"])


def test_output_covers_the_column_kinds():
    out = _flagship_output()
    types = {f.type for f in out.schema}
    assert {pa.string(), pa.int32(), pa.int64(), pa.float64()} <= types
    assert out["source"].null_count and out["tok_mean"].null_count
    assert out["score_asof"].null_count and out["score_asof"].null_count < out.num_rows


def test_table_checksum_equals_pandas_checksum():
    out = _flagship_output()
    assert frame_checksum(out) == frame_checksum(out.to_pandas())
    # chunk layout does not matter
    two = pa.concat_tables([out.slice(0, 300), out.slice(300)])
    assert frame_checksum(two) == frame_checksum(out)


def test_float32_canonical_form_and_read_back(tmp_path):
    """``read_back``'s canonical form (float64 columns cast to float32) and
    its read of the written file give the same values as the table form."""
    out = _flagship_output()
    canon = out.cast(pa.schema([
        f.with_type(pa.float32()) if f.type == pa.float64() else f for f in out.schema
    ]))
    df = out.to_pandas()
    floats = df.select_dtypes("float64").columns
    assert frame_checksum(canon) == frame_checksum(df.astype(dict.fromkeys(floats, np.float32)))
    pq.write_table(out, tmp_path / "part.parquet")
    back = pq.read_table(tmp_path / "part.parquet").to_pandas()
    assert frame_checksum(back) == frame_checksum(out)


def test_checksum_sees_a_changed_value():
    out = _flagship_output()
    vals = out["score_locf"].to_numpy()
    vals[np.flatnonzero(~np.isnan(vals))[0]] += 1.0
    changed = out.set_column(
        out.schema.get_field_index("score_locf"), "score_locf", pa.array(vals, from_pandas=True)
    )
    assert frame_checksum(changed) != frame_checksum(out)


def test_list_and_empty_tables():
    t = pa.table({
        "tokens": pa.array([[1, 2], [3], None, []], type=pa.list_(pa.int32())),
        "flag": pa.array([True, False, None, True]),
        "name": pa.array([None, None, None, None], type=pa.string()),
    })
    assert frame_checksum(t) == frame_checksum(t.to_pandas())
    assert frame_checksum(t.slice(0, 0)) == 0

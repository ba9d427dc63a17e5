"""partial_groupby_sum (map-side partials folded at a bounded driver root)
must equal a pandas groupby of the same rows."""

from __future__ import annotations

import numpy as np
import pandas as pd


def test_driver_fold_matches_pandas(ray_session):
    import ray.data as rd

    from mpds_ray.pipelines.common import partial_groupby_sum

    rng = np.random.default_rng(0)
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b", "c", "d"], 20_000),
            "k2": rng.integers(0, 3, 20_000),
            "v": rng.normal(10, 2, 20_000),
            "w": rng.uniform(size=20_000),
        }
    )
    ds = rd.from_pandas(df).repartition(6)

    def canon(out):
        return out[sorted(out.columns)].sort_values(["k", "k2"]).reset_index(drop=True)

    a = canon(
        partial_groupby_sum(ds, ["k", "k2"], {"v": "sum_v", "w": "sum_w"},
                            count_as="n").to_pandas()
    )
    assert a["n"].sum() == len(df)
    # pandas ground truth
    want = canon(df.groupby(["k", "k2"], as_index=False).agg(
        sum_v=("v", "sum"), sum_w=("w", "sum"), n=("v", "size")
    ))
    np.testing.assert_allclose(a["sum_v"], want["sum_v"], rtol=1e-12)
    np.testing.assert_allclose(a["sum_w"], want["sum_w"], rtol=1e-12)
    assert (a["n"].to_numpy() == want["n"].to_numpy()).all()

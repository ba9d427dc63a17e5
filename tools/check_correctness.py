"""Local replica of the driver's correctness gate: run every queries() entry
and its oracle_sql() on the same sf_dir, compare row count + (sorted-column)
value content. Usage:

    python tools/check_correctness.py [--dump DIR | --same-as DIR] [sf_dir] [names...]

``--dump DIR`` runs the queries and writes each one's canonical output
(``canon``) to ``DIR/<name>.parquet`` and every oracle text to
``DIR/oracles.json``; nothing is compared. ``--same-as DIR`` compares each
query's canonical output with that dump instead of the oracle, exactly
(``assert_frame_equal(check_exact=True)``), and its oracle text with the
dumped one: dump at a known-good commit, then check that a refactor left
every output bit-identical and no oracle changed. The checkout's own path
in an oracle text (the goldens' ``read_parquet``) is written as
``{repo}``, so two checkouts compare equal.

Float columns are compared BIT-EXACT AFTER a canonical round(6) by default
(VERDICT r4 'Next round' #3: "bit compare after the committed round(6)") —
the driver's gate is an exact value hash over round-6-canonicalized values:
X88 was driver-red at 44.759062 vs 44.759063 (differs after rounding) while
knn_cosine_top10 was driver-green with the engine emitting 0.276301 and the
SQL 0.27630099654 (equal after rounding). The old atol=2e-6 default passed
X88 locally five times while it was driver-red. Pass --allclose to get the
loose compare back for debugging only; a PASS in that mode is NOT evidence
the driver gate will be green.
"""

from __future__ import annotations

import json
import os
import sys
import traceback

import duckdb
import numpy as np
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    return res if isinstance(res, pd.DataFrame) else res.to_pandas()


ALLCLOSE = False  # set by --allclose; default is the driver-faithful exact mode


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]) and ALLCLOSE:
            # rounding here masks exact-hash bugs; only the loose mode does it
            df[c] = df[c].round(6)
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    problems = []
    if len(got) != len(want):
        problems.append(f"row count {len(got)} != {len(want)}")
    gc, wc = sorted(got.columns), sorted(want.columns)
    if gc != wc:
        problems.append(f"columns {gc} != {wc}")
        return problems
    # the driver's value-hash is dtype-exact: an int64 engine column vs a
    # float64 oracle column (e.g. HUGEINT window sums -> .df() float) is a
    # hash mismatch even when every value is equal. Catch that here.
    for c in gc:
        gk = "f" if pd.api.types.is_float_dtype(got[c]) else (
            "i" if pd.api.types.is_integer_dtype(got[c]) else "o")
        wk = "f" if pd.api.types.is_float_dtype(want[c]) else (
            "i" if pd.api.types.is_integer_dtype(want[c]) else "o")
        if gk != wk:
            problems.append(f"col {c}: dtype kind {got[c].dtype} != {want[c].dtype}")
    g, w = canon(got), canon(want)
    if len(g) == len(w):
        for c in g.columns:
            a, b = g[c].to_numpy(), w[c].to_numpy()
            if pd.api.types.is_float_dtype(g[c]) or pd.api.types.is_float_dtype(w[c]):
                af, bf = a.astype(float), b.astype(float)
                if ALLCLOSE:
                    okmask = np.isclose(af, bf, atol=2e-6, rtol=1e-9, equal_nan=True)
                else:
                    # driver-faithful: bit-equal after canonical round(6)
                    # (NaN == NaN)
                    af, bf = np.round(af, 6), np.round(bf, 6)
                    okmask = (af == bf) | (np.isnan(af) & np.isnan(bf))
                ok = bool(okmask.all())
            else:
                okmask = (pd.Series(a).fillna("\0") == pd.Series(b).fillna("\0")).to_numpy()
                ok = bool(okmask.all())
            if not ok:
                bad = np.flatnonzero(~okmask)[:3]
                problems.append(
                    f"col {c}: {len(bad)}+ mismatches, first rows {bad.tolist()} "
                    f"got={a[bad].tolist()} want={b[bad].tolist()}"
                )
    return problems


def same_as(name: str, got: pd.DataFrame, oracle: str | None, dump_dir: str,
            dumped_oracles: dict[str, str]) -> list[str]:
    """Problems of ``got`` and ``oracle`` (the query's oracle text, or
    ``None``) against the ``--dump`` output of ``name``."""
    problems = []
    if oracle != dumped_oracles.get(name):
        problems.append("oracle text differs from the dump")
    path = os.path.join(dump_dir, f"{name}.parquet")
    if not os.path.exists(path):
        return problems + [f"no dump at {path}"]
    try:
        pd.testing.assert_frame_equal(canon(got), pd.read_parquet(path), check_exact=True)
    except AssertionError as e:
        problems.append(" ".join(str(e).split()))
    return problems


def oracle_texts(oracles: dict[str, str]) -> dict[str, str]:
    """The oracle texts with this checkout's path written as ``{repo}``."""
    from mpds_ray.oracle.golden import REPO_ROOT

    return {n: sql.replace(REPO_ROOT, "{repo}") for n, sql in oracles.items()}


def _pop_opt(argv: list[str], flag: str) -> str | None:
    if flag not in argv:
        return None
    i = argv.index(flag)
    value = argv[i + 1]
    del argv[i : i + 2]
    return value


def main():
    global ALLCLOSE
    argv = [a for a in sys.argv[1:] if a != "--allclose"]
    ALLCLOSE = "--allclose" in sys.argv[1:]
    dump_dir = _pop_opt(argv, "--dump")
    ref_dir = _pop_opt(argv, "--same-as")
    if dump_dir and ref_dir:
        sys.exit("--dump and --same-as exclude each other")
    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod
    from mpds_ray.oracle.golden import GOLDEN_QUERIES, SF_INDEPENDENT_GOLDENS

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    texts = oracle_texts(oracles)
    if dump_dir:
        with open(os.path.join(dump_dir, "oracles.json"), "w") as f:
            json.dump(texts, f, indent=1, sort_keys=True)
    dumped_oracles = {}
    if ref_dir:
        with open(os.path.join(ref_dir, "oracles.json")) as f:
            dumped_oracles = json.load(f)

    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    at_golden_sf = sf_dir.rstrip("/").endswith("sf0.01")
    n_pass = n_fail = n_skip = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = to_pandas(fn(sf_dir))
        except Exception:
            print(f"FAIL {name}: query raised\n{traceback.format_exc()}")
            n_fail += 1
            continue
        if dump_dir:
            canon(got).to_parquet(os.path.join(dump_dir, f"{name}.parquet"))
            print(f"dump {name} ({len(got)} rows)")
            n_pass += 1
            continue
        if ref_dir:
            problems = same_as(name, got, texts.get(name), ref_dir, dumped_oracles)
            print(f"FAIL {name}: " + "; ".join(problems) if problems
                  else f"SAME {name} ({len(got)} rows)")
            n_fail += bool(problems)
            n_pass += not problems
            continue
        if name not in oracles:
            print(f"ok   {name}: rows-only ({len(got)} rows)")
            n_pass += 1
            continue
        if name in GOLDEN_QUERIES and name not in SF_INDEPENDENT_GOLDENS and not at_golden_sf:
            # golden parquets are generated at sf0.01 (the driver's gate SF);
            # comparing them against another SF's data is meaningless
            print(f"skip {name}: golden oracle is sf0.01-only ({len(got)} rows)")
            n_skip += 1
            continue
        try:
            want = con.sql(oracles[name]).df()
        except Exception:
            print(f"FAIL {name}: oracle raised\n{traceback.format_exc()}")
            n_fail += 1
            continue
        problems = compare(name, got, want)
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            n_fail += 1
        else:
            print(f"PASS {name} ({len(got)} rows)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_skip} skip")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()

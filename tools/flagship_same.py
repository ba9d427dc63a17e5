"""Byte-level output identity of the flagship engine between two checkouts.

    python tools/flagship_same.py --dump DIR      # at a known-good commit
    python tools/flagship_same.py --same-as DIR   # at the change under test

Runs ``run_flagship_exchange`` on fixed synthetic inputs
(``synth_tokens_table``, four shards) in four configurations:

- ``flat16``: one chunk per bucket, 16 buckets;
- ``chunked512``: the same with ``chunk_rows=512``;
- ``salted``: a hot entity holding 60% of the rows, range-salted
  (low ``salt_min_rows``) with the chunked reduce;
- ``heavy``: ``NARROW_STATS`` plus the DFA and Lomb-Scargle columns.

``--dump`` copies every partition file and writes the manifest's
``(rows, checksum)`` per partition under ``DIR/<config>/``. ``--same-as``
compares a fresh run with such a dump: the same partitions, each table
equal in schema (its metadata ignored), row order, values and null masks,
every float column equal bit for bit, and the same manifest records.
perfbench compares flagship output only at float32; this is the exact check.

The tool imports the engine from its own checkout, and its Ray workers do
too, so to dump a parent commit copy it into a clone of that commit and run
it there. Exit status 1 when anything differs.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHEAP = ("mean", "std", "n")
CONFIGS = {
    "flat16": dict(inputs="base", num_buckets=16, stats=CHEAP),
    "chunked512": dict(inputs="base", num_buckets=16, stats=CHEAP, chunk_rows=512),
    "salted": dict(inputs="hot", num_buckets=16, stats=CHEAP, salt_min_rows=1_000,
                   chunk_rows=512),
    "heavy": dict(inputs="base", num_buckets=16, heavy=True),
}
INPUTS = {"base": 0.0, "hot": 0.6}  # hot_share of each input


def write_inputs(root: str, hot_share: float) -> tuple[str, str]:
    import pyarrow.parquet as pq

    from mpds_ray.synth import synth_scores_table, synth_tokens_table

    tokens_dir = os.path.join(root, "tokens")
    os.makedirs(tokens_dir)
    table = synth_tokens_table(300, 24_000, seed=8, max_tok=64, hot_share=hot_share)
    per = -(-table.num_rows // 4)
    for i in range(4):
        pq.write_table(table.slice(i * per, per), os.path.join(tokens_dir, f"part-{i}.parquet"))
    scores = os.path.join(root, "scores.parquet")
    pq.write_table(synth_scores_table(300, seed=9), scores)
    return tokens_dir, scores


def manifest_records(out_dir: str) -> dict:
    from mpds_ray.state.manifest import Manifest

    recs = Manifest(os.path.join(out_dir, "manifest.jsonl")).records()
    return {str(r["partition_id"]): [r["row_count"], r["checksum"]] for r in recs}


def table_problems(got, want) -> list[str]:
    import numpy as np
    import pyarrow as pa

    if not got.schema.equals(want.schema, check_metadata=False):
        return [f"schema {got.schema} != {want.schema}"]
    if not got.equals(want):
        return ["values or null masks differ"]
    problems = []
    for name in got.column_names:
        if pa.types.is_floating(got.schema.field(name).type):
            a = got[name].fill_null(0.0).to_numpy()
            b = want[name].fill_null(0.0).to_numpy()
            if not np.array_equal(a.view(np.uint64), b.view(np.uint64)):
                problems.append(f"{name}: float bits differ")
    return problems


def main() -> int:
    if len(sys.argv) != 3 or sys.argv[1] not in ("--dump", "--same-as"):
        sys.exit(__doc__)
    mode, ref = sys.argv[1], os.path.abspath(sys.argv[2])
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    import pyarrow.parquet as pq
    import ray

    from mpds_ray.pipelines.flagship import run_flagship_exchange

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    work = tempfile.mkdtemp(prefix="flagship_same-")
    failed = 0
    try:
        inputs = {}
        for name, hot in INPUTS.items():
            os.makedirs(os.path.join(work, name))
            inputs[name] = write_inputs(os.path.join(work, name), hot)
        for config, kw in CONFIGS.items():
            kw = dict(kw)
            tokens_dir, scores = inputs[kw.pop("inputs")]
            out = os.path.join(work, "out", config)
            run_flagship_exchange(tokens_dir, scores, out_dir=out, **kw)
            parts = sorted(os.path.basename(p) for p in glob.glob(f"{out}/part-*.parquet"))
            records = manifest_records(out)
            dest = os.path.join(ref, config)
            if mode == "--dump":
                os.makedirs(dest, exist_ok=True)
                for p in parts:
                    shutil.copy(os.path.join(out, p), os.path.join(dest, p))
                with open(os.path.join(dest, "manifest.json"), "w") as f:
                    json.dump(records, f, sort_keys=True)
                print(f"dump {config}: {len(parts)} partitions")
                continue
            problems = []
            want_parts = sorted(os.path.basename(p) for p in glob.glob(f"{dest}/part-*.parquet"))
            if parts != want_parts:
                problems.append(f"partitions {parts} != {want_parts}")
            for p in sorted(set(parts) & set(want_parts)):
                problems += [f"{p}: {m}" for m in table_problems(
                    pq.read_table(os.path.join(out, p)), pq.read_table(os.path.join(dest, p))
                )]
            with open(os.path.join(dest, "manifest.json")) as f:
                if records != json.load(f):
                    problems.append("manifest (rows, checksum) records differ")
            failed += bool(problems)
            print(f"FAIL {config}: " + "; ".join(problems) if problems
                  else f"SAME {config}: {len(parts)} partitions")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        ray.shutdown()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""mpds_ray — a Ray feature-engineering engine.

A from-scratch reimplementation of the query & data-processing capabilities of
the lionwarriorjr/mpds reference (MATLAB feature extraction + R DSSL library +
mPDS notebook pipeline) as plain Ray tasks over parquet shards: per-shard
passes (``stages.exchange.shard_map``) and explicit hash exchanges
(``exchange_map`` -> ``reduce_grid``). No query and no entry point runs Ray
Data; the Dataset-native flagship (``pipelines.flagship.run_flagship``) is
kept only as perfbench's reference engine:

- windowed statistics kernels (``mpds_ray.kernels``) — the mpds per-session
  feature library (mean/std/quantiles/entropy/ZCR/TKEO/AR1/DFA/Lomb-Scargle/MI)
  as vectorized NumPy functions applied per zero-copy Arrow batch;
- stateful sequential scans (``mpds_ray.stages``) — sessionization, lag/lead,
  LOCF/backfill with expiration, interpolation, debounce/gap-merge, and the
  flagship sort-merge **as-of join** (range-partition by entity -> per-partition
  timestamp sort -> one exact composite-key searchsorted per partition);
- relational operators (``mpds_ray.pipelines``) — grouped aggregates, joins,
  top-k, dedup, sampling — with map-side partial aggregation before any
  exchange and tie-aware partial top-k;
- training-data ops — exact & near dedup (MinHash-LSH, SimHash, n-gram
  Jaccard), text quality/language-id/token-count scoring, embedding ANN;
- lineage manifests for resumable partitioned output (``mpds_ray.state``).

Nothing here calls ``ray.init()``; the hosting process owns the Ray session.
"""

__version__ = "0.1.0"

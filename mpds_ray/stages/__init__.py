"""Vectorized scan/join/window stages and the engine's task layer.

``exchange``/``hashjoin`` hold the Ray tasks every pipeline runs on (the
per-shard ``shard_map`` and the hash exchanges). Every function in
``scans``/``sessionize``/``asof`` operates on (entity, ts)-sorted arrays and
runs inside a reduce task on an entity-complete bucket — the engine's
partition invariant (SURVEY.md §1.1: the reference's load-bearing (id, ht)
sortedness).
"""

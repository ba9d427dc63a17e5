"""Sessionization operators.

Gap-threshold sessionize generalizes the reference's segmentation scans
(voice segments extractAudioTestV1.m:38-59; interval merge
mimicUsefulFunction.R:449-494) to the engine's (entity, ts) model: a new
session opens at an entity change or when the time gap to the previous row
exceeds ``gap``. Session ids are monotone over the sorted input.
"""

from __future__ import annotations

import numpy as np


def sessionize_gap(id_arr, ts, gap) -> np.ndarray:
    """Monotone session ids over (entity, ts)-sorted arrays. Vectorized:
    ``cumsum(entity_change | dt > gap) - 1``."""
    ids = np.asarray(id_arr)
    t = np.asarray(ts, dtype=np.float64)
    if t.size == 0:
        return np.empty(0, dtype=np.int64)
    id_change = np.r_[True, ids[1:] != ids[:-1]]
    dt = np.r_[np.inf, t[1:] - t[:-1]]
    new_session = id_change | (dt > gap)
    return np.cumsum(new_session) - 1

"""Sessionization operators.

Gap-threshold sessionize generalizes the reference's segmentation scans
(voice segments extractAudioTestV1.m:38-59; interval merge
mimicUsefulFunction.R:449-494) to the engine's (entity, ts) model: a new
session opens at an entity change or when the time gap to the previous row
exceeds ``gap``. Session ids are monotone over the sorted input.
"""

from __future__ import annotations

import numpy as np

from .partition import run_bounds


def sessionize_gap(id_arr, ts, gap) -> np.ndarray:
    """Monotone session ids over (entity, ts)-sorted arrays. Vectorized:
    ``cumsum(entity_run_start | dt > gap) - 1``."""
    t = np.asarray(ts, dtype=np.float64)
    new_session = np.zeros(t.size, dtype=bool)
    new_session[1:] = t[1:] - t[:-1] > gap
    new_session[run_bounds(id_arr)[0]] = True
    return np.cumsum(new_session) - 1

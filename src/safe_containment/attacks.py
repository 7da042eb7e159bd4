"""Exponentially growing false-data injection signals.

Each channel is a componentwise exponential c_j * exp(k_j * tau) switched
on at a configurable start time.  By default the exponent runs on a
shifted clock tau = t - t_on, so the signal value at onset equals its
coefficient vector; the absolute-clock alternative (tau = t, hard
switch-on) is selectable and differs only by the bounded factor
exp(k * t_on).
"""

from __future__ import annotations

import numpy as np


def eval_stacked(
    coefficients: np.ndarray,
    rates: np.ndarray,
    start_time: float,
    t: float,
    absolute_clock: bool = False,
) -> np.ndarray:
    """Every channel of a stack of (·, d) coefficient/rate arrays sharing
    one start time, at time t: zero before start_time, then
    coefficients * exp(rates * tau)."""
    if t < start_time:
        return np.zeros_like(coefficients)
    tau = t if absolute_clock else t - start_time
    return coefficients * np.exp(rates * tau)

"""Exponentially growing false-data injection signals.

Each channel is a componentwise exponential c_j * exp(k_j * tau) switched
on at a configurable start time.  By default the exponent runs on a
shifted clock tau = t - t_on, so the signal value at onset equals its
coefficient vector; the absolute-clock alternative (tau = t, hard
switch-on) is selectable and differs only by the bounded factor
exp(k * t_on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExpSignal:
    """Vector signal c * exp(k * tau), zero before start_time."""

    coefficients: np.ndarray
    rates: np.ndarray
    start_time: float = 0.0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        k = np.atleast_1d(np.asarray(self.rates, dtype=float))
        if c.shape != k.shape or c.ndim != 1:
            raise ValueError("coefficients and rates must be 1-D and equal length")
        if self.start_time < 0:
            raise ValueError("start_time must be nonnegative")
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "rates", k)

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    def __call__(self, t: float, absolute_clock: bool = False) -> np.ndarray:
        if t < self.start_time:
            return np.zeros(self.dim)
        tau = t if absolute_clock else t - self.start_time
        return self.coefficients * np.exp(self.rates * tau)

    @classmethod
    def zero(cls, dim: int, start_time: float = 0.0) -> "ExpSignal":
        return cls(np.zeros(dim), np.zeros(dim), start_time)


def eval_stacked(
    coefficients: np.ndarray,
    rates: np.ndarray,
    start_time: float,
    t: float,
    absolute_clock: bool = False,
) -> np.ndarray:
    """Batched evaluation for (N, d) coefficient/rate arrays sharing one
    start time.  Used by the simulator's inner loop."""
    if t < start_time:
        return np.zeros_like(coefficients)
    tau = t if absolute_clock else t - start_time
    return coefficients * np.exp(rates * tau)

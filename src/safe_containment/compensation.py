"""Resilient control input: nominal feedback plus adaptive attack compensation.

The nominal input is u_c = K x + H zeta.  The compensation term points
along B'P eps (eps = x - zeta) with an adaptive magnitude exp(rho_hat)
that grows at rate alpha * ||eps' P B||, eventually out-pacing any
exponentially growing injection on the input channel.  The regularizer
exp(-c t^2) keeps the denominator positive so the signal is smooth.

Every function works on all N followers at once, one row per follower.
"""

from __future__ import annotations

import numpy as np


def nominal_input(
    K: np.ndarray, H: np.ndarray, x: np.ndarray, zeta: np.ndarray
) -> np.ndarray:
    """Nominal tracking inputs u_c = K_i x_i + H_i zeta_i, as an (N, m)
    array from the stacked gains K, H of shape (N, m, n).  Leading axes
    of x and zeta before the (N, n) rows are a batch."""
    u_c = np.matmul(K, x[..., None]) + np.matmul(H, zeta[..., None])
    return u_c[..., 0]


def projected_error(PB: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """s_i = eps_i' P_i B_i, as an (N, m) array from the stacked products
    P_i B_i of shape (N, n, m).  Leading axes of eps before the (N, n)
    rows are a batch."""
    return np.matmul(eps[..., None, :], PB)[..., 0, :]


def compensation_law(
    s: np.ndarray,
    rho_hat: np.ndarray,
    alpha: np.ndarray,
    c: np.ndarray,
    t: float,
    gain_cap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive compensation gamma_hat and its gain rate rho_hat' from
    the projected errors s (see ``projected_error``):

        gamma_hat_i = s_i' exp(rho_hat_i) / (||s_i|| + exp(-c_i t^2))
        rho_hat_i'  = alpha_i ||s_i||       (always nonnegative)

    rho_hat is clamped at gain_cap before exponentiation so exp() cannot
    overflow.
    """
    ns = np.sqrt(np.einsum("ni,ni->n", s, s))
    denom = ns + np.exp(-c * t * t)
    gamma_hat = s * (np.exp(np.minimum(rho_hat, gain_cap)) / denom)[:, None]
    return gamma_hat, alpha * ns

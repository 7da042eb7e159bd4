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


def per_follower(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M_i v_i for every follower i, from stacked (N, j, k) matrices and
    (..., N, k) rows whose leading axes are a batch, in N products."""
    rows = v.swapaxes(0, -2)
    out = rows.reshape(len(M), -1, v.shape[-1]) @ M.transpose(0, 2, 1)
    return out.reshape(*rows.shape[:-1], -1).swapaxes(0, -2)


def nominal_input(
    K: np.ndarray, H: np.ndarray, x: np.ndarray, zeta: np.ndarray
) -> np.ndarray:
    """Nominal tracking inputs u_c = K_i x_i + H_i zeta_i, as an (N, m)
    array from the stacked gains K, H of shape (N, m, n).  Leading axes
    of x and zeta before the (N, n) rows are a batch."""
    return per_follower(K, x) + per_follower(H, zeta)


def projected_error(PB: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """s_i = eps_i' P_i B_i, as an (N, m) array from the stacked products
    P_i B_i of shape (N, n, m).  Leading axes of eps before the (N, n)
    rows are a batch."""
    return per_follower(PB.transpose(0, 2, 1), eps)


def compensation_law(
    s: np.ndarray, gain: np.ndarray, alpha: np.ndarray, reg: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive compensation gamma_hat and its gain rate rho_hat' from
    the projected errors s (see ``projected_error``), the gains
    exp(rho_hat) (see ``observer.adaptive_gain``) and the regularizers
    exp(-c t^2); the rate is written into ``out`` when one is given:

        gamma_hat_i = s_i' exp(rho_hat_i) / (||s_i|| + exp(-c_i t^2))
        rho_hat_i'  = alpha_i ||s_i||       (always nonnegative)
    """
    ns = np.sqrt(np.add.reduce(s * s, axis=1))
    gamma_hat = s * (gain / (ns + reg))[:, None]
    return gamma_hat, np.multiply(alpha, ns, out=out)

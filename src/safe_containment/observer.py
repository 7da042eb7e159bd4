"""Distributed attack-resilient observer layer.

Each follower integrates a local copy of the leader dynamics driven by an
adaptively amplified neighborhood signal:

    zeta' = S zeta + exp(theta) xi + gamma_ol
    theta' = q * xi' xi        (q > 0, so theta never decreases)

The exponential gain eventually dominates any injected signal whose norm
grows at most exponentially.

The standard observer, the same equation with the fixed unit coupling
gain and no adaptation (theta stays 0),

    zeta' = S zeta + xi + gamma_ol

is the ``conventional`` branch of the engine's pipeline (``sim``).

Every function works on all N followers at once, one row per follower.
"""

from __future__ import annotations

import numpy as np

from .topology import Topology


def neighborhood_signal(
    zeta: np.ndarray, leader_x: np.ndarray, topology: Topology
) -> np.ndarray:
    """Relative information each follower gathers from its neighbors,
    xi_i = sum_j a_ij (zeta_j - zeta_i) + sum_r g_ir (x_r - zeta_i),
    as an (N, n) array."""
    return (
        topology.adjacency @ zeta
        - topology.self_weight[:, None] * zeta
        + topology.pinning.T @ leader_x
    )


def adaptive_gain(log_gain: np.ndarray, gain_cap: float) -> np.ndarray:
    """exp(theta) or exp(rho_hat), its exponent clamped at gain_cap."""
    return np.exp(np.minimum(log_gain, gain_cap))


def observer_input(
    xi: np.ndarray,
    gamma_ol: np.ndarray,
    gain: np.ndarray,
    q: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The observer rates less their linear drift S zeta: the driving
    term exp(theta) xi + gamma_ol of zeta' and the rate theta', given the
    gains exp(theta) (see ``adaptive_gain``).  The rate is written into
    ``out`` when one is given."""
    return (gain[:, None] * xi + gamma_ol,
            np.multiply(q, np.add.reduce(xi * xi, axis=1), out=out))

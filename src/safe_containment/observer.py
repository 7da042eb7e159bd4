"""Distributed attack-resilient observer layer.

Each follower integrates a local copy of the leader dynamics driven by an
adaptively amplified neighborhood signal:

    zeta' = S zeta + exp(theta) xi + gamma_ol
    theta' = q * xi' xi        (q > 0, so theta never decreases)

The exponential gain eventually dominates any injected signal whose norm
grows at most exponentially.

The ``conventional`` controller mode runs the standard observer instead:
the same equation with the fixed unit coupling gain (the resilient gain
at theta = 0) and no adaptation, so theta stays 0:

    zeta' = S zeta + xi + gamma_ol

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


def observer_input(
    xi: np.ndarray,
    gamma_ol: np.ndarray,
    theta: np.ndarray,
    q: np.ndarray,
    gain_cap: float,
    resilient: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The observer rates less their linear drift S zeta: the driving
    term exp(theta) xi + gamma_ol of zeta' and the rate theta'.

    theta is clamped at gain_cap before exponentiation so exp() cannot
    overflow.  With ``resilient=False`` this is the standard observer:
    unit gain whatever theta is, and theta' = 0.
    """
    if resilient:
        gain = np.exp(np.minimum(theta, gain_cap))[:, None]
        dtheta = q * np.einsum("ni,ni->n", xi, xi)
    else:
        gain = 1.0
        dtheta = np.zeros_like(theta)
    return gain * xi + gamma_ol, dtheta

"""Directed communication graphs linking followers and leaders.

The follower subgraph is a weighted digraph (entry ``a[i, j]`` is the
weight follower ``i`` places on information received from follower ``j``).
Each leader additionally pins a subset of followers through nonnegative
diagonal gain matrices.  From these the coupling matrices
``Phi_r = (1/M) L + G_r`` are assembled; their sum must be nonsingular
for the containment error to be well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class TopologyError(ValueError):
    """Raised for graphs that cannot support containment control."""


@dataclass(frozen=True)
class Topology:
    """Time-invariant digraph of N followers and M leaders.

    adjacency : (N, N) nonnegative, zero diagonal.
    pinning   : (M, N) nonnegative; row r holds the diagonal of G_r.
    """

    adjacency: np.ndarray
    pinning: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=float)
        pin = np.asarray(self.pinning, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise TopologyError("adjacency must be a square matrix")
        if pin.ndim != 2 or pin.shape[1] != adj.shape[0]:
            raise TopologyError(
                "pinning must be (M, N) with N matching adjacency"
            )
        if pin.shape[0] < 1:
            raise TopologyError("at least one leader is required")
        if not all(np.all(np.isfinite(w) & (w >= 0)) for w in (adj, pin)):
            raise TopologyError(
                "edge and pinning weights must be finite and nonnegative"
            )
        if np.any(np.diag(adj) != 0):
            raise TopologyError("adjacency diagonal must be zero")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "pinning", pin)

    @property
    def n_followers(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_leaders(self) -> int:
        return self.pinning.shape[0]

    @cached_property
    def self_weight(self) -> np.ndarray:
        """(N,) weight each follower puts on its own state in its
        neighborhood signal: in-degree plus total pinning gain."""
        return self.adjacency.sum(axis=1) + self.pinning.sum(axis=0)


@dataclass(frozen=True)
class PhiFamily:
    """Coupling matrices Phi_r = (1/M) L + G_r, their sum, and the hull
    weights W = (sum_nu Phi_nu)^-1 [Phi_1 1, ..., Phi_M 1]: row i of
    W @ leader_x is follower i's convex-hull reference."""

    phi: np.ndarray           # (M, N, N)
    phi_sum: np.ndarray       # (N, N)
    laplacian: np.ndarray     # (N, N)
    hull_weights: np.ndarray  # (N, M)


def check_reachability(topology: Topology) -> set[int]:
    """Return the set of follower indices with no directed path from a leader.

    Information flows leader -> pinned follower -> followers that weight
    them.  Each round from the pinned followers reaches every follower i
    with a[i, j] > 0 for a j the last round reached, until a round (the
    fixed point) reaches no new follower; each column is read once.
    """
    reached = new = topology.pinning.sum(axis=0) > 0
    while new.any():
        new = (topology.adjacency[:, new] > 0).any(axis=1) & ~reached
        reached = reached | new
    return set(np.flatnonzero(~reached).tolist())


def build_phi_family(topology: Topology) -> PhiFamily:
    """Assemble the Laplacian and all Phi_r matrices for a valid topology.

    Uses the in-degree convention L = D_in - A with D_in = diag(row sums),
    so the stacked neighborhood signal equals -sum_r (Phi_r kron I) applied
    to the observer containment error.

    Raises TopologyError if some follower is unreachable from every leader,
    naming the offending followers numbered from 1, or if the sum of Phi_r
    is singular.
    """
    unreachable = check_reachability(topology)
    if unreachable:
        raise TopologyError(
            "followers with no directed path from any leader: "
            f"{sorted(i + 1 for i in unreachable)}"
        )
    adj = topology.adjacency
    m = topology.n_leaders
    laplacian = np.diag(adj.sum(axis=1)) - adj
    phi = np.stack(
        [laplacian / m + np.diag(topology.pinning[r]) for r in range(m)]
    )
    phi_sum = phi.sum(axis=0)
    try:  # LU can meet a zero pivot where an SVD sees none (weights 1e300)
        hull_weights = np.linalg.solve(phi_sum, phi.sum(axis=2).T)
    except np.linalg.LinAlgError:
        raise TopologyError("sum of Phi_r is singular") from None
    return PhiFamily(phi=phi, phi_sum=phi_sum, laplacian=laplacian,
                     hull_weights=hull_weights)

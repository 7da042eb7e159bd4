"""Independent reference implementations used only to cross-check results.

Everything here deliberately avoids the code paths under test: eigenvalues
come from characteristic-polynomial roots, barrier values from their
definition, stacked signals from dense Kronecker assembly, and QP solutions
from exhaustive active-set enumeration.
"""

import itertools

import numpy as np


def charpoly_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial, with the
    coefficients built by the Faddeev-LeVerrier trace recursion."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    coeffs = [1.0]
    mk = np.eye(n)
    for k in range(1, n + 1):
        mk = mat @ mk
        ck = -np.trace(mk) / k
        coeffs.append(ck)
        mk = mk + ck * np.eye(n)
    return np.roots(coeffs)


def cbf_value(x_i, x_j, d_s: float) -> float:
    """Barrier value d_s^2 - ||x_i - x_j||^2; nonpositive means safe."""
    if d_s <= 0:
        raise ValueError("d_s must be positive")
    diff = np.asarray(x_i, dtype=float) - np.asarray(x_j, dtype=float)
    return float(d_s * d_s - diff @ diff)


def kron_stacked_xi(zetas, leader_states, phi) -> np.ndarray:
    """Stacked neighborhood signal -sum_r (Phi_r kron I) (zeta - 1 kron x_r),
    assembled densely."""
    zetas = np.asarray(zetas, dtype=float)
    leader_states = np.asarray(leader_states, dtype=float)
    n = zetas.shape[1]
    z = zetas.ravel()
    out = np.zeros_like(z)
    for r in range(leader_states.shape[0]):
        xbar = np.kron(np.ones(zetas.shape[0]), leader_states[r])
        out += -np.kron(phi.phi[r], np.eye(n)) @ (z - xbar)
    return out


def kron_containment_error(states, leader_states, phi) -> np.ndarray:
    """Dense assembly of x - (sum Phi_nu kron I)^-1 sum_r (Phi_r kron I)
    (1 kron x_r)."""
    states = np.asarray(states, dtype=float)
    leader_states = np.asarray(leader_states, dtype=float)
    n = states.shape[1]
    big_sum = np.kron(phi.phi_sum, np.eye(n))
    acc = np.zeros(states.size)
    for r in range(leader_states.shape[0]):
        xbar = np.kron(np.ones(states.shape[0]), leader_states[r])
        acc += np.kron(phi.phi[r], np.eye(n)) @ xbar
    return states.ravel() - np.linalg.solve(big_sum, acc)


def qp_enumeration(u_bar, rows, rhs, tol=1e-9):
    """Projection of u_bar onto {u : rows @ u <= rhs} by checking the
    equality-projection candidate of every constraint subset.

    Returns (u, active_indices) or None if no candidate is feasible
    (empty polyhedron for these rows).
    """
    u_bar = np.asarray(u_bar, dtype=float)
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    rhs = np.asarray(rhs, dtype=float)
    k = rows.shape[0]
    best = None
    best_cost = np.inf
    best_active = None
    for size in range(0, k + 1):
        for subset in itertools.combinations(range(k), size):
            if size == 0:
                u = u_bar.copy()
            else:
                sub = rows[list(subset)]
                target = rhs[list(subset)]
                lam, *_ = np.linalg.lstsq(sub @ sub.T, sub @ u_bar - target,
                                          rcond=None)
                u = u_bar - sub.T @ lam
                if np.max(np.abs(sub @ u - target)) > 1e-7:
                    continue  # inconsistent subset
            if np.all(rows @ u - rhs <= tol * np.maximum(1.0, np.abs(rhs))):
                cost = float((u - u_bar) @ (u - u_bar))
                if cost < best_cost - 1e-15:
                    best, best_cost, best_active = u, cost, subset
    if best is None:
        return None
    return best, best_active


def kkt_residual(u, u_bar, rows, rhs, active_tol=1e-7):
    """Worst KKT violation of a candidate projection: stationarity over the
    multipliers of the active rows, primal feasibility, dual feasibility.
    Complementarity holds by construction since only active rows carry
    multipliers."""
    u = np.asarray(u, dtype=float)
    u_bar = np.asarray(u_bar, dtype=float)
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    rhs = np.asarray(rhs, dtype=float)
    if rows.size == 0:
        return float(np.max(np.abs(u - u_bar)))
    slack = rhs - rows @ u
    primal = max(0.0, float(np.max(-slack)))
    active = slack <= active_tol * np.maximum(1.0, np.abs(rhs))
    if not np.any(active):
        return max(primal, float(np.max(np.abs(u - u_bar))))
    sub = rows[active]
    lam, *_ = np.linalg.lstsq(sub.T, u_bar - u, rcond=None)
    stationarity = float(np.max(np.abs(u - u_bar + sub.T @ lam)))
    dual = max(0.0, float(np.max(-lam)))
    return max(stationarity, primal, dual)

"""Independent reference implementations used only to cross-check results.

Everything here deliberately avoids the code paths under test: eigenvalues
come from characteristic-polynomial roots, barrier values from their
definition, stacked signals from dense Kronecker assembly, and QP solutions
from exhaustive active-set enumeration.  The bit references at the end are
earlier forms of the safety filter's barrier rows and QP, each product
through its own call, that the filter must match byte for byte.
"""

import itertools
import math

import numpy as np

from safe_containment.safety import QP_MAX_ITER, QP_TOL, QPInfeasibleError


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


# -- bit references of the safety filter ------------------------------------


def barrier_terms(x_i, x_j, ax_i, ax_j, b_i, delta, d_s):
    """The input-free barrier terms of a stack of pairs (i_k, j_k), one
    row per pair, with -2 applied after each dot of r = x_i - x_j: r, h,
    the rows a = -2 r' B_i, b0 = -delta*h - 2 r'(A_j x_j) and
    lf = -2 r'(A_i x_i)."""
    r = x_i - x_j
    h = d_s * d_s - np.vecdot(r, r)
    lf = -2.0 * np.vecdot(r, ax_i)
    a = -2.0 * np.vecmat(r, b_i)
    b0 = -delta * h - 2.0 * np.vecdot(r, ax_j)
    return r, h, a, b0, lf


def barrier_rhs(b0, r, bu_j, lf):
    """The bound b = b0 - 2 r'(B_j u_j) - lf of each row, in that order."""
    return b0 - 2.0 * np.vecdot(r, bu_j) - lf


def reference_agent_qp(u_bar, rows, rhs, pairs):
    """The dual active-set projection of u_bar onto {u : rows u <= rhs},
    with every product through matmul on 2-D stacks of the active rows.
    Returns u, u - u_bar and the active pairs, or raises QPInfeasibleError
    with the pairs and message the filter's QP gives."""
    u_bar = np.asarray(u_bar, dtype=float)
    viol = np.vecdot(rows, u_bar) - rhs
    scale = np.maximum(1.0, np.abs(rhs))
    rhs_f = rhs.tolist()
    u = u_bar
    active, lam = [], []
    for _ in range(QP_MAX_ITER):
        scaled = viol / scale
        p = int(scaled.argmax())
        if scaled[p] <= QP_TOL:
            u = u_bar.copy() if u is u_bar else u
            return u, u - u_bar, [pairs[k] for k in active]
        cp = rows[p]
        cc = float(cp @ cp)
        if math.sqrt(cc) <= QP_TOL * scale[p]:
            raise QPInfeasibleError(
                f"degenerate constraint for pair {pairs[p]}: violated, "
                f"with a row of norm {math.sqrt(cc):.3g}",
                pairs=[pairs[k] for k in active] + [pairs[p]],
            )
        lam_p = 0.0
        for _ in range(QP_MAX_ITER):
            if active:
                n_mat = rows[active]
                nc, nn = n_mat @ cp, n_mat @ n_mat.T
                r = -nc / nn[0] if len(active) == 1 else -np.linalg.solve(nn, nc)
                z = cp + n_mat.T @ r
                r = r.tolist()
                zz = float(z @ z)
            else:
                r, z, zz = [], cp, cc
            s_p = float(viol[p]) if u is u_bar else float(cp @ u) - rhs_f[p]
            t_full = s_p / zz if zz > 1e-12 * max(cc, 1e-300) else math.inf
            t_part, block = math.inf, -1
            for idx, r_idx in enumerate(r):
                if r_idx < -1e-12 and -lam[idx] / r_idx < t_part:
                    t_part, block = -lam[idx] / r_idx, idx
            step = min(t_full, t_part)
            if not math.isfinite(step):
                blocking = [pairs[k] for k in active] + [pairs[p]]
                raise QPInfeasibleError(
                    f"no input satisfies constraints for pairs {blocking}",
                    pairs=blocking,
                )
            u = u - step * z
            lam = [lv + step * rv for lv, rv in zip(lam, r)]
            lam_p += step
            if t_full <= t_part:
                active.append(p)
                lam.append(lam_p)
                break
            active.pop(block)
            lam.pop(block)
        viol = rows @ u - rhs
    raise QPInfeasibleError(
        "active-set iteration cap exceeded", pairs=list(pairs))


def filtered_inputs(u_bars, results):
    """The inputs a ``sequential_filter`` call applies: u_bars, with the u
    of each QP it ran written in at its agent."""
    u = np.array(u_bars, dtype=float)
    for res in results:
        u[res.agent] = res.u
    return u

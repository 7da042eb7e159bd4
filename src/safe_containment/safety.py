"""Collision-avoidance safety filter.

Pairwise safety is encoded by the barrier h = d_s^2 - ||x_i - x_j||^2
(nonpositive while the pair is safe).  Requiring h' <= -delta * h yields
one affine inequality on the lower-indexed agent's input per pair; the
filtered input is the closest point to the requested input satisfying all
of that agent's inequalities, found with a small dense active-set solver.

Agents are processed backward: the highest-indexed agent keeps its
requested input, and each agent i < N solves a QP whose constraints use
the already-finalized inputs of all agents j > i.  The parts of every
pair's constraint that do not depend on an input are assembled for all
pairs at once, so each agent's constraints are a slice of stacked rows.
A screen tests every row against the QP's fast-path condition in one
batch, so only the agents with a possibly binding row reach the QP.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

QP_TOL = 1e-9

# The screen in ``sequential_filter`` certifies a row a u <= b when the
# batched a u_bar - b is at most _SCREEN_TOL max(1, |b|) - margin, with
# margin = _SCREEN_DOT m S, S = sum_l |a_l u_bar_l|.  solve_agent_qp's own
# product a u_bar sums the same m terms in another order, with or without
# fused multiply-adds.  Each sum lies within gamma_m S of the exact value
# (gamma_m = m u / (1 - m u), u = eps / 2), so the two differ by at most
# 2 gamma_m S, about m eps S; the margin of 4 m eps S bounds that with room
# for the rounding of S and of the margin itself.  Shrinking the tolerance
# by a relative 4 eps leaves a gap of at least 3 eps QP_TOL max(1, |b|) for
# the rounding of the subtraction and of the threshold, which is what
# counts where S is near 0.  A certified row therefore passes the QP's
# fast-path test a u_bar - b <= QP_TOL max(1, |b|) exactly as computed
# there, and a NaN never certifies.
_SCREEN_TOL = QP_TOL * (1.0 - 4.0 * np.finfo(float).eps)
_SCREEN_DOT = 4.0 * np.finfo(float).eps


class QPInfeasibleError(RuntimeError):
    """Raised when a constraint set admits no input at all."""

    def __init__(self, message: str, pairs: list = None, agent: int = None):
        super().__init__(message)
        self.pairs = pairs or []
        self.agent = agent


@dataclass(frozen=True)
class PairConstraint:
    """Affine safety constraint a' u_i <= b for the follower pair (i, j)."""

    i: int
    j: int
    a: np.ndarray
    b: float
    delta: float
    h: float

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)


@dataclass(frozen=True)
class FilterResult:
    """Filtered input for one agent with its constraint activity."""

    u: np.ndarray
    delta_u: np.ndarray
    active_set: list = field(default_factory=list)


@dataclass(frozen=True)
class AgentRows:
    """One agent's constraints a_k' u <= b_k as arrays: rows ``a`` (k, m),
    bounds ``b`` (k,) and the follower pair of each row."""

    a: np.ndarray
    b: np.ndarray
    pairs: Sequence[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.b)


def cbf_value(x_i: np.ndarray, x_j: np.ndarray, d_s: float) -> float:
    """Barrier value d_s^2 - ||x_i - x_j||^2; nonpositive means safe."""
    if d_s <= 0:
        raise ValueError("d_s must be positive")
    diff = np.asarray(x_i, dtype=float) - np.asarray(x_j, dtype=float)
    return float(d_s * d_s - diff @ diff)


@lru_cache(maxsize=None)
def _pair_index(n_agents: int):
    """Every follower pair (i, j), i < j, in ``itertools.combinations``
    order, with the pairs' i and j as read-only index arrays.  Agent i's
    pairs are one contiguous run of N - 1 - i rows."""
    pairs = tuple(itertools.combinations(range(n_agents), 2))
    index = np.array(pairs, dtype=int).reshape(-1, 2).T.copy()
    index.setflags(write=False)
    return pairs, index[0], index[1]


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row k of u dotted with row k of v, one dot call per row."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _barrier_terms(x_i, x_j, ax_i, ax_j, b_i, delta, d_s):
    """The input-free barrier terms of a stack of pairs (i_k, j_k), one
    row per pair, from the pairs' states x, products A x and matrices B_i.

    With r = x_i - x_j the barrier derivative along the joint dynamics is
    -2 r' (A_i x_i + B_i u_i - A_j x_j - B_j u_j), so h' <= -delta * h
    rearranges to the row a = -2 r' B_i on u_i and the bound
    b = -delta*h - 2 r'(A_j x_j) - 2 r'(B_j u_j) - lf with lf = -2 r'(A_i x_i).
    Returns r, h, a, b0 = -delta*h - 2 r'(A_j x_j) (the part of b that
    needs no input; ``_barrier_rhs`` completes b) and lf.
    """
    r = x_i - x_j
    h = d_s * d_s - _rowdot(r, r)
    lf = -2.0 * _rowdot(r, ax_i)
    a = -2.0 * np.matmul(r[:, None, :], b_i)[:, 0]
    b0 = -delta * h - 2.0 * _rowdot(r, ax_j)
    return r, h, a, b0, lf


def _barrier_rhs(b0, r, bu_j, lf):
    """b of each row, given B_j u_j of the row's finalized agent j.  The
    terms are summed in the formula's order: regrouping them moves b in
    the last bits, which a long run amplifies."""
    return b0 - 2.0 * _rowdot(r, bu_j) - lf


def build_constraint(
    i: int,
    j: int,
    states: np.ndarray,
    models,
    u_j: np.ndarray,
    delta_ij: float,
    d_s: float,
) -> PairConstraint:
    """Constraint on u_i for the pair (i, j), given agent j's finalized
    input: the one-pair case of the filter's stacked assembly."""
    x_i, x_j = states[i], states[j]
    r, h, a, b0, lf = _barrier_terms(
        x_i[None],
        x_j[None],
        (models[i].A @ x_i)[None],
        (models[j].A @ x_j)[None],
        models[i].B[None],
        delta_ij,
        d_s,
    )
    b = _barrier_rhs(b0, r, (models[j].B @ u_j)[None], lf)
    return PairConstraint(
        i=i, j=j, a=a[0], b=float(b[0]), delta=delta_ij, h=float(h[0])
    )


def solve_agent_qp(
    u_bar: np.ndarray,
    constraints: AgentRows,
    tol: float = QP_TOL,
    max_iter: int = 100,
) -> FilterResult:
    """Project u_bar onto the polyhedron {u : a_k' u <= b_k}.

    Dual active-set iteration (Goldfarb-Idnani scheme specialized to an
    identity Hessian): start at the unconstrained optimum u_bar, repeatedly
    pick the most violated constraint and push its multiplier up, moving
    along the projection of its gradient onto the null space of the active
    rows.  A blocking multiplier hitting zero drops its constraint; a zero
    step direction with no blocking constraint certifies infeasibility.
    Problems here have at most a handful of rows, so dense solves are cheap.
    Scalars are Python floats, which round as numpy's float64 does.
    """
    u_bar = np.asarray(u_bar, dtype=float)
    if not constraints:
        return FilterResult(u=u_bar.copy(), delta_u=np.zeros_like(u_bar))

    rows, rhs, pairs = constraints.a, constraints.b, constraints.pairs
    scale = np.maximum(1.0, np.abs(rhs))
    bound = tol * scale

    # Fast path: the requested input already satisfies every constraint.
    viol = rows @ u_bar - rhs
    if (viol <= bound).all():
        return FilterResult(u=u_bar.copy(), delta_u=np.zeros_like(u_bar))

    rhs_f, bound_f = rhs.tolist(), bound.tolist()
    u = u_bar.copy()
    active: list[int] = []
    lam: list[float] = []
    for _ in range(max_iter):
        p = int((viol / scale).argmax())
        if viol[p] <= bound_f[p]:
            return FilterResult(
                u=u, delta_u=u - u_bar, active_set=[pairs[k] for k in active]
            )
        cp = rows[p]
        cc = float(cp @ cp)
        lam_p = 0.0
        for _ in range(max_iter):
            if active:
                n_mat = rows[active]
                r = -np.linalg.solve(n_mat @ n_mat.T, n_mat @ cp)
                z = cp + n_mat.T @ r
                r = r.tolist()
            else:
                r = []
                z = cp
            zz = float(z @ z)
            s_p = float(cp @ u) - rhs_f[p]
            # full step reaches the violated constraint's boundary
            t_full = s_p / zz if zz > 1e-12 * max(cc, 1e-300) else math.inf
            # partial step where an active multiplier would turn negative
            t_part = math.inf
            block = -1
            for idx, r_idx in enumerate(r):
                if r_idx < -1e-12:
                    cand = -lam[idx] / r_idx
                    if cand < t_part:
                        t_part, block = cand, idx
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
        "active-set iteration cap exceeded",
        pairs=list(pairs),
    )


def sequential_filter(
    u_bars: np.ndarray,
    states: np.ndarray,
    a_mats: np.ndarray,
    b_mats: np.ndarray,
    delta: np.ndarray,
    d_s: float,
) -> list[FilterResult]:
    """Backward sweep over agents: u_N stays as requested, then each lower
    index is filtered against all higher-indexed, already-finalized inputs.

    Every pair's input-free barrier terms are assembled in one batch, and
    every row's bound b is completed with B_j u_bar_j.  The screen then
    certifies each row that u_bar already satisfies; an agent whose rows
    are all certified keeps u_bar, exactly as its QP's fast path would.
    The highest agent i with an uncertified row solves its QP on its
    slice of rows; B_i u_i then completes b anew for the rows of the
    agents below i, and only those rows are screened again.  The outputs
    are bit-identical to solving every agent's QP in turn.

    a_mats (N, n, n) and b_mats (N, n, m) stack the agents' A and B; delta
    may be a scalar or an (N, N) array of per-pair constraint rates.
    """
    n_agents = len(u_bars)
    u_bars = np.asarray(u_bars, dtype=float)
    states = np.asarray(states, dtype=float)
    pairs, pair_i, pair_j = _pair_index(n_agents)
    delta = np.asarray(delta, dtype=float)
    delta = delta[pair_i, pair_j] if delta.ndim else float(delta)
    ax = np.matmul(a_mats, states[:, :, None])[:, :, 0]
    r, _, a, b0, lf = _barrier_terms(
        states[pair_i], states[pair_j], ax[pair_i], ax[pair_j],
        b_mats[pair_i], delta, d_s,
    )
    bu = np.matmul(b_mats, u_bars[:, :, None])[:, :, 0]  # B_j u_j
    b = _barrier_rhs(b0, r, bu[pair_j], lf)
    rows_u = u_bars[pair_i]
    au = _rowdot(a, rows_u)
    margin = _SCREEN_DOT * u_bars.shape[1] * _rowdot(np.abs(a), np.abs(rows_u))

    # every agent keeps its u_bar unless its QP runs
    results = list(map(FilterResult, u_bars.copy(), np.zeros(u_bars.shape)))
    end = len(pairs)  # rows of the agents not yet finalized
    while end:
        bound = _SCREEN_TOL * np.maximum(1.0, np.abs(b)) - margin[:end]
        certified = au[:end] - b <= bound
        if certified.all():
            break
        i = int(pair_i[end - 1 - certified[::-1].argmin()])  # last open row
        start = i * (2 * n_agents - i - 1) // 2  # agent i's rows (i, j > i)
        own = slice(start, start + n_agents - 1 - i)
        try:
            results[i] = solve_agent_qp(
                u_bars[i], AgentRows(a=a[own], b=b[own], pairs=pairs[own])
            )
        except QPInfeasibleError as err:
            err.agent = i
            raise
        end = start
        bu[i] = b_mats[i] @ results[i].u
        b = _barrier_rhs(b0[:end], r[:end], bu[pair_j[:end]], lf[:end])
    return results

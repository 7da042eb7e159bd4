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
Every row is tested once, in one batch, with the same comparison the
QP's first iteration makes, so only the agents that the QP would move
reach it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

QP_TOL = 1e-9
QP_MAX_ITER = 100


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


def solve_agent_qp(u_bar: np.ndarray, constraints: AgentRows) -> FilterResult:
    """Project u_bar onto the polyhedron {u : a_k' u <= b_k}.

    Dual active-set iteration (Goldfarb-Idnani scheme specialized to an
    identity Hessian): start at the unconstrained optimum u_bar, repeatedly
    pick the most violated constraint and push its multiplier up, moving
    along the projection of its gradient onto the null space of the active
    rows.  A blocking multiplier hitting zero drops its constraint; a zero
    step direction with no blocking constraint certifies infeasibility.
    A row holds when (a u - b) / max(1, |b|) <= QP_TOL; at u_bar, a u is
    the ``_rowdot`` product that ``sequential_filter`` screens with.
    A violated row with ||a|| <= QP_TOL * max(1, |b|) is degenerate: on
    the scale its violation is measured in, its gradient is zero, so it
    reads 0' u <= b < 0 and raises ``QPInfeasibleError``, as an exactly
    zero row does; stepping along it would move u by about |b| / ||a||.
    Problems here have at most a handful of rows, so dense solves are cheap.
    Scalars are Python floats, which round as numpy's float64 does.
    """
    u_bar = np.asarray(u_bar, dtype=float)
    if not constraints:
        return FilterResult(u=u_bar.copy(), delta_u=np.zeros_like(u_bar))

    rows, rhs, pairs = constraints.a, constraints.b, constraints.pairs
    scale = np.maximum(1.0, np.abs(rhs))
    viol = _rowdot(rows, u_bar[None]) - rhs
    rhs_f = rhs.tolist()
    u = u_bar.copy()
    active: list[int] = []
    lam: list[float] = []
    for _ in range(QP_MAX_ITER):
        scaled = viol / scale
        p = int(scaled.argmax())
        if scaled[p] <= QP_TOL:
            return FilterResult(
                u=u, delta_u=u - u_bar, active_set=[pairs[k] for k in active]
            )
        cp = rows[p]
        cc = float(cp @ cp)
        if math.sqrt(cc) <= QP_TOL * scale[p]:
            blocking = [pairs[k] for k in active] + [pairs[p]]
            raise QPInfeasibleError(
                f"degenerate constraint for pair {pairs[p]}: violated, "
                f"with a row of norm {math.sqrt(cc):.3g}",
                pairs=blocking,
            )
        lam_p = 0.0
        for _ in range(QP_MAX_ITER):
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
    tests every row at u_bar with the QP's own first test, on the same
    products: (a u_bar - b) / max(1, |b|) <= QP_TOL.  An agent whose rows
    all pass keeps u_bar, as its QP would return it.  The highest agent i
    with a failing row solves its QP on its slice of rows; B_i u_i then
    completes b anew for the rows of the agents below i, and only those
    rows are tested again.  The outputs are bit-identical to solving every
    agent's QP in turn.

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
    au = _rowdot(a, u_bars[pair_i])

    # every agent keeps its u_bar unless its QP runs
    results = list(map(FilterResult, u_bars.copy(), np.zeros(u_bars.shape)))
    end = len(pairs)  # rows of the agents not yet finalized
    while end:
        certified = (au[:end] - b) / np.maximum(1.0, np.abs(b)) <= QP_TOL
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

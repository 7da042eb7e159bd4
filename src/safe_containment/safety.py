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
reach it; each QP starts from that test's violations and scales of its
rows, and only the QPs run have a result.  A call costs what its numpy
calls cost, not its arithmetic, so the pair operands come from one
gather of one per-agent table and no product is computed twice.
"""

from __future__ import annotations

import itertools
import math
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


@dataclass(slots=True)
class FilterResult:
    """The QP output of one ``agent``: its input u, u - u_bar and the
    pairs active at u.  Built for every QP, so slotted and not frozen."""

    u: np.ndarray
    delta_u: np.ndarray
    active_set: list = field(default_factory=list)
    agent: int | None = None


@lru_cache(maxsize=None)
def _pair_index(n_agents: int):
    """Every follower pair (i, j), i < j, in ``itertools.combinations``
    order, and the pairs as a read-only (P, 2) index array.  Agent i's
    pairs are one contiguous run of N - 1 - i rows."""
    pairs = tuple(itertools.combinations(range(n_agents), 2))
    index = np.array(pairs, dtype=int).reshape(-1, 2)
    index.setflags(write=False)
    return pairs, index


def _barrier_rows(states, inputs, a_mats, b_mats, index, delta, d_s):
    """The barrier rows of the pairs (i_k, j_k) of ``index`` (P, 2), from
    the agents' states (N, n), inputs (N, m) and stacked A and B.

    With r = x_i - x_j the barrier derivative along the joint dynamics is
    -2 r' (A_i x_i + B_i u_i - A_j x_j - B_j u_j), so h' <= -delta * h
    rearranges to the row a = -2 r' B_i on u_i and the bound
    b = -delta*h - 2 r'(A_j x_j) - 2 r'(B_j u_j) - lf with lf = -2 r'(A_i x_i).
    Each pair's operands are one gather of the table [x | A x | B u | u],
    and its -2 r' products are one ``np.vecdot`` of r2 = -2 r against its
    A x and B u blocks.  Scaling by -2 is exact, so these are the bits of
    -2 times the dot of r unless a product overflows or underflows.  The
    terms of b are summed in the formula's order: regrouping them moves b
    in the last bits, which a long run amplifies.

    Returns the table's B u block (a view), r2, h, a, b0 = -delta*h -
    2 r'(A_j x_j) (the part of b that needs no input), lf, b and each
    row's a' u_i.
    """
    n = states.shape[1]
    table = np.concatenate((states, np.matvec(a_mats, states),
                            np.matvec(b_mats, inputs), inputs), axis=1)
    side = table.take(index, axis=0)  # (P, 2, 3n + m): agent i, agent j
    r = side[:, 0, :n] - side[:, 1, :n]
    r2 = -2.0 * r
    h = d_s * d_s - np.vecdot(r, r)
    # [[lf, -2 r'(B_i u_i)], [-2 r'(A_j x_j), -2 r'(B_j u_j)]] per pair
    terms = np.vecdot(
        r2[:, None, None], side[:, :, n:3 * n].reshape(-1, 2, 2, n))
    lf = terms[:, 0, 0]
    b0 = -delta * h + terms[:, 1, 0]
    b = b0 + terms[:, 1, 1] - lf
    a = np.vecmat(r2, b_mats.take(index[:, 0], axis=0))
    au = np.vecdot(a, side[:, 0, 3 * n:])
    return table[:, 2 * n:3 * n], r2, h, a, b0, lf, b, au


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
    input: the one-pair case of the filter's stacked assembly, at u_i = 0,
    which neither the row nor the bound reads."""
    _, _, h, a, _, _, b, _ = _barrier_rows(
        np.asarray(states, dtype=float)[[i, j]],
        np.array((np.zeros_like(u_j, dtype=float), u_j), dtype=float),
        np.array((models[i].A, models[j].A), dtype=float),
        np.array((models[i].B, models[j].B), dtype=float),
        _pair_index(2)[1],
        delta_ij,
        d_s,
    )
    return PairConstraint(
        i=i, j=j, a=a[0], b=float(b[0]), delta=delta_ij, h=float(h[0])
    )


def solve_agent_qp(u_bar, a, b, pairs, viol=None, scale=None) -> FilterResult:
    """Project u_bar onto the polyhedron {u : a_k' u <= b_k} of the rows
    ``a`` (k, m) and bounds ``b`` (k,), row k of the follower pair pairs[k].

    Dual active-set iteration (Goldfarb-Idnani scheme specialized to an
    identity Hessian): start at the unconstrained optimum u_bar, repeatedly
    pick the most violated constraint and push its multiplier up, moving
    along the projection of its gradient onto the null space of the active
    rows.  A blocking multiplier hitting zero drops its constraint; a zero
    step direction with no blocking constraint certifies infeasibility.
    A row holds when (a u - b) / max(1, |b|) <= QP_TOL.  At u_bar the
    violations a u - b and scales max(1, |b|) are ``viol`` and ``scale``
    when given (``sequential_filter`` passes its screen's), else computed
    here with the same ``np.vecdot`` product, so a call gives the same bits
    either way.  The first step needs no new product: with no row active
    its direction is the row itself, its squared norm the one the
    degeneracy test took, and its violation the one in hand.
    A violated row with ||a|| <= QP_TOL * max(1, |b|) is degenerate: on
    the scale its violation is measured in, its gradient is zero, so it
    reads 0' u <= b < 0 and raises ``QPInfeasibleError``, as an exactly
    zero row does; stepping along it would move u by about |b| / ||a||.
    Dense solves serve the few rows.  One active row a_k steps with the
    1-D dots a_k.dot(cp) and a_k.dot(a_k), the bits of the 1x3 gemv and
    syrk forms, and divides as a 1x1 dgesv does.  Every sum is a BLAS dot;
    Python floats, which round as numpy's float64 does, serve only
    quotients and comparisons.
    """
    u_bar = np.asarray(u_bar, dtype=float)
    if not len(b):
        return FilterResult(u=u_bar.copy(), delta_u=np.zeros_like(u_bar))

    if viol is None:
        viol = np.vecdot(a, u_bar) - b
        scale = np.maximum(1.0, np.abs(b))
    b_f = b.tolist()
    u = u_bar  # u_bar until the first step moves it to a new array
    active: list[int] = []
    lam: list[float] = []
    for _ in range(QP_MAX_ITER):
        scaled = viol / scale
        p = int(scaled.argmax())
        if scaled[p] <= QP_TOL:
            u = u_bar.copy() if u is u_bar else u
            return FilterResult(
                u=u, delta_u=u - u_bar, active_set=[pairs[k] for k in active]
            )
        cp = a[p]
        cc = float(cp.dot(cp))
        if math.sqrt(cc) <= QP_TOL * scale[p]:
            blocking = [pairs[k] for k in active] + [pairs[p]]
            raise QPInfeasibleError(
                f"degenerate constraint for pair {pairs[p]}: violated, "
                f"with a row of norm {math.sqrt(cc):.3g}",
                pairs=blocking,
            )
        lam_p = 0.0
        for _ in range(QP_MAX_ITER):
            if len(active) == 1:
                a_k = a[active[0]]
                r = [-float(a_k.dot(cp)) / float(a_k.dot(a_k))]
                z = cp + a_k * r[0]
                zz = float(z.dot(z))
            elif active:
                n_mat = a[active]
                r = -np.linalg.solve(n_mat.dot(n_mat.T), n_mat.dot(cp))
                z = cp + n_mat.T.dot(r)
                r = r.tolist()
                zz = float(z.dot(z))
            else:
                r, z, zz = [], cp, cc
            s_p = float(viol[p]) if u is u_bar else float(cp.dot(u)) - b_f[p]
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
        viol = a.dot(u) - b
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

    Every pair's row and bound b at the requested inputs are assembled in
    one batch (``_barrier_rows``) from one gather of the agents' table
    [x | A x | B u_bar | u_bar].  The screen then tests every row at u_bar
    with the QP's own first test, on the same products: its violation
    a u_bar - b over its scale max(1, |b|) is at most QP_TOL.  An agent
    whose rows all pass keeps u_bar, as its QP would return it.  The
    highest agent i with a failing row solves its QP on its slice of rows,
    starting from the screen's violations and scales of them; B_i u_i then
    completes b anew, with one dot of r2 = -2 r per row, for the rows of
    the agents below i, and only those rows are tested again.  The outputs
    are bit-identical to solving every agent's QP in turn.  Each QP run
    gives one result, naming its ``agent``, highest agent first; every
    other agent keeps its u_bar, so a call with no QP returns [].

    a_mats (N, n, n) and b_mats (N, n, m) stack the agents' A and B; delta
    may be a scalar or an (N, N) array of per-pair constraint rates.
    """
    n_agents = len(u_bars)
    u_bars = np.asarray(u_bars, dtype=float)
    states = np.asarray(states, dtype=float)
    pairs, index = _pair_index(n_agents)
    delta = np.asarray(delta, dtype=float)
    delta = delta[index[:, 0], index[:, 1]] if delta.ndim else float(delta)
    bu, r2, _, a, b0, lf, b, au = _barrier_rows(
        states, u_bars, a_mats, b_mats, index, delta, d_s)

    results = []  # the QPs run, highest agent first
    end = len(pairs)  # rows of the agents not yet finalized
    while end:
        viol = au[:end] - b
        scale = np.maximum(1.0, np.abs(b))
        certified = viol / scale <= QP_TOL
        last = end - 1 - int(certified[::-1].argmin())  # last open row, if any
        if certified[last]:
            break
        i = int(index[last, 0])
        start = i * (2 * n_agents - i - 1) // 2  # agent i's rows (i, j > i)
        own = slice(start, start + n_agents - 1 - i)
        try:
            result = solve_agent_qp(u_bars[i], a[own], b[own], pairs[own],
                                    viol[own], scale[own])
        except QPInfeasibleError as err:
            err.agent = i
            raise
        result.agent = i
        results.append(result)
        end = start
        if end:
            bu[i] = b_mats[i].dot(result.u)
            b = b0[:end] + np.vecdot(
                r2[:end], bu.take(index[:end, 1], axis=0)) - lf[:end]
    return results

"""Closed-loop simulation of the full agent stack.

A fixed-step classical RK4 integrator advances followers, leaders,
observer states, and both adaptive gains as one coupled ODE system.  The
control pipeline (neighborhood signal, observer rates, nominal input,
compensation, attack injection, safety filter) is re-evaluated inside
every integrator stage, so the filtered input is piecewise constant per
stage.  Each step evaluates the pipeline once at its own state; that one
evaluation is both the logged sample and the first RK4 stage.  Every
layer but the filter is linear in the packed state apart from the
adaptive gains' exponentials, the compensation's gain law and the
attacks, so one matrix L gives all the linear parts of an evaluation in
one product, and one matrix O the errors a step measures; both are
those parts evaluated on the identity once per scenario.

Three controller modes share the pipeline:

    saar             full stack: resilient observer, compensation and
                     safety filter
    resilient_unsafe resilient observer and compensation, filter off
    conventional     standard observer with fixed unit coupling gain
                     (theta stays 0), compensation and filter off;
                     attacks enter raw
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, make_dataclass

import numpy as np

from . import safety
from .attacks import eval_stacked
from .compensation import (
    compensation_law, nominal_input, per_follower, projected_error)
from .gains import synthesize_gains
from .observer import adaptive_gain, neighborhood_signal, observer_input
from .scenario import ScenarioConfig
from .topology import PhiFamily, Topology, build_phi_family

log = logging.getLogger(__name__)


class SimulationError(RuntimeError):
    """Raised when integration produces non-finite state."""


# Per-follower trace fields in CSV column order: the TraceRecord
# attribute, its CSV column prefix and its component count ("n" state
# components, "m" input components, or 1 for a scalar).
TRACE_FIELDS = (
    ("x", "x", "n"),
    ("zeta", "zeta", "n"),
    ("theta", "theta", 1),
    ("rho_hat", "rho_hat", 1),
    ("u_c", "uc", "m"),
    ("gamma_hat", "gammahat", "m"),
    ("u_r", "ur", "m"),
    ("u_bar", "ubar", "m"),
    ("u", "u", "m"),
    ("delta_u", "du", "m"),
    ("eps", "eps", "n"),
    ("e_c", "ec", "n"),
    ("delta_o", "do", "n"),
)


# One sample of a run as views into its row of the run's table: t, then
# (N, ·) arrays for the TRACE_FIELDS attributes and xi, the pair list and
# (P,) arrays per pair.
TraceRecord = make_dataclass(
    "TraceRecord",
    ["t", *(attr for attr, _, _ in TRACE_FIELDS), "xi", "pairs",
     "pair_distance", "pair_h", "pair_active"],
    namespace={"__module__": __name__},
)


class TraceLayout:
    """The columns of a run's table.  A row holds the CSV columns in
    schema order (t, one block of TRACE_FIELDS per follower, then d, h
    and active per follower pair), then the followers' xi, which the CSV
    leaves out."""

    def __init__(self, n_followers: int, n: int, m: int):
        self.N, self.n = n_followers, n
        self.pairs = safety._pair_index(n_followers)[0]
        self.widths = [{"n": n, "m": m}.get(d, 1) for _, _, d in TRACE_FIELDS]
        ends = np.cumsum(self.widths).tolist()
        # a field's place in a follower block: a column if scalar, else a slice
        self.columns = {
            attr: end - 1 if dim == 1 else slice(end - width, end)
            for (attr, _, dim), width, end in zip(TRACE_FIELDS, self.widths, ends)
        }
        self.pair_start = 1 + n_followers * ends[-1]
        self.n_csv = self.pair_start + 3 * len(self.pairs)
        self.width = self.n_csv + n_followers * n

    def header(self) -> list[str]:
        cols = ["t"]
        for i in range(1, self.N + 1):
            for (_, prefix, dim), width in zip(TRACE_FIELDS, self.widths):
                cols += [f"{prefix}_{i}"] if dim == 1 else [
                    f"{prefix}_{i}_{k}" for k in range(1, width + 1)]
        for i, j in self.pairs:
            cols.extend(f"{c}_{i + 1}_{j + 1}" for c in ("d", "h", "active"))
        return cols

    def split(self, row: np.ndarray):
        """Views of a row's follower blocks (N, ·), pair columns (P, 3)
        and xi (N, n)."""
        return (
            row[1:self.pair_start].reshape(self.N, -1),
            row[self.pair_start:self.n_csv].reshape(-1, 3),
            row[self.n_csv:].reshape(self.N, self.n),
        )

    def record(self, row: np.ndarray) -> TraceRecord:
        """The TraceRecord viewing one row of a table."""
        body, pair, xi = self.split(row)
        return TraceRecord(
            t=float(row[0]), xi=xi, pairs=list(self.pairs),
            pair_distance=pair[:, 0], pair_h=pair[:, 1], pair_active=pair[:, 2],
            **{attr: body[:, col] for attr, col in self.columns.items()},
        )


def _consecutive(lengths: list[int], start: int = 0) -> list[slice]:
    """Slices of consecutive blocks of the given lengths from ``start``."""
    ends = np.cumsum([start, *lengths]).tolist()
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def _operator(parts) -> np.ndarray:
    """The matrix of a linear map from its parts evaluated on the identity,
    each (D, ...): column j stacks the flattened parts at unit state j."""
    sizes = [v[0].size for v in parts]
    op = np.empty((sum(sizes), len(parts[0])))
    for v, rows in zip(parts, _consecutive(sizes)):
        op[rows] = v.reshape(len(v), -1).T
    return op


class Engine:
    """Precompiled scenario: gains synthesized, arrays stacked, ready to step."""

    def __init__(self, scenario: ScenarioConfig):
        self.scenario = scenario
        sc = scenario
        self.n = sc.state_dim
        self.N = sc.n_followers
        self.M = sc.n_leaders
        self.n_steps = int(round(sc.horizon / sc.dt))
        self.S = np.asarray(sc.S, dtype=float)
        self.models = sc.followers  # each with its A, B, Q and U
        self.gains = [synthesize_gains(f.A, f.B, f.Q, f.U, self.S)
                      for f in sc.followers]

        self.A = np.stack([f.A for f in sc.followers], dtype=float)
        self.B = np.stack([f.B for f in sc.followers], dtype=float)
        self.K = np.stack([g.K for g in self.gains])
        self.H = np.stack([g.H for g in self.gains])
        self.PB = np.stack([g.P @ B for g, B in zip(self.gains, self.B)])

        self.topology: Topology = sc.topology
        self.phi: PhiFamily = build_phi_family(self.topology)

        self.q = np.array([f.q for f in sc.followers])
        self.alpha = np.array([f.alpha for f in sc.followers])
        self.c = np.array([f.c for f in sc.followers])

        # one (N, n + m) table of both attacks: the output channel's
        # columns, then the input channel's
        self.attack_coeff, self.attack_rate = (
            np.stack([np.concatenate([f.attack_ol[k], f.attack_cil[k]])
                      for f in sc.followers])
            for k in (0, 1)
        )

        N, n, m = self.N, self.n, self.B.shape[2]
        self.layout = TraceLayout(N, n, m)

        self.qp_infeasible_count = 0
        self.filter_intervention_count = 0
        self.first_infeasible_time: float | None = None

        # the packed state: x, leader_x, zeta, theta, rho_hat
        self._slices = _consecutive([N * n, self.M * n, N * n, N, N])
        self.D = self._slices[-1].stop
        # L @ y stacks the derivative's linear part (D rows), then xi, eps,
        # s and u_c; O @ y stacks e_c and delta_o
        self._outputs = _consecutive([N * n, N * n, N * m, N * m], self.D)
        self._observed = _consecutive([N * n, N * n])
        ops = _operator(self._linear_parts(np.eye(self.D)))
        self.L, self.O = np.split(ops, [self._outputs[-1].stop])
        self.B_diag = np.zeros((N * n, N * m))  # B u of every follower at once
        self.B_diag.reshape(N, n, N, m)[range(N), :, range(N)] = self.B
        self._at_time = (None, None)  # see _time_terms
        # where x_i and x_j of every follower pair sit in y (x comes first)
        self._pair_x = [k[:, None] * n + np.arange(n)
                        for k in safety._pair_index(N)[1:]]

    # -- state packing ---------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """The packed state at t = 0: follower states, leader states,
        observer estimates (zeta0, or x0 where none is given), theta and
        rho_hat, all gains starting at 0."""
        sc = self.scenario
        x0 = np.stack([f.x0 for f in sc.followers])
        zeta0 = np.stack([
            f.zeta0 if f.zeta0 is not None else f.x0 for f in sc.followers
        ])
        return np.concatenate([
            x0.ravel(), np.ravel(sc.leader_x0), zeta0.ravel(),
            np.zeros(2 * self.N),
        ]).astype(float)

    def _unpack(self, y: np.ndarray):
        """Views (x, leader_x, zeta, theta, rho_hat) into a packed state;
        leading axes of y before its D entries are a batch."""
        x, lead, zeta, theta, rho = self._slices
        batch = y.shape[:-1]
        return (
            y[..., x].reshape(*batch, self.N, self.n),
            y[..., lead].reshape(*batch, self.M, self.n),
            y[..., zeta].reshape(*batch, self.N, self.n),
            y[..., theta],
            y[..., rho],
        )

    def _linear_parts(self, y: np.ndarray) -> tuple:
        """What an evaluation and a step compute linearly from a batch
        (..., D) of packed states: the derivative's linear part (A x,
        S leader_x, S zeta and zero gain rates), xi, eps, s and u_c, then
        e_c and delta_o.

        ``L`` and ``O`` are this function on the identity, so their entries
        are the model's own coefficients, exactly."""
        x, lead, zeta, theta, rho = self._unpack(y)
        eps = x - zeta
        ref = self.phi.hull_weights @ lead  # each follower's hull reference
        return (
            per_follower(self.A, x),  # x' = A x + B u
            lead @ self.S.T,
            zeta @ self.S.T,  # zeta' = S zeta + exp(theta) xi + gamma_ol
            np.zeros_like(theta),
            np.zeros_like(rho),
            neighborhood_signal(zeta, lead, self.topology),
            eps,
            projected_error(self.PB, eps),
            nominal_input(self.K, self.H, x, zeta),
            x - ref, zeta - ref,
        )

    def _time_terms(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Both attacks (N, n + m) and the regularizers exp(-c t^2) at t,
        read-only, kept for the last time asked: a stage time repeats
        only the one just before it (RK4's two midpoint stages, and a
        step's first stage where it equals the previous step's last)."""
        if self._at_time[0] != t:
            sc = self.scenario
            terms = (eval_stacked(self.attack_coeff, self.attack_rate,
                                  sc.attack_start, t, sc.absolute_clock),
                     np.exp(-self.c * t * t))
            for v in terms:
                v.flags.writeable = False
            self._at_time = (t, terms)
        return self._at_time[1]

    # -- control pipeline -------------------------------------------------

    def _pipeline(self, t: float, y: np.ndarray, collect: bool = False):
        """The derivative of the packed state y at time t; with
        ``collect``, also the layer outputs a trace row records.

        One product L @ y gives the derivative's linear part, xi, eps, s
        and u_c.  What is not linear in y is added to it: the observer's
        exp(theta) xi and the output attack, the compensation's gain law,
        B u after the safety filter, and the gain rates."""
        sc = self.scenario
        N, n = self.N, self.n
        resilient = sc.controller_mode != "conventional"
        x_sl, _, zeta_sl, theta_sl, rho_sl = self._slices
        xi_sl, eps_sl, s_sl, uc_sl = self._outputs

        z = self.L @ y
        deriv = z[:self.D]
        xi, u_c = z[xi_sl].reshape(N, n), z[uc_sl].reshape(N, -1)
        gamma, reg = self._time_terms(t)
        # theta and rho_hat are adjacent in y: both gains in one call
        gain = adaptive_gain(y[theta_sl.start:rho_sl.stop], sc.gain_cap)
        driving, dtheta = observer_input(
            xi, gamma[:, :n], gain[:N], self.q, resilient)
        if resilient:
            gamma_hat, drho = compensation_law(
                z[s_sl].reshape(N, -1), gain[N:], self.alpha, reg)
        else:
            gamma_hat, drho = np.zeros_like(u_c), np.zeros(N)
        u_r = u_c - gamma_hat
        u_bar = u_r + gamma[:, n:]

        results = None
        u = u_bar
        if sc.controller_mode == "saar":
            try:
                results = safety.sequential_filter(
                    u_bar, y[x_sl].reshape(N, n), self.A, self.B, sc.delta,
                    sc.d_s,
                )
                u = np.array([r.u for r in results])
                self.filter_intervention_count += bool((u != u_bar).any())
            except safety.QPInfeasibleError:
                self.qp_infeasible_count += 1
                if self.first_infeasible_time is None:
                    self.first_infeasible_time = t

        deriv[x_sl] += self.B_diag @ u.ravel()
        deriv[zeta_sl] += driving.ravel()
        deriv[theta_sl] = dtheta
        deriv[rho_sl] = drho
        if not collect:
            return deriv
        return deriv, dict(
            xi=xi, eps=z[eps_sl], u_c=u_c, gamma_hat=gamma_hat, u_r=u_r,
            u_bar=u_bar, u=u, delta_u=u - u_bar, results=results,
        )

    # -- integration -------------------------------------------------------

    def _rk4(
        self, t: float, y: np.ndarray, dt: float, k1: np.ndarray
    ) -> np.ndarray:
        """One RK4 step from (t, y), given the first stage k1 = f(t, y)."""
        k2 = self._pipeline(t + dt / 2, y + (dt / 2) * k1)
        k3 = self._pipeline(t + dt / 2, y + (dt / 2) * k2)
        k4 = self._pipeline(t + dt, y + dt * k3)
        return y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    def observe(self, row, t, state, parts, e_c, delta_o, dist, h) -> None:
        """Write into a table row the sample of the pipeline evaluation
        ``parts`` made at the unpacked ``state`` at time t, whose follower
        pairs are ``dist`` apart with barrier values ``h``."""
        x, _, zeta, theta, rho = state
        values = dict(parts, x=x, zeta=zeta, theta=theta, rho_hat=rho,
                      e_c=e_c, delta_o=delta_o)
        body, pair, xi = self.layout.split(row)
        row[0] = t
        np.concatenate([values[attr].reshape(self.N, -1)
                        for attr, _, _ in TRACE_FIELDS], axis=1, out=body)
        xi[...] = parts["xi"]
        pair[:, 0], pair[:, 1] = dist, h
        active = {p for res in parts["results"] or () for p in res.active_set}
        pair[:, 2] = [p in active for p in self.layout.pairs]

    def new_table(self) -> np.ndarray:
        """An unfilled table with one row per sampled step: every
        output_stride-th step and the last."""
        rows = -(-self.n_steps // self.scenario.output_stride) + 1
        return np.empty((rows, self.layout.width))

    def step(self, k: int, y: np.ndarray, table: np.ndarray | None = None):
        """Evaluate the pipeline once at step k's packed state y (time
        k * dt), write the sample into its row of ``table`` (from
        ``new_table``) if step k is sampled, and advance.

        Returns (y_next, ec_norm, min_pair, row): the state of step k + 1
        (None once k reaches the horizon), the containment-error norm and
        the least follower pair distance at step k, and the table row
        written (None on steps between samples or without a table).
        """
        sc = self.scenario
        t = k * sc.dt
        obs = self.O @ y
        e_c, delta_o = [obs[sl] for sl in self._observed]
        ec_norm = math.sqrt(e_c @ e_c)
        at_i, at_j = self._pair_x
        diffs = y.take(at_i) - y.take(at_j)  # x_i - x_j, (P, n)
        rr = safety._rowdot(diffs, diffs)
        dist = np.sqrt(rr)  # bits of a per-pair norm
        min_pair = float(dist.min()) if len(dist) else np.inf

        row = None
        stride = sc.output_stride
        if table is not None and (k % stride == 0 or k == self.n_steps):
            row = table[-(-k // stride)]
            deriv, parts = self._pipeline(t, y, collect=True)
            h = sc.d_s * sc.d_s - rr  # the filter's barrier value
            self.observe(row, t, self._unpack(y), parts, e_c, delta_o, dist, h)
        else:
            deriv = self._pipeline(t, y)
        if k >= self.n_steps:
            return None, ec_norm, min_pair, row

        y_next = self._rk4(t, y, sc.dt, deriv)
        if not np.all(np.isfinite(y_next)):
            raise SimulationError(f"non-finite state at t={t + sc.dt:.6f}")
        return y_next, ec_norm, min_pair, row


@dataclass
class RunResult:
    """A run's trace, one table row per sample laid out by ``layout``,
    and its summary."""

    table: np.ndarray
    layout: TraceLayout
    summary: dict

    @property
    def records(self) -> list[TraceRecord]:
        """One TraceRecord per sample, viewing the table; built anew on
        every read."""
        return [self.layout.record(row) for row in self.table]


def run(scenario: ScenarioConfig) -> RunResult:
    """Simulate a scenario over its horizon at the configured stride.

    The summary reports containment-error extremes, the minimum pairwise
    follower distance, first divergence-threshold crossing (if any), final
    adaptive gains, the numbers of pipeline evaluations in which the safety
    filter changed an input and in which its QP was infeasible, and wall
    time.  A warning is logged if an adaptive gain ended above
    ``gain_cap``, where the pipeline clamps it.
    """
    engine = Engine(scenario)
    y = engine.initial_state()

    table = engine.new_table()
    t_start = time.perf_counter()
    ec_norms = []
    min_pair = np.inf
    first_divergence = None
    # A run that blows up ends at the finiteness check in ``step``; numpy's
    # overflow and NaN warnings on the way there add nothing to it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(engine.n_steps + 1):
            y, ec_norm, pair_min, _ = engine.step(k, y, table)
            ec_norms.append(ec_norm)
            min_pair = min(min_pair, pair_min)
            if (
                first_divergence is None
                and k > 0
                and ec_norm > scenario.divergence_threshold
            ):
                first_divergence = k * scenario.dt
    wall = time.perf_counter() - t_start

    # theta and rho_hat never decrease, so the final values are the peaks
    final = engine.layout.record(table[-1])
    if max(final.theta.max(), final.rho_hat.max()) > scenario.gain_cap:
        log.warning(
            "adaptive gains clamped at gain_cap %.3g: final max theta %.3g, "
            "max rho_hat %.3g",
            scenario.gain_cap,
            final.theta.max(),
            final.rho_hat.max(),
        )

    ec_norms = np.asarray(ec_norms)
    tail_start = int(len(ec_norms) * 0.7)
    summary = {
        "scenario": scenario.name,
        "mode": scenario.controller_mode,
        "horizon": scenario.horizon,
        "dt": scenario.dt,
        "max_ec": float(ec_norms.max()),
        "max_ec_tail": float(ec_norms[tail_start:].max()),
        "final_ec": float(ec_norms[-1]),
        "min_pair_distance": float(min_pair) if engine.N > 1 else None,
        "first_divergence_time": first_divergence,
        "final_theta": [float(v) for v in final.theta],
        "final_rho_hat": [float(v) for v in final.rho_hat],
        "qp_infeasible_count": engine.qp_infeasible_count,
        "filter_intervention_count": engine.filter_intervention_count,
        "first_infeasible_time": engine.first_infeasible_time,
        "wall_clock_s": wall,
    }
    return RunResult(table=table, layout=engine.layout, summary=summary)

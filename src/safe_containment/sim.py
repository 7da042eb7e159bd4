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
those parts evaluated on the identity once per scenario.  A run
integrates BLOCK steps at a time.  The attacks and the compensation's
regularizer depend on time alone, so each block computes them first at
every stage time of its steps, in one vectorised call each.  It then
integrates, keeping each state and what only a sampled step's pipeline
evaluation knows, and at the end checks every state for finiteness and
measures and records the steps together in a few stacked products.

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
import time
from dataclasses import dataclass, make_dataclass

import numpy as np

from . import safety
from .attacks import eval_stacked
from .compensation import (
    compensation_law, nominal_input, per_follower, projected_error)
from .gains import synthesize_gains  # unused: benchmark/tracing.py wraps it
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


BLOCK = 32  # steps a run integrates before it measures them together
# What a sampled step's pipeline evaluation writes into its sample row, in
# order: the outputs of L @ y (xi, eps, s and u_c, one slice), gamma_hat,
# u and the pair-active mask.  ``advance`` derives u_r, u_bar and delta_u
# from them for a whole block at once.
SAMPLED = ("xi", "eps", "s", "u_c", "gamma_hat", "u", "pair_active")


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

    def column_map(self, at: dict) -> np.ndarray:
        """The source column each column of a row copies, given in ``at``
        those of t and of every other TraceRecord array, flattened."""
        cols = np.empty(self.width, dtype=np.intp)
        rec = self.record(cols)
        for name, src in at.items():
            view = cols[:1] if name == "t" else getattr(rec, name)
            view[...] = src.reshape(view.shape)
        return cols

    def record(self, row: np.ndarray) -> TraceRecord:
        """The TraceRecord viewing one row of a table."""
        body = row[1:self.pair_start].reshape(self.N, -1)
        pair = row[self.pair_start:self.n_csv].reshape(-1, 3)
        return TraceRecord(
            t=float(row[0]), xi=row[self.n_csv:].reshape(self.N, self.n),
            pairs=list(self.pairs),
            pair_distance=pair[:, 0], pair_h=pair[:, 1], pair_active=pair[:, 2],
            **{attr: body[:, col] for attr, col in self.columns.items()},
        )


def _consecutive(lengths: list[int], start: int = 0) -> list[slice]:
    """Slices of consecutive blocks of the given lengths from ``start``."""
    ends = np.cumsum([start, *lengths]).tolist()
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def _check_finite(Y: np.ndarray, times: np.ndarray) -> None:
    """Raise SimulationError at the first non-finite row of Y, the packed
    states at ``times``."""
    bad = ~np.isfinite(Y).all(axis=1)
    if bad.any():
        raise SimulationError(f"non-finite state at t={times[bad.argmax()]:.6f}")


def _operator(parts) -> np.ndarray:
    """The matrix of a linear map from its parts evaluated on the identity,
    each (D, ...): column j stacks the flattened parts at unit state j."""
    sizes = [v[0].size for v in parts]
    op = np.empty((sum(sizes), len(parts[0])))
    for v, rows in zip(parts, _consecutive(sizes)):
        op[rows] = v.reshape(len(v), -1).T
    return op


class Engine:
    """Precompiled scenario: gains and arrays stacked, ready to step."""

    def __init__(self, scenario: ScenarioConfig):
        self.scenario = scenario
        sc = scenario
        self.n = sc.state_dim
        self.N = sc.n_followers
        self.M = sc.n_leaders
        self.n_steps = int(round(sc.horizon / sc.dt))
        self.S = np.asarray(sc.S, dtype=float)
        self.models = sc.followers  # each with its A, B, Q and U
        self.gains = sc.gain_sets

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
        P = len(self.layout.pairs)
        widths = [N * n, N * n, N * m, N * m, N * m, N * m, P]
        self._recorded = dict(zip(SAMPLED, _consecutive(widths)))
        self._sample_width = sum(widths)
        # a sampled step's source row, whose columns its table row gathers:
        # t, y, O y, its SAMPLED outputs, u_r, u_bar and delta_u, then pair
        # distances and barriers
        sizes = [1, *(sl.stop - sl.start for sl in self._slices),
                 N * n, N * n, *widths, *[N * m] * 3, P, P]
        at = dict(zip(("t", "x", "leader_x", "zeta", "theta", "rho_hat", "e_c",
                       "delta_o", *SAMPLED, "u_r", "u_bar", "delta_u",
                       "pair_distance", "pair_h"),
                      np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1])))
        del at["leader_x"], at["s"]
        self._columns = self.layout.column_map(at)

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

    def _time_table(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The time-only terms of the pipeline at every time of an array:
        both attacks (..., N, n + m) and the regularizers exp(-c t^2)
        (..., N), the times' axes first."""
        sc = self.scenario
        t = times[..., None]
        return (eval_stacked(self.attack_coeff, self.attack_rate,
                             sc.attack_start, times, sc.absolute_clock),
                np.exp(-self.c * t * t))

    # -- control pipeline -------------------------------------------------

    def _pipeline(self, stage: tuple, y: np.ndarray, row=None):
        """The derivative of the packed state y at a stage (t, attacks,
        exp(-c t^2)) of ``_time_table``; given a sample ``row``, also write
        the SAMPLED outputs into it, whose pair-active entries start at 0.

        One product L @ y gives the derivative's linear part, xi, eps, s
        and u_c.  What is not linear in y is added to it: the observer's
        exp(theta) xi and the output attack, the compensation's gain law,
        B u after the safety filter, and the gain rates."""
        sc = self.scenario
        N, n = self.N, self.n
        t, gamma, reg = stage
        resilient = sc.controller_mode != "conventional"
        x_sl, _, zeta_sl, theta_sl, rho_sl = self._slices
        xi_sl, _, s_sl, uc_sl = self._outputs

        z = self.L @ y
        deriv = z[:self.D]
        xi, u_c = z[xi_sl].reshape(N, n), z[uc_sl].reshape(N, -1)
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

        u, active = u_bar, ()
        if sc.controller_mode == "saar":
            try:
                results = safety.sequential_filter(
                    u_bar, y[x_sl].reshape(N, n), self.A, self.B, sc.delta,
                    sc.d_s,
                )
            except safety.QPInfeasibleError:
                self.qp_infeasible_count += 1
                if self.first_infeasible_time is None:
                    self.first_infeasible_time = t
            else:
                # an agent with no active pair kept its u_bar
                active = [p for r in results for p in r.active_set]
                if active:
                    u = np.array([r.u for r in results])
                    self.filter_intervention_count += bool((u != u_bar).any())

        deriv[x_sl] += self.B_diag @ u.ravel()
        deriv[zeta_sl] += driving.ravel()
        deriv[theta_sl] = dtheta
        deriv[rho_sl] = drho
        if row is not None:
            rec = self._recorded
            row[:rec["u_c"].stop] = z[self.D:]
            row[rec["gamma_hat"]] = gamma_hat.ravel()
            row[rec["u"]] = u.ravel()
            if active:
                row[rec["pair_active"]][
                    [self.layout.pairs.index(p) for p in active]] = 1.0
        return deriv

    # -- integration -------------------------------------------------------

    def _rk4(self, y: np.ndarray, dt: float, k1: np.ndarray,
             mid: tuple, end: tuple) -> np.ndarray:
        """One RK4 step of length dt from y, given its first stage k1 and
        the stages (see ``_pipeline``) of its midpoint and its end."""
        k2 = self._pipeline(mid, y + (dt / 2) * k1)
        k3 = self._pipeline(mid, y + (dt / 2) * k2)
        k4 = self._pipeline(end, y + dt * k3)
        return y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    def _sampled(self, k):
        """Whether step k (an int or an int array) is sampled."""
        return (k % self.scenario.output_stride == 0) | (k == self.n_steps)

    def advance(self, k0: int, y: np.ndarray, steps: int, table=None):
        """Integrate ``steps`` steps from step k0's state y; then
        ``observe`` them.  Returns the state after them (None past the
        horizon) and what ``observe`` returns.

        The time-only terms come first, at every stage time of the steps,
        each formed as a lone step forms it: k dt, k dt + dt/2 and
        k dt + dt.  With a ``table``, a sampled step's first RK4 stage
        writes the SAMPLED outputs into its sample row; u_r, u_bar and
        delta_u follow for all sampled steps at once.  The first
        non-finite state of the block raises SimulationError."""
        sc = self.scenario
        k = np.arange(k0, k0 + steps)
        t = k * sc.dt
        times = np.stack([t, t + sc.dt / 2, t + sc.dt], axis=1)
        gamma, reg = self._time_table(times)
        stages = list(zip(times.ravel().tolist(),
                          gamma.reshape(3 * steps, self.N, -1),
                          reg.reshape(3 * steps, self.N)))
        sampled = self._sampled(k) & (table is not None)
        # Y[i] is step k0 + i's state, Y[i + 1] the one it integrates to
        integrated = min(steps, self.n_steps - k0)
        Y = np.empty((steps + 1, self.D))
        Y[0] = y
        samples = np.zeros((steps, self._sample_width))
        try:
            for i, is_sampled in enumerate(sampled.tolist()):
                first, mid, end = stages[3 * i:3 * i + 3]
                k1 = self._pipeline(first, y,
                                    samples[i] if is_sampled else None)
                if i < integrated:
                    y = Y[i + 1] = self._rk4(y, sc.dt, k1, mid, end)
        except Exception:
            # a solver fed a state gone non-finite earlier in the block
            _check_finite(Y[1:i + 1], times[:i, 2])
            raise
        _check_finite(Y[1:integrated + 1], times[:integrated, 2])

        at = np.flatnonzero(sampled)
        rec, got = self._recorded, samples[at]
        u_r = got[:, rec["u_c"]] - got[:, rec["gamma_hat"]]
        u_bar = u_r + gamma[at, 0, :, self.n:].reshape(u_r.shape)
        rows = np.concatenate([got, u_r, u_bar, got[:, rec["u"]] - u_bar],
                              axis=1)
        y = y if integrated == steps else None
        return y, *self.observe(k0, Y[:steps], rows, table)

    def observe(self, k0: int, Y: np.ndarray, samples: np.ndarray, table):
        """The containment-error norms and least follower pair distances of
        the steps from k0 whose packed states are the rows of Y; with a
        ``table``, also write the sampled ones' rows, given the rows of
        their SAMPLED outputs, u_r, u_bar and delta_u (see ``advance``)."""
        sc = self.scenario
        # stacked, these products keep the bits of O @ y and a dot per step
        obs = np.matvec(self.O, Y)
        e_c = obs[:, self._observed[0]]
        x = Y[:, self._slices[0]].reshape(len(Y), self.N, self.n)
        _, i, j = safety._pair_index(self.N)
        diffs = (x[:, i] - x[:, j]).reshape(-1, self.n)
        rr = np.vecdot(diffs, diffs).reshape(len(Y), -1)
        dist = np.sqrt(rr)  # bits of a per-pair norm
        if table is not None:
            at = np.flatnonzero(self._sampled(k0 + np.arange(len(Y))))
            table[-(-(k0 + at) // sc.output_stride)] = np.concatenate([
                ((k0 + at) * sc.dt)[:, None], Y[at], obs[at], samples,
                dist[at], sc.d_s * sc.d_s - rr[at],  # the filter's barrier
            ], axis=1)[:, self._columns]
        return (np.sqrt(np.vecdot(e_c, e_c)),
                dist.min(axis=1, initial=np.inf))

    def new_table(self) -> np.ndarray:
        """An unfilled table with one row per sampled step: every
        output_stride-th step and the last."""
        rows = -(-self.n_steps // self.scenario.output_stride) + 1
        return np.empty((rows, self.layout.width))

    def step(self, k: int, y: np.ndarray, table: np.ndarray | None = None):
        """Step k (time k * dt) from its packed state y, as a block of one.
        Returns (y_next, ec_norm, min_pair, row): the state of step k + 1
        (None past the horizon), step k's error norm and least pair
        distance, and its sampled row of ``table`` (``new_table``) or None."""
        y_next, ec_norm, min_pair = self.advance(k, y, 1, table)
        sampled = table is not None and self._sampled(k)
        row = table[-(-k // self.scenario.output_stride)] if sampled else None
        return y_next, float(ec_norm[0]), float(min_pair[0]), row


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
    steps = engine.n_steps + 1
    ec_norms, pair_mins = np.empty((2, steps))
    # A run that blows up ends at the finiteness check in ``advance``;
    # numpy's overflow and NaN warnings on the way there add nothing to it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k0 in range(0, steps, BLOCK):
            y, ec_norms[k0:k0 + BLOCK], pair_mins[k0:k0 + BLOCK] = (
                engine.advance(k0, y, min(BLOCK, steps - k0), table))
    wall = time.perf_counter() - t_start
    over = np.flatnonzero(ec_norms[1:] > scenario.divergence_threshold)
    first_divergence = (int(over[0]) + 1) * scenario.dt if len(over) else None

    # theta and rho_hat never decrease, so the final values are the peaks
    final = engine.layout.record(table[-1])
    if max(final.theta.max(), final.rho_hat.max()) > scenario.gain_cap:
        log.warning(
            "adaptive gains clamped at gain_cap %.3g: final max theta %.3g, "
            "max rho_hat %.3g",
            scenario.gain_cap, final.theta.max(), final.rho_hat.max(),
        )

    tail_start = int(len(ec_norms) * 0.7)
    summary = {
        "scenario": scenario.name,
        "mode": scenario.controller_mode,
        "horizon": scenario.horizon,
        "dt": scenario.dt,
        "max_ec": float(ec_norms.max()),
        "max_ec_tail": float(ec_norms[tail_start:].max()),
        "final_ec": float(ec_norms[-1]),
        "min_pair_distance": float(pair_mins.min()) if engine.N > 1 else None,
        "first_divergence_time": first_divergence,
        "final_theta": [float(v) for v in final.theta],
        "final_rho_hat": [float(v) for v in final.rho_hat],
        "qp_infeasible_count": engine.qp_infeasible_count,
        "filter_intervention_count": engine.filter_intervention_count,
        "first_infeasible_time": engine.first_infeasible_time,
        "wall_clock_s": wall,
    }
    return RunResult(table=table, layout=engine.layout, summary=summary)

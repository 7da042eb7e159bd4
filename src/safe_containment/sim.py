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
integrates, keeping each state and writing what only a sampled step's
pipeline evaluation knows into its table row, and at the end checks
every state for finiteness and measures and records the steps together.

Three controller modes share the pipeline:

    saar             full stack: resilient observer, compensation and
                     safety filter
    resilient_unsafe resilient observer and compensation, filter off
    conventional     the standard observer (unit coupling gain, theta
                     stays 0), the pipeline's one mode branch;
                     compensation and filter off, attacks enter raw
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, make_dataclass
from types import SimpleNamespace

import numpy as np

from . import safety
from .attacks import eval_stacked
from .compensation import (
    compensation_law, nominal_input, per_follower, projected_error)
from .gains import synthesize_gains  # unused: benchmark/tracing.py wraps it
from .observer import adaptive_gain, neighborhood_signal, observer_input
from .scenario import ScenarioConfig
from .topology import PhiFamily, Topology

log = logging.getLogger(__name__)


class SimulationError(RuntimeError):
    """Raised when integration produces non-finite state, or when a run's
    arrays cannot be allocated."""


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

    def views(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        """Views of t and of every other TraceRecord array in a stack of
        table rows, keeping its leading axes (...): t (...), each field
        (..., N) or (..., N, width), xi (..., N, n) and each pair column
        (..., P)."""
        batch = rows.shape[:-1]
        body = rows[..., 1:self.pair_start].reshape(
            *batch, self.N, sum(self.widths))
        pair = rows[..., self.pair_start:self.n_csv].reshape(
            *batch, len(self.pairs), 3)
        return {
            "t": rows[..., 0],
            **{attr: body[..., col] for attr, col in self.columns.items()},
            "xi": rows[..., self.n_csv:].reshape(*batch, self.N, self.n),
            "pair_distance": pair[..., 0], "pair_h": pair[..., 1],
            "pair_active": pair[..., 2],
        }

    def record(self, row: np.ndarray) -> TraceRecord:
        """The TraceRecord viewing one row of a table."""
        return TraceRecord(**{**self.views(row), "t": float(row[0]),
                              "pairs": list(self.pairs)})


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
        self.phi: PhiFamily = sc.phi_family  # built in validation

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
        self._resilient = sc.controller_mode != "conventional"
        self._filtered = sc.controller_mode == "saar"

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
        # one workspace per RK4 stage, and the state each later stage is at
        self._workspaces = [self._workspace() for _ in range(4)]
        self._stage_state = np.empty(self.D)

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

    def _workspace(self) -> SimpleNamespace:
        """A vector for the output of L y, with views of its parts: the
        derivative, its x (flat), zeta, theta and rho_hat parts, xi, eps,
        s and u_c."""
        z = np.empty(len(self.L))
        x, _, zeta, theta, rho = self._slices
        xi, eps, s, u_c = self._outputs
        N = self.N
        return SimpleNamespace(
            z=z, deriv=z[:self.D], dx=z[x], dzeta=z[zeta].reshape(N, -1),
            dtheta=z[theta], drho=z[rho], xi=z[xi].reshape(N, -1),
            eps=z[eps].reshape(N, -1), s=z[s].reshape(N, -1),
            u_c=z[u_c].reshape(N, -1))

    def _pipeline(self, stage: tuple, y: np.ndarray, rows=None, row: int = 0,
                  *, out=None):
        """The derivative of the packed state y at a stage (t, attacks,
        exp(-c t^2)) of ``_time_table``; given ``TraceLayout.views`` of
        table rows, also write into row ``row`` of them what only it forms:
        xi, eps, the inputs and the pair-active flags, which start at 0.

        One product L y gives the derivative's linear part, xi, eps, s and
        u_c.  What is not linear in y is added to it: the observer's
        exp(theta) xi and the output attack, the compensation's gain law,
        B u after the safety filter, and the gain rates.

        The evaluation works in the workspace ``out`` (``_workspace``), or
        in a fresh one, and returns a view of it: a derivative is valid
        until its workspace's next evaluation."""
        sc = self.scenario
        N, n = self.N, self.n
        t, gamma, reg = stage
        ws = self._workspace() if out is None else out
        theta_sl, rho_sl = self._slices[3:]

        self.L.dot(y, out=ws.z)
        if self._resilient:
            # theta and rho_hat are adjacent in y: both gains in one call
            gain = adaptive_gain(y[theta_sl.start:rho_sl.stop], sc.gain_cap)
            driving, _ = observer_input(
                ws.xi, gamma[:, :n], gain[:N], self.q, out=ws.dtheta)
            gamma_hat, _ = compensation_law(
                ws.s, gain[N:], self.alpha, reg, out=ws.drho)
        else:  # the standard observer: unit gain, neither gain adapts
            driving, gamma_hat = ws.xi + gamma[:, :n], np.zeros_like(ws.u_c)
            ws.dtheta[...] = ws.drho[...] = 0.0
        u_r = ws.u_c - gamma_hat
        u_bar = u_r + gamma[:, n:]

        u, active = u_bar, ()
        if self._filtered:
            try:
                results = safety.sequential_filter(
                    u_bar, y[self._slices[0]].reshape(N, n), self.A, self.B,
                    sc.delta, sc.d_s,
                )
            except safety.QPInfeasibleError:
                self.qp_infeasible_count += 1
                if self.first_infeasible_time is None:
                    self.first_infeasible_time = t
            else:
                # the agents whose QP did not run keep their u_bar
                active = [p for r in results for p in r.active_set]
                if active:
                    u = u_bar.copy()
                    for r in results:
                        u[r.agent] = r.u
                    self.filter_intervention_count += bool((u != u_bar).any())

        ws.dx += self.B_diag.dot(u.ravel())
        ws.dzeta += driving
        if rows is not None:
            for name, value in zip(
                    ("xi", "eps", "u_c", "gamma_hat", "u_r", "u_bar", "u"),
                    (ws.xi, ws.eps, ws.u_c, gamma_hat, u_r, u_bar, u)):
                rows[name][row] = value
            np.subtract(u, u_bar, out=rows["delta_u"][row])
            if active:  # pair (i, j)'s column: its row in the filter
                rows["pair_active"][row, [i * (2 * N - i - 1) // 2 + j - i - 1
                                          for i, j in active]] = 1.0
        return ws.deriv

    # -- integration -------------------------------------------------------

    def _rk4(self, y: np.ndarray, dt: float, k1: np.ndarray,
             mid: tuple, end: tuple) -> np.ndarray:
        """One RK4 step of length dt from y, given its first stage k1 and
        the stages (see ``_pipeline``) of its midpoint and its end.

        The later stages are evaluated in the Engine's workspaces 1 to 3,
        at states formed in its stage-state vector; k1 is left as it is.
        The weighted sum is formed in k2's workspace, in the order of
        k1 + 2 k2 + 2 k3 + k4, and the new state is a fresh array."""
        _, ws2, ws3, ws4 = self._workspaces
        at = self._stage_state
        k2 = self._pipeline(
            mid, np.add(y, np.multiply(dt / 2, k1, out=at), out=at), out=ws2)
        k3 = self._pipeline(
            mid, np.add(y, np.multiply(dt / 2, k2, out=at), out=at), out=ws3)
        k4 = self._pipeline(
            end, np.add(y, np.multiply(dt, k3, out=at), out=at), out=ws4)
        k2 *= 2
        k3 *= 2
        total = np.add(k1, k2, out=k2)
        total += k3
        total += k4
        total *= dt / 6
        return y + total

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
        writes what only it forms into its table row.  The first
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
        rows = None
        if table is not None:  # the block's sampled rows, consecutive
            r0 = -(-k0 // sc.output_stride)
            rows = self.layout.views(table[r0:r0 + sampled.sum()])
            rows["pair_active"][...] = 0.0
        # Y[i] is step k0 + i's state, Y[i + 1] the one it integrates to
        integrated = min(steps, self.n_steps - k0)
        Y = np.empty((steps + 1, self.D))
        Y[0] = y
        r = 0  # the next sampled step's row among rows
        try:
            for i, is_sampled in enumerate(sampled.tolist()):
                first, mid, end = stages[3 * i:3 * i + 3]
                k1 = self._pipeline(first, y, rows if is_sampled else None,
                                    r, out=self._workspaces[0])
                r += is_sampled
                if i < integrated:
                    y = Y[i + 1] = self._rk4(y, sc.dt, k1, mid, end)
        except Exception:
            # a solver fed a state gone non-finite earlier in the block
            _check_finite(Y[1:i + 1], times[:i, 2])
            raise
        _check_finite(Y[1:integrated + 1], times[:integrated, 2])
        y = y if integrated == steps else None
        return y, *self.observe(k0, Y[:steps], sampled, rows)

    def observe(self, k0: int, Y: np.ndarray, sampled: np.ndarray, rows):
        """The containment-error norms and least follower pair distances of
        the steps from k0 whose packed states are the rows of Y; given the
        ``views`` of the table rows of the steps ``sampled`` marks, also
        write into them what their pipeline evaluations did not."""
        sc = self.scenario
        # stacked, these products keep the bits of O @ y and a dot per step
        obs = np.matvec(self.O, Y)
        e_c = obs[:, self._observed[0]]
        x = Y[:, self._slices[0]].reshape(len(Y), self.N, self.n)
        i, j = safety._pair_index(self.N)[1].T
        diffs = (x[:, i] - x[:, j]).reshape(-1, self.n)
        rr = np.vecdot(diffs, diffs).reshape(len(Y), -1)
        dist = np.sqrt(rr)  # bits of a per-pair norm
        if rows is not None:
            rows["t"][...] = (k0 + np.flatnonzero(sampled)) * sc.dt
            Ys, obs_s = Y[sampled], obs[sampled]
            for name, part in zip(
                    ("x", "zeta", "theta", "rho_hat", "e_c", "delta_o"),
                    [Ys[:, sl] for sl in self._slices[:1] + self._slices[2:]]
                    + [obs_s[:, sl] for sl in self._observed]):
                rows[name][...] = part.reshape(rows[name].shape)
            rows["pair_distance"][...] = dist[sampled]
            rows["pair_h"][...] = sc.d_s * sc.d_s - rr[sampled]  # the barrier
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
    steps = engine.n_steps + 1
    try:  # numpy refuses a size it cannot map at once, allocating nothing
        table = engine.new_table()
        ec_norms, pair_mins = np.empty((2, steps))
    except MemoryError as exc:
        raise SimulationError(
            f"cannot allocate a run of {engine.n_steps} dt steps: {exc}"
        ) from None
    t_start = time.perf_counter()
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

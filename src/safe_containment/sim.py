"""Closed-loop simulation of the full agent stack.

A fixed-step classical RK4 integrator advances followers, leaders,
observer states, and both adaptive gains as one coupled ODE system.  The
control pipeline (neighborhood signal, observer rates, nominal input,
compensation, attack injection, safety filter) is re-evaluated inside
every integrator stage, so the filtered input is piecewise constant per
stage.  Each step evaluates the pipeline once at its own state; that one
evaluation is both the logged sample and the first RK4 stage.

Three controller modes share the pipeline:

    saar             full stack: resilient observer, compensation and
                     safety filter
    resilient_unsafe resilient observer and compensation, filter off
    conventional     standard observer with fixed unit coupling gain
                     (theta stays 0), compensation and filter off;
                     attacks enter raw
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass

import numpy as np

from . import safety
from .attacks import ExpSignal, eval_stacked
from .compensation import compensation, nominal_input
from .gains import AgentModel, LeaderModel, synthesize_gains
from .observer import neighborhood_signal, observer_rates
from .scenario import ScenarioConfig
from .topology import PhiFamily, Topology, build_phi_family

log = logging.getLogger(__name__)


class SimulationError(RuntimeError):
    """Raised when integration produces non-finite state."""


@dataclass
class TraceRecord:
    """Per-sample log of every pipeline quantity."""

    t: float
    x: np.ndarray
    zeta: np.ndarray
    theta: np.ndarray
    rho_hat: np.ndarray
    u_c: np.ndarray
    gamma_hat: np.ndarray
    u_r: np.ndarray
    u_bar: np.ndarray
    u: np.ndarray
    delta_u: np.ndarray
    eps: np.ndarray
    e_c: np.ndarray
    delta_o: np.ndarray
    xi: np.ndarray
    pairs: list
    pair_distance: np.ndarray
    pair_h: np.ndarray
    pair_active: np.ndarray


def _hull_reference(leader_x: np.ndarray, phi: PhiFamily) -> np.ndarray:
    """The (N, n) convex-hull reference each follower is measured against:
    (sum_nu Phi_nu)^-1 sum_r (Phi_r 1) x_r, row per follower."""
    rows = np.zeros((phi.phi.shape[1], leader_x.shape[1]))
    for r in range(phi.phi.shape[0]):
        rows += np.outer(phi.phi[r].sum(axis=1), leader_x[r])
    return np.linalg.solve(phi.phi_sum, rows)


def containment_error(
    states: np.ndarray, leader_x: np.ndarray, phi: PhiFamily
) -> np.ndarray:
    """Stacked error of follower states (or observer estimates) relative
    to the leaders' convex hull (zero iff every row sits at its hull
    reference)."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    return (states - _hull_reference(np.atleast_2d(leader_x), phi)).ravel()


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
        self.leader = LeaderModel(self.S)
        self.models = [AgentModel(f.A, f.B, f.Q, f.U) for f in sc.followers]
        self.gains = [synthesize_gains(m, self.leader) for m in self.models]

        self.A = np.stack([m.A for m in self.models])
        self.B = np.stack([m.B for m in self.models])
        self.K = np.stack([g.K for g in self.gains])
        self.H = np.stack([g.H for g in self.gains])
        self.PB = np.stack([g.P @ m.B for g, m in zip(self.gains, self.models)])

        self.topology: Topology = sc.topology
        self.phi: PhiFamily = build_phi_family(self.topology)

        self.q = np.array([f.q for f in sc.followers])
        self.alpha = np.array([f.alpha for f in sc.followers])
        self.c = np.array([f.c for f in sc.followers])

        m = self.models[0].m
        cil = [f.attack_cil or ExpSignal.zero(m) for f in sc.followers]
        ol = [f.attack_ol or ExpSignal.zero(self.n) for f in sc.followers]
        self.cil_coeff = np.stack([sig.coefficients for sig in cil])
        self.cil_rate = np.stack([sig.rates for sig in cil])
        self.ol_coeff = np.stack([sig.coefficients for sig in ol])
        self.ol_rate = np.stack([sig.rates for sig in ol])

        self.pairs = list(itertools.combinations(range(self.N), 2))
        self._pair_i = np.array([p[0] for p in self.pairs], dtype=int)
        self._pair_j = np.array([p[1] for p in self.pairs], dtype=int)

        self.qp_infeasible_count = 0
        self.first_infeasible_time: float | None = None

        ends = np.cumsum(
            [self.N * self.n, self.M * self.n, self.N * self.n, self.N]
        ).tolist()
        self._slices = [
            slice(start, end) for start, end in zip([0] + ends, ends + [None])
        ]

    # -- state packing ---------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """The packed state at t = 0: follower states, leader states,
        observer estimates (zeta0, or x0 where none is given), theta and
        rho_hat, all gains starting at 0."""
        sc = self.scenario
        x0 = np.stack([f.x0 for f in sc.followers]).astype(float)
        zeta0 = np.stack(
            [
                f.zeta0 if f.zeta0 is not None else f.x0
                for f in sc.followers
            ]
        ).astype(float)
        return np.concatenate(
            [
                x0.ravel(),
                np.asarray(sc.leader_x0, dtype=float).ravel(),
                zeta0.ravel(),
                np.zeros(2 * self.N),
            ]
        )

    def _unpack(self, y: np.ndarray):
        """Views (x, leader_x, zeta, theta, rho_hat) into a packed state."""
        x, lead, zeta, theta, rho = self._slices
        return (
            y[x].reshape(self.N, self.n),
            y[lead].reshape(self.M, self.n),
            y[zeta].reshape(self.N, self.n),
            y[theta],
            y[rho],
        )

    # -- control pipeline -------------------------------------------------

    def _pipeline(self, t, x, leader_x, zeta, theta, rho, collect=False):
        sc = self.scenario
        resilient = sc.controller_mode != "conventional"

        xi = neighborhood_signal(zeta, leader_x, self.topology)
        gamma_ol = eval_stacked(
            self.ol_coeff, self.ol_rate, sc.attack_start, t, sc.absolute_clock
        )
        gamma_a = eval_stacked(
            self.cil_coeff, self.cil_rate, sc.attack_start, t, sc.absolute_clock
        )
        dzeta, dtheta = observer_rates(
            self.S, zeta, xi, gamma_ol, theta, self.q, sc.gain_cap, resilient
        )

        eps = x - zeta
        u_c = nominal_input(self.K, self.H, x, zeta)
        if resilient:
            gamma_hat, drho = compensation(
                self.PB, eps, rho, self.alpha, self.c, t, sc.gain_cap
            )
        else:
            gamma_hat, drho = np.zeros_like(u_c), np.zeros(self.N)
        u_r = u_c - gamma_hat
        u_bar = u_r + gamma_a

        results = None
        u = u_bar
        if sc.controller_mode == "saar":
            try:
                results = safety.sequential_filter(
                    u_bar, x, self.models, sc.delta, sc.d_s
                )
                u = np.stack([r.u for r in results])
            except safety.QPInfeasibleError:
                self.qp_infeasible_count += 1
                if self.first_infeasible_time is None:
                    self.first_infeasible_time = t

        dx = (
            np.matmul(self.A, x[:, :, None]) + np.matmul(self.B, u[:, :, None])
        )[:, :, 0]
        dleader = leader_x @ self.S.T

        deriv = np.concatenate(
            [dx.ravel(), dleader.ravel(), dzeta.ravel(), dtheta, drho]
        )
        if not collect:
            return deriv
        return deriv, {
            "xi": xi,
            "eps": eps,
            "u_c": u_c,
            "gamma_hat": gamma_hat,
            "u_r": u_r,
            "u_bar": u_bar,
            "u": u,
            "results": results,
        }

    # -- integration -------------------------------------------------------

    def _rk4(
        self, t: float, y: np.ndarray, dt: float, k1: np.ndarray
    ) -> np.ndarray:
        """One RK4 step from (t, y), given the first stage k1 = f(t, y)."""
        k2 = self._pipeline(t + dt / 2, *self._unpack(y + (dt / 2) * k1))
        k3 = self._pipeline(t + dt / 2, *self._unpack(y + (dt / 2) * k2))
        k4 = self._pipeline(t + dt, *self._unpack(y + dt * k3))
        return y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)

    def observe(self, t, state, e_c, delta_o, parts) -> TraceRecord:
        """Build the record of the pipeline evaluation ``parts`` made at
        the unpacked ``state`` at time t."""
        x, _, zeta, theta, rho = state
        n_pairs = len(self.pairs)
        dist = np.zeros(n_pairs)
        h = np.zeros(n_pairs)
        active = np.zeros(n_pairs, dtype=bool)
        active_pairs = set()
        if parts["results"] is not None:
            for res in parts["results"]:
                active_pairs.update(tuple(p) for p in res.active_set)
        for k, (i, j) in enumerate(self.pairs):
            diff = x[i] - x[j]
            dist[k] = np.linalg.norm(diff)
            h[k] = self.scenario.d_s**2 - dist[k] ** 2
            active[k] = (i, j) in active_pairs
        return TraceRecord(
            t=t,
            x=x.copy(),
            zeta=zeta.copy(),
            theta=theta.copy(),
            rho_hat=rho.copy(),
            u_c=parts["u_c"],
            gamma_hat=parts["gamma_hat"],
            u_r=parts["u_r"],
            u_bar=parts["u_bar"],
            u=parts["u"].copy(),  # u is u_bar itself when the filter is off
            delta_u=parts["u"] - parts["u_bar"],
            eps=parts["eps"],
            e_c=e_c,
            delta_o=delta_o,
            xi=parts["xi"],
            pairs=list(self.pairs),
            pair_distance=dist,
            pair_h=h,
            pair_active=active,
        )

    def step(self, k: int, y: np.ndarray):
        """Evaluate the pipeline once at step k's packed state y (time
        k * dt), log it if step k is sampled, and advance.

        Returns (y_next, ec_norm, min_pair, record): the state of step
        k + 1 (None once k reaches the horizon), the containment-error
        norm and the least follower pair distance at step k, and the
        step's TraceRecord (None on steps between samples).
        """
        sc = self.scenario
        t = k * sc.dt
        state = self._unpack(y)
        x, lead, zeta, _, _ = state
        ref = _hull_reference(lead, self.phi)
        e_c = x - ref
        ec_norm = float(np.linalg.norm(e_c))
        min_pair = np.inf
        if self.pairs:
            diffs = x[self._pair_i] - x[self._pair_j]
            sq = np.einsum("ki,ki->k", diffs, diffs)
            min_pair = float(np.sqrt(sq.min()))

        record = None
        if k % sc.output_stride == 0 or k == self.n_steps:
            deriv, parts = self._pipeline(t, *state, collect=True)
            record = self.observe(t, state, e_c, zeta - ref, parts)
        else:
            deriv = self._pipeline(t, *state)
        if k >= self.n_steps:
            return None, ec_norm, min_pair, record

        y_next = self._rk4(t, y, sc.dt, deriv)
        if not np.all(np.isfinite(y_next)):
            raise SimulationError(f"non-finite state at t={t + sc.dt:.6f}")
        return y_next, ec_norm, min_pair, record


@dataclass
class RunResult:
    records: list[TraceRecord]
    summary: dict


def run(scenario: ScenarioConfig) -> RunResult:
    """Simulate a scenario over its horizon at the configured stride.

    The summary reports containment-error extremes, the minimum pairwise
    follower distance, first divergence-threshold crossing (if any), final
    adaptive gains, the number of pipeline evaluations whose safety QP was
    infeasible, and wall time.  A warning is logged if an adaptive gain
    ended above ``gain_cap``, where the pipeline clamps it.
    """
    engine = Engine(scenario)
    y = engine.initial_state()

    t_start = time.perf_counter()
    records = []
    ec_norms = []
    min_pair = np.inf
    first_divergence = None
    for k in range(engine.n_steps + 1):
        y, ec_norm, pair_min, record = engine.step(k, y)
        ec_norms.append(ec_norm)
        if pair_min < min_pair:
            min_pair = pair_min
        if (
            first_divergence is None
            and k > 0
            and ec_norm > scenario.divergence_threshold
        ):
            first_divergence = k * scenario.dt
        if record is not None:
            records.append(record)
    wall = time.perf_counter() - t_start

    # theta and rho_hat never decrease, so the final values are the peaks
    final = records[-1]
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
        "min_pair_distance": float(min_pair),
        "first_divergence_time": first_divergence,
        "final_theta": [float(v) for v in final.theta],
        "final_rho_hat": [float(v) for v in final.rho_hat],
        "qp_infeasible_count": engine.qp_infeasible_count,
        "first_infeasible_time": engine.first_infeasible_time,
        "wall_clock_s": wall,
    }
    return RunResult(records=records, summary=summary)

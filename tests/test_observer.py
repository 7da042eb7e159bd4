import dataclasses
import logging

import numpy as np
import pytest

import oracles
from safe_containment import sim
from safe_containment.compensation import compensation_law, projected_error
from safe_containment.observer import (
    adaptive_gain,
    neighborhood_signal,
    observer_input,
)
from safe_containment.scenario import FollowerSpec, ScenarioConfig
from safe_containment.topology import Topology, build_phi_family


def test_consensus_fixed_point(paper_scenario):
    top = paper_scenario.topology
    point = np.array([0.3, -1.0, 2.0])
    zetas = np.tile(point, (4, 1))
    leaders = np.tile(point, (4, 1))
    # the stacked form subtracts the self-weighted estimate from the
    # weighted neighbor sums, so at consensus the terms cancel to within
    # one rounding of those sums rather than exactly
    bound = np.finfo(float).eps * top.self_weight[:, None] * np.abs(zetas)
    assert np.all(np.abs(neighborhood_signal(zetas, leaders, top)) <= bound)


def test_single_edge_arithmetic():
    top = Topology(
        adjacency=np.array([[0.0, 1], [0, 0]]),
        pinning=np.array([[0.0, 1.0]]),
    )
    zetas = np.array([[1.0, 0, 0], [0.0, 0, 0]])
    leaders = np.zeros((1, 3))
    assert neighborhood_signal(zetas, leaders, top)[0] == pytest.approx(
        [-1.0, 0.0, 0.0]
    )


def test_stacked_matches_dense_oracle(paper_scenario, paper_engine):
    top = paper_scenario.topology
    fam = build_phi_family(top)
    _, lead_sl, zeta_sl, _, _ = paper_engine._slices
    rng = np.random.default_rng(3)
    for _ in range(20):
        zetas = rng.standard_normal((4, 3))
        leaders = rng.standard_normal((4, 3))
        xs = neighborhood_signal(zetas, leaders, top)
        # global identity: stacked xi equals the dense Kronecker assembly
        dense = oracles.kron_stacked_xi(zetas, leaders, fam)
        assert xs.ravel() == pytest.approx(dense, abs=1e-12)
        # and equals -sum_nu (Phi_nu kron I) applied to the observer
        # containment error
        y = np.zeros(paper_engine.D)
        y[lead_sl], y[zeta_sl] = leaders.ravel(), zetas.ravel()
        delta_o = (paper_engine.O @ y)[paper_engine._observed[1]]
        big = sum(
            np.kron(fam.phi[r], np.eye(3)) for r in range(fam.phi.shape[0])
        )
        assert xs.ravel() == pytest.approx(-big @ delta_o, abs=1e-12)


def _rates(S, zeta, xi, gamma_ol, theta, q, gain_cap=700.0):
    """(zeta', theta') of a single follower, unstacked: S zeta plus
    observer_input."""
    driving, dtheta = observer_input(
        xi[None, :], gamma_ol[None, :],
        adaptive_gain(np.array([theta]), gain_cap), np.array([q]),
    )
    return S @ zeta + driving[0], dtheta[0]


def test_unforced_observer(paper_scenario):
    S = paper_scenario.S
    zeta = np.array([1.0, 1.0, 1.0])
    dzeta, dtheta = _rates(S, zeta, np.zeros(3), np.zeros(3), 0.0, 2.0)
    assert dzeta == pytest.approx(S @ zeta)
    assert dtheta == 0.0


def test_unit_gain_at_zero_theta(paper_scenario):
    dzeta, dtheta = _rates(
        paper_scenario.S, np.zeros(3), np.array([1.0, 0, 0]), np.zeros(3),
        0.0, 0.7,
    )
    assert dzeta == pytest.approx([1.0, 0.0, 0.0])
    assert dtheta == pytest.approx(0.7)


def test_hand_evaluated_derivatives(paper_scenario):
    # S zeta = (-1, 3, -2); exp(ln 2) * (0,1,0) = (0,2,0); plus (0,0,1)
    dzeta, dtheta = _rates(
        paper_scenario.S, np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 1.0]), np.log(2.0), 1.0,
    )
    assert dzeta == pytest.approx([-1.0, 5.0, -1.0], abs=1e-14)
    assert dtheta == pytest.approx(1.0)


def test_gain_clamp_logs_and_stays_finite(paper_scenario, caplog):
    # gains past exp()'s overflow point are clamped in both layers
    dzeta, _ = _rates(
        np.zeros((3, 3)), np.zeros(3), np.array([1.0, 0, 0]), np.zeros(3),
        800.0, 1.0, gain_cap=700.0,
    )
    assert dzeta == pytest.approx([np.exp(700.0), 0.0, 0.0])
    gamma_hat, _ = compensation_law(
        projected_error(np.eye(1)[None], np.ones((1, 1))),
        adaptive_gain(np.array([900.0]), 700.0), np.ones(1), np.ones(1),
    )
    assert np.all(np.isfinite(gamma_hat))

    # the pipeline clamps theta and rho_hat at gain_cap; the run reports
    # it once, from the final gains (every follower's theta passes 1.2)
    scn = dataclasses.replace(paper_scenario, gain_cap=0.5, horizon=0.05)
    with caplog.at_level(logging.WARNING, logger="safe_containment.sim"):
        result = sim.run(scn)
    clamped = [r for r in caplog.records if "clamped" in r.message]
    assert len(clamped) == 1
    assert max(result.summary["final_theta"]) > scn.gain_cap
    for rec in result.records:
        for name in ("x", "zeta", "theta", "rho_hat", "u", "gamma_hat"):
            assert np.all(np.isfinite(getattr(rec, name)))


def test_theta_monotone_along_trace(saar_result):
    thetas = np.array([r.theta for r in saar_result.records])
    assert np.all(np.diff(thetas, axis=0) >= -1e-12)


def test_attack_free_consensus(paper_scenario):
    # leaders parked at an equilibrium of the leader dynamics: the paper's
    # S is the cross-product matrix of w = (-1, 1, 2), so S w = 0
    w = np.array([-1.0, 1.0, 2.0])
    assert paper_scenario.S @ w == pytest.approx(np.zeros(3), abs=0)
    f1, f3 = paper_scenario.followers[0], paper_scenario.followers[2]
    followers = [
        FollowerSpec(A=f1.A, B=f1.B, Q=f1.Q, U=f1.U,
                     x0=np.array([2.0, 0.0, 0.0])),
        FollowerSpec(A=f3.A, B=f3.B, Q=f3.Q, U=f3.U,
                     x0=np.array([-2.0, 0.0, 0.0])),
    ]
    cfg = ScenarioConfig(
        name="consensus",
        followers=followers,
        S=paper_scenario.S,
        leader_x0=(0.5 * w)[None, :],
        topology=Topology(
            adjacency=np.array([[0.0, 1], [1, 0]]),
            pinning=np.array([[1.0, 1.0]]),
        ),
        horizon=6.0,
        controller_mode="resilient_unsafe",
    )
    assert cfg.validate() == []
    result = sim.run(cfg)
    last = result.records[-1]
    assert np.linalg.norm(last.xi) <= 1e-3
    assert np.linalg.norm(last.delta_o) <= 1e-3

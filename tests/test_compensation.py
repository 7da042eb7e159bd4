import numpy as np
import pytest

from safe_containment.attacks import eval_stacked
from safe_containment.compensation import (
    compensation_law,
    nominal_input,
    projected_error,
)
from safe_containment.observer import adaptive_gain


def _nominal(K, H, x, zeta):
    """nominal_input for a single follower, unstacked."""
    return nominal_input(K[None], H[None], x[None], zeta[None])[0]


def _compensation(P, b, eps, t, rho_hat=0.0, alpha=1.0, c=1.0):
    """(gamma_hat, rho_hat') of a single follower with gains P and input
    matrix b, unstacked."""
    s = projected_error((P @ np.atleast_2d(b))[None], eps[None])
    gamma_hat, drho = compensation_law(
        s, adaptive_gain(np.array([rho_hat]), 700.0), np.array([alpha]),
        np.exp(-np.array([c]) * t * t),
    )
    return gamma_hat[0], drho[0]


def test_conventional_input_collapses_to_feedforward():
    # with x = zeta and K + H = Pi the input reduces to Pi x
    K = np.array([[-1.0, 0], [0, -2.0]])
    Pi = np.array([[0.5, 0], [0, 0.25]])
    H = np.array([[1.5, 0], [0, 2.25]])
    x = np.array([2.0, -3.0])
    assert _nominal(K, H, x, x) == pytest.approx(Pi @ x)


def test_conventional_input_zero():
    K, H = np.array([[-1.0]]), np.array([[1.0]])
    assert _nominal(K, H, np.zeros(1), np.zeros(1)) == pytest.approx([0.0])


def test_conventional_input_scalar_toy():
    K, H = np.array([[-1.0]]), np.array([[1.0]])
    u = _nominal(K, H, np.array([2.0]), np.array([3.0]))
    assert u == pytest.approx([1.0])


def test_compensation_zero_tracking_error():
    out, _ = _compensation(np.eye(1), [[1.0]], np.zeros(1), 0.0, rho_hat=3.0)
    assert out == pytest.approx([0.0])


def test_compensation_scalar_toy():
    # P=1, B=1, eps=0.5, rho_hat=ln 2, c=1, t=0: 0.5 * 2 / (0.5 + 1) = 2/3
    out, _ = _compensation(
        np.eye(1), [[1.0]], np.array([0.5]), 0.0, rho_hat=np.log(2.0), c=1.0
    )
    assert out == pytest.approx([2.0 / 3.0], rel=1e-15)


def test_compensation_saturation_limit():
    out, _ = _compensation(
        np.eye(1), [[1.0]], np.array([1e3]), 1.0, rho_hat=1.3, c=1.0
    )
    # norm approaches exp(rho_hat) from below as ||eps' P B|| grows
    assert np.linalg.norm(out) < np.exp(1.3)
    assert np.linalg.norm(out) == pytest.approx(np.exp(1.3), rel=1e-3)


def test_compensation_direction_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        p = rng.standard_normal((3, 3))
        p = p @ p.T + 3 * np.eye(3)
        b = rng.standard_normal((3, 2))
        eps = rng.standard_normal(3)
        rho_hat = rng.uniform(0, 2)
        out, _ = _compensation(p, b, eps, rng.uniform(0, 4), rho_hat=rho_hat)
        direction = b.T @ p @ eps
        cross = np.outer(out, direction) - np.outer(direction, out)
        assert np.max(np.abs(cross)) < 1e-9 * max(
            1.0, np.linalg.norm(direction) ** 2
        )
        assert out @ direction >= 0
        assert np.linalg.norm(out) < np.exp(rho_hat)


def test_compensator_rate_scalar_toy():
    _, rate = _compensation(np.eye(1), [[1.0]], np.array([0.5]), 0.0, alpha=2.0)
    assert rate == pytest.approx(1.0)
    _, rate = _compensation(np.eye(1), [[1.0]], np.zeros(1), 0.0, alpha=2.0)
    assert rate == pytest.approx(0.0)
    _, doubled = _compensation(
        np.eye(1), [[1.0]], np.array([0.5]), 0.0, alpha=4.0
    )
    assert doubled == pytest.approx(2.0)


def test_corrupted_input_composition(paper_scenario, saar_result):
    # every logged input splits exactly into its layers:
    # u_r = u_c - gamma_hat, and u_bar adds the injected input attack
    injected = 0
    coeff, rate = map(
        np.stack, zip(*(f.attack_cil for f in paper_scenario.followers))
    )
    for rec in saar_result.records:
        gamma_a = eval_stacked(coeff, rate, paper_scenario.attack_start, rec.t)
        assert np.array_equal(rec.u_r, rec.u_c - rec.gamma_hat)
        assert np.array_equal(rec.u_bar, rec.u_r + gamma_a)
        injected += bool(np.any(gamma_a != 0))
    assert injected > 100  # the attack must actually be on


def test_rho_monotone_along_trace(saar_result):
    rho = np.array([r.rho_hat for r in saar_result.records])
    assert np.all(np.diff(rho, axis=0) >= -1e-12)


def test_cancellation_inequality_on_trace(paper_scenario, saar_result):
    """Once the adaptive magnitude dominates the injected signal, the
    compensation term removes at least as much of the Lyapunov cross term
    as the attack adds (pointwise on the logged trajectory)."""
    from safe_containment.sim import Engine

    engine = Engine(paper_scenario)
    checked = 0
    for rec in saar_result.records:
        if rec.t < paper_scenario.attack_start:
            continue
        tau = rec.t - paper_scenario.attack_start
        gamma_a = engine.attack_coeff[:, engine.n:] * np.exp(
            engine.attack_rate[:, engine.n:] * tau)
        for i in range(engine.N):
            s = rec.eps[i] @ engine.PB[i]
            ns = np.linalg.norm(s)
            if ns < 1e-12:
                continue
            ga_norm = np.linalg.norm(gamma_a[i])
            reg = np.exp(-engine.c[i] * rec.t**2)
            if np.exp(rec.rho_hat[i]) >= ga_norm * (1.0 + reg / ns):
                assert s @ gamma_a[i] - s @ rec.gamma_hat[i] <= 1e-9
                checked += 1
    assert checked > 100  # the hypothesis must actually trigger

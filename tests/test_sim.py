import copy
import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from safe_containment import sim
from safe_containment.scenario import FollowerSpec, ScenarioConfig
from safe_containment.sim import Engine, SimulationError, containment_error
from safe_containment.topology import Topology, build_phi_family


def test_containment_error_degenerate_hull(paper_engine):
    point = np.array([0.4, -0.2, 1.0])
    followers = np.tile(point, (4, 1))
    leaders = np.tile(point, (4, 1))
    e_c = containment_error(followers, leaders, paper_engine.phi)
    assert e_c == pytest.approx(np.zeros(12), abs=1e-14)


def test_containment_error_single_pair():
    top = Topology(adjacency=np.zeros((1, 1)), pinning=np.array([[1.0]]))
    fam = build_phi_family(top)
    x = np.array([[3.0, 1.0]])
    y = np.array([[1.0, -1.0]])
    assert containment_error(x, y, fam) == pytest.approx([2.0, 2.0])


def test_containment_error_matches_dense_oracle(paper_engine):
    rng = np.random.default_rng(13)
    for _ in range(20):
        followers = rng.standard_normal((4, 3))
        leaders = rng.standard_normal((4, 3))
        got = containment_error(followers, leaders, paper_engine.phi)
        want = oracles.kron_containment_error(
            followers, leaders, paper_engine.phi
        )
        assert got == pytest.approx(want, abs=1e-12)
        zetas = rng.standard_normal((4, 3))
        got_o = containment_error(zetas, leaders, paper_engine.phi)
        want_o = oracles.kron_containment_error(
            zetas, leaders, paper_engine.phi
        )
        assert got_o == pytest.approx(want_o, abs=1e-12)
        # error difference collapses to the tracking error
        diff = got - got_o
        assert diff == pytest.approx(
            (followers - zetas).ravel(), abs=1e-12
        )


def test_observer_error_zero_at_hull_reference(paper_engine):
    rng = np.random.default_rng(19)
    leaders = rng.standard_normal((4, 3))
    reference = sim._hull_reference(leaders, paper_engine.phi)
    out = containment_error(reference, leaders, paper_engine.phi)
    assert out == pytest.approx(np.zeros(12), abs=1e-12)


def _equilibrium_scenario(paper_scenario):
    followers = [
        dataclasses.replace(
            f, x0=np.zeros(3), zeta0=np.zeros(3),
            attack_cil=None, attack_ol=None,
        )
        for f in paper_scenario.followers
    ]
    return dataclasses.replace(
        paper_scenario,
        followers=followers,
        leader_x0=np.zeros((4, 3)),
        controller_mode="resilient_unsafe",
    )


def _advance(engine, n_steps):
    """The packed state an engine reaches n_steps steps from its
    initial state."""
    y = engine.initial_state()
    for k in range(n_steps):
        y, _, _, _ = engine.step(k, y)
    return y


def test_step_equilibrium_world_unchanged(paper_scenario):
    engine = Engine(_equilibrium_scenario(paper_scenario))
    table = engine.new_table()
    y0 = engine.initial_state()
    y1, _, _, row = engine.step(0, y0, table)
    rec = engine.layout.record(row)
    assert rec.t == 0.0
    # follower, leader and observer states and both gains stay put
    assert np.array_equal(y1, y0)
    assert rec.u == pytest.approx(np.zeros((4, 3)), abs=0)
    # the last step is always sampled, at the horizon, into the last row,
    # and ends the run
    y_end, _, _, row = engine.step(engine.n_steps, y1, table)
    assert y_end is None
    assert np.shares_memory(row, table[-1])
    assert engine.layout.record(row).t == pytest.approx(
        engine.scenario.horizon
    )
    # without a table nothing is sampled
    assert engine.step(0, y0)[3] is None


def test_leader_rotation_norm_conserved_and_matches_expm(paper_scenario):
    engine = Engine(paper_scenario)
    leader0 = engine._unpack(engine.initial_state())[1]
    norms0 = np.linalg.norm(leader0, axis=1)
    y = _advance(engine, 100)
    leader = engine._unpack(y)[1]
    norms = np.linalg.norm(leader, axis=1)
    assert norms == pytest.approx(norms0, abs=1e-12)
    oracle = (expm(engine.S * 100 * engine.scenario.dt) @ leader0.T).T
    assert leader == pytest.approx(oracle, abs=1e-12)


def test_full_scenario_dt_halving_fourth_order(paper_scenario):
    # attacks are inactive before t = 3 and the conventional closed loop
    # has a smooth right-hand side (no norm kinks, no constraint
    # switching), so the step-halving error ratio should be near 16
    finals = []
    for dt in (0.01, 0.005, 0.0025):
        scn = dataclasses.replace(
            paper_scenario, dt=dt, horizon=1.0,
            controller_mode="conventional",
        )
        y = _advance(Engine(scn), int(round(1.0 / dt)))
        finals.append(y)
    r = np.linalg.norm(finals[0] - finals[1]) / np.linalg.norm(
        finals[1] - finals[2]
    )
    assert 12.0 <= r <= 20.0


def test_run_trace_identities_short(paper_scenario):
    scn = dataclasses.replace(paper_scenario, horizon=0.5)
    result = sim.run(scn)
    assert result.records[0].t == 0.0
    assert result.records[-1].t == pytest.approx(0.5)
    big = sum(
        np.kron(f, np.eye(3)) for f in sim.Engine(scn).phi.phi
    )
    for rec in result.records:
        assert rec.e_c.ravel() == pytest.approx(
            (rec.eps + rec.delta_o).ravel(), abs=1e-10
        )
        assert rec.xi.ravel() == pytest.approx(
            -big @ rec.delta_o.ravel(), abs=1e-12
        )
        assert np.all(rec.pair_distance > 0)
        assert rec.pair_h == pytest.approx(
            scn.d_s**2 - rec.pair_distance**2, abs=1e-12
        )


def test_run_determinism_short(paper_scenario):
    scn = dataclasses.replace(paper_scenario, horizon=0.2)
    a = sim.run(scn)
    b = sim.run(scn)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.x, rb.x)
        assert np.array_equal(ra.zeta, rb.zeta)
        assert np.array_equal(ra.u, rb.u)
        assert np.array_equal(ra.theta, rb.theta)
    keys_a = {k: v for k, v in a.summary.items() if k != "wall_clock_s"}
    keys_b = {k: v for k, v in b.summary.items() if k != "wall_clock_s"}
    assert keys_a == keys_b


def test_run_summary_fields(paper_scenario):
    scn = dataclasses.replace(paper_scenario, horizon=0.1)
    result = sim.run(scn)
    summary = result.summary
    for key in (
        "scenario", "mode", "horizon", "dt", "max_ec", "max_ec_tail",
        "final_ec", "min_pair_distance", "first_divergence_time",
        "final_theta", "final_rho_hat", "qp_infeasible_count",
        "first_infeasible_time", "wall_clock_s",
    ):
        assert key in summary
    assert summary["mode"] == "saar"
    assert summary["qp_infeasible_count"] == 0
    assert summary["first_divergence_time"] is None
    assert summary["min_pair_distance"] > scn.d_s


def test_divergence_first_crossing_reported(paper_scenario):
    scn = dataclasses.replace(
        paper_scenario, horizon=0.05, divergence_threshold=0.1
    )
    result = sim.run(scn)
    # initial containment error is ~4, so the first integration step crosses
    assert result.summary["first_divergence_time"] == pytest.approx(scn.dt)


def test_nan_guard_aborts_with_diagnostic(paper_scenario):
    follower = FollowerSpec(
        A=np.array([[5.0]]),
        B=np.array([[1.0]]),
        Q=np.array([[1.0]]),
        U=np.array([[1.0]]),
        x0=np.array([1e300]),
    )
    cfg = ScenarioConfig(
        name="blowup",
        followers=[follower],
        S=np.array([[0.0]]),
        leader_x0=np.zeros((1, 1)),
        topology=Topology(
            adjacency=np.zeros((1, 1)), pinning=np.array([[1.0]])
        ),
        dt=1.0,
        horizon=400.0,
        controller_mode="conventional",
    )
    assert cfg.validate() == []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match="t="):
            sim.run(cfg)


def test_saar_equals_unfiltered_mode_while_filter_idle(paper_scenario):
    # with a loose constraint rate no pair constraint activates during the
    # transient, so the safety filter must be an exact identity on the
    # trajectory
    horizon = 0.2
    packs = {}
    for mode in ("saar", "resilient_unsafe"):
        scn = dataclasses.replace(
            paper_scenario, horizon=horizon, controller_mode=mode,
            delta=np.asarray(50.0),
        )
        packs[mode] = _advance(Engine(scn), int(round(horizon / scn.dt)))
    assert np.array_equal(packs["saar"], packs["resilient_unsafe"])


def test_conventional_mode_runs_standard_observer(paper_scenario):
    # the undefended baseline has no adaptive observer gain: theta stays
    # exactly 0, and the zeta rate ignores theta even when it is nonzero
    scn = dataclasses.replace(
        paper_scenario, horizon=0.2, controller_mode="conventional"
    )
    engine = Engine(scn)
    table = engine.new_table()
    y = engine.initial_state()
    for k in range(engine.n_steps):
        y, _, _, row = engine.step(k, y, table)
        assert np.array_equal(engine._unpack(y)[3], np.zeros(4))
        if row is not None:
            assert np.array_equal(engine.layout.record(row).theta, np.zeros(4))

    x, leader, zeta, _, rho_hat = engine._unpack(y)
    t = scn.attack_start + 1.0
    deriv = engine._pipeline(t, x, leader, zeta, np.full(4, 2.0), rho_hat)
    _, _, dzeta, dtheta, _ = engine._unpack(deriv)
    xi = oracles.kron_stacked_xi(zeta, leader, engine.phi).reshape(4, 3)
    gamma_ol = np.stack([f.attack_ol(t) for f in scn.followers])
    assert np.any(gamma_ol != 0)
    assert dzeta == pytest.approx(zeta @ engine.S.T + xi + gamma_ol, abs=1e-12)
    assert np.array_equal(dtheta, np.zeros(4))


def test_record_input_is_not_the_requested_input(paper_scenario):
    # with the filter off u equals u_bar, but each record holds its own copy
    scn = dataclasses.replace(
        paper_scenario, horizon=0.02, controller_mode="resilient_unsafe"
    )
    rec = sim.run(scn).records[-1]
    assert np.array_equal(rec.u, rec.u_bar)
    u_bar = rec.u_bar.copy()
    rec.u += 1.0
    assert np.array_equal(rec.u_bar, u_bar)


def test_records_are_views_built_on_read(paper_scenario):
    scn = dataclasses.replace(paper_scenario, horizon=0.02, output_stride=5)
    result = sim.run(scn)
    first, second = result.records, result.records
    assert first is not second and len(first) == len(result.table) == 5
    for a, b in zip(first, second):
        for name in ("t", "x", "u", "theta", "xi", "pair_distance"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    rec = first[2]
    assert np.shares_memory(rec.u, result.table)
    assert rec.pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    # a deep copy owns its data: editing it leaves the table alone
    table = result.table.copy()
    copied = copy.deepcopy(rec)
    copied.x += 1.0
    copied.pair_active[:] = 1.0
    copied.theta = np.zeros(4)
    assert np.array_equal(result.table, table)
    assert np.array_equal(result.records[2].x, rec.x)

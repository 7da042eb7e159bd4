import copy
import dataclasses

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

import oracles
from test_scenario_cli import _copies_doc, _tiny_doc, _tiny_doc_m2
import safe_containment
from safe_containment import safety, sim
from safe_containment.attacks import eval_stacked
from safe_containment.compensation import (
    compensation_law,
    nominal_input,
    projected_error,
)
from safe_containment.observer import (
    adaptive_gain,
    neighborhood_signal,
    observer_input,
)
from safe_containment.safety import sequential_filter
from safe_containment.scenario import (
    FollowerSpec,
    ScenarioConfig,
    scenario_from_dict,
)
from safe_containment.sim import Engine, SimulationError
from safe_containment.topology import Topology, build_phi_family


def test_every_exported_name_resolves():
    # the package's __all__ is what ``from safe_containment import *`` reads
    names = {}
    exec("from safe_containment import *", names)
    names.pop("__builtins__")
    assert sorted(names) == sorted(set(safe_containment.__all__))
    assert len(safe_containment.__all__) == len(names)


def _observed(engine, x, leaders, zeta=None):
    """e_c and delta_o that ``Engine.O`` gives at the packed state holding
    the followers' x, the leaders' states and the estimates zeta (x where
    none is given)."""
    y = np.zeros(engine.D)
    for sl, v in zip(engine._slices, (x, leaders, x if zeta is None else zeta)):
        y[sl] = np.ravel(v)
    obs = engine.O @ y
    return [obs[sl] for sl in engine._observed]


def test_containment_error_degenerate_hull(paper_engine):
    point = np.array([0.4, -0.2, 1.0])
    followers = np.tile(point, (4, 1))
    leaders = np.tile(point, (4, 1))
    e_c, _ = _observed(paper_engine, followers, leaders)
    assert e_c == pytest.approx(np.zeros(12), abs=1e-14)


def test_containment_error_single_pair():
    # one follower pinned by one leader: its hull reference is the leader
    top = Topology(adjacency=np.zeros((1, 1)), pinning=np.array([[1.0]]))
    fam = build_phi_family(top)
    x = np.array([[3.0, 1.0]])
    y = np.array([[1.0, -1.0]])
    assert np.array_equal(fam.hull_weights, [[1.0]])
    assert (x - fam.hull_weights @ y).ravel() == pytest.approx([2.0, 2.0])


def test_containment_error_matches_dense_oracle(paper_engine):
    rng = np.random.default_rng(13)
    for _ in range(20):
        followers = rng.standard_normal((4, 3))
        leaders = rng.standard_normal((4, 3))
        zetas = rng.standard_normal((4, 3))
        got, got_o = _observed(paper_engine, followers, leaders, zetas)
        want = oracles.kron_containment_error(
            followers, leaders, paper_engine.phi
        )
        assert got == pytest.approx(want, abs=1e-12)
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
    reference = paper_engine.phi.hull_weights @ leaders
    for out in _observed(paper_engine, reference, leaders):
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


def test_filter_intervention_count_counts_evaluations_that_change_u(
    paper_scenario, monkeypatch
):
    changed = []
    original = sim.safety.sequential_filter

    def spy(u_bars, *args):
        results = original(u_bars, *args)
        changed.append(any(np.any(r.u != u_bars[r.agent]) for r in results))
        return results

    monkeypatch.setattr(sim.safety, "sequential_filter", spy)
    scn = dataclasses.replace(paper_scenario, horizon=0.3)
    summary = sim.run(scn).summary
    assert len(changed) == 4 * 300 + 1  # one filter call per evaluation
    assert summary["filter_intervention_count"] == sum(changed) > 0
    unfiltered = sim.run(scn.with_mode("resilient_unsafe")).summary
    assert unfiltered["filter_intervention_count"] == 0


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
    deriv = engine._pipeline(_stage(engine, t), np.concatenate(
        [x.ravel(), leader.ravel(), zeta.ravel(), np.full(4, 2.0), rho_hat]))
    _, _, dzeta, dtheta, _ = engine._unpack(deriv)
    xi = oracles.kron_stacked_xi(zeta, leader, engine.phi).reshape(4, 3)
    gamma_ol = eval_stacked(
        *map(np.stack, zip(*(f.attack_ol for f in scn.followers))),
        scn.attack_start, t,
    )
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


@pytest.mark.parametrize("N, n, m", [(4, 3, 3), (3, 3, 2), (1, 2, 1)])
def test_views_and_the_header_name_the_same_columns(N, n, m):
    # a row holding its own column indices: each view reads the indices
    # of the header's columns of its name, and xi those after the CSV's
    layout = sim.TraceLayout(N, n, m)
    header = layout.header()
    assert len(header) == layout.n_csv
    views = layout.views(np.arange(layout.width, dtype=float))
    assert header[int(views["t"])] == "t"
    for attr, prefix, dim in sim.TRACE_FIELDS:
        cols = views[attr].astype(int)
        if dim == 1:
            assert [header[c] for c in cols] == [
                f"{prefix}_{i + 1}" for i in range(N)]
            continue
        assert cols.shape == (N, n if dim == "n" else m)
        for i in range(N):
            assert [header[c] for c in cols[i]] == [
                f"{prefix}_{i + 1}_{l + 1}" for l in range(cols.shape[1])]
    for name, prefix in (("pair_distance", "d"), ("pair_h", "h"),
                         ("pair_active", "active")):
        assert [header[c] for c in views[name].astype(int)] == [
            f"{prefix}_{i + 1}_{j + 1}" for i, j in layout.pairs]
    assert np.array_equal(views["xi"], np.arange(
        layout.n_csv, layout.width).reshape(N, n))
    every = np.concatenate([np.ravel(v) for v in views.values()])
    assert np.array_equal(np.sort(every), np.arange(layout.width))

    # the views of a stack of rows are each row's record, in its memory
    rows = np.random.default_rng(24).standard_normal((5, layout.width))
    stack = layout.views(rows)
    assert stack.keys() == views.keys()
    for r, row in enumerate(rows):
        rec = layout.record(row)
        assert rec.pairs == list(layout.pairs)
        for name, view in stack.items():
            assert view.shape == (5, *np.shape(views[name]))
            assert view.size == 0 or np.shares_memory(view, rows)
            assert np.array_equal(view[r], getattr(rec, name))


@pytest.mark.parametrize("mode, stride, followers", [
    ("saar", None, 4), ("resilient_unsafe", None, 4),
    ("conventional", None, 4),
    # 50 steps: the last is sampled only for being the last
    ("saar", 7, 4),
    ("saar", None, 1),
], ids=["saar", "resilient_unsafe", "conventional", "stride_7",
        "one_follower"])
def test_a_run_writes_every_cell_of_its_table(
    paper_scenario, monkeypatch, mode, stride, followers
):
    # new_table leaves its cells unset (np.empty); filled with NaN here, a
    # cell that no write of the run reaches stays NaN
    new_table = sim.Engine.new_table
    monkeypatch.setattr(sim.Engine, "new_table",
                        lambda self: np.full_like(new_table(self), np.nan))
    scn = paper_scenario
    if followers == 1:  # no pairs
        doc = _tiny_doc()
        doc["followers"] = doc["followers"][:1]
        doc["topology"] = {"adjacency": [[0]], "pinning": [[1]]}
        scn = scenario_from_dict(doc)
    scn = dataclasses.replace(scn.with_mode(mode), horizon=0.05,
                              output_stride=stride or scn.output_stride)
    result = sim.run(scn)
    assert result.table.shape == (-(-50 // scn.output_stride) + 1,
                                  result.layout.width)
    assert np.isfinite(result.table).all()
    assert len(result.layout.pairs) == followers * (followers - 1) // 2


def _stage(engine, t):
    """The pipeline's stage at time t: t with its time-only terms."""
    return (t, *engine._time_table(np.asarray(t)))


def _random_state(engine, rng, spread):
    """A packed state of standard normal entries whose follower and
    observer states are scaled by ``spread``, with gains in [0, 3)."""
    y = rng.standard_normal(engine.D)
    y[:engine._slices[2].stop] *= spread
    y[engine._slices[3].start:] = rng.uniform(0.0, 3.0, 2 * engine.N)
    return y


@pytest.mark.parametrize("mode", ["saar", "resilient_unsafe", "conventional"])
def test_the_pipeline_is_its_layers_composed(paper_scenario, mode):
    # L @ y sums the linear layers' terms in another order than the layer
    # functions do, so the two agree to a bound set from the dtype
    scn = paper_scenario.with_mode(mode)
    engine = Engine(scn)
    rng = np.random.default_rng(8)
    resilient = mode != "conventional"
    for t in (0.5, 3.5, 9.0):
        y = _random_state(engine, rng, 5.0)  # followers well apart
        x, leader, zeta, theta, rho = engine._unpack(y)
        xi = neighborhood_signal(zeta, leader, engine.topology)
        gamma = eval_stacked(engine.attack_coeff, engine.attack_rate,
                             scn.attack_start, t)
        driving, dtheta = observer_input(
            xi, gamma[:, :3], adaptive_gain(theta, scn.gain_cap), engine.q)
        if not resilient:  # the standard observer: unit gain, theta' = 0
            driving, dtheta = xi + gamma[:, :3], np.zeros(len(xi))
        dzeta = zeta @ engine.S.T + driving
        u_c = nominal_input(engine.K, engine.H, x, zeta)
        gamma_hat, drho = compensation_law(
            projected_error(engine.PB, x - zeta),
            adaptive_gain(rho, scn.gain_cap), engine.alpha,
            np.exp(-engine.c * t * t))
        if not resilient:
            gamma_hat, drho = 0 * gamma_hat, 0 * drho
        u_r = u_c - gamma_hat
        u = u_bar = u_r + gamma[:, 3:]
        if mode == "saar":
            u = oracles.filtered_inputs(u_bar, sequential_filter(
                u_bar, x, engine.A, engine.B, scn.delta, scn.d_s))
        dx = np.einsum("nij,nj->ni", engine.A, x) + np.einsum(
            "nij,nj->ni", engine.B, u)
        want = np.concatenate([dx.ravel(), (leader @ engine.S.T).ravel(),
                               dzeta.ravel(), dtheta, drho])
        rows = np.zeros((1, engine.layout.width))
        got = engine._pipeline(_stage(engine, t), y,
                               engine.layout.views(rows), 0)
        parts = engine.layout.views(rows[0])
        tol = 64 * np.finfo(float).eps
        np.testing.assert_allclose(
            got, want, rtol=0, atol=tol * np.abs(want).max())
        # every input's bound is set from u, since delta_u is often all 0
        for name, value, scale in (("u", u, u), ("u_r", u_r, u),
                                   ("u_bar", u_bar, u),
                                   ("delta_u", u - u_bar, u), ("xi", xi, xi)):
            np.testing.assert_allclose(
                parts[name].reshape(value.shape), value, rtol=0,
                atol=tol * np.abs(scale).max(), err_msg=name)


@pytest.mark.parametrize("result", ["saar_result", "conventional_result"])
def test_each_sampled_input_is_the_one_its_evaluation_formed(
    paper_scenario, request, result
):
    # across the attack onset at 3 s, every record's u_r, u_bar and
    # delta_u are, bit for bit, the inputs formed from its other fields
    engine = Engine(paper_scenario)
    attacked = 0
    for rec in request.getfixturevalue(result).records:
        gamma_cil = eval_stacked(
            engine.attack_coeff, engine.attack_rate,
            paper_scenario.attack_start, rec.t,
            paper_scenario.absolute_clock)[:, engine.n:]
        assert np.array_equal(rec.u_r, rec.u_c - rec.gamma_hat)
        assert np.array_equal(rec.u_bar, rec.u_r + gamma_cil)
        assert np.array_equal(rec.delta_u, rec.u - rec.u_bar)
        attacked += bool(np.any(gamma_cil != 0))
    assert attacked > 100


@pytest.mark.parametrize("doc", [None, _tiny_doc_m2], ids=["paper", "m2"])
def test_the_operator_holds_the_model_coefficients(paper_scenario, doc):
    scn = paper_scenario if doc is None else scenario_from_dict(doc())
    engine = Engine(scn)
    N, M, n = engine.N, engine.M, engine.n
    top = engine.topology
    x, lead, zeta, theta, rho = engine._slices
    xi, eps, s, u_c = engine._outputs
    PB_t = [(g.P @ f.B).T for g, f in zip(engine.gains, scn.followers)]
    want = np.zeros_like(engine.L)
    want[x, x] = block_diag(*(f.A for f in scn.followers))
    want[lead, lead] = block_diag(*[scn.S] * M)
    want[zeta, zeta] = block_diag(*[scn.S] * N)
    want[xi, zeta] = np.kron(top.adjacency - np.diag(top.self_weight),
                             np.eye(n))
    want[xi, lead] = np.kron(top.pinning.T, np.eye(n))
    want[eps, x], want[eps, zeta] = np.eye(N * n), -np.eye(N * n)
    want[s, x], want[s, zeta] = block_diag(*PB_t), -block_diag(*PB_t)
    want[u_c, x] = block_diag(*(g.K for g in engine.gains))
    want[u_c, zeta] = block_diag(*(g.H for g in engine.gains))
    names = ("x", "leader_x", "zeta", "theta", "rho_hat", "xi", "eps", "s",
             "u_c")
    for name, rows in zip(names, engine._slices + engine._outputs):
        assert np.array_equal(engine.L[rows], want[rows]), name

    # the xi rows are the Kronecker form -sum_r (Phi_r kron I)
    # (zeta - 1 kron x_r), whose Phi_r carry the Laplacian over M
    cols = np.r_[zeta, lead]
    kron = np.stack([
        oracles.kron_stacked_xi(v[:N * n].reshape(N, n),
                                v[N * n:].reshape(M, n), engine.phi)
        for v in np.eye(len(cols))
    ], axis=1)
    np.testing.assert_allclose(
        engine.L[xi][:, cols], kron, rtol=0,
        atol=4 * np.finfo(float).eps * np.abs(kron).max())


@pytest.mark.parametrize("doc", [None, _tiny_doc_m2], ids=["paper", "m2"])
def test_the_observation_operator_holds_the_hull_weights_and_pair_signs(
    paper_scenario, doc
):
    scn = paper_scenario if doc is None else scenario_from_dict(doc())
    engine = Engine(scn)
    N, n, O = engine.N, engine.n, engine.O
    x, lead, zeta, _, _ = engine._slices
    ec, do = engine._observed
    hull = -np.kron(engine.phi.hull_weights, np.eye(n))
    want = np.zeros((do.stop, engine.D))
    want[ec, x], want[ec, lead] = np.eye(N * n), hull
    want[do, zeta], want[do, lead] = np.eye(N * n), hull
    assert np.array_equal(O, want)

    # a sampled row's d column holds the bits of the per-pair norm of
    # x_i - x_j, and its h column those of the barrier value the filter
    # evaluates, in the layout's pair order
    index = safety._pair_index(N)[1]
    pair_i, pair_j = index.T
    table = engine.new_table()
    rng = np.random.default_rng(21)
    for _ in range(50):
        y = rng.standard_normal(engine.D) * 10.0 ** rng.uniform(-3, 3, engine.D)
        with np.errstate(all="ignore"):
            _, _, min_pair, row = engine.step(engine.n_steps, y, table)
        xs = y[x].reshape(N, n)
        diffs = xs[pair_i] - xs[pair_j]
        rec = engine.layout.record(row)
        dist = rec.pair_distance
        assert np.array_equal(dist, np.sqrt(np.vecdot(diffs, diffs)))
        assert min_pair == dist.min()
        _, _, h, *_ = safety._barrier_rows(
            xs, np.zeros((N, engine.B.shape[2])), engine.A, engine.B, index,
            scn.delta, scn.d_s)
        assert np.array_equal(rec.pair_h, h)


@pytest.mark.parametrize("absolute_clock", [False, True])
def test_a_block_takes_each_stage_time_terms_from_its_table(
    paper_scenario, absolute_clock
):
    # a block across the attack onset at 3 s: every stage evaluation gets
    # the time a step forms, k dt, k dt + dt/2 twice and k dt + dt, and the
    # bits of eval_stacked and exp(-c t^2) computed at that time alone
    scn = dataclasses.replace(paper_scenario, absolute_clock=absolute_clock)
    engine = Engine(scn)
    stages = []
    pipeline = engine._pipeline

    def recorded(stage, *args, **kwargs):
        stages.append(stage)
        return pipeline(stage, *args, **kwargs)

    engine._pipeline = recorded
    k0 = 2990
    engine.advance(k0, engine.initial_state(), sim.BLOCK)
    want = []
    for k in range(k0, k0 + sim.BLOCK):
        t = k * scn.dt
        want += [t, t + scn.dt / 2, t + scn.dt / 2, t + scn.dt]
    assert [stage[0] for stage in stages] == want
    assert want[0] < scn.attack_start < want[-1]
    for t, gamma, reg in stages:
        assert np.array_equal(gamma, eval_stacked(
            engine.attack_coeff, engine.attack_rate, scn.attack_start, t,
            absolute_clock))
        assert np.array_equal(reg, np.exp(-engine.c * t * t))


@pytest.mark.parametrize("doc, mode", [
    (None, "saar"), (None, "resilient_unsafe"), (None, "conventional"),
    (_tiny_doc_m2, "saar"),
], ids=["saar", "resilient_unsafe", "conventional", "m2"])
def test_a_workspace_keeps_nothing_of_its_last_evaluation(
    paper_scenario, doc, mode
):
    # an Engine workspace evaluates state A, then B: the derivative and the
    # table row hold the bits of B's evaluation in a fresh workspace, and
    # the gain rates those of the laws at B's own xi and s
    scn = (paper_scenario if doc is None else scenario_from_dict(doc())
           ).with_mode(mode)
    engine = Engine(scn)
    N, n, views = engine.N, engine.n, engine.layout.views
    width = engine.layout.width
    resilient = mode != "conventional"
    ws = engine._workspaces[0]
    rng = np.random.default_rng(22)
    active = 0
    for t in (0.5, 3.5, 9.0):
        stage = _stage(engine, t)
        for spread_a, spread_b in ((0.2, 5.0), (5.0, 0.2), (1.0, 1.0)):
            a = _random_state(engine, rng, spread_a)
            b = _random_state(engine, rng, spread_b)
            engine._pipeline(stage, a, views(np.zeros((1, width))), 0,
                             out=ws)
            row = np.zeros((1, width))
            got = engine._pipeline(stage, b, views(row), 0, out=ws)
            fresh_row = np.zeros((1, width))
            fresh = engine._pipeline(stage, b, views(fresh_row), 0)
            assert np.shares_memory(got, ws.z)
            assert not np.shares_memory(fresh, ws.z)
            assert np.array_equal(got, fresh)
            assert np.array_equal(row, fresh_row)
            active += views(row)["pair_active"].sum()

            _, gamma, reg = stage
            gain = adaptive_gain(b[engine._slices[3].start:], scn.gain_cap)
            _, dtheta = observer_input(
                views(row)["xi"].reshape(N, n), gamma[:, :n], gain[:N],
                engine.q)
            if not resilient:  # the standard observer: theta' = 0
                dtheta = np.zeros(N)
            _, drho = compensation_law(ws.s.reshape(N, -1),
                                       gain[N:], engine.alpha, reg)
            assert np.array_equal(got[engine._slices[3]], dtheta)
            assert np.array_equal(got[engine._slices[4]],
                                  drho if resilient else np.zeros(N))
    # the filter acted in some of the saar evaluations
    assert (active > 0) == (mode == "saar")


def test_rk4_stages_leave_k1_and_the_states_own_their_memory(paper_scenario):
    # a block across the attack onset: each step's k1, evaluated in
    # workspace 0, is unchanged by _rk4's later stages, the step is the
    # RK4 formula on stages evaluated in fresh workspaces, bit for bit, and
    # no state that step or advance returns shares a workspace's memory
    engine = Engine(paper_scenario)
    dt = paper_scenario.dt
    buffers = [ws.z for ws in engine._workspaces] + [engine._stage_state]
    k0 = 2990
    y = engine.initial_state()
    for k in range(k0, k0 + 20):
        first, mid, end = (_stage(engine, k * dt + h)
                           for h in (0.0, dt / 2, dt))
        k1 = engine._pipeline(first, y, out=engine._workspaces[0])
        want_k1 = k1.copy()
        y_before = y.copy()
        y_next = engine._rk4(y, dt, k1, mid, end)
        assert np.array_equal(k1, want_k1)
        assert np.array_equal(y, y_before)

        f1 = engine._pipeline(first, y)
        f2 = engine._pipeline(mid, y + (dt / 2) * f1)
        f3 = engine._pipeline(mid, y + (dt / 2) * f2)
        f4 = engine._pipeline(end, y + dt * f3)
        assert np.array_equal(
            y_next, y + (dt / 6) * (f1 + 2 * f2 + 2 * f3 + f4))
        assert not any(np.shares_memory(y_next, b) for b in buffers)
        y = y_next

    table = engine.new_table()
    stepped, *_ = engine.step(k0 + 20, y, table)
    advanced, *_ = engine.advance(k0 + 20, y, 5, table)
    for state in (stepped, advanced):
        assert not any(np.shares_memory(state, b) for b in buffers)
        assert not any(np.shares_memory(state, b) for b in (table, y))


@pytest.mark.parametrize("copies", [1, 4], ids=["N4", "N16"])
def test_dot_into_a_workspace_keeps_the_bits_of_matmul(paper_scenario,
                                                       copies):
    # _pipeline takes L y and B u from ndarray.dot, which skips matmul's
    # dispatch; both reach the same BLAS gemv.  A numpy or BLAS whose two
    # paths round otherwise fails here, not as drift in the traces
    scn = (paper_scenario if copies == 1
           else scenario_from_dict(_copies_doc(copies)))
    engine = Engine(scn)
    assert engine.N == 4 * copies
    ws = engine._workspace()
    rng = np.random.default_rng(23)
    for _ in range(2000):
        y = rng.standard_normal(engine.D) * 10.0 ** rng.uniform(
            -3, 3, engine.D)
        u = rng.standard_normal(engine.B_diag.shape[1]) * 10.0 ** (
            rng.uniform(-3, 3, engine.B_diag.shape[1]))
        engine.L.dot(y, out=ws.z)
        assert np.array_equal(ws.z, engine.L @ y)
        assert np.array_equal(engine.B_diag.dot(u), engine.B_diag @ u)


def test_a_run_evaluates_the_attacks_once_per_block(paper_scenario,
                                                    monkeypatch):
    scn = dataclasses.replace(paper_scenario, horizon=0.2)
    calls = []

    def counted(*args):
        calls.append(args[3])
        return eval_stacked(*args)

    monkeypatch.setattr(sim, "eval_stacked", counted)
    sim.run(scn)
    assert len(calls) == -(-201 // sim.BLOCK) == 7
    assert [times.shape for times in calls] == (
        [(sim.BLOCK, 3)] * 6 + [(201 - 6 * sim.BLOCK, 3)])


def _stepped(scn):
    """The engine, table and per-step containment-error norms and least
    pair distances of a run stepped by hand through ``Engine.step``."""
    engine = Engine(scn)
    table = engine.new_table()
    y = engine.initial_state()
    norms, mins = [], []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(engine.n_steps + 1):
            y, ec_norm, min_pair, _ = engine.step(k, y, table)
            norms.append(ec_norm)
            mins.append(min_pair)
    return engine, table, np.array(norms), np.array(mins)


def _first_divergence(norms, scn):
    """The per-step rule: the time of the first step k > 0 whose error
    norm exceeds the threshold."""
    for k in range(1, len(norms)):
        if norms[k] > scn.divergence_threshold:
            return k * scn.dt
    return None


# long enough for the filter to act on paper_sec4
N_STEPS = 300


@pytest.mark.parametrize("mode, stride", [
    ("saar", 7), ("resilient_unsafe", 7), ("conventional", 7),
    # a stride longer than a block leaves some blocks unsampled
    ("conventional", 2 * sim.BLOCK + 4),
])
def test_run_matches_stepping_by_hand(paper_scenario, mode, stride):
    # more than two blocks of steps, not a whole number of them, and a
    # last step that is sampled only for being the last
    assert N_STEPS + 1 > 2 * sim.BLOCK and (N_STEPS + 1) % sim.BLOCK
    assert N_STEPS % stride
    scn = dataclasses.replace(
        paper_scenario.with_mode(mode), output_stride=stride,
        horizon=N_STEPS * paper_scenario.dt)
    engine, table, norms, mins = _stepped(scn)
    if mode == "saar":
        assert engine.filter_intervention_count > 0
        assert engine.layout.views(table)["pair_active"].any()
    # only step 0 lies above this threshold, and it does not count
    threshold = (norms[0] + norms[1:].max()) / 2
    assert norms[0] > threshold
    for scn in (scn, dataclasses.replace(scn, divergence_threshold=threshold)):
        result = sim.run(scn)
        assert result.table.shape == table.shape
        assert np.array_equal(result.table, table)
        final = result.layout.record(result.table[-1])
        assert final.t == N_STEPS * scn.dt
        got = dict(result.summary)
        del got["wall_clock_s"]
        assert got == {
            "scenario": scn.name, "mode": mode, "horizon": scn.horizon,
            "dt": scn.dt, "max_ec": norms.max(),
            "max_ec_tail": norms[int(len(norms) * 0.7):].max(),
            "final_ec": norms[-1], "min_pair_distance": mins.min(),
            "first_divergence_time": _first_divergence(norms, scn),
            "final_theta": list(final.theta),
            "final_rho_hat": list(final.rho_hat),
            "qp_infeasible_count": engine.qp_infeasible_count,
            "filter_intervention_count": engine.filter_intervention_count,
            "first_infeasible_time": engine.first_infeasible_time,
        }
        assert got["first_divergence_time"] is None


def test_a_stride_past_the_horizon_samples_the_first_and_last_steps(
    paper_scenario,
):
    # up to the largest valid stride, one below 2**63
    scn = dataclasses.replace(paper_scenario.with_mode("conventional"),
                              horizon=10 * paper_scenario.dt)
    short, longest = (sim.run(dataclasses.replace(scn, output_stride=stride))
                      for stride in (10, 2**63 - 1))
    assert len(short.table) == 2
    assert np.array_equal(short.table, longest.table)


def test_a_filtered_blow_up_inside_a_block_names_its_first_time(monkeypatch):
    # saar over the two-follower document at dt = 0.022 overflows at step
    # 309, inside a block, as before states were checked a block at once
    doc = _tiny_doc()
    doc["horizon"], doc["dt"] = 8.8, 0.022
    scn = scenario_from_dict(doc)
    assert 0 < 309 % sim.BLOCK < sim.BLOCK - 1
    with pytest.raises(SimulationError, match=r"^non-finite state at "
                       r"t=6\.798000$"):
        sim.run(scn)

    # a solver that fails on the NaN states of the steps after it in the
    # block still leaves the blow-up as the cause.  The step that blows up
    # starts from a finite state, so at most its last three stages see NaN.
    nan_calls = []

    def failing(u_bars, states, *args):
        if np.isnan(states).any():
            nan_calls.append(len(nan_calls))
            if len(nan_calls) > 3:
                raise np.linalg.LinAlgError("Singular matrix")
        return sequential_filter(u_bars, states, *args)

    monkeypatch.setattr(safety, "sequential_filter", failing)
    with pytest.raises(SimulationError, match=r"t=6\.798000$"):
        sim.run(scn)
    assert len(nan_calls) == 4


def test_a_blow_up_inside_a_block_and_a_divergence_read_from_the_norms():
    # dt = 0.022 is past RK4's stability limit for the two-follower
    # document's gains: the error swings ever wider and, by 7 s, overflows
    doc = _tiny_doc()
    doc["horizon"], doc["dt"] = 8.8, 0.022
    scn = scenario_from_dict(doc).with_mode("resilient_unsafe")
    engine = Engine(scn)
    y = engine.initial_state()
    with pytest.raises(SimulationError) as stepped, np.errstate(all="ignore"):
        for k in range(engine.n_steps + 1):
            y = engine.step(k, y)[0]
    assert k > sim.BLOCK and 0 < k % sim.BLOCK < sim.BLOCK - 1
    assert str(stepped.value) == f"non-finite state at t={(k + 1) * scn.dt:.6f}"
    with pytest.raises(SimulationError) as ran:
        sim.run(scn)
    assert str(ran.value) == str(stepped.value)

    # before the blow-up, the first crossing read from the run's norm array
    # is the per-step rule's, wherever it falls
    scn = dataclasses.replace(scn, horizon=k * scn.dt)
    _, _, norms, _ = _stepped(scn)
    crossings = set()
    for at in (3, sim.BLOCK + 5, len(norms) - 2):
        scn = dataclasses.replace(scn, divergence_threshold=norms[at] * 0.999)
        want = _first_divergence(norms, scn)
        assert sim.run(scn).summary["first_divergence_time"] == want
        crossings.add(round(want / scn.dt) // sim.BLOCK)
    assert len(crossings) > 1

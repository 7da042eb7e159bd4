from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import cbf_value
from safe_containment import safety
from safe_containment.safety import (
    AgentRows,
    PairConstraint,
    QPInfeasibleError,
    build_constraint,
    sequential_filter,
    solve_agent_qp,
)
from safe_containment.scenario import load_scenario
from safe_containment.sim import Engine


def _plant(a, b):
    return SimpleNamespace(A=np.asarray(a, float), B=np.asarray(b, float))


def _stack(models):
    """The models' A and B, stacked as ``sequential_filter`` takes them."""
    return np.stack([m.A for m in models]), np.stack([m.B for m in models])


def test_cbf_value_examples():
    assert cbf_value([0.3, 0, 0], [0.0, 0, 0], 0.3) == pytest.approx(0.0)
    assert cbf_value([1.0, 0, 0], [0.0, 0, 0], 0.3) == pytest.approx(-0.91)
    assert cbf_value([1.0, 2, 3], [1.0, 2, 3], 0.3) == pytest.approx(0.09)
    with pytest.raises(ValueError):
        cbf_value([1.0], [0.0], 0.0)


def test_build_constraint_hand_oracle():
    models = [_plant(np.zeros((3, 3)), np.eye(3))] * 2
    states = np.array([[1.0, 0, 0], [0.0, 0, 0]])
    c = build_constraint(0, 1, states, models, np.zeros(3), 1.0, 0.3)
    assert c.a == pytest.approx([-2.0, 0.0, 0.0])
    assert c.b == pytest.approx(0.91)
    assert c.h == pytest.approx(-0.91)
    assert c.pair == (0, 1)


def test_engine_models_give_build_constraint_the_filter_rows(monkeypatch):
    # the benchmark builds agent 1's rows as
    # build_constraint(1, j, x, Engine(scenario).models, u_j, 5.0, 0.3)
    engine = Engine(load_scenario("paper_sec4"))
    x = np.array([[5.0, 5, 5], [0, 0, 0], [0.2, 0, 0], [0, 0.2, 0]])
    u_bars = np.array([[0.0, 0, 0], [10, 10, 0], [-1, 0, 0], [0, -1, 0]])
    rows = {}

    def recorded(u_bar, constraints):
        rows[constraints.pairs[0][0]] = constraints
        return solve_agent_qp(u_bar, constraints)

    monkeypatch.setattr(safety, "solve_agent_qp", recorded)
    results = sequential_filter(u_bars, x, engine.A, engine.B, 5.0, 0.3)
    assert [j for _, j in rows[1].pairs] == [2, 3]
    for a, b, (_, j) in zip(rows[1].a, rows[1].b, rows[1].pairs):
        con = build_constraint(1, j, x, engine.models, results[j].u, 5.0, 0.3)
        assert np.array_equal(con.a, a)
        assert con.b == b


def _analytic_hdot(states, models, u_i, u_j):
    r = states[0] - states[1]
    return -2.0 * r @ (
        models[0].A @ states[0] + models[0].B @ u_i
        - models[1].A @ states[1] - models[1].B @ u_j
    )


def test_equality_case_gives_exact_decay_rate():
    rng = np.random.default_rng(17)
    for _ in range(20):
        models = [
            _plant(rng.standard_normal((3, 3)), rng.standard_normal((3, 3))),
            _plant(rng.standard_normal((3, 3)), rng.standard_normal((3, 3))),
        ]
        states = rng.standard_normal((2, 3))
        u_j = rng.standard_normal(3)
        delta = rng.uniform(0.5, 8.0)
        c = build_constraint(0, 1, states, models, u_j, delta, 0.3)
        # pick u_i on the constraint boundary
        u_i = c.a * (c.b / (c.a @ c.a))
        hdot = _analytic_hdot(states, models, u_i, u_j)
        assert hdot == pytest.approx(-delta * c.h, rel=1e-9, abs=1e-9)


def test_constraint_matches_finite_difference_hdot():
    rng = np.random.default_rng(23)
    models = [
        _plant(rng.standard_normal((3, 3)), rng.standard_normal((3, 3))),
        _plant(rng.standard_normal((3, 3)), rng.standard_normal((3, 3))),
    ]
    states = rng.standard_normal((2, 3))
    u_i = rng.standard_normal(3)
    u_j = rng.standard_normal(3)
    analytic = _analytic_hdot(states, models, u_i, u_j)

    def h_at(s):
        # propagate both agents with constant inputs for time s
        from scipy.linalg import expm

        xs = []
        for k, u in ((0, u_i), (1, u_j)):
            big = np.zeros((4, 4))
            big[:3, :3] = models[k].A
            big[:3, 3] = models[k].B @ u
            prop = expm(big * s)
            aug = np.append(states[k], 1.0)
            xs.append((prop @ aug)[:3])
        return cbf_value(xs[0], xs[1], 0.3)

    step = 1e-4
    fd = (h_at(step) - h_at(-step)) / (2 * step)
    assert fd == pytest.approx(analytic, abs=1e-5 * max(1.0, abs(analytic)))


def _constraint(a, b):
    return PairConstraint(
        i=0, j=1, a=np.asarray(a, float), b=float(b), delta=1.0, h=0.0
    )


def _rows(constraints):
    """The AgentRows of a list of PairConstraint, in list order."""
    return AgentRows(
        a=np.array([c.a for c in constraints], dtype=float),
        b=np.array([c.b for c in constraints], dtype=float),
        pairs=[c.pair for c in constraints],
    )


def test_qp_no_constraints_returns_request():
    u_bar = np.array([1.0, -2.0, 0.5])
    res = solve_agent_qp(u_bar, _rows([]))
    assert np.array_equal(res.u, u_bar)
    assert np.array_equal(res.delta_u, np.zeros(3))
    assert res.active_set == []


def test_qp_satisfied_constraints_inactive():
    u_bar = np.array([0.0, 0.0])
    res = solve_agent_qp(u_bar, _rows([_constraint([1.0, 0.0], 5.0)]))
    assert np.array_equal(res.u, u_bar)
    assert res.active_set == []


def test_qp_single_violated_is_halfspace_projection():
    rng = np.random.default_rng(29)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        u_bar = rng.standard_normal(m)
        a = rng.standard_normal(m)
        b = a @ u_bar - rng.uniform(0.1, 3.0)  # guaranteed violated
        res = solve_agent_qp(u_bar, _rows([_constraint(a, b)]))
        expected = u_bar - ((a @ u_bar - b) / (a @ a)) * a
        assert res.u == pytest.approx(expected, abs=1e-12)
        assert res.active_set == [(0, 1)]
        assert oracles.kkt_residual(res.u, u_bar, [a], [b]) <= 1e-9


def test_qp_two_orthogonal_constraints():
    u_bar = np.array([2.0, 2.0])
    cons = [_constraint([1.0, 0.0], 1.0), _constraint([0.0, 1.0], 0.5)]
    res = solve_agent_qp(u_bar, _rows(cons))
    assert res.u == pytest.approx([1.0, 0.5], abs=1e-12)
    rows = np.array([c.a for c in cons])
    rhs = np.array([c.b for c in cons])
    oracle_u, _ = oracles.qp_enumeration(u_bar, rows, rhs)
    assert res.u == pytest.approx(oracle_u, abs=1e-10)


def test_qp_infeasible_antagonistic_constraints():
    u_bar = np.zeros(3)
    cons = [
        _constraint([1.0, 0, 0], -5.0),
        _constraint([-1.0, 0, 0], -5.0),
    ]
    with pytest.raises(QPInfeasibleError) as err:
        solve_agent_qp(u_bar, _rows(cons))
    assert (0, 1) in err.value.pairs


def test_qp_degenerate_zero_row():
    u_bar = np.array([1.0])
    ok = solve_agent_qp(u_bar, _rows([_constraint([0.0], 1.0)]))
    assert np.array_equal(ok.u, u_bar)
    with pytest.raises(QPInfeasibleError):
        solve_agent_qp(u_bar, _rows([_constraint([0.0], -1.0)]))


def test_the_qp_one_row_step_is_lapacks_division():
    # solve_agent_qp takes the step of a one-row active set as
    # -(n c) / (n n), the quotient a 1x1 np.linalg.solve returns; a numpy
    # or LAPACK whose 1x1 solve rounds otherwise fails here, not as drift
    # in the replayed steps
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        n_mat, cp = rng.standard_normal((2, 1, 3)) * 10.0 ** rng.uniform(
            -3, 3, (2, 1, 3))
        nc, nn = n_mat @ cp[0], n_mat @ n_mat.T
        assert np.array_equal(np.linalg.solve(nn, nc), nc / nn[0])


def test_qp_minimality_against_random_feasible_points():
    rng = np.random.default_rng(31)
    instances = 0
    while instances < 20:
        m = int(rng.integers(2, 4))
        u_bar = rng.standard_normal(m)
        k = int(rng.integers(1, 4))
        rows = rng.standard_normal((k, m))
        rhs = rng.standard_normal(k)
        cons = [_constraint(rows[idx], rhs[idx]) for idx in range(k)]
        oracle = oracles.qp_enumeration(u_bar, rows, rhs)
        if oracle is None:
            continue
        res = solve_agent_qp(u_bar, _rows(cons))
        cost = np.linalg.norm(res.u - u_bar)
        feasible = 0
        while feasible < 1000:
            v = res.u + rng.standard_normal(m) * rng.uniform(0.01, 3.0)
            if np.all(rows @ v - rhs <= 0):
                feasible += 1
                assert np.linalg.norm(v - u_bar) >= cost - 1e-9
        instances += 1


def test_sequential_filter_inactive_when_far_apart():
    models = [_plant(np.zeros((3, 3)), np.eye(3))] * 3
    states = np.array([[0.0, 0, 0], [10.0, 0, 0], [0.0, 10, 0]])
    u_bars = 0.01 * np.ones((3, 3))
    results = sequential_filter(u_bars, states, *_stack(models), 5.0, 0.3)
    for k, res in enumerate(results):
        assert np.array_equal(res.u, u_bars[k])
        assert res.active_set == []


def test_sequential_filter_head_on_deflects_lower_agent():
    models = [_plant(np.zeros((3, 3)), np.eye(3))] * 2
    states = np.array([[0.2, 0, 0], [-0.2, 0, 0]])
    u_bars = np.array([[-5.0, 0, 0], [5.0, 0, 0]])  # closing fast
    delta = 5.0
    results = sequential_filter(u_bars, states, *_stack(models), delta, 0.3)
    assert np.array_equal(results[1].u, u_bars[1])  # last agent untouched
    assert not np.array_equal(results[0].u, u_bars[0])
    hdot = _analytic_hdot(states, models, results[0].u, results[1].u)
    h = cbf_value(states[0], states[1], 0.3)
    assert hdot <= -delta * h + 1e-9


def _spy_on_qp(monkeypatch, returned=None):
    """The pairs of every solve_agent_qp call the filter makes, in order;
    ``returned``, if given, collects what each call returns."""
    seen = []
    original = safety.solve_agent_qp

    def spy(u_bar, constraints, *args, **kwargs):
        seen.append(list(constraints.pairs))
        assert len(constraints) == len(constraints.pairs)
        result = original(u_bar, constraints, *args, **kwargs)
        if returned is not None:
            returned.append(result)
        return result

    monkeypatch.setattr(safety, "solve_agent_qp", spy)
    return seen


def test_sequential_filter_pair_enumeration_order(
    paper_engine, monkeypatch
):
    # row order decides argmax ties in the QP, so it is part of the output;
    # the followers sit inside d_s and close on the centre, so every
    # agent's rows bind and every agent below the last solves its QP
    seen = _spy_on_qp(monkeypatch)
    states = 0.05 * np.array(
        [[2.0, 0, 0], [0.0, 2, 0], [-2.0, 0, 0], [0.0, -2, 0]]
    )
    u_bars = -200.0 * states  # speed 20 towards the centre
    sequential_filter(
        u_bars, states, paper_engine.A, paper_engine.B, 5.0, 0.3
    )
    assert seen == [
        [(2, 3)],
        [(1, 2), (1, 3)],
        [(0, 1), (0, 2), (0, 3)],
    ]
    assert all(type(k) is int for rows in seen for pair in rows for k in pair)


def test_screen_skips_the_qp_of_every_agent_it_certifies(monkeypatch):
    seen = _spy_on_qp(monkeypatch)
    a_mats, b_mats = _stack([_plant(np.zeros((3, 3)), np.eye(3))] * 4)
    far = np.array([[2.0, 0, 0], [0.0, 2, 0], [-2.0, 0, 0], [0.0, -2, 0]])
    u_bars = np.zeros((4, 3))
    results = sequential_filter(u_bars, far, a_mats, b_mats, 5.0, 0.3)
    assert seen == []
    for res, u_bar in zip(results, u_bars):
        assert np.array_equal(res.u, u_bar) and res.u is not u_bar
        assert res.active_set == []

    # followers 1 and 2 head-on, 0 and 3 far away: only agent 1's QP
    # runs, and agent 0's row on agent 1's new input stays certified
    states = np.array([[5.0, 5, 0], [0.2, 0, 0], [-0.2, 0, 0], [-5.0, 5, 0]])
    u_bars[1], u_bars[2] = [-5.0, 0, 0], [5.0, 0, 0]
    results = sequential_filter(u_bars, states, a_mats, b_mats, 5.0, 0.3)
    assert seen == [[(1, 2), (1, 3)]]
    assert results[1].active_set == [(1, 2)]
    for k in (0, 2, 3):
        assert np.array_equal(results[k].u, u_bars[k])


def _reference_sweep(u_bars, states, models, delta, d_s):
    """The filter pair by pair: build_constraint on each finalized u_j,
    then solve_agent_qp on the agent's constraints stacked in pair order."""
    n = len(u_bars)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), (n, n))
    results = [None] * n
    u_last = u_bars[-1].copy()
    results[-1] = safety.FilterResult(u=u_last, delta_u=np.zeros_like(u_last))
    for i in range(n - 2, -1, -1):
        cons = [
            build_constraint(i, j, states, models, results[j].u, delta[i, j], d_s)
            for j in range(i + 1, n)
        ]
        try:
            results[i] = solve_agent_qp(u_bars[i], _rows(cons))
        except QPInfeasibleError as err:
            err.agent = i
            raise
    return results


def _random_plants(rng, n):
    return [
        _plant(
            rng.standard_normal((3, 3)),
            rng.standard_normal((3, 3)) + 2.0 * np.eye(3),
        )
        for _ in range(n)
    ]


def test_stacked_filter_matches_pairwise_reference():
    rng = np.random.default_rng(41)
    d_s = 0.3
    for n in (2, 4, 16):
        active_rows = 0
        for trial in range(30):
            models = _random_plants(rng, n)
            # the tighter the box, the more pairs sit near d_s
            states = rng.uniform(-1.0, 1.0, (n, 3)) * rng.uniform(0.2, 2.0)
            u_bars = rng.standard_normal((n, 3)) * rng.uniform(0.5, 20.0)
            delta = (
                rng.uniform(0.5, 8.0)
                if trial % 2
                else rng.uniform(0.5, 8.0, (n, n))
            )
            try:
                expected = _reference_sweep(u_bars, states, models, delta, d_s)
            except QPInfeasibleError:
                continue
            got = sequential_filter(u_bars, states, *_stack(models), delta, d_s)
            for res, ref in zip(got, expected):
                assert np.array_equal(res.u, ref.u)
                assert np.array_equal(res.delta_u, ref.delta_u)
                assert res.active_set == ref.active_set
                active_rows += len(res.active_set)
        assert active_rows > 0, n


def _nudge_to_the_tolerance(rng, u_bars, states, models, delta, d_s):
    """u_bars with one row of each agent below the last moved onto its QP
    fast-path boundary a u - b = QP_TOL max(1, |b|), then a few ulps of
    one component to either side, top agent first so that each agent's
    rows hold the inputs the sweep finalizes above it.  Returns the inputs
    and, per nudged row, its violation minus that bound as solve_agent_qp
    computes them; it stops nudging at an agent whose QP is infeasible."""
    n = len(u_bars)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), (n, n))
    u_bars = u_bars.copy()
    final = {n - 1: u_bars[-1]}
    offsets = []
    for i in range(n - 2, -1, -1):
        rows = _rows([
            build_constraint(i, j, states, models, final[j], delta[i, j], d_s)
            for j in range(i + 1, n)
        ])
        k = int(rng.integers(len(rows)))
        a, b = rows.a[k], rows.b[k]
        bound = safety.QP_TOL * max(1.0, abs(b))
        u = u_bars[i] - ((a @ u_bars[i] - b - bound) / (a @ a)) * a
        c = int(np.argmax(np.abs(a)))
        steps = int(rng.integers(-3, 4))
        for _ in range(abs(steps)):
            u[c] = np.nextafter(u[c], np.copysign(np.inf, a[c] * steps))
        u_bars[i] = u
        offsets.append(float((rows.a @ u - rows.b)[k]) - bound)
        try:
            final[i] = solve_agent_qp(u, rows).u
        except QPInfeasibleError:
            break
    return u_bars, offsets


def test_screen_matches_the_reference_at_the_tolerance_boundary():
    # inputs range up to about 1e6, as exponential attacks reach; rows a
    # few ulps either side of the QP's tolerance show whether the screen's
    # row test keeps the outputs those of the exact sweep
    rng = np.random.default_rng(47)
    d_s = 0.3
    offsets = []
    infeasible = 0
    for n in (2, 4, 16):
        for trial in range(24):
            models = _random_plants(rng, n)
            states = rng.uniform(-1.0, 1.0, (n, 3)) * rng.uniform(0.2, 2.0)
            u_bars = rng.standard_normal((n, 3)) * 10.0 ** (2 * (trial % 4))
            delta = (
                rng.uniform(0.5, 8.0)
                if trial % 2
                else rng.uniform(0.5, 8.0, (n, n))
            )
            u_bars, near = _nudge_to_the_tolerance(
                rng, u_bars, states, models, delta, d_s
            )
            offsets += near
            args = (u_bars, states, *_stack(models), delta, d_s)
            try:
                expected = _reference_sweep(u_bars, states, models, delta, d_s)
            except QPInfeasibleError as ref:
                infeasible += 1
                with pytest.raises(QPInfeasibleError) as err:
                    sequential_filter(*args)
                assert err.value.agent == ref.agent
                assert err.value.pairs == ref.pairs
                continue
            got = sequential_filter(*args)
            for res, ref in zip(got, expected):
                assert np.array_equal(res.u, ref.u)
                assert np.array_equal(res.delta_u, ref.delta_u)
                assert res.active_set == ref.active_set
    offsets = np.array(offsets)
    # rows on both sides of the bound, and infeasible sweeps as well
    assert np.sum(offsets <= 0) > 50 and np.sum(offsets > 0) > 50
    assert infeasible > 0


def test_the_filter_calls_the_qp_only_where_it_moves_the_input(monkeypatch):
    # the screen runs the QP's first test on the QP's own products, so no
    # QP call returns u_bar unchanged, even on rows at the tolerance
    returned = []
    _spy_on_qp(monkeypatch, returned)
    rng = np.random.default_rng(47)
    d_s = 0.3
    for n in (2, 4, 16):
        for trial in range(24):
            models = _random_plants(rng, n)
            states = rng.uniform(-1.0, 1.0, (n, 3)) * rng.uniform(0.2, 2.0)
            u_bars = rng.standard_normal((n, 3)) * 10.0 ** (2 * (trial % 4))
            delta = (
                rng.uniform(0.5, 8.0)
                if trial % 2
                else rng.uniform(0.5, 8.0, (n, n))
            )
            u_bars, _ = _nudge_to_the_tolerance(
                rng, u_bars, states, models, delta, d_s
            )
            try:
                sequential_filter(u_bars, states, *_stack(models), delta, d_s)
            except QPInfeasibleError:
                pass
    unchanged = sum(not res.active_set for res in returned)
    assert len(returned) > 300
    assert unchanged == 0, f"{unchanged} of {len(returned)} calls kept u_bar"


def test_stacked_filter_reports_the_reference_infeasibility():
    rng = np.random.default_rng(43)
    models = _random_plants(rng, 4)
    models[1] = _plant(models[1].A, np.zeros((3, 3)))  # no input authority
    states = rng.uniform(-5.0, 5.0, (4, 3))
    states[3] = states[1] + 0.1  # inside d_s of agent 1, which cannot act
    u_bars = rng.standard_normal((4, 3))
    with pytest.raises(QPInfeasibleError) as ref:
        _reference_sweep(u_bars, states, models, 5.0, 0.3)
    with pytest.raises(QPInfeasibleError) as err:
        sequential_filter(u_bars, states, *_stack(models), 5.0, 0.3)
    assert err.value.agent == ref.value.agent == 1
    assert err.value.pairs == ref.value.pairs
    assert (1, 3) in err.value.pairs
    assert all(type(k) is int for pair in err.value.pairs for k in pair)


def test_sequential_filter_propagates_agent_index():
    models = [_plant(np.zeros((1, 1)), np.zeros((1, 1)))] * 2
    # coincident agents with zero input authority: h > 0 and a = 0
    states = np.array([[0.0], [0.0]])
    with pytest.raises(QPInfeasibleError) as err:
        sequential_filter(np.zeros((2, 1)), states, *_stack(models), 5.0, 0.3)
    assert err.value.agent == 0


def test_two_agent_forward_invariance_deterministic():
    models = [
        _plant(-np.eye(3), np.eye(3)),
        _plant(-0.5 * np.eye(3), np.eye(3)),
    ]
    x = np.array([[0.5, 0, 0], [-0.5, 0, 0]])
    dt = 1e-3
    d_s = 0.3
    worst_h = -np.inf
    for k in range(1500):
        def rate(xs):
            u_bars = np.stack([3.0 * (xs[1] - xs[0]), 3.0 * (xs[0] - xs[1])])
            res = sequential_filter(u_bars, xs, *_stack(models), 5.0, d_s)
            return np.stack(
                [models[i].A @ xs[i] + models[i].B @ res[i].u
                 for i in range(2)]
            )

        k1 = rate(x)
        k2 = rate(x + dt / 2 * k1)
        k3 = rate(x + dt / 2 * k2)
        k4 = rate(x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        worst_h = max(worst_h, cbf_value(x[0], x[1], d_s))
    assert worst_h <= 1e-3
    # the attraction is strong enough that the barrier actually engages
    assert worst_h > -0.02

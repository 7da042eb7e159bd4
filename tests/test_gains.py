import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from oracles import charpoly_eigenvalues
from safe_containment import gains
from safe_containment.gains import (
    CARE_TOL,
    REGULATOR_TOL,
    GainSynthesisError,
    care_residual,
    leader_problems,
    model_problems,
    solve_care,
    solve_regulator,
    synthesize_gains,
)


def _model(f):
    """A follower's (A, B, Q, U), as the solvers take them."""
    return f.A, f.B, f.Q, f.U


def test_regulator_identity_input_matrix(paper_scenario):
    f, S = paper_scenario.followers[0], paper_scenario.S
    pi = solve_regulator(f.A, f.B, S)
    assert pi == pytest.approx(S - f.A, abs=1e-12)


def test_regulator_invertible_input_matrix(paper_scenario):
    f, S = paper_scenario.followers[1], paper_scenario.S
    pi = solve_regulator(f.A, f.B, S)
    oracle = np.linalg.inv(f.B) @ (S - f.A)
    assert pi == pytest.approx(oracle, abs=1e-10)
    res = np.linalg.norm(S - f.A - f.B @ pi)
    assert res <= REGULATOR_TOL


def test_regulator_unsolvable_zero_input_matrix(paper_scenario):
    # B = 0 cannot satisfy the matching condition; it is already rejected
    # as uncontrollable before either equation is solved
    with pytest.raises(GainSynthesisError):
        synthesize_gains(
            A=paper_scenario.followers[0].A,
            B=np.zeros((3, 3)),
            Q=np.eye(3),
            U=np.eye(3),
            S=paper_scenario.S,
        )


def test_care_scalar_quadratic_formula():
    # -2p + 3 - p^2 = 0 with p > 0 gives p = 1
    A, B, Q, U = (np.array([[v]]) for v in (-1.0, 1.0, 3.0, 1.0))
    p = solve_care(A, B, Q, U)
    assert p == pytest.approx(np.array([[1.0]]), abs=1e-10)


@pytest.mark.parametrize("A, B, Q, match", [
    # the initial gain's Lyapunov equation overflows: scipy's ValueError
    (np.eye(2), 1e300 * np.eye(2), np.eye(2), "must not contain infs"),
    # the first iterate's residual overflows to inf, or to nan
    (-np.eye(2), np.eye(2), 1e300 * np.eye(2), "final residual inf"),
    (-np.eye(2), 1e300 * np.eye(2), np.eye(2), "final residual nan"),
], ids=["lyapunov", "inf", "nan"])
def test_care_reports_an_overflow_as_a_synthesis_error(A, B, Q, match):
    with pytest.raises(GainSynthesisError, match=match):
        solve_care(A, B, Q, np.eye(2))


def test_care_paper_follower_one(paper_scenario):
    f = paper_scenario.followers[0]
    p = solve_care(*_model(f))
    assert p == pytest.approx(p.T, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(p)) > 0
    assert care_residual(*_model(f), p) <= CARE_TOL
    k = -np.linalg.solve(f.U, f.B.T @ p)
    eigs = charpoly_eigenvalues(f.A + f.B @ k)
    assert np.all(eigs.real < 0)


def test_synthesize_scalar_identity_toy():
    g = synthesize_gains(A=[[0.0]], B=[[1.0]], Q=[[1.0]], U=[[1.0]], S=[[0.0]])
    assert g.P == pytest.approx(np.array([[1.0]]), abs=1e-10)
    assert g.K == pytest.approx(np.array([[-1.0]]), abs=1e-10)
    assert g.Pi == pytest.approx(np.array([[0.0]]), abs=1e-12)
    assert g.H == pytest.approx(np.array([[1.0]]), abs=1e-10)


def test_synthesized_gains_are_read_only(paper_scenario):
    # followers that share a model share its GainSet: no caller may
    # change one follower's gains through another
    f = paper_scenario.followers[0]
    for gainset in (synthesize_gains(*_model(f), paper_scenario.S),
                    paper_scenario.gain_sets[0]):
        for name in ("P", "K", "H", "Pi"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(gainset, name)[0, 0] = 0.0


def test_feedforward_split_identity(paper_scenario):
    f = paper_scenario.followers[2]
    g = synthesize_gains(*_model(f), paper_scenario.S)
    assert np.array_equal(g.H + g.K, g.Pi)


def test_follower_four_closed_loop_hurwitz(paper_scenario):
    f = paper_scenario.followers[3]
    g = synthesize_gains(*_model(f), paper_scenario.S)
    eigs = charpoly_eigenvalues(f.A + f.B @ g.K)
    assert np.all(eigs.real < 0)


def test_leader_check_paper_matrix(paper_scenario):
    assert leader_problems(paper_scenario.S) == []
    def by_imag(vals):
        vals = np.asarray(vals)
        return vals[np.argsort(vals.imag)]

    expected = by_imag([0.0, 1j * np.sqrt(6.0), -1j * np.sqrt(6.0)])
    eigs = by_imag(charpoly_eigenvalues(paper_scenario.S))
    assert eigs == pytest.approx(expected, abs=1e-10)
    # the eigenvalues leader_problems examines
    got = by_imag(np.linalg.eigvals(paper_scenario.S))
    assert got == pytest.approx(expected, abs=1e-10)


def test_leader_check_unstable_fails():
    problems = leader_problems(np.eye(2))
    assert problems
    assert any("positive real part" in r for r in problems)


def test_leader_check_repeated_axis_eigenvalue_fails():
    problems = leader_problems(np.zeros((2, 2)))
    assert problems
    assert any("repeated" in r for r in problems)


def _symmetry_edge():
    """The largest q for which np.allclose(atol=1e-12) calls
    [[1, q], [0.5, 1]] symmetric, and the float above it, which it does
    not."""
    def symmetric(q):
        mat = np.array([[1, q], [0.5, 1]])
        return np.allclose(mat, mat.T, atol=1e-12)

    q = 0.5 + (1e-12 + 1e-5 * 0.5)
    while not symmetric(q):
        q = np.nextafter(q, 0.0)
    while symmetric(np.nextafter(q, 1.0)):
        q = np.nextafter(q, 1.0)
    return q, np.nextafter(q, 1.0)


def test_model_validation():
    S = np.zeros((2, 2))
    with pytest.raises(GainSynthesisError, match="symmetric"):
        synthesize_gains(A=np.eye(2), B=np.eye(2),
                         Q=np.array([[1.0, 1], [0, 1]]), U=np.eye(2), S=S)
    with pytest.raises(GainSynthesisError, match="positive definite"):
        synthesize_gains(A=np.eye(2), B=np.eye(2), Q=-np.eye(2), U=np.eye(2),
                         S=S)
    with pytest.raises(GainSynthesisError, match="controllable"):
        synthesize_gains(
            A=np.diag([1.0, 2.0]), B=np.array([[1.0], [0.0]]),
            Q=np.eye(2), U=np.eye(1), S=S,
        )
    # the symmetry check is np.allclose(mat, mat.T, atol=1e-12) written
    # out: the same verdict just inside and just outside its tolerance,
    # for Q and U, with the asymmetry above or below the diagonal
    inside, outside = _symmetry_edge()
    for q, symmetric in ((inside, True), (outside, False)):
        for mat in (np.array([[1, q], [0.5, 1]]), np.array([[1, 0.5], [q, 1]])):
            assert np.allclose(mat, mat.T, atol=1e-12) == symmetric
            for name in "QU":
                model = dict(A=np.eye(2), B=np.eye(2), Q=np.eye(2), U=np.eye(2))
                model[name] = mat
                assert model_problems(**model) == (
                    [] if symmetric else [f"{name} must be symmetric"])


def test_the_lyapunov_solve_is_scipys_bit_for_bit():
    # seeded draws, n from 1 to 8, entries spread over 1e-3 to 1e3, half
    # of them with A a transposed view, as solve_care passes it
    rng = np.random.default_rng(29)
    for i in range(2000):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        q = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        if i % 2:
            a = a.T
        expected = solve_continuous_lyapunov(a, q)
        got = gains._lyapunov(a, q)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("where", ["a", "q"])
def test_the_lyapunov_solve_rejects_non_finite_input_as_scipy_does(bad, where):
    args = {"a": -np.eye(2), "q": np.eye(2)}
    args[where][0, 1] = bad
    with pytest.raises(ValueError) as expected:
        solve_continuous_lyapunov(**args)
    with pytest.raises(ValueError) as got:
        gains._lyapunov(**args)
    assert str(got.value) == str(expected.value)


def test_paper_gains_are_the_bits_of_scipys_lyapunov_solver(
    paper_scenario, monkeypatch
):
    # the gain sets a run uses, against scipy's public solver in the place
    # of the module's own
    ours = paper_scenario.gain_sets
    monkeypatch.setattr(gains, "_lyapunov", solve_continuous_lyapunov)
    for f, mine in zip(paper_scenario.followers, ours):
        reference = synthesize_gains(*_model(f), paper_scenario.S)
        for field in ("P", "K", "H", "Pi"):
            assert (getattr(mine, field).tobytes()
                    == getattr(reference, field).tobytes())


def test_an_empty_model_has_empty_gains():
    empty = np.zeros((0, 0))
    g = synthesize_gains(empty, empty, empty, empty, empty)
    for field in ("P", "K", "H", "Pi"):
        assert getattr(g, field).shape == (0, 0)


def test_model_is_checked_at_the_leader_state_size():
    # a 2-state model under a 3-state leader: its first problem, not a
    # broadcasting error in the regulator equation
    with pytest.raises(GainSynthesisError, match="A must be 3x3"):
        synthesize_gains(A=np.eye(2), B=np.eye(2), Q=np.eye(2), U=np.eye(2),
                         S=np.zeros((3, 3)))


def test_non_square_leader_matrix_is_rejected():
    with pytest.raises(GainSynthesisError, match="S must be square"):
        synthesize_gains(A=np.eye(2), B=np.eye(2), Q=np.eye(2), U=np.eye(2),
                         S=np.zeros((2, 3)))
    assert leader_problems(np.zeros((2, 3))) == ["S must be square"]


def test_gain_invariants_all_followers(paper_scenario):
    S = paper_scenario.S
    rng = np.random.default_rng(7)
    for f in paper_scenario.followers:
        g = synthesize_gains(*_model(f), S)
        assert care_residual(*_model(f), g.P) <= CARE_TOL
        reg = np.linalg.norm(S - f.A - f.B @ g.Pi)
        assert reg <= REGULATOR_TOL
        assert g.P == pytest.approx(g.P.T, abs=1e-12)
        for _ in range(100):
            x = rng.standard_normal(len(f.A))
            assert x @ g.P @ x > 0
        assert g.K == pytest.approx(
            -np.linalg.solve(f.U, f.B.T @ g.P), abs=1e-12
        )
        # matching condition rearranged through the gain split
        closed = f.A + f.B @ (g.K + g.H)
        assert closed == pytest.approx(S, abs=1e-9)

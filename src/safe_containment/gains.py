"""Offline per-follower gain synthesis.

For each follower the feedforward matrix Pi solves the matching condition
S = A + B @ Pi, and the feedback gain comes from the continuous algebraic
Riccati equation A'P + PA + Q - P B U^-1 B' P = 0.  The Riccati equation
is solved by Newton-Kleinman iteration seeded with a Bass-style
stabilizing gain, with the residual norm as the acceptance contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

CARE_TOL = 1e-8
REGULATOR_TOL = 1e-10


class GainSynthesisError(ValueError):
    """Raised when a gain synthesis subproblem has no acceptable solution."""


def _controllable(a: np.ndarray, b: np.ndarray) -> bool:
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks)) == n


def model_problems(A, B, Q, U, n: int | None = None) -> list[str]:
    """Every problem of the follower model (A, B, Q, U), one line each:
    A n x n, B n x m, Q n x n and U m x m, all finite, Q and U symmetric
    positive definite, and (A, B) controllable.  n defaults to A's row
    count; a matrix with a wrong shape is not checked further."""
    a, b, q, u = (np.asarray(mat, dtype=float) for mat in (A, B, Q, U))
    if n is None:
        n = len(a) if a.ndim else 0
    # without a B matrix, U's own size stands in for the input count m
    m = b.shape[1] if b.ndim == 2 else len(u) if u.ndim else 0
    problems = []
    for name, mat, rows, cols in (
        ("A", a, n, n), ("B", b, n, m), ("Q", q, n, n), ("U", u, m, m)
    ):
        if mat.shape != (rows, cols):
            problems.append(f"{name} must be {rows}x{cols}")
        elif not np.all(np.isfinite(mat)):
            problems.append(f"{name} must be finite")
        elif name in "QU" and not np.allclose(mat, mat.T, atol=1e-12):
            problems.append(f"{name} must be symmetric")
        elif name in "QU" and np.any(np.linalg.eigvalsh(mat) <= 0):
            problems.append(f"{name} must be positive definite")
    if not problems and not _controllable(a, b):
        problems.append("(A, B) is not controllable")
    return problems


@dataclass(frozen=True)
class AgentModel:
    """Follower dynamics x' = A x + B u with Riccati weights Q, U."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        mats = {
            field: np.atleast_2d(np.asarray(getattr(self, field), dtype=float))
            for field in "ABQU"
        }
        problems = model_problems(*mats.values())
        if problems:
            raise GainSynthesisError(problems[0])
        for field, val in mats.items():
            object.__setattr__(self, field, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class LeaderModel:
    """Leader dynamics x' = S x; the exosystem all followers track."""

    S: np.ndarray

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.S, dtype=float))
        if s.shape[0] != s.shape[1]:
            raise GainSynthesisError("S must be square")
        object.__setattr__(self, "S", s)


@dataclass(frozen=True)
class LeaderCheck:
    passed: bool
    eigenvalues: np.ndarray
    reasons: tuple[str, ...]


@dataclass(frozen=True)
class GainSet:
    """Synthesized gains: Riccati solution P, feedback K, feedforward H, Pi."""

    P: np.ndarray
    K: np.ndarray
    H: np.ndarray
    Pi: np.ndarray


def check_leader_assumption(leader: LeaderModel, tol: float = 1e-9) -> LeaderCheck:
    """Marginal-stability check on S: Re(lambda) <= tol everywhere, and any
    eigenvalue on the imaginary axis must be simple."""
    eigs = np.linalg.eigvals(leader.S)
    reasons = []
    if np.any(eigs.real > tol):
        reasons.append(
            f"eigenvalue with positive real part: max Re = {eigs.real.max():.3e}"
        )
    on_axis = eigs[np.abs(eigs.real) <= tol]
    for k, lam in enumerate(on_axis):
        close = np.sum(np.abs(on_axis - lam) <= 1e-7)
        if close > 1:
            reasons.append(f"repeated imaginary-axis eigenvalue near {lam:.6g}")
            break
    return LeaderCheck(
        passed=not reasons, eigenvalues=eigs, reasons=tuple(reasons)
    )


def solve_regulator(model: AgentModel, leader: LeaderModel) -> np.ndarray:
    """Least-squares solution Pi of S = A + B Pi, exact to REGULATOR_TOL."""
    rhs = leader.S - model.A
    pi, *_ = np.linalg.lstsq(model.B, rhs, rcond=None)
    residual = np.linalg.norm(leader.S - model.A - model.B @ pi)
    if residual > REGULATOR_TOL:
        raise GainSynthesisError(
            "regulator equation unsolvable for this (A, B, S): "
            f"residual {residual:.3e} exceeds {REGULATOR_TOL:.0e}"
        )
    return pi


def _initial_stabilizing_gain(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bass-style stabilizing gain: K0 = -B' Z^-1 with
    (A + beta I) Z + Z (A + beta I)' = 2 B B', beta > spectral abscissa."""
    if np.all(np.linalg.eigvals(a).real < -1e-9):
        return np.zeros((b.shape[1], a.shape[0]))
    beta = np.linalg.norm(a, 2) + 0.5
    z = solve_continuous_lyapunov(a + beta * np.eye(a.shape[0]), 2.0 * b @ b.T)
    z = 0.5 * (z + z.T)
    k0 = -np.linalg.solve(z, b).T
    if np.any(np.linalg.eigvals(a + b @ k0).real >= 0):
        raise GainSynthesisError("failed to find an initial stabilizing gain")
    return k0


def care_residual(model: AgentModel, p: np.ndarray) -> float:
    a, b, q, u = model.A, model.B, model.Q, model.U
    uinv_bt = np.linalg.solve(u, b.T)
    return float(
        np.linalg.norm(a.T @ p + p @ a + q - p @ b @ uinv_bt @ p)
    )


def solve_care(
    model: AgentModel, tol: float = CARE_TOL, max_iter: int = 60
) -> np.ndarray:
    """Newton-Kleinman iteration for the stabilizing Riccati solution.

    Each Newton step solves the Lyapunov equation
    (A + B K)' P + P (A + B K) = -(Q + K' U K) and refreshes
    K = -U^-1 B' P; the iteration is quadratically convergent from any
    stabilizing K.
    """
    a, b, q, u = model.A, model.B, model.Q, model.U
    k = _initial_stabilizing_gain(a, b)
    residual = np.inf
    for _ in range(max_iter):
        acl = a + b @ k
        p = solve_continuous_lyapunov(acl.T, -(q + k.T @ u @ k))
        p = 0.5 * (p + p.T)
        k = -np.linalg.solve(u, b.T @ p)
        residual = care_residual(model, p)
        if residual <= tol * 1e-2 or residual <= 1e-12:
            break
    if residual > tol:
        raise GainSynthesisError(
            f"Riccati iteration did not converge: final residual {residual:.3e}"
        )
    if np.any(np.linalg.eigvals(a + b @ k).real >= 0):
        raise GainSynthesisError("Riccati solution is not stabilizing")
    if np.any(np.linalg.eigvalsh(p) <= 0):
        raise GainSynthesisError("Riccati solution is not positive definite")
    return p


def synthesize_gains(model: AgentModel, leader: LeaderModel) -> GainSet:
    """Solve both matrix equations and assemble the gain set
    K = -U^-1 B' P, H = Pi - K."""
    pi = solve_regulator(model, leader)
    p = solve_care(model)
    k = -np.linalg.solve(model.U, model.B.T @ p)
    h = pi - k
    return GainSet(P=p, K=k, H=h, Pi=pi)

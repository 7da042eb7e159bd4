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
CARE_MAX_ITER = 60
REGULATOR_TOL = 1e-10
LEADER_TOL = 1e-9


class GainSynthesisError(ValueError):
    """Raised when a gain synthesis subproblem has no acceptable solution."""


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
    if not problems:
        blocks = [b]  # the Krylov blocks A^k B; if one overflows, no rank
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n - 1):
                blocks.append(a @ blocks[-1])
        krylov = np.hstack(blocks)
        if not np.all(np.isfinite(krylov)):
            problems.append("(A, B) controllability matrix is not finite")
        elif np.linalg.matrix_rank(krylov) != n:
            problems.append("(A, B) is not controllable")
    return problems


def leader_problems(S) -> list[str]:
    """Every problem of the leader matrix S, one line each: S square and
    finite, Re(lambda) <= LEADER_TOL everywhere, and every eigenvalue on
    the imaginary axis simple."""
    s = np.asarray(S, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        return ["S must be square"]
    if not np.all(np.isfinite(s)):
        return ["S must be finite"]
    eigs = np.linalg.eigvals(s)
    problems = []
    if np.any(eigs.real > LEADER_TOL):
        problems.append("S has an eigenvalue with positive real part: "
                        f"max Re = {eigs.real.max():.3e}")
    on_axis = eigs[np.abs(eigs.real) <= LEADER_TOL]
    for lam in on_axis:
        if np.sum(np.abs(on_axis - lam) <= 1e-7) > 1:
            problems.append(
                f"S has a repeated imaginary-axis eigenvalue near {lam:.6g}")
            break
    return problems


@dataclass(frozen=True)
class GainSet:
    """Synthesized gains: Riccati solution P, feedback K, feedforward H, Pi."""

    P: np.ndarray
    K: np.ndarray
    H: np.ndarray
    Pi: np.ndarray


def solve_regulator(A: np.ndarray, B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Least-squares solution Pi of S = A + B Pi, exact to REGULATOR_TOL."""
    pi, *_ = np.linalg.lstsq(B, S - A, rcond=None)
    with np.errstate(over="ignore", invalid="ignore"):  # inf is rejected
        residual = np.linalg.norm(S - A - B @ pi)
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


def care_residual(A, B, Q, U, P) -> float:
    """Norm of the Riccati residual A'P + PA + Q - P B U^-1 B' P."""
    uinv_bt = np.linalg.solve(U, B.T)
    return float(np.linalg.norm(A.T @ P + P @ A + Q - P @ B @ uinv_bt @ P))


def solve_care(A, B, Q, U) -> np.ndarray:
    """Newton-Kleinman iteration for the stabilizing Riccati solution.

    Each Newton step solves the Lyapunov equation
    (A + B K)' P + P (A + B K) = -(Q + K' U K) and refreshes
    K = -U^-1 B' P; the iteration is quadratically convergent from any
    stabilizing K.  An iterate that leaves the finite range, or a
    ValueError from the solvers it meets, raises GainSynthesisError.
    """
    residual = np.inf
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            k = _initial_stabilizing_gain(A, B)
            for _ in range(CARE_MAX_ITER):
                acl = A + B @ k
                p = solve_continuous_lyapunov(acl.T, -(Q + k.T @ U @ k))
                p = 0.5 * (p + p.T)
                k = -np.linalg.solve(U, B.T @ p)
                residual = care_residual(A, B, Q, U, p)
                if not CARE_TOL * 1e-2 < residual < np.inf:
                    break  # converged, or not finite
    except ValueError as exc:  # ours, or a solver's on an overflowed iterate
        raise GainSynthesisError(str(exc)) from exc
    if not residual <= CARE_TOL:  # also a nan residual
        raise GainSynthesisError(
            f"Riccati iteration did not converge: final residual {residual:.3e}"
        )
    if np.any(np.linalg.eigvals(A + B @ k).real >= 0):
        raise GainSynthesisError("Riccati solution is not stabilizing")
    if np.any(np.linalg.eigvalsh(p) <= 0):
        raise GainSynthesisError("Riccati solution is not positive definite")
    return p


def synthesize_gains(A, B, Q, U, S) -> GainSet:
    """Solve both matrix equations for the follower x' = A x + B u with
    Riccati weights Q, U and the leader x' = S x, and assemble the gain
    set K = -U^-1 B' P, H = Pi - K.  Raises GainSynthesisError with the
    first problem of a non-square S or, at S's size, of the model."""
    a, b, q, u, s = (np.asarray(mat, dtype=float) for mat in (A, B, Q, U, S))
    square = s.ndim == 2 and s.shape[0] == s.shape[1]
    problems = (model_problems(a, b, q, u, len(s)) if square
                else ["S must be square"])
    if problems:
        raise GainSynthesisError(problems[0])
    pi = solve_regulator(a, b, s)
    p = solve_care(a, b, q, u)
    k = -np.linalg.solve(u, b.T @ p)
    return GainSet(P=p, K=k, H=pi - k, Pi=pi)

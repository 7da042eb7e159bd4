"""Output checks that do not trust the program.

Every check recomputes a quantity from the scenario document and the
trace, with code written here and not imported from the package, or
tests a property the method must have.  None compares against a stored
copy of an earlier output.  Each check raises ``CheckFailed`` naming the
first violation it finds.

The checks read ``TraceRecord``-like objects only through their
attributes (``t``, ``x``, ``u``, ``u_bar``, ...), so tests can hand them
corrupted copies.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import expm
from scipy.optimize import nnls

# Per-follower CSV blocks in the documented column order: column prefix,
# the record attribute it comes from, and whether it has one column per
# state component.
CSV_BLOCKS = (
    ("x", "x", True), ("zeta", "zeta", True), ("theta", "theta", False),
    ("rho_hat", "rho_hat", False), ("uc", "u_c", True),
    ("gammahat", "gamma_hat", True), ("ur", "u_r", True),
    ("ubar", "u_bar", True), ("u", "u", True), ("du", "delta_u", True),
    ("eps", "eps", True), ("ec", "e_c", True), ("do", "delta_o", True),
)

EC_TOL = 1e-8          # trace e_c against the exact-leader hull reference
DIST_TOL = 1e-12       # trace pair distance against |x_i - x_j|
ROW_TOL = 1e-9         # barrier row slack, relative to max(1, |b|)
KKT_TOL = 1e-8         # stationarity residual, relative to max(1, |u_bar|)
SAFE_MARGIN = 1e-3     # pair distances may dip this far below d_s


class CheckFailed(AssertionError):
    """An output of the program violates an independent check."""


def _delta_matrix(doc: dict, n_followers: int) -> np.ndarray:
    delta = np.asarray(doc.get("delta", 5.0), dtype=float)
    if delta.ndim == 0:
        delta = np.full((n_followers, n_followers), float(delta))
    return delta


def hull_reference(doc: dict, times: np.ndarray) -> np.ndarray:
    """(T, N, n) hull reference from the exact leader solution.

    Leaders follow x_r(t) = expm(S t) x_r(0).  With L = D - A and
    Phi_r = L / M + diag(pinning_r), the stacked reference is
    (sum_r Phi_r kron I)^-1 sum_r (Phi_r kron I)(1 kron x_r(t)).
    """
    s = np.asarray(doc["S"], dtype=float)
    x_r0 = np.asarray(doc["leader_x0"], dtype=float)
    adj = np.asarray(doc["topology"]["adjacency"], dtype=float)
    pin = np.asarray(doc["topology"]["pinning"], dtype=float)
    n_lead, n = x_r0.shape
    n_fol = adj.shape[0]
    lap = np.diag(adj.sum(axis=1)) - adj
    eye = np.eye(n)
    phis = [np.kron(lap / n_lead + np.diag(pin[r]), eye) for r in range(n_lead)]
    leaders = np.einsum("tij,rj->tri", expm(np.multiply.outer(times, s)), x_r0)
    ones = np.ones(n_fol)
    rhs = sum(
        phis[r] @ np.kron(ones, leaders[:, r, :]).T for r in range(n_lead)
    )
    ref = np.linalg.solve(sum(phis), rhs)
    return ref.T.reshape(len(times), n_fol, n)


def check_containment_error(doc: dict, records) -> np.ndarray:
    """Trace e_c must equal x minus the exact hull reference; returns the
    recomputed per-sample norms."""
    times = np.array([rec.t for rec in records])
    x = np.stack([rec.x for rec in records])
    expected = x - hull_reference(doc, times)
    traced = np.stack([rec.e_c for rec in records])
    gap = np.abs(traced - expected)
    worst = np.unravel_index(np.argmax(gap), gap.shape)
    if gap[worst] > EC_TOL:
        raise CheckFailed(
            f"e_c at t={times[worst[0]]:.6f} follower {worst[1] + 1} differs "
            f"from x minus the hull reference by {gap[worst]:.3e}"
        )
    return np.linalg.norm(expected.reshape(len(records), -1), axis=1)


def check_pair_geometry(doc: dict, records, safe: bool) -> None:
    """Pair distances and barrier values must match the states; with the
    filter on, no pair may come closer than d_s - SAFE_MARGIN."""
    d_s = float(doc.get("d_s", 0.3))
    n = records[0].x.shape[0]
    i_idx, j_idx = np.triu_indices(n, 1)
    pairs = list(zip(i_idx.tolist(), j_idx.tolist()))
    for rec in records:
        if [tuple(p) for p in rec.pairs] != pairs:
            raise CheckFailed(f"t={rec.t:.6f}: pair list is not lexicographic")
    x = np.stack([rec.x for rec in records])
    dist = np.sqrt(np.sum((x[:, i_idx] - x[:, j_idx]) ** 2, axis=2))
    for name, traced, expected in (
        ("d", np.stack([rec.pair_distance for rec in records]), dist),
        ("h", np.stack([rec.pair_h for rec in records]), d_s * d_s - dist**2),
    ):
        gap = np.abs(traced - expected)
        s, k = np.unravel_index(np.argmax(gap), gap.shape)
        if gap[s, k] > DIST_TOL:
            raise CheckFailed(
                f"t={records[s].t:.6f}: {name}_{i_idx[k] + 1}_{j_idx[k] + 1} "
                f"is {traced[s, k]!r}, the states give {expected[s, k]!r}"
            )
    if safe and dist.min() < d_s - SAFE_MARGIN:
        s, k = np.unravel_index(np.argmin(dist), dist.shape)
        raise CheckFailed(
            f"t={records[s].t:.6f}: followers {i_idx[k] + 1} and "
            f"{j_idx[k] + 1} are {dist[s, k]:.6f} apart, below d_s={d_s}"
        )


def barrier_rows(doc: dict, rec, i: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Rows a_k' u_i <= b_k of agent i's QP, one per higher agent j.

    From h = d_s^2 - |r|^2, r = x_i - x_j, and h' <= -delta_ij h:
    -2 r'B_i u_i <= -delta_ij h + 2 r'A_i x_i - 2 r'A_j x_j - 2 r'B_j u_j.
    """
    d_s = float(doc.get("d_s", 0.3))
    fol = doc["followers"]
    n = len(fol)
    delta = _delta_matrix(doc, n)
    rows, rhs, js = [], [], list(range(i + 1, n))
    a_i = np.asarray(fol[i]["A"], dtype=float)
    b_i = np.asarray(fol[i]["B"], dtype=float)
    for j in js:
        a_j = np.asarray(fol[j]["A"], dtype=float)
        b_j = np.asarray(fol[j]["B"], dtype=float)
        r = rec.x[i] - rec.x[j]
        h = d_s * d_s - r @ r
        rows.append(-2.0 * (r @ b_i))
        rhs.append(
            -delta[i, j] * h
            + 2.0 * (r @ (a_i @ rec.x[i]))
            - 2.0 * (r @ (a_j @ rec.x[j]))
            - 2.0 * (r @ (b_j @ rec.u[j]))
        )
    return np.array(rows), np.array(rhs), js


def check_filter_optimality(doc: dict, records) -> int:
    """Each filtered input must satisfy every rebuilt barrier row and be
    the projection of u_bar onto them (KKT: u_bar - u = sum lam_k a_k with
    lam >= 0 on tight rows only).  Returns the number of (sample, agent)
    QPs with at least one tight row."""
    n = records[0].x.shape[0]
    n_tight = 0
    for rec in records:
        if not np.array_equal(rec.u[n - 1], rec.u_bar[n - 1]):
            raise CheckFailed(f"t={rec.t:.6f}: the highest agent's input was modified")
        tight_pairs = set()
        for i in range(n - 1):
            rows, rhs, js = barrier_rows(doc, rec, i)
            scale = np.maximum(1.0, np.abs(rhs))
            slack = rows @ rec.u[i] - rhs
            if np.any(slack > ROW_TOL * scale):
                k = int(np.argmax(slack / scale))
                raise CheckFailed(
                    f"t={rec.t:.6f}: u_{i + 1} violates the barrier row of "
                    f"pair ({i + 1}, {js[k] + 1}) by {slack[k]:.3e}"
                )
            tight = np.abs(slack) <= ROW_TOL * scale
            tight_pairs.update((i, js[k]) for k in np.nonzero(tight)[0])
            move = rec.u_bar[i] - rec.u[i]
            move_scale = max(1.0, float(np.max(np.abs(rec.u_bar[i]))))
            if tight.any():
                n_tight += 1
                _, resid = nnls(rows[tight].T, move)
            else:
                resid = float(np.linalg.norm(move))
            if resid > KKT_TOL * move_scale:
                raise CheckFailed(
                    f"t={rec.t:.6f}: u_{i + 1} is not the projection of "
                    f"u_bar onto its barrier rows (residual {resid:.3e})"
                )
        for k, (i, j) in enumerate(rec.pairs):
            if rec.pair_active[k] and (i, j) not in tight_pairs:
                raise CheckFailed(
                    f"t={rec.t:.6f}: pair ({i + 1}, {j + 1}) is marked "
                    "active but its barrier row is slack"
                )
    return n_tight


def check_unfiltered(records) -> None:
    """With the filter off the applied input is the requested one."""
    for rec in records:
        if not np.array_equal(rec.u, rec.u_bar) or np.any(rec.delta_u != 0):
            raise CheckFailed(f"t={rec.t:.6f}: u differs from u_bar with the filter off")
        if np.any(rec.pair_active):
            raise CheckFailed(f"t={rec.t:.6f}: a pair is active with the filter off")


def check_monotone_gains(records) -> None:
    """theta and rho_hat have nonnegative rates (zero in conventional
    mode), so never decrease."""
    for name in ("theta", "rho_hat"):
        vals = np.stack([getattr(rec, name) for rec in records])
        drop = np.diff(vals, axis=0)
        if np.any(drop < 0):
            k, i = np.unravel_index(np.argmin(drop), drop.shape)
            raise CheckFailed(
                f"{name}_{i + 1} decreases after t={records[k].t:.6f} "
                f"by {-drop[k, i]:.3e}"
            )


def check_summary(doc: dict, records, summary: dict, ec_norms: np.ndarray) -> None:
    """Summary figures against the recomputed containment errors.

    The run's error norms cover every RK4 step, the trace only every
    output_stride-th, so with stride 1 the tail maximum is recomputed
    exactly and otherwise it must bound the sampled tail from above.
    """
    if summary["qp_infeasible_count"] != 0:
        raise CheckFailed(f"{summary['qp_infeasible_count']} safety QPs were infeasible")
    dt = float(doc.get("dt", 1e-3))
    n_steps = int(round(float(doc.get("horizon", 16.0)) / dt))
    steps = np.array([round(rec.t / dt) for rec in records])
    tail_start = int((n_steps + 1) * 0.7)
    in_tail = ec_norms[steps >= tail_start]
    tol = EC_TOL * max(1.0, float(in_tail.max()))
    if len(records) == n_steps + 1:
        if abs(summary["max_ec_tail"] - in_tail.max()) > tol:
            raise CheckFailed(
                f"max_ec_tail {summary['max_ec_tail']!r} != recomputed "
                f"{in_tail.max()!r}"
            )
    elif summary["max_ec_tail"] < in_tail.max() - tol:
        raise CheckFailed("max_ec_tail is below the sampled tail maximum")
    if abs(summary["final_ec"] - ec_norms[-1]) > tol:
        raise CheckFailed(f"final_ec {summary['final_ec']!r} != recomputed {ec_norms[-1]!r}")
    sampled_min = min(float(rec.pair_distance.min()) for rec in records)
    if summary["min_pair_distance"] > sampled_min + DIST_TOL:
        raise CheckFailed("min_pair_distance is above a sampled pair distance")


def check_records(doc: dict, records, summary: dict) -> dict:
    """Every record-level check that applies to the run's mode."""
    mode = doc.get("controller_mode", "saar")
    dt = float(doc.get("dt", 1e-3))
    n_steps = int(round(float(doc.get("horizon", 16.0)) / dt))
    stride = int(doc.get("output_stride", 10))
    expected_rows = n_steps // stride + 1 + (n_steps % stride != 0)
    if len(records) != expected_rows:
        raise CheckFailed(f"{len(records)} trace records, expected {expected_rows}")
    ec_norms = check_containment_error(doc, records)
    check_pair_geometry(doc, records, safe=mode == "saar")
    check_monotone_gains(records)
    n_tight = 0
    if mode == "saar":
        n_tight = check_filter_optimality(doc, records)
    else:
        check_unfiltered(records)
    check_summary(doc, records, summary, ec_norms)
    return {"records": len(records), "tight_qps": n_tight}


def csv_header(n_followers: int, n: int) -> list[str]:
    """The documented trace schema: t, per-follower blocks, pair blocks."""
    cols = ["t"]
    for i in range(1, n_followers + 1):
        for name, _, vector in CSV_BLOCKS:
            if vector:
                cols.extend(f"{name}_{i}_{k}" for k in range(1, n + 1))
            else:
                cols.append(f"{name}_{i}")
    for i in range(1, n_followers + 1):
        for j in range(i + 1, n_followers + 1):
            cols.extend((f"d_{i}_{j}", f"h_{i}_{j}", f"active_{i}_{j}"))
    return cols


def _record_values(rec) -> np.ndarray:
    vals = [np.array([rec.t])]
    for i in range(rec.x.shape[0]):
        for _, attr, _ in CSV_BLOCKS:
            vals.append(np.atleast_1d(np.asarray(getattr(rec, attr)[i], dtype=float)))
    pair = np.stack(
        [rec.pair_distance, rec.pair_h, np.asarray(rec.pair_active, dtype=float)],
        axis=1,
    )
    vals.append(pair.ravel())
    return np.concatenate(vals)


def check_csv(path, records) -> int:
    """The CSV must hold the documented columns and one row per record,
    every value parsing back exactly to the record.  Returns the row
    count."""
    n_fol, n = records[0].x.shape
    header = csv_header(n_fol, n)
    n_rows = 0
    with open(path, newline="") as fh:
        got = fh.readline().rstrip("\n").split(",")
        if got != header:
            raise CheckFailed(f"CSV header has {len(got)} columns, schema has {len(header)}")
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header):
                raise CheckFailed(f"CSV row {n_rows + 1} has {len(cells)} columns")
            if n_rows >= len(records):
                raise CheckFailed("CSV has more rows than the trace")
            rec = records[n_rows]
            values = np.array(cells, dtype=float)
            expected = _record_values(rec)
            if not np.array_equal(values, expected):
                k = int(np.nonzero(values != expected)[0][0])
                raise CheckFailed(
                    f"CSV row {n_rows + 1} column {header[k]} reads "
                    f"{cells[k]}, record holds {float(expected[k])!r}"
                )
            n_rows += 1
    if n_rows != len(records):
        raise CheckFailed(f"CSV has {n_rows} rows, the trace {len(records)}")
    return n_rows


def check_summary_json(path, summary: dict) -> None:
    """The summary file must parse back to the run's summary."""
    with open(path) as fh:
        if json.load(fh) != summary:
            raise CheckFailed("summary JSON does not parse back to the run summary")

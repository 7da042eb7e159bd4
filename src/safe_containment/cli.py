"""Command-line front end.

Subcommands:

    run       simulate a scenario, write trace CSV and summary JSON
    validate  load and validate a scenario file, report every violation
    gains     print synthesized P, K, H, Pi and residuals per follower
    sweep     rerun a scenario varying one scalar parameter

Exit codes: 0 success, 1 error (parse/validation/simulation), 2 divergence
threshold crossed during the run, 3 at least one infeasible safety QP.

CSV schema (stable): one header row; column order is ``t``, then one block
per follower i (x, zeta, theta, rho_hat, u_c, gamma_hat, u_r, u_bar, u,
delta_u, eps, e_c, delta_o, with vector components suffixed _1.._n), then
one block per follower pair (i, j) in lexicographic order (d_i_j, h_i_j,
active_i_j).  Floats carry 17 significant digits so values round-trip.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import sim
from .gains import care_residual
from .scenario import CONTROLLER_MODES, ScenarioError, load_scenario
from .sim import RunResult, SimulationError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGENCE = 2
EXIT_QP_INFEASIBLE = 3

_VECTOR_FIELDS = (
    ("x", "x"),
    ("zeta", "zeta"),
    ("theta", None),
    ("rho_hat", None),
    ("u_c", "uc"),
    ("gamma_hat", "gammahat"),
    ("u_r", "ur"),
    ("u_bar", "ubar"),
    ("u", "u"),
    ("delta_u", "du"),
    ("eps", "eps"),
    ("e_c", "ec"),
    ("delta_o", "do"),
)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def trace_header(n_followers: int, state_dim: int, pairs: list) -> list[str]:
    cols = ["t"]
    for i in range(1, n_followers + 1):
        for attr, name in _VECTOR_FIELDS:
            if name is None:
                cols.append(f"{attr}_{i}")
            else:
                cols.extend(f"{name}_{i}_{k}" for k in range(1, state_dim + 1))
    for i, j in pairs:
        cols.extend(
            (f"d_{i + 1}_{j + 1}", f"h_{i + 1}_{j + 1}", f"active_{i + 1}_{j + 1}")
        )
    return cols


def trace_row(rec: sim.TraceRecord) -> list[str]:
    vals = [_fmt(rec.t)]
    n_followers = rec.x.shape[0]
    for i in range(n_followers):
        for attr, name in _VECTOR_FIELDS:
            data = getattr(rec, attr)
            if name is None:
                vals.append(_fmt(float(data[i])))
            else:
                vals.extend(_fmt(float(v)) for v in data[i])
    for k in range(len(rec.pairs)):
        vals.append(_fmt(float(rec.pair_distance[k])))
        vals.append(_fmt(float(rec.pair_h[k])))
        vals.append("1" if rec.pair_active[k] else "0")
    return vals


def write_trace_csv(path: Path, result: RunResult, state_dim: int) -> None:
    records = result.records
    header = trace_header(records[0].x.shape[0], state_dim, records[0].pairs)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for rec in records:
            fh.write(",".join(trace_row(rec)) + "\n")


def write_summary_json(path: Path, result: RunResult) -> None:
    with open(path, "w") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(args) -> "ScenarioConfig | None":
    try:
        scenario = load_scenario(args.scenario)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    except ScenarioError as exc:
        print(
            json.dumps({"valid": False, "violations": exc.violations}, indent=2)
        )
        return None
    if getattr(args, "mode", None):
        scenario = scenario.with_mode(args.mode)
    return scenario


def cmd_run(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return EXIT_ERROR
    try:
        result = sim.run(scenario)
    except SimulationError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_ERROR

    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    base = f"{scenario.name}_{scenario.controller_mode}"
    write_trace_csv(outdir / f"{base}.csv", result, scenario.state_dim)
    write_summary_json(outdir / f"{base}_summary.json", result)
    print(json.dumps(result.summary, indent=2, sort_keys=True))

    if result.summary["qp_infeasible_count"] > 0:
        print(
            "infeasible safety QP encountered at "
            f"t={result.summary['first_infeasible_time']:.6f}",
            file=sys.stderr,
        )
        return EXIT_QP_INFEASIBLE
    if result.summary["first_divergence_time"] is not None:
        print(
            "divergence detected: containment error crossed "
            f"{scenario.divergence_threshold:g} at "
            f"t={result.summary['first_divergence_time']:.6f}",
            file=sys.stderr,
        )
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_validate(args) -> int:
    if _load(args) is None:
        return EXIT_ERROR
    print(json.dumps({"valid": True, "violations": []}, indent=2))
    return EXIT_OK


def cmd_gains(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return EXIT_ERROR
    engine = sim.Engine(scenario)
    s = engine.S
    for idx, (model, gainset) in enumerate(zip(engine.models, engine.gains)):
        reg_res = np.linalg.norm(s - model.A - model.B @ gainset.Pi)
        print(f"follower {idx + 1}:")
        for name, mat in (
            ("P", gainset.P),
            ("K", gainset.K),
            ("H", gainset.H),
            ("Pi", gainset.Pi),
        ):
            print(f"  {name} =")
            for row in np.atleast_2d(mat):
                print("    [" + ", ".join(_fmt(v) for v in row) + "]")
        print(f"  riccati_residual = {care_residual(model, gainset.P):.3e}")
        print(f"  regulator_residual = {reg_res:.3e}")
    return EXIT_OK


_SWEEPABLE = ("d_s", "delta", "dt", "attack_start", "q", "alpha", "c")


def cmd_sweep(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return EXIT_ERROR
    if args.param not in _SWEEPABLE:
        print(
            f"error: unknown sweep parameter {args.param!r}; "
            f"choose from {_SWEEPABLE}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    values = [float(v) for v in args.values.split(",")]
    rows = []
    for value in values:
        if args.param in ("d_s", "dt", "attack_start"):
            variant = dataclasses.replace(scenario, **{args.param: value})
        elif args.param == "delta":
            variant = dataclasses.replace(scenario, delta=np.asarray(value))
        else:
            followers = [
                dataclasses.replace(f, **{args.param: value})
                for f in scenario.followers
            ]
            variant = dataclasses.replace(scenario, followers=followers)
        violations = variant.validate()
        if violations:
            print(
                f"error: {args.param}={value} invalid: {violations}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        result = sim.run(variant)
        row = dict(result.summary)
        row[args.param] = value
        rows.append(row)
        print(json.dumps(row, sort_keys=True))
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    out = outdir / f"{scenario.name}_sweep_{args.param}.json"
    with open(out, "w") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safe-containment",
        description=(
            "Simulate attack-resilient, collision-free containment control "
            "for heterogeneous multi-agent systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--mode", choices=CONTROLLER_MODES)
    p_run.add_argument("--output-dir", default="out")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_gains = sub.add_parser("gains", help="print synthesized gains")
    p_gains.add_argument("--scenario", required=True)
    p_gains.set_defaults(func=cmd_gains)

    p_sweep = sub.add_parser("sweep", help="vary one scalar over a range")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--mode", choices=CONTROLLER_MODES)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated")
    p_sweep.add_argument("--output-dir", default="out")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def run_command(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()

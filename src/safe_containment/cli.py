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
delta_u, eps, e_c, delta_o; state blocks x, zeta, eps, e_c and delta_o have
components suffixed _1.._n, input blocks u_c .. delta_u _1.._m), then one
block per follower pair (i, j) in lexicographic order (d_i_j, h_i_j,
active_i_j).  The layout is ``sim.TRACE_FIELDS``.  Floats carry 17
significant digits so values round-trip.
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


def write_trace_csv(path: Path, result: RunResult, state_dim: int) -> None:
    """Write the run's table as the trace CSV, one format call per row.
    ``state_dim`` is not needed: the result's layout gives the columns."""
    layout = result.layout
    row_fmt = ",".join(["%.17g"] * layout.n_csv) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(layout.header()) + "\n")
        for row in result.table:
            fh.write(row_fmt % tuple(row[:layout.n_csv].tolist()))


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_summary_json(path: Path, result: RunResult) -> None:
    _write_json(path, result.summary)


def _load(args) -> "ScenarioConfig | None":
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:  # missing, a directory, unreadable
        print(f"error: {exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(f"error: {args.scenario} is not UTF-8: {exc}", file=sys.stderr)
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
        for name in ("P", "K", "H", "Pi"):
            print(f"  {name} =")
            for row in np.atleast_2d(getattr(gainset, name)):
                print("    [" + ", ".join(f"{v:.17g}" for v in row) + "]")
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
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        print(f"error: --values: {exc}", file=sys.stderr)
        return EXIT_ERROR
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
        try:
            result = sim.run(variant)
        except SimulationError as exc:
            print(
                f"error: {args.param}={value}: simulation aborted: {exc}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        row = dict(result.summary)
        row[args.param] = value
        rows.append(row)
        print(json.dumps(row, sort_keys=True))
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / f"{scenario.name}_sweep_{args.param}.json", rows)
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

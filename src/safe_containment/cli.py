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
import contextlib
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import sim
from .gains import care_residual
from .scenario import (
    CONTROLLER_MODES, SWEEPABLE, ScenarioError, load_scenario)
from .sim import RunResult, SimulationError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGENCE = 2
EXIT_QP_INFEASIBLE = 3


# Fewest table cells (rows x columns) one writer process formats.  On a
# 2-vCPU x86 KVM guest a fork, its part file and the copy back cost about
# 4 ms, what formatting 10,000 cells takes, so a table of fewer than twice
# this many cells is written by one process.
MIN_CHUNK_CELLS = 10_000


def _usable_cpus() -> int:
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _write_rows(fh, rows: np.ndarray, row_fmt: str) -> None:
    for row in rows:
        fh.write(row_fmt % tuple(row.tolist()))


@contextlib.contextmanager
def _replacing(path: Path):
    """A new text file beside ``path``, open for writing, that is moved
    onto ``path`` when the block succeeds and removed when it fails, so
    ``path`` never holds a partial file."""
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with open(fd, "w", newline="\n") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # as open() would create it
            yield fh
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def write_trace_csv(path: Path, result: RunResult, state_dim: int) -> None:
    """Write the run's table as the trace CSV, one format call per row.

    The rows are cut into contiguous chunks, one per usable CPU but none
    under ``MIN_CHUNK_CELLS`` cells.  A forked child formats each chunk
    after the first into an unnamed temporary file in ``path``'s
    directory; this process writes the header and the first chunk, then
    appends the parts in order, so the bytes do not depend on the chunk
    count.  The file is written under a temporary name and takes its place
    at ``path`` only once complete.  A child that fails raises ``OSError``;
    every child is reaped however the write ends.  ``state_dim`` is not
    needed: the result's layout gives the columns."""
    layout = result.layout
    table = result.table[:, :layout.n_csv]
    row_fmt = ",".join(["%.17g"] * layout.n_csv) + "\n"
    n_chunks = max(1, min(_usable_cpus(), table.size // MIN_CHUNK_CELLS))
    bounds = [len(table) * k // n_chunks for k in range(n_chunks + 1)]
    chunks = [table[a:b] for a, b in zip(bounds, bounds[1:])]
    children = []
    try:
        with contextlib.ExitStack() as parts:
            for chunk in chunks[1:]:
                part = parts.enter_context(
                    tempfile.TemporaryFile(dir=path.parent))
                # forked, not spawned: the child reads the table in place,
                # with nothing to import or pickle; os._exit skips this
                # process's exit handlers and buffers
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        with open(part.fileno(), "w", newline="\n") as fh:
                            _write_rows(fh, chunk, row_fmt)
                        status = 0
                    finally:
                        os._exit(status)
                children.append((pid, part))
            with _replacing(path) as fh:
                fh.write(",".join(layout.header()) + "\n")
                _write_rows(fh, chunks[0], row_fmt)
                fh.flush()
                while children:
                    pid, part = children[0]
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    del children[0]
                    if status != 0:
                        raise OSError(
                            f"{path}: a process writing its rows exited "
                            f"with status {status}"
                        )
                    part.seek(0)
                    shutil.copyfileobj(part, fh.buffer)
    finally:
        for pid, _ in children:  # left only by a failure or an interrupt
            with contextlib.suppress(ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _write_json(path: Path, obj) -> None:
    with _replacing(path) as fh:
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


def _output_dir_error(outdir: Path, names: list[str]) -> str | None:
    """Why ``outdir`` cannot take a command's output files ``names``, or
    None.  Checked before simulating, so a bad ``--output-dir`` or a name
    too long for its file system costs no run; creates nothing."""
    try:
        path = next(p for p in (outdir, *outdir.parents) if p.exists())
    except OSError as exc:  # such as a name too long for the file system
        return f"--output-dir: {exc}"
    if not path.is_dir():
        return f"--output-dir: {path} is not a directory"
    if not os.access(path, os.W_OK | os.X_OK):
        return f"--output-dir: {path} is not writable"
    if "PC_NAME_MAX" not in getattr(os, "pathconf_names", ()):
        return None
    limit = os.pathconf(path, "PC_NAME_MAX")  # -1: no limit
    for name in names:
        # _replacing's temporary name: "." name "." 8 random ".tmp"
        size = len(os.fsencode(name)) + 14
        if 0 < limit < size:
            return (f"{name}: file name too long for {path}: its "
                    f"temporary name takes {size} bytes, over {limit}")
    return None


def _report(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def cmd_run(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return EXIT_ERROR
    outdir = Path(args.output_dir)
    base = f"{scenario.name}_{scenario.controller_mode}"
    csv_name, summary_name = f"{base}.csv", f"{base}_summary.json"
    problem = _output_dir_error(outdir, [csv_name, summary_name])
    if problem:
        return _report(problem)
    result = sim.run(scenario)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        write_trace_csv(outdir / csv_name, result, scenario.state_dim)
        write_summary_json(outdir / summary_name, result)
    except OSError as exc:
        return _report(str(exc))
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
    sc = _load(args)
    if sc is None:
        return EXIT_ERROR
    for idx, (f, gainset) in enumerate(zip(sc.followers, sc.gain_sets)):
        care_res = care_residual(f.A, f.B, f.Q, f.U, gainset.P)
        reg_res = np.linalg.norm(sc.S - f.A - f.B @ gainset.Pi)
        print(f"follower {idx + 1}:")
        for name in ("P", "K", "H", "Pi"):
            print(f"  {name} =")
            for row in np.atleast_2d(getattr(gainset, name)):
                print("    [" + ", ".join(f"{v:.17g}" for v in row) + "]")
        print(f"  riccati_residual = {care_res:.3e}")
        print(f"  regulator_residual = {reg_res:.3e}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return EXIT_ERROR
    if args.param not in SWEEPABLE:
        return _report(
            f"unknown sweep parameter {args.param!r}; choose from {SWEEPABLE}"
        )
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        return _report(f"--values: {exc}")
    outdir = Path(args.output_dir)
    sweep_name = f"{scenario.name}_sweep_{args.param}.json"
    problem = _output_dir_error(outdir, [sweep_name])
    if problem:
        return _report(problem)
    rows = []
    for value in values:
        variant = scenario.with_value(args.param, value)
        violations = variant.validate()
        if violations:
            return _report(f"{args.param}={value} invalid: {violations}")
        try:
            result = sim.run(variant)
        except SimulationError as exc:
            return _report(f"{args.param}={value}: simulation aborted: {exc}")
        row = dict(result.summary)
        row[args.param] = value
        rows.append(row)
        print(json.dumps(row, sort_keys=True))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / sweep_name, rows)
    except OSError as exc:
        return _report(str(exc))
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
    try:
        return args.func(args)
    except SimulationError as exc:
        return _report(f"simulation aborted: {exc}")


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()

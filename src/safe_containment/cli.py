"""Command-line front end.

Subcommands:

    run       simulate a scenario, write trace CSV and summary JSON
    validate  load and validate a scenario file, report every violation
    gains     print synthesized P, K, H, Pi and residuals per follower
    sweep     rerun a scenario varying one scalar parameter

Exit codes: 0 success, 1 error (parse/validation/simulation), 2 divergence
threshold crossed during the run, 3 at least one infeasible safety QP.  A
sweep that writes every row exits 3 if any variant met an infeasible QP,
else 2 if any diverged, naming each such variant on stderr.

CSV schema (stable): one header row; column order is ``t``, then one block
per follower i (x, zeta, theta, rho_hat, u_c, gamma_hat, u_r, u_bar, u,
delta_u, eps, e_c, delta_o; state blocks x, zeta, eps, e_c and delta_o have
components suffixed _1.._n, input blocks u_c .. delta_u _1.._m), then one
block per follower pair (i, j) in lexicographic order (d_i_j, h_i_j,
active_i_j).  The layout is ``sim.TRACE_FIELDS``.  Floats carry 17
significant digits so values round-trip: each cell holds the bytes of
``b"%.17g" % v``, made for blocks of cells at once by a numpy kernel in
one pass; a block holding a cell it cannot decide exactly (NaN, an
infinity, the extremes of the exponent range, a near-tie) goes to ``%``
itself whole.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import mmap
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
# 2-vCPU x86 KVM guest, in a process of about 85 MB, a fork, its part file
# and the copy back cost about 10 ms, what formatting 50,000 cells takes at
# _write_rows' 0.2 us a cell; one process and two took about as long on
# tables of 80,000 to 120,000 cells.  So a table of fewer than twice this
# many cells is written by one process.
MIN_CHUNK_CELLS = 50_000


def _usable_cpus() -> int:
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The cells are formatted by a numpy kernel that writes the bytes of
# b"%.17g" % v for a block of cells at once.  A cell's magnitude a is
# scaled to S = a * 10**(16 - e), e = floor(log10 a), exactly enough to
# round it: 10**k is held as a double-double hi + lo (Dekker 1971), and
# a * hi is formed without error by splitting both factors into 26-bit
# halves.  The 17 digits of round(S) and the %g layout are then picked
# from a 48-byte field per cell by a mask chosen by the cell's shape (sign,
# exponent, last nonzero digit).  A block with a nonzero cell the kernel
# cannot decide goes to b"%.17g" % v whole: NaN, infinities, magnitudes
# outside [_KERNEL_MIN, _KERNEL_MAX] (subnormals among them), an S within
# _TIE_MARGIN of half an integer (the error of S is under 1e-14), and an S
# under 10**16 or rounding to 10**17.  Near-ties are some 2e-6 of cells
# near 1, but 0.2% near 4e11 and a quarter or more in [1e15, 1e16): a
# table of such values is written at the speed of %.

# cells per block: the fastest of 512 to 16,384 on the dense trace; the
# workspace takes about 250 B a cell
_BLOCK_CELLS = 4096
_KERNEL_MIN, _KERNEL_MAX = 1e-280, 1e280
_TIE_MARGIN = 1e-6
_POW10_SPAN = 300  # covers 16 - e for e in [-281, 281]
_SPLITTER = 2.0 ** 27 + 1


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of x into halves of at most 26 significant bits."""
    c = _SPLITTER * x
    high = c - (c - x)
    return high, x - high


def _pow10_double_doubles() -> tuple[np.ndarray, ...]:
    """hi, its halves and lo with hi + lo = 10**k to 2**-106, for k in
    [-_POW10_SPAN, _POW10_SPAN]; Python's int division rounds exactly."""
    hi, lo = [], []
    for k in range(-_POW10_SPAN, _POW10_SPAN + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den
        m, p = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * p - m * den) / (den * p))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


_POW10, _POW10_HIGH, _POW10_LOW, _POW10_REST = _pow10_double_doubles()


def _scaled(a, k):
    """a * 10**k as s + r: s the rounded double, |r| <= ulp(s) / 2."""
    a_high, a_low = _split(a)
    i = k + _POW10_SPAN
    hi, hi_high, hi_low = _POW10[i], _POW10_HIGH[i], _POW10_LOW[i]
    p = a * hi
    err = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high
           + a_low * hi_low)
    t = err + a * _POW10_REST[i]
    s = p + t
    return s, t - (s - p)


# A cell's field: 48 bytes, read as six native uint64 words.
#   word 0      "-" "0" "." "0" "0" "0" d0 "."
#   words 1-4   d1 "." d2 "." ... d16 "."
#   word 5      "e" "+" "-" and three exponent digits, separator, unused
_DIGIT = 6  # column of digit j: _DIGIT + 2 j; its point follows it
_E, _EXP, _SEP = 40, 43, 46
_FIELD = 48


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 8 ASCII codes as native uint64 words."""
    return np.ascontiguousarray(chars, np.uint8).view(np.uint64).ravel()


def _digit_columns(count: int, width: int) -> np.ndarray:
    """The ``width`` digits of 0 .. count - 1 as rows of uint8."""
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int16)
    return (np.arange(count, dtype=np.int16)[:, None] // powers % 10
            ).astype(np.uint8)


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """For each 4-digit group 0000-9999: its word of digits and points,
    and the index of its last nonzero digit (far below 0 for 0000)."""
    digits = _digit_columns(10_000, 4)
    word = _words(np.insert(48 + digits, [1, 2, 3, 4], ord("."), axis=1))
    last = np.where(digits.any(axis=1),
                    3 - np.argmax(digits[:, ::-1] != 0, axis=1), -99)
    return word, last


_GROUP_WORD, _GROUP_LAST = _group_tables()
_LEAD_WORD = _words([list(b"-0.000") + [48 + d, ord(".")] for d in range(10)])
_EXP_WORD = _words(np.hstack([
    np.tile(np.frombuffer(b"e+-", np.uint8), (400, 1)),
    48 + _digit_columns(400, 3),
    np.zeros((400, 2), np.uint8),
]))

# shapes: fixed point for exponents -4..16, then exponent form by the
# exponent's sign and digit count, each by the last nonzero digit (17
# each); then zero; by sign
_N_FIXED = 21 * 17
_ZERO_SHAPE = _N_FIXED + 4 * 17
_N_SHAPES = _ZERO_SHAPE + 1


def _shape_masks() -> np.ndarray:
    masks = np.zeros((2, _N_SHAPES, _FIELD), bool)
    masks[:, :, _SEP] = True
    masks[1, :, 0] = True  # the minus sign
    for last in range(17):
        for x in range(-4, 17):
            row = masks[:, (x + 4) * 17 + last]
            end = max(x, last)
            row[:, _DIGIT:_DIGIT + 2 * end + 1:2] = True
            if x < 0:
                row[:, 1:2 - x] = True  # "0." and -x - 1 zeros
            elif last > x:
                row[:, _DIGIT + 2 * x + 1] = True
        for code in range(4):
            row = masks[:, _N_FIXED + code * 17 + last]
            row[:, _DIGIT:_DIGIT + 2 * last + 1:2] = True
            row[:, _DIGIT + 1] = last > 0
            row[:, [_E, _E + 1 + code // 2, _EXP + 1, _EXP + 2]] = True
            row[:, _EXP] = code % 2  # a third exponent digit
    masks[:, _ZERO_SHAPE, _DIGIT] = True
    return masks.reshape(2 * _N_SHAPES, _FIELD)


_SHAPE_MASK = _shape_masks()


def _format_block(cells: np.ndarray, field: np.ndarray,
                  separators: np.ndarray):
    """The CSV bytes of ``cells`` (float64, row-major) as one buffer.

    ``field`` is a (>= len(cells), _FIELD) uint8 workspace and
    ``separators`` the byte that follows each cell."""
    n = len(cells)
    words = field[:n].view(np.uint64)
    a = np.abs(cells)
    decided = (a >= _KERNEL_MIN) & (a <= _KERNEL_MAX)
    a = np.where(decided, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s, r = _scaled(a, 16 - e)
    floor_r = np.floor(r)
    frac = r - floor_r
    d = s.astype(np.int64) + floor_r.astype(np.int64) + (frac > 0.5)
    decided &= ((np.abs(frac - 0.5) >= _TIE_MARGIN) & (d < 10 ** 17)
                & ((s > 1e16) | ((s == 1e16) & (r >= 0))))  # S >= 10**16
    zero = cells == 0
    if not (decided | zero).all():
        return b"".join(b"%.17g%c" % cell for cell in
                        zip(cells.tolist(), separators[:n].tobytes()))
    d[zero] = 0  # zeros print their first digit
    top, bottom = np.divmod(d, 10 ** 8)
    lead, top = np.divmod(top, 10 ** 8)
    groups = (*np.divmod(top, 10 ** 4), *np.divmod(bottom, 10 ** 4))
    words[:, 0] = _LEAD_WORD.take(lead)
    for j, g in enumerate(groups):
        words[:, 1 + j] = _GROUP_WORD.take(g)
    exp = np.abs(e)
    words[:, 5] = _EXP_WORD.take(exp)
    field[:n, _SEP] = separators[:n]
    last = np.maximum.reduce(
        [_GROUP_LAST.take(g) + 1 + 4 * j for j, g in enumerate(groups)]
        + [np.zeros(n, np.int64)])
    shape = np.where((e >= -4) & (e < 17), (e + 4) * 17 + last,
                     _N_FIXED + ((e < 0) * 2 + (exp >= 100)) * 17 + last)
    shape[zero] = _ZERO_SHAPE
    shape += np.signbit(cells) * _N_SHAPES
    return np.compress(_SHAPE_MASK.take(shape, axis=0).ravel(),
                       field[:n].ravel())


def _write_rows(fh, rows: np.ndarray) -> None:
    """Write ``rows`` to the binary file ``fh`` as CSV lines, every cell
    as ``b"%.17g" % v`` writes it, ``_BLOCK_CELLS`` cells at a time."""
    n_cols = rows.shape[1]
    block = max(1, _BLOCK_CELLS // n_cols)
    field = np.empty((block * n_cols, _FIELD), np.uint8)
    separators = np.tile(
        np.frombuffer(b"," * (n_cols - 1) + b"\n", np.uint8), block)
    for start in range(0, len(rows), block):
        cells = rows[start:start + block].ravel()
        fh.write(_format_block(cells, field, separators))


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
    """Write the run's table as the trace CSV, each cell as
    ``b"%.17g" % v`` writes it, through ``_write_rows``' numpy blocks.

    The rows are cut into contiguous chunks, one per usable CPU but none
    under ``MIN_CHUNK_CELLS`` cells.  A forked child formats each chunk
    after the first into an unnamed temporary file in ``path``'s
    directory; this process writes the header and the first chunk, then
    appends the parts in order, so the bytes do not depend on the chunk
    count.  The file is written under a temporary name and takes its place
    at ``path`` only once complete.  A child that fails raises ``OSError``,
    with the errno of the ``OSError`` that stopped it, if one did; every
    child is reaped however the write ends.  ``state_dim`` is not
    needed: the result's layout gives the columns."""
    layout = result.layout
    table = result.table[:, :layout.n_csv]
    n_chunks = max(1, min(_usable_cpus(), table.size // MIN_CHUNK_CELLS))
    bounds = [len(table) * k // n_chunks for k in range(n_chunks + 1)]
    chunks = [table[a:b] for a, b in zip(bounds, bounds[1:])]
    children = []
    try:
        with contextlib.ExitStack() as parts:
            # shared with the children: chunk k's errno, if one stopped it
            errnos = parts.enter_context(mmap.mmap(-1, n_chunks))
            for k in range(1, n_chunks):
                part = parts.enter_context(
                    tempfile.TemporaryFile(dir=path.parent))
                # forked, not spawned: the child reads the table in place,
                # with nothing to import or pickle; os._exit skips this
                # process's exit handlers and buffers
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        _write_rows(part, chunks[k])
                        part.flush()
                        status = 0
                    except OSError as exc:
                        errnos[k] = exc.errno or 0
                    finally:
                        os._exit(status)
                children.append((pid, part, k))
            with _replacing(path) as fh:
                out = fh.buffer
                out.write((",".join(layout.header()) + "\n").encode())
                _write_rows(out, chunks[0])
                out.flush()
                while children:
                    pid, part, k = children[0]
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    del children[0]
                    if errnos[k]:
                        raise OSError(errnos[k], os.strerror(errnos[k]),
                                      str(path))
                    if status != 0:
                        raise OSError(
                            f"{path}: a process writing its rows exited "
                            f"with status {status}"
                        )
                    part.seek(0)
                    shutil.copyfileobj(part, out)
    finally:
        for pid, *_ in children:  # left only by a failure or an interrupt
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


def _outcome(summary: dict, threshold: float, prefix: str = "") -> int:
    """A completed run's exit code; an infeasible QP or a divergence is
    also named on stderr, after ``prefix``."""
    if summary["qp_infeasible_count"] > 0:
        print(f"{prefix}infeasible safety QP encountered at "
              f"t={summary['first_infeasible_time']:.6f}", file=sys.stderr)
        return EXIT_QP_INFEASIBLE
    if summary["first_divergence_time"] is not None:
        print(f"{prefix}divergence detected: containment error crossed "
              f"{threshold:g} at t={summary['first_divergence_time']:.6f}",
              file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


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
    return _outcome(result.summary, scenario.divergence_threshold)


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
    rows, codes = [], []
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
        codes.append(_outcome(result.summary, variant.divergence_threshold,
                              f"{args.param}={value}: "))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / sweep_name, rows)
    except OSError as exc:
        return _report(str(exc))
    # an infeasible QP (3) outranks a divergence (2), which outranks 0
    return max(codes)


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

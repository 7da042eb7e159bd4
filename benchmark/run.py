"""Benchmark of whole ``safe-containment run`` jobs, end to end and per layer.

    python3 benchmark/run.py --workload paper_saar --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --seed 1 --seconds 30        # every workload in turn

A job makes the library calls ``safe-containment run`` makes:
``scenario_from_dict``, ``sim.run``, ``cli.write_trace_csv`` and
``cli.write_summary_json``.  One run repeats jobs of one workload for
``--seconds`` seconds, checks the first job's outputs with ``checks`` and
every later job's outputs for byte identity with the first, and prints one
JSON object as its last line.  With ``--trace 1`` the run alternates
untraced and traced jobs and reports the per-layer figures of the traced
ones (see ``tracing``).  With no ``--workload`` every workload runs in its
own process, one after another.

The package is imported from ``src/`` of the checkout this file sits in,
so nothing needs installing.  Outputs go to ``.bench_out/`` at the root
of the checkout; trace CSVs are deleted after each job.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Numerics run single-threaded: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402

SETUP_BLOCKS = 4  # blocks of set-ups per untraced job
SETUP_REPEATS = 5  # set-ups per block, timed together
WRITE_MIN_S = 0.5  # an untraced job writes its outputs again until this is spent
MIN_ROUNDS = 2  # so the byte-identity check always has a second job

E2E_UNITS = {
    "job_s": "s", "setup_s": "s", "run_s": "s", "write_s": "s",
    "peak_rss_mb": "MB", "max_ec_tail": "1",
}


def import_program():
    """The package modules, from this checkout's ``src/`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from safe_containment import cli, safety, scenario, sim

    if not Path(sim.__file__).resolve().is_relative_to(src):
        raise ImportError(f"safe_containment was imported from {sim.__file__}, not {src}")
    return SimpleNamespace(cli=cli, safety=safety, scenario=scenario, sim=sim)


class Job:
    """Repeated jobs of one workload; the first job's outputs are checked,
    every later job's must be byte-identical to them."""

    def __init__(self, prog, doc: dict, outdir: Path):
        self.prog, self.doc, self.outdir = prog, doc, outdir
        self.reference = None  # digest of the first job's checked outputs
        self.check_info = None
        self.errors: list[str] = []  # failed checks

    def run(
        self, tracer=None, setup_blocks: int = 1, setup_repeats: int = 1,
        write_min_s: float = 0.0,
    ) -> dict:
        """One job; returns the (start, end) clock readings of its parts
        and records in ``errors`` every check its outputs fail."""
        prog, doc = self.prog, self.doc
        wrap = tracer.span if tracer is not None else (lambda name, fn: fn)
        load = wrap("scenario.load", prog.scenario.scenario_from_dict)
        simulate = wrap("sim.run", prog.sim.run)
        write_trace = wrap("cli.write_trace", prog.cli.write_trace_csv)
        write_summary = wrap("cli.write_summary", prog.cli.write_summary_json)
        clock = time.perf_counter

        setups = []
        for _ in range(setup_blocks):
            start = clock()
            for _ in range(setup_repeats):
                scenario = load(doc, doc["name"])
                prog.sim.Engine(scenario)
            setups.append((start, clock()))
        t0 = clock()
        result = simulate(scenario)
        t1 = clock()
        base = self.outdir / f"{scenario.name}_{scenario.controller_mode}"
        csv_path = base.with_suffix(".csv")
        summary_path = base.parent / f"{base.name}_summary.json"
        writes = []
        while not writes or sum(b - a for a, b in writes) < write_min_s:
            start = clock()
            write_trace(csv_path, result, scenario.state_dim)
            write_summary(summary_path, result)
            writes.append((start, clock()))
        times = {
            "setups": setups,
            "setup_repeats": setup_repeats,
            "run": (t0, t1),
            "writes": writes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "max_ec_tail": result.summary["max_ec_tail"],
        }
        if tracer is not None:
            tracer.count("cli.trace_rows", len(result.records))
            tracer.count("cli.csv_bytes", csv_path.stat().st_size)

        digest = self._digest(csv_path, result.summary)
        try:
            if self.reference is None:
                self.reference = digest
                info = checks.check_records(doc, result.records, result.summary)
                info["csv_rows"] = checks.check_csv(csv_path, result.records)
                checks.check_summary_json(summary_path, result.summary)
                self.check_info = info
            elif digest != self.reference:
                raise checks.CheckFailed("outputs differ from the first job's")
        except checks.CheckFailed as exc:
            self.errors.append(str(exc))
        csv_path.unlink()
        summary_path.unlink()
        return times

    @staticmethod
    def _digest(csv_path: Path, summary: dict) -> str:
        h = hashlib.sha256(csv_path.read_bytes())
        stable = {k: v for k, v in summary.items() if k != "wall_clock_s"}
        h.update(json.dumps(stable, sort_keys=True).encode())
        return h.hexdigest()


def short_doc(doc: dict) -> dict:
    """The workload over ten steps, to load lazily imported code first."""
    return dict(doc, horizon=10 * float(doc.get("dt", 1e-3)), output_stride=1)


def wall(a: float, b: float) -> float:
    return b - a


def run_workload(args) -> dict:
    prog = import_program()
    doc = workloads.WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    attempted = failed = 0
    untraced, traced = [], []
    probe = SpeedProbe()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        warm_up = Job(prog, short_doc(doc), Path(tmp))
        warm_up.run()
        job = Job(prog, doc, Path(tmp))
        round_s = []
        start = time.perf_counter()
        with probe:
            # Whole rounds only, at least MIN_ROUNDS of them; start another
            # while the quickest round so far would end in time.
            while len(round_s) < (1 if args.trace else MIN_ROUNDS) or (
                time.perf_counter() - start + min(round_s) <= args.seconds
            ):
                t0 = time.perf_counter()
                plan = [None, tracing.Tracer(probe.clock)] if args.trace else [None]
                for tracer in plan:
                    attempted += 1
                    try:
                        if tracer is None:
                            untraced.append(job.run(
                                setup_blocks=SETUP_BLOCKS, setup_repeats=SETUP_REPEATS,
                                write_min_s=WRITE_MIN_S,
                            ))
                        else:
                            with tracer.install(prog.sim, prog.safety):
                                traced.append((job.run(tracer=tracer), tracer))
                    except (prog.sim.SimulationError, prog.safety.QPInfeasibleError) as exc:
                        failed += 1
                        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                round_s.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
    errors = warm_up.errors + job.errors

    print(
        f"{args.workload} seed={args.seed}: {attempted} jobs in {elapsed:.1f} s, "
        f"{failed} failed, checks {job.check_info}"
    )
    if args.trace:
        metrics, count_errors = layer_metrics(untraced, traced, probe)
        errors.extend(count_errors)
        units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
        units["cli.csv_bytes"] = "bytes"
        write_trace_file(args, metrics, traced)
    else:
        metrics = end_to_end_metrics(untraced, probe.scaled)
        units = E2E_UNITS
        print(f"  wall job_s = {end_to_end_metrics(untraced, wall)['job_s']:.6g} s")
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {units[name]}")
    return {
        "correct": not errors and job.check_info is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def end_to_end_metrics(jobs: list[dict], measure) -> dict:
    """Medians over the jobs, each part's time given by ``measure(a, b)``."""
    setups = [
        [measure(*block) / job["setup_repeats"] for block in job["setups"]] for job in jobs
    ]
    parts = [
        {
            "setup_s": statistics.median(job_setups),
            "run_s": measure(*job["run"]),
            "write_s": statistics.median(measure(*w) for w in job["writes"]),
        }
        for job, job_setups in zip(jobs, setups)
    ]
    return {
        "job_s": statistics.median(sum(p.values()) for p in parts),
        "setup_s": statistics.median(s for job_setups in setups for s in job_setups),
        "run_s": statistics.median(p["run_s"] for p in parts),
        "write_s": statistics.median(p["write_s"] for p in parts),
        "peak_rss_mb": jobs[0]["peak_rss_mb"],
        "max_ec_tail": jobs[0]["max_ec_tail"],
    }


def layer_metrics(untraced: list[dict], traced: list, probe) -> tuple[dict, list]:
    """Median per-layer times over the traced jobs; counts must repeat.

    Span times exclude the probe's runs (the tracer reads ``probe.clock``)
    and are put in reference seconds with the probe's mean speed over the
    whole job."""
    per_job = []
    for job, tracer in traced:
        speed = probe.speed(job["setups"][0][0], job["writes"][-1][1])
        per_job.append({
            name: value * speed if name.endswith("_s") else value
            for name, value in tracer.layer_metrics().items()
        })
    errors = []
    metrics = {}
    for name in per_job[0]:
        values = [m[name] for m in per_job]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                errors.append(f"{name} differs between traced jobs: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_s"] = statistics.median(
        probe.scaled(*job["run"]) for job, _ in traced
    ) - statistics.median(probe.scaled(*job["run"]) for job in untraced)
    return metrics, errors


def write_trace_file(args, metrics: dict, traced: list) -> None:
    spans = {
        name: {"count": c, "total_s": tot, "self_s": own}
        for name, (c, tot, own) in traced[0][1].spans.items()
    }
    path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": metrics, "first_job_spans": spans}, fh, indent=2)
        fh.write("\n")


def run_all(args) -> dict:
    """Every workload in a fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=list(workloads.WORKLOADS),
        help="one workload; all of them, each in its own process, if omitted",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run_all(args) if args.workload is None else run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

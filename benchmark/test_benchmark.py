"""Tests of the benchmark itself: the workload generator, that every output
check passes on the program's output and fails on a corrupted copy of
it, that traced counts repeat, and that the command refuses to run
without the program's sources.

    python3 -m pytest benchmark
"""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import probe
import run
import tracing
import workloads

PROG = run.import_program()


def crowded_doc(mode: str) -> dict:
    """``paper_sec4`` with the followers 0.35 apart, so the filter works
    from the first step."""
    x0 = [[0.25, 0, 0], [0, 0.25, 0], [-0.25, 0, 0], [0, -0.25, 0]]
    doc = dict(workloads.paper_doc(), name="crowded", horizon=0.1,
               output_stride=1, controller_mode=mode)
    doc["followers"] = [dict(f, x0=x) for f, x in zip(doc["followers"], x0)]
    return doc


def simulate(doc, tmp_path):
    scenario = PROG.scenario.scenario_from_dict(doc)
    result = PROG.sim.run(scenario)
    csv_path = tmp_path / f"{doc['name']}.csv"
    summary_path = tmp_path / f"{doc['name']}_summary.json"
    PROG.cli.write_trace_csv(csv_path, result, scenario.state_dim)
    PROG.cli.write_summary_json(summary_path, result)
    return result, csv_path, summary_path


@pytest.fixture(scope="module")
def saar(tmp_path_factory):
    doc = crowded_doc("saar")
    return (doc, *simulate(doc, tmp_path_factory.mktemp("saar")))


@pytest.fixture(scope="module")
def unsafe(tmp_path_factory):
    doc = crowded_doc("resilient_unsafe")
    return (doc, *simulate(doc, tmp_path_factory.mktemp("unsafe")))


def tight_sample(doc, records):
    """Index of a sample where agent 0's filtered input sits on a row."""
    for k, rec in enumerate(records):
        rows, rhs, _ = checks.barrier_rows(doc, rec, 0)
        if np.any(np.abs(rows @ rec.u[0] - rhs) <= 1e-9 * np.maximum(1, np.abs(rhs))):
            return k
    raise AssertionError("the filter never acts on agent 0")


# -- workloads -------------------------------------------------------------

def test_swarm_generator_is_seeded():
    assert workloads.swarm16_saar(7) == workloads.swarm16_saar(7)
    assert workloads.swarm16_saar(7) != workloads.swarm16_saar(8)
    doc = workloads.swarm16_saar(7)
    scenario = PROG.scenario.scenario_from_dict(doc)
    assert scenario.n_followers == 16 and scenario.n_leaders == 4
    x0 = np.array([f["x0"] for f in doc["followers"]])
    gaps = np.linalg.norm(x0[:, None] - x0[None], axis=2) + np.eye(16) * 9
    assert gaps.min() > 0.5 > scenario.d_s
    assert 0 < scenario.attack_start < scenario.horizon


def test_paper_workloads_do_not_depend_on_the_seed():
    for name in ("paper_saar", "paper_dense_unsafe"):
        assert workloads.WORKLOADS[name](1) == workloads.WORKLOADS[name](2)


# -- the checks accept the program's output ----------------------------------

def test_barrier_rows_match_the_program(saar):
    doc, result, _, _ = saar
    rec = result.records[5]
    scenario = PROG.scenario.scenario_from_dict(doc)
    models = PROG.sim.Engine(scenario).models
    rows, rhs, js = checks.barrier_rows(doc, rec, 1)
    for k, j in enumerate(js):
        con = PROG.safety.build_constraint(1, j, rec.x, models, rec.u[j], 5.0, 0.3)
        np.testing.assert_allclose(rows[k], con.a, rtol=1e-13, atol=1e-13)
        assert abs(rhs[k] - con.b) <= 1e-12 * max(1.0, abs(con.b))


def test_checks_pass_on_program_output(saar, unsafe):
    for doc, result, csv_path, summary_path in (saar, unsafe):
        checks.check_records(doc, result.records, result.summary)
        assert checks.check_csv(csv_path, result.records) == len(result.records)
        checks.check_summary_json(summary_path, result.summary)
    assert checks.check_records(saar[0], saar[1].records, saar[1].summary)["tight_qps"] > 0


# -- each check rejects a corrupted result -----------------------------------

def test_containment_check_rejects_a_moved_follower(saar):
    doc, result, _, _ = saar
    records = copy.deepcopy(result.records[:20])
    records[10].x[2, 1] += 1e-6
    with pytest.raises(checks.CheckFailed, match="e_c"):
        checks.check_containment_error(doc, records)


def test_safety_check_rejects_a_follower_inside_d_s(saar):
    doc, result, _, _ = saar
    records = copy.deepcopy(result.records[:20])
    rec = records[10]
    rec.x[1] = rec.x[0] + np.array([0.2, 0.0, 0.0])
    diffs = rec.x[[0, 0, 0, 1, 1, 2]] - rec.x[[1, 2, 3, 2, 3, 3]]
    rec.pair_distance = np.sqrt((diffs**2).sum(axis=1))
    rec.pair_h = 0.3**2 - rec.pair_distance**2
    checks.check_pair_geometry(doc, records, safe=False)
    with pytest.raises(checks.CheckFailed, match="below d_s"):
        checks.check_pair_geometry(doc, records, safe=True)


def test_geometry_check_rejects_a_wrong_distance(saar):
    doc, result, _, _ = saar
    records = copy.deepcopy(result.records[:20])
    records[3].pair_distance[4] += 1e-9
    with pytest.raises(checks.CheckFailed, match="d_2_4"):
        checks.check_pair_geometry(doc, records, safe=True)


@pytest.mark.parametrize("nudge", [1e-6, -1e-6])
def test_filter_check_rejects_a_nudged_input(saar, nudge):
    doc, result, _, _ = saar
    k = tight_sample(doc, result.records)
    records = copy.deepcopy(result.records[k:k + 1])
    records[0].u[0, 0] += nudge
    with pytest.raises(checks.CheckFailed, match="u_1"):
        checks.check_filter_optimality(doc, records)


def test_filter_check_rejects_a_modified_slack_input(saar):
    doc, result, _, _ = saar
    records = copy.deepcopy(result.records)
    rec = next(r for r in records if np.array_equal(r.u[2], r.u_bar[2]))
    rec.u[2, 1] += 1e-6
    with pytest.raises(checks.CheckFailed, match="barrier row|projection"):
        checks.check_filter_optimality(doc, [rec])


def test_filter_check_rejects_an_active_flag_on_a_slack_row(saar):
    doc, result, _, _ = saar
    records = copy.deepcopy(result.records)
    rec = next(r for r in records if not r.pair_active[5])
    rec.pair_active[5] = True
    with pytest.raises(checks.CheckFailed, match="marked active"):
        checks.check_filter_optimality(doc, [rec])


def test_unfiltered_check_rejects_a_modified_input(unsafe):
    _, result, _, _ = unsafe
    records = copy.deepcopy(result.records[:5])
    checks.check_unfiltered(records)
    records[4].u = records[4].u.copy()  # the program hands out u_bar itself
    records[4].u[3, 2] += 1e-12
    with pytest.raises(checks.CheckFailed, match="u differs"):
        checks.check_unfiltered(records)


@pytest.mark.parametrize("name", ["theta", "rho_hat"])
def test_gain_check_rejects_a_decrease(saar, name):
    _, result, _, _ = saar
    records = copy.deepcopy(result.records[:30])
    getattr(records[20], name)[1] = getattr(records[19], name)[1] - 1e-12
    with pytest.raises(checks.CheckFailed, match=name):
        checks.check_monotone_gains(records)


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("qp_infeasible_count", 1, "infeasible"),
        ("max_ec_tail", None, "max_ec_tail"),
        ("final_ec", None, "final_ec"),
        ("min_pair_distance", 1.0, "min_pair_distance"),
    ],
)
def test_summary_check_rejects_an_edited_summary(saar, key, value, match):
    doc, result, _, _ = saar
    summary = dict(result.summary)
    summary[key] = summary[key] * (1 + 1e-6) if value is None else value
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_records(doc, result.records, summary)


def test_record_count_check_rejects_a_missing_sample(saar):
    doc, result, _, _ = saar
    with pytest.raises(checks.CheckFailed, match="trace records"):
        checks.check_records(doc, result.records[:-1], result.summary)


def _edit_csv(src: Path, dst: Path, edit) -> Path:
    lines = src.read_text().splitlines(keepends=True)
    dst.write_text("".join(edit(lines)))
    return dst


def _change_digit(lines):
    cells = lines[7].split(",")
    cells[3] = cells[3].replace(cells[3].lstrip("-")[0], str((int(cells[3].lstrip("-")[0]) + 1) % 10), 1)
    return lines[:7] + [",".join(cells)] + lines[8:]


@pytest.mark.parametrize(
    "edit, match",
    [
        (_change_digit, "column x_1_3"),
        (lambda lines: lines[:-1], "rows"),
        (lambda lines: [",".join(line.split(",")[:-1]) + "\n" for line in lines], "columns"),
        (lambda lines: [lines[0].replace("x_1_1", "x_1_0")] + lines[1:], "header"),
    ],
    ids=["digit", "row", "column", "header"],
)
def test_csv_check_rejects_an_edited_file(saar, tmp_path, edit, match):
    _, result, csv_path, _ = saar
    bad = _edit_csv(csv_path, tmp_path / "bad.csv", edit)
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_csv(bad, result.records)


def test_summary_json_check_rejects_an_edited_file(saar, tmp_path):
    _, result, _, summary_path = saar
    doc = json.loads(summary_path.read_text())
    doc["min_pair_distance"] = np.nextafter(doc["min_pair_distance"], 1.0)
    bad = tmp_path / "summary.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="summary JSON"):
        checks.check_summary_json(bad, result.summary)


# -- tracing -----------------------------------------------------------------

def test_traced_counts_repeat_and_wrappers_come_off(saar, tmp_path):
    doc = dict(saar[0], horizon=0.02)
    original = PROG.sim.Engine._rk4
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.install(PROG.sim, PROG.safety):
            run.Job(PROG, doc, tmp_path).run(tracer=tracer)
        counts.append({k: v for k, v in tracer.layer_metrics().items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["sim.rk4_steps"] == 20
    assert counts[0]["safety.qp_calls"] == 3 * counts[0]["safety.filter_calls"]
    assert PROG.sim.Engine._rk4 is original


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "paper_saar",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- speed probe ---------------------------------------------------------------

def test_probe_takes_its_runs_out_and_scales_by_their_speed():
    speed = probe.SpeedProbe()
    speed.runs = [(1.0, 1.0 + probe.REFERENCE_S / 2)]  # twice the reference speed
    assert speed.speed(0.9, 1.2) == pytest.approx(2.0)
    assert speed.scaled(0.9, 1.2) == pytest.approx(2 * (0.3 - probe.REFERENCE_S / 2))
    assert speed.scaled(1.1, 1.2) == pytest.approx(2 * 0.1)  # run nearby, not inside
    timer = probe.SpeedProbe()
    with timer:
        wall_start, start = time.perf_counter(), timer.clock()
        while len(timer.runs) < 3:
            pass
        wall_s, clock_s = time.perf_counter() - wall_start, timer.clock() - start
    assert timer.probe_s > 0
    assert clock_s == pytest.approx(wall_s - timer.probe_s, abs=1e-6)

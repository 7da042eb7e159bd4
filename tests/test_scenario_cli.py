import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from safe_containment import cli, gains, sim
from safe_containment.scenario import (
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
)

PAPER_A = [
    [[-2, 1, 0], [0, -3, 1], [0.5, 0, -1]],
    [[-1, 0, 0.5], [0, -2, 1], [0.5, 0, -0.5]],
    [[-1, 1, 0], [0, -3, 1], [0, 0.5, -1]],
    [[-1, 0.5, 0], [0.5, -1.5, 0.5], [-0.5, 0, -2]],
]
PAPER_B2 = [[0.5, 1, 0], [1, 0.5, 0], [0, 0, 1]]
PAPER_S = [[0, -2, 1], [2, 0, 1], [-1, -1, 0]]
PAPER_CIL = [
    ([2.5, 1.5, -6.6], [0.07, 0.04, 0.08]),
    ([2.3, -4.7, 11.5], [0.05, 0.05, 0.04]),
    ([3.6, -4.7, -10.2], [0.10, 0.09, 0.06]),
    ([-2.9, 5.2, -7.7], [0.09, 0.06, 0.07]),
]
PAPER_OL = [
    ([-1.2, 1.5, 2.7], [0.10, 0.17, 0.15]),
    ([3.3, -2.2, -1.7], [0.06, 0.15, 0.12]),
    ([2.8, -5.0, -1.8], [0.14, 0.04, 0.08]),
    ([-5.2, 2.4, -2.1], [0.04, 0.13, 0.14]),
]


def _bundled_doc():
    with open(bundled_scenario_path("paper_sec4")) as fh:
        return json.load(fh)


def _tiny_doc():
    """Two-follower scenario that runs in well under a second."""
    doc = _bundled_doc()
    doc["name"] = "tiny"
    doc["horizon"] = 0.2
    doc["followers"] = copy.deepcopy(doc["followers"][:2])
    doc["leader_x0"] = doc["leader_x0"][:1]
    doc["topology"] = {
        "adjacency": [[0, 1], [1, 0]],
        "pinning": [[1, 1]],
    }
    return doc


def _tiny_doc_m2():
    """``_tiny_doc`` with two inputs per follower (m = 2 < n = 3).  Each
    A is S - B Pi for a Pi, so the regulator equation has a solution."""
    doc = _tiny_doc()
    for f in doc["followers"]:
        f["A"] = [[-2, 1, 0], [0, -3, 1], [-1, -1, 0]]
        f["B"] = [[1, 0], [0, 1], [0, 0]]
        f["U"] = [[1, 0], [0, 1]]
        f["attack_cil"] = {
            key: vals[:2] for key, vals in f["attack_cil"].items()
        }
    return doc


def _write(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_bundled_scenario_matrices_bit_exact():
    scn = load_scenario("paper_sec4")
    assert scn.name == "paper_sec4"
    assert scn.d_s == 0.3
    assert scn.attack_start == 3.0
    assert scn.dt == 1e-3
    assert np.array_equal(scn.S, np.array(PAPER_S, dtype=float))
    for i, f in enumerate(scn.followers):
        assert np.array_equal(f.A, np.array(PAPER_A[i], dtype=float))
        assert np.array_equal(f.Q, 3.0 * np.eye(3))
        assert np.array_equal(f.U, np.eye(3))
        for got, want in zip(f.attack_cil + f.attack_ol,
                             PAPER_CIL[i] + PAPER_OL[i]):
            assert np.array_equal(got, np.array(want))
    assert np.array_equal(scn.followers[0].B, np.eye(3))
    assert np.array_equal(scn.followers[1].B, np.array(PAPER_B2, dtype=float))
    assert np.array_equal(scn.followers[2].B, np.eye(3))
    assert np.array_equal(scn.followers[3].B, np.eye(3))


def test_validation_names_asymmetric_q():
    doc = _tiny_doc()
    doc["followers"][1]["Q"] = [[3, 1, 0], [0, 3, 0], [0, 0, 3]]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any(
        "follower 1" in v and "Q" in v for v in err.value.violations
    )


def test_validation_rejects_zero_dt():
    doc = _tiny_doc()
    doc["dt"] = 0.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any("dt" in v for v in err.value.violations)


def test_validation_collects_all_violations():
    doc = _tiny_doc()
    doc["dt"] = 0.0
    doc["d_s"] = -1.0
    doc["followers"][0]["q"] = -2.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    text = "\n".join(err.value.violations)
    assert "dt" in text and "d_s" in text and "q" in text
    assert len(err.value.violations) >= 3


def test_validation_rejects_zero_q():
    # negative q is covered by test_validation_collects_all_violations
    doc = _tiny_doc()
    doc["followers"][1]["q"] = 0.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.violations == ["follower 1: q must be positive"]


def test_validation_rejects_nonpositive_alpha_and_c():
    for key in ("alpha", "c"):
        for value in (0.0, -1.0):
            doc = _tiny_doc()
            doc["followers"][0][key] = value
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict(doc)
            assert err.value.violations == [
                f"follower 0: {key} must be positive"
            ]


def test_validation_rejects_misshapen_delta():
    doc = _bundled_doc()  # four followers
    doc["delta"] = [[5.0, 5.0], [5.0, 5.0]]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.violations == [
        "delta must be a scalar or a 4x4 array, not shape (2, 2)"
    ]
    doc["delta"] = np.full((4, 4), 5.0).tolist()
    assert scenario_from_dict(doc).delta.shape == (4, 4)


def test_validation_rejects_nonfinite_delta():
    for value in (float("nan"), float("inf")):
        for delta in (value, [[5.0, value], [5.0, 5.0]]):
            doc = _tiny_doc()
            doc["delta"] = delta
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict(doc)
            assert err.value.violations == [
                "delta entries must be finite and positive"
            ]


def test_validation_rejects_nonfinite_attacks_and_lists_every_violation():
    doc = _tiny_doc()
    doc["followers"][0]["attack_cil"]["coeff"][1] = float("nan")
    doc["followers"][0]["attack_ol"]["rate"][0] = float("inf")
    doc["followers"][1]["attack_cil"]["rate"][2] = float("-inf")
    doc["followers"][1]["attack_ol"]["coeff"][2] = float("nan")
    doc["delta"] = [[5.0, float("nan"), 5.0]] * 3
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.violations == [
        "follower 0: attack_cil coeff must be finite",
        "follower 0: attack_ol rate must be finite",
        "follower 1: attack_cil rate must be finite",
        "follower 1: attack_ol coeff must be finite",
        "delta must be a scalar or a 2x2 array, not shape (3, 3)",
        "delta entries must be finite and positive",
    ]


def test_cli_validate_rejects_bad_delta_and_attack_without_traceback(
    tmp_path,
):
    for field, edit in (
        ("delta", lambda doc: doc.update(delta=[[5.0]])),
        ("delta", lambda doc: doc.update(delta=float("nan"))),
        ("attack_cil", lambda doc: doc["followers"][0]["attack_cil"]
         .update(rate=[float("nan")] * 3)),
    ):
        doc = _tiny_doc()
        edit(doc)
        path = _write(tmp_path, doc)
        proc = _run_module_cli("validate", "--scenario", path)
        assert proc.returncode == cli.EXIT_ERROR
        assert "Traceback" not in proc.stderr + proc.stdout
        out = json.loads(proc.stdout)
        assert out["valid"] is False
        assert any(field in v for v in out["violations"])


def _violations(doc):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    return err.value.violations


def test_validation_rejects_nonsquare_s():
    doc = _tiny_doc()
    doc["S"] = [[0, -2, 1], [2, 0, 1]]
    assert "S must be square" in _violations(doc)


def test_validation_rejects_gain_cap_past_exp_overflow():
    doc = _tiny_doc()
    doc["gain_cap"] = 1000.0
    assert _violations(doc) == [
        "gain_cap must be at most 709.783, where exp(gain_cap) overflows"
    ]
    doc["gain_cap"] = 709.78
    assert scenario_from_dict(doc).gain_cap == 709.78


def test_validation_rejects_fractional_output_stride():
    doc = _tiny_doc()
    doc["output_stride"] = 2.5
    assert _violations(doc) == ["output_stride must be a whole number"]
    doc["output_stride"] = 2.0
    stride = scenario_from_dict(doc).output_stride
    assert stride == 2 and type(stride) is int


def test_validation_rejects_horizon_off_the_dt_grid():
    doc = _tiny_doc()
    doc["dt"] = 0.3
    doc["horizon"] = 16.0
    assert _violations(doc) == [
        "horizon must be a whole number of dt steps, not 53.3333"
    ]
    # the bundled horizon and the benchmark's short ones stay valid
    for horizon in (16.0, 0.4, 10 * 1e-3, 0.1):
        doc["dt"] = 1e-3
        doc["horizon"] = horizon
        assert scenario_from_dict(doc).horizon == horizon


def test_validation_rejects_mixed_input_dimensions():
    doc = _tiny_doc()
    doc["followers"][1] = _tiny_doc_m2()["followers"][1]
    assert _violations(doc) == [
        "every follower's B must have the same column count m"
    ]


def test_loader_errors_are_listed_once_and_name_the_field():
    doc = _tiny_doc()
    doc["followers"][0]["A"] = [["a", 1, 0], [0, 1, 0], [0, 0, 1]]
    (violation,) = _violations(doc)
    assert violation.startswith("followers[0].A: not a numeric array (")
    assert "\n" not in violation
    doc = _tiny_doc()
    del doc["followers"][1]["attack_ol"]["rate"]
    assert _violations(doc) == [
        "missing required field followers[1].attack_ol.rate"
    ]
    doc = _tiny_doc()
    del doc["topology"]["pinning"]
    assert _violations(doc) == ["missing required field topology.pinning"]
    assert _violations([doc]) == ["a scenario must be a JSON object"]


def test_a_rejected_topology_is_listed_with_the_other_violations():
    doc = _bundled_doc()
    doc["topology"]["adjacency"][0][1] = -1
    doc["followers"][2]["Q"] = [[3, 0, 0], [0, -3, 0], [0, 0, 3]]
    doc["dt"] = -1
    assert _violations(doc) == [
        "topology: edge and pinning weights must be finite and nonnegative",
        "follower 2: Q must be positive definite",
        "dt must be positive",
    ]


@pytest.mark.parametrize("field, edit, violation", [
    ("Q", lambda f: f.update(Q=[[3, 1, 0], [0, 3, 0], [0, 0, 3]]),
     "Q must be symmetric"),
    ("Q", lambda f: f.update(Q=[[3, 0], [0, 3]]), "Q must be 3x3"),
    ("U", lambda f: f.update(U=[[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
     "U must be positive definite"),
    ("A", lambda f: f.update(A=[[-2, 1, 0], [0, -3, 1]]), "A must be 3x3"),
    ("A", lambda f: f.update(A=[[0, 0, 0], [0, 0, 0], [0, 0, float("nan")]]),
     "A must be finite"),
], ids=["Q-asymmetric", "Q-shape", "U-indefinite", "A-shape", "A-nan"])
def test_bad_model_matrix_is_one_violation(field, edit, violation):
    doc = _tiny_doc()
    edit(doc["followers"][1])
    assert _violations(doc) == [f"follower 1: {violation}"]


def _paper_doc_m2():
    """``paper_sec4`` with every B, U and input attack cut to two inputs:
    S - A is outside the range of B, so the regulator equation
    S = A + B Pi has no solution."""
    doc = _bundled_doc()
    for f in doc["followers"]:
        f["B"] = [row[:2] for row in f["B"]]
        f["U"] = [row[:2] for row in f["U"][:2]]
        f["attack_cil"] = {k: v[:2] for k, v in f["attack_cil"].items()}
    return doc


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_unsolvable_regulator_equation(tmp_path, capsys, command):
    args = [command, "--scenario", _write(tmp_path, _paper_doc_m2())]
    if command == "run":
        args += ["--output-dir", str(tmp_path / "o")]
    assert cli.run_command(args) == cli.EXIT_ERROR
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert len(out["violations"]) == 4
    for idx, v in enumerate(out["violations"]):
        assert v.startswith(f"follower {idx}: regulator equation unsolvable")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_each_validation_gap_without_traceback(
    tmp_path, capsys, command
):
    def mixed_m(doc):
        doc["followers"][1] = _tiny_doc_m2()["followers"][1]

    for field, edit in (
        ("S", lambda doc: doc.update(S=[[0, -2, 1], [2, 0, 1]])),
        ("gain_cap", lambda doc: doc.update(gain_cap=1000.0)),
        ("output_stride", lambda doc: doc.update(output_stride=2.5)),
        ("horizon", lambda doc: doc.update(dt=0.3)),
        ("column count m", mixed_m),
    ):
        doc = _tiny_doc()
        edit(doc)
        args = [command, "--scenario", _write(tmp_path, doc)]
        if command == "run":
            args += ["--output-dir", str(tmp_path / "o")]
        assert cli.run_command(args) == cli.EXIT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert any(field in v for v in out["violations"]), field

    # a directory and a file that is not UTF-8: one line on stderr
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(_tiny_doc()).replace("tiny", "t\xe9")
                       .encode("latin-1"))
    for path, reason in ((tmp_path, "Is a directory"), (latin1, "UTF-8")):
        args = [command, "--scenario", str(path)]
        if command == "run":
            args += ["--output-dir", str(tmp_path / "o")]
        assert cli.run_command(args) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and reason in captured.err
        assert captured.err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "name", ["../escaped", "a/b", "a\\b", "", ".", "..", 7, None]
)
def test_validation_rejects_a_name_that_is_not_a_file_name(name):
    doc = _tiny_doc()
    doc["name"] = name
    (violation,) = _violations(doc)
    assert violation.startswith("name must be a non-empty string")


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_cli_rejects_a_name_that_leaves_the_output_dir(
    tmp_path, capsys, command
):
    doc = _tiny_doc()
    doc["name"] = "../escaped"
    work = tmp_path / "work"
    work.mkdir()
    args = [command, "--scenario", _write(work, doc)]
    if command != "validate":
        args += ["--output-dir", str(work / "out")]
    if command == "sweep":
        args += ["--param", "d_s", "--values", "0.3"]
    assert cli.run_command(args) == cli.EXIT_ERROR
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert any(v.startswith("name must be") for v in out["violations"])
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scn.json", "work"]


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  oops\n}\n')
    with pytest.raises(ScenarioError, match="line 3"):
        load_scenario(str(path))


def test_missing_scenario_file():
    with pytest.raises(FileNotFoundError):
        load_scenario("no_such_scenario_anywhere")


def test_attack_free_copy_zeroes_signals():
    scn = load_scenario("paper_sec4")
    free = scn.attack_free()
    assert free.attack_start == scn.attack_start
    for f in free.followers:
        for table in (f.attack_cil, f.attack_ol):
            assert [part.tolist() for part in table] == [[0.0] * 3] * 2
    # the source scenario keeps its tables
    assert np.array_equal(scn.followers[0].attack_cil[0], PAPER_CIL[0][0])


@pytest.mark.parametrize(
    "make_doc, m", [(_tiny_doc, 3), (_tiny_doc_m2, 2)], ids=["m3", "m2"]
)
def test_cli_run_writes_csv_and_summary(tmp_path, make_doc, m):
    scn_path = _write(tmp_path, make_doc())
    out = tmp_path / "out"
    code = cli.run_command(
        ["run", "--scenario", scn_path, "--output-dir", str(out)]
    )
    assert code == cli.EXIT_OK
    csv_path = out / "tiny_saar.csv"
    summary_path = out / "tiny_saar_summary.json"
    assert csv_path.exists() and summary_path.exists()

    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1:4] == ["x_1_1", "x_1_2", "x_1_3"]
    # 2 followers x (5 state blocks, 6 input blocks, 2 gains) + 1 pair
    n, n_followers, n_pairs = 3, 2, 1
    n_cols = 1 + n_followers * (5 * n + 6 * m + 2) + 3 * n_pairs
    assert len(header) == n_cols
    assert all(len(line.split(",")) == n_cols for line in lines[1:])
    uc = [col for col in header if col.startswith("uc_1_")]
    assert uc == [f"uc_1_{k}" for k in range(1, m + 1)]
    assert header[-3:] == ["d_1_2", "h_1_2", "active_1_2"]

    summary = json.loads(summary_path.read_text())
    for key in (
        "mode", "horizon", "dt", "max_ec_tail", "min_pair_distance",
        "first_divergence_time", "final_theta", "final_rho_hat",
        "qp_infeasible_count",
    ):
        assert key in summary


def test_cli_float_round_trip(tmp_path):
    scn_path = _write(tmp_path, _tiny_doc())
    out = tmp_path / "out"
    assert cli.run_command(
        ["run", "--scenario", scn_path, "--output-dir", str(out)]
    ) == cli.EXIT_OK
    lines = (out / "tiny_saar.csv").read_text().splitlines()
    for line in lines[1:3]:
        for tok in line.split(","):
            assert f"{float(tok):.17g}" == tok
    # every row parses back exactly to the run's table (runs are
    # deterministic), and the table's extra columns are xi
    result = sim.run(load_scenario(scn_path))
    n_csv = len(lines[0].split(","))
    assert result.table.shape == (len(lines) - 1, n_csv + 2 * 3)
    for line, row in zip(lines[1:], result.table):
        assert np.array_equal(np.array(line.split(","), dtype=float),
                              row[:n_csv])


def _random_result(rows):
    """A RunResult of two followers (n = m = 3) whose table holds ``rows``
    rows of random floats of every magnitude, with NaN, infinities, -0.0
    and the smallest subnormal among them."""
    layout = sim.TraceLayout(2, 3, 3)
    rng = np.random.default_rng(10)
    shape = (rows, layout.width)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.0]
    table.flat[::7] = np.resize(specials, table.flat[::7].size)
    return sim.RunResult(table=table, layout=layout, summary={})


def _reference_csv(result):
    """The trace CSV as one process formats it, one value at a time."""
    n_csv = result.layout.n_csv
    lines = [",".join(result.layout.header())]
    lines += [",".join("%.17g" % v for v in row[:n_csv].tolist())
              for row in result.table]
    return ("\n".join(lines) + "\n").encode()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, None, 3], ids=["one", "machine", "three"])
@pytest.mark.parametrize("rows", [1, 2, 3, 1001])
def test_trace_csv_bytes_do_not_depend_on_the_writer_count(
    tmp_path, monkeypatch, cpus, rows
):
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cli, "MIN_CHUNK_CELLS", 1)  # split even tiny tables
    result = _random_result(rows)
    cli.write_trace_csv(tmp_path / "t.csv", result, 3)
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(result)
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    _assert_no_child_left()


def test_a_table_under_two_chunks_is_written_without_a_fork(
    tmp_path, monkeypatch
):
    def no_fork():
        raise AssertionError("forked for a small table")

    monkeypatch.setattr(os, "fork", no_fork)
    n_csv = sim.TraceLayout(2, 3, 3).n_csv
    result = _random_result((2 * cli.MIN_CHUNK_CELLS - 1) // n_csv)
    cli.write_trace_csv(tmp_path / "t.csv", result, 3)
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(result)


@pytest.mark.parametrize("fault", ["child_fails", "interrupted"])
def test_a_failed_trace_write_reaps_its_children_and_parts(
    tmp_path, monkeypatch, fault
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(cli, "MIN_CHUNK_CELLS", 1)
    if fault == "child_fails":
        parent, write_rows = os.getpid(), cli._write_rows

        def write_rows_in_parent_only(fh, rows, row_fmt):
            if os.getpid() != parent:
                raise ValueError("chunk after the first")
            write_rows(fh, rows, row_fmt)

        monkeypatch.setattr(cli, "_write_rows", write_rows_in_parent_only)
        expected, match = OSError, "exited with status 1"
    else:
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.shutil, "copyfileobj", interrupt)
        expected, match = KeyboardInterrupt, None
    with pytest.raises(expected, match=match):
        cli.write_trace_csv(tmp_path / "t.csv", _random_result(30), 3)
    assert [p.name for p in tmp_path.iterdir()] == []
    _assert_no_child_left()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_an_output_dir_that_cannot_be_made_fails_before_the_run(
    tmp_path, capsys, monkeypatch, command, below
):
    def no_run(scenario):
        raise AssertionError("simulated before checking --output-dir")

    monkeypatch.setattr(cli.sim, "run", no_run)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    outdir = blocker / "sub" if below else blocker
    args = [command, "--scenario", _write(tmp_path, _tiny_doc()),
            "--output-dir", str(outdir)]
    if command == "sweep":
        args += ["--param", "d_s", "--values", "0.3"]
    assert cli.run_command(args) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --output-dir: {blocker} is not a directory\n"


@pytest.mark.parametrize("command, output", [
    ("run", "tiny_saar.csv"), ("sweep", "tiny_sweep_d_s.json"),
])
def test_an_output_that_cannot_be_written_is_one_error_line(
    tmp_path, capsys, command, output
):
    out = tmp_path / "o"
    (out / output).mkdir(parents=True)  # a directory where the file goes
    args = [command, "--scenario", _write(tmp_path, _tiny_doc()),
            "--output-dir", str(out)]
    if command == "sweep":
        args += ["--param", "d_s", "--values", "0.3"]
    assert cli.run_command(args) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and output in err
    assert err.count("\n") == 1
    assert [p.name for p in out.iterdir()] == [output]


@pytest.mark.parametrize("command, failing, kept", [
    ("run", "tiny_saar.csv", []),
    ("run", "tiny_saar_summary.json", ["tiny_saar.csv"]),
    ("sweep", "tiny_sweep_d_s.json", []),
])
def test_an_output_that_fails_midway_leaves_no_file(
    tmp_path, capsys, monkeypatch, command, failing, kept
):
    # each output fails after part of it is written: the CSV after its
    # header and first row, a JSON file after its first character
    def full_disk(*args):
        raise OSError(28, "No space left on device")

    if failing.endswith(".csv"):
        write_rows = cli._write_rows

        def fail_after_a_row(fh, rows, row_fmt):
            write_rows(fh, rows[:1], row_fmt)
            fh.flush()
            full_disk()

        monkeypatch.setattr(cli, "_write_rows", fail_after_a_row)
    else:
        def fail_after_a_character(obj, fh, **kwargs):
            fh.write("[" if isinstance(obj, list) else "{")
            fh.flush()
            full_disk()

        monkeypatch.setattr(cli.json, "dump", fail_after_a_character)
    out = tmp_path / "o"
    args = [command, "--scenario", _write(tmp_path, _tiny_doc()),
            "--output-dir", str(out)]
    if command == "sweep":
        args += ["--param", "d_s", "--values", "0.3"]
    assert cli.run_command(args) == cli.EXIT_ERROR
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == kept
    _assert_no_child_left()


def test_cli_divergence_exit_code(tmp_path):
    doc = _tiny_doc()
    doc["divergence_threshold"] = 0.01
    scn_path = _write(tmp_path, doc)
    code = cli.run_command(
        ["run", "--scenario", scn_path, "--output-dir", str(tmp_path / "o")]
    )
    assert code == cli.EXIT_DIVERGENCE


def test_cli_infeasible_exit_code(tmp_path):
    doc = _tiny_doc()
    # coincident identical followers: the pair constraint degenerates
    doc["horizon"] = 0.02
    doc["followers"][1] = copy.deepcopy(doc["followers"][0])
    doc["followers"][1]["x0"] = doc["followers"][0]["x0"]
    scn_path = _write(tmp_path, doc)
    code = cli.run_command(
        ["run", "--scenario", scn_path, "--output-dir", str(tmp_path / "o")]
    )
    assert code == cli.EXIT_QP_INFEASIBLE


@pytest.mark.parametrize("offset, code", [
    (0.0, cli.EXIT_QP_INFEASIBLE),
    (1e-13, cli.EXIT_QP_INFEASIBLE),
    # ||a|| = 2e-9 clears QP_TOL * max(1, |b|): the QP steps u by about
    # |b| / ||a||, and with no input bound in the model the state blows up
    (1e-9, cli.EXIT_ERROR),
])
def test_cli_nearly_coincident_followers(tmp_path, capsys, offset, code):
    # identical followers a rounding error apart: the violated pair row has
    # ||a|| at rounding level, which the QP reports as infeasible
    doc = _tiny_doc()
    doc["horizon"] = 0.02
    doc["followers"][1] = copy.deepcopy(doc["followers"][0])
    doc["followers"][1]["x0"][0] += offset
    scn_path = _write(tmp_path, doc)
    assert cli.run_command(
        ["run", "--scenario", scn_path, "--output-dir", str(tmp_path / "o")]
    ) == code
    if code == cli.EXIT_ERROR:
        assert "non-finite state" in capsys.readouterr().err


def test_cli_validate_good_and_bad(tmp_path, capsys):
    good = _write(tmp_path, _tiny_doc(), "good.json")
    assert cli.run_command(["validate", "--scenario", good]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out == {"valid": True, "violations": []}

    doc = _tiny_doc()
    doc["dt"] = -1.0
    bad = _write(tmp_path, doc, "bad.json")
    assert cli.run_command(["validate", "--scenario", bad]) == cli.EXIT_ERROR
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert any("dt" in v for v in out["violations"])


def test_cli_gains_prints_residuals(tmp_path, capsys):
    scn_path = _write(tmp_path, _tiny_doc())
    assert cli.run_command(["gains", "--scenario", scn_path]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.count("riccati_residual") == 2
    assert out.count("regulator_residual") == 2
    assert "follower 1:" in out and "follower 2:" in out


def test_cli_sweep(tmp_path):
    scn_path = _write(tmp_path, _tiny_doc())
    out = tmp_path / "sweep"
    code = cli.run_command(
        [
            "sweep", "--scenario", scn_path, "--param", "d_s",
            "--values", "0.1,0.3", "--output-dir", str(out),
        ]
    )
    assert code == cli.EXIT_OK
    rows = json.loads((out / "tiny_sweep_d_s.json").read_text())
    assert [row["d_s"] for row in rows] == [0.1, 0.3]
    assert all("min_pair_distance" in row for row in rows)


@pytest.mark.parametrize("extra, named", [
    (["--param", "d_s", "--values", "0.3,abc"], "'abc'"),
    # dt = 0.5 is far past RK4's stability limit for these gains
    (["--mode", "resilient_unsafe", "--param", "dt", "--values", "0.5"],
     "dt=0.5: simulation aborted: non-finite state"),
], ids=["not_a_number", "run_aborts"])
def test_cli_sweep_names_the_value_it_cannot_run(tmp_path, capsys, extra, named):
    doc = _tiny_doc()
    doc["horizon"] = 1.0
    scn_path = _write(tmp_path, doc)
    out = tmp_path / "o"
    args = ["sweep", "--scenario", scn_path, "--output-dir", str(out), *extra]
    assert cli.run_command(args) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_cli_run_reports_an_aborted_simulation_as_an_error(tmp_path, capsys):
    # the sweep test's document: dt = 0.5 is far past RK4's stability limit
    doc = _tiny_doc()
    doc["horizon"], doc["dt"] = 1.0, 0.5
    args = ["run", "--scenario", _write(tmp_path, doc), "--mode",
            "resilient_unsafe", "--output-dir", str(tmp_path / "o")]
    assert cli.run_command(args) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: simulation aborted: non-finite state at t=1.000000\n"


@pytest.mark.parametrize("follower, field", [(0, "Q"), (1, "B"), (3, "Q")])
def test_cli_reports_a_failed_gain_synthesis_as_an_error(
    tmp_path, capsys, follower, field
):
    # every value is finite, but the Riccati iteration overflows; the
    # gains are synthesized in validation, so every command lists it
    doc = _bundled_doc()
    spec = doc["followers"][follower]
    spec[field] = [[v * 1e300 for v in row] for row in spec[field]]
    scn_path = _write(tmp_path, doc)
    out = tmp_path / "o"
    for args in (["validate"], ["run", "--output-dir", str(out)], ["gains"],
                 ["sweep", "--param", "q", "--values", "1", "--output-dir",
                  str(out)]):
        args = [args[0], "--scenario", scn_path, *args[1:]]
        assert cli.run_command(args) == cli.EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["valid"] is False
        (violation,) = report["violations"]
        assert violation.startswith(  # the follower numbered from 0
            f"follower {follower}: Riccati iteration did not converge")
    assert not out.exists()


def test_validation_lists_every_follower_whose_gains_fail_once():
    doc = _bundled_doc()
    doc["followers"][0]["Q"] = [[3, 1, 0], [0, 3, 0], [0, 0, 3]]
    for spec in doc["followers"][2:]:
        spec["Q"] = [[v * 1e300 for v in row] for row in spec["Q"]]
    assert _violations(doc) == [
        "follower 0: Q must be symmetric",
        "follower 2: Riccati iteration did not converge: final residual inf",
        "follower 3: Riccati iteration did not converge: final residual inf",
    ]


def test_each_follower_is_synthesized_once_per_job(
    tmp_path, monkeypatch, capsys
):
    calls = dict.fromkeys(("solve_regulator", "solve_care"), 0)
    for name in calls:
        def counted(*args, _solve=getattr(gains, name), _name=name):
            calls[_name] += 1
            return _solve(*args)
        monkeypatch.setattr(gains, name, counted)
    doc = _tiny_doc()  # two followers
    sim.run(scenario_from_dict(doc))
    assert calls == {"solve_regulator": 2, "solve_care": 2}
    # a --mode copy keeps the gains validation synthesized
    calls.update(solve_regulator=0, solve_care=0)
    args = ["run", "--scenario", _write(tmp_path, doc), "--mode",
            "conventional", "--output-dir", str(tmp_path / "o")]
    assert cli.run_command(args) == cli.EXIT_OK
    assert calls == {"solve_regulator": 2, "solve_care": 2}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["validate", "run", "gains"])
def test_an_overflowing_controllability_matrix_is_listed_quietly(
    tmp_path, capfd, command
):
    # A * 1e300 is finite, but A^2 B overflows: its rank means nothing, and
    # an SVD of it makes LAPACK print "** On entry to DLASCL" lines on
    # stdout; the violation says why, and nothing else is printed
    doc = _bundled_doc()
    spec = doc["followers"][2]
    spec["A"] = [[v * 1e300 for v in row] for row in spec["A"]]
    args = [command, "--scenario", _write(tmp_path, doc)]
    if command == "run":
        args += ["--output-dir", str(tmp_path / "o")]
    assert cli.run_command(args) == cli.EXIT_ERROR
    out, err = capfd.readouterr()
    assert err == ""
    assert json.loads(out) == {"valid": False, "violations": [
        "follower 2: (A, B) controllability matrix is not finite"]}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("steps, stride, needs", [
    (2**58, 10, "a trace table (output_stride 10) of 3.94e+19 bytes"),
    (2**60, 2**62, "per-step arrays of 1.84e+19 bytes"),
], ids=["table", "per-step"])
def test_a_horizon_past_numpys_largest_array_is_listed(
    tmp_path, capfd, steps, stride, needs
):
    # each step count is below 2**63, but a run's trace table or its
    # per-step arrays would be more bytes than numpy can index
    doc = _bundled_doc()
    doc["horizon"], doc["output_stride"] = steps * doc["dt"], stride
    out = tmp_path / "o"
    for args in (["validate"], ["run", "--output-dir", str(out)]):
        args = [args[0], "--scenario", _write(tmp_path, doc), *args[1:]]
        assert cli.run_command(args) == cli.EXIT_ERROR
        stdout, err = capfd.readouterr()
        assert err == ""
        assert json.loads(stdout) == {"valid": False, "violations": [
            f"horizon of {steps} dt steps needs {needs}, more than "
            f"numpy's largest array ({np.iinfo(np.intp).max} bytes)"]}
    assert not out.exists()


def test_one_follower_summary_is_strict_json(tmp_path):
    doc = _tiny_doc()
    doc["followers"] = doc["followers"][:1]
    doc["topology"] = {"adjacency": [[0]], "pinning": [[1]]}
    out = tmp_path / "o"
    args = ["run", "--scenario", _write(tmp_path, doc), "--output-dir", str(out)]
    assert cli.run_command(args) == cli.EXIT_OK

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    text = (out / "tiny_saar_summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary["min_pair_distance"] is None


def test_cli_sweep_rejects_unknown_parameter(tmp_path):
    scn_path = _write(tmp_path, _tiny_doc())
    code = cli.run_command(
        [
            "sweep", "--scenario", scn_path, "--param", "horizon",
            "--values", "1,2", "--output-dir", str(tmp_path / "o"),
        ]
    )
    assert code == cli.EXIT_ERROR


def test_cli_mode_override(tmp_path):
    scn_path = _write(tmp_path, _tiny_doc())
    out = tmp_path / "conv"
    code = cli.run_command(
        [
            "run", "--scenario", scn_path, "--mode", "conventional",
            "--output-dir", str(out),
        ]
    )
    assert code == cli.EXIT_OK
    assert (out / "tiny_conventional.csv").exists()


def _run_module_cli(*args):
    """``python -m safe_containment.cli`` in a fresh process."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "safe_containment.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_cli_module_entry_point_runs():
    proc = _run_module_cli("validate", "--scenario", "paper_sec4")
    assert proc.returncode == cli.EXIT_OK
    assert json.loads(proc.stdout) == {"valid": True, "violations": []}


def test_a_sweep_that_blows_up_prints_only_its_error_line(tmp_path):
    doc = _tiny_doc()
    doc["horizon"] = 1.0
    proc = _run_module_cli(
        "sweep", "--scenario", _write(tmp_path, doc), "--mode",
        "resilient_unsafe", "--param", "dt", "--values", "0.5",
        "--output-dir", str(tmp_path / "o"),
    )
    assert proc.returncode == cli.EXIT_ERROR
    assert proc.stderr == (
        "error: dt=0.5: simulation aborted: non-finite state at t=1.000000\n"
    )

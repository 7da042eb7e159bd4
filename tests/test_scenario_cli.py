import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from safe_containment import cli
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
        assert np.array_equal(
            f.attack_cil.coefficients, np.array(PAPER_CIL[i][0])
        )
        assert np.array_equal(f.attack_cil.rates, np.array(PAPER_CIL[i][1]))
        assert np.array_equal(
            f.attack_ol.coefficients, np.array(PAPER_OL[i][0])
        )
        assert np.array_equal(f.attack_ol.rates, np.array(PAPER_OL[i][1]))
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


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  oops\n}\n')
    with pytest.raises(ScenarioError, match="line 3"):
        load_scenario(str(path))


def test_missing_scenario_file():
    with pytest.raises(FileNotFoundError):
        load_scenario("no_such_scenario_anywhere")


def test_attack_free_copy_zeroes_signals():
    scn = load_scenario("paper_sec4").attack_free()
    for f in scn.followers:
        assert np.array_equal(f.attack_cil(10.0), np.zeros(3))
        assert np.array_equal(f.attack_ol(10.0), np.zeros(3))


def test_cli_run_writes_csv_and_summary(tmp_path):
    scn_path = _write(tmp_path, _tiny_doc())
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
    # 2 followers x 13 vector/scalar blocks + 1 pair block
    n_cols = 1 + 2 * (11 * 3 + 2) + 3
    assert len(header) == n_cols
    assert all(len(line.split(",")) == n_cols for line in lines[1:])
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

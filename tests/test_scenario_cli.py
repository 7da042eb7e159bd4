import copy
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safe_containment import cli, gains, sim, topology
from safe_containment.scenario import (
    CONTROLLER_MODES,
    SWEEPABLE,
    FollowerSpec,
    ScenarioConfig,
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


def _same(a, b) -> bool:
    """a and b are equal and of one type; arrays also of one dtype."""
    if isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b))
    return type(a) is type(b) and a == b


def test_a_document_of_required_fields_loads_every_field_default():
    # each default is stated once, on its dataclass field: every field a
    # document leaves out takes that default, of the default's own type
    required = ("A", "B", "Q", "U", "x0")
    full = _tiny_doc()
    doc = {key: full[key] for key in ("S", "leader_x0", "topology")}
    doc["followers"] = [{key: f[key] for key in required}
                        for f in full["followers"]]
    scn = scenario_from_dict(doc)
    pairs = [(scn, ScenarioConfig(scn.name, scn.followers, scn.S,
                                  scn.leader_x0, scn.topology))]
    pairs += [(f, FollowerSpec(*(getattr(f, key) for key in required)))
              for f in scn.followers]
    for got, want in pairs:
        for fld in dataclasses.fields(want):
            if (fld.default is dataclasses.MISSING
                    and fld.default_factory is dataclasses.MISSING):
                continue  # a required field
            assert _same(getattr(got, fld.name), getattr(want, fld.name)), (
                type(want).__name__, fld.name)


def test_validation_names_asymmetric_q():
    doc = _tiny_doc()
    doc["followers"][1]["Q"] = [[3, 1, 0], [0, 3, 0], [0, 0, 3]]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any(
        "follower 2" in v and "Q" in v for v in err.value.violations
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
    assert err.value.violations == ["follower 2: q must be positive"]


def test_validation_rejects_nonpositive_alpha_and_c():
    for key in ("alpha", "c"):
        for value in (0.0, -1.0):
            doc = _tiny_doc()
            doc["followers"][0][key] = value
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict(doc)
            assert err.value.violations == [
                f"follower 1: {key} must be positive"
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


def test_validation_rejects_asymmetric_delta():
    # the filter reads delta[i, j] with i < j only: a lower triangle that
    # differs would be ignored, so validation lists every such pair
    doc = _bundled_doc()  # four followers
    delta = np.full((4, 4), 5.0)
    delta[0, 2], delta[3, 1], delta[2, 2] = 6.0, 0.5, 7.0
    doc["delta"] = delta.tolist()
    assert _violations(doc) == [
        "delta must be symmetric: pair (1, 3) has rates 6.0 and 5.0",
        "delta must be symmetric: pair (2, 4) has rates 5.0 and 0.5",
    ]
    delta[2, 0], delta[1, 3] = 6.0, 0.5
    doc["delta"] = delta.tolist()
    assert np.array_equal(scenario_from_dict(doc).delta, delta)


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
        "follower 1: attack_cil coeff must be finite",
        "follower 1: attack_ol rate must be finite",
        "follower 2: attack_cil rate must be finite",
        "follower 2: attack_ol coeff must be finite",
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


def test_state_dim_is_none_unless_s_is_square():
    scenario = scenario_from_dict(_tiny_doc())
    assert scenario.state_dim == 3 and type(scenario.state_dim) is int
    for shape in ((2, 3), (3,), (1, 3, 3)):
        assert dataclasses.replace(
            scenario, S=np.zeros(shape)).state_dim is None


def test_gain_sets_of_a_nonsquare_s_raise_the_validation_list():
    config = dataclasses.replace(scenario_from_dict(_bundled_doc()),
                                 S=np.zeros((2, 3)))
    with pytest.raises(ScenarioError) as err:
        config.gain_sets
    assert err.value.violations == config.validate() == ["S must be square"]


def test_gain_sets_without_gains_raise_every_violation():
    valid = scenario_from_dict(_bundled_doc())
    followers = list(valid.followers)
    followers[2] = dataclasses.replace(followers[2], Q=followers[2].Q * 1e300)
    config = dataclasses.replace(valid, followers=followers, d_s=-1.0)
    with pytest.raises(ScenarioError) as err:
        config.gain_sets
    assert err.value.violations == config.validate() == [
        "follower 3: Riccati iteration did not converge: final residual inf",
        "d_s must be positive",
    ]
    assert valid.gain_sets is valid.gain_sets  # one cached list


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


@pytest.mark.parametrize("edit, violation", [
    (lambda doc: doc["followers"][0].update(
        attack_cil=[[1, 2, 3], [0.1, 0.1, 0.1]]),
     "followers[0].attack_cil must be an object"),
    (lambda doc: doc["followers"][0].update(attack_cil=5),
     "followers[0].attack_cil must be an object"),
    (lambda doc: doc.update(topology=[[0, 1], [1, 0]]),
     "topology must be an object"),
], ids=["attack_list", "attack_number", "topology_list"])
def test_a_table_of_the_wrong_type_is_listed_as_such(edit, violation):
    # present but not a JSON object: the wrong type, not a missing field
    doc = _tiny_doc()
    edit(doc)
    assert _violations(doc) == [violation]


def _nested(value, depth):
    """value inside ``depth`` one-element lists."""
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("edit, violation", [
    (lambda doc: doc.update(horizon="16"), "horizon: not a number"),
    (lambda doc: doc.update(output_stride=True), "output_stride: not a number"),
    (lambda doc: doc.update(d_s=None), "d_s: not a number"),
    (lambda doc: doc["followers"][1].update(q="1"),
     "followers[1].q: not a number"),
    (lambda doc: doc.update(horizon=10**400), "horizon: not a number"),
    (lambda doc: doc.update(S=[[str(v) for v in row] for row in doc["S"]]),
     "S: not a numeric array ("),
    (lambda doc: doc["followers"][0].update(x0=[True, False, True]),
     "followers[0].x0: not a numeric array ("),
    (lambda doc: doc["followers"][0].update(x0=[1.0, True, 0.5]),
     "followers[0].x0: not a numeric array ("),
    (lambda doc: doc.update(delta=None), "delta: not a numeric array ("),
    (lambda doc: doc["S"][0].__setitem__(0, 10**400),
     "S: not a numeric array (int too large to convert to float)"),
    # deeper than a recursive check of the nesting can go
    (lambda doc: doc.update(horizon=_nested(16.0, 500)),
     "horizon: not a number"),
    (lambda doc: doc.update(S=_nested(doc["S"], 500)),
     "S: not a numeric array ("),
], ids=["string", "boolean", "null", "follower_string", "huge_int",
        "string_matrix", "boolean_vector", "one_boolean", "null_matrix",
        "huge_int_matrix", "deep_number", "deep_matrix"])
def test_only_json_numbers_are_numeric(edit, violation):
    doc = _tiny_doc()
    edit(doc)
    (got,) = _violations(doc)
    assert (got.startswith(violation) if violation.endswith("(")
            else got == violation)


def test_json_ints_load_as_floats_and_null_tables_as_absent():
    doc = _tiny_doc()
    doc["S"] = [[float(v) for v in row] for row in doc["S"]]
    want = scenario_from_dict(doc)
    doc["S"] = [[int(v) for v in row] for row in doc["S"]]  # whole entries
    doc["horizon"], doc["dt"] = 1, 0.001
    doc["followers"][0].update(zeta0=None, attack_cil=None, attack_ol=None)
    got = scenario_from_dict(doc)
    assert got.S.dtype == float and np.array_equal(got.S, want.S)
    assert got.horizon == 1.0 and type(got.horizon) is float
    spec = got.followers[0]
    assert spec.zeta0 is None
    assert not np.any(np.concatenate([*spec.attack_cil, *spec.attack_ol]))


@pytest.mark.parametrize("size", [3, 4])
def test_a_one_dimensional_leader_x0_is_listed_once(size):
    doc = _bundled_doc()  # four leaders
    doc["leader_x0"] = [0.5] * size
    assert _violations(doc) == ["leader_x0 must be (M, 3)"]


def test_a_rejected_topology_is_listed_with_the_other_violations():
    doc = _bundled_doc()
    doc["topology"]["adjacency"][0][1] = -1
    doc["followers"][2]["Q"] = [[3, 0, 0], [0, -3, 0], [0, 0, 3]]
    doc["dt"] = -1
    assert _violations(doc) == [
        "topology: edge and pinning weights must be finite and nonnegative",
        "follower 3: Q must be positive definite",
        "dt must be positive",
    ]


@pytest.mark.parametrize("edit, violation", [
    (lambda doc: doc.update(horizn=4.0), "unknown field horizn"),
    (lambda doc: doc["followers"][0].update(alhpa=2.0),
     "unknown field followers[0].alhpa"),
    (lambda doc: doc["topology"].update(pining=[[1, 1]]),
     "unknown field topology.pining"),
    (lambda doc: doc["followers"][1]["attack_ol"].update(rates=[0.1] * 3),
     "unknown field followers[1].attack_ol.rates"),
], ids=["top_level", "follower", "topology", "attack_table"])
def test_a_misspelled_field_is_listed_not_left_at_its_default(edit, violation):
    doc = _tiny_doc()
    edit(doc)
    assert _violations(doc) == [violation]


def test_an_unknown_field_is_listed_with_the_other_violations():
    doc = _tiny_doc()
    doc["horizn"] = 4.0
    doc["followers"][1].update(alhpa=2.0, alpha=-1.0)
    doc["dt"] = -1
    assert _violations(doc) == [
        "unknown field horizn",
        "unknown field followers[1].alhpa",
        "follower 2: alpha must be positive",
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
    assert _violations(doc) == [f"follower 2: {violation}"]


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
    for idx, v in enumerate(out["violations"], start=1):
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
    "name", ["../escaped", "a/b", "a\\b", "", ".", "..", 7, None, "a\x00b",
             pytest.param(_nested("x", 3000), id="deep_list")]
)
def test_validation_rejects_a_name_that_is_not_a_file_name(name):
    # a non-string is named by its type, so a deep list cannot make the
    # violation long, or recurse past the interpreter's limit
    doc = _tiny_doc()
    doc["name"] = name
    (violation,) = _violations(doc)
    assert violation.startswith("name must be a non-empty string")
    assert len(violation) < 200


@pytest.mark.parametrize("mode", [
    "fast", 5, pytest.param(_nested("saar", 3000), id="deep_list"),
])
def test_validation_rejects_an_unknown_controller_mode(mode):
    doc = _tiny_doc()
    doc["controller_mode"] = mode
    assert _violations(doc) == [
        f"controller_mode must be one of {CONTROLLER_MODES}"]


def test_validation_rejects_a_name_no_file_name_can_encode(
    tmp_path, capsys, monkeypatch
):
    # a lone surrogate loads from JSON, but os.fsencode cannot encode it:
    # run must say so before it simulates, not after, with a traceback
    def no_run(scenario):
        raise AssertionError("simulated a scenario with an unusable name")

    monkeypatch.setattr(cli.sim, "run", no_run)
    doc = _tiny_doc()
    doc["name"] = "\ud800x"
    assert _violations(doc) == [
        "name must be encodable as a file name, not '\\ud800x'"]
    args = ["run", "--scenario", _write(tmp_path, doc),
            "--output-dir", str(tmp_path / "o")]
    assert cli.run_command(args) == cli.EXIT_ERROR
    assert json.loads(capsys.readouterr().out)["valid"] is False
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, name", [
    pytest.param(command, name, id=command + suffix)
    for suffix, name in (("", "../escaped"), ("-nul", "a\x00b"))
    for command in ("validate", "run", "sweep")
])
def test_cli_rejects_a_name_that_leaves_the_output_dir(
    tmp_path, capsys, command, name
):
    doc = _tiny_doc()
    doc["name"] = name
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


def test_a_document_nested_past_the_decoder_limit_is_a_parse_error(
    tmp_path, capsys
):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.run_command(["validate", "--scenario", str(path)]) == (
        cli.EXIT_ERROR)
    captured = capsys.readouterr()
    (violation,) = json.loads(captured.out)["violations"]
    assert violation.startswith(f"parse error in {path}: ")
    assert captured.err == ""


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


def _written_rows(values, n_cols=1, block_cells=cli._BLOCK_CELLS):
    """The bytes ``cli._write_rows`` writes for ``values`` in rows of
    ``n_cols``, ``block_cells`` cells a block; the same rows formatted one
    value at a time; and, for each block, whether the kernel formatted it
    rather than handing it to "%.17g" whole."""
    rows = np.asarray(values, dtype=float).reshape(-1, n_cols)
    fh, kernel, format_block = io.BytesIO(), [], cli._format_block

    def format_and_note(*args):
        text = format_block(*args)
        kernel.append(not isinstance(text, bytes))  # % returns bytes
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK_CELLS", block_cells)
        patch.setattr(cli, "_format_block", format_and_note)
        cli._write_rows(fh, rows)
    expected = b"".join(b",".join(b"%.17g" % v for v in row) + b"\n"
                        for row in rows.tolist())
    return fh.getvalue(), expected, kernel


# one cell a block, so that a cell the kernel cannot decide sends no other
# cell to "%.17g" with it
BLOCK_SIZES = (cli._BLOCK_CELLS, 1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
def test_the_csv_kernel_writes_what_17g_writes_for_any_bit_pattern(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    for block_cells in BLOCK_SIZES:
        written, expected, _ = _written_rows(values, 1, block_cells)
        assert written == expected


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(1e-280, 1e280) | st.floats(-1e280, -1e-280)
                | st.sampled_from([0.0, -0.0]), min_size=1, max_size=50))
def test_the_csv_kernel_writes_what_17g_writes_in_its_range(values):
    # every finite magnitude the kernel takes, and zeros, a cell a block
    written, expected, _ = _written_rows(values, 1, 1)
    assert written == expected


EDGE_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9.9999999999999991e-05,
    1e-4, 2.0**53, 1e16, 99999999999999999.0, 1e23, 1234567890123456.25,
    1.7976931348623157e308, float("nan"), float("inf"), float("-inf"),
]


def test_the_csv_kernel_writes_what_17g_writes_at_the_edges():
    # the listed edges, then the powers of ten the kernel scales by and
    # their neighbours up to two ulps away, where floor(log10 |v|) can be
    # off by one
    values = np.concatenate([EDGE_VALUES, 10.0 ** np.arange(-300, 301)])
    with np.errstate(over="ignore"):  # past the largest double
        up = np.nextafter(values, np.inf)
        down = np.nextafter(values, -np.inf)
        values = np.concatenate([values, -values, up, down,
                                 np.nextafter(up, np.inf),
                                 np.nextafter(down, -np.inf)])
    for block_cells in BLOCK_SIZES:
        written, expected, kernel = _written_rows(values, 1, block_cells)
        assert written == expected
        lines = written.split(b"\n")
        assert lines[:2] == [b"0", b"-0"]
        assert lines[8] == b"1e+17"
        assert lines[10] == b"1234567890123456.2"
    # of the 3,696 values a cell a block, the kernel itself writes 1,693;
    # "%.17g" the 287 out of its range, the 1,711 whose floor(log10 |v|)
    # is one too high and the 6 near-ties
    assert len(kernel) == 3696 and sum(kernel) >= 1693


def test_the_csv_kernel_keeps_the_order_of_the_cells_it_passes_on():
    # one row a block: rows the kernel writes alternate with rows holding
    # one cell it cannot decide (NaN, an infinity, a subnormal, a magnitude
    # out of [1e-280, 1e280], an exact tie), which "%.17g" writes whole
    row = [1.5, -0.0, -2.5, 0.1, 3e10, 1e-5, 0.0, -7.0]
    odd = [float("nan"), float("inf"), 5e-324, 1e-300, 3e300,
           1234567890123456.25, float("-inf"), -1e300]
    rows = []
    for i, v in enumerate(odd):
        rows += [[x * (i + 1) for x in row],
                 row[:i] + [v] + row[i + 1:]]
    written, expected, kernel = _written_rows(rows, len(row), 1)
    assert written == expected
    assert kernel == [True, False] * len(odd)


def test_no_row_of_a_short_paper_trace_goes_to_17g():
    # a kernel that handed every block to "%.17g" would write the same
    # bytes at a fraction of the speed; here each row is a block
    doc = dict(_bundled_doc(), horizon=0.2, controller_mode="saar")
    result = sim.run(scenario_from_dict(doc))
    table = result.table[:, :result.layout.n_csv]
    written, expected, kernel = _written_rows(table, table.shape[1], 1)
    assert written == expected
    assert kernel == [True] * len(table)


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

        def write_rows_in_parent_only(fh, rows):
            if os.getpid() != parent:
                raise ValueError("chunk after the first")
            write_rows(fh, rows)

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


def test_a_child_stopped_by_an_os_error_reports_its_errno(
    tmp_path, capsys, monkeypatch
):
    # a full disk under a forked writer reads as it would in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(cli, "MIN_CHUNK_CELLS", 1)
    parent, write_rows = os.getpid(), cli._write_rows

    def disk_full_in_children(fh, rows):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_rows(fh, rows)

    monkeypatch.setattr(cli, "_write_rows", disk_full_in_children)
    with pytest.raises(OSError) as raised:
        cli.write_trace_csv(tmp_path / "t.csv", _random_result(30), 3)
    assert raised.value.errno == errno.ENOSPC
    assert raised.value.filename == str(tmp_path / "t.csv")
    assert [p.name for p in tmp_path.iterdir()] == []
    _assert_no_child_left()

    out = tmp_path / "o"
    args = ["run", "--scenario", _write(tmp_path, _tiny_doc()),
            "--output-dir", str(out)]
    assert cli.run_command(args) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err == (f"error: [Errno {errno.ENOSPC}] "
                   f"{os.strerror(errno.ENOSPC)}: '{out / 'tiny_saar.csv'}'\n")
    assert list(out.iterdir()) == []
    _assert_no_child_left()


def test_a_trace_write_gives_its_parts_no_name(tmp_path, monkeypatch):
    # while this process writes the first chunk, three writers are at
    # work, yet the directory holds only _replacing's temporary file
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(cli, "MIN_CHUNK_CELLS", 1)
    parent, write_rows, seen = os.getpid(), cli._write_rows, []

    def list_dir_in_parent(fh, rows):
        if os.getpid() == parent:
            seen.append(sorted(p.name for p in tmp_path.iterdir()))
        write_rows(fh, rows)

    monkeypatch.setattr(cli, "_write_rows", list_dir_in_parent)
    result = _random_result(30)
    cli.write_trace_csv(tmp_path / "t.csv", result, 3)
    ((entry,),) = seen
    assert entry.startswith(".t.csv.") and entry.endswith(".tmp")
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(result)
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
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


def _name_max(path):
    if "PC_NAME_MAX" not in getattr(os, "pathconf_names", ()):
        pytest.skip("no PC_NAME_MAX")
    return os.pathconf(path, "PC_NAME_MAX")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_an_output_dir_named_too_long_is_one_error_line_before_the_run(
    tmp_path, capsys, monkeypatch, command
):
    # stat fails with ENAMETOOLONG, which Path.exists does not swallow
    def no_run(scenario):
        raise AssertionError("simulated before checking --output-dir")

    monkeypatch.setattr(cli.sim, "run", no_run)
    outdir = tmp_path / ("d" * (_name_max(tmp_path) + 1)) / "sub"
    args = [command, "--scenario", _write(tmp_path, _tiny_doc()),
            "--output-dir", str(outdir)]
    if command == "sweep":
        args += ["--param", "d_s", "--values", "0.3"]
    assert cli.run_command(args) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --output-dir: [Errno ")
    assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scn.json"]


# each command's longest output file name: run's summary,
# <name>_resilient_unsafe_summary.json (name + 30 bytes), and sweep's
# <name>_sweep_d_s.json (name + 15); _replacing's temporary name adds 14.
# At the usual limit of 255 the names below are 212 and 227 bytes long,
# the shortest that fail.
@pytest.mark.parametrize("command, margin", [("run", 30), ("sweep", 15)])
def test_a_name_too_long_for_its_output_files_fails_before_the_run(
    tmp_path, capsys, monkeypatch, command, margin
):
    def no_run(scenario):
        raise AssertionError("simulated before checking the file names")

    monkeypatch.setattr(cli.sim, "run", no_run)
    out = tmp_path / "o"
    out.mkdir()
    doc = _tiny_doc()
    doc["name"] = "n" * (_name_max(out) - margin - 14 + 1)
    args = [command, "--scenario", _write(tmp_path, doc),
            "--output-dir", str(out), "--mode", "resilient_unsafe"]
    if command == "sweep":
        args += ["--param", "d_s", "--values", "0.3,0.35"]
    assert cli.run_command(args) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "too long" in captured.err
    assert captured.err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_the_longest_name_its_output_files_take_still_runs(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    doc = _tiny_doc()
    doc["name"] = name = "n" * (_name_max(out) - 30 - 14)  # 211 at 255
    args = ["run", "--scenario", _write(tmp_path, doc),
            "--output-dir", str(out), "--mode", "resilient_unsafe"]
    assert cli.run_command(args) == cli.EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        f"{name}_resilient_unsafe.csv",
        f"{name}_resilient_unsafe_summary.json"]


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

        def fail_after_a_row(fh, rows):
            write_rows(fh, rows[:1])
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


@pytest.mark.parametrize("case, code, named", [
    ("infeasible", cli.EXIT_QP_INFEASIBLE,
     "infeasible safety QP encountered at t=0.000000"),
    ("divergent", cli.EXIT_DIVERGENCE,
     "divergence detected: containment error crossed 1e-09 at t=0.001000"),
])
def test_cli_sweep_exits_as_run_does_for_its_variants(
    tmp_path, capsys, case, code, named
):
    # a sweep writes every row, then exits with run's code, naming each
    # variant that met an infeasible QP or diverged as run names it
    if case == "infeasible":  # test_cli_infeasible_exit_code's document
        doc = _tiny_doc()
        doc["horizon"] = 0.02
        doc["followers"][1] = copy.deepcopy(doc["followers"][0])
    else:  # the error crosses the threshold at the first step
        doc = _bundled_doc()
        doc.update(divergence_threshold=1e-9, horizon=0.01)
    scn_path = _write(tmp_path, doc)
    out = tmp_path / "o"
    assert cli.run_command(
        ["run", "--scenario", scn_path, "--output-dir", str(out)]) == code
    assert capsys.readouterr().err == named + "\n"
    assert cli.run_command(
        ["sweep", "--scenario", scn_path, "--param", "d_s", "--values",
         "0.3,0.35", "--output-dir", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == [
        f"d_s=0.3: {named}", f"d_s=0.35: {named}"]
    rows = json.loads((out / f"{doc['name']}_sweep_d_s.json").read_text())
    assert [row["d_s"] for row in rows] == [0.3, 0.35]
    infeasible = [row["qp_infeasible_count"] > 0 for row in rows]
    assert infeasible == [case == "infeasible"] * 2


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
        assert violation.startswith(  # the follower numbered from 1
            f"follower {follower + 1}: Riccati iteration did not converge")
    assert not out.exists()


def test_validation_lists_every_follower_whose_gains_fail_once():
    doc = _bundled_doc()
    doc["followers"][0]["Q"] = [[3, 1, 0], [0, 3, 0], [0, 0, 3]]
    for spec in doc["followers"][2:]:
        spec["Q"] = [[v * 1e300 for v in row] for row in spec["Q"]]
    assert _violations(doc) == [
        "follower 1: Q must be symmetric",
        "follower 3: Riccati iteration did not converge: final residual inf",
        "follower 4: Riccati iteration did not converge: final residual inf",
    ]


def test_each_follower_is_synthesized_once_per_job(
    tmp_path, monkeypatch, capsys
):
    # one synthesis per follower and one Phi family per job, in validation
    once = {"solve_regulator": 2, "solve_care": 2, "build_phi_family": 1}
    calls = dict.fromkeys(once, 0)
    for name in calls:
        owner = topology if name == "build_phi_family" else gains
        def counted(*args, _solve=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _solve(*args)
        monkeypatch.setattr(owner, name, counted)
    doc = _tiny_doc()  # two followers
    scenario = scenario_from_dict(doc)
    assert sim.Engine(scenario).phi is scenario.phi_family
    sim.run(scenario)
    assert calls == once
    # a --mode copy keeps what validation built
    calls.update(dict.fromkeys(once, 0))
    args = ["run", "--scenario", _write(tmp_path, doc), "--mode",
            "conventional", "--output-dir", str(tmp_path / "o")]
    assert cli.run_command(args) == cli.EXIT_OK
    assert calls == once
    # so does each variant of a sweep, whatever scalar it varies
    values = {"d_s": "0.3,0.4", "delta": "5,6", "dt": "0.001,0.002",
              "attack_start": "0.1,0.2", "q": "1,2", "alpha": "1,2",
              "c": "1,2"}
    assert sorted(values) == sorted(SWEEPABLE)
    for param, vals in values.items():
        calls.update(dict.fromkeys(once, 0))
        args = ["sweep", "--scenario", _write(tmp_path, doc), "--param",
                param, "--values", vals, "--output-dir", str(tmp_path / "o")]
        assert cli.run_command(args) == cli.EXIT_OK
        assert calls == once, param
    capsys.readouterr()


def _copies_doc(copies=2):
    """``paper_sec4`` with each of its four followers ``copies`` times:
    followers k, k + 4, ... (from 1) share a model, and copy c (from 1)
    starts at c x0.  The 4 ``copies`` followers form a bidirectional
    ring; leader r pins followers r, r + 4, ...."""
    doc = _bundled_doc()
    doc["name"] = "copies"
    doc["horizon"] = 0.01
    doc["followers"] = [copy.deepcopy(f) for f in doc["followers"] * copies]
    for i, spec in enumerate(doc["followers"]):
        spec["x0"] = [(i // 4 + 1) * v for v in spec["x0"]]
    n = 4 * copies
    ring = np.zeros((n, n))
    for i in range(n):
        ring[i, (i + 1) % n] = ring[i, (i - 1) % n] = 1.0
    doc["topology"] = {"adjacency": ring.tolist(),
                       "pinning": np.hstack([np.eye(4)] * copies).tolist()}
    return doc


def _count_calls(monkeypatch, names):
    """Count the calls of each ``gains`` function in ``names``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _solve=getattr(gains, name), _name=name):
            calls[_name] += 1
            return _solve(*args)
        monkeypatch.setattr(gains, name, counted)
    return calls


def test_each_distinct_model_is_checked_and_synthesized_once_per_load(
    monkeypatch
):
    # four models among eight followers: four checks and four solves of
    # each equation per load, and a second load repeats them all
    names = ("model_problems", "solve_regulator", "solve_care")
    calls = _count_calls(monkeypatch, names)
    for load in (1, 2):
        scenario = scenario_from_dict(_copies_doc())
        sim.Engine(scenario)
        assert calls == dict.fromkeys(names, 4 * load)
        assert scenario.gain_sets[0] is scenario.gain_sets[4]


def test_shared_gains_give_the_engine_each_followers_own_bits():
    scenario = scenario_from_dict(_copies_doc())
    engine = sim.Engine(scenario)
    for i, f in enumerate(scenario.followers):
        own = gains.synthesize_gains(f.A, f.B, f.Q, f.U, scenario.S)
        for got, want in ((engine.K[i], own.K), (engine.H[i], own.H),
                          (engine.PB[i], own.P @ f.B)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale, violation", [
    (None, "Q must be symmetric"),
    (1e300, "Riccati iteration did not converge: final residual inf"),
], ids=["asymmetric", "overflowing"])
def test_a_bad_model_shared_by_two_followers_is_listed_for_each(
    monkeypatch, scale, violation
):
    doc = _copies_doc()
    for spec in doc["followers"][1::4]:  # followers 2 and 6
        spec["Q"] = ([[3, 1, 0], [0, 3, 0], [0, 0, 3]] if scale is None
                     else [[v * scale for v in row] for row in spec["Q"]])
    calls = _count_calls(monkeypatch, ("model_problems", "solve_care"))
    assert _violations(doc) == [
        f"follower 2: {violation}", f"follower 6: {violation}"]
    # the bad model is checked once, and solved once if it passes
    assert calls == {"model_problems": 4,
                     "solve_care": 3 if scale is None else 4}


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
        "follower 3: (A, B) controllability matrix is not finite"]}
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


@pytest.mark.parametrize("edit, violation", [
    ({"horizon": 1e308}, "horizon must be under 2**63 dt steps, not inf"),
    ({"dt": 1e-320}, "horizon must be under 2**63 dt steps, not inf"),
    ({"horizon": float("inf")}, "horizon must be finite"),
], ids=["huge_horizon", "tiny_dt", "infinite_horizon"])
def test_a_step_count_that_overflows_to_infinity_is_listed(
    tmp_path, capfd, edit, violation
):
    # horizon / dt of two finite numbers can overflow to infinity; only an
    # infinite horizon is listed as such
    doc = dict(_bundled_doc(), **edit)
    out = tmp_path / "o"
    for args in (["validate"], ["run", "--output-dir", str(out)],
                 ["sweep", "--output-dir", str(out),
                  "--param", "d_s", "--values", "0.3"]):
        args = [args[0], "--scenario", _write(tmp_path, doc), *args[1:]]
        assert cli.run_command(args) == cli.EXIT_ERROR
        stdout, err = capfd.readouterr()
        assert err == ""
        assert json.loads(stdout) == {"valid": False,
                                      "violations": [violation]}
    assert not out.exists()


def test_a_sweep_to_a_dt_whose_step_count_is_infinite_is_one_error_line(
    tmp_path, capfd
):
    out = tmp_path / "o"
    args = ["sweep", "--scenario", _write(tmp_path, _tiny_doc()),
            "--output-dir", str(out), "--param", "dt", "--values", "1e-320"]
    assert cli.run_command(args) == cli.EXIT_ERROR
    stdout, err = capfd.readouterr()
    assert stdout == ""
    assert err == ("error: dt=1e-320 invalid: "
                   "['horizon must be under 2**63 dt steps, not inf']\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_horizon_too_large_to_allocate_is_one_error_line(
    tmp_path, capfd, command
):
    # validate accepts 2**50 steps, but the run's trace table would be 137
    # PiB: numpy refuses it at once, allocating nothing
    doc = _bundled_doc()
    doc["horizon"] = 2**50 * doc["dt"]
    out = tmp_path / "o"
    args = [command, "--scenario", _write(tmp_path, doc),
            "--output-dir", str(out)]
    if command == "sweep":
        args += ["--param", "d_s", "--values", "0.3"]
    assert cli.run_command(args) == cli.EXIT_ERROR
    stdout, err = capfd.readouterr()
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"cannot allocate a run of {2**50} dt steps" in err
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

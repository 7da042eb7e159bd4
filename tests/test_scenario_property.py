"""Property test: every one-field corruption of the bundled scenario
either is rejected with a clean list of violations or runs; and every
field scaled by 1e300 ends, through the CLI, without a traceback."""

import copy
import dataclasses
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from safe_containment import cli, sim
from safe_containment.scenario import (
    ScenarioError,
    bundled_scenario_path,
    scenario_from_dict,
)

BASE = json.loads(bundled_scenario_path("paper_sec4").read_text())


def _paths(node, prefix=()):
    """The path of every field of the document: every object key and
    every follower, each with the fields below it."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if prefix == ("followers",) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(BASE))


def _leaves(value, fn):
    """value with every number in it replaced by fn(number)."""
    if isinstance(value, list):
        return [_leaves(v, fn) for v in value]
    if isinstance(value, dict):
        return {k: _leaves(v, fn) for k, v in value.items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return fn(value)
    return value


def _reshaped(value):
    """value with a different shape: a list loses its last entry, anything
    else is wrapped in a list."""
    return value[:-1] if isinstance(value, list) else [value, value]


MUTATIONS = {
    "nan": lambda v: _leaves(v, lambda x: math.nan),
    "inf": lambda v: _leaves(v, lambda x: math.inf),
    "zero": lambda v: _leaves(v, lambda x: 0.0),
    "negative": lambda v: _leaves(v, lambda x: -x if x else -1.0),
    "shape": _reshaped,
    "string": lambda v: "not a number",
}


def _mutated(path, mutation):
    doc = copy.deepcopy(BASE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = MUTATIONS[mutation](parent[path[-1]])
    return doc


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    path=st.sampled_from(PATHS),
    mutation=st.sampled_from(["drop", *MUTATIONS]),
)
def test_one_corrupted_field_is_rejected_cleanly_or_runs(path, mutation):
    doc = _mutated(path, mutation)
    try:
        config = scenario_from_dict(doc)
    except ScenarioError as err:
        violations = err.violations
        assert violations
        assert len(set(violations)) == len(violations)
        for v in violations:
            assert isinstance(v, str) and v and "\n" not in v
            assert not v.startswith("invalid scenario")
        return
    result = sim.run(dataclasses.replace(config, horizon=10 * config.dt))
    assert len(result.table) == 2  # the first and the last of 11 states


# The x 1e300 variants whose every value is finite that validate rejects
# for the gains, the Phi sum or a step count, each with its violation
HUGE_REJECTED = {
    ("horizon",): "horizon must be under 2**63 dt steps, not 1.6e+304",
    ("output_stride",): "output_stride must be below 2**63",
    ("topology", "adjacency"): "topology: sum of Phi_r is singular",
    **{("followers", i, key): f"follower {i}: Riccati iteration did not "
       "converge" for i in range(4) for key in "BQ"},
}


@pytest.mark.filterwarnings("error")
def test_every_field_times_1e300_is_rejected_or_runs(tmp_path, capsys):
    """Each field of the bundled scenario times 1e300, through ``validate``
    and ``run`` over 10 steps (the field's own horizon for horizon and
    dt): no exception escapes, and what validate passes either runs or
    blows up.  The 15 blow-ups are real: huge initial states, leader
    states, observer and compensation rates, and topology weights."""
    outcomes = Counter()
    for path in PATHS:
        doc = copy.deepcopy(BASE)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = _leaves(parent[path[-1]], lambda x: x * 1e300)
        if path not in (("horizon",), ("dt",)):
            doc["horizon"] = 10 * doc["dt"]
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps(doc))
        code = cli.run_command(["validate", "--scenario", str(scn)])
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is (code == cli.EXIT_OK), path
        if path in HUGE_REJECTED:
            assert any(v.startswith(HUGE_REJECTED[path])
                       for v in report["violations"]), path
        code = cli.run_command(["run", "--scenario", str(scn),
                                "--output-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if not report["valid"]:
            assert code == cli.EXIT_ERROR and err == "", path
            outcomes["rejected"] += 1
        elif code == cli.EXIT_ERROR:
            assert err.startswith("error: simulation aborted: "), path
            outcomes["aborted"] += 1
        else:
            outcomes[code] += 1
    assert outcomes == {"rejected": 23, "aborted": 15, cli.EXIT_OK: 38,
                        cli.EXIT_QP_INFEASIBLE: 1}

"""Property test: every one-field corruption of the bundled scenario
either is rejected with a clean list of violations or runs."""

import copy
import dataclasses
import json
import math

from hypothesis import given, settings, strategies as st

from safe_containment import sim
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

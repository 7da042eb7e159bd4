import json

import numpy as np
import pytest

from safe_containment.attacks import eval_stacked
from safe_containment.scenario import (
    ScenarioError,
    bundled_scenario_path,
    scenario_from_dict,
)


def _stack(followers, key):
    """The (N, d) coefficients and rates of one attack channel."""
    coeff, rate = zip(*(getattr(f, key) for f in followers))
    return np.stack(coeff), np.stack(rate)


def test_input_channel_value_at_onset(paper_scenario):
    coeff, rate = paper_scenario.followers[0].attack_cil
    assert paper_scenario.attack_start == 3.0
    assert eval_stacked(coeff, rate, 3.0, 3.0) == pytest.approx(
        [2.5, 1.5, -6.6], abs=0
    )


def test_zero_before_onset(paper_scenario):
    start = paper_scenario.attack_start
    for key, t in (("attack_cil", 2.999), ("attack_ol", 0.0)):
        coeff, rate = _stack(paper_scenario.followers, key)
        assert np.array_equal(eval_stacked(coeff, rate, start, t),
                              np.zeros((4, 3)))


def test_observer_channel_ten_seconds_after_onset(paper_scenario):
    coeff, rate = paper_scenario.followers[1].attack_ol
    expected = np.array(
        [3.3 * np.e**0.6, -2.2 * np.e**1.5, -1.7 * np.e**1.2]
    )
    assert eval_stacked(coeff, rate, 3.0, 13.0) == pytest.approx(
        expected, rel=1e-15
    )


def test_absolute_clock_differs_by_bounded_factor():
    coeff, rate = np.array([2.0, -1.0]), np.array([0.1, 0.3])
    t = 7.5
    shifted = eval_stacked(coeff, rate, 3.0, t)
    absolute = eval_stacked(coeff, rate, 3.0, t, absolute_clock=True)
    assert absolute == pytest.approx(shifted * np.exp(rate * 3.0), rel=1e-14)


def test_monotone_envelope():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(-5, 5, 3)
        k = rng.uniform(0, 0.5, 3)
        kmax = k.max()
        for t in rng.uniform(1.0, 20.0, 10):
            assert np.linalg.norm(eval_stacked(c, k, 1.0, t)) <= (
                np.linalg.norm(c) * np.exp(kmax * (t - 1.0)) + 1e-12
            )
    # exact equality when all rates coincide
    value = eval_stacked(np.array([3.0, 4.0]), np.array([0.2, 0.2]), 0.0, 5.0)
    assert np.linalg.norm(value) == pytest.approx(5.0 * np.exp(1.0))


def test_continuity_after_onset():
    coeff, rate = np.array([1.0, -2.0]), np.array([0.3, 0.1])
    ts = np.linspace(2.0, 10.0, 200)
    vals = np.array([eval_stacked(coeff, rate, 2.0, t) for t in ts])
    jumps = np.abs(np.diff(vals, axis=0)).max()
    # grid steps never exceed the Lipschitz bound max|c k| exp(k tau_max) dt
    dt = ts[1] - ts[0]
    bound = np.max(np.abs(coeff * rate) * np.exp(rate * 8.0))
    assert jumps <= bound * dt * 1.01


def test_stacked_matches_per_signal(paper_scenario):
    coeff, rate = _stack(paper_scenario.followers, "attack_cil")
    for t in (0.0, 2.9, 3.0, 9.7):
        stacked = eval_stacked(coeff, rate, 3.0, t)
        for i, f in enumerate(paper_scenario.followers):
            single = eval_stacked(*f.attack_cil, 3.0, t)
            assert np.array_equal(stacked[i], single)


def test_signal_validation():
    # a table's coefficients and rates must match the channel's size, an
    # onset must be nonnegative, and a missing table is all zeros
    doc = json.loads(bundled_scenario_path("paper_sec4").read_text())
    doc["followers"][0]["attack_cil"]["rate"] = [0.1, 0.1]
    doc["attack_start"] = -1.0
    del doc["followers"][1]["attack_ol"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.violations == [
        "follower 1: attack_cil rate must have length 3",
        "attack_start must be nonnegative",
    ]
    doc["followers"][0]["attack_cil"]["rate"] = [0.1, 0.1, 0.1]
    doc["attack_start"] = 2.0
    coeff, rate = scenario_from_dict(doc).followers[1].attack_ol
    assert np.array_equal(eval_stacked(coeff, rate, 2.0, 10.0), np.zeros(3))

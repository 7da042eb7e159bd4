"""Step replay against the recorded fixture (see ``replay``): a change
that reorders the pipeline's arithmetic must keep every replayed step
within the rounding bound, so its difference from the recorded code can
be told apart from a wrong result."""

import dataclasses

import numpy as np
import pytest

import replay
from safe_containment import sim
from safe_containment.scenario import CONTROLLER_MODES


@pytest.fixture(scope="module")
def recorded():
    with np.load(replay.FIXTURE) as data:
        return {name: data[name] for name in data.files}


def test_the_fixture_covers_both_phases_and_active_rows(recorded):
    dt, onset = 1e-3, 3.0
    for mode in CONTROLLER_MODES:
        t = recorded[f"{mode}_k"] * dt
        assert len(t) >= 100
        assert np.sum(t < onset) >= 20 and np.sum(t >= onset) >= 50
    layout = replay.engine("saar").layout
    active = [layout.record(row).pair_active.any()
              for row in recorded["saar_row"]]
    assert sum(active) >= 50


@pytest.mark.parametrize("mode", CONTROLLER_MODES)
def test_replayed_steps_stay_within_the_rounding_bound(recorded, mode):
    for name, (diff, bound) in replay.replay(mode, recorded).items():
        worst = int(np.argmax(diff - bound))
        assert np.all(diff <= bound), (
            f"{name} at step {recorded[mode + '_k'][worst]}: "
            f"{diff[worst]:.3g} > bound {bound[worst]:.3g}"
        )


def test_the_bound_catches_a_model_off_by_one_part_in_a_billion(recorded):
    mode = "resilient_unsafe"
    scenario = replay.engine(mode).scenario
    first = scenario.followers[0]
    followers = [dataclasses.replace(first, A=first.A * (1 + 1e-9)),
                 *scenario.followers[1:]]
    eng = sim.Engine(dataclasses.replace(scenario, followers=followers))
    measures = replay.replay(mode, recorded, eng)
    diff, bound = measures["inputs"]
    assert np.sum(diff > bound) > len(diff) // 2

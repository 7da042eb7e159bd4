import numpy as np
import pytest

from safe_containment.attacks import ExpSignal, eval_stacked


def test_input_channel_value_at_onset(paper_scenario):
    sig = paper_scenario.followers[0].attack_cil
    assert sig.start_time == 3.0
    assert sig(3.0) == pytest.approx([2.5, 1.5, -6.6], abs=0)


def test_zero_before_onset(paper_scenario):
    for f in paper_scenario.followers:
        assert np.array_equal(f.attack_cil(2.999), np.zeros(3))
        assert np.array_equal(f.attack_ol(0.0), np.zeros(3))


def test_observer_channel_ten_seconds_after_onset(paper_scenario):
    sig = paper_scenario.followers[1].attack_ol
    expected = np.array(
        [3.3 * np.e**0.6, -2.2 * np.e**1.5, -1.7 * np.e**1.2]
    )
    assert sig(13.0) == pytest.approx(expected, rel=1e-15)


def test_absolute_clock_differs_by_bounded_factor():
    sig = ExpSignal([2.0, -1.0], [0.1, 0.3], start_time=3.0)
    t = 7.5
    shifted = sig(t)
    absolute = sig(t, absolute_clock=True)
    assert absolute == pytest.approx(
        shifted * np.exp(np.array([0.1, 0.3]) * 3.0), rel=1e-14
    )


def test_monotone_envelope():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(-5, 5, 3)
        k = rng.uniform(0, 0.5, 3)
        sig = ExpSignal(c, k, start_time=1.0)
        kmax = k.max()
        for t in rng.uniform(1.0, 20.0, 10):
            assert np.linalg.norm(sig(t)) <= (
                np.linalg.norm(c) * np.exp(kmax * (t - 1.0)) + 1e-12
            )
    # exact equality when all rates coincide
    sig = ExpSignal([3.0, 4.0], [0.2, 0.2], start_time=0.0)
    assert np.linalg.norm(sig(5.0)) == pytest.approx(5.0 * np.exp(1.0))


def test_continuity_after_onset():
    sig = ExpSignal([1.0, -2.0], [0.3, 0.1], start_time=2.0)
    ts = np.linspace(2.0, 10.0, 200)
    vals = np.array([sig(t) for t in ts])
    jumps = np.abs(np.diff(vals, axis=0)).max()
    # grid steps never exceed the Lipschitz bound max|c k| exp(k tau_max) dt
    dt = ts[1] - ts[0]
    bound = np.max(
        np.abs(np.array([1.0, -2.0]) * np.array([0.3, 0.1]))
        * np.exp(np.array([0.3, 0.1]) * 8.0)
    )
    assert jumps <= bound * dt * 1.01


def test_stacked_matches_per_signal(paper_scenario):
    coeff = np.stack([f.attack_cil.coefficients
                      for f in paper_scenario.followers])
    rate = np.stack([f.attack_cil.rates for f in paper_scenario.followers])
    for t in (0.0, 2.9, 3.0, 9.7):
        stacked = eval_stacked(coeff, rate, 3.0, t)
        for i, f in enumerate(paper_scenario.followers):
            assert np.array_equal(stacked[i], f.attack_cil(t))


def test_signal_validation():
    with pytest.raises(ValueError):
        ExpSignal([1.0, 2.0], [0.1], 0.0)
    with pytest.raises(ValueError):
        ExpSignal([1.0], [0.1], -1.0)
    z = ExpSignal.zero(3, 2.0)
    assert np.array_equal(z(10.0), np.zeros(3))

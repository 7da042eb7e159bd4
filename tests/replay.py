"""Step replay: recorded ``paper_sec4`` steps, run again one at a time.

The fixture holds, per controller mode, the packed states y_k and
y_{k+1} and the trace row of a few hundred steps of the bundled 16 s
run.  Replaying step k from the stored y_k compares one step of the code
under test with one step of the code that recorded the fixture, so a
change that reorders floating-point sums shows as a difference of a few
rounding errors instead of the chaotic whole-trace drift that follows
it over 16,000 steps.

    python tests/replay.py record   # rewrite the fixture from this checkout
    python tests/replay.py report   # worst differences against the fixture

Record only at a commit whose traces are the reference: a change that
moves bits must leave the fixture as it is.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

from safe_containment import sim
from safe_containment.scenario import CONTROLLER_MODES, load_scenario

FIXTURE = Path(__file__).with_name("replay_paper_sec4.npz")

GRID_STEPS = 80     # steps on an even grid over the horizon
ACTIVE_STEPS = 60   # steps with an active pair row, where there are any
ONSET_STEPS = 20    # consecutive steps from just before the attack onset

# Fields of a trace row the controller's inputs make up.
INPUT_FIELDS = ("u_c", "gamma_hat", "u_r", "u_bar", "u", "delta_u")

# Relative bound on what reordering the pipeline's floating-point sums may
# move: 64 units in the last place.  Regrouping the three terms of the
# filter's barrier bound b (``safety._barrier_rows``) to
# b0 - (2 r'(B_j u_j) + lf) moves the replayed inputs by at most 2.5e-16
# of their size (1.1 ulp) and y_{k+1} by 5.5e-18 of its size.  A reordered
# product L @ y sums at most N + M = 8 nonzero terms per entry, and its
# results pass through fewer than 8 further operations before they reach
# the inputs, so 64 ulp covers every such reordering with room to spare,
# while a wrong coefficient moves the outputs by far more.  The same holds
# for the other reorderings the engine makes: the rows of O @ y sum e_c
# and delta_o as x - W leader_x over at most M + 1 terms in another order
# (its pair rows give x_i - x_j exactly), the block-diagonal product adds
# B u per follower over its m terms in another order, and np.add.reduce
# sums the squares of xi and s in another order than einsum did.
TOL = 64 * np.finfo(float).eps


def engine(mode: str) -> sim.Engine:
    """The bundled scenario in ``mode``, sampled at every step."""
    scenario = load_scenario("paper_sec4").with_mode(mode)
    return sim.Engine(dataclasses.replace(scenario, output_stride=1))


def record(path: Path = FIXTURE) -> None:
    """Run every mode over the horizon and store the chosen steps."""
    arrays = {}
    for mode in CONTROLLER_MODES:
        eng = engine(mode)
        table = eng.new_table()
        ys = np.empty((eng.n_steps + 1, len(eng.initial_state())))
        ys[0] = eng.initial_state()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k in range(eng.n_steps):
                ys[k + 1] = eng.step(k, ys[k], table)[0]
        active = table[:-1, eng.layout.pair_start:eng.layout.n_csv][:, 2::3]
        active_steps = np.flatnonzero(active.any(axis=1))
        onset = int(round(eng.scenario.attack_start / eng.scenario.dt))
        picks = [
            np.linspace(0, eng.n_steps - 1, GRID_STEPS).round().astype(int),
            active_steps[np.linspace(
                0, len(active_steps) - 1, min(ACTIVE_STEPS, len(active_steps))
            ).round().astype(int)],
            np.arange(onset - ONSET_STEPS // 2, onset + ONSET_STEPS // 2),
        ]
        k = np.unique(np.concatenate(picks))
        arrays.update({
            f"{mode}_k": k, f"{mode}_y": ys[k], f"{mode}_y_next": ys[k + 1],
            f"{mode}_row": table[k],
        })
    np.savez_compressed(path, **arrays)


def replay(
    mode: str, data, eng: sim.Engine | None = None
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Step every stored y_k of ``mode`` again, on ``eng`` if given, else
    on ``engine(mode)``; per step, each measure's difference from the
    fixture and its bound (see ``TOL``):

    ``y``       ||y_{k+1} - y_{k+1}^ref||, bound TOL ||y_{k+1}^ref|| plus
                dt sum_i ||B_i|| G_i
    ``inputs``  the largest ||f - f^ref|| over the INPUT_FIELDS f, bound
                TOL times the largest ||f^ref|| plus 2 sum_i G_i
    ``others``  the largest difference in any other column of the row,
                bound TOL ||y_k||
    ``active``  the number of pair rows whose activity differs, bound 0

    G_i bounds how far follower i's gamma_hat = g s/(||s|| + e) can move,
    g = exp(rho_hat), e = exp(-c t^2).  Its terms reach s = eps' P B with
    magnitude sigma = ||P B|| (||x|| + ||zeta||), so a relative change of
    TOL in them moves gamma_hat by about 2 g TOL sigma / (||s|| + e).
    That is at rounding level on most steps, but where ||s|| + e is
    itself near rounding level (||s|| at rounding level once e has
    vanished, t > about 6 s) the direction s/||s|| is noise, and G_i is
    capped at 2 g, a full reversal.
    """
    eng = eng or engine(mode)
    table = eng.new_table()
    layout = eng.layout
    sc = eng.scenario
    inputs = np.zeros(layout.width, dtype=bool)
    body = inputs[1:layout.pair_start].reshape(layout.N, -1)
    for attr in INPUT_FIELDS:
        body[:, layout.columns[attr]] = True
    activity = np.zeros(layout.width, dtype=bool)
    activity[layout.pair_start + 2:layout.n_csv:3] = True
    others = ~inputs & ~activity
    pb_norm = np.linalg.norm(eng.PB, axis=(1, 2))
    b_norm = np.linalg.norm(eng.B, ord=2, axis=(1, 2))
    out = {name: ([], []) for name in ("y", "inputs", "others", "active")}
    norm = np.linalg.norm
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, y, y_next, ref in zip(
            data[f"{mode}_k"], data[f"{mode}_y"], data[f"{mode}_y_next"],
            data[f"{mode}_row"],
        ):
            got_next, _, _, row = eng.step(int(k), y, table)
            got, want = layout.record(row), layout.record(ref)
            if mode == "conventional":
                swing = np.zeros(layout.N)
            else:
                g = np.exp(np.minimum(want.rho_hat, sc.gain_cap))
                s_norm = norm(np.einsum("ni,nim->nm", want.eps, eng.PB), axis=1)
                sigma = pb_norm * (norm(want.x, axis=1) + norm(want.zeta, axis=1))
                reach = 2 * TOL * sigma / (s_norm + np.exp(-eng.c * want.t**2))
                swing = np.minimum(2.0, reach) * g
            measures = {
                "y": (norm(got_next - y_next),
                      TOL * norm(y_next) + sc.dt * b_norm @ swing),
                "inputs": (
                    max(norm(getattr(got, f) - getattr(want, f))
                        for f in INPUT_FIELDS),
                    TOL * max(norm(getattr(want, f)) for f in INPUT_FIELDS)
                    + 2 * swing.sum(),
                ),
                "others": (np.abs(row[others] - ref[others]).max(),
                           TOL * norm(y)),
                "active": ((row[activity] != ref[activity]).sum(), 0),
            }
            for name, (diff, bound) in measures.items():
                out[name][0].append(diff)
                out[name][1].append(bound)
    return {name: tuple(map(np.array, pair)) for name, pair in out.items()}


def main(argv: list[str]) -> int:
    if argv == ["record"]:
        record()
        return 0
    if argv == ["report"]:
        with np.load(FIXTURE) as data:
            for mode in CONTROLLER_MODES:
                measures = replay(mode, data)
                print(f"{mode}, {len(data[mode + '_k'])} steps:")
                for name, (diff, bound) in measures.items():
                    ratio = np.divide(diff, bound, out=np.zeros(len(diff)),
                                      where=bound > 0)
                    print(f"  {name}: largest difference {diff.max():.3g}, "
                          f"largest difference/bound {ratio.max():.3g}")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

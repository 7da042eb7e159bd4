"""Scenario documents for the benchmark's workloads.

Each workload is one scenario document, handed to the program through
``scenario_from_dict`` exactly as a JSON file would be.  The two
``paper_*`` workloads are the bundled ``paper_sec4`` experiment with
fixed settings, so their inputs do not depend on the seed; the seed
shapes ``swarm16_saar`` only.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

PAPER_JSON = (
    Path(__file__).resolve().parent.parent
    / "src" / "safe_containment" / "scenarios" / "paper_sec4.json"
)

SWARM_FOLLOWERS = 16
SWARM_HORIZON = 0.4
SWARM_ATTACK_START = 0.2
SWARM_RADIUS = 2.0


def paper_doc() -> dict:
    with open(PAPER_JSON) as fh:
        return json.load(fh)


def paper_saar(seed: int) -> dict:
    """``paper_sec4`` in ``saar`` mode over the attack onset at 3 s and
    the first second of the attacked phase."""
    return dict(paper_doc(), name="paper_saar", horizon=4.0)


def paper_dense_unsafe(seed: int) -> dict:
    """``paper_sec4`` without the filter, sampled at every step."""
    return dict(
        paper_doc(),
        name="paper_dense_unsafe",
        controller_mode="resilient_unsafe",
        output_stride=1,
    )


def swarm16_saar(seed: int) -> dict:
    """16 followers and the four ``paper_sec4`` leaders, from ``seed``.

    Follower k takes the dynamics of bundled follower k mod 4.  The
    followers form a bidirectional ring digraph; leader r pins followers
    r, r + 4, r + 8 and r + 12.  They start on a jittered circle of
    radius 2 (neighbours at least 0.5 apart, well above d_s = 0.3).  Each
    carries the exponentially growing attacks of its bundled follower,
    every coefficient and rate scaled by a factor drawn from [0.9, 1.1],
    from halfway through the horizon.  The seed moves every number but
    keeps the family narrow, so that run times and errors of different
    seeds stay comparable.
    """
    rng = np.random.default_rng(seed)
    base = paper_doc()
    n, n_lead = SWARM_FOLLOWERS, len(base["leader_x0"])
    adjacency = np.zeros((n, n))
    for i in range(n):
        adjacency[i, (i + 1) % n] = adjacency[i, (i - 1) % n] = 1.0
    pinning = np.zeros((n_lead, n))
    for i in range(n):
        pinning[i % n_lead, i] = 1.0
    angles = 2 * np.pi * np.arange(n) / n + rng.uniform(-0.05, 0.05, n)
    radii = SWARM_RADIUS + rng.uniform(-0.1, 0.1, n)
    heights = rng.uniform(-0.2, 0.2, n)
    followers = []
    for i in range(n):
        f = copy.deepcopy(base["followers"][i % len(base["followers"])])
        f["x0"] = [
            float(radii[i] * np.cos(angles[i])),
            float(radii[i] * np.sin(angles[i])),
            float(heights[i]),
        ]
        for channel in ("attack_cil", "attack_ol"):
            f[channel] = {
                key: (np.array(f[channel][key]) * rng.uniform(0.9, 1.1, 3)).tolist()
                for key in ("coeff", "rate")
            }
        followers.append(f)
    return dict(
        base,
        name="swarm16_saar",
        horizon=SWARM_HORIZON,
        attack_start=SWARM_ATTACK_START,
        topology={"adjacency": adjacency.tolist(), "pinning": pinning.tolist()},
        followers=followers,
    )


WORKLOADS = {
    "paper_saar": paper_saar,
    "swarm16_saar": swarm16_saar,
    "paper_dense_unsafe": paper_dense_unsafe,
}

"""Declarative experiment descriptions.

A scenario is a JSON document naming every quantity a run needs: follower
and leader models, the communication topology, attack signal tables,
adaptation constants, initial states, and integrator settings.  Loading
validates everything up front and reports *all* violations, not just the
first.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import attacks, gains, topology as topo

CONTROLLER_MODES = ("saar", "resilient_unsafe", "conventional")


class ScenarioError(ValueError):
    """Scenario file failed validation; ``violations`` lists every problem."""

    def __init__(self, violations: list[str]):
        super().__init__(
            "invalid scenario:\n" + "\n".join(f"  - {v}" for v in violations)
        )
        self.violations = violations


@dataclass
class FollowerSpec:
    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    U: np.ndarray
    x0: np.ndarray
    zeta0: np.ndarray | None = None
    q: float = 1.0
    alpha: float = 1.0
    c: float = 1.0
    attack_cil: attacks.ExpSignal | None = None
    attack_ol: attacks.ExpSignal | None = None


@dataclass
class ScenarioConfig:
    name: str
    followers: list[FollowerSpec]
    S: np.ndarray
    leader_x0: np.ndarray
    topology: topo.Topology
    d_s: float = 0.3
    delta: np.ndarray = field(default_factory=lambda: np.array(5.0))
    attack_start: float = 3.0
    absolute_clock: bool = False
    dt: float = 1e-3
    horizon: float = 16.0
    output_stride: int = 10
    controller_mode: str = "saar"
    gain_cap: float = 700.0
    divergence_threshold: float = 1e3

    @property
    def n_followers(self) -> int:
        return len(self.followers)

    @property
    def n_leaders(self) -> int:
        return self.leader_x0.shape[0]

    @property
    def state_dim(self) -> int:
        return self.S.shape[0]

    def validate(self) -> list[str]:
        """Return every constraint violation found (empty list if valid)."""
        errs: list[str] = []
        n = self.state_dim
        s = np.asarray(self.S)
        if s.shape != (n, n):
            errs.append("S must be square")

        check = gains.check_leader_assumption(gains.LeaderModel(self.S))
        if not check.passed:
            errs.extend(f"leader S: {r}" for r in check.reasons)

        for idx, f in enumerate(self.followers):
            tag = f"follower {idx}"
            if f.A.shape != (n, n):
                errs.append(f"{tag}: A must be {n}x{n}")
            if f.B.shape[0] != n:
                errs.append(f"{tag}: B must have {n} rows")
            m = f.B.shape[1]
            if not np.allclose(f.Q, f.Q.T, atol=1e-12):
                errs.append(f"{tag}: Q is not symmetric")
            elif f.Q.shape != (n, n) or np.any(np.linalg.eigvalsh(f.Q) <= 0):
                errs.append(f"{tag}: Q must be {n}x{n} positive definite")
            if not np.allclose(f.U, f.U.T, atol=1e-12):
                errs.append(f"{tag}: U is not symmetric")
            elif f.U.shape != (m, m) or np.any(np.linalg.eigvalsh(f.U) <= 0):
                errs.append(f"{tag}: U must be {m}x{m} positive definite")
            try:
                gains.AgentModel(f.A, f.B, f.Q, f.U)
            except gains.GainSynthesisError as exc:
                errs.append(f"{tag}: {exc}")
            if f.x0.shape != (n,):
                errs.append(f"{tag}: x0 must have length {n}")
            if f.zeta0 is not None and f.zeta0.shape != (n,):
                errs.append(f"{tag}: zeta0 must have length {n}")
            for key, val in (("q", f.q), ("alpha", f.alpha), ("c", f.c)):
                if val <= 0:
                    errs.append(f"{tag}: {key} must be positive")
            for key, sig, dim in (
                ("attack_cil", f.attack_cil, m),
                ("attack_ol", f.attack_ol, n),
            ):
                if sig is None:
                    continue
                if sig.dim != dim:
                    errs.append(f"{tag}: {key} must have dimension {dim}")
                for part, vals in (
                    ("coeff", sig.coefficients),
                    ("rate", sig.rates),
                ):
                    if not np.all(np.isfinite(vals)):
                        errs.append(f"{tag}: {key} {part} must be finite")

        if self.leader_x0.ndim != 2 or self.leader_x0.shape[1] != n:
            errs.append(f"leader_x0 must be (M, {n})")
        if self.topology.n_followers != self.n_followers:
            errs.append("topology follower count does not match followers")
        if self.topology.n_leaders != self.n_leaders:
            errs.append("topology leader count does not match leader_x0")
        unreachable = topo.check_reachability(self.topology)
        if unreachable:
            errs.append(
                f"followers unreachable from every leader: {sorted(unreachable)}"
            )

        for key, val in (
            ("d_s", self.d_s),
            ("dt", self.dt),
            ("horizon", self.horizon),
            ("gain_cap", self.gain_cap),
            ("divergence_threshold", self.divergence_threshold),
        ):
            if not val > 0:
                errs.append(f"{key} must be positive")
        delta = np.asarray(self.delta, dtype=float)
        n_f = self.n_followers
        if delta.ndim != 0 and delta.shape != (n_f, n_f):
            errs.append(
                f"delta must be a scalar or a {n_f}x{n_f} array, "
                f"not shape {delta.shape}"
            )
        if not np.all(np.isfinite(delta) & (delta > 0)):
            errs.append("delta entries must be finite and positive")
        if self.attack_start < 0:
            errs.append("attack_start must be nonnegative")
        if self.output_stride < 1:
            errs.append("output_stride must be at least 1")
        if self.controller_mode not in CONTROLLER_MODES:
            errs.append(f"controller_mode must be one of {CONTROLLER_MODES}")
        return errs

    def with_mode(self, mode: str) -> "ScenarioConfig":
        return replace(self, controller_mode=mode)

    def attack_free(self) -> "ScenarioConfig":
        """Copy of this scenario with every attack coefficient zeroed."""
        followers = [
            replace(
                f,
                attack_cil=attacks.ExpSignal.zero(
                    f.B.shape[1], self.attack_start
                ),
                attack_ol=attacks.ExpSignal.zero(
                    self.state_dim, self.attack_start
                ),
            )
            for f in self.followers
        ]
        return replace(self, followers=followers)


def _matrix(obj, what: str) -> np.ndarray:
    try:
        return np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError([f"{what}: not a numeric array ({exc})"]) from exc


def _signal(obj, start: float, what: str) -> attacks.ExpSignal | None:
    if obj is None:
        return None
    try:
        return attacks.ExpSignal(
            _matrix(obj["coeff"], f"{what}.coeff"),
            _matrix(obj["rate"], f"{what}.rate"),
            start,
        )
    except (KeyError, ValueError) as exc:
        raise ScenarioError([f"{what}: {exc}"]) from exc


def scenario_from_dict(doc: dict, name: str = "scenario") -> ScenarioConfig:
    """Build and fully validate a ScenarioConfig from parsed JSON."""
    try:
        attack_start = float(doc.get("attack_start", 3.0))
        followers = []
        for idx, f in enumerate(doc["followers"]):
            tag = f"followers[{idx}]"
            followers.append(
                FollowerSpec(
                    A=_matrix(f["A"], f"{tag}.A"),
                    B=_matrix(f["B"], f"{tag}.B"),
                    Q=_matrix(f["Q"], f"{tag}.Q"),
                    U=_matrix(f["U"], f"{tag}.U"),
                    x0=_matrix(f["x0"], f"{tag}.x0"),
                    zeta0=(
                        _matrix(f["zeta0"], f"{tag}.zeta0")
                        if f.get("zeta0") is not None
                        else None
                    ),
                    q=float(f.get("q", 1.0)),
                    alpha=float(f.get("alpha", 1.0)),
                    c=float(f.get("c", 1.0)),
                    attack_cil=_signal(
                        f.get("attack_cil"), attack_start, f"{tag}.attack_cil"
                    ),
                    attack_ol=_signal(
                        f.get("attack_ol"), attack_start, f"{tag}.attack_ol"
                    ),
                )
            )
        graph = topo.Topology(
            adjacency=_matrix(doc["topology"]["adjacency"], "topology.adjacency"),
            pinning=_matrix(doc["topology"]["pinning"], "topology.pinning"),
        )
        config = ScenarioConfig(
            name=doc.get("name", name),
            followers=followers,
            S=_matrix(doc["S"], "S"),
            leader_x0=_matrix(doc["leader_x0"], "leader_x0"),
            topology=graph,
            d_s=float(doc.get("d_s", 0.3)),
            delta=_matrix(doc.get("delta", 5.0), "delta"),
            attack_start=attack_start,
            absolute_clock=bool(doc.get("absolute_clock", False)),
            dt=float(doc.get("dt", 1e-3)),
            horizon=float(doc.get("horizon", 16.0)),
            output_stride=int(doc.get("output_stride", 10)),
            controller_mode=str(doc.get("controller_mode", "saar")),
            gain_cap=float(doc.get("gain_cap", 700.0)),
            divergence_threshold=float(doc.get("divergence_threshold", 1e3)),
        )
    except KeyError as exc:
        raise ScenarioError([f"missing required field {exc}"]) from exc
    except (TypeError, ValueError, topo.TopologyError) as exc:
        raise ScenarioError([str(exc)]) from exc

    violations = config.validate()
    if violations:
        raise ScenarioError(violations)
    return config


def bundled_scenario_path(name: str) -> Path:
    return Path(
        importlib.resources.files("safe_containment") / "scenarios" / f"{name}.json"
    )


def load_scenario(path_or_name) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(path_or_name)
    if not path.exists():
        bundled = bundled_scenario_path(str(path_or_name))
        if bundled.exists():
            path = bundled
        else:
            raise FileNotFoundError(
                f"no scenario file or bundled scenario named {path_or_name!r}"
            )
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"parse error in {path} at line {exc.lineno}: {exc.msg}"]
        ) from exc
    return scenario_from_dict(doc, name=path.stem)

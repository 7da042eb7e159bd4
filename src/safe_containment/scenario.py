"""Declarative experiment descriptions.

A scenario is a JSON document naming every quantity a run needs: follower
and leader models, the communication topology, attack signal tables,
adaptation constants, initial states, and integrator settings.  Loading
validates everything up front and reports every violation at once; only
a field that is missing or not numeric is reported alone.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import gains, topology as topo

CONTROLLER_MODES = ("saar", "resilient_unsafe", "conventional")
# the largest gain whose exponential is a finite float (about 709.78)
MAX_GAIN_CAP = float(np.log(np.finfo(float).max))


class ScenarioError(ValueError):
    """Scenario file failed validation; ``violations`` lists every problem."""

    def __init__(self, violations: list[str]):
        super().__init__(
            "invalid scenario:\n" + "\n".join(f"  - {v}" for v in violations)
        )
        self.violations = violations


@dataclass
class FollowerSpec:
    """One follower's model, initial state, adaptation constants and the
    (coefficients, rates) arrays of its input-layer and observer-layer
    attacks; an attack left as None becomes zeros of B's column count or
    A's row count."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    U: np.ndarray
    x0: np.ndarray
    zeta0: np.ndarray | None = None
    q: float = 1.0
    alpha: float = 1.0
    c: float = 1.0
    attack_cil: tuple[np.ndarray, np.ndarray] | None = None
    attack_ol: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        for key, size in (("attack_cil", np.shape(self.B)[1:2]),
                          ("attack_ol", np.shape(self.A)[:1])):
            if getattr(self, key) is None:
                setattr(self, key, (np.zeros(size), np.zeros(size)))


@dataclass
class ScenarioConfig:
    name: str
    followers: list[FollowerSpec]
    S: np.ndarray
    leader_x0: np.ndarray
    topology: topo.Topology | None  # None: the graph was rejected
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
        s = np.asarray(self.S)
        n = len(s) if s.ndim == 2 and s.shape == s.shape[::-1] else None
        errs.extend(gains.leader_problems(s))

        for idx, f in enumerate(self.followers):
            tag = f"follower {idx}"
            problems = gains.model_problems(f.A, f.B, f.Q, f.U, n)
            errs.extend(f"{tag}: {p}" for p in problems)
            m = f.B.shape[1] if f.B.ndim == 2 else None
            for key, vec, size in (
                ("x0", f.x0, n),
                ("zeta0", f.zeta0, n),
                ("attack_cil coeff", f.attack_cil[0], m),
                ("attack_cil rate", f.attack_cil[1], m),
                ("attack_ol coeff", f.attack_ol[0], n),
                ("attack_ol rate", f.attack_ol[1], n),
            ):
                if vec is None:
                    continue
                if size is not None and vec.shape != (size,):
                    errs.append(f"{tag}: {key} must have length {size}")
                elif not np.all(np.isfinite(vec)):
                    errs.append(f"{tag}: {key} must be finite")
            for key, val in (("q", f.q), ("alpha", f.alpha), ("c", f.c)):
                errs.extend(_positive(f"{tag}: {key}", val))
        if n is not None and np.all(np.isfinite(s)):
            try:  # cached for Engine; repeats each first model problem above
                self.gain_sets
            except ScenarioError as exc:
                errs.extend(v for v in exc.violations if v not in errs)

        m_all = {f.B.shape[1] for f in self.followers if f.B.ndim == 2}
        if len(m_all) > 1:
            errs.append("every follower's B must have the same column count m")
        lead = self.leader_x0
        if lead.ndim != 2 or n not in (None, lead.shape[1]):
            errs.append(f"leader_x0 must be (M, {n or 'n'})")
        elif not np.all(np.isfinite(lead)):
            errs.append("leader_x0 must be finite")
        graph = self.topology  # None: scenario_from_dict listed why
        if graph is not None:
            if graph.n_followers != self.n_followers:
                errs.append("topology follower count does not match followers")
            if lead.ndim and graph.n_leaders != len(lead):
                errs.append("topology leader count does not match leader_x0")
            try:
                topo.build_phi_family(graph)
            except topo.TopologyError as exc:
                errs.append(f"topology: {exc}")

        for key, val in (
            ("d_s", self.d_s),
            ("dt", self.dt),
            ("horizon", self.horizon),
        ):
            errs.extend(_positive(key, val))
        if not self.divergence_threshold > 0:  # inf: never diverges
            errs.append("divergence_threshold must be positive")
        if not self.gain_cap > 0:
            errs.append("gain_cap must be positive")
        elif self.gain_cap > MAX_GAIN_CAP:
            errs.append(f"gain_cap must be at most {MAX_GAIN_CAP:.6g}, "
                        "where exp(gain_cap) overflows")
        steps = self.horizon / self.dt if self.dt > 0 else 0.0
        off = abs(steps - round(steps)) if np.isfinite(steps) else 0.0
        n_steps = None  # the step count, if it is one
        if off > 1e-9 * abs(steps):
            errs.append(f"horizon must be a whole number of dt steps, "
                        f"not {steps:.6g}")
        elif 2**63 <= steps < np.inf:  # the step indices are int64
            errs.append(f"horizon must be under 2**63 dt steps, not {steps:.6g}")
        elif 0 < steps < np.inf:
            n_steps = int(round(steps))
        delta = np.asarray(self.delta, dtype=float)
        n_f = self.n_followers
        if delta.ndim != 0 and delta.shape != (n_f, n_f):
            errs.append(
                f"delta must be a scalar or a {n_f}x{n_f} array, "
                f"not shape {delta.shape}"
            )
        if not np.all(np.isfinite(delta) & (delta > 0)):
            errs.append("delta entries must be finite and positive")
        if not self.attack_start >= 0:  # inf: no attack
            errs.append("attack_start must be nonnegative")
        if not float(self.output_stride).is_integer():
            errs.append("output_stride must be a whole number")
        elif self.output_stride < 1:
            errs.append("output_stride must be at least 1")
        elif self.output_stride >= 2**63:  # as a step index, int64
            errs.append("output_stride must be below 2**63")
        elif n_steps is not None and n is not None and len(m_all) == 1:
            errs.extend(self._array_problems(n_steps, n, *m_all))
        if not isinstance(self.absolute_clock, bool):
            errs.append("absolute_clock must be true or false")
        if self.controller_mode not in CONTROLLER_MODES:
            errs.append(f"controller_mode must be one of {CONTROLLER_MODES}")
        # run and sweep write files named after the scenario
        name = self.name
        if (not isinstance(name, str) or name in ("", ".", "..")
                or "/" in name or "\\" in name):
            errs.append("name must be a non-empty string without a path "
                        f"separator, other than '.' and '..', not {name!r}")
        return errs

    def _array_problems(self, n_steps: int, n: int, m: int) -> list[str]:
        """The arrays of a run over n_steps steps, its two float per-step
        arrays and its trace table, that exceed numpy's largest array."""
        from .sim import TraceLayout  # sim imports this module

        stride, limit = int(self.output_stride), np.iinfo(np.intp).max
        rows = -(-n_steps // stride) + 1
        sizes = {"per-step arrays": 16 * (n_steps + 1),
                 f"a trace table (output_stride {stride})":
                 8 * rows * TraceLayout(self.n_followers, n, m).width}
        return [f"horizon of {n_steps} dt steps needs {what} of {size:.3g} "
                f"bytes, more than numpy's largest array ({limit} bytes)"
                for what, size in sizes.items() if size > limit]

    @cached_property
    def gain_sets(self) -> list[gains.GainSet]:
        """Each follower's gains; a ScenarioError lists every failing one."""
        sets, errs = [], []
        for idx, f in enumerate(self.followers):
            try:
                sets.append(gains.synthesize_gains(f.A, f.B, f.Q, f.U, self.S))
            except gains.GainSynthesisError as exc:
                errs.append(f"follower {idx}: {exc}")
        if errs:
            raise ScenarioError(errs)
        return sets

    def with_mode(self, mode: str) -> "ScenarioConfig":
        twin = replace(self, controller_mode=mode)
        twin.gain_sets = self.gain_sets  # the mode is not an input to them
        return twin

    def attack_free(self) -> "ScenarioConfig":
        """Copy of this scenario with every attack coefficient zeroed."""
        followers = [
            replace(f, attack_cil=None, attack_ol=None) for f in self.followers
        ]
        return replace(self, followers=followers)


def _positive(key: str, value: float) -> list[str]:
    """The violation, if any, of a quantity that must be finite and
    positive."""
    if not value > 0:
        return [f"{key} must be positive"]
    return [] if np.isfinite(value) else [f"{key} must be finite"]


def _matrix(obj, key: str, where: str = "", default=None) -> np.ndarray:
    """obj[key] (default if it is absent and a default is given) as a
    float array; errors name the field ``where + key``."""
    value = obj.get(key, default) if isinstance(obj, dict) else None
    if value is None:
        raise ScenarioError([f"missing required field {where}{key}"])
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(
            [f"{where}{key}: not a numeric array ({exc})"]
        ) from exc


def _number(obj: dict, key: str, default: float, where: str = "") -> float:
    try:
        return float(obj.get(key, default))
    except (TypeError, ValueError):
        raise ScenarioError([f"{where}{key}: not a number"]) from None


def _attack(obj: dict, key: str, where: str):
    """An attack table's (coefficients, rates) arrays; None without one."""
    if obj.get(key) is None:
        return None
    return tuple(_matrix(obj[key], part, f"{where}{key}.")
                 for part in ("coeff", "rate"))


def scenario_from_dict(doc: dict, name: str = "scenario") -> ScenarioConfig:
    """Build and fully validate a ScenarioConfig from parsed JSON."""
    if not isinstance(doc, dict):
        raise ScenarioError(["a scenario must be a JSON object"])
    followers = doc.get("followers")
    if not isinstance(followers, list):
        raise ScenarioError(["followers must be a list"])
    specs = []
    for idx, f in enumerate(followers):
        where = f"followers[{idx}]."
        if not isinstance(f, dict):
            raise ScenarioError([f"{where[:-1]} must be an object"])
        specs.append(FollowerSpec(
            *(_matrix(f, key, where) for key in ("A", "B", "Q", "U", "x0")),
            zeta0=None if f.get("zeta0") is None else _matrix(f, "zeta0", where),
            **{key: _number(f, key, 1.0, where) for key in ("q", "alpha", "c")},
            attack_cil=_attack(f, "attack_cil", where),
            attack_ol=_attack(f, "attack_ol", where),
        ))
    weights = [_matrix(doc.get("topology"), key, "topology.")
               for key in ("adjacency", "pinning")]
    try:
        graph, violations = topo.Topology(*weights), []
    except topo.TopologyError as exc:
        graph, violations = None, [f"topology: {exc}"]
    numbers = {
        key: _number(doc, key, default)
        for key, default in (
            ("d_s", 0.3), ("attack_start", 3.0), ("dt", 1e-3),
            ("horizon", 16.0), ("output_stride", 10), ("gain_cap", 700.0),
            ("divergence_threshold", 1e3),
        )
    }
    stride = numbers["output_stride"]  # an int if whole, for validate
    numbers["output_stride"] = int(stride) if stride.is_integer() else stride
    config = ScenarioConfig(
        name=doc.get("name", name),
        followers=specs,
        S=_matrix(doc, "S"),
        leader_x0=_matrix(doc, "leader_x0"),
        topology=graph,
        delta=_matrix(doc, "delta", default=5.0),
        absolute_clock=doc.get("absolute_clock", False),
        controller_mode=str(doc.get("controller_mode", "saar")),
        **numbers,
    )
    violations += config.validate()
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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"parse error in {path} at line {exc.lineno}: {exc.msg}"]
        ) from exc
    return scenario_from_dict(doc, name=path.stem)

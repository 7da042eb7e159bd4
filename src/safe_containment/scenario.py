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
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import gains, topology as topo

CONTROLLER_MODES = ("saar", "resilient_unsafe", "conventional")
# the scalars a sweep may vary; none is an input to the gains or the Phi
# family, so a sweep's variants keep their parent's
_FOLLOWER_SCALARS = ("q", "alpha", "c")
SWEEPABLE = ("d_s", "delta", "dt", "attack_start", *_FOLLOWER_SCALARS)
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
    def state_dim(self) -> int | None:
        """S's size n, or None when S is not square."""
        shape = np.shape(self.S)
        return shape[0] if len(shape) == 2 and shape[0] == shape[1] else None

    def validate(self) -> list[str]:
        """Return every constraint violation found (empty list if valid)."""
        errs, n = gains.leader_problems(self.S), self.state_dim
        verdicts = self._verdicts
        for idx, (f, verdict) in enumerate(zip(self.followers, verdicts), 1):
            tag = f"follower {idx}"
            if isinstance(verdict, list):  # its model's problems
                errs.extend(f"{tag}: {p}" for p in verdict)
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
        errs.extend(f"follower {idx}: {why}" for idx, why
                    in enumerate(verdicts, 1) if isinstance(why, str))

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
            if lead.ndim == 2 and graph.n_leaders != len(lead):
                errs.append("topology leader count does not match leader_x0")
            try:  # cached for Engine
                self.phi_family
            except topo.TopologyError as exc:
                errs.append(f"topology: {exc}")

        for key in ("d_s", "dt", "horizon"):
            errs.extend(_positive(key, getattr(self, key)))
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
        elif steps >= 2**63 and np.isfinite(self.horizon):  # int64 indices
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
        elif delta.shape == (n_f, n_f):  # the filter reads i < j only
            errs.extend(
                f"delta must be symmetric: pair ({i + 1}, {j + 1}) has rates "
                f"{float(delta[i, j])!r} and {float(delta[j, i])!r}"
                for i, j in np.argwhere(np.triu(delta != delta.T)).tolist())
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
                or "/" in name or "\\" in name or "\0" in name):
            # a non-string by its type: its repr may be huge, or recurse
            shown = (repr(name) if isinstance(name, str)
                     else f"of type {type(name).__name__}")
            errs.append("name must be a non-empty string without a path "
                        "separator or NUL, other than '.' and '..', "
                        f"not {shown}")
        else:
            try:
                os.fsencode(name)
            except UnicodeEncodeError:  # a lone surrogate such as \ud800
                errs.append("name must be encodable as a file name, "
                            f"not {name!r}")
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
    def _verdicts(self) -> list:
        """Each follower's verdict: its model's problems at S's size (at
        A's own if S is not square), else its GainSet or why it has none,
        else None while S is not square and finite.  A model, keyed by the
        shapes and bytes of its float A, B, Q and U, is checked and
        synthesized once: followers that share it share one GainSet."""
        n, s = self.state_dim, np.asarray(self.S, dtype=float)
        ready = n is not None and bool(np.all(np.isfinite(s)))
        made, verdicts = {}, []
        for f in self.followers:
            mats = [np.asarray(mat, dtype=float)
                    for mat in (f.A, f.B, f.Q, f.U)]
            key = tuple((mat.shape, mat.tobytes()) for mat in mats)
            if key not in made:
                made[key] = gains.model_problems(*mats, n) or None
            if made[key] is None and ready:
                try:
                    made[key] = gains.solve_gains(*mats, s)
                except gains.GainSynthesisError as exc:
                    made[key] = str(exc)
            verdicts.append(made[key])
        return verdicts

    @property
    def gain_sets(self) -> list[gains.GainSet]:
        """Each follower's GainSet, in follower order; if some follower
        has none, a ScenarioError with ``validate()``'s whole list."""
        if all(isinstance(v, gains.GainSet) for v in self._verdicts):
            return self._verdicts
        raise ScenarioError(self.validate())

    @cached_property
    def phi_family(self) -> topo.PhiFamily:
        """The topology's Phi family; a TopologyError if it has none."""
        return topo.build_phi_family(self.topology)

    def _twin(self, **changes) -> "ScenarioConfig":
        """A copy with ``changes``, none of them an input to the model
        verdicts or the Phi family, so the copy keeps those this scenario
        has built."""
        twin = replace(self, **changes)
        for key in ("_verdicts", "phi_family"):
            if key in self.__dict__:  # built (cached_property)
                twin.__dict__[key] = self.__dict__[key]
        return twin

    def with_mode(self, mode: str) -> "ScenarioConfig":
        return self._twin(controller_mode=mode)

    def with_value(self, param: str, value: float) -> "ScenarioConfig":
        """A copy with one of ``SWEEPABLE`` set to ``value``: a scenario
        field, or q, alpha or c of every follower."""
        if param not in SWEEPABLE:
            raise ValueError(f"{param!r} is not one of {SWEEPABLE}")
        if param in _FOLLOWER_SCALARS:
            return self._twin(followers=[
                replace(f, **{param: value}) for f in self.followers])
        return self._twin(**{param: value})

    def attack_free(self) -> "ScenarioConfig":
        """Copy of this scenario with every attack coefficient zeroed."""
        followers = [
            replace(f, attack_cil=None, attack_ol=None) for f in self.followers
        ]
        return self._twin(followers=followers)


def _positive(key: str, value: float) -> list[str]:
    """The violation, if any, of a quantity that must be finite and
    positive."""
    if not value > 0:
        return [f"{key} must be positive"]
    return [] if np.isfinite(value) else [f"{key} must be finite"]


def _numeric(value) -> bool:
    """Whether a JSON value is a number or a list of numeric values."""
    if isinstance(value, list):
        return all(map(_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix(obj, key: str, where: str = "", default=None) -> np.ndarray:
    """obj[key] (default if it is absent and a default is given) as a
    float array; errors name the field ``where + key``, or ``where`` if
    obj is present but not a JSON object."""
    if obj is not None and not isinstance(obj, dict):
        raise ScenarioError([f"{where[:-1]} must be an object"])
    if obj is None or (key not in obj and default is None):
        raise ScenarioError([f"missing required field {where}{key}"])
    try:
        if key in obj and not _numeric(obj[key]):
            raise TypeError("a string, a boolean or a null is not a number")
        return np.asarray(obj.get(key, default), dtype=float)
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ScenarioError(
            [f"{where}{key}: not a numeric array ({exc})"]) from exc


def _defaults(cls) -> dict:
    """The default of each field of a dataclass that has one."""
    return {f.name: f.default if f.default_factory is MISSING
            else f.default_factory() for f in fields(cls)
            if f.default is not MISSING or f.default_factory is not MISSING}


def _number(obj: dict, key: str, default: float, where: str = "") -> float:
    """obj[key] (default if it is absent) as a float, if a JSON number."""
    value = obj.get(key, default)
    try:
        if not _numeric(value):
            raise TypeError
        return float(value)  # a TypeError for a list
    except (TypeError, OverflowError, RecursionError):
        raise ScenarioError([f"{where}{key}: not a number"]) from None


def _attack(obj: dict, key: str, where: str):
    """An attack table's (coefficients, rates) arrays; None without one."""
    if obj.get(key) is None:
        return None
    return tuple(_matrix(obj[key], part, f"{where}{key}.")
                 for part in ("coeff", "rate"))


def scenario_from_dict(doc: dict, name: str = "scenario") -> ScenarioConfig:
    """Build and fully validate a ScenarioConfig from parsed JSON, in
    which a key that names no field is a violation."""
    if not isinstance(doc, dict):
        raise ScenarioError(["a scenario must be a JSON object"])
    followers = doc.get("followers")
    if not isinstance(followers, list):
        raise ScenarioError(["followers must be a list"])
    specs, spec_defaults = [], _defaults(FollowerSpec)
    spec_keys = {x.name for x in fields(FollowerSpec)}
    # each JSON object read, as (its path, the object, the keys it may hold)
    tables = [("", doc, {x.name for x in fields(ScenarioConfig)})]
    for idx, f in enumerate(followers):
        where = f"followers[{idx}]."
        if not isinstance(f, dict):
            raise ScenarioError([f"{where[:-1]} must be an object"])
        specs.append(FollowerSpec(
            *(_matrix(f, key, where) for key in ("A", "B", "Q", "U", "x0")),
            zeta0=None if f.get("zeta0") is None else _matrix(f, "zeta0", where),
            **{key: _number(f, key, spec_defaults[key], where)
               for key in _FOLLOWER_SCALARS},
            attack_cil=_attack(f, "attack_cil", where),
            attack_ol=_attack(f, "attack_ol", where),
        ))
        tables += [(where, f, spec_keys)] + [
            (f"{where}{key}.", f[key], ("coeff", "rate"))
            for key in ("attack_cil", "attack_ol") if f.get(key)]
    weights = [_matrix(doc.get("topology"), key, "topology.")
               for key in ("adjacency", "pinning")]
    tables.append(("topology.", doc["topology"], ("adjacency", "pinning")))
    try:
        graph, violations = topo.Topology(*weights), []
    except topo.TopologyError as exc:
        graph, violations = None, [f"topology: {exc}"]
    defaults = _defaults(ScenarioConfig)
    numbers = {key: _number(doc, key, default)  # the scalar number fields
               for key, default in defaults.items()
               if type(default) in (int, float)}
    stride = numbers["output_stride"]  # an int if whole, for validate
    numbers["output_stride"] = int(stride) if stride.is_integer() else stride
    config = ScenarioConfig(
        name=doc.get("name", name),
        followers=specs,
        S=_matrix(doc, "S"),
        leader_x0=_matrix(doc, "leader_x0"),
        topology=graph,
        delta=_matrix(doc, "delta", default=defaults["delta"]),
        absolute_clock=doc.get("absolute_clock", defaults["absolute_clock"]),
        controller_mode=doc.get("controller_mode",
                                defaults["controller_mode"]),
        **numbers,
    )
    violations += [f"unknown field {where}{key}" for where, obj, known in tables
                   for key in obj if key not in known] + config.validate()
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
    except RecursionError as exc:  # nested past the decoder's depth limit
        raise ScenarioError([f"parse error in {path}: {exc}"]) from None
    return scenario_from_dict(doc, name=path.stem)

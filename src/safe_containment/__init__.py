"""Attack-resilient, collision-free containment control for heterogeneous
linear multi-agent systems: gain synthesis, distributed resilient
observers, adaptive input compensation, a barrier-based safety filter,
and a deterministic fixed-step simulator."""

from .attacks import eval_stacked
from .compensation import nominal_input
from .gains import (
    GainSet,
    GainSynthesisError,
    leader_problems,
    model_problems,
    solve_care,
    solve_regulator,
    synthesize_gains,
)
from .observer import neighborhood_signal
from .safety import (
    FilterResult,
    PairConstraint,
    QPInfeasibleError,
    build_constraint,
    sequential_filter,
    solve_agent_qp,
)
from .scenario import ScenarioConfig, ScenarioError, load_scenario
from .sim import Engine, RunResult, SimulationError, TraceRecord, run
from .topology import (
    PhiFamily,
    Topology,
    TopologyError,
    build_phi_family,
    check_reachability,
)

__all__ = [
    "Engine",
    "FilterResult",
    "GainSet",
    "GainSynthesisError",
    "PairConstraint",
    "PhiFamily",
    "QPInfeasibleError",
    "RunResult",
    "ScenarioConfig",
    "ScenarioError",
    "SimulationError",
    "Topology",
    "TopologyError",
    "TraceRecord",
    "build_constraint",
    "build_phi_family",
    "check_reachability",
    "eval_stacked",
    "leader_problems",
    "load_scenario",
    "model_problems",
    "neighborhood_signal",
    "nominal_input",
    "run",
    "sequential_filter",
    "solve_agent_qp",
    "solve_care",
    "solve_regulator",
    "synthesize_gains",
]

__version__ = "0.1.0"

"""Attack-resilient, collision-free containment control for heterogeneous
linear multi-agent systems: gain synthesis, distributed resilient
observers, adaptive input compensation, a barrier-based safety filter,
and a deterministic fixed-step simulator."""

from .attacks import ExpSignal
from .compensation import compensation, nominal_input
from .gains import (
    AgentModel,
    GainSet,
    GainSynthesisError,
    LeaderModel,
    check_leader_assumption,
    solve_care,
    solve_regulator,
    synthesize_gains,
)
from .observer import neighborhood_signal, observer_rates
from .safety import (
    FilterResult,
    PairConstraint,
    QPInfeasibleError,
    build_constraint,
    cbf_value,
    sequential_filter,
    solve_agent_qp,
)
from .scenario import ScenarioConfig, ScenarioError, load_scenario
from .sim import (
    Engine,
    RunResult,
    SimulationError,
    TraceRecord,
    containment_error,
    run,
)
from .topology import (
    PhiFamily,
    Topology,
    TopologyError,
    build_phi_family,
    check_reachability,
)

__all__ = [
    "AgentModel",
    "Engine",
    "ExpSignal",
    "FilterResult",
    "GainSet",
    "GainSynthesisError",
    "LeaderModel",
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
    "cbf_value",
    "check_leader_assumption",
    "check_reachability",
    "compensation",
    "containment_error",
    "load_scenario",
    "neighborhood_signal",
    "nominal_input",
    "observer_rates",
    "run",
    "sequential_filter",
    "solve_agent_qp",
    "solve_care",
    "solve_regulator",
    "synthesize_gains",
]

__version__ = "0.1.0"

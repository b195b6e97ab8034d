"""Minimum-cost entanglement distribution toolkit.

Plan how many Bell pairs to route across which edges of a quantum network,
lower the plan to an entanglement-swapping schedule, simulate it under
Pauli noise with stabilizer methods, and compose networks hierarchically.
"""

from .errors import (
    EbitflowError,
    InfeasibleTarget,
    InvariantViolation,
    MalformedFlow,
    MissingModel,
    NegativeTarget,
    ParseError,
    ScheduleViolation,
    ThresholdViolation,
    TooLarge,
    ValidationError,
    YieldShortfall,
)
from .netgraph import (
    MILLI,
    DiGraph,
    Edge,
    EdgeKey,
    NetworkDocument,
    NetworkGraph,
    NodeId,
    as_fraction,
    build_graph,
    cost_to_milli,
    edge_key,
    induce_digraph,
    load_network,
    min_cut,
    parse_document,
    undirected_max_flow,
)
from .mincostflow import (
    FlowSolution,
    best_unit_price_target,
    min_cost_flow,
    min_cost_max_flow,
    solution_dot,
    solution_report,
    unit_price,
    validate_flow,
)
from .yields import YieldFunction, parse_yield
from .pathplan import (
    BellMeasure,
    ChannelUsePlan,
    CreateBellPair,
    Delivery,
    PathBundle,
    PauliCorrect,
    SwapSchedule,
    build_swap_schedule,
    decompose_flow,
    parse_schedule,
    plan_channel_uses,
    serialize_schedule,
)
from .stabsim import (
    EXACT_QUBIT_LIMIT,
    WILSON_Z,
    ErrorBudget,
    FidelityEstimate,
    NoiseModel,
    PairOutcome,
    PairStats,
    RunResult,
    StabilizerState,
    estimate_operation_error,
    exact_operation_error,
    exact_pass_probability,
    exact_trace_distance,
    fidelity_estimate,
    generation_error_budget,
    run_schedule,
    wilson_interval,
)
from .concat import (
    AggregateResult,
    HierEdge,
    HierarchicalNetwork,
    LowerUsePlan,
    aggregate_level,
    effective_capacity,
    effective_min_cut,
    flatten,
    load_hierarchical,
    parse_hierarchical,
    plan_lower_uses,
    total_lower_cost,
)
from .rates import ChannelModel, asymptotic_rate, channel_capacity, parse_channel

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

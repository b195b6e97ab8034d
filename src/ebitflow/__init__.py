"""Minimum-cost entanglement distribution toolkit.

Plan how many Bell pairs to route across which edges of a quantum network,
lower the plan to an entanglement-swapping schedule, simulate it under
Pauli noise with stabilizer methods, and compose networks hierarchically.

Importing the package loads none of its modules: each public name is
imported from its module on first access and then cached here, so a
process pays only for the modules it uses.
"""

import sys as _sys

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "errors": (
        "EbitflowError",
        "InfeasibleTarget",
        "InvariantViolation",
        "MalformedFlow",
        "MissingModel",
        "NegativeTarget",
        "ParseError",
        "ScheduleViolation",
        "ThresholdViolation",
        "TooLarge",
        "ValidationError",
        "YieldShortfall",
    ),
    "netgraph": (
        "MILLI",
        "Edge",
        "EdgeKey",
        "NetworkDocument",
        "NetworkGraph",
        "NodeId",
        "as_fraction",
        "cost_to_milli",
        "edge_key",
        "load_network",
        "min_cut",
        "parse_document",
        "undirected_max_flow",
    ),
    "mincostflow": (
        "FlowSolution",
        "min_cost_flow",
        "min_cost_max_flow",
        "price_curve",
        "solution_dot",
        "solution_report",
        "unit_price",
        "validate_flow",
    ),
    "yields": ("YieldFunction", "parse_yield"),
    "pathplan": (
        "BellMeasure",
        "ChannelUsePlan",
        "CreateBellPair",
        "Delivery",
        "PathBundle",
        "PauliCorrect",
        "SwapSchedule",
        "build_swap_schedule",
        "decompose_flow",
        "parse_schedule",
        "plan_channel_uses",
        "serialize_schedule",
    ),
    "stabsim": (
        "EXACT_QUBIT_LIMIT",
        "WILSON_Z",
        "ErrorBudget",
        "FidelityEstimate",
        "NoiseModel",
        "PairOutcome",
        "PairStats",
        "RunResult",
        "exact_figures",
        "exact_operation_error",
        "exact_pass_probability",
        "exact_trace_distance",
        "fidelity_estimate",
        "generation_error_budget",
        "run_schedule",
        "wilson_interval",
    ),
    "concat": (
        "AggregateResult",
        "HierEdge",
        "HierarchicalNetwork",
        "LowerUsePlan",
        "aggregate_level",
        "effective_min_cut",
        "flatten",
        "load_hierarchical",
        "parse_hierarchical",
        "plan_lower_uses",
        "total_lower_cost",
    ),
    "rates": ("ChannelModel", "asymptotic_rate", "channel_capacity", "parse_channel"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def _submodule(module: str):
    # ``__import__`` takes the import statement's path, the one that
    # ``python -X importtime`` reports; ``importlib.import_module`` does not.
    name = f"{__name__}.{module}"
    __import__(name)
    return _sys.modules[name]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_OWNER[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

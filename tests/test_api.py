"""The package's public surface and source-level rules."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import ebitflow

SRC = Path(ebitflow.__file__).parent

# Every name ``from ebitflow import *`` binds, sorted. ``__all__`` is derived
# from the package namespace, so it also lists the submodules. Adding or
# removing a public name is a deliberate edit of this list.
PUBLIC_NAMES = [
    "AggregateResult",
    "BellMeasure",
    "ChannelModel",
    "ChannelUsePlan",
    "CreateBellPair",
    "Delivery",
    "EXACT_QUBIT_LIMIT",
    "EbitflowError",
    "Edge",
    "EdgeKey",
    "ErrorBudget",
    "FidelityEstimate",
    "FlowSolution",
    "HierEdge",
    "HierarchicalNetwork",
    "InfeasibleTarget",
    "InvariantViolation",
    "LowerUsePlan",
    "MILLI",
    "MalformedFlow",
    "MissingModel",
    "NegativeTarget",
    "NetworkDocument",
    "NetworkGraph",
    "NodeId",
    "NoiseModel",
    "PairOutcome",
    "PairStats",
    "ParseError",
    "PathBundle",
    "PauliCorrect",
    "RunResult",
    "ScheduleViolation",
    "StabilizerState",
    "SwapSchedule",
    "ThresholdViolation",
    "TooLarge",
    "ValidationError",
    "WILSON_Z",
    "YieldFunction",
    "YieldShortfall",
    "aggregate_level",
    "as_fraction",
    "asymptotic_rate",
    "build_swap_schedule",
    "channel_capacity",
    "concat",
    "cost_to_milli",
    "decompose_flow",
    "edge_key",
    "effective_min_cut",
    "errors",
    "estimate_operation_error",
    "exact_operation_error",
    "exact_pass_probability",
    "exact_trace_distance",
    "fidelity_estimate",
    "flatten",
    "generation_error_budget",
    "load_hierarchical",
    "load_network",
    "min_cost_flow",
    "min_cost_max_flow",
    "min_cut",
    "mincostflow",
    "netgraph",
    "parse_channel",
    "parse_document",
    "parse_hierarchical",
    "parse_schedule",
    "parse_yield",
    "pathplan",
    "plan_channel_uses",
    "plan_lower_uses",
    "price_curve",
    "rates",
    "run_schedule",
    "serialize_schedule",
    "solution_dot",
    "solution_report",
    "stabsim",
    "total_lower_cost",
    "undirected_max_flow",
    "unit_price",
    "validate_flow",
    "wilson_interval",
    "yields",
]


def test_public_names_are_pinned():
    assert ebitflow.__all__ == PUBLIC_NAMES


def test_no_assert_statements_in_src():
    """Invariants raise typed errors, so they still hold under ``python -O``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_tracer_targets_resolve(monkeypatch):
    """Every (module, attribute) the benchmark tracer patches exists, so a
    refactor of ``src/`` cannot silently break ``bench/run.py --trace 1``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracing.TARGETS
    assert missing == []

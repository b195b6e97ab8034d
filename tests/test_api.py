"""The package's public surface and source-level rules."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ebitflow

SRC = Path(ebitflow.__file__).parent

# Every name ``from ebitflow import *`` binds, sorted: the package's public
# names and its eight submodules. ``__all__`` is built from the package's
# table of lazy exports. Adding or removing a public name is a deliberate
# edit of this list.
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


def top_level_definitions() -> dict[str, list[str]]:
    """Each name defined at top level in a submodule's source, with the
    submodules that define it."""
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            for name in targets:
                found.setdefault(name, []).append(path.stem)
    return found


def test_star_import_binds_each_public_name_from_its_module():
    namespace = {}
    exec("from ebitflow import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    definitions = top_level_definitions()
    for name in PUBLIC_NAMES:
        if (SRC / f"{name}.py").exists():
            expected = importlib.import_module(f"ebitflow.{name}")
        else:
            [module] = definitions[name]
            expected = getattr(importlib.import_module(f"ebitflow.{module}"), name)
        assert namespace[name] is expected, name
        assert getattr(ebitflow, name) is expected, name
    assert set(PUBLIC_NAMES) <= set(dir(ebitflow))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ebitflow.no_such_name
    assert not hasattr(ebitflow, "no_such_name")


def test_importing_the_package_loads_no_submodule():
    probe = (
        "import json, sys, ebitflow\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ebitflow'))))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["ebitflow"]


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


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_no_test_only_private_code_in_src():
    """Every private top-level definition, and every method of a private
    class, is used by ``src/`` itself: referenced as a name, an attribute or
    an import outside its own definition. Code that only tests reach
    belongs in ``tests/oracles.py``."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]

    def references(root: ast.AST) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            counts[name] = counts.get(name, 0) + 1
        return counts

    everywhere: dict[str, int] = {}
    for tree in trees:
        for name, n in references(tree).items():
            everywhere[name] = everywhere.get(name, 0) + n
    definitions: list[tuple[str, str, ast.AST]] = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or is_dunder(name):
                    continue
                definitions.append((name, name, node))
                if isinstance(node, ast.ClassDef):
                    definitions += [
                        (f"{name}.{item.name}", item.name, item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not is_dunder(item.name)
                    ]
    unused = [
        label
        for label, name, node in definitions
        if everywhere.get(name, 0) == references(node).get(name, 0)
    ]
    assert definitions
    assert unused == []


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

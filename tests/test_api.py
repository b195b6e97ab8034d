"""The package's public surface and source-level rules."""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ebitflow
from ebitflow import ValidationError
from oracles import VALUE_TYPE_DEFAULTS, dataclass_twin

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
    "exact_figures",
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


def test_no_dataclasses_typing_exec_or_compile_in_src():
    """Value types come from ``netgraph._value_type`` alone: no module
    imports ``dataclasses`` or ``typing`` (each costs every CLI process its
    import), and none calls the builtins ``exec`` or ``compile``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                modules = [node.func.id] if node.func.id in {"exec", "compile"} else []
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {m}"
                for m in modules
                if m in {"dataclasses", "typing", "exec", "compile"}
            ]
    assert found == []


def value_type_names() -> list[str]:
    """Every class in ``src/`` that declares fields, which must be exactly
    the classes decorated with ``_value_type``; ``module.Class`` each."""
    names, undecorated = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorated = any(
                isinstance(d, ast.Name) and d.id == "_value_type"
                for d in node.decorator_list
            )
            fields = any(isinstance(item, ast.AnnAssign) for item in node.body)
            if decorated:
                names.append(f"{path.stem}.{node.name}")
            elif fields:
                undecorated.append(node.name)
    assert undecorated == []
    return names


RELAY_DOC = {
    "nodes": ["s", "r", "t"],
    "edges": [
        {"a": "s", "b": "r", "capacity": 2, "cost": 1, "delta": 0.01},
        {"a": "r", "b": "t", "capacity": 2, "cost": 2, "delta": "1/50"},
    ],
    "source": "s",
    "sink": "t",
}

HIER_DOC = {
    "nodes": ["A", "B", "C"],
    "source": "A",
    "sink": "C",
    "edges": [
        {
            "a": a,
            "b": b,
            "lower": {
                "network": {
                    "nodes": [a, "m", b],
                    "edges": [
                        {"a": a, "b": "m", "capacity": 4, "cost": 1, "delta": 0.01},
                        {"a": "m", "b": b, "capacity": 4, "cost": 1},
                    ],
                    "source": a,
                    "sink": b,
                },
                "yield": {"kind": "linear-floor", "rate": "1/2"},
                "max_uses": 8,
                "delta_target": 0.01,
                "target": 2,
            },
        }
        for a, b in (("A", "B"), ("B", "C"))
    ],
}


def value_samples() -> list:
    """Instances of every value type, as the package builds them."""
    from ebitflow import (
        ErrorBudget,
        NoiseModel,
        YieldFunction,
        aggregate_level,
        build_swap_schedule,
        decompose_flow,
        fidelity_estimate,
        min_cost_flow,
        parse_channel,
        parse_document,
        parse_hierarchical,
        plan_channel_uses,
        plan_lower_uses,
        run_schedule,
    )
    from ebitflow.stabsim import _plan

    docu = parse_document(RELAY_DOC)
    g = docu.graph
    one = parse_document({**RELAY_DOC, "edges": RELAY_DOC["edges"][:1], "sink": "r"})
    sols = [min_cost_flow(g, 2), min_cost_flow(g, 1)]
    bundles = [b for sol in sols for b in decompose_flow(sol)]
    scheds = [build_swap_schedule(decompose_flow(sol)) for sol in sols]
    noise = NoiseModel.from_graph(g, swap_depolarize_p="1/10")
    runs = [run_schedule(scheds[0], noise, seed=seed) for seed in (1, 2)]
    ests = [fidelity_estimate(scheds[0], noise, trials=4, seed=s) for s in (1, 2)]
    net = parse_hierarchical(HIER_DOC)
    aggs = [aggregate_level(net, 1), aggregate_level(net, 2)]
    return [
        *g.edges,
        g,
        one.graph,
        docu,
        one,
        *sols,
        *bundles,
        *(plan_channel_uses(g, sol) for sol in sols),
        *scheds[0].instructions,
        *scheds[0].deliveries,
        *scheds,
        YieldFunction.identity(3),
        YieldFunction.linear_floor("1/2", 8),
        YieldFunction.table([(1, 1), (3, 2)]),
        parse_channel({"kind": "explicit", "Q": 2, "rate": 1}),
        parse_channel({"kind": "pure-loss", "eta": 0.5, "rate": "1/2"}),
        noise,
        NoiseModel(),
        *runs,
        *runs[0].pairs,
        *(_plan(sched, noise) for sched in scheds),
        *ests,
        *ests[0].pairs,
        *(agg.budget for agg in aggs),
        ErrorBudget(generation=Fraction(1, 3), operation=Fraction(0)),
        *net.edges,
        net,
        net.edges[0].lower,
        net._resolved,
        *(lower for _, _, _, lower in net._resolved.rows.values()),
        *aggs,
        *plan_lower_uses(net, aggs[1].solution),
    ]


def outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  the type is the outcome
        return type(exc)


def fields_of(value) -> dict:
    return {name: getattr(value, name) for name in type(value).__annotations__}


def test_value_types_behave_as_their_dataclass_twins():
    samples = value_samples()
    classes = {type(v) for v in samples}
    assert sorted(f"{c.__module__.split('.')[-1]}.{c.__name__}" for c in classes) == sorted(
        value_type_names()
    )
    twins = {cls: dataclass_twin(cls) for cls in classes}
    by_class: dict[type, list] = {}
    for value in samples:
        by_class.setdefault(type(value), []).append(value)
    for cls, values in by_class.items():
        twin = twins[cls]
        names = list(cls.__annotations__)
        assert list(inspect.signature(cls).parameters) == names, cls
        copies = [cls(**fields_of(v)) for v in values]
        for x in values + copies:
            tx = twin(**fields_of(x))
            assert repr(x) == repr(tx)
            assert outcome(hash, x) == outcome(hash, tx)
            for y in values + copies:
                ty = twin(**fields_of(y))
                assert (x == y) == (tx == ty)
                assert (x != y) == (tx != ty)
            for name in names + ["not_a_field"]:
                with pytest.raises(AttributeError):
                    setattr(x, name, None)
                with pytest.raises(AttributeError):
                    delattr(x, name)
        for x, copy in zip(values, copies):
            assert x is not copy and x == copy
            assert outcome(hash, x) == outcome(hash, copy)
        for other in samples:
            if type(other) is not cls:
                assert values[0] != other
                assert values[0].__eq__(other) is NotImplemented


def test_value_types_keep_their_dataclass_defaults():
    samples = value_samples()
    covered = set()
    for value in samples:
        cls = type(value)
        defaults = VALUE_TYPE_DEFAULTS.get(cls.__name__, {})
        twin = dataclass_twin(cls)
        for name in defaults:
            given = {n: v for n, v in fields_of(value).items() if n != name}
            try:
                first, second = cls(**given), cls(**given)
            except ValidationError:
                continue  # this sample needs the field; another omits it
            expected = getattr(twin(**given), name)
            assert getattr(first, name) == expected, (cls, name)
            assert type(getattr(first, name)) is type(expected), (cls, name)
            if defaults[name] is dict:
                assert getattr(first, name) is not getattr(second, name)
            covered.add((cls.__name__, name))
    assert covered == {(c, n) for c, names in VALUE_TYPE_DEFAULTS.items() for n in names}

"""Spans around the calls that cross ebitflow's module boundaries.

The tracer replaces functions in the namespaces of the calling modules
(``ebitflow.cli``, ``ebitflow.concat``, ``ebitflow.mincostflow``) with
wrappers, so each span covers exactly one call from one layer into another.
Nothing inside ``src/`` changes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# (calling module, attribute) -> span name "<defining module>.<function>".
TARGETS = {
    ("ebitflow.cli", "main"): "cli.main",
    ("ebitflow.cli", "load_network"): "netgraph.load_network",
    ("ebitflow.cli", "min_cut"): "netgraph.min_cut",
    ("ebitflow.cli", "min_cost_flow"): "mincostflow.min_cost_flow",
    ("ebitflow.cli", "solution_report"): "mincostflow.solution_report",
    ("ebitflow.cli", "decompose_flow"): "pathplan.decompose_flow",
    ("ebitflow.cli", "plan_channel_uses"): "pathplan.plan_channel_uses",
    ("ebitflow.cli", "build_swap_schedule"): "pathplan.build_swap_schedule",
    ("ebitflow.cli", "serialize_schedule"): "pathplan.serialize_schedule",
    ("ebitflow.cli", "fidelity_estimate"): "stabsim.fidelity_estimate",
    ("ebitflow.cli", "exact_pass_probability"): "stabsim.exact",
    ("ebitflow.cli", "exact_trace_distance"): "stabsim.exact",
    ("ebitflow.cli", "exact_operation_error"): "stabsim.exact",
    ("ebitflow.cli", "load_hierarchical"): "concat.load_hierarchical",
    ("ebitflow.cli", "aggregate_level"): "concat.aggregate_level",
    ("ebitflow.cli", "plan_lower_uses"): "concat.plan_lower_uses",
    ("ebitflow.cli", "total_lower_cost"): "concat.total_lower_cost",
    ("ebitflow.cli", "asymptotic_rate"): "rates.asymptotic_rate",
    ("ebitflow.concat", "min_cost_flow"): "mincostflow.min_cost_flow",
    ("ebitflow.concat", "min_cut"): "netgraph.min_cut",
    ("ebitflow.concat", "decompose_flow"): "pathplan.decompose_flow",
    ("ebitflow.concat", "build_swap_schedule"): "pathplan.build_swap_schedule",
    ("ebitflow.concat", "exact_operation_error"): "stabsim.exact",
    # Calls inside mincostflow, e.g. from min_cost_max_flow.
    ("ebitflow.mincostflow", "min_cut"): "netgraph.min_cut",
    ("ebitflow.mincostflow", "min_cost_flow"): "mincostflow.min_cost_flow",
}


def _facts(name: str, args: tuple, result) -> dict:
    """Counts a span records about its call, beyond its timing."""
    if name == "stabsim.fidelity_estimate":
        return {"qubits": args[0].n_qubits, "trials": result.trials}
    if name == "pathplan.decompose_flow":
        return {"bundles": len(result)}
    if name == "pathplan.build_swap_schedule":
        return {"qubits": result.n_qubits}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    via: str
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, via: str):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), 0.0, parent, self.request, via)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span.facts = _facts(name, args, result)
                return result
            finally:
                span.end = perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        for (module_name, attr), name in TARGETS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, module_name.split(".")[-1]))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def dump_spans(path: Path, spans: list[Span], **extra) -> None:
    rows = [[s.name, s.start, s.end, s.parent, s.request, s.via, s.facts] for s in spans]
    path.write_text(json.dumps({"spans": rows, **extra}))


def load_spans(path: Path) -> tuple[list[Span], dict]:
    doc = json.loads(path.read_text())
    spans = [Span(*row) for row in doc.pop("spans")]
    return spans, doc


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: call count, inclusive time and self time.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for s, inner in zip(spans, child_time):
        st = stats[s.name]
        st.calls += 1
        st.busy_s += s.duration
        st.self_s += s.duration - inner
    return stats

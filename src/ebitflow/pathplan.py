"""Turn a flow solution into an executable entanglement-swapping plan.

Three stages live here:

1. ``decompose_flow`` splits a canonical flow into source-sink path bundles.
2. ``plan_channel_uses`` inverts per-edge yield functions to find how many
   channel uses realize the flow on each edge.
3. ``build_swap_schedule`` lowers path bundles to an instruction list: Bell
   pair creations, Bell-basis measurements at the repeaters of each path,
   and one frame correction at the sink per multi-hop path copy.

Schedules serialize to a line-oriented text form (one instruction per line)
that parses back losslessly, see ``serialize_schedule``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    InvariantViolation,
    MalformedFlow,
    ParseError,
    ValidationError,
    YieldShortfall,
)
from .mincostflow import FlowSolution
from .netgraph import EdgeKey, NetworkGraph, NodeId, edge_key
from .yields import YieldFunction


@dataclass(frozen=True)
class PathBundle:
    """A simple source-sink path carried ``multiplicity`` times."""

    path: tuple[NodeId, ...]
    multiplicity: int

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValidationError("a path needs at least two nodes")
        if len(set(self.path)) != len(self.path):
            raise ValidationError("paths must be simple")
        if self.multiplicity < 1:
            raise ValidationError("multiplicity must be positive")

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def edges(self) -> tuple[EdgeKey, ...]:
        return tuple(edge_key(a, b) for a, b in zip(self.path, self.path[1:]))


def decompose_flow(sol: FlowSolution) -> tuple[PathBundle, ...]:
    """Split a canonical flow into path bundles.

    Paths are peeled in a fixed order: fewest hops first, then the
    lexicographically smallest node sequence, removing each path's
    bottleneck multiplicity before continuing. The bundle multiplicities
    sum to the net flow and the per-edge path counts reproduce the flow.

    Raises:
        MalformedFlow: If the flow violates conservation, runs an unknown
            arc, carries opposing flow, or strands flow on no s-t path.
    """
    _check_decomposable(sol)
    residual: dict[tuple[NodeId, NodeId], int] = {
        arc: f for arc, f in sol.arc_flow.items() if f > 0
    }
    g = sol.graph
    bundles: list[PathBundle] = []
    while residual:
        path = _fewest_hops_lexicographic(residual, g.source, g.sink)
        if path is None:
            raise MalformedFlow("positive flow remains but no source-sink path does")
        arcs = list(zip(path, path[1:]))
        width = min(residual[a] for a in arcs)
        for a in arcs:
            residual[a] -= width
            if residual[a] == 0:
                del residual[a]
        bundles.append(PathBundle(path=tuple(path), multiplicity=width))
    if sum(b.multiplicity for b in bundles) != sol.net_flow:
        raise InvariantViolation("path bundles do not sum to the net flow")
    return tuple(bundles)


def _check_decomposable(sol: FlowSolution) -> None:
    g = sol.graph
    balance: dict[NodeId, int] = {n: 0 for n in g.nodes}
    for (a, b), f in sol.arc_flow.items():
        if f < 0:
            raise MalformedFlow(f"negative flow on arc {(a, b)}")
        if edge_key(a, b) not in g.edge_map:
            raise MalformedFlow(f"flow on unknown edge {edge_key(a, b)}")
        balance[a] -= f
        balance[b] += f
    for n in g.nodes:
        expected = 0
        if n == g.source:
            expected = -sol.net_flow
        elif n == g.sink:
            expected = sol.net_flow
        if balance[n] != expected:
            raise MalformedFlow(f"conservation violated at node {n!r}")
    for key in g.edge_map:
        if sol.arc_flow.get(key, 0) > 0 and sol.arc_flow.get((key[1], key[0]), 0) > 0:
            raise MalformedFlow(f"opposing flow on edge {key}")


def _fewest_hops_lexicographic(
    residual: Mapping[tuple[NodeId, NodeId], int], s: NodeId, t: NodeId
) -> list[NodeId] | None:
    succ: dict[NodeId, list[NodeId]] = {}
    pred: dict[NodeId, list[NodeId]] = {}
    for a, b in residual:
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)

    def bfs(start: NodeId, adj: Mapping[NodeId, list[NodeId]]) -> dict[NodeId, int]:
        dist = {start: 0}
        queue = [start]
        for u in queue:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    dist_s = bfs(s, succ)
    if t not in dist_s:
        return None
    dist_t = bfs(t, pred)
    total = dist_s[t]
    # Every admissible arc strictly decreases the distance to t, so the
    # greedy smallest-label walk terminates and is automatically simple.
    path = [s]
    node = s
    while node != t:
        nxt = min(
            v
            for v in succ.get(node, ())
            if v in dist_t and dist_s[node] + 1 + dist_t[v] == total
        )
        path.append(nxt)
        node = nxt
    return path


@dataclass(frozen=True)
class ChannelUsePlan:
    """Channel uses per edge realizing a flow under given yield functions.

    ``uses`` maps each edge to the smallest admissible use count whose yield
    covers the edge's flow; ``achieved`` records that yield. Surplus pairs
    beyond the flow are discarded by the schedule.
    """

    uses: Mapping[EdgeKey, int]
    achieved: Mapping[EdgeKey, int]


def plan_channel_uses(
    g: NetworkGraph,
    sol: FlowSolution,
    yields: Mapping[EdgeKey, YieldFunction] | None = None,
) -> ChannelUsePlan:
    """Invert per-edge yields to cover the flow of ``sol``.

    Edges without an entry in ``yields`` get the identity yield (one pair
    per use, bounded by the edge's ``max_uses``). Edges carrying no flow
    need no uses.

    Raises:
        YieldShortfall: If some edge cannot reach its required pairs within
            its use bound.
    """
    yields = yields or {}
    uses: dict[EdgeKey, int] = {}
    achieved: dict[EdgeKey, int] = {}
    for e in g.edges:
        needed = sol.undirected_flow.get(e.key, 0)
        fn = yields.get(e.key)
        if fn is None:
            fn = YieldFunction.identity(e.max_uses)
        elif fn.max_uses is None and e.max_uses is not None:
            fn = YieldFunction(fn.kind, fn.rate, fn.points, e.max_uses)
        if needed == 0:
            uses[e.key] = 0
            achieved[e.key] = 0
            continue
        try:
            m = fn.invert(needed)
        except YieldShortfall as exc:
            raise YieldShortfall(f"edge {e.key}: {exc}") from exc
        uses[e.key] = m
        achieved[e.key] = fn(m)
    return ChannelUsePlan(uses=uses, achieved=achieved)


@dataclass(frozen=True)
class CreateBellPair:
    """Create one Bell pair on an edge; one qubit per endpoint."""

    node_left: NodeId
    node_right: NodeId
    qubit_left: int
    qubit_right: int
    copy: int

    @property
    def edge(self) -> EdgeKey:
        return edge_key(self.node_left, self.node_right)


@dataclass(frozen=True)
class BellMeasure:
    """Bell-basis measurement of two co-located qubits at a repeater."""

    node: NodeId
    qubit_left: int
    qubit_right: int
    index: int


@dataclass(frozen=True)
class PauliCorrect:
    """Apply the Pauli frame accumulated from earlier measurements.

    The concrete correction depends on measurement outcomes and is resolved
    when the schedule runs; it is always one of I, X, Z or XZ.
    """

    node: NodeId
    qubit: int
    sources: tuple[int, ...]


@dataclass(frozen=True)
class Delivery:
    """End-to-end pair held by the clients once a path copy completes."""

    copy: int
    source_qubit: int
    sink_qubit: int


Instruction = CreateBellPair | BellMeasure | PauliCorrect


@dataclass(frozen=True)
class SwapSchedule:
    """A full swapping program plus enough metadata to check its output.

    ``qubit_nodes[i]`` is the node holding qubit ``i``. Path copies never
    share qubits, every repeater qubit is consumed by exactly one
    measurement, and multi-hop copies end with a single correction at the
    sink fed by all of the copy's measurements.
    """

    instructions: tuple[Instruction, ...]
    deliveries: tuple[Delivery, ...]
    qubit_nodes: tuple[NodeId, ...]

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_nodes)

    def counts(self) -> dict[str, int]:
        out = {"create": 0, "measure": 0, "correct": 0}
        for ins in self.instructions:
            if isinstance(ins, CreateBellPair):
                out["create"] += 1
            elif isinstance(ins, BellMeasure):
                out["measure"] += 1
            else:
                out["correct"] += 1
        return out


def build_swap_schedule(bundles: Sequence[PathBundle]) -> SwapSchedule:
    """Lower path bundles to a sequential left-to-right swapping program.

    For each copy of each path: create a pair on every hop, Bell-measure at
    every interior node in path order, then correct the sink qubit using the
    copy's measurement outcomes. Single-hop copies need no measurement and
    no correction.
    """
    instructions: list[Instruction] = []
    deliveries: list[Delivery] = []
    qubit_nodes: list[NodeId] = []
    measure_index = 0
    copy_id = 0

    def new_qubit(node: NodeId) -> int:
        qubit_nodes.append(node)
        return len(qubit_nodes) - 1

    for bundle in bundles:
        for _ in range(bundle.multiplicity):
            pair_qubits: list[tuple[int, int]] = []
            for left, right in zip(bundle.path, bundle.path[1:]):
                ql, qr = new_qubit(left), new_qubit(right)
                instructions.append(
                    CreateBellPair(
                        node_left=left,
                        node_right=right,
                        qubit_left=ql,
                        qubit_right=qr,
                        copy=copy_id,
                    )
                )
                pair_qubits.append((ql, qr))
            sources = []
            for hop, node in enumerate(bundle.path[1:-1], start=1):
                instructions.append(
                    BellMeasure(
                        node=node,
                        qubit_left=pair_qubits[hop - 1][1],
                        qubit_right=pair_qubits[hop][0],
                        index=measure_index,
                    )
                )
                sources.append(measure_index)
                measure_index += 1
            sink_qubit = pair_qubits[-1][1]
            if sources:
                instructions.append(
                    PauliCorrect(
                        node=bundle.path[-1], qubit=sink_qubit, sources=tuple(sources)
                    )
                )
            deliveries.append(
                Delivery(
                    copy=copy_id,
                    source_qubit=pair_qubits[0][0],
                    sink_qubit=sink_qubit,
                )
            )
            copy_id += 1
    return SwapSchedule(
        instructions=tuple(instructions),
        deliveries=tuple(deliveries),
        qubit_nodes=tuple(qubit_nodes),
    )


_PAIR_RE = re.compile(
    r"^pair q(\d+)@(\S+) q(\d+)@(\S+) copy (\d+)$"
)
_SWAP_RE = re.compile(r"^swap (\S+) q(\d+) q(\d+) -> m(\d+)$")
_FIX_RE = re.compile(r"^fix (\S+) q(\d+)((?: m\d+)+)$")
_DELIVER_RE = re.compile(r"^deliver copy (\d+) q(\d+) q(\d+)$")


def serialize_schedule(sched: SwapSchedule) -> str:
    """Render a schedule as one instruction per line.

    Grammar::

        pair q<i>@<node> q<j>@<node> copy <k>
        swap <node> q<i> q<j> -> m<n>
        fix <node> q<i> m<n> [m<n> ...]
        deliver copy <k> q<i> q<j>
    """
    lines = []
    for ins in sched.instructions:
        if isinstance(ins, CreateBellPair):
            lines.append(
                f"pair q{ins.qubit_left}@{ins.node_left} "
                f"q{ins.qubit_right}@{ins.node_right} copy {ins.copy}"
            )
        elif isinstance(ins, BellMeasure):
            lines.append(
                f"swap {ins.node} q{ins.qubit_left} q{ins.qubit_right} -> m{ins.index}"
            )
        else:
            refs = " ".join(f"m{i}" for i in ins.sources)
            lines.append(f"fix {ins.node} q{ins.qubit} {refs}")
    for d in sched.deliveries:
        lines.append(f"deliver copy {d.copy} q{d.source_qubit} q{d.sink_qubit}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> SwapSchedule:
    """Parse the line format produced by ``serialize_schedule``."""
    instructions: list[Instruction] = []
    deliveries: list[Delivery] = []
    qubit_nodes: dict[int, NodeId] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m := _PAIR_RE.match(line):
            ql, nl, qr, nr, copy = m.groups()
            ql, qr = int(ql), int(qr)
            for q, node in ((ql, nl), (qr, nr)):
                if q in qubit_nodes:
                    raise ParseError(f"line {lineno}: qubit q{q} created twice")
                qubit_nodes[q] = node
            instructions.append(
                CreateBellPair(
                    node_left=nl,
                    node_right=nr,
                    qubit_left=ql,
                    qubit_right=qr,
                    copy=int(copy),
                )
            )
        elif m := _SWAP_RE.match(line):
            node, ql, qr, idx = m.groups()
            instructions.append(
                BellMeasure(
                    node=node, qubit_left=int(ql), qubit_right=int(qr), index=int(idx)
                )
            )
        elif m := _FIX_RE.match(line):
            node, q, refs = m.groups()
            sources = tuple(int(r[1:]) for r in refs.split())
            instructions.append(PauliCorrect(node=node, qubit=int(q), sources=sources))
        elif m := _DELIVER_RE.match(line):
            copy, qs, qt = m.groups()
            deliveries.append(
                Delivery(copy=int(copy), source_qubit=int(qs), sink_qubit=int(qt))
            )
        else:
            raise ParseError(f"line {lineno}: unrecognized instruction {line!r}")
    if qubit_nodes:
        n = max(qubit_nodes) + 1
        if sorted(qubit_nodes) != list(range(n)):
            raise ParseError("qubit ids must be dense starting at 0")
        nodes = tuple(qubit_nodes[i] for i in range(n))
    else:
        nodes = ()
    return SwapSchedule(
        instructions=tuple(instructions),
        deliveries=tuple(deliveries),
        qubit_nodes=nodes,
    )

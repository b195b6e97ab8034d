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
from collections.abc import Mapping, Sequence

from .errors import (
    InvariantViolation,
    MalformedFlow,
    ParseError,
    ValidationError,
    YieldShortfall,
)
from .mincostflow import FlowSolution, validate_flow
from .netgraph import EdgeKey, NetworkGraph, NodeId, _set, _value_type, edge_key
from .yields import YieldFunction


@_value_type
class PathBundle:
    """A simple source-sink path carried ``multiplicity`` times."""

    path: tuple[NodeId, ...]
    multiplicity: int

    def __init__(self, path: tuple[NodeId, ...], multiplicity: int) -> None:
        if len(path) < 2:
            raise ValidationError("a path needs at least two nodes")
        if len(set(path)) != len(path):
            raise ValidationError("paths must be simple")
        if multiplicity < 1:
            raise ValidationError("multiplicity must be positive")
        _set(self, "path", path)
        _set(self, "multiplicity", multiplicity)

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

    Peeling runs in phases, as Dinic's blocking flows do. A phase's BFS
    (``_levels``) finds each node's hop count to the sink, L at the source.
    Peeling only removes arcs, so no count drops within the phase, and a
    path of L hops still left runs down one level per arc. A depth-first
    walk down the levels, heads in label order, finds the smallest one; it
    keeps per node the next head to try and marks nodes whose heads run
    out dead for the rest of the phase. A phase ends when the walk finds
    no path.

    Raises:
        MalformedFlow: If the flow fails ``validate_flow`` or strands flow
            on no s-t path.
    """
    validate_flow(sol)
    # The flow left on each arc, by tail then head, and each node's tails.
    out: dict[NodeId, dict[NodeId, int]] = {}
    tails: dict[NodeId, set[NodeId]] = {}
    for (a, b), f in sol.arc_flow.items():
        if f > 0:
            out.setdefault(a, {})[b] = f
            tails.setdefault(b, set()).add(a)
    arcs_left = sum(map(len, out.values()))
    g = sol.graph
    s, t = g.source, g.sink
    bundles: list[PathBundle] = []
    while arcs_left:
        level = _levels(tails, t, s)
        if s not in level:
            raise MalformedFlow("positive flow remains but no source-sink path does")
        # Per node entered: its heads one level down, in label order, and
        # the index of the next one to try, which is the next node of the
        # walk's path while the node is on it.
        heads: dict[NodeId, list[NodeId]] = {}
        next_head: dict[NodeId, int] = {}
        dead: set[NodeId] = set()
        path = [s]
        while path:
            u = path[-1]
            if u == t:
                arcs = list(zip(path, path[1:]))
                width = min(out[a][b] for a, b in arcs)
                resume = None
                for i, (a, b) in enumerate(arcs):
                    left = out[a][b] - width
                    if left:
                        out[a][b] = left
                        continue
                    del out[a][b]
                    tails[b].discard(a)
                    arcs_left -= 1
                    next_head[a] += 1
                    if resume is None:
                        resume = i
                bundles.append(PathBundle(path=tuple(path), multiplicity=width))
                # The walk resumes at the tail of the first arc used up.
                del path[resume + 1 :]
                continue
            down = heads.get(u)
            if down is None:
                below = level[u] - 1
                down = heads[u] = sorted(
                    v for v in out.get(u, ()) if level.get(v) == below
                )
                next_head[u] = 0
            i = next_head[u]
            while i < len(down) and down[i] in dead:
                i += 1
            next_head[u] = i
            if i < len(down):
                path.append(down[i])
            else:
                dead.add(u)
                path.pop()
    if sum(b.multiplicity for b in bundles) != sol.net_flow:
        raise InvariantViolation("path bundles do not sum to the net flow")
    return tuple(bundles)


def _levels(
    tails: Mapping[NodeId, set[NodeId]], t: NodeId, s: NodeId
) -> dict[NodeId, int]:
    """Hop counts to ``t`` over the arcs whose tails ``tails`` lists, by a
    BFS back from ``t`` that stops once it reaches ``s``: every node nearer
    to ``t`` than ``s`` has its count then."""
    level = {t: 0}
    queue = [t]
    for v in queue:
        above = level[v] + 1
        for u in tails.get(v, ()):
            if u not in level:
                level[u] = above
                if u == s:
                    return level
                queue.append(u)
    return level


@_value_type
class ChannelUsePlan:
    """Channel uses per edge realizing a flow under given yield functions.

    ``uses`` maps each edge to the smallest admissible use count whose yield
    covers the edge's flow; ``achieved`` records that yield. Surplus pairs
    beyond the flow are discarded by the schedule.
    """

    uses: Mapping[EdgeKey, int]
    achieved: Mapping[EdgeKey, int]

    def __init__(
        self,
        uses: Mapping[EdgeKey, int],
        achieved: Mapping[EdgeKey, int],
    ) -> None:
        _set(self, "uses", uses)
        _set(self, "achieved", achieved)


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
    flow = sol.undirected_flow
    for e in g.edges:
        needed = flow.get(e.key, 0)
        if needed == 0:
            uses[e.key] = 0
            achieved[e.key] = 0
            continue
        fn = yields.get(e.key)
        if fn is None:
            fn = YieldFunction.identity(e.max_uses)
        elif fn.max_uses is None and e.max_uses is not None:
            fn = YieldFunction(fn.kind, fn.rate, fn.points, e.max_uses)
        try:
            m = fn.invert(needed)
        except YieldShortfall as exc:
            raise YieldShortfall(f"edge {e.key}: {exc}") from exc
        uses[e.key] = m
        achieved[e.key] = fn(m)
    return ChannelUsePlan(uses=uses, achieved=achieved)


@_value_type
class CreateBellPair:
    """Create one Bell pair on an edge; one qubit per endpoint."""

    node_left: NodeId
    node_right: NodeId
    qubit_left: int
    qubit_right: int
    copy: int

    def __init__(
        self,
        node_left: NodeId,
        node_right: NodeId,
        qubit_left: int,
        qubit_right: int,
        copy: int,
    ) -> None:
        _set(self, "node_left", node_left)
        _set(self, "node_right", node_right)
        _set(self, "qubit_left", qubit_left)
        _set(self, "qubit_right", qubit_right)
        _set(self, "copy", copy)

    @property
    def edge(self) -> EdgeKey:
        return edge_key(self.node_left, self.node_right)


@_value_type
class BellMeasure:
    """Bell-basis measurement of two co-located qubits at a repeater."""

    node: NodeId
    qubit_left: int
    qubit_right: int
    index: int

    def __init__(
        self,
        node: NodeId,
        qubit_left: int,
        qubit_right: int,
        index: int,
    ) -> None:
        _set(self, "node", node)
        _set(self, "qubit_left", qubit_left)
        _set(self, "qubit_right", qubit_right)
        _set(self, "index", index)


@_value_type
class PauliCorrect:
    """Apply the Pauli frame accumulated from earlier measurements.

    The concrete correction depends on measurement outcomes and is resolved
    when the schedule runs; it is always one of I, X, Z or XZ.
    """

    node: NodeId
    qubit: int
    sources: tuple[int, ...]

    def __init__(self, node: NodeId, qubit: int, sources: tuple[int, ...]) -> None:
        _set(self, "node", node)
        _set(self, "qubit", qubit)
        _set(self, "sources", sources)


@_value_type
class Delivery:
    """End-to-end pair held by the clients once a path copy completes."""

    copy: int
    source_qubit: int
    sink_qubit: int

    def __init__(self, copy: int, source_qubit: int, sink_qubit: int) -> None:
        _set(self, "copy", copy)
        _set(self, "source_qubit", source_qubit)
        _set(self, "sink_qubit", sink_qubit)


Instruction = CreateBellPair | BellMeasure | PauliCorrect


@_value_type
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

    def __init__(
        self,
        instructions: tuple[Instruction, ...],
        deliveries: tuple[Delivery, ...],
        qubit_nodes: tuple[NodeId, ...],
    ) -> None:
        _set(self, "instructions", instructions)
        _set(self, "deliveries", deliveries)
        _set(self, "qubit_nodes", qubit_nodes)

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

"""Exact integral minimum-cost flow over both orientations of network edges.

The solver answers: what is the cheapest way to route a given number of
end-to-end Bell pairs through the network when every edge can deliver at
most ``capacity`` pairs in total across both directions and each delivered
pair on an edge costs ``unit_cost`` milli-units?

Algorithm: successive shortest augmenting paths with node potentials, so
Dijkstra always sees non-negative reduced costs. A Dijkstra, stopped once
the sink is settled, adds its distances, capped at the sink's, to the
potentials; the cheapest paths are then exactly the paths of
zero-reduced-cost arcs, and among them the lexicographically smallest
node-label sequence is chosen, which makes results reproducible across
runs and platforms. A round whose sink distance is 0 leaves the
potentials as they were, so the rounds after it take tight paths without
a new Dijkstra until none is left (primal-dual augmentation). Path
choice depends on the residual alone, not on the target, so one run
passes every target's optimum and ends at the min-cut when the sink
becomes unreachable; no entry point computes a separate min-cut. Each
path adds its bottleneck in pairs at a slope equal to its cost, so the
price curve is a running sum of path costs. Each solution is
canonicalized: opposing flow on an edge is cancelled and any remaining
zero-cost support cycles are removed, so for every edge at most one
direction carries flow.

All entry points are pure functions; solutions are immutable.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import cached_property

from .errors import InfeasibleTarget, InvariantViolation, MalformedFlow, NegativeTarget
from .netgraph import (
    EdgeKey,
    NetworkGraph,
    NodeId,
    _frac,
    _milli_text,
    _set,
    _value_type,
    edge_key,
)
from .netgraph import min_cut  # noqa: F401  bench/tracing.py patches this name

Arc = tuple[NodeId, NodeId]


@_value_type
class FlowSolution:
    """An integral flow on the induced digraph of ``graph``.

    Attributes:
        graph: The network the flow lives on.
        arc_flow: Directed flow per arc; only positive entries are stored.
        net_flow: Pairs delivered from source to sink.
        total_cost: Sum of arc flow times edge unit cost, in milli-units.
    """

    graph: NetworkGraph
    arc_flow: Mapping[Arc, int]
    net_flow: int
    total_cost: int

    def __init__(
        self,
        graph: NetworkGraph,
        arc_flow: Mapping[Arc, int],
        net_flow: int,
        total_cost: int,
    ) -> None:
        _set(self, "graph", graph)
        _set(self, "arc_flow", arc_flow)
        _set(self, "net_flow", net_flow)
        _set(self, "total_cost", total_cost)

    @cached_property
    def undirected_flow(self) -> Mapping[EdgeKey, int]:
        """Per-edge consumed capacity, f(a,b) + f(b,a)."""
        out: dict[EdgeKey, int] = {e.key: 0 for e in self.graph.edges}
        for (a, b), f in self.arc_flow.items():
            out[edge_key(a, b)] += f
        return out

    @cached_property
    def active_edges(self) -> frozenset[EdgeKey]:
        """Edges carrying any flow."""
        return frozenset(k for k, f in self.undirected_flow.items() if f > 0)


class _Residual:
    """Residual digraph with one forward arc per edge orientation.

    Arc ``i`` and ``i ^ 1`` are mutual reverses. Forward arcs carry the edge
    cost, reverse arcs its negation. ``res`` holds remaining capacity and
    ``pushed`` the pairs sent so far. An arc is tight when it has remaining
    capacity and zero reduced cost; once the potentials include a Dijkstra's
    distances from the source, the cheapest paths are the tight-arc paths.

    Node ``i`` is the ``i``-th label in sorted order, so comparing indices
    compares labels. ``NetworkGraph`` sorts its edges by key, so every
    ``adj[u]`` runs in (head label, arc id) order, with the two arcs to one
    head adjacent. The path walk tries arcs in that order instead of
    sorting, so it takes the first tight arc to each head; a later arc
    finds the head already marked.
    """

    def __init__(self, g: NetworkGraph) -> None:
        self.graph = g
        self.pushed = 0
        self.nodes = list(g.nodes)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.adj: list[list[int]] = [[] for _ in self.nodes]
        self.to: list[int] = []
        self.res: list[int] = []
        self.cost: list[int] = []
        adj, to, res, cost, index = self.adj, self.to, self.res, self.cost, self.index
        for e in g.edges:
            # Arcs k..k+3: a->b, its reverse, b->a, its reverse.
            k, ia, ib, c = len(to), index[e.a], index[e.b], e.unit_cost
            adj[ia] += (k, k + 3)
            adj[ib] += (k + 1, k + 2)
            to += (ib, ia, ia, ib)
            res += (e.capacity, 0, e.capacity, 0)
            cost += (c, -c, c, -c)

    def dijkstra(
        self, s: int, t: int, potential: list[int]
    ) -> tuple[list[int], list[int | None]] | None:
        """Reduced-cost Dijkstra from ``s`` that stops once ``t`` is settled.

        Returns the settled nodes in settling order, ``t`` last, and the
        distances, exact for the settled nodes; None if ``t`` is unreachable.
        The heap holds ``d * n + v``, which orders like ``(d, v)`` since the
        reduced costs are non-negative.
        """
        n = len(self.nodes)
        adj, res, to, cost = self.adj, self.res, self.to, self.cost
        heappush, heappop = heapq.heappush, heapq.heappop
        dist: list[int | None] = [None] * n
        done = [False] * n
        settled: list[int] = []
        dist[s] = 0
        heap = [s]
        while heap:
            u = heappop(heap) % n
            if done[u]:
                continue
            done[u] = True
            settled.append(u)
            if u == t:
                return settled, dist
            base = dist[u] + potential[u]
            for aid in adj[u]:
                if res[aid] > 0:
                    v = to[aid]
                    if not done[v]:
                        nd = base + cost[aid] - potential[v]
                        dv = dist[v]
                        if dv is None or nd < dv:
                            dist[v] = nd
                            heappush(heap, nd * n + v)
        return None

    def lexicographic_shortest_path(
        self, s: int, t: int, potential: list[int]
    ) -> list[int] | None:
        """Arc ids of the cheapest s-t path whose node-label sequence is
        lexicographically smallest among all cheapest simple paths, or None
        if no s-t path is tight.

        Needs potentials that leave every residual reduced cost
        non-negative, so the tight paths are the cheapest ones when any
        exists. One depth-first walk from ``s`` follows tight arcs in
        ``adj`` order, so smaller head labels first, and returns the first
        path that reaches ``t``; it takes each arc at most once.

        Entering a node marks it: ``untried[u]`` becomes an iterator over
        the arcs of ``u`` still to try, so the walk resumes ``u`` where it
        left off, and a marked node is never unmarked. When the walk backs
        out of a node, each of its tight arcs leads to a marked node: one
        on the path, or one the walk backed out of earlier. By induction,
        the node cannot reach ``t`` while avoiding the nodes on the path
        at that moment. A later path keeps the stem above the first node
        of that path the walk has since backed out of, and that node
        reached the dead node without touching the stem; so a dead node
        can never help a later path, and the first path found is the
        lexicographically smallest cheapest simple path.
        """
        adj, res, to, cost = self.adj, self.res, self.to, self.cost
        untried: list[Iterator[int] | None] = [None] * len(self.nodes)
        untried[s] = iter(adj[s])
        path_arcs: list[int] = []
        u = s
        while True:
            pu = potential[u]
            for aid in untried[u]:
                v = to[aid]
                if untried[v] is None and res[aid] > 0 and cost[aid] + pu == potential[v]:
                    path_arcs.append(aid)
                    if v == t:
                        return path_arcs
                    untried[v] = iter(adj[v])
                    u = v
                    break
            else:
                # Dead end: resume at the tail of the arc that entered u.
                if not path_arcs:
                    return None
                u = to[path_arcs.pop() ^ 1]

    def augmenting_paths(self) -> Iterator[tuple[list[int], int]]:
        """Yield each cheapest source-sink path and its bottleneck until the
        sink is unreachable; the caller pushes along a path before the next.

        A round's Dijkstra stops at the sink, at distance D. A settled
        node's potential grows by its distance and every other node's by D
        (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9): that keeps
        every residual reduced cost non-negative, and on the nodes within D
        of the source, where all tight paths from it lie, the potentials
        match those of a full Dijkstra, so the walk picks the same path.

        At D = 0 the potentials do not move, so while tight paths remain
        each following round is the walk alone (§9.8): a Dijkstra would
        find D = 0 again and change nothing. A Dijkstra runs again once the
        walk finds no tight path.
        """
        s, t = self.index[self.graph.source], self.index[self.graph.sink]
        potential = [0] * len(self.nodes)
        tight = False
        while True:
            path = self.lexicographic_shortest_path(s, t, potential) if tight else None
            if path is None:
                found = self.dijkstra(s, t, potential)
                if found is None:
                    return
                settled, dist = found
                far = dist[t]
                tight = far == 0
                potential = [p + far for p in potential]
                for v in settled:
                    potential[v] += dist[v] - far
                path = self.lexicographic_shortest_path(s, t, potential)
                if path is None:
                    raise InvariantViolation("no tight path to a reachable sink")
            yield path, min(self.res[aid] for aid in path)

    def push(self, path: list[int], amount: int) -> None:
        for aid in path:
            self.res[aid] -= amount
            self.res[aid ^ 1] += amount
        self.pushed += amount

    def solution(self) -> FlowSolution:
        """The canonical flow of everything pushed so far."""
        g = self.graph
        arc_flow: dict[Arc, int] = {}
        for aid in range(0, len(self.to), 2):
            f = self.res[aid ^ 1]
            if f > 0:
                a = self.nodes[self.to[aid ^ 1]]
                b = self.nodes[self.to[aid]]
                arc_flow[(a, b)] = arc_flow.get((a, b), 0) + f
        _cancel_cycles(arc_flow, g)
        total_cost = sum(
            g.edge_between(a, b).unit_cost * f for (a, b), f in arc_flow.items()
        )
        net = sum(f for (a, _), f in arc_flow.items() if a == g.source) - sum(
            f for (_, b), f in arc_flow.items() if b == g.source
        )
        if net != self.pushed:
            raise InvariantViolation("solver delivered a different net flow than requested")
        return FlowSolution(
            graph=g, arc_flow=dict(sorted(arc_flow.items())), net_flow=net, total_cost=total_cost
        )


def _cancel_cycles(arc_flow: dict[Arc, int], g: NetworkGraph) -> None:
    """Remove opposing flow pairs and any remaining support cycles in place.

    Cycles surviving opposing-pair cancellation must cost zero in an optimal
    flow, so removal never changes net flow and never increases cost.
    """
    for key in sorted({edge_key(a, b) for (a, b) in arc_flow}):
        f_ab = arc_flow.get(key, 0)
        f_ba = arc_flow.get((key[1], key[0]), 0)
        m = min(f_ab, f_ba)
        if m > 0:
            arc_flow[key] = f_ab - m
            arc_flow[(key[1], key[0])] = f_ba - m
    for arc in [a for a, f in arc_flow.items() if f <= 0]:
        del arc_flow[arc]

    while True:
        succ: dict[NodeId, list[NodeId]] = {}
        for a, b in arc_flow:
            succ.setdefault(a, []).append(b)
        for heads in succ.values():
            heads.sort()
        cycle = _find_cycle(succ)
        if cycle is None:
            return
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        bottleneck = min(arc_flow[arc] for arc in arcs)
        if sum(g.edge_between(*arc).unit_cost for arc in arcs) != 0:
            raise InvariantViolation("positive-cost cycle in an optimal flow")
        for arc in arcs:
            arc_flow[arc] -= bottleneck
            if arc_flow[arc] == 0:
                del arc_flow[arc]


def _find_cycle(succ: Mapping[NodeId, list[NodeId]]) -> list[NodeId] | None:
    visited: set[NodeId] = set()
    for start in sorted(succ):
        if start in visited:
            continue
        trail: list[NodeId] = [start]
        pos: dict[NodeId, int] = {start: 0}
        stack = [(start, iter(succ.get(start, ())))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt in pos:
                    return trail[pos[nxt] :]
                if nxt in visited:
                    continue
                trail.append(nxt)
                pos[nxt] = len(trail) - 1
                stack.append((nxt, iter(succ.get(nxt, ()))))
                break
            else:
                stack.pop()
                visited.add(node)
                del pos[node]
                trail.pop()
    return None


def min_cost_flow(g: NetworkGraph, target: int) -> FlowSolution:
    """Cheapest integral flow delivering exactly ``target`` pairs end to end.

    Args:
        g: The network.
        target: Required net flow at the source, a non-negative integer.

    Returns:
        An optimal canonical FlowSolution (no opposing flow, no cycles).

    Raises:
        NegativeTarget: If ``target`` is negative.
        InfeasibleTarget: If ``target`` exceeds the source-sink min-cut.
    """
    if not isinstance(target, int) or isinstance(target, bool):
        raise NegativeTarget(f"target must be an integer, got {target!r}")
    if target < 0:
        raise NegativeTarget(f"target must be non-negative, got {target}")
    residual = _Residual(g)
    paths = residual.augmenting_paths()
    while residual.pushed < target:
        path, bottleneck = next(paths, (None, 0))
        if path is None:
            # No augmenting path is left, so the flow is maximum.
            raise InfeasibleTarget(
                f"target {target} exceeds the source-sink min-cut {residual.pushed}"
            )
        residual.push(path, min(bottleneck, target - residual.pushed))
    return residual.solution()


def min_cost_max_flow(g: NetworkGraph) -> FlowSolution:
    """Cheapest flow among those delivering the maximum feasible pairs."""
    residual = _Residual(g)
    for path, bottleneck in residual.augmenting_paths():
        residual.push(path, bottleneck)
    return residual.solution()


def unit_price(sol: FlowSolution) -> Fraction | None:
    """Cost per delivered pair in milli-units, or None for an empty flow."""
    if sol.net_flow == 0:
        return None
    return Fraction(sol.total_cost, sol.net_flow)


def price_curve(g: NetworkGraph) -> tuple[tuple[int, ...], int]:
    """Minimum total costs in milli-units for every feasible positive target.

    Returns:
        The costs for targets 1 through the min-cut, in order, and the
        target with the lowest unit price. Ties go to the smallest target.

    Raises:
        InfeasibleTarget: If the network cannot deliver a single pair.
    """
    residual = _Residual(g)
    costs: list[int] = []
    total = 0
    for path, bottleneck in residual.augmenting_paths():
        # min_cost_flow(g, k) takes these paths; each pair adds the path cost.
        residual.push(path, bottleneck)
        slope = sum(residual.cost[aid] for aid in path)
        for _ in range(bottleneck):
            total += slope
            costs.append(total)
    if not costs:
        raise InfeasibleTarget("clients are disconnected; no positive target exists")
    # One extraction runs the net-flow and cycle checks on the whole run.
    if residual.solution().total_cost != total:
        raise InvariantViolation("path costs disagree with the cost of the flow")
    best = min(range(1, len(costs) + 1), key=lambda k: Fraction(costs[k - 1], k))
    return tuple(costs), best


def validate_flow(sol: FlowSolution) -> None:
    """Check conservation, capacity and non-negativity; raise MalformedFlow."""
    g = sol.graph
    balance: dict[NodeId, int] = {n: 0 for n in g.nodes}
    for (a, b), f in sol.arc_flow.items():
        if f < 0:
            raise MalformedFlow(f"negative flow on arc {(a, b)}")
        key = edge_key(a, b)
        if key not in g.edge_map:
            raise MalformedFlow(f"flow on unknown edge {key}")
        balance[a] -= f
        balance[b] += f
    for key, f in sol.undirected_flow.items():
        if f > g.edge_map[key].capacity:
            raise MalformedFlow(f"edge {key} over capacity: {f}")
    for n in g.nodes:
        if n == g.source or n == g.sink:
            continue
        if balance[n] != 0:
            raise MalformedFlow(f"conservation violated at node {n!r}")
    if -balance[g.source] != sol.net_flow or balance[g.sink] != sol.net_flow:
        raise MalformedFlow("net flow does not match endpoint imbalance")
    for key in sorted(g.edge_map):
        if sol.arc_flow.get(key, 0) > 0 and sol.arc_flow.get((key[1], key[0]), 0) > 0:
            raise MalformedFlow(f"opposing flow on edge {key}")


def solution_report(sol: FlowSolution) -> dict:
    """Serializable summary of a flow solution. Costs stay in milli-units."""
    price = unit_price(sol)
    return {
        "arcs": [
            {"from": a, "to": b, "flow": f}
            for (a, b), f in sorted(sol.arc_flow.items())
        ],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "flow": sol.undirected_flow[e.key],
                "capacity": e.capacity,
            }
            for e in sol.graph.edges
        ],
        "active_edges": [list(k) for k in sorted(sol.active_edges)],
        "net_flow": sol.net_flow,
        "total_cost_milli": sol.total_cost,
        "unit_price_milli": None if price is None else _frac(price),
    }


def solution_dot(sol: FlowSolution) -> str:
    """Graphviz rendering with `used/capacity @ cost` edge labels."""
    g = sol.graph
    lines = ["graph network {"]
    lines.append(f'  label="net_flow={sol.net_flow} cost={_milli_text(sol.total_cost)}";')
    for n in g.nodes:
        shape = ' [shape=doublecircle]' if n in (g.source, g.sink) else ""
        lines.append(f"  {_dot_id(n)}{shape};")
    for e in g.edges:
        used = sol.undirected_flow[e.key]
        label = f"{used}/{e.capacity} @ {_milli_text(e.unit_cost)}"
        lines.append(f'  {_dot_id(e.a)} -- {_dot_id(e.b)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(label: NodeId) -> str:
    """``label`` as a quoted DOT ID, with backslashes and quotes escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

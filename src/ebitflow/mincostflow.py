"""Exact integral minimum-cost flow over both orientations of network edges.

The solver answers: what is the cheapest way to route a given number of
end-to-end Bell pairs through the network when every edge can deliver at
most ``capacity`` pairs in total across both directions and each delivered
pair on an edge costs ``unit_cost`` milli-units?

Algorithm: successive shortest augmenting paths with node potentials, so
Dijkstra always sees non-negative reduced costs. Among equal-cost shortest
paths the lexicographically smallest node-label sequence is chosen, which
makes results reproducible across runs and platforms. After the target is
met the flow is canonicalized: opposing flow on an edge is cancelled and any
remaining zero-cost support cycles are removed, so for every edge at most
one direction carries flow.

All entry points are pure functions; solutions are immutable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .errors import InfeasibleTarget, InvariantViolation, MalformedFlow, NegativeTarget
from .netgraph import MILLI, Edge, EdgeKey, NetworkGraph, NodeId, edge_key, min_cut

Arc = tuple[NodeId, NodeId]


@dataclass(frozen=True)
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

    def flow(self, a: NodeId, b: NodeId) -> int:
        return self.arc_flow.get((a, b), 0)

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
    cost, reverse arcs its negation. ``res`` holds remaining capacity.
    """

    def __init__(self, g: NetworkGraph) -> None:
        self.nodes = list(g.nodes)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.adj: list[list[int]] = [[] for _ in self.nodes]
        self.to: list[int] = []
        self.res: list[int] = []
        self.cost: list[int] = []
        self.arc_ends: list[Arc] = []
        for e in g.edges:
            self._add(e.a, e.b, e.capacity, e.unit_cost)
            self._add(e.b, e.a, e.capacity, e.unit_cost)

    def _add(self, a: NodeId, b: NodeId, cap: int, cost: int) -> None:
        ia, ib = self.index[a], self.index[b]
        self.adj[ia].append(len(self.to))
        self.to.append(ib)
        self.res.append(cap)
        self.cost.append(cost)
        self.arc_ends.append((a, b))
        self.adj[ib].append(len(self.to))
        self.to.append(ia)
        self.res.append(0)
        self.cost.append(-cost)
        self.arc_ends.append((b, a))

    def dijkstra(self, start: int, potential: list[int]) -> list[int | None]:
        """Shortest reduced-cost distance from ``start`` to every node."""
        dist: list[int | None] = [None] * len(self.nodes)
        dist[start] = 0
        heap = [(0, start)]
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] is None or d > dist[u]:
                continue
            for aid in self.adj[u]:
                if self.res[aid] <= 0:
                    continue
                v = self.to[aid]
                nd = d + self.cost[aid] + potential[u] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def dijkstra_to(self, goal: int, potential: list[int]) -> list[int | None]:
        """Shortest reduced-cost distance from every node to ``goal``."""
        radj: list[list[int]] = [[] for _ in self.nodes]
        for u in range(len(self.nodes)):
            for aid in self.adj[u]:
                if self.res[aid] > 0:
                    radj[self.to[aid]].append(aid)
        dist: list[int | None] = [None] * len(self.nodes)
        dist[goal] = 0
        heap = [(0, goal)]
        while heap:
            d, v = heapq.heappop(heap)
            if dist[v] is None or d > dist[v]:
                continue
            for aid in radj[v]:
                u = self.index[self.arc_ends[aid][0]]
                nd = d + self.cost[aid] + potential[u] - potential[v]
                if dist[u] is None or nd < dist[u]:
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        return dist

    def lexicographic_shortest_path(
        self, s: int, t: int, potential: list[int]
    ) -> list[int] | None:
        """Arc ids of the cheapest s-t path whose node-label sequence is
        lexicographically smallest among all cheapest simple paths.

        Depth-first search restricted to arcs that lie on some cheapest
        path, visiting neighbors in label order. Backtracking handles the
        corner case where zero-cost cycles make the greedy walk dead-end.
        """
        dist_s = self.dijkstra(s, potential)
        if dist_s[t] is None:
            return None
        dist_t = self.dijkstra_to(t, potential)
        total = dist_s[t]

        def candidates(u: int, acc: int) -> list[tuple[str, int]]:
            found: dict[int, int] = {}
            for aid in self.adj[u]:
                if self.res[aid] <= 0:
                    continue
                v = self.to[aid]
                if dist_t[v] is None or v in on_path:
                    continue
                rc = self.cost[aid] + potential[u] - potential[v]
                if acc + rc + dist_t[v] == total and v not in found:
                    found[v] = aid
            return sorted(
                ((self.nodes[v], aid) for v, aid in found.items()),
                key=lambda item: item[0],
            )

        on_path = {s}
        path_arcs: list[int] = []
        acc_costs = [0]
        stack = [candidates(s, 0)]
        while True:
            node = s if not path_arcs else self.to[path_arcs[-1]]
            if node == t:
                return path_arcs
            options = stack[-1]
            if options:
                _, aid = options.pop(0)
                v = self.to[aid]
                on_path.add(v)
                path_arcs.append(aid)
                rc = (
                    self.cost[aid]
                    + potential[self.index[self.arc_ends[aid][0]]]
                    - potential[v]
                )
                acc_costs.append(acc_costs[-1] + rc)
                stack.append(candidates(v, acc_costs[-1]))
            else:
                # Dead end under the simple-path constraint; back out.
                stack.pop()
                if not path_arcs:
                    return None
                dropped = path_arcs.pop()
                on_path.discard(self.to[dropped])
                acc_costs.pop()


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
        trail: list[NodeId] = []
        pos: dict[NodeId, int] = {}
        stack = [(start, iter(succ.get(start, ())))]
        trail.append(start)
        pos[start] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt in pos:
                    return trail[pos[nxt] :]
                if nxt in visited:
                    continue
                trail.append(nxt)
                pos[nxt] = len(trail) - 1
                stack.append((nxt, iter(succ.get(nxt, ()))))
                advanced = True
                break
            if not advanced:
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
    capacity = min_cut(g)
    if target > capacity:
        raise InfeasibleTarget(
            f"target {target} exceeds the source-sink min-cut {capacity}"
        )

    residual = _Residual(g)
    s, t = residual.index[g.source], residual.index[g.sink]
    potential = [0] * len(residual.nodes)
    pushed = 0
    while pushed < target:
        dist = residual.dijkstra(s, potential)
        path = residual.lexicographic_shortest_path(s, t, potential)
        if path is None:
            raise InfeasibleTarget(
                f"no augmenting path after {pushed} of {target} pairs"
            )
        bottleneck = min(residual.res[aid] for aid in path)
        bottleneck = min(bottleneck, target - pushed)
        for aid in path:
            residual.res[aid] -= bottleneck
            residual.res[aid ^ 1] += bottleneck
        pushed += bottleneck
        for v in range(len(residual.nodes)):
            if dist[v] is not None:
                potential[v] += dist[v]

    arc_flow: dict[Arc, int] = {}
    for aid in range(0, len(residual.to), 2):
        f = residual.res[aid ^ 1]
        if f > 0:
            a, b = residual.arc_ends[aid]
            arc_flow[(a, b)] = arc_flow.get((a, b), 0) + f
    _cancel_cycles(arc_flow, g)

    total_cost = sum(
        g.edge_between(a, b).unit_cost * f for (a, b), f in arc_flow.items()
    )
    net = sum(f for (a, _), f in arc_flow.items() if a == g.source) - sum(
        f for (_, b), f in arc_flow.items() if b == g.source
    )
    if net != target:
        raise InvariantViolation("solver delivered a different net flow than requested")
    return FlowSolution(
        graph=g, arc_flow=dict(sorted(arc_flow.items())), net_flow=net, total_cost=total_cost
    )


def min_cost_max_flow(g: NetworkGraph) -> FlowSolution:
    """Cheapest flow among those delivering the maximum feasible pairs."""
    return min_cost_flow(g, min_cut(g))


def unit_price(sol: FlowSolution) -> Fraction | None:
    """Cost per delivered pair in milli-units, or None for an empty flow."""
    if sol.net_flow == 0:
        return None
    return Fraction(sol.total_cost, sol.net_flow)


def best_unit_price_target(g: NetworkGraph) -> tuple[int, FlowSolution]:
    """Scan all feasible positive targets for the lowest cost per pair.

    Returns:
        The target with the smallest unit price and its solution. Ties are
        resolved toward the smallest target.

    Raises:
        InfeasibleTarget: If the network cannot deliver a single pair.
    """
    capacity = min_cut(g)
    if capacity == 0:
        raise InfeasibleTarget("clients are disconnected; no positive target exists")
    best: tuple[Fraction, int, FlowSolution] | None = None
    for target in range(1, capacity + 1):
        sol = min_cost_flow(g, target)
        price = Fraction(sol.total_cost, target)
        if best is None or price < best[0]:
            best = (price, target, sol)
    if best is None:
        raise InvariantViolation("price scan visited no target")
    return best[1], best[2]


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
        "unit_price_milli": None if price is None else str(price),
    }


def solution_dot(sol: FlowSolution) -> str:
    """Graphviz rendering with `used/capacity @ cost` edge labels."""
    g = sol.graph
    lines = ["graph network {"]
    lines.append(f'  label="net_flow={sol.net_flow} cost={_milli_str(sol.total_cost)}";')
    for n in g.nodes:
        shape = ' [shape=doublecircle]' if n in (g.source, g.sink) else ""
        lines.append(f'  "{n}"{shape};')
    for e in g.edges:
        used = sol.undirected_flow[e.key]
        label = f"{used}/{e.capacity} @ {_milli_str(e.unit_cost)}"
        lines.append(f'  "{e.a}" -- "{e.b}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _milli_str(milli: int) -> str:
    return f"{milli // MILLI}.{milli % MILLI:03d}"

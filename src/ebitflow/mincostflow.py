"""Exact integral minimum-cost flow over both orientations of network edges.

The solver answers: what is the cheapest way to route a given number of
end-to-end Bell pairs through the network when every edge can deliver at
most ``capacity`` pairs in total across both directions and each delivered
pair on an edge costs ``unit_cost`` milli-units?

Algorithm: successive shortest augmenting paths with node potentials, so
Dijkstra always sees non-negative reduced costs. Rounds alternate
direction: the first Dijkstra runs backwards from the sink over in-arcs
and stops once the source is settled, the next forwards from the source
over out-arcs and stops once the sink is settled, and so on. Each moves
the potentials of the nodes it settled by their distances, capped at
its goal's, so the potentials one round leaves aim the next round's
search at its goal. The cheapest paths are then exactly the source-sink
paths of zero-reduced-cost arcs, and among them the lexicographically
smallest node-label sequence is chosen, which makes results
reproducible across runs and platforms. After a backward round, a tight
arc out of a node settled closer to the sink than the source lies on a
cheapest path from that node to the sink, so the walk that picks the
path stays near the cheapest paths. After a forward round, tight arcs
also run along cheapest paths from the source into dead ends, so the
walk may enter more nodes.
A round whose goal distance is 0 leaves the potentials as they were,
so the rounds after it take tight paths without a new Dijkstra until
none is left (primal-dual augmentation). Path choice depends on the
residual alone, not on the target, so one run passes every target's
optimum and ends at the min-cut when the sink becomes unreachable; no
entry point computes a separate min-cut. Each path adds its bottleneck
in pairs at a slope equal to its cost, so the price curve is a running
sum of path costs. Each solution is canonicalized: each edge carries its
net pushed flow, so opposing flow cancels, and any remaining zero-cost
support cycles are removed, so for every edge at most one direction
carries flow.

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
    _edge_key_of,
    _frac,
    _is_int,
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
        out: dict[EdgeKey, int] = dict.fromkeys(map(_edge_key_of, self.graph.edges), 0)
        for (a, b), f in self.arc_flow.items():
            out[edge_key(a, b)] += f
        return out

    @cached_property
    def active_edges(self) -> frozenset[EdgeKey]:
        """Edges carrying any flow."""
        return frozenset(k for k, f in self.undirected_flow.items() if f > 0)


class _Residual:
    """Residual digraph with one forward arc per edge orientation.

    Edge ``j`` of ``graph.edges``, from ``a`` to ``b``, owns arcs
    ``4j..4j+3``: a->b, its reverse, b->a, its reverse. Arc ``i`` and
    ``i ^ 1`` are mutual reverses. Forward arcs carry the edge cost,
    reverse arcs its negation. ``res`` holds remaining capacity, so
    ``res[4j+1] - res[4j+3]`` is the net flow pushed from a to b, and
    ``pushed`` the pairs sent so far. Arc ``i`` runs from ``tail[i]`` to
    ``to[i]``; ``adj[u]`` lists the arcs out of ``u`` and ``radj[v]`` the
    arcs into ``v``.

    Arc u->v has reduced cost ``cost + potential[v] - potential[u]``,
    non-negative on every arc with remaining capacity, so
    ``potential[u] - potential[v]`` never exceeds the cost of a residual
    path from u to v. An arc is tight when it has remaining capacity and
    zero reduced cost; once the potentials include a round's distances,
    the cheapest source-sink paths are the tight-arc paths.

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
        self.radj: list[list[int]] = [[] for _ in self.nodes]
        self.tail: list[int] = []
        self.to: list[int] = []
        self.res: list[int] = []
        self.cost: list[int] = []
        adj, radj, tail, to = self.adj, self.radj, self.tail, self.to
        res, cost, index = self.res, self.cost, self.index
        for e in g.edges:
            # Arcs k..k+3: a->b, its reverse, b->a, its reverse.
            k, ia, ib, c = len(to), index[e.a], index[e.b], e.unit_cost
            adj[ia] += (k, k + 3)
            adj[ib] += (k + 1, k + 2)
            radj[ia] += (k + 1, k + 2)
            radj[ib] += (k, k + 3)
            tail += (ia, ib, ib, ia)
            to += (ib, ia, ia, ib)
            res += (e.capacity, 0, e.capacity, 0)
            cost += (c, -c, c, -c)

    def dijkstra(
        self, root: int, goal: int, potential: list[int], arcs: list[list[int]], ends: list[int]
    ) -> tuple[list[int], list[int | None]] | None:
        """Reduced-cost Dijkstra from ``root`` that stops once ``goal`` is
        settled. It scans the arcs ``arcs[v]`` of each settled node ``v``,
        each leading to ``ends[aid]``, and sees an arc as costing
        ``cost[aid] + potential[v] - potential[ends[aid]]``.

        With ``radj`` and ``tail`` it runs backwards from the sink over
        in-arcs on the potentials; with ``adj`` and ``to`` it runs forwards
        from the source over out-arcs on the negated potentials. Either
        way it sees the arcs' reduced costs.

        Returns the settled nodes in settling order, ``goal`` last, and the
        distances from ``root``, exact for the settled nodes; None if
        ``goal`` is out of reach. The heap holds ``d * n + v``, which orders
        like ``(d, v)`` since the reduced costs are non-negative.
        """
        n = len(self.nodes)
        res, cost = self.res, self.cost
        heappush, heappop = heapq.heappush, heapq.heappop
        dist: list[int | None] = [None] * n
        done = [False] * n
        settled: list[int] = []
        dist[root] = 0
        heap = [root]
        while heap:
            v = heappop(heap) % n
            if done[v]:
                continue
            done[v] = True
            settled.append(v)
            if v == goal:
                return settled, dist
            base = dist[v] + potential[v]
            for aid in arcs[v]:
                if res[aid] > 0:
                    u = ends[aid]
                    if not done[u]:
                        nd = base + cost[aid] - potential[u]
                        du = dist[u]
                        if du is None or nd < du:
                            dist[u] = nd
                            heappush(heap, nd * n + u)
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
        path that reaches ``t``; it takes each arc at most once. After a
        backward round, a tight arc out of a node that round settled
        closer to the sink than ``s`` lies on a cheapest path from that
        node to the sink, so the walk seldom backs out. After a forward
        round, a tight arc out of a settled node may instead lie on a
        cheapest path from ``s`` into a dead end, so the walk enters more
        nodes.

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
        adj, res, tail, to, cost = self.adj, self.res, self.tail, self.to, self.cost
        untried: list[Iterator[int] | None] = [None] * len(self.nodes)
        untried[s] = iter(adj[s])
        path_arcs: list[int] = []
        u = s
        while True:
            pu = potential[u]
            for aid in untried[u]:
                v = to[aid]
                if untried[v] is None and res[aid] > 0 and cost[aid] + potential[v] == pu:
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
                u = tail[path_arcs.pop()]

    def augmenting_paths(self) -> Iterator[tuple[list[int], int]]:
        """Yield each cheapest source-sink path and its bottleneck until the
        sink is unreachable; the caller pushes along a path before the next.

        Rounds alternate direction. The first round's Dijkstra runs
        backwards from the sink and stops at the source, the next forwards
        from the source and stops at the sink, and so on; each stops at
        its goal's distance D. A backward round adds ``dist[v] - D`` to the
        potential of each node v it settled, a forward round ``D -
        dist[v]``; no other potential moves, since only their differences
        are read (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 9).
        Either update keeps every residual reduced cost non-negative and
        makes every cheapest source-sink path tight, so the walk picks the
        same path whichever way the round ran. Feasible potentials are a
        consistent A* heuristic (Goldberg & Harrelson, SODA 2005): those
        a round leaves aim the next search, from the other end, at its
        goal. A forward round searches on ``negated``, the potentials
        negated, so one search routine serves both ends.

        At D = 0 the potentials do not move, so while tight paths remain
        each following round is the walk alone (§9.8): a Dijkstra would
        find D = 0 again and change nothing. A Dijkstra runs again once the
        walk finds no tight path.
        """
        s, t = self.index[self.graph.source], self.index[self.graph.sink]
        potential = [0] * len(self.nodes)
        negated = [0] * len(self.nodes)
        search = (t, s, potential, self.radj, self.tail)
        other = (s, t, negated, self.adj, self.to)
        tight = False
        while True:
            path = self.lexicographic_shortest_path(s, t, potential) if tight else None
            if path is None:
                found = self.dijkstra(*search)
                if found is None:
                    return
                settled, dist = found
                far = dist[settled[-1]]
                tight = far == 0
                mine, theirs = search[2], other[2]
                for v in settled:
                    step = dist[v] - far
                    mine[v] += step
                    theirs[v] -= step
                search, other = other, search
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
        """The canonical flow of everything pushed so far.

        One subtraction per edge, ``res[4j+1] - res[4j+3]``, gives the
        edge's flow arc and its cost with opposing flow already cancelled.
        Zero-cost cycles left in the support are then removed one at a
        time, each the first that ``_find_cycle`` finds; an optimal flow
        has no other cycles, so removal never changes net flow or cost.
        Arcs stay pairs of node indices until the labels are written.
        Index order is label order, so the cycles removed and the order of
        ``arc_flow`` are those of the same search over labels.
        """
        g, nodes, to, res, cost = self.graph, self.nodes, self.to, self.res, self.cost
        flow: dict[tuple[int, int], int] = {}
        total_cost = 0
        for k in range(0, len(to), 4):
            f = res[k + 1] - res[k + 3]
            if f > 0:
                flow[to[k + 1], to[k]] = f
                total_cost += cost[k] * f
            elif f < 0:
                flow[to[k], to[k + 1]] = -f
                total_cost -= cost[k] * f
        flow = dict(sorted(flow.items()))
        while True:
            succ: list[list[int]] = [[] for _ in nodes]
            for u, v in flow:
                succ[u].append(v)
            cycle = _find_cycle(succ)
            if cycle is None:
                break
            arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
            if any(g.edge_between(nodes[u], nodes[v]).unit_cost for u, v in arcs):
                raise InvariantViolation("positive-cost cycle in an optimal flow")
            bottleneck = min(flow[arc] for arc in arcs)
            for arc in arcs:
                flow[arc] -= bottleneck
                if not flow[arc]:
                    del flow[arc]
        s = self.index[g.source]
        net = 0
        arc_flow: dict[Arc, int] = {}
        for (u, v), f in flow.items():
            arc_flow[nodes[u], nodes[v]] = f
            if u == s:
                net += f
            elif v == s:
                net -= f
        if net != self.pushed:
            raise InvariantViolation("solver delivered a different net flow than requested")
        return FlowSolution(graph=g, arc_flow=arc_flow, net_flow=net, total_cost=total_cost)


def _find_cycle(succ: list[list[int]]) -> list[int] | None:
    """The first cycle, as its nodes in order, of a depth-first search that
    tries start nodes in increasing order and each node's successors in
    ``succ`` order; None if the digraph has no cycle."""
    n = len(succ)
    done = [False] * n
    # Position on the trail of each node the search is inside, else -1.
    pos = [-1] * n
    for start in range(n):
        if done[start] or not succ[start]:
            continue
        trail = [start]
        pos[start] = 0
        stack = [iter(succ[start])]
        while stack:
            for nxt in stack[-1]:
                if pos[nxt] >= 0:
                    return trail[pos[nxt] :]
                if not done[nxt]:
                    pos[nxt] = len(trail)
                    trail.append(nxt)
                    stack.append(iter(succ[nxt]))
                    break
            else:
                stack.pop()
                node = trail.pop()
                done[node] = True
                pos[node] = -1
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
    if not _is_int(target):
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
    return tuple(costs), _best_target(costs)


def _best_target(costs: list[int]) -> int:
    """The target k with the lowest average cost ``costs[k-1] / k``; ties
    go to the smallest. Averages compare by cross-multiplying, and only a
    strictly lower one replaces the best so far."""
    best = 1
    for k in range(2, len(costs) + 1):
        if costs[k - 1] * best < costs[best - 1] * k:
            best = k
    return best


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
    opposing = [
        (a, b)
        for (a, b), f in sol.arc_flow.items()
        if a < b and f > 0 and sol.arc_flow.get((b, a), 0) > 0
    ]
    if opposing:
        raise MalformedFlow(f"opposing flow on edge {min(opposing)}")


def solution_report(sol: FlowSolution) -> dict:
    """Serializable summary of a flow solution. Costs stay in milli-units."""
    price = unit_price(sol)
    flow = sol.undirected_flow
    return {
        "arcs": [
            {"from": a, "to": b, "flow": f}
            for (a, b), f in sorted(sol.arc_flow.items())
        ],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "flow": flow[_edge_key_of(e)],
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
    flow = sol.undirected_flow
    lines = ["graph network {"]
    lines.append(f'  label="net_flow={sol.net_flow} cost={_milli_text(sol.total_cost)}";')
    for n in g.nodes:
        shape = ' [shape=doublecircle]' if n in (g.source, g.sink) else ""
        lines.append(f"  {_dot_id(n)}{shape};")
    for e in g.edges:
        used = flow[_edge_key_of(e)]
        label = f"{used}/{e.capacity} @ {_milli_text(e.unit_cost)}"
        lines.append(f'  {_dot_id(e.a)} -- {_dot_id(e.b)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_id(label: NodeId) -> str:
    """``label`` as a quoted DOT ID, with backslashes and quotes escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

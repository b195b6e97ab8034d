"""Hierarchical network composition.

A higher-level network abstracts each edge as a whole lower-level network:
one "use" of such an edge means running the lower network once (delivering
its per-use pair target) and feeding the results to entanglement
distillation, summarized by a yield function. The edge then looks like a
physical channel again, with

* capacity: the yield at the edge's use bound,
* unit cost: an explicit price per distilled pair, or a constant-efficiency
  default derived from the lower network's per-use cost,
* generation error: the distillation target error for that edge.

Flattening a level this way reduces planning to the ordinary minimum-cost
flow machinery, and the per-edge generation errors of the active edges add
into the level's error budget regardless of how large the lower networks
are.

A hierarchy is resolved once into a tree that mirrors it: each network's
node holds its flattened graph and, under each wrapped edge's key, that
edge's lower solve and the lower network's node. Lower-use planning
descends that tree by the keys of the active edges.

Resolving a hierarchy solves each distinct lower network once, with one
augmenting-path run: at the edge's per-use target, or else to its end at
the min-cut (``min_cost_max_flow``). A lower solve is keyed by what the
solve and its generation error budget read: the flattened network's
capacities, costs and generation errors with every label replaced by its
rank among the sorted labels, plus the per-use target. Use bounds are
left out, since neither reads them. So copies that differ by an
order-preserving relabelling share one solve. The key keeps the order, not
just the shape, because the solver breaks ties between equal-cost paths by
comparing labels: the same shape with the sink sorting elsewhere among the
interior labels can pick a different path.

Hierarchical documents extend the flat network format: every edge carries a
``lower`` object instead of capacity and cost::

    {"a": "X", "b": "Y", "lower": {
        "network": { ...flat or hierarchical document... },
        "yield": {"kind": "linear-floor", "rate": "1/3"},
        "max_uses": 10,
        "delta_target": 0.01,
        "cost": 2.5,          # optional, else constant-efficiency default
        "target": 2,          # optional per-use pair target for the lower network
        "threshold": 0.1      # optional bound on the lower network's own error
    }}

Every level has the flat format's four top-level fields, checked by the
same ``netgraph`` helpers as a flat document, so their errors read alike.

Parsing a hierarchical document builds each distinct thing once: one
memo (see ``netgraph._converted``) lives for the whole document and is
shared by every level and every lower copy. It converts each distinct
cost and delta once. It builds each distinct leaf edge row once, keyed
by its exact-typed values with the raw delta, so relabelled copies of
one lower network share every ``Edge`` away from their clients. A copy
whose checked columns equal an earlier copy's (labels included) gets
that copy's graph object, and ``_resolve`` keys each such graph once.
Each distinct yield object of exact-typed values, with its use bound,
is parsed into one ``YieldFunction``.

Resolving, aggregating and lower-use planning walk the hierarchy with
explicit stacks. Parsing (``parse_hierarchical``) and the CLI's lower-plan
rendering recurse once per level. A loaded document (``load_hierarchical``)
stays far below Python's recursion limit: the JSON decoder refuses nesting
deeper than that limit (about 1000 containers, and each level nests four,
so about 246 levels), and the loader reports that as a ParseError. An
already-decoded object can nest deeper; ``parse_hierarchical`` refuses one
that reaches the limit with a ParseError.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import contains
from pathlib import Path

from .errors import ParseError, ThresholdViolation, ValidationError
from .mincostflow import FlowSolution, min_cost_flow, min_cost_max_flow
from .netgraph import (
    Edge,
    EdgeKey,
    NetworkGraph,
    NodeId,
    _MEMO_KINDS,
    _NUMBER_LIMIT,
    _checked_layout,
    _converted,
    _doc_clients,
    _doc_nodes,
    _endpoints,
    _is_int,
    _is_probability,
    _load_json,
    _parse_flat,
    _set,
    _too_large,
    _value_type,
    as_fraction,
    cost_to_milli,
    min_cut,
)
from .pathplan import build_swap_schedule  # noqa: F401  bench/tracing.py patches this name
from .pathplan import decompose_flow
from .stabsim import (
    ErrorBudget,
    NoiseModel,
    _pass_probability,
    generation_error_budget,
)
from .stabsim import exact_operation_error  # noqa: F401  bench/tracing.py patches this name
from .yields import YieldFunction, parse_yield

@_value_type
class HierEdge:
    """Higher-level edge backed by a lower-level network plus distillation.

    Attributes:
        a: One endpoint; endpoints are stored sorted, like physical edges.
        b: The other endpoint.
        lower: The network one level down whose clients are ``a`` and ``b``.
        yield_fn: Distilled pairs as a function of lower-network uses.
        unit_cost: Price per distilled pair in milli-units, or None to use
            the constant-efficiency default.
        distill_error: Trace-distance target for each distilled pair.
        lower_target: Pairs the lower network delivers per use; None means
            its full capacity (the min-cut).
        error_threshold: Optional bound the lower network's own error budget
            must not exceed; checked when planning lower uses.
    """

    a: NodeId
    b: NodeId
    lower: "HierarchicalNetwork"
    yield_fn: YieldFunction
    unit_cost: int | None
    distill_error: Fraction
    lower_target: int | None
    error_threshold: Fraction | None

    def __init__(
        self,
        a: NodeId,
        b: NodeId,
        lower: "HierarchicalNetwork",
        yield_fn: YieldFunction,
        unit_cost: int | None = None,
        distill_error: Fraction = Fraction(0),
        lower_target: int | None = None,
        error_threshold: Fraction | None = None,
    ) -> None:
        a, b = _endpoints(a, b)
        if {lower.clients[0], lower.clients[1]} != {a, b}:
            raise ValidationError(
                f"edge {(a, b)}: lower network clients {lower.clients} "
                "do not coincide with the endpoints"
            )
        distill_error = as_fraction(distill_error, "distill_error")
        if not _is_probability(distill_error):
            raise ValidationError(f"edge {(a, b)}: distill_error outside [0, 1]")
        if error_threshold is not None:
            error_threshold = as_fraction(error_threshold, "error_threshold")
            if not _is_probability(error_threshold):
                raise ValidationError(f"edge {(a, b)}: error_threshold outside [0, 1]")
        # A bool is an int, but True would also hash like 1 in the lower
        # solve key; reject it as netgraph.Edge does.
        for name, value in (("unit_cost", unit_cost), ("lower_target", lower_target)):
            if value is not None and (not _is_int(value) or value < 0):
                raise ValidationError(
                    f"edge {(a, b)}: {name} must be a non-negative integer"
                )
        # The flattened edge needs a finite capacity.
        yield_fn.cap()
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "lower", lower)
        _set(self, "yield_fn", yield_fn)
        _set(self, "unit_cost", unit_cost)
        _set(self, "distill_error", distill_error)
        _set(self, "lower_target", lower_target)
        _set(self, "error_threshold", error_threshold)

    @property
    def key(self) -> EdgeKey:
        return (self.a, self.b)


@_value_type
class HierarchicalNetwork:
    """A network whose edges are physical (level 0) or networks themselves.

    Level 0 wraps a plain NetworkGraph. At level k >= 1 every edge wraps a
    level k-1 network.
    """

    level: int
    nodes: tuple[NodeId, ...]
    edges: tuple[HierEdge, ...]
    clients: tuple[NodeId, NodeId]
    base: NetworkGraph | None

    def __init__(
        self,
        level: int,
        nodes: tuple[NodeId, ...],
        edges: tuple[HierEdge, ...],
        clients: tuple[NodeId, NodeId],
        base: NetworkGraph | None = None,
    ) -> None:
        if level == 0:
            if base is None:
                raise ValidationError("level-0 network requires a base graph")
            if edges:
                raise ValidationError("level-0 network cannot carry wrapped edges")
            nodes, clients = base.nodes, (base.source, base.sink)
        else:
            if base is not None:
                raise ValidationError("only level-0 networks carry a base graph")
            nodes, edges = _checked_layout(nodes, edges, *clients)
            for e in edges:
                if e.lower.level != level - 1:
                    raise ValidationError(
                        f"edge {e.key}: level-{level} edges must wrap "
                        f"level-{level - 1} networks, got level {e.lower.level}"
                    )
        _set(self, "level", level)
        _set(self, "nodes", nodes)
        _set(self, "edges", edges)
        _set(self, "clients", clients)
        _set(self, "base", base)

    @classmethod
    def from_graph(cls, g: NetworkGraph) -> "HierarchicalNetwork":
        return cls(level=0, nodes=g.nodes, edges=(), clients=(g.source, g.sink), base=g)

    @classmethod
    def build(
        cls,
        edges: Sequence[HierEdge],
        source: NodeId,
        sink: NodeId,
        extra_nodes: Sequence[NodeId] = (),
    ) -> "HierarchicalNetwork":
        if not edges:
            raise ValidationError("a wrapped network needs at least one edge")
        level = edges[0].lower.level + 1
        nodes = {source, sink, *extra_nodes}
        for e in edges:
            nodes.add(e.a)
            nodes.add(e.b)
        return cls(
            level=level,
            nodes=tuple(sorted(nodes)),
            edges=tuple(edges),
            clients=(source, sink),
        )

    @cached_property
    def _resolved(self) -> "_Resolved":
        # The whole hierarchy is resolved once and shared by every query.
        return _resolve(self)


@_value_type
class _Resolved:
    """A network resolved once, as a tree that mirrors the hierarchy:
    ``graph`` is its flattened graph, and ``rows[key]`` holds the wrapped
    edge under ``key``, its lower solve, that solve's generation error
    budget and the lower network resolved in turn. A lower network object
    that several edges wrap has one node, which their rows share."""

    graph: NetworkGraph
    rows: Mapping[EdgeKey, tuple[HierEdge, FlowSolution, Fraction, "_Resolved"]]

    def __init__(
        self,
        graph: NetworkGraph,
        rows: Mapping[EdgeKey, tuple[HierEdge, FlowSolution, Fraction, "_Resolved"]],
    ) -> None:
        _set(self, "graph", graph)
        _set(self, "rows", rows)


def _lower_key(lower_flat: NetworkGraph, lower_target: int | None) -> tuple:
    """Content key of a lower solve on ``lower_flat``: its node count, each
    edge's endpoints as ranks among the sorted nodes with its capacity,
    unit cost and generation error, the ranks of the clients, and the
    per-use target. Use bounds are left out: neither the solve nor its
    generation error budget reads them."""
    rank = {v: i for i, v in enumerate(lower_flat.nodes)}
    return (
        len(rank),
        tuple(
            (
                rank[e.a],
                rank[e.b],
                e.capacity,
                e.unit_cost,
                # A normalized Fraction is its numerator and denominator;
                # two ints hash far faster than the Fraction.
                e.gen_error.numerator,
                e.gen_error.denominator,
            )
            for e in lower_flat.edges
        ),
        rank[lower_flat.source],
        rank[lower_flat.sink],
        lower_target,
    )


def _resolve(net: HierarchicalNetwork) -> _Resolved:
    """Resolve ``net`` bottom-up into its tree of ``_Resolved`` nodes, one
    per network, resolving default costs.

    The constant-efficiency default prices a distilled pair at the edge's
    use bound: ceil(max_uses * per_use_cost / capacity) milli-units, where
    per_use_cost is the lower network's minimum cost at its per-use target,
    or at its min-cut (one ``min_cost_max_flow`` run) if the edge sets none.

    Each distinct lower solve runs once per call: solutions are kept under
    ``_lower_key``, which ranks the labels of the flattened lower network
    in sorted order, and a copy with the same key maps the first flow onto
    its own labels. That is exact because the solver sees labels only as
    their sorted ranks: its search (heap keys included), its tie-break,
    its cycle cancelling and the order of ``arc_flow`` all work on node
    indices until the labels are written, so an order-preserving
    bijection maps one solution onto the other. Replacing
    only the client labels would not do: which of two equal-cost paths
    wins can depend on where the sink sorts among the interior labels.
    """
    # Each distinct network once, by id: a lower network object shared by
    # several edges is resolved once and its node shared.
    networks: list[HierarchicalNetwork] = []
    seen: set[int] = set()
    queue = [net]
    while queue:
        n = queue.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        networks.append(n)
        for e in n.edges:
            queue.append(e.lower)

    # id(network) -> its node, for the lower networks of the next level up.
    done: dict[int, _Resolved] = {}
    solved: dict[tuple, tuple[FlowSolution, Fraction]] = {}
    # Copies of a lower network may share one graph object (the parser
    # builds a repeated network once): such a graph is keyed once and
    # reuses its solution as is. Every graph stays alive in ``done`` for
    # the call, so ids stay unique.
    keys: dict[tuple[int, int | None], tuple] = {}
    for n in sorted(networks, key=lambda n: n.level):
        if n.level == 0:
            done[id(n)] = _Resolved(n.base, {})
            continue
        rows = {}
        flat_edges = []
        for e in n.edges:
            lower = done[id(e.lower)]
            lower_flat = lower.graph
            key = keys.get((id(lower_flat), e.lower_target))
            if key is None:
                key = keys[id(lower_flat), e.lower_target] = _lower_key(
                    lower_flat, e.lower_target
                )
            first = solved.get(key)
            if first is None:
                if e.lower_target is None:
                    lower_sol = min_cost_max_flow(lower_flat)
                else:
                    lower_sol = min_cost_flow(lower_flat, e.lower_target)
                generation = generation_error_budget(lower_flat, lower_sol.active_edges)
                solved[key] = lower_sol, generation
            else:
                sol, generation = first
                if sol.graph is lower_flat:
                    lower_sol = sol
                else:
                    label = dict(zip(sol.graph.nodes, lower_flat.nodes))
                    lower_sol = FlowSolution(
                        graph=lower_flat,
                        arc_flow={
                            (label[a], label[b]): f for (a, b), f in sol.arc_flow.items()
                        },
                        net_flow=sol.net_flow,
                        total_cost=sol.total_cost,
                    )
            rows[e.key] = e, lower_sol, generation, lower
            theta = e.yield_fn.cap()
            if e.unit_cost is not None:
                pounds = e.unit_cost
            elif theta == 0:
                pounds = 0
            else:
                pounds = -((-e.yield_fn.max_uses * lower_sol.total_cost) // theta)
            flat_edges.append(
                Edge(
                    e.a,
                    e.b,
                    capacity=theta,
                    unit_cost=pounds,
                    gen_error=e.distill_error,
                    max_uses=e.yield_fn.max_uses,
                )
            )
        graph = NetworkGraph(
            nodes=n.nodes,
            edges=tuple(flat_edges),
            source=n.clients[0],
            sink=n.clients[1],
        )
        done[id(n)] = _Resolved(graph, rows)
    return done[id(net)]


def flatten(net: HierarchicalNetwork) -> NetworkGraph:
    """The equivalent flat network of a hierarchical one."""
    return net._resolved.graph


def effective_min_cut(net: HierarchicalNetwork) -> int:
    """Capacity bound of the hierarchy: min-cut of the flattened network."""
    return min_cut(flatten(net))


@_value_type
class AggregateResult:
    """Planning outcome for one hierarchy level.

    ``solution`` is the minimum-cost flow on the flattened network, so
    ``solution.undirected_flow`` gives distilled pairs per edge and
    ``solution.total_cost`` the level's cost. ``budget.generation`` sums
    the distillation targets of the active edges.
    """

    solution: FlowSolution
    budget: ErrorBudget

    def __init__(self, solution: FlowSolution, budget: ErrorBudget) -> None:
        _set(self, "solution", solution)
        _set(self, "budget", budget)

    @property
    def cost(self) -> int:
        return self.solution.total_cost


def aggregate_level(
    net: HierarchicalNetwork,
    target: int,
    *,
    swap_depolarize_p=0,
) -> AggregateResult:
    """Plan ``target`` end-to-end pairs across the top level of ``net``.

    The operation error is zero for noiseless swapping; with a nonzero
    ``swap_depolarize_p`` it is ``exact_operation_error`` of the flow's
    swap schedule, computed at any size from the flow's path bundles
    without building that schedule: one power per bundle.

    Raises:
        InfeasibleTarget, NegativeTarget: From the underlying flow solve.
        ValidationError: On a ``swap_depolarize_p`` outside [0, 1].
        TooLarge: On an operation error too long to write, before its
            power is computed.
    """
    flat = flatten(net)
    sol = min_cost_flow(flat, target)
    generation = generation_error_budget(flat, sol.active_edges)
    p = NoiseModel(swap_depolarize_p=swap_depolarize_p).swap_depolarize_p
    if p == 0:
        operation = Fraction(0)
    else:
        # Pair noise is excluded from the operation error, so only the
        # swaps of each copy count.
        keep = (p.denominator - p.numerator, p.denominator)
        groups = (([keep] * (b.hops - 1), b.multiplicity) for b in decompose_flow(sol))
        operation = 1 - _pass_probability(groups)
    return AggregateResult(
        solution=sol, budget=ErrorBudget(generation=generation, operation=operation)
    )


@_value_type
class LowerUsePlan:
    """How often one active edge's lower network must run, recursively.

    ``uses`` is per parent-level run; ``total_uses`` multiplies the use
    counts down from the root plan.
    """

    edge: EdgeKey
    pairs: int
    uses: int
    per_use_target: int
    per_use_cost: int
    total_uses: int
    lower_error: Fraction
    sub: tuple["LowerUsePlan", ...]

    def __init__(
        self,
        edge: EdgeKey,
        pairs: int,
        uses: int,
        per_use_target: int,
        per_use_cost: int,
        total_uses: int,
        lower_error: Fraction,
        sub: tuple["LowerUsePlan", ...],
    ) -> None:
        _set(self, "edge", edge)
        _set(self, "pairs", pairs)
        _set(self, "uses", uses)
        _set(self, "per_use_target", per_use_target)
        _set(self, "per_use_cost", per_use_cost)
        _set(self, "total_uses", total_uses)
        _set(self, "lower_error", lower_error)
        _set(self, "sub", sub)


def plan_lower_uses(
    net: HierarchicalNetwork, sol: FlowSolution
) -> tuple[LowerUsePlan, ...]:
    """Invert every active edge's yield into lower-network use counts.

    For each active edge the smallest use count whose yield covers the
    edge's pairs is chosen; deeper levels expand the same way under the
    multiplied use count. Edges with an ``error_threshold`` require the
    lower network's error budget to stay within it. A level-0 network's
    edges are physical, so it has no lower uses.

    Raises:
        YieldShortfall: An edge cannot reach its pairs within its use bound.
        ThresholdViolation: A lower network's error exceeds the threshold.
    """
    if net.level == 0:
        return ()
    created: list[dict] = []
    roots: list[dict] = []
    stack: list[tuple[_Resolved, FlowSolution, int, list[dict]]] = [
        (net._resolved, sol, 1, roots)
    ]
    while stack:
        resolved, solution, multiplier, out = stack.pop()
        for key in sorted(solution.active_edges):
            edge, lower_sol, lower_error, lower = resolved.rows[key]
            pairs = solution.undirected_flow[key]
            uses = edge.yield_fn.invert(pairs)
            if edge.error_threshold is not None and lower_error > edge.error_threshold:
                raise ThresholdViolation(
                    f"edge {key}: lower error {lower_error} exceeds "
                    f"threshold {edge.error_threshold}"
                )
            node = {
                "edge": key,
                "pairs": pairs,
                "uses": uses,
                "per_use_target": lower_sol.net_flow,
                "per_use_cost": lower_sol.total_cost,
                "total_uses": uses * multiplier,
                "lower_error": lower_error,
                "sub": [],
            }
            created.append(node)
            out.append(node)
            if lower.rows:
                stack.append((lower, lower_sol, uses * multiplier, node["sub"]))
    frozen: dict[int, LowerUsePlan] = {}
    for node in reversed(created):
        frozen[id(node)] = LowerUsePlan(
            edge=node["edge"],
            pairs=node["pairs"],
            uses=node["uses"],
            per_use_target=node["per_use_target"],
            per_use_cost=node["per_use_cost"],
            total_uses=node["total_uses"],
            lower_error=node["lower_error"],
            sub=tuple(frozen[id(c)] for c in node["sub"]),
        )
    return tuple(frozen[id(n)] for n in roots)


def total_lower_cost(net: HierarchicalNetwork, sol: FlowSolution) -> int:
    """Cost of running the lower networks for every top-level active edge:
    use count times lower per-use cost, summed, in milli-units; 0 at
    level 0, whose edges are physical."""
    if net.level == 0:
        return 0
    rows = net._resolved.rows
    total = 0
    for key in sorted(sol.active_edges):
        edge, lower_sol, _, _ = rows[key]
        total += edge.yield_fn.invert(sol.undirected_flow[key]) * lower_sol.total_cost
    return total


_WRAPPED_FIELDS = frozenset({"a", "b", "lower"})
_LOWER_REQUIRED = frozenset({"network", "yield", "delta_target"})
_LOWER_OPTIONAL = frozenset({"max_uses", "cost", "target", "threshold"})


def _parsed_yield(memo: dict, raw: object, max_uses: int | None) -> YieldFunction:
    """``parse_yield(raw, max_uses)``, remembered in ``memo`` when ``raw``
    is an exact dict whose every value is an int, a float or a string (a
    table's points are not). The key holds each value's exact type and
    that of ``max_uses``, so ``1``, ``1.0``, ``True`` and ``"1"`` never
    share a yield; a failed parse is never remembered."""
    if type(raw) is not dict or not set(map(type, raw.values())) <= _MEMO_KINDS:
        return parse_yield(raw, max_uses)
    key = (type(max_uses), max_uses, *raw.items(), *map(type, raw.values()))
    table = memo.setdefault(parse_yield, {})
    fn = table.get(key)
    if fn is None:
        fn = table[key] = parse_yield(raw, max_uses)
    return fn


def _parse_lower(raw: Mapping, index: int, memo: dict) -> dict:
    """The fields of the ``lower`` object of ``edges[index]``; ``memo`` as
    in ``netgraph._converted``."""
    where = f"edges[{index}]"
    if not isinstance(raw, Mapping):
        raise ParseError(f"{where}: lower must be an object")
    unknown = set(raw) - _LOWER_REQUIRED - _LOWER_OPTIONAL
    if unknown:
        raise ParseError(f"{where}: unknown lower fields {sorted(unknown)}")
    missing = _LOWER_REQUIRED - set(raw)
    if missing:
        raise ParseError(f"{where}: missing lower fields {sorted(missing)}")
    max_uses = raw.get("max_uses")
    if max_uses is not None and (not _is_int(max_uses) or max_uses < 0):
        raise ParseError(f"{where}: max_uses must be a non-negative integer")
    if max_uses is not None and max_uses > _NUMBER_LIMIT:
        raise _too_large(f"{where}.max_uses")
    out = {
        "network": raw["network"],
        "yield_fn": _parsed_yield(memo, raw["yield"], max_uses),
        "distill_error": _converted(
            memo, as_fraction, raw["delta_target"], index, "delta_target"
        ),
        "unit_cost": None,
        "lower_target": None,
        "error_threshold": None,
    }
    if "cost" in raw:
        out["unit_cost"] = _converted(memo, cost_to_milli, raw["cost"], index, "cost")
    if "target" in raw:
        tgt = raw["target"]
        if not _is_int(tgt) or tgt < 0:
            raise ParseError(f"{where}: target must be a non-negative integer")
        if tgt > _NUMBER_LIMIT:
            raise _too_large(f"{where}.target")
        out["lower_target"] = tgt
    if "threshold" in raw:
        out["error_threshold"] = _converted(
            memo, as_fraction, raw["threshold"], index, "threshold"
        )
    return out


def parse_hierarchical(doc: Mapping) -> HierarchicalNetwork:
    """Parse a hierarchical document; flat documents become level 0.

    Raises:
        ParseError: On structural problems, and on a document nested
            deeper than Python's recursion limit lets the parse descend.
        ValidationError: On semantic problems.
    """
    try:
        return _parse_hierarchical(doc, {})
    except RecursionError:
        raise ParseError("document nested too deep") from None


def _parse_hierarchical(doc: Mapping, memo: dict) -> HierarchicalNetwork:
    """``parse_hierarchical`` with the conversion memo of the whole
    document, shared by every level and every lower copy."""
    if not isinstance(doc, Mapping):
        raise ParseError("network document must be an object")
    edges = doc.get("edges")
    if not isinstance(edges, Sequence) or isinstance(edges, (str, bytes)):
        raise ParseError("edges: expected an array of edge objects")
    # Edges that are all exact dicts are counted without a Mapping check.
    if set(map(type, edges)) <= {dict}:
        wrapped = sum(map(contains, edges, repeat("lower")))
    else:
        wrapped = 0
        for e in edges:
            if isinstance(e, Mapping):
                wrapped += "lower" in e
    if not wrapped:
        flat = _parse_flat(doc, None, memo)
        return HierarchicalNetwork.from_graph(flat.graph)
    if wrapped < len(edges):
        raise ValidationError(
            "a network must be uniformly physical or uniformly wrapped; "
            "wrap single physical edges as two-node networks instead of mixing"
        )
    nodes = _doc_nodes(doc)
    hier_edges = []
    for i, entry in enumerate(edges):
        where = f"edges[{i}]"
        if entry.keys() != _WRAPPED_FIELDS:
            unknown = set(entry) - _WRAPPED_FIELDS
            if unknown:
                raise ParseError(f"{where}: unknown fields {sorted(unknown)}")
            raise ParseError(f"{where}: needs a, b and lower")
        a, b = entry["a"], entry["b"]
        if not isinstance(a, str) or not isinstance(b, str):
            raise ParseError(f"{where}: endpoints must be strings")
        fields = _parse_lower(entry["lower"], i, memo)
        lower_net = _parse_hierarchical(fields.pop("network"), memo)
        hier_edges.append(HierEdge(a=a, b=b, lower=lower_net, **fields))
    source, sink = _doc_clients(doc)
    levels = {e.lower.level for e in hier_edges}
    if len(levels) > 1:
        raise ValidationError(
            f"edges wrap networks of different levels {sorted(levels)}"
        )
    return HierarchicalNetwork(
        level=hier_edges[0].lower.level + 1,
        nodes=tuple(nodes),
        edges=tuple(hier_edges),
        clients=(source, sink),
    )


def load_hierarchical(source: str | Path | bytes) -> HierarchicalNetwork:
    """Load a hierarchical network from a JSON file, JSON text or the
    document's UTF-8 bytes."""
    return parse_hierarchical(_load_json(source))

"""Hierarchical composition: flattening, aggregation, and lower-use plans."""

import random
from fractions import Fraction

import pytest

from ebitflow import (
    Edge,
    HierEdge,
    HierarchicalNetwork,
    InfeasibleTarget,
    NetworkGraph,
    ParseError,
    ThresholdViolation,
    TooLarge,
    ValidationError,
    YieldFunction,
    aggregate_level,
    build_swap_schedule,
    decompose_flow,
    effective_min_cut,
    exact_operation_error,
    flatten,
    load_hierarchical,
    min_cost_flow,
    min_cut,
    parse_hierarchical,
    plan_lower_uses,
    total_lower_cost,
    NoiseModel,
)
from oracles import random_network


def phys(a, b, cap, cost_milli, delta=0):
    """Level-0 wrapper around a single physical edge with clients (a, b)."""
    g = NetworkGraph.from_edge_list([(a, b, cap, cost_milli, delta)], a, b)
    return HierarchicalNetwork.from_graph(g)


def chain42():
    return HierarchicalNetwork.build(
        [
            HierEdge(
                a="A",
                b="B",
                lower=phys("A", "B", 4, 1000),
                yield_fn=YieldFunction.identity(4),
                unit_cost=1000,
            ),
            HierEdge(
                a="B",
                b="C",
                lower=phys("B", "C", 2, 1000),
                yield_fn=YieldFunction.identity(2),
                unit_cost=1000,
            ),
        ],
        "A",
        "C",
    )


def unit_diamond(delta=Fraction(1, 100)):
    edges = []
    for a, b in (("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")):
        edges.append(
            HierEdge(
                a=a,
                b=b,
                lower=phys(a, b, 1, 1000, delta),
                yield_fn=YieldFunction.identity(1),
                unit_cost=1000,
                distill_error=delta,
            )
        )
    return HierarchicalNetwork.build(edges, "s", "t")


class TestHierEdge:
    def test_endpoints_sorted(self):
        e = HierEdge(
            a="Z", b="A", lower=phys("A", "Z", 1, 1000), yield_fn=YieldFunction.identity(1)
        )
        assert (e.a, e.b) == ("A", "Z")
        assert e.key == ("A", "Z")

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            HierEdge(
                a="A", b="A", lower=phys("A", "B", 1, 1000), yield_fn=YieldFunction.identity(1)
            )

    def test_client_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            HierEdge(
                a="A", b="B", lower=phys("A", "C", 1, 1000), yield_fn=YieldFunction.identity(1)
            )

    def test_unbounded_yield_rejected(self):
        with pytest.raises(ValidationError):
            HierEdge(
                a="A", b="B", lower=phys("A", "B", 1, 1000), yield_fn=YieldFunction.identity()
            )

    def test_negative_unit_cost_rejected(self):
        with pytest.raises(ValidationError):
            HierEdge(
                a="A",
                b="B",
                lower=phys("A", "B", 1, 1000),
                yield_fn=YieldFunction.identity(1),
                unit_cost=-5,
            )

    def test_distill_error_range(self):
        with pytest.raises(ValidationError):
            HierEdge(
                a="A",
                b="B",
                lower=phys("A", "B", 1, 1000),
                yield_fn=YieldFunction.identity(1),
                distill_error=Fraction(3, 2),
            )

    def test_negative_lower_target_rejected(self):
        with pytest.raises(ValidationError):
            HierEdge(
                a="A",
                b="B",
                lower=phys("A", "B", 1, 1000),
                yield_fn=YieldFunction.identity(1),
                lower_target=-1,
            )


class TestNetworkStructure:
    def test_level_zero_from_graph(self):
        net = phys("A", "B", 2, 500)
        assert net.level == 0
        assert net.clients == ("A", "B")
        assert net.edges == ()
        assert net.base is not None

    def test_level_zero_requires_base(self):
        with pytest.raises(ValidationError):
            HierarchicalNetwork(level=0, nodes=("A", "B"), edges=(), clients=("A", "B"))

    def test_wrapped_level_rejects_base(self):
        g = NetworkGraph.from_edge_list([("A", "B", 1, 0)], "A", "B")
        edge = HierEdge(
            a="A", b="B", lower=phys("A", "B", 1, 1000), yield_fn=YieldFunction.identity(1)
        )
        with pytest.raises(ValidationError):
            HierarchicalNetwork(
                level=1, nodes=("A", "B"), edges=(edge,), clients=("A", "B"), base=g
            )

    def test_build_requires_edges(self):
        with pytest.raises(ValidationError):
            HierarchicalNetwork.build([], "A", "B")

    def test_level_nesting_enforced(self):
        lvl1 = HierarchicalNetwork.build(
            [
                HierEdge(
                    a="A",
                    b="B",
                    lower=phys("A", "B", 1, 1000),
                    yield_fn=YieldFunction.identity(1),
                )
            ],
            "A",
            "B",
        )
        deep = HierEdge(a="A", b="B", lower=lvl1, yield_fn=YieldFunction.identity(1))
        shallow = HierEdge(
            a="B", b="C", lower=phys("B", "C", 1, 1000), yield_fn=YieldFunction.identity(1)
        )
        with pytest.raises(ValidationError):
            HierarchicalNetwork(
                level=2,
                nodes=("A", "B", "C"),
                edges=(deep, shallow),
                clients=("A", "C"),
            )

    def test_edge_by_key(self):
        net = chain42()
        assert net.edge_by_key(("A", "B")).unit_cost == 1000
        with pytest.raises(KeyError):
            net.edge_by_key(("A", "C"))


class TestEffectiveCapacity:
    def test_identity(self):
        e = HierEdge(
            a="A", b="B", lower=phys("A", "B", 7, 1000), yield_fn=YieldFunction.identity(7)
        )
        assert e.yield_fn.cap() == 7

    def test_linear_floor(self):
        e = HierEdge(
            a="A",
            b="B",
            lower=phys("A", "B", 9, 1000),
            yield_fn=YieldFunction.linear_floor(Fraction(1, 3), 10),
        )
        assert e.yield_fn.cap() == 3

    def test_table(self):
        e = HierEdge(
            a="A",
            b="B",
            lower=phys("A", "B", 9, 1000),
            yield_fn=YieldFunction.table([(1, 0), (5, 2), (9, 4)]),
        )
        assert e.yield_fn.cap() == 4


class TestEffectiveMinCut:
    def test_single_edge(self):
        net = HierarchicalNetwork.build(
            [
                HierEdge(
                    a="A",
                    b="B",
                    lower=phys("A", "B", 3, 1000),
                    yield_fn=YieldFunction.identity(3),
                )
            ],
            "A",
            "B",
        )
        assert effective_min_cut(net) == 3

    def test_chain_takes_bottleneck(self):
        assert effective_min_cut(chain42()) == 2

    def test_unit_diamond(self):
        assert effective_min_cut(unit_diamond()) == 2


class TestAggregateLevel:
    def test_chain_routes_through_both_edges(self):
        res = aggregate_level(chain42(), 2)
        assert res.cost == 4000
        assert dict(res.solution.undirected_flow) == {("A", "B"): 2, ("B", "C"): 2}
        assert res.budget.generation == 0
        assert res.budget.operation == 0

    def test_zero_target(self):
        res = aggregate_level(chain42(), 0)
        assert res.cost == 0
        assert res.solution.net_flow == 0
        assert res.budget.total == 0

    def test_beyond_capacity_infeasible(self):
        with pytest.raises(InfeasibleTarget):
            aggregate_level(chain42(), 3)

    def test_diamond_cost_and_budget(self):
        res = aggregate_level(unit_diamond(), 2)
        assert res.cost == 4000
        assert res.budget.generation == Fraction(1, 25)

    def test_noisy_operation_error_is_exact(self):
        res = aggregate_level(chain42(), 1, swap_depolarize_p=Fraction(1, 2))
        assert res.budget.operation == Fraction(3, 8)
        sched = build_swap_schedule(decompose_flow(res.solution))
        noise = NoiseModel(swap_depolarize_p=Fraction(1, 2))
        assert res.budget.operation == exact_operation_error(sched, noise)

    def test_noisy_error_beyond_exact_regime(self):
        big = HierarchicalNetwork.build(
            [
                HierEdge(
                    a="A",
                    b="B",
                    lower=phys("A", "B", 7, 1000),
                    yield_fn=YieldFunction.identity(7),
                )
            ],
            "A",
            "B",
        )
        with pytest.raises(TooLarge, match="operation_error"):
            aggregate_level(big, 7, swap_depolarize_p=Fraction(1, 2))
        res = aggregate_level(
            big, 7, swap_depolarize_p=Fraction(1, 2), operation_error=Fraction(1, 8)
        )
        assert res.budget.operation == Fraction(1, 8)
        # Noiseless swapping needs no schedule, so size does not matter.
        assert aggregate_level(big, 7).budget.operation == 0


class TestSubstitutionMap:
    def test_flat_edges_carry_theta_and_pound(self):
        one = HierarchicalNetwork.build(
            [
                HierEdge(
                    a="A",
                    b="B",
                    lower=phys("A", "B", 2, 1000),
                    yield_fn=YieldFunction.linear_floor(Fraction(1, 2), 6),
                )
            ],
            "A",
            "B",
        )
        # Default price: ceil(max_uses * lower-per-use-cost / capacity)
        # = ceil(6 * 2000 / 3) = 4000.
        assert flatten(one).edges == (
            Edge("A", "B", capacity=3, unit_cost=4000, gen_error=0, max_uses=6),
        )

    def test_explicit_price_overrides_default(self):
        one = HierarchicalNetwork.build(
            [
                HierEdge(
                    a="A",
                    b="B",
                    lower=phys("A", "B", 2, 1000),
                    yield_fn=YieldFunction.linear_floor(Fraction(1, 2), 6),
                    unit_cost=750,
                )
            ],
            "A",
            "B",
        )
        assert flatten(one).edges[0].unit_cost == 750

    def test_aggregate_matches_flat_solve_on_random_networks(self):
        for seed in range(25):
            rnd = random.Random(seed)
            g = random_network(rnd, max_nodes=7, max_cap=4, max_cost_units=4)
            # Zero-capacity edges carry no flow and cannot be wrapped.
            kept = [e for e in g.edges if e.capacity > 0]
            if not kept:
                continue
            ref_graph = NetworkGraph.from_edge_list(
                kept, g.source, g.sink, extra_nodes=g.nodes
            )
            edges = [
                HierEdge(
                    a=e.a,
                    b=e.b,
                    lower=HierarchicalNetwork.from_graph(
                        NetworkGraph.from_edge_list(
                            [(e.a, e.b, e.capacity, e.unit_cost)], e.a, e.b
                        )
                    ),
                    yield_fn=YieldFunction.identity(e.capacity),
                    unit_cost=e.unit_cost,
                )
                for e in kept
            ]
            net = HierarchicalNetwork.build(
                edges, g.source, g.sink, extra_nodes=g.nodes
            )
            flat = flatten(net)
            for key, edge in flat.edge_map.items():
                orig = ref_graph.edge_map[key]
                assert edge.capacity == orig.capacity
                assert edge.unit_cost == orig.unit_cost
            for target in range(min_cut(ref_graph) + 1):
                ours = aggregate_level(net, target).solution
                ref = min_cost_flow(ref_graph, target)
                assert ours.total_cost == ref.total_cost
                assert dict(ours.undirected_flow) == dict(ref.undirected_flow)


class TestLevelIndependence:
    def test_budget_ignores_lower_network_size(self):
        delta = Fraction(1, 100)

        def lower_small(a, b):
            return phys(a, b, 1, 1000)

        def lower_large(a, b):
            # Ten parallel relays, each ten times the capacity.
            mid = [f"{a}{b}m{i}" for i in range(10)]
            triples = []
            for m in mid:
                triples.append((a, m, 10, 1000))
                triples.append((m, b, 10, 1000))
            g = NetworkGraph.from_edge_list(triples, a, b)
            return HierarchicalNetwork.from_graph(g)

        def diamond(make_lower):
            edges = []
            for a, b in (("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")):
                edges.append(
                    HierEdge(
                        a=a,
                        b=b,
                        lower=make_lower(a, b),
                        yield_fn=YieldFunction.identity(1),
                        unit_cost=1000,
                        distill_error=delta,
                        lower_target=1,
                    )
                )
            return HierarchicalNetwork.build(edges, "s", "t")

        small = aggregate_level(diamond(lower_small), 2)
        large = aggregate_level(diamond(lower_large), 2)
        assert small.budget.generation == large.budget.generation == Fraction(1, 25)
        assert small.cost == large.cost == 4000


class TestLinearReduction:
    def test_nested_relays_match_flat_chain(self):
        caps = [3, 5, 2]
        nodes = ["n0", "n1", "n2", "n3"]
        flat_chain = NetworkGraph.from_edge_list(
            [(nodes[i], nodes[i + 1], caps[i], 1000) for i in range(3)],
            nodes[0],
            nodes[-1],
        )
        level1 = HierarchicalNetwork.build(
            [
                HierEdge(
                    a=nodes[i],
                    b=nodes[i + 1],
                    lower=phys(nodes[i], nodes[i + 1], caps[i], 1000),
                    yield_fn=YieldFunction.identity(caps[i]),
                )
                for i in range(3)
            ],
            nodes[0],
            nodes[-1],
        )
        theta1 = effective_min_cut(level1)
        assert theta1 == min_cut(flat_chain) == 2
        level2 = HierarchicalNetwork.build(
            [
                HierEdge(
                    a=nodes[0],
                    b=nodes[-1],
                    lower=level1,
                    yield_fn=YieldFunction.identity(theta1),
                )
            ],
            nodes[0],
            nodes[-1],
        )
        assert effective_min_cut(level2) == min_cut(flat_chain)


class TestLowerUsePlans:
    def chain35(self):
        return HierarchicalNetwork.build(
            [
                HierEdge(
                    a="A",
                    b="B",
                    lower=phys("A", "B", 1, 1000),
                    yield_fn=YieldFunction.linear_floor(Fraction(1, 2), 2),
                ),
                HierEdge(
                    a="B",
                    b="C",
                    lower=phys("B", "C", 2, 250),
                    yield_fn=YieldFunction.linear_floor(Fraction(1, 3), 3),
                ),
            ],
            "A",
            "C",
        )

    def test_single_edge_product(self):
        one = HierarchicalNetwork.build(
            [
                HierEdge(
                    a="A",
                    b="B",
                    lower=phys("A", "B", 2, 1000),
                    yield_fn=YieldFunction.linear_floor(Fraction(1, 2), 6),
                )
            ],
            "A",
            "B",
        )
        sol = aggregate_level(one, 3).solution
        assert total_lower_cost(one, sol) == 12000
        (plan,) = plan_lower_uses(one, sol)
        assert plan.pairs == 3
        assert plan.uses == 6
        assert plan.per_use_cost == 2000

    def test_chain_mixed_uses(self):
        net = self.chain35()
        sol = aggregate_level(net, 1).solution
        assert total_lower_cost(net, sol) == 3500
        ab, bc = plan_lower_uses(net, sol)
        assert (ab.edge, ab.pairs, ab.uses, ab.per_use_target, ab.per_use_cost) == (
            ("A", "B"),
            1,
            2,
            1,
            1000,
        )
        assert (bc.edge, bc.pairs, bc.uses, bc.per_use_target, bc.per_use_cost) == (
            ("B", "C"),
            1,
            3,
            2,
            500,
        )
        assert ab.total_uses == 2 and bc.total_uses == 3
        assert ab.sub == () and bc.sub == ()

    def test_empty_solution_costs_nothing(self):
        net = self.chain35()
        sol = aggregate_level(net, 0).solution
        assert total_lower_cost(net, sol) == 0
        assert plan_lower_uses(net, sol) == ()

    def test_three_levels_multiply_uses(self):
        level1 = HierarchicalNetwork.build(
            [
                HierEdge(
                    a="A",
                    b="B",
                    lower=phys("A", "B", 2, 1000),
                    yield_fn=YieldFunction.identity(2),
                )
            ],
            "A",
            "B",
        )
        level2 = HierarchicalNetwork.build(
            [
                HierEdge(
                    a="A",
                    b="B",
                    lower=level1,
                    yield_fn=YieldFunction.linear_floor(Fraction(1, 2), 4),
                )
            ],
            "A",
            "B",
        )
        sol = aggregate_level(level2, 1).solution
        (root,) = plan_lower_uses(level2, sol)
        assert (root.pairs, root.uses, root.total_uses) == (1, 2, 2)
        assert root.per_use_target == 2
        assert root.per_use_cost == 4000
        (sub,) = root.sub
        assert (sub.pairs, sub.uses, sub.total_uses) == (2, 2, 4)
        assert sub.sub == ()

    def test_threshold_gates_lower_error(self):
        def net(threshold):
            return HierarchicalNetwork.build(
                [
                    HierEdge(
                        a="A",
                        b="B",
                        lower=phys("A", "B", 1, 1000, Fraction(1, 10)),
                        yield_fn=YieldFunction.identity(1),
                        error_threshold=threshold,
                    )
                ],
                "A",
                "B",
            )

        tight = net(Fraction(1, 20))
        sol = aggregate_level(tight, 1).solution
        with pytest.raises(ThresholdViolation):
            plan_lower_uses(tight, sol)
        loose = net(Fraction(1, 5))
        (plan,) = plan_lower_uses(loose, aggregate_level(loose, 1).solution)
        assert plan.lower_error == Fraction(1, 10)


HIER_DOC = {
    "nodes": ["X", "Y"],
    "source": "X",
    "sink": "Y",
    "edges": [
        {
            "a": "X",
            "b": "Y",
            "lower": {
                "network": {
                    "nodes": ["X", "Y"],
                    "edges": [{"a": "X", "b": "Y", "capacity": 3, "cost": 0.5}],
                    "source": "X",
                    "sink": "Y",
                },
                "yield": {"kind": "identity"},
                "max_uses": 3,
                "delta_target": 0.01,
                "cost": 2.0,
                "target": 2,
                "threshold": 0.5,
            },
        }
    ],
}


class TestParsing:
    def test_flat_document_becomes_level_zero(self):
        doc = {
            "nodes": ["s", "t"],
            "edges": [{"a": "s", "b": "t", "capacity": 2, "cost": 1.0}],
            "source": "s",
            "sink": "t",
        }
        net = parse_hierarchical(doc)
        assert net.level == 0
        assert net.base.edge_map[("s", "t")].capacity == 2

    def test_wrapped_document_fields(self):
        net = parse_hierarchical(HIER_DOC)
        assert net.level == 1
        edge = net.edges[0]
        assert edge.unit_cost == 2000
        assert edge.lower_target == 2
        assert edge.error_threshold == Fraction(1, 2)
        assert edge.distill_error == Fraction(1, 100)
        assert edge.yield_fn.kind == "identity"
        assert edge.lower.level == 0

    def test_mixed_edges_rejected(self):
        doc = {
            "nodes": ["s", "r", "t"],
            "source": "s",
            "sink": "t",
            "edges": [
                {"a": "s", "b": "r", "capacity": 1, "cost": 1.0},
                {
                    "a": "r",
                    "b": "t",
                    "lower": HIER_DOC["edges"][0]["lower"],
                },
            ],
        }
        with pytest.raises(ValidationError, match="uniformly"):
            parse_hierarchical(doc)

    def test_unknown_lower_field_rejected(self):
        doc = {
            "nodes": ["X", "Y"],
            "source": "X",
            "sink": "Y",
            "edges": [
                {
                    "a": "X",
                    "b": "Y",
                    "lower": dict(HIER_DOC["edges"][0]["lower"], wat=1),
                }
            ],
        }
        with pytest.raises(ParseError):
            parse_hierarchical(doc)

    def test_missing_lower_field_rejected(self):
        lower = dict(HIER_DOC["edges"][0]["lower"])
        del lower["delta_target"]
        doc = {
            "nodes": ["X", "Y"],
            "source": "X",
            "sink": "Y",
            "edges": [{"a": "X", "b": "Y", "lower": lower}],
        }
        with pytest.raises(ParseError):
            parse_hierarchical(doc)

    def test_fractional_target_rejected(self):
        lower = dict(HIER_DOC["edges"][0]["lower"], target=1.5)
        doc = {
            "nodes": ["X", "Y"],
            "source": "X",
            "sink": "Y",
            "edges": [{"a": "X", "b": "Y", "lower": lower}],
        }
        with pytest.raises(ParseError):
            parse_hierarchical(doc)

    def test_boolean_max_uses_rejected(self):
        lower = dict(HIER_DOC["edges"][0]["lower"], max_uses=True)
        doc = {
            "nodes": ["X", "Y"],
            "source": "X",
            "sink": "Y",
            "edges": [{"a": "X", "b": "Y", "lower": lower}],
        }
        with pytest.raises(ParseError, match="max_uses"):
            parse_hierarchical(doc)

    def test_three_level_document(self):
        level1 = {
            "nodes": ["X", "Y"],
            "source": "X",
            "sink": "Y",
            "edges": [
                {
                    "a": "X",
                    "b": "Y",
                    "lower": {
                        "network": {
                            "nodes": ["X", "Y"],
                            "edges": [{"a": "X", "b": "Y", "capacity": 2, "cost": 1.0}],
                            "source": "X",
                            "sink": "Y",
                        },
                        "yield": {"kind": "identity"},
                        "max_uses": 2,
                        "delta_target": 0,
                    },
                }
            ],
        }
        level2 = {
            "nodes": ["X", "Y"],
            "source": "X",
            "sink": "Y",
            "edges": [
                {
                    "a": "X",
                    "b": "Y",
                    "lower": {
                        "network": level1,
                        "yield": {"kind": "linear-floor", "rate": "1/2"},
                        "max_uses": 4,
                        "delta_target": 0,
                    },
                }
            ],
        }
        net = parse_hierarchical(level2)
        assert net.level == 2
        assert net.edges[0].lower.level == 1
        assert effective_min_cut(net) == 2

    def test_load_from_text_and_file(self, tmp_path):
        import json

        text = json.dumps(HIER_DOC)
        from_text = load_hierarchical(text)
        path = tmp_path / "net.json"
        path.write_text(text)
        from_file = load_hierarchical(path)
        assert from_text.level == from_file.level == 1
        assert from_text.edges[0].unit_cost == from_file.edges[0].unit_cost

    def test_load_non_utf8_file_rejected(self, tmp_path):
        import json

        path = tmp_path / "net.json"
        path.write_text(json.dumps(HIER_DOC), encoding="utf-16")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_hierarchical(path)

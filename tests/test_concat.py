"""Hierarchical composition: flattening, aggregation, and lower-use plans."""

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ebitflow import (
    EXACT_QUBIT_LIMIT,
    Edge,
    HierEdge,
    HierarchicalNetwork,
    InfeasibleTarget,
    NetworkGraph,
    ParseError,
    ThresholdViolation,
    ValidationError,
    YieldFunction,
    aggregate_level,
    build_swap_schedule,
    decompose_flow,
    effective_min_cut,
    exact_operation_error,
    flatten,
    generation_error_budget,
    load_hierarchical,
    min_cost_flow,
    min_cut,
    parse_hierarchical,
    plan_lower_uses,
    total_lower_cost,
    NoiseModel,
)
from ebitflow import cli, concat, netgraph, stabsim
from oracles import (
    convolved_pass_probability,
    random_network,
    reference_parse_hierarchical,
    reference_resolve,
)


def phys(a, b, cap, cost_milli, delta=0):
    """Level-0 wrapper around a single physical edge with clients (a, b)."""
    g = NetworkGraph.from_edge_list([(a, b, cap, cost_milli, delta)], a, b)
    return HierarchicalNetwork.from_graph(g)


def wrap_edges(g, deltas=None):
    """The level-1 hierarchy of ``g``'s edges of positive capacity (the
    others carry no flow and cannot be wrapped), each wrapping a one-edge
    network with an identity yield at its capacity and its unit cost as
    price, and distillation target ``deltas[key]`` (default 0)."""
    edges = [
        HierEdge(
            a=e.a,
            b=e.b,
            lower=HierarchicalNetwork.from_graph(
                NetworkGraph.from_edge_list([(e.a, e.b, e.capacity, e.unit_cost)], e.a, e.b)
            ),
            yield_fn=YieldFunction.identity(e.capacity),
            unit_cost=e.unit_cost,
            distill_error=(deltas or {}).get(e.key, 0),
        )
        for e in g.edges
        if e.capacity > 0
    ]
    return HierarchicalNetwork.build(edges, g.source, g.sink, extra_nodes=g.nodes)


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

    @pytest.mark.parametrize("threshold", [-1, 2])
    def test_error_threshold_range(self, threshold):
        with pytest.raises(ValidationError, match=r"error_threshold outside \[0, 1\]"):
            HierEdge(
                a="A",
                b="B",
                lower=phys("A", "B", 1, 1000),
                yield_fn=YieldFunction.identity(1),
                error_threshold=threshold,
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

    @pytest.mark.parametrize("field", ["unit_cost", "lower_target"])
    def test_boolean_cost_or_target_rejected(self, field):
        with pytest.raises(ValidationError, match=field):
            HierEdge(
                a="A",
                b="B",
                lower=phys("A", "B", 1, 1000),
                yield_fn=YieldFunction.identity(1),
                **{field: True},
            )


    def test_error_threshold_converted(self):
        edge = HierEdge(
            a="A",
            b="B",
            lower=phys("A", "B", 1, 1000),
            yield_fn=YieldFunction.identity(1),
            error_threshold=0.5,
        )
        assert edge.error_threshold == Fraction(1, 2)
        assert type(edge.error_threshold) is Fraction

    def test_error_threshold_text_rejected(self):
        with pytest.raises(ParseError, match="error_threshold"):
            HierEdge(
                a="A",
                b="B",
                lower=phys("A", "B", 1, 1000),
                yield_fn=YieldFunction.identity(1),
                error_threshold="abc",
            )

    @pytest.mark.parametrize("a, b", [("A", 1), (1, "A"), (None, "B"), (1, 1)])
    def test_non_string_endpoints_rejected(self, a, b):
        with pytest.raises(ValidationError, match="edge endpoints must be strings"):
            HierEdge(
                a=a, b=b, lower=phys("A", "B", 1, 1000), yield_fn=YieldFunction.identity(1)
            )

    def test_non_string_node_label_rejected(self):
        edge = HierEdge(
            a="A", b="B", lower=phys("A", "B", 1, 1000), yield_fn=YieldFunction.identity(1)
        )
        with pytest.raises(ValidationError, match="node labels must be non-empty strings: 1"):
            HierarchicalNetwork(level=1, nodes=("A", 1, "B"), edges=(edge,), clients=("A", "B"))


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

    @pytest.mark.parametrize("p", [2, Fraction(-1, 2)], ids=str)
    def test_swap_noise_outside_the_unit_interval_is_refused(self, p):
        with pytest.raises(ValidationError, match=r"^swap_depolarize_p outside \[0, 1\]$"):
            aggregate_level(chain42(), 1, swap_depolarize_p=p)

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
        res = aggregate_level(big, 7, swap_depolarize_p=Fraction(1, 2))
        sched = build_swap_schedule(decompose_flow(res.solution))
        assert sched.n_qubits == 14 > EXACT_QUBIT_LIMIT
        # Seven one-hop copies: no swap, so no operation error at any size.
        assert res.budget.operation == 0
        three_hop = HierarchicalNetwork.build(
            [
                HierEdge(
                    a=a,
                    b=b,
                    lower=phys(a, b, 3, 1000),
                    yield_fn=YieldFunction.identity(3),
                )
                for a, b in (("A", "B"), ("B", "C"), ("C", "D"))
            ],
            "A",
            "D",
        )
        res = aggregate_level(three_hop, 3, swap_depolarize_p=Fraction(1, 2))
        sched = build_swap_schedule(decompose_flow(res.solution))
        assert sched.n_qubits == 18
        # Each copy passes its two half-depolarized swaps with 7/16.
        assert res.budget.operation == 1 - Fraction(7, 16) ** 3
        assert aggregate_level(three_hop, 3).budget.operation == 0

    @given(
        st.randoms(use_true_random=False),
        st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1)]),
        st.data(),
    )
    def test_operation_error_matches_convolution_of_its_schedule(self, rnd, p, data):
        g = random_network(rnd, max_nodes=7, max_cap=4, max_cost_units=2)
        assume(any(e.capacity for e in g.edges))
        deltas = {
            e.key: data.draw(st.sampled_from([Fraction(0), Fraction(1, 20), Fraction(3, 8)]))
            for e in g.edges
        }
        net = wrap_edges(g, deltas)
        target = data.draw(st.integers(0, effective_min_cut(net)))
        res = aggregate_level(net, target, swap_depolarize_p=p)
        sched = build_swap_schedule(decompose_flow(res.solution))
        # The distillation targets become pair noise, which the operation
        # error leaves out.
        noise = NoiseModel.from_graph(flatten(net), swap_depolarize_p=p)
        assert res.budget.operation == 1 - convolved_pass_probability(
            sched, noise, include_pair_error=False
        )

    def test_noisy_level_builds_no_schedule(self, count_calls):
        builds = count_calls(concat, "build_swap_schedule")
        walks = count_calls(stabsim, "_plan")
        chain = NetworkGraph.from_edge_list(
            [("A", "B", 9, 1000), ("B", "C", 9, 1000), ("C", "D", 9, 1000)], "A", "D"
        )
        # Nine copies of one three-hop bundle, each passing with 7/16.
        res = aggregate_level(wrap_edges(chain), 9, swap_depolarize_p=Fraction(1, 2))
        assert res.budget.operation == 1 - Fraction(7, 16) ** 9
        assert builds == [0]
        assert walks == [0]


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
            net = wrap_edges(g)
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

    def test_level_zero_has_no_lower_uses(self):
        # Flat documents parse to level 0, whose edges are physical.
        net = phys("A", "B", 2, 1000)
        sol = aggregate_level(net, 2).solution
        assert sol.net_flow == 2
        assert plan_lower_uses(net, sol) == ()
        assert total_lower_cost(net, sol) == 0

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

    def test_noisy_depth_two_request_reads_rows_by_key(self, tmp_path):
        doc = benchmark_like_hierarchy(random.Random("rows"), 2, "diamond", 3)
        path = tmp_path / "hier.json"
        path.write_text(json.dumps(doc))
        target = effective_min_cut(load_hierarchical(path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(
                ["concat", "--input", str(path), "--target", str(target), "--noise-p", "1/50"]
            )
        assert code == 0
        result = json.loads(out.getvalue())["result"]
        assert result["level"] == 2
        assert result["lower_plan"] and all(node["sub"] for node in result["lower_plan"])

    def test_wide_level_reads_rows_by_key(self):
        # 100 parallel two-hop routes: 200 wrapped edges, all active at the cut.
        edges = [
            HierEdge(
                a=a,
                b=b,
                lower=phys(a, b, 2, 1000 + i),
                yield_fn=YieldFunction.linear_floor(Fraction(1, 2), 4),
            )
            for i in range(100)
            for a, b in (("S", f"m{i:03}"), (f"m{i:03}", "T"))
        ]
        net = HierarchicalNetwork.build(edges, "S", "T")
        sol = aggregate_level(net, effective_min_cut(net)).solution
        plans = plan_lower_uses(net, sol)
        cost = total_lower_cost(net, sol)
        assert len(plans) == len(sol.active_edges) == 200
        assert cost == sum(p.uses * p.per_use_cost for p in plans)


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

    @pytest.mark.parametrize("threshold", [-1, 2])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        lower = {**HIER_DOC["edges"][0]["lower"], "threshold": threshold}
        doc = {**HIER_DOC, "edges": [{"a": "X", "b": "Y", "lower": lower}]}
        want = (ValidationError, "edge ('X', 'Y'): error_threshold outside [0, 1]")
        assert typed_outcome(parse_hierarchical, doc) == want
        assert typed_outcome(reference_parse_hierarchical, doc) == want

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

    def test_decoded_document_nested_past_the_recursion_limit(self):
        # A decoded object skips the JSON decoder's nesting limit, so the
        # parse itself reaches Python's recursion limit.
        doc = HIER_DOC["edges"][0]["lower"]["network"]
        for _ in range(2000):
            lower = {**HIER_DOC["edges"][0]["lower"], "network": doc}
            doc = {**HIER_DOC, "edges": [{"a": "X", "b": "Y", "lower": lower}]}
        with pytest.raises(ParseError, match="document nested too deep"):
            parse_hierarchical(doc)

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


# Interior labels of level-0 and level-1 lower networks, and the labels of
# the top level. They interleave, so two copies of one lower can place their
# clients differently among its interior labels; the top labels come in
# three pairs, so many copies also place them alike.
INTERIOR = (("e", "m", "t"), ("d", "n", "s"))
TOP_LABELS = ("a", "b", "g", "h", "x", "y")


@st.composite
def wraps(draw):
    """The fields of one wrapped edge, and whether its lower runs b to a."""
    if draw(st.booleans()):
        yield_fn = YieldFunction.identity(draw(st.integers(1, 3)))
    else:
        yield_fn = YieldFunction.linear_floor(Fraction(1, 2), draw(st.integers(1, 4)))
    return {
        "yield_fn": yield_fn,
        "unit_cost": draw(st.sampled_from([None, None, 0, 1500])),
        "lower_target": draw(st.sampled_from([None, None, None, None, 0, 1])),
        "distill_error": draw(st.sampled_from([Fraction(0), Fraction(1, 100)])),
        "flip": draw(st.booleans()),
    }


@st.composite
def templates(draw, level):
    """A lower-network shape on slots: 0 and 1 are the clients, 2 and up
    the interior. Level 0 has physical edges with many equal-cost paths;
    level 1 wraps copies of one level-0 shape."""
    size = 2 + draw(st.integers(0, 3))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    chosen = [p for p in pairs if draw(st.booleans())] or [(0, 1)]
    if level == 0:
        edges = [
            (
                i,
                j,
                draw(st.integers(0, 3)),
                draw(st.sampled_from([0, 0, 1000, 2000])),
                draw(st.sampled_from([Fraction(0), Fraction(1, 100), Fraction(1, 50)])),
            )
            for i, j in chosen
        ]
        return {"level": 0, "size": size, "edges": edges}
    lower = draw(templates(0))
    edges = [(i, j, draw(wraps())) for i, j in chosen]
    return {"level": 1, "size": size, "edges": edges, "lower": lower}


def wrapped_edge(a, b, wrap, template):
    x, y = (b, a) if wrap["flip"] else (a, b)
    fields = {k: v for k, v in wrap.items() if k != "flip"}
    return HierEdge(a=a, b=b, lower=instantiate(template, x, y), **fields)


def instantiate(template, x, y):
    """A copy of ``template`` with clients ``x`` (source) and ``y`` (sink)."""
    labels = [x, y, *INTERIOR[template["level"]][: template["size"] - 2]]
    if template["level"] == 0:
        g = NetworkGraph.from_edge_list(
            [(labels[i], labels[j], *rest) for i, j, *rest in template["edges"]],
            x,
            y,
            extra_nodes=labels,
        )
        return HierarchicalNetwork.from_graph(g)
    return HierarchicalNetwork.build(
        [
            wrapped_edge(labels[i], labels[j], wrap, template["lower"])
            for i, j, wrap in template["edges"]
        ],
        x,
        y,
        extra_nodes=labels,
    )


@st.composite
def variants(draw, template):
    """``template`` with one field of one edge redrawn, so that copies can
    differ in a single capacity, cost, error or use bound."""
    edges = list(template["edges"])
    k = draw(st.integers(0, len(edges) - 1))
    i, j, *fields = edges[k]
    if template["level"] == 0:
        which = draw(st.integers(0, 2))
        fields[which] = draw(
            (
                st.integers(0, 3),
                st.sampled_from([0, 1000, 2000]),
                st.sampled_from([Fraction(0), Fraction(1, 100), Fraction(1, 50)]),
            )[which]
        )
    else:
        field = draw(st.sampled_from(["yield_fn", "unit_cost", "distill_error"]))
        fields = [{**fields[0], field: draw(wraps())[field]}]
    edges[k] = (i, j, *fields)
    return {**template, "edges": edges}


@st.composite
def shared_lower_hierarchies(draw):
    """A hierarchy of depth 2 or 3 whose top edges wrap copies of one lower
    network or of a few one-field variants of it, under client labels that
    sort in different places."""
    template = draw(templates(draw(st.integers(0, 1))))
    shapes = [template, *draw(st.lists(variants(template), min_size=1, max_size=2))]
    nodes = draw(st.lists(st.sampled_from(TOP_LABELS), min_size=2, max_size=6, unique=True))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    edges = [
        wrapped_edge(a, b, draw(wraps()), draw(st.sampled_from(shapes)))
        for a, b in chosen
    ]
    return HierarchicalNetwork.build(edges, nodes[0], nodes[1], extra_nodes=nodes)


def networks_of(net):
    out, stack = [], [net]
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(e.lower for e in n.edges)
    return out


def direct_lower_solve(lower_flat):
    return min_cost_flow(lower_flat, min_cut(lower_flat))


class TestSharedLowerSolves:
    """Relabelled copies of one lower network share its solve, and every
    edge still gets exactly the resolution of a solve of its own."""

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(shared_lower_hierarchies())
    def test_same_resolution_as_one_solve_per_edge(self, net):
        try:
            expected = reference_resolve(net)
        except InfeasibleTarget as exc:
            with pytest.raises(InfeasibleTarget) as got:
                concat._resolve(net)
            assert str(got.value) == str(exc)
            return
        stack = [(net, concat._resolve(net), expected)]
        seen = 0
        while stack:
            n, got, want = stack.pop()
            seen += 1
            assert got.graph == want.graph
            assert list(got.rows) == list(want.rows) == [e.key for e in n.edges]
            for e in n.edges:
                edge, sol, generation, lower = got.rows[e.key]
                want_edge, ref, want_generation, want_lower = want.rows[e.key]
                assert edge is want_edge is e
                assert generation == want_generation
                assert sol.graph == ref.graph
                assert list(sol.arc_flow.items()) == list(ref.arc_flow.items())
                assert sol.net_flow == ref.net_flow
                assert sol.total_cost == ref.total_cost
                stack.append((e.lower, lower, want_lower))
        assert seen == len(networks_of(net))

    def test_shared_lower_objects_resolve_once(self, count_calls):
        # Per level, U (clients p, q) and V (clients q, r) both wrap the U
        # and V below, so each lower object has two parents and the root
        # reaches 2**(depth + 1) - 1 paths but 2 * depth + 1 networks.
        depth = 16
        u, v = phys("p", "q", 1, 1000), phys("q", "r", 1, 1000)
        for _ in range(depth):
            edges = [
                HierEdge(a="p", b="q", lower=u, yield_fn=YieldFunction.identity(1)),
                HierEdge(a="q", b="r", lower=v, yield_fn=YieldFunction.identity(1)),
            ]
            u, v = (
                HierarchicalNetwork.build(edges, "p", "q"),
                HierarchicalNetwork.build(edges, "q", "r"),
            )
        nodes = count_calls(concat, "_Resolved")
        resolved = concat._resolve(u)
        assert nodes[0] == 2 * depth + 1
        rows = resolved.rows
        assert rows["p", "q"][3].rows["q", "r"][3] is rows["q", "r"][3].rows["q", "r"][3]

    @staticmethod
    def count_solves(monkeypatch):
        calls = {"min_cost_max_flow": 0, "min_cost_flow": 0}
        for name in calls:
            real = getattr(concat, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(concat, name, counted)
        return calls

    def test_tie_break_depends_on_where_the_sink_sorts(self, monkeypatch):
        # s-a-t and s-a-b-t cost the same; the walk takes the smaller label
        # after a, so the sink's place relative to b picks the path.
        def tie_lower(sink):
            g = NetworkGraph.from_edge_list(
                [
                    ("s", "a", 1, 1000, 0),
                    ("a", sink, 1, 2000, Fraction(1, 10)),
                    ("a", "b", 1, 1000, Fraction(1, 100)),
                    ("b", sink, 1, 1000, Fraction(1, 100)),
                ],
                "s",
                sink,
            )
            return HierarchicalNetwork.from_graph(g)

        after_b = HierEdge(
            a="s", b="t", lower=tie_lower("t"), yield_fn=YieldFunction.identity(1)
        )
        before_b = HierEdge(
            a="s", b="ab", lower=tie_lower("ab"), yield_fn=YieldFunction.identity(1)
        )
        net = HierarchicalNetwork.build([after_b, before_b], "s", "t")
        calls = self.count_solves(monkeypatch)
        resolved = net._resolved
        assert calls == {"min_cost_max_flow": 2, "min_cost_flow": 0}
        for edge, via, generation in (
            (after_b, ("a", "b"), Fraction(1, 50)),
            (before_b, ("a", "ab"), Fraction(1, 10)),
        ):
            _, lower_sol, lower_generation, _ = resolved.rows[edge.key]
            lower_flat = edge.lower.base
            direct = direct_lower_solve(lower_flat)
            assert via in lower_sol.arc_flow
            assert list(lower_sol.arc_flow.items()) == list(direct.arc_flow.items())
            assert lower_generation == generation_error_budget(
                lower_flat, direct.active_edges
            ) == generation

    @staticmethod
    def relabelled_chain(n, last_target=None, last_edge=(1, 1000, 0)):
        """Top chain n0 - n1 - ... of ``n`` edges, each wrapping a copy of one
        diamond. Even edges put the interior labels between the clients,
        odd ones after both, so there are two distinct lower keys. The last
        copy takes ``last_target`` and, on one of its edges, the capacity,
        unit cost and generation error ``last_edge``."""
        edges = []
        for i in range(n):
            x, y = f"n{i}", f"n{i + 1}"
            mid = [f"{x}m0", f"{x}m1"] if i % 2 == 0 else [f"z{x}m0", f"z{x}m1"]
            g = NetworkGraph.from_edge_list(
                [
                    (x, mid[0], 2, 1000),
                    (x, mid[1], 1, 1000),
                    (mid[0], mid[1], 1, 0),
                    (mid[0], y, *(last_edge if i == n - 1 else (1, 1000, 0))),
                    (mid[1], y, 2, 1000),
                ],
                x,
                y,
            )
            edges.append(
                HierEdge(
                    a=x,
                    b=y,
                    lower=HierarchicalNetwork.from_graph(g),
                    yield_fn=YieldFunction.identity(3),
                    lower_target=last_target if i == n - 1 else None,
                )
            )
        return HierarchicalNetwork.build(edges, "n0", f"n{n}")

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_one_solve_per_distinct_lower(self, monkeypatch, n):
        net = self.relabelled_chain(n)
        calls = self.count_solves(monkeypatch)
        resolved = net._resolved
        distinct = min(n, 2)
        assert calls == {"min_cost_max_flow": distinct, "min_cost_flow": 0}
        for e in net.edges:
            _, lower_sol, _, _ = resolved.rows[e.key]
            direct = direct_lower_solve(e.lower.base)
            assert lower_sol.net_flow == 3
            assert lower_sol.graph is e.lower.base
            assert list(lower_sol.arc_flow.items()) == list(
                direct.arc_flow.items()
            )

    @pytest.mark.parametrize(
        "last_edge", [(2, 1000, 0), (1, 3000, 0), (1, 1000, Fraction(1, 10))]
    )
    def test_copies_differing_in_one_field_solve_apart(self, monkeypatch, last_edge):
        # Edges 0 and 2 order their labels alike; edge 2 differs in the
        # capacity, the cost or the error of one edge.
        net = self.relabelled_chain(3, last_edge=last_edge)
        calls = self.count_solves(monkeypatch)
        resolved = net._resolved
        assert calls == {"min_cost_max_flow": 3, "min_cost_flow": 0}
        for e in net.edges:
            _, lower_sol, lower_generation, _ = resolved.rows[e.key]
            direct = direct_lower_solve(e.lower.base)
            assert lower_sol.total_cost == direct.total_cost
            assert lower_generation == generation_error_budget(
                e.lower.base, direct.active_edges
            )
            assert list(lower_sol.arc_flow.items()) == list(
                direct.arc_flow.items()
            )

    @staticmethod
    def two_copy_document(deltas):
        """A top chain n0 - n1 - n2 whose two edges wrap one diamond,
        relabelled in an order-preserving way; every edge of copy ``i``
        states the delta ``deltas[i]``."""
        edges = []
        for i, delta in enumerate(deltas):
            x, y, m0, m1 = f"n{i}", f"n{i + 1}", f"n{i}m0", f"n{i}m1"
            lower = {
                "nodes": [x, m0, m1, y],
                "edges": [
                    {"a": a, "b": b, "capacity": cap, "cost": 1, "delta": delta}
                    for a, b, cap in ((x, m0, 2), (x, m1, 1), (m0, y, 1), (m1, y, 2))
                ],
                "source": x,
                "sink": y,
            }
            wrap = {"network": lower, "yield": {"kind": "identity"}, "max_uses": 3}
            edges.append({"a": x, "b": y, "lower": {**wrap, "delta_target": "1/1000"}})
        return {"nodes": ["n0", "n1", "n2"], "edges": edges, "source": "n0", "sink": "n2"}

    @pytest.mark.parametrize(
        "deltas, solves",
        [
            (("0.01", "1/100"), 1),
            ((0.01, "1/100"), 1),
            (("1/100", "1/50"), 2),
            (("1/100", 0.010000000000000002), 2),
        ],
    )
    def test_lower_key_compares_generation_errors_exactly(self, monkeypatch, deltas, solves):
        net = load_hierarchical(json.dumps(self.two_copy_document(deltas)))
        calls = self.count_solves(monkeypatch)
        resolved = net._resolved
        assert calls == {"min_cost_max_flow": solves, "min_cost_flow": 0}
        for e, delta in zip(net.edges, deltas):
            _, lower_sol, lower_generation, _ = resolved.rows[e.key]
            direct = direct_lower_solve(e.lower.base)
            assert {x.gen_error for x in e.lower.base.edges} == {Fraction(str(delta))}
            assert lower_generation == generation_error_budget(
                e.lower.base, direct.active_edges
            )
            assert list(lower_sol.arc_flow.items()) == list(
                direct.arc_flow.items()
            )

    def test_explicit_target_solves_at_that_target(self, monkeypatch):
        # The last copy keys apart by its target, and its solve stops there.
        net = self.relabelled_chain(3, last_target=3)
        calls = self.count_solves(monkeypatch)
        resolved = net._resolved
        assert calls == {"min_cost_max_flow": 2, "min_cost_flow": 1}
        for e in net.edges:
            _, lower_sol, _, _ = resolved.rows[e.key]
            direct = direct_lower_solve(e.lower.base)
            assert list(lower_sol.arc_flow.items()) == list(
                direct.arc_flow.items()
            )

    def test_explicit_target_above_lower_cut_still_infeasible(self):
        net = self.relabelled_chain(5, last_target=4)
        with pytest.raises(InfeasibleTarget, match="target 4 exceeds"):
            flatten(net)


SHAPES = {
    "diamond": (("u", "v"), (("x", "u"), ("u", "y"), ("x", "v"), ("v", "y"))),
    "chain2": (("m",), (("x", "m"), ("m", "y"))),
}


def base_grid(rng, k):
    """A k x k grid between clients "@x" and "@y" with capacities and
    milli-unit decimal costs, as the benchmark's hierarchies use."""
    cell = [[f"b{i}_{j}" for j in range(k)] for i in range(k)]
    edges = []
    for i in range(k):
        edges.append({"a": "@x", "b": cell[i][0], "capacity": 2, "cost": rng.randint(1, 2000) / 1000})
        edges.append({"a": cell[i][-1], "b": "@y", "capacity": 2, "cost": rng.randint(1, 2000) / 1000})
        for j in range(k):
            for ni, nj in ((i, j + 1), (i + 1, j)):
                if ni < k and nj < k:
                    edges.append(
                        {
                            "a": cell[i][j],
                            "b": cell[ni][nj],
                            "capacity": rng.randint(1, 6),
                            "cost": rng.randint(1, 2000) / 1000,
                        }
                    )
    nodes = ["@x", "@y"] + [n for row in cell for n in row]
    return {"nodes": nodes, "edges": edges, "source": "@x", "sink": "@y"}


def benchmark_like_hierarchy(rng, depth, shape, k):
    """Every wrapped level has ``shape``; every bottom network is one base
    grid relabelled at its clients."""
    base_text = json.dumps(base_grid(rng, k))
    params = {
        level: {
            "yield": {"kind": "linear-floor", "rate": rng.choice(("1/2", "2/3", "1"))},
            "max_uses": rng.randint(6, 10),
            "delta_target": f"{rng.randint(1, 9)}/1000",
        }
        for level in range(1, depth + 1)
    }
    inner, pairs = SHAPES[shape]

    def build(level, x, y):
        if level == 0:
            return json.loads(
                base_text.replace('"@x"', json.dumps(x)).replace('"@y"', json.dumps(y))
            )
        label = {"x": x, "y": y, **{n: f"L{level}{n}" for n in inner}}
        return {
            "nodes": [label[n] for n in ("x", *inner, "y")],
            "edges": [
                {
                    "a": label[a],
                    "b": label[b],
                    "lower": {"network": build(level - 1, label[a], label[b]), **params[level]},
                }
                for a, b in pairs
            ],
            "source": x,
            "sink": y,
        }

    return build(depth, "A", "Z")


class TestAgainstReferenceParser:
    """Loading a hierarchy gives, level by level, the network that the
    reference parser builds from Fraction-based flat parses."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_benchmark_like_hierarchies(self, depth, shape):
        rng = random.Random(f"{depth}{shape}")
        for k in (2, 3):
            doc = benchmark_like_hierarchy(rng, depth, shape, k)
            got = load_hierarchical(json.dumps(doc))
            want = reference_parse_hierarchical(doc)
            assert got.level == depth
            got_levels, want_levels = networks_of(got), networks_of(want)
            assert len(got_levels) == len(want_levels)
            for g, w in zip(got_levels, want_levels):
                assert g.level == w.level
                assert g.base == w.base
                assert g.edges == w.edges
            assert got == want


class TestConversionMemo:
    """One parse converts each distinct float or string cost and delta once,
    however many entries and relabelled lower copies repeat it; the next
    parse starts afresh. No timing is involved."""

    @staticmethod
    def count_conversions(monkeypatch):
        """Counts the outermost conversions of floats and strings; the
        ``as_fraction`` inside ``cost_to_milli`` is part of its call."""
        calls = Counter()
        inside = []
        for name in ("cost_to_milli", "as_fraction"):
            real = getattr(netgraph, name)

            def counted(value, *rest, _name=name, _real=real):
                if not inside and type(value) in (float, str):
                    calls[_name, type(value), value] += 1
                inside.append(_name)
                try:
                    return _real(value, *rest)
                finally:
                    inside.pop()

            for module in (netgraph, concat):
                monkeypatch.setattr(module, name, counted)
        return calls

    def test_hierarchy_of_relabelled_copies(self, monkeypatch):
        rng = random.Random("memo")
        base = base_grid(rng, 4)
        for i, e in enumerate(base["edges"]):
            e["delta"] = ("1/100", 0.002, "0.01", 0)[i % 4]
        base_text = json.dumps(base)
        n = 8
        edges = []
        for i in range(n):
            x, y = f"c{i}", f"c{i + 1}"
            lower = json.loads(
                base_text.replace('"@x"', json.dumps(x)).replace('"@y"', json.dumps(y))
            )
            wrap = {"network": lower, "yield": {"kind": "linear-floor", "rate": "1/2"}}
            edges.append(
                {"a": x, "b": y, "lower": {**wrap, "max_uses": 8, "delta_target": "1/100"}}
            )
        nodes = [f"c{i}" for i in range(n + 1)]
        doc = {"nodes": nodes, "edges": edges, "source": "c0", "sink": f"c{n}"}
        text = json.dumps(doc)
        distinct = {("cost_to_milli", float, e["cost"]) for e in base["edges"]}
        distinct |= {("as_fraction", str, "1/100"), ("as_fraction", str, "0.01")}
        distinct.add(("as_fraction", float, 0.002))
        assert len(base["edges"]) * n > 3 * len(distinct)

        calls = self.count_conversions(monkeypatch)
        for _ in range(2):
            net = load_hierarchical(text)
            assert len(net.edges) == n
            assert calls == Counter(dict.fromkeys(distinct, 1))
            calls.clear()

    def test_flat_document_with_repeated_costs(self, monkeypatch):
        costs = (0.5, "3/2", 1.25, 2, "0.5")
        deltas = (0.01, "1/100", None)
        edges = []
        for i in range(30):
            entry = {"a": f"v{i}", "b": f"v{i + 1}", "capacity": 1, "cost": costs[i % 5]}
            if deltas[i % 3] is not None:
                entry["delta"] = deltas[i % 3]
            edges.append(entry)
            # A parallel entry repeats the pair with the same values.
            edges.append(dict(entry, capacity=2))
        doc = {"nodes": [f"v{i}" for i in range(31)], "edges": edges, "source": "v0", "sink": "v30"}
        text = json.dumps(doc)
        calls = self.count_conversions(monkeypatch)
        for _ in range(2):
            g = netgraph.load_network(text).graph
            assert [e.capacity for e in g.edges] == [3] * 30
            assert calls == Counter(
                {
                    ("cost_to_milli", float, 0.5): 1,
                    ("cost_to_milli", str, "3/2"): 1,
                    ("cost_to_milli", float, 1.25): 1,
                    ("cost_to_milli", str, "0.5"): 1,
                    ("as_fraction", float, 0.01): 1,
                    ("as_fraction", str, "1/100"): 1,
                }
            )
            calls.clear()


def typed_outcome(fn, *args):
    """The repr of ``fn(*args)``, which shows ``1``, ``1.0``, ``True`` and
    ``Fraction(1, 1)`` apart, or the type and message of what it raised."""
    try:
        return ("value", repr(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        return (type(exc), str(exc))


# Values of one exact type per column, so that unrespelled leaves take the
# column parse.
COLUMN_COSTS = ([0, 1, 2], [0.5, 1.25, 2.0, 0.001], ["3/2", "1", "0.5"])
COLUMN_DELTAS = ([0, 1], [0.01, 0.0], ["1/100", "0"])
RESPELLINGS = (1, 1.0, True, "1")
# A value of the column's type that a column check must reject.
OUT_OF_RANGE = {
    "capacity": -1,
    "max_uses": 0,
    "cost": {int: -1, float: 0.0005, str: "-1"},
    "delta": {int: 2, float: 1.5, str: "3/2"},
}
# Top pairs of a diamond; each wraps a chain x - u - y of two leaves, so the
# leaves (s, u) and (u, t) each appear under two top edges.
DIAMOND_TOP = (("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"))


@st.composite
def repeated_leaf_hierarchies(draw):
    """A depth-2 hierarchy whose eight leaves are one network relabelled at
    its clients, so four are copies of others; one scalar of one leaf entry
    may be respelled as 1, 1.0, true or "1", and rarely every copy has one
    value out of range."""
    interior = ["p", "q"][: draw(st.integers(0, 2))]
    slots = ["x", "y", *interior]
    pairs = [(i, j) for i in range(len(slots)) for j in range(i + 1, len(slots))]
    chosen = [p for p in pairs if draw(st.booleans())] or [(0, 1)]
    costs = draw(st.sampled_from(COLUMN_COSTS))
    deltas = draw(st.sampled_from((None, *COLUMN_DELTAS)))
    with_max_uses = draw(st.booleans())
    template = []
    for i, j in chosen:
        entry = {"a": i, "b": j, "capacity": draw(st.integers(0, 3))}
        entry["cost"] = draw(st.sampled_from(costs))
        if deltas is not None:
            entry["delta"] = draw(st.sampled_from(deltas))
        if with_max_uses:
            entry["max_uses"] = draw(st.integers(1, 3))
        template.append(entry)
    # One draw in five; a middle value, since hypothesis favours the ends.
    if draw(st.integers(0, 4)) == 2:
        entry = draw(st.sampled_from(template))
        field = draw(st.sampled_from(sorted(set(entry) - {"a", "b"})))
        bad = OUT_OF_RANGE[field]
        entry[field] = bad[type(entry[field])] if isinstance(bad, dict) else bad

    def leaf(x, y):
        label = [x, y, *interior]
        return {
            "nodes": label,
            "edges": [{**e, "a": label[e["a"]], "b": label[e["b"]]} for e in template],
            "source": x,
            "sink": y,
        }

    wrap = {"yield": {"kind": "identity"}, "max_uses": 2, "delta_target": "1/100"}
    leaves = []
    top_edges = []
    for x, y in DIAMOND_TOP:
        lows = [leaf(x, "u"), leaf("u", y)]
        leaves += lows
        middle = {
            "nodes": [x, "u", y],
            "edges": [
                {"a": x, "b": "u", "lower": {"network": lows[0], **wrap}},
                {"a": "u", "b": y, "lower": {"network": lows[1], **wrap}},
            ],
            "source": x,
            "sink": y,
        }
        top_edges.append({"a": x, "b": y, "lower": {"network": middle, **wrap}})
    if draw(st.booleans()):
        entry = draw(st.sampled_from(draw(st.sampled_from(leaves))["edges"]))
        field = draw(st.sampled_from(sorted(set(entry) - {"a", "b"})))
        entry[field] = draw(st.sampled_from(RESPELLINGS))
    return {"nodes": ["s", "a", "b", "t"], "edges": top_edges, "source": "s", "sink": "t"}


# Spellings of one wrapped field: the drawn value, equal values of other
# types, other values in range, and values out of range or refused.
WRAPPED_RESPELLINGS = {
    "rate": ("1/2", 0.5, "0.5", "2/4", 1, 1.0, "1", True, "0", -0.5, "1e-999999"),
    "delta_target": ("1/100", 0.01, "0.01", 0, 0.0, "0", False, 1, "3/2", -0.01),
    "max_uses": (2, 3, 2.0, True, "2", 0, -1, 10**401),
    "cost": (1, 1.0, "1", "1/2", True, 0.0005, -1),
    "target": (1, 2, 1.0, True, "1", -1, 10**401),
    "threshold": ("1/10", 0.1, "0.1", 0, True, "x", 2),
}


@st.composite
def respelled_wrapper_hierarchies(draw):
    """A depth-2 hierarchy whose twelve wrapped edges state one wrapper:
    the same yield, use bound and delta target, and each of cost, target
    and threshold either everywhere or nowhere, so the wrapped levels
    share their parsed fields. One field of one wrapper may then be
    respelled, in range or out of it."""
    wrap = {"max_uses": 2, "delta_target": "1/100"}
    for field, value in (("cost", 1), ("target", 1), ("threshold", "1/10")):
        if draw(st.booleans()):
            wrap[field] = value

    def lower(network):
        rate = {"kind": "linear-floor", "rate": "1/2"}
        return {"network": network, "yield": rate, **wrap}

    def leaf(x, y):
        edge = {"a": x, "b": y, "capacity": 2, "cost": 1}
        return {"nodes": [x, y], "edges": [edge], "source": x, "sink": y}

    wrappers = []
    top_edges = []
    for x, y in DIAMOND_TOP:
        lows = [lower(leaf(x, "u")), lower(leaf("u", y))]
        middle = {
            "nodes": [x, "u", y],
            "edges": [{"a": x, "b": "u", "lower": lows[0]}, {"a": "u", "b": y, "lower": lows[1]}],
            "source": x,
            "sink": y,
        }
        top = lower(middle)
        wrappers += [top, *lows]
        top_edges.append({"a": x, "b": y, "lower": top})
    if draw(st.booleans()):
        chosen = draw(st.sampled_from(wrappers))
        field = draw(st.sampled_from(sorted(WRAPPED_RESPELLINGS)))
        value = draw(st.sampled_from(WRAPPED_RESPELLINGS[field]))
        if field == "rate":
            chosen["yield"]["rate"] = value
        else:
            chosen[field] = value
    return {"nodes": ["s", "a", "b", "t"], "edges": top_edges, "source": "s", "sink": "t"}


def ladder_document(rng, paths, hops):
    """Disjoint unit-capacity source-sink paths whose every edge states its
    own rational delta, as the benchmark's simulated ladders do."""
    nodes, edges = ["s", "t"], []
    for p in range(paths):
        labels = ["s", *(f"p{p}_{j}" for j in range(1, hops)), "t"]
        nodes += labels[1:-1]
        edges += [
            {"a": u, "b": v, "capacity": 1, "cost": 1, "delta": f"{rng.randint(1, 9)}/1000"}
            for u, v in zip(labels, labels[1:])
        ]
    return {"nodes": nodes, "edges": edges, "source": "s", "sink": "t"}


class TestColumnParse:
    """Edge arrays of the common shape are parsed a column at a time, and a
    document builds each repeated lower network once; every outcome is the
    reference parser's, value or error."""

    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(repeated_leaf_hierarchies())
    def test_respelled_copy_parses_as_the_reference(self, doc):
        got = typed_outcome(parse_hierarchical, doc)
        assert got == typed_outcome(reference_parse_hierarchical, doc)
        assert got == typed_outcome(load_hierarchical, json.dumps(doc))

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(respelled_wrapper_hierarchies())
    def test_respelled_wrapper_parses_as_the_reference(self, doc):
        got = typed_outcome(parse_hierarchical, doc)
        assert got == typed_outcome(reference_parse_hierarchical, doc)
        assert got == typed_outcome(load_hierarchical, json.dumps(doc))

    def test_benchmark_shapes_never_parse_entry_by_entry(self, monkeypatch):
        def entry_by_entry(*args):
            raise AssertionError("per-entry parse reached")

        rng = random.Random("columns")
        grid = base_grid(rng, 6)
        ladder = ladder_document(rng, 3, 11)
        hierarchy = benchmark_like_hierarchy(rng, 2, "diamond", 4)
        want = [
            reference_parse_hierarchical(grid),
            reference_parse_hierarchical(ladder),
            reference_parse_hierarchical(hierarchy),
        ]
        monkeypatch.setattr(netgraph, "_parse_edge_entry", entry_by_entry)
        got = [
            netgraph.load_network(json.dumps(grid)).graph,
            netgraph.load_network(json.dumps(ladder)).graph,
            load_hierarchical(json.dumps(hierarchy)),
        ]
        assert got[0] == want[0].base and got[1] == want[1].base and got[2] == want[2]
        assert repr(got[2]) == repr(want[2])

    def test_repeated_leaves_share_one_graph_and_one_key(self, monkeypatch):
        rng = random.Random("shared")
        net = load_hierarchical(json.dumps(benchmark_like_hierarchy(rng, 2, "diamond", 3)))
        leaves = [n for n in networks_of(net) if n.level == 0]
        graphs = {id(n.base): n.base for n in leaves}
        # (A, L1u) and (A, L1v) repeat under both top edges out of A, and
        # (L1u, Z) and (L1v, Z) under both into Z.
        assert (len(leaves), len(graphs)) == (16, 12)
        assert len({(g.nodes, g.edges, g.source, g.sink) for g in graphs.values()}) == 12

        keys = []
        real = concat._lower_key
        monkeypatch.setattr(
            concat, "_lower_key", lambda g, target: keys.append(id(g)) or real(g, target)
        )
        resolved = concat._resolve(net)
        # One key per distinct graph under a wrapped edge: the shared leaves
        # and the flattened middle networks.
        assert net.level == 2
        middles = [id(lower.graph) for _, _, _, lower in resolved.rows.values()]
        assert sorted(keys) == sorted([*graphs, *middles])
        assert resolved == reference_resolve(net)

    def test_repeated_rows_and_yields_are_built_once(self, monkeypatch):
        rng = random.Random("shared rows")
        doc = benchmark_like_hierarchy(rng, 2, "diamond", 3)
        wrappers, rows = [], set()
        stack = [doc]
        while stack:
            for entry in stack.pop()["edges"]:
                if "lower" in entry:
                    wrappers.append(entry["lower"])
                    stack.append(entry["lower"]["network"])
                else:
                    rows.add(tuple((k, type(v), v) for k, v in sorted(entry.items())))
        yields = {(json.dumps(w["yield"]), w["max_uses"]) for w in wrappers}
        # Relabelled copies repeat all but the rows at their clients, and
        # every wrapper of a level repeats the level's yield.
        assert (len(rows), len(yields)) == (42, 2)

        calls = Counter()
        real_edge, real_yield = netgraph._trusted_edge, concat.parse_yield

        def counted_edge(*args):
            calls["edge"] += 1
            return real_edge(*args)

        def counted_yield(*args):
            calls["yield"] += 1
            return real_yield(*args)

        monkeypatch.setattr(netgraph, "_trusted_edge", counted_edge)
        monkeypatch.setattr(concat, "parse_yield", counted_yield)
        net = load_hierarchical(json.dumps(doc))
        assert calls == {"edge": len(rows), "yield": len(yields)}

        leaf_edges = [e for n in networks_of(net) if n.level == 0 for e in n.base.edges]
        assert len({id(e) for e in leaf_edges}) == len(rows) < len(leaf_edges)
        for e in leaf_edges:
            fresh = Edge(e.a, e.b, e.capacity, e.unit_cost, e.gen_error, e.max_uses)
            assert e == fresh and repr(e) == repr(fresh)
        # 16 leaves, 4 middles and the top; 16 + 4 wrapped edges.
        positions = [*networks_of(net), *(e for n in networks_of(net) for e in n.edges)]
        assert len({id(x) for x in positions}) == len(positions) == 21 + 20
        assert concat._resolve(net) == reference_resolve(net)

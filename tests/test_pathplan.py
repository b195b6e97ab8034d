import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ebitflow import (
    BellMeasure,
    CreateBellPair,
    Delivery,
    FlowSolution,
    MalformedFlow,
    NetworkGraph,
    ParseError,
    PathBundle,
    PauliCorrect,
    ScheduleViolation,
    ValidationError,
    YieldFunction,
    YieldShortfall,
    build_swap_schedule,
    decompose_flow,
    min_cost_flow,
    min_cost_max_flow,
    min_cut,
    parse_schedule,
    plan_channel_uses,
    serialize_schedule,
)
from ebitflow import pathplan
from ebitflow.mincostflow import _Residual
from oracles import random_network, reference_decompose_flow, tie_graphs

CHAIN = NetworkGraph.from_edge_list(
    [("r", "s", 3, 1000), ("r", "t", 2, 1000)], "s", "t"
)
DIAMOND = NetworkGraph.from_edge_list(
    [
        ("a", "s", 1, 1000),
        ("a", "t", 1, 1000),
        ("b", "s", 1, 1000),
        ("b", "t", 1, 1000),
    ],
    "s",
    "t",
)


class TestDecompose:
    def test_single_edge(self):
        g = NetworkGraph.from_edge_list([("s", "t", 5, 1000)], "s", "t")
        bundles = decompose_flow(min_cost_max_flow(g))
        assert bundles == (PathBundle(path=("s", "t"), multiplicity=5),)

    def test_diamond(self):
        bundles = decompose_flow(min_cost_flow(DIAMOND, 2))
        assert {(b.path, b.multiplicity) for b in bundles} == {
            (("s", "a", "t"), 1),
            (("s", "b", "t"), 1),
        }

    def test_chain(self):
        bundles = decompose_flow(min_cost_flow(CHAIN, 2))
        assert bundles == (PathBundle(path=("s", "r", "t"), multiplicity=2),)

    def test_zero_flow(self):
        assert decompose_flow(min_cost_flow(CHAIN, 0)) == ()

    def test_conservation_violation_rejected(self):
        sol = FlowSolution(
            graph=CHAIN,
            arc_flow={("s", "r"): 2, ("r", "t"): 1},
            net_flow=2,
            total_cost=3000,
        )
        with pytest.raises(MalformedFlow):
            decompose_flow(sol)

    def test_opposing_flow_rejected(self):
        g = NetworkGraph.from_edge_list([("s", "t", 3, 0)], "s", "t")
        sol = FlowSolution(
            graph=g,
            arc_flow={("s", "t"): 2, ("t", "s"): 1},
            net_flow=1,
            total_cost=0,
        )
        with pytest.raises(MalformedFlow):
            decompose_flow(sol)

    @given(st.integers(0, 10_000))
    def test_reconstruction_on_random_solutions(self, seed):
        rnd = random.Random(seed)
        g = random_network(rnd, max_nodes=7, max_cap=4)
        cut = min_cut(g)
        sol = min_cost_flow(g, rnd.randint(0, cut))
        bundles = decompose_flow(sol)
        assert sum(b.multiplicity for b in bundles) == sol.net_flow
        edge_sum = {k: 0 for k in g.edge_map}
        for b in bundles:
            assert len(set(b.path)) == len(b.path)
            for u, v in zip(b.path, b.path[1:]):
                key = (u, v) if u <= v else (v, u)
                assert key in g.edge_map
                edge_sum[key] += b.multiplicity
        for key, f in sol.undirected_flow.items():
            assert edge_sum[key] == f

    def test_deterministic_shortest_first(self):
        g = NetworkGraph.from_edge_list(
            [
                ("s", "t", 1, 1000),
                ("r", "s", 1, 500),
                ("r", "t", 1, 500),
            ],
            "s",
            "t",
        )
        bundles = decompose_flow(min_cost_flow(g, 2))
        assert bundles[0].path == ("s", "t")
        assert bundles[1].path == ("s", "r", "t")


def ladder_graph(paths: int, hops: int) -> NetworkGraph:
    """``paths`` disjoint s-t paths of ``hops`` unit-capacity edges each."""
    edges = []
    for p in range(paths):
        labels = ["s", *(f"p{p}_{j}" for j in range(1, hops)), "t"]
        edges += [(labels[j], labels[j + 1], 1, 1000) for j in range(hops)]
    return NetworkGraph.from_edge_list(edges, "s", "t")


@st.composite
def hand_built_flows(draw):
    """Flows summed from s-t paths of any length, plus circulations that
    may strand flow off every s-t path, with opposing flow cancelled; some
    are broken by one extra unit on an arc. Their paths differ in length,
    so peeling them takes several phases."""
    n = draw(st.integers(2, 8))
    labels = draw(st.permutations([f"n{i}" for i in range(n)]))
    s, t = labels[0], labels[1]
    g = NetworkGraph.from_edge_list(
        [(a, b, 100, 1000) for i, a in enumerate(labels) for b in labels[i + 1 :]],
        s,
        t,
    )
    flow: dict[tuple[str, str], int] = {}
    net = 0
    walks = []
    for _ in range(draw(st.integers(0, 6))):
        inner = draw(st.permutations(labels[2:]))
        m = draw(st.integers(1, 3))
        walks.append(([s, *inner[: draw(st.integers(0, len(inner)))], t], False, m))
        net += m
    if n >= 3:
        for _ in range(draw(st.integers(0, 2))):
            ring = draw(st.permutations(labels))[: draw(st.integers(3, n))]
            walks.append((ring, True, draw(st.integers(1, 2))))
    for nodes, closed, m in walks:
        for arc in zip(nodes, nodes[1:] + nodes[:1] if closed else nodes[1:]):
            flow[arc] = flow.get(arc, 0) + m
    for a, b in list(flow):
        if (b, a) in flow:
            both = min(flow[(a, b)], flow[(b, a)])
            flow[(a, b)] -= both
            flow[(b, a)] -= both
    if flow and draw(st.integers(0, 9)) == 0:
        arc = draw(st.sampled_from(sorted(flow)))
        flow[arc] += 1
    arc_flow = {arc: f for arc, f in sorted(flow.items()) if f > 0}
    return FlowSolution(graph=g, arc_flow=arc_flow, net_flow=net, total_cost=0)


def assert_same_decomposition(sol: FlowSolution) -> None:
    try:
        expected = reference_decompose_flow(sol)
    except MalformedFlow as exc:
        with pytest.raises(MalformedFlow) as got:
            decompose_flow(sol)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    assert decompose_flow(sol) == expected


class TestAgainstReferenceDecomposition:
    """Peeling in BFS phases gives the bundles, in order, and the errors of
    one search per bundle."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_networks_at_every_target(self, seed):
        rnd = random.Random(seed)
        g = random_network(rnd, max_nodes=9, max_cap=4)
        for target in range(min_cut(g) + 1):
            assert_same_decomposition(min_cost_flow(g, target))

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tie_graphs())
    def test_tie_graphs_at_every_target(self, g):
        for target in range(min_cut(g) + 1):
            assert_same_decomposition(min_cost_flow(g, target))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(hand_built_flows())
    def test_hand_built_flows(self, sol):
        assert_same_decomposition(sol)

    @pytest.mark.parametrize("paths, hops", [(1, 1), (1, 12), (3, 2), (4, 6), (9, 11)])
    def test_ladders(self, paths, hops):
        g = ladder_graph(paths, hops)
        for target in range(paths + 1):
            assert_same_decomposition(min_cost_flow(g, target))

    def test_one_phase_per_path_length(self, count_calls):
        """Paths of 1, 2 and 3 hops take three phases."""
        g = NetworkGraph.from_edge_list(
            [(a, b, 5, 1000) for a, b in ("st", "sa", "at", "sb", "bc", "ct", "ac")],
            "s",
            "t",
        )
        flow = {("s", "t"): 2, ("s", "a"): 3, ("a", "t"): 3, ("s", "b"): 1}
        flow.update({("b", "c"): 1, ("c", "t"): 1})
        sol = FlowSolution(graph=g, arc_flow=flow, net_flow=6, total_cost=0)
        levels = count_calls(pathplan, "_levels")
        bundles = decompose_flow(sol)
        assert [(b.path, b.multiplicity) for b in bundles] == [
            (("s", "t"), 2),
            (("s", "a", "t"), 3),
            (("s", "b", "c", "t"), 1),
        ]
        assert levels == [3]
        assert bundles == reference_decompose_flow(sol)

    def test_ladder_runs_two_dijkstras_and_one_phase(self, count_calls):
        """After the first two rounds the nine equal-cost paths are tight,
        so they need no Dijkstra, and all nine have 11 hops, so one BFS
        phase peels them."""
        g = ladder_graph(9, 11)
        dijkstras = count_calls(_Residual, "dijkstra")
        levels = count_calls(pathplan, "_levels")
        bundles = decompose_flow(min_cost_flow(g, 9))
        assert dijkstras == [2]
        assert levels == [1]
        assert [b.path[1] for b in bundles] == [f"p{p}_1" for p in range(9)]


class TestChannelUses:
    def test_identity_default(self):
        sol = min_cost_flow(CHAIN, 2)
        plan = plan_channel_uses(CHAIN, sol)
        assert plan.uses == {("r", "s"): 2, ("r", "t"): 2}
        assert plan.achieved == {("r", "s"): 2, ("r", "t"): 2}

    def test_zero_flow_edges_get_zero(self):
        sol = min_cost_flow(DIAMOND, 0)
        plan = plan_channel_uses(DIAMOND, sol)
        assert set(plan.uses.values()) == {0}

    def test_half_floor(self):
        g = NetworkGraph.from_edge_list([("s", "t", 3, 0, 0, 20)], "s", "t")
        sol = min_cost_flow(g, 3)
        yields = {("s", "t"): YieldFunction.linear_floor(Fraction(1, 2))}
        plan = plan_channel_uses(g, sol, yields)
        assert plan.uses[("s", "t")] == 6
        assert plan.achieved[("s", "t")] == 3

    def test_two_fifths_floor(self):
        g = NetworkGraph.from_edge_list([("s", "t", 2, 0, 0, 20)], "s", "t")
        sol = min_cost_flow(g, 2)
        yields = {("s", "t"): YieldFunction.linear_floor(Fraction(2, 5))}
        plan = plan_channel_uses(g, sol, yields)
        assert plan.uses[("s", "t")] == 5
        assert plan.achieved[("s", "t")] == 2

    def test_bound_respected(self):
        rnd = random.Random(11)
        for _ in range(20):
            g = random_network(rnd, max_nodes=6, max_cap=3)
            sol = min_cost_flow(g, min_cut(g))
            plan = plan_channel_uses(g, sol)
            for key, uses in plan.uses.items():
                bound = g.edge_map[key].max_uses
                if bound is not None:
                    assert uses <= bound
                assert plan.achieved[key] >= sol.undirected_flow[key]

    def test_shortfall_raised(self):
        g = NetworkGraph.from_edge_list([("s", "t", 3, 0, 0, 4)], "s", "t")
        sol = min_cost_flow(g, 3)
        yields = {("s", "t"): YieldFunction.linear_floor(Fraction(1, 2))}
        with pytest.raises(YieldShortfall):
            plan_channel_uses(g, sol, yields)


class TestSchedule:
    def test_direct_pair_no_swap(self):
        sched = build_swap_schedule([PathBundle(path=("s", "t"), multiplicity=1)])
        assert sched.counts() == {"create": 1, "measure": 0, "correct": 0}
        assert len(sched.deliveries) == 1

    def test_one_repeater(self):
        sched = build_swap_schedule([PathBundle(path=("s", "r", "t"), multiplicity=1)])
        assert sched.counts() == {"create": 2, "measure": 1, "correct": 1}
        fixes = [i for i in sched.instructions if isinstance(i, PauliCorrect)]
        assert len(fixes) == 1
        assert fixes[0].node == "t"

    def test_two_repeaters_double(self):
        sched = build_swap_schedule(
            [PathBundle(path=("s", "r1", "r2", "t"), multiplicity=2)]
        )
        assert sched.counts() == {"create": 6, "measure": 4, "correct": 2}

    def test_qubit_accounting(self):
        rnd = random.Random(13)
        for _ in range(15):
            g = random_network(rnd, max_nodes=6, max_cap=3)
            sol = min_cost_flow(g, min_cut(g))
            bundles = decompose_flow(sol)
            sched = build_swap_schedule(bundles)
            counts = sched.counts()
            assert counts["create"] == sum(sol.undirected_flow.values())
            assert counts["measure"] == sum(
                b.multiplicity * (b.hops - 1) for b in bundles
            )
            assert len(sched.deliveries) == sol.net_flow
            assert sched.n_qubits == 2 * counts["create"]

    def test_measure_consumes_interior_qubits(self):
        sched = build_swap_schedule(
            [PathBundle(path=("s", "r", "t"), multiplicity=1)]
        )
        creates = [i for i in sched.instructions if isinstance(i, CreateBellPair)]
        measures = [i for i in sched.instructions if isinstance(i, BellMeasure)]
        interior = {
            q
            for c in creates
            for q, node in ((c.qubit_left, c.node_left), (c.qubit_right, c.node_right))
            if node == "r"
        }
        measured = {q for m in measures for q in (m.qubit_left, m.qubit_right)}
        assert interior == measured


class TestSerialization:
    def round_trip(self, bundles):
        sched = build_swap_schedule(bundles)
        text = serialize_schedule(sched)
        back = parse_schedule(text)
        assert back == sched
        return text

    def test_round_trip_simple(self):
        self.round_trip([PathBundle(path=("s", "t"), multiplicity=2)])

    def test_round_trip_with_swaps(self):
        text = self.round_trip(
            [
                PathBundle(path=("s", "r1", "r2", "t"), multiplicity=1),
                PathBundle(path=("s", "t"), multiplicity=1),
            ]
        )
        assert "swap r1" in text
        assert "fix t" in text
        assert "deliver copy" in text

    def test_round_trip_random(self):
        rnd = random.Random(17)
        for _ in range(10):
            g = random_network(rnd, max_nodes=6, max_cap=2)
            bundles = decompose_flow(min_cost_flow(g, min_cut(g)))
            self.round_trip(bundles)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_schedule("pair q0@s q1@t copy 0\nteleport everything\n")

    def test_duplicate_qubit_rejected(self):
        text = "pair q0@s q1@t copy 0\npair q0@s q1@t copy 0\n"
        with pytest.raises(ParseError):
            parse_schedule(text)


class TestBundleValidation:
    def test_short_path_rejected(self):
        with pytest.raises(ValidationError):
            PathBundle(path=("s",), multiplicity=1)

    def test_repeated_node_rejected(self):
        with pytest.raises(ValidationError):
            PathBundle(path=("s", "r", "s"), multiplicity=1)

    def test_positive_multiplicity(self):
        with pytest.raises(ValidationError):
            PathBundle(path=("s", "t"), multiplicity=0)

import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ebitflow import (
    FlowSolution,
    InfeasibleTarget,
    InvariantViolation,
    MalformedFlow,
    NegativeTarget,
    NetworkGraph,
    min_cost_flow,
    min_cost_max_flow,
    min_cut,
    price_curve,
    solution_dot,
    solution_report,
    unit_price,
    validate_flow,
)
from ebitflow.mincostflow import _Residual, _best_target
from oracles import (
    min_cost_by_search,
    random_network,
    reference_augmenting_paths,
    reference_min_cost_flow,
    reference_residual_solution,
    tie_graphs,
)

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
# cheap route through a, expensive route through b
TWO_ROUTE = NetworkGraph.from_edge_list(
    [
        ("a", "s", 1, 1000),
        ("a", "t", 1, 1000),
        ("b", "s", 1, 5000),
        ("b", "t", 1, 5000),
    ],
    "s",
    "t",
)


class TestFrozenValues:
    def test_zero_target_zero_flow(self):
        sol = min_cost_flow(DIAMOND, 0)
        assert sol.net_flow == 0
        assert sol.total_cost == 0
        assert not sol.arc_flow

    def test_two_route_prefers_cheap(self):
        sol = min_cost_flow(TWO_ROUTE, 1)
        assert sol.total_cost == 2000
        assert sol.undirected_flow[("a", "s")] == 1
        assert sol.undirected_flow[("b", "s")] == 0

    def test_chain_full(self):
        sol = min_cost_flow(CHAIN, 2)
        assert sol.total_cost == 4000
        assert sol.undirected_flow[("r", "s")] == 2
        assert sol.undirected_flow[("r", "t")] == 2

    def test_single_edge_max(self):
        g = NetworkGraph.from_edge_list([("s", "t", 5, 3000)], "s", "t")
        sol = min_cost_max_flow(g)
        assert sol.net_flow == 5
        assert sol.total_cost == 15000

    def test_diamond_max(self):
        sol = min_cost_max_flow(DIAMOND)
        assert sol.net_flow == 2
        assert sol.total_cost == 4000
        assert unit_price(sol) == 2000

    def test_disconnected_max_is_empty(self):
        g = NetworkGraph.from_edge_list([], "s", "t", extra_nodes=["s", "t"])
        sol = min_cost_max_flow(g)
        assert sol.net_flow == 0
        assert sol.total_cost == 0

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTarget):
            min_cost_flow(CHAIN, 3)

    def test_negative_target(self):
        with pytest.raises(NegativeTarget):
            min_cost_flow(CHAIN, -1)
        with pytest.raises(NegativeTarget):
            min_cost_flow(CHAIN, 1.5)


class TestUnitPrice:
    def test_simple_division(self):
        g = NetworkGraph.from_edge_list([("s", "t", 5, 3000)], "s", "t")
        assert unit_price(min_cost_max_flow(g)) == Fraction(15000, 5)

    def test_zero_flow_undefined(self):
        assert unit_price(min_cost_flow(CHAIN, 0)) is None

    def test_best_target_single_edge(self):
        g = NetworkGraph.from_edge_list([("s", "t", 5, 3000)], "s", "t")
        costs, target = price_curve(g)
        assert target == 1
        assert costs == tuple(
            reference_min_cost_flow(g, k).total_cost for k in range(1, 6)
        )
        assert costs[target - 1] == 3000

    def test_best_target_avoids_costly_second_route(self):
        costs, target = price_curve(TWO_ROUTE)
        assert target == 1
        assert costs == tuple(
            reference_min_cost_flow(TWO_ROUTE, k).total_cost for k in (1, 2)
        )
        assert costs[target - 1] == 2000

    def test_best_target_tie_takes_smallest(self):
        _, target = price_curve(DIAMOND)
        assert target == 1

    def test_best_target_disconnected(self):
        g = NetworkGraph.from_edge_list([], "s", "t", extra_nodes=["s", "t"])
        with pytest.raises(InfeasibleTarget):
            price_curve(g)


class TestBestTarget:
    """``_best_target`` compares average costs by cross-multiplying; it must
    pick what a ``Fraction`` key picks, ties included."""

    @staticmethod
    def by_fraction(costs):
        return min(range(1, len(costs) + 1), key=lambda k: Fraction(costs[k - 1], k))

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=24))
    def test_small_costs_with_ties(self, costs):
        assert _best_target(costs) == self.by_fraction(costs)

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=24),
        st.sampled_from([1, 1000, 10**400]),
    )
    def test_convex_curves(self, slopes, scale):
        costs, total = [], 0
        for slope in sorted(slopes):
            total += slope * scale
            costs.append(total)
        assert _best_target(costs) == self.by_fraction(costs)


class TestPriceCurveExtraction:
    # Two routes of 2 and 1 pairs: a cut of 3 from two augmenting paths.
    G = NetworkGraph.from_edge_list(
        [("a", "s", 2, 1000), ("a", "t", 2, 1000), ("s", "t", 1, 5000)], "s", "t"
    )

    def test_one_solution_for_the_whole_run(self, monkeypatch):
        """The costs come from path costs; one flow of the whole run is
        still extracted, so its net-flow and cycle checks run."""
        pushed = []
        real = _Residual.solution

        def counted(self):
            pushed.append(self.pushed)
            return real(self)

        monkeypatch.setattr(_Residual, "solution", counted)
        costs, best = price_curve(self.G)
        assert pushed == [3]
        assert (costs, best) == ((2000, 4000, 9000), 1)

    def test_path_costs_must_match_the_flow(self, monkeypatch):
        real = _Residual.solution

        def off_by_one(self):
            sol = real(self)
            return FlowSolution(sol.graph, sol.arc_flow, sol.net_flow, sol.total_cost + 1)

        monkeypatch.setattr(_Residual, "solution", off_by_one)
        with pytest.raises(InvariantViolation, match="path costs"):
            price_curve(self.G)


class TestValidation:
    def test_solver_outputs_validate(self):
        rnd = random.Random(5)
        for _ in range(25):
            g = random_network(rnd, max_nodes=6, max_cap=3)
            cut = min_cut(g)
            validate_flow(min_cost_flow(g, rnd.randint(0, cut)))

    def _sol(self, g, arc_flow, net, cost):
        return FlowSolution(
            graph=g, arc_flow=arc_flow, net_flow=net, total_cost=cost
        )

    def test_conservation_violation_caught(self):
        sol = self._sol(CHAIN, {("s", "r"): 2, ("r", "t"): 1}, 2, 3000)
        with pytest.raises(MalformedFlow):
            validate_flow(sol)

    def test_capacity_violation_caught(self):
        sol = self._sol(CHAIN, {("s", "r"): 3, ("r", "t"): 3}, 3, 6000)
        with pytest.raises(MalformedFlow):
            validate_flow(sol)

    def test_unknown_edge_caught(self):
        sol = self._sol(CHAIN, {("s", "t"): 1}, 1, 0)
        with pytest.raises(MalformedFlow):
            validate_flow(sol)

    def test_opposing_flow_caught(self):
        g = NetworkGraph.from_edge_list([("s", "t", 3, 0)], "s", "t")
        sol = self._sol(g, {("s", "t"): 2, ("t", "s"): 1}, 1, 0)
        with pytest.raises(MalformedFlow, match=r"^opposing flow on edge \('s', 't'\)$"):
            validate_flow(sol)

    def test_opposing_flow_names_the_smallest_edge(self):
        g = NetworkGraph.from_edge_list(
            [("s", "t", 3, 0), ("r", "t", 3, 0), ("r", "s", 3, 0)], "s", "t"
        )
        # Both s-t and r-t carry flow each way; the arcs list s-t first.
        arcs = {("s", "t"): 2, ("t", "s"): 1, ("t", "r"): 1, ("r", "t"): 1}
        sol = self._sol(g, arcs, 1, 0)
        with pytest.raises(MalformedFlow, match=r"^opposing flow on edge \('r', 't'\)$"):
            validate_flow(sol)

    def test_net_flow_mismatch_caught(self):
        sol = self._sol(CHAIN, {("s", "r"): 2, ("r", "t"): 2}, 1, 4000)
        with pytest.raises(MalformedFlow):
            validate_flow(sol)


class TestReporting:
    def test_report_shape(self):
        rep = solution_report(min_cost_flow(CHAIN, 2))
        assert rep["net_flow"] == 2
        assert rep["total_cost_milli"] == 4000
        assert rep["unit_price_milli"] == "2000"
        assert rep["active_edges"] == [["r", "s"], ["r", "t"]]

    def test_dot_output(self):
        dot = solution_dot(min_cost_flow(CHAIN, 2))
        assert "graph network {" in dot
        assert '"r" -- "s" [label="2/3 @ 1.000"]' in dot
        assert '"s" [shape=doublecircle]' in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        g = NetworkGraph.from_edge_list(
            [('s"x', "m", 1, 5), ("m", "t\\", 1, 0)], 's"x', "t\\"
        )
        dot = solution_dot(min_cost_flow(g, 1))
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        nodes, edges = [], []
        for line in dot.splitlines():
            # Every quote is part of a complete quoted ID or label.
            assert '"' not in quoted.sub("", line), line
            ids = [re.sub(r"\\(.)", r"\1", m) for m in quoted.findall(line)]
            if " -- " in line:
                edges.append(tuple(ids[:2]))
            elif line.endswith(";") and not line.lstrip().startswith("label="):
                nodes.append(ids[0])
        assert nodes == list(g.nodes)
        assert edges == [e.key for e in g.edges]
        assert '  "t\\\\" [shape=doublecircle];' in dot.splitlines()
        assert '  "m" -- "s\\"x" [label="1/1 @ 0.005"];' in dot.splitlines()


@st.composite
def cost_graphs(draw):
    n = draw(st.integers(2, 5))
    labels = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                cap = draw(st.integers(0, 3))
                cost = draw(st.integers(0, 4)) * 1000
                edges.append((labels[i], labels[j], cap, cost))
    return NetworkGraph.from_edge_list(edges, labels[0], labels[1], extra_nodes=labels)


class TestOptimality:
    @given(cost_graphs(), st.integers(0, 6))
    def test_matches_exhaustive_search(self, g, raw_target):
        cut = min_cut(g)
        target = min(raw_target, cut)
        sol = min_cost_flow(g, target)
        assert sol.total_cost == min_cost_by_search(g, target)

    @given(cost_graphs())
    def test_solution_shape(self, g):
        sol = min_cost_max_flow(g)
        validate_flow(sol)
        assert sol.net_flow == min_cut(g)
        for f in sol.arc_flow.values():
            assert isinstance(f, int) and f > 0
        for key in sol.undirected_flow:
            assert not (
                sol.arc_flow.get(key, 0) > 0
                and sol.arc_flow.get((key[1], key[0]), 0) > 0
            )

    @given(cost_graphs())
    def test_cost_monotone_in_target(self, g):
        prev = 0
        for target in range(min_cut(g) + 1):
            cost = min_cost_flow(g, target).total_cost
            assert cost >= prev
            prev = cost

    @given(cost_graphs())
    def test_feasibility_boundary(self, g):
        cut = min_cut(g)
        assert min_cost_flow(g, cut).net_flow == cut
        with pytest.raises(InfeasibleTarget):
            min_cost_flow(g, cut + 1)

    @given(cost_graphs(), st.integers(0, 4))
    def test_deterministic(self, g, raw_target):
        target = min(raw_target, min_cut(g))
        a = min_cost_flow(g, target)
        b = min_cost_flow(g, target)
        assert a.arc_flow == b.arc_flow
        assert a.total_cost == b.total_cost


class TestZeroCostEdges:
    def test_zero_cost_cycle_not_in_solution(self):
        # a zero-cost triangle hanging off the path must stay unused
        g = NetworkGraph.from_edge_list(
            [
                ("s", "t", 2, 1000),
                ("t", "u", 2, 0),
                ("u", "v", 2, 0),
                ("t", "v", 2, 0),
            ],
            "s",
            "t",
        )
        sol = min_cost_flow(g, 2)
        assert sol.undirected_flow[("t", "u")] == 0
        assert sol.undirected_flow[("u", "v")] == 0
        assert sol.undirected_flow[("t", "v")] == 0

    def test_all_zero_cost_still_optimal(self):
        g = NetworkGraph.from_edge_list(
            [("r", "s", 2, 0), ("r", "t", 2, 0), ("s", "t", 1, 0)], "s", "t"
        )
        sol = min_cost_flow(g, 3)
        validate_flow(sol)
        assert sol.net_flow == 3
        assert sol.total_cost == 0


class TestAgainstReferenceSolver:
    """The one-search solver reproduces the three-search solver it replaced."""

    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tie_graphs())
    def test_same_solution_for_every_target(self, g):
        for target in range(min_cut(g) + 2):
            try:
                expected = reference_min_cost_flow(g, target)
            except InfeasibleTarget as exc:
                with pytest.raises(InfeasibleTarget) as got:
                    min_cost_flow(g, target)
                assert type(got.value) is type(exc)
                assert str(got.value) == str(exc)
                continue
            sol = min_cost_flow(g, target)
            assert list(sol.arc_flow.items()) == list(expected.arc_flow.items())
            assert sol.total_cost == expected.total_cost
            assert sol.net_flow == expected.net_flow

    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tie_graphs())
    def test_single_run_entry_points_match_per_target_solves(self, g):
        """``min_cost_max_flow`` reads its solution, and ``price_curve`` its
        per-target costs, off one augmenting-path run; each must equal a
        separate solve."""
        cut = min_cut(g)
        assert_same(min_cost_max_flow(g), reference_min_cost_flow(g, cut))
        if cut == 0:
            with pytest.raises(InfeasibleTarget) as got:
                price_curve(g)
            assert type(got.value) is InfeasibleTarget
            assert str(got.value) == "clients are disconnected; no positive target exists"
            return
        costs, best = price_curve(g)
        expected = [reference_min_cost_flow(g, k) for k in range(1, cut + 1)]
        assert list(costs) == [ref.total_cost for ref in expected]
        prices = [unit_price(ref) for ref in expected]
        assert best == prices.index(min(prices)) + 1


def assert_same(sol, expected):
    assert list(sol.arc_flow.items()) == list(expected.arc_flow.items())
    assert sol.total_cost == expected.total_cost
    assert sol.net_flow == expected.net_flow


class TestHugeCapacity:
    """Whole bottlenecks are pushed at once, so a capacity of 10**9 costs
    one augmentation, not 10**9."""

    G = NetworkGraph.from_edge_list([("s", "t", 10**9, 7)], "s", "t")

    def test_min_cost_flow(self):
        sol = min_cost_flow(self.G, 10**9)
        assert sol.arc_flow == {("s", "t"): 10**9}
        assert sol.total_cost == 7 * 10**9

    def test_min_cost_max_flow(self):
        sol = min_cost_max_flow(self.G)
        assert sol.net_flow == 10**9
        assert sol.total_cost == 7 * 10**9


@st.composite
def tie_grids(draw):
    """k x k grids, k = 3..7, with tie-heavy costs and labels assigned to
    cells in a random order; the clients sit on opposite sides, so each
    round's search stops at the sink with nodes still unsettled."""
    k = draw(st.integers(3, 7))
    labels = draw(st.permutations([f"n{i:02d}" for i in range(k * k)]))
    edges = []
    for i in range(k):
        for j in range(k):
            for ni, nj in ((i, j + 1), (i + 1, j)):
                if ni < k and nj < k:
                    cap = draw(st.integers(0, 4))
                    cost = draw(st.sampled_from([0, 0, 1, 2]))
                    edges.append((labels[i * k + j], labels[ni * k + nj], cap, cost))
    source = labels[draw(st.integers(0, k - 1)) * k]
    sink = labels[draw(st.integers(0, k - 1)) * k + k - 1]
    return NetworkGraph.from_edge_list(edges, source, sink, extra_nodes=labels)


class TestGridsAgainstReferenceSolver:
    """On larger grids the search stops at the sink with much of the graph
    unsettled; every entry point still equals the full-search reference."""

    @settings(
        derandomize=True,
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tie_grids())
    def test_every_entry_point_matches_the_reference(self, g):
        cut = min_cut(g)
        expected = [reference_min_cost_flow(g, k) for k in range(cut + 1)]
        for k, ref in enumerate(expected):
            assert_same(min_cost_flow(g, k), ref)
        with pytest.raises(InfeasibleTarget) as exc:
            reference_min_cost_flow(g, cut + 1)
        with pytest.raises(InfeasibleTarget) as got:
            min_cost_flow(g, cut + 1)
        assert str(got.value) == str(exc.value)
        assert_same(min_cost_max_flow(g), expected[cut])
        if cut == 0:
            with pytest.raises(InfeasibleTarget):
                price_curve(g)
            return
        costs, best = price_curve(g)
        assert list(costs) == [ref.total_cost for ref in expected[1:]]
        prices = [unit_price(ref) for ref in expected[1:]]
        assert best == prices.index(min(prices)) + 1


def pushed_rounds(r, paths):
    """The ``(path, bottleneck)`` pairs of ``paths``, a round generator of
    ``r``, with each bottleneck pushed before the next round."""
    out = []
    for path, bottleneck in paths:
        out.append((path, bottleneck))
        r.push(path, bottleneck)
    return out


def seeded_grid(seed, k):
    """A k x k grid with route-like random capacities and costs, the source
    in the left column and the sink in the right one."""
    rng = random.Random(seed)
    edges = []
    for i in range(k):
        for j in range(k):
            for ni, nj in ((i, j + 1), (i + 1, j)):
                if ni < k and nj < k:
                    cap, cost = rng.randint(1, 4), rng.randint(1, 2000)
                    edges.append((f"{i},{j}", f"{ni},{nj}", cap, cost))
    source, sink = f"{rng.randrange(k)},0", f"{rng.randrange(k)},{k - 1}"
    return NetworkGraph.from_edge_list(edges, source, sink)


class TestAlternatingRounds:
    """Rounds alternate between a search backwards from the sink and one
    forwards from the source; they must take the paths of the rounds that
    all searched from the sink."""

    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.one_of(tie_graphs(), tie_grids()))
    def test_same_paths_as_the_sink_only_rounds(self, g):
        r = _Residual(g)
        walk = r.lexicographic_shortest_path

        def checked(s, t, potential):
            for aid, cap in enumerate(r.res):
                if cap > 0:
                    assert r.cost[aid] + potential[r.to[aid]] - potential[r.tail[aid]] >= 0
            return walk(s, t, potential)

        r.lexicographic_shortest_path = checked
        ref = _Residual(g)
        assert pushed_rounds(r, r.augmenting_paths()) == pushed_rounds(
            ref, reference_augmenting_paths(ref)
        )

    def test_fewer_nodes_settled_than_the_sink_only_rounds(self, monkeypatch):
        g = seeded_grid("alternating", 16)
        settled = []
        search = _Residual.dijkstra

        def counted(self, *args):
            found = search(self, *args)
            settled.append(0 if found is None else len(found[0]))
            return found

        monkeypatch.setattr(_Residual, "dijkstra", counted)
        sol = min_cost_max_flow(g)
        alternating = sum(settled)
        settled.clear()
        ref = _Residual(g)
        pushed_rounds(ref, reference_augmenting_paths(ref))
        assert_same(sol, ref.solution())
        assert alternating < sum(settled)

class TestEarlyStop:
    def test_search_stops_at_the_source(self):
        # A chain s-m-t with a costly branch through z: the search runs
        # backwards from t, and z is never settled.
        g = NetworkGraph.from_edge_list(
            [("m", "s", 1, 1), ("m", "t", 1, 1), ("s", "z", 1, 100), ("t", "z", 1, 100)],
            "s",
            "t",
        )
        r = _Residual(g)
        settled, dist = r.dijkstra(r.index["t"], r.index["s"], [0] * len(r.nodes), r.radj, r.tail)
        assert [r.nodes[v] for v in settled] == ["t", "m", "s"]
        assert dist[r.index["s"]] == 2

    def test_unsettled_node_at_the_source_distance_carries_the_path(self):
        # The source a and node c both lie at distance 1 from the sink t, d
        # at 0. Nodes settle in (distance, label) order, so the search stops
        # at a with c unsettled, yet a-c-t is the lexicographically smallest
        # cheapest path.
        g = NetworkGraph.from_edge_list(
            [("a", "c", 1, 0), ("c", "t", 1, 1), ("a", "d", 1, 1), ("d", "t", 1, 0)],
            "a",
            "t",
        )
        r = _Residual(g)
        settled, _ = r.dijkstra(r.index["t"], r.index["a"], [0] * len(r.nodes), r.radj, r.tail)
        assert [r.nodes[v] for v in settled] == ["t", "d", "a"]
        sol = min_cost_flow(g, 1)
        assert sol.arc_flow == {("a", "c"): 1, ("c", "t"): 1}
        assert_same(sol, reference_min_cost_flow(g, 1))
        assert_same(min_cost_max_flow(g), reference_min_cost_flow(g, 2))

    def test_no_tight_arc_into_a_cheap_dead_end(self, monkeypatch):
        # The source's smallest neighbour a leads only into the zero-cost
        # branch a-b-c, one unit from s; the one path s-m-t costs 2. With
        # distances from s the whole branch would be tight from s. With
        # distances to t, a lies 3 from t, above the cap 2, so s->a keeps a
        # reduced cost of 1 and the walk never enters the branch.
        g = NetworkGraph.from_edge_list(
            [
                ("a", "s", 1, 1),
                ("a", "b", 1, 0),
                ("b", "c", 1, 0),
                ("m", "s", 1, 1),
                ("m", "t", 1, 1),
            ],
            "s",
            "t",
        )
        potentials = []
        walk = _Residual.lexicographic_shortest_path

        def recorded(self, s, t, potential):
            potentials.append(list(potential))
            return walk(self, s, t, potential)

        monkeypatch.setattr(_Residual, "lexicographic_shortest_path", recorded)
        r = _Residual(g)
        path, _ = next(r.augmenting_paths())
        [potential] = potentials
        s = r.index["s"]
        tight_heads = [
            r.nodes[r.to[aid]]
            for aid in r.adj[s]
            if r.res[aid] > 0 and r.cost[aid] + potential[r.to[aid]] == potential[s]
        ]
        assert tight_heads == ["m"]
        assert [r.nodes[r.to[aid]] for aid in path] == ["m", "t"]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(tie_graphs())
    def test_arcs_run_in_head_label_order(self, g):
        """The walk keeps the first tight arc per head in ``adj`` order and
        relies on that order being (head label, arc id)."""
        r = _Residual(g)
        for arcs in r.adj:
            keys = [(r.nodes[r.to[aid]], aid) for aid in arcs]
            assert keys == sorted(keys)


class TestTightRounds:
    """A round at goal distance 0 leaves the potentials as they were, so the
    rounds after it try the tight-path walk before any Dijkstra."""

    def test_dijkstra_runs_again_once_no_tight_path_is_left(self, count_calls):
        # s-a-t and s-b-t cost 2, s-c-t costs 4. Round 1 finds distance 2,
        # round 2 distance 0; round 3's walk finds no tight path, so a
        # Dijkstra finds s-c-t, and a fourth finds the sink unreachable.
        g = NetworkGraph.from_edge_list(
            [
                ("a", "s", 1, 1),
                ("a", "t", 1, 1),
                ("b", "s", 1, 1),
                ("b", "t", 1, 1),
                ("c", "s", 1, 2),
                ("c", "t", 1, 2),
            ],
            "s",
            "t",
        )
        dijkstras = count_calls(_Residual, "dijkstra")
        walks = count_calls(_Residual, "lexicographic_shortest_path")
        sol = min_cost_max_flow(g)
        assert_same(sol, reference_min_cost_flow(g, 3))
        assert dijkstras == [4]
        assert walks == [4]

    def test_walk_returns_none_without_a_tight_path(self):
        r = _Residual(CHAIN)
        s, t = r.index["s"], r.index["t"]
        assert r.lexicographic_shortest_path(s, t, [0] * len(r.nodes)) is None

    def test_no_tight_path_to_a_reachable_sink_raises(self, monkeypatch):
        monkeypatch.setattr(
            _Residual, "lexicographic_shortest_path", lambda self, s, t, potential: None
        )
        with pytest.raises(InvariantViolation) as got:
            min_cost_flow(CHAIN, 1)
        assert str(got.value) == "no tight path to a reachable sink"


@st.composite
def pushed_residuals(draw):
    """A ``_Residual`` of a tie-heavy graph, or of the same graph at zero
    cost, after random pushes: along residual source-sink paths and around
    residual cycles, which leaves opposing flow and support cycles."""
    g = draw(tie_graphs())
    if draw(st.booleans()):
        g = NetworkGraph.from_edge_list(
            [(e.a, e.b, e.capacity, 0) for e in g.edges], g.source, g.sink, extra_nodes=g.nodes
        )
    r = _Residual(g)
    rnd = draw(st.randoms(use_true_random=False))
    s, t = r.index[g.source], r.index[g.sink]
    for _ in range(draw(st.integers(0, 8))):
        # Walk from s along arcs with capacity left until the walk reaches t
        # or closes a cycle, then push a random amount along what it found.
        nodes, arcs = [s], []
        while True:
            out = [aid for aid in r.adj[nodes[-1]] if r.res[aid] > 0]
            if not out:
                break
            aid = rnd.choice(out)
            v = r.to[aid]
            if v in nodes:
                cycle = arcs[nodes.index(v) :] + [aid]
                amount = rnd.randint(1, min(r.res[a] for a in cycle))
                for a in cycle:
                    r.res[a] -= amount
                    r.res[a ^ 1] += amount
                break
            nodes.append(v)
            arcs.append(aid)
            if v == t:
                r.push(arcs, rnd.randint(1, min(r.res[a] for a in arcs)))
                break
    return r


class TestCanonicalFlow:
    """``_Residual.solution`` reads each edge's net flow off its arc indices
    and removes cycles on node indices; it must give the flow, or the
    error, of the label-based canonicalization it replaced."""

    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pushed_residuals())
    def test_matches_the_label_canonicalization(self, r):
        try:
            expected = reference_residual_solution(r)
        except InvariantViolation as exc:
            with pytest.raises(InvariantViolation) as got:
                r.solution()
            assert str(got.value) == str(exc)
            return
        assert_same(r.solution(), expected)

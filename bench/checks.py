"""Output checks for benchmark requests, against independent oracles.

Each check takes the request, its parsed JSON report and the workload, and
returns a list of problems (empty when the report is right). Min-cost and
max-flow figures come from networkx, which models each undirected edge of
capacity c as two arcs of capacity c: a min-cost flow never uses both
orientations of one edge, so the optimum is the same.
"""

from __future__ import annotations

import math
from fractions import Fraction

from workloads import Request, lower_networks


class Oracle:
    """networkx max-flow and min-cost figures, cached per document."""

    def __init__(self) -> None:
        import networkx  # imported here so the timed runs never load it

        self._nx = networkx
        self._cache: dict[tuple, int] = {}

    def _digraph(self, doc: dict):
        g = self._nx.DiGraph()
        g.add_nodes_from(doc["nodes"])
        for e in doc["edges"]:
            w = milli(e["cost"])
            g.add_edge(e["a"], e["b"], capacity=e["capacity"], weight=w)
            g.add_edge(e["b"], e["a"], capacity=e["capacity"], weight=w)
        return g

    def _memo(self, key: tuple, compute) -> int:
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def max_flow(self, doc: dict, key: str) -> int:
        return self._memo(
            (key, "max"),
            lambda: self._nx.maximum_flow_value(self._digraph(doc), doc["source"], doc["sink"]),
        )

    def min_cost(self, doc: dict, key: str, target: int) -> int:
        def solve() -> int:
            g = self._digraph(doc)
            g.nodes[doc["source"]]["demand"] = -target
            g.nodes[doc["sink"]]["demand"] = target
            return self._nx.network_simplex(g)[0]

        return self._memo((key, target), solve)


def milli(cost) -> int:
    return int(Fraction(str(cost)) * 1000)


def _flow_report(req: Request, report: dict, doc: dict, oracle: Oracle, net: int) -> list[str]:
    """Conservation, capacity, net flow and optimal cost of a flow report."""
    problems = []
    caps = {frozenset((e["a"], e["b"])): e["capacity"] for e in doc["edges"]}
    costs = {frozenset((e["a"], e["b"])): milli(e["cost"]) for e in doc["edges"]}
    balance = {n: 0 for n in doc["nodes"]}
    used: dict[frozenset, int] = {}
    cost = 0
    for arc in report["arcs"]:
        key = frozenset((arc["from"], arc["to"]))
        if key not in caps or arc["flow"] <= 0:
            return [f"bad arc {arc}"]
        balance[arc["from"]] -= arc["flow"]
        balance[arc["to"]] += arc["flow"]
        used[key] = used.get(key, 0) + arc["flow"]
        cost += arc["flow"] * costs[key]
    over = [sorted(k) for k, f in used.items() if f > caps[k]]
    if over:
        problems.append(f"over capacity on {over[:3]}")
    unbalanced = [n for n, b in balance.items() if b and n not in (doc["source"], doc["sink"])]
    if unbalanced:
        problems.append(f"conservation violated at {unbalanced[:3]}")
    if -balance[doc["source"]] != net or balance[doc["sink"]] != net or report["net_flow"] != net:
        problems.append(f"net flow {report['net_flow']} is not {net}")
    if cost != report["total_cost_milli"]:
        problems.append(f"cost {report['total_cost_milli']} disagrees with its arcs ({cost})")
    optimum = oracle.min_cost(doc, req.input, net)
    if report["total_cost_milli"] != optimum:
        problems.append(f"cost {report['total_cost_milli']} is not the optimum {optimum}")
    return problems


def check_flow(req, result, w, oracle):
    doc = w.docs[req.input]
    if req.command == "maxflow":
        net = oracle.max_flow(doc, req.input)
    else:
        net = int(req.arg("--target"))
    return _flow_report(req, result, doc, oracle, net)


def check_plan(req, result, w, oracle):
    problems = check_flow(req, result["flow"], w, oracle)
    bundles = result["bundles"]
    if sum(b["multiplicity"] for b in bundles) != result["flow"]["net_flow"]:
        problems.append("bundle multiplicities do not sum to the net flow")
    doc = w.docs[req.input]
    if any(b["path"][0] != doc["source"] or b["path"][-1] != doc["sink"] for b in bundles):
        problems.append("a bundle does not join the clients")
    if result["qubits"] != sum(2 * b["multiplicity"] * b["hops"] for b in bundles):
        problems.append("qubit count does not match the bundles")
    return problems


def check_mincut(req, result, w, oracle):
    doc = w.docs[req.input]
    cut = oracle.max_flow(doc, req.input)
    return [] if result["min_cut"] == cut else [f"min-cut {result['min_cut']} is not {cut}"]


def check_price_scan(req, result, w, oracle):
    """The curve covers every feasible target, is convex, and agrees with
    the oracle at its first, middle and last targets."""
    doc = w.docs[req.input]
    cut = oracle.max_flow(doc, req.input)
    curve = result["curve"]
    problems = []
    if [row["target"] for row in curve] != list(range(1, cut + 1)):
        return [f"curve does not cover targets 1..{cut}"]
    costs = [0] + [row["total_cost_milli"] for row in curve]
    steps = [b - a for a, b in zip(costs, costs[1:])]
    if any(b < a for a, b in zip(steps, steps[1:])):
        problems.append("cost curve is not convex")
    for target in sorted({1, (cut + 1) // 2, cut}):
        if costs[target] != oracle.min_cost(doc, req.input, target):
            problems.append(f"cost at target {target} is not optimal")
    prices = [Fraction(c, t) for t, c in enumerate(costs) if t]
    best = min(range(cut), key=lambda i: (prices[i], i))
    if any(Fraction(row["unit_price_milli"]) != prices[i] for i, row in enumerate(curve)):
        problems.append("unit prices disagree with costs")
    if result["best_target"] != best + 1 or Fraction(result["best_unit_price_milli"]) != prices[best]:
        problems.append("best target is not the cheapest per pair")
    return problems


def ladder_pass_probability(paths: list[list[dict]], p: Fraction, *, pair_noise: bool = True) -> Fraction:
    """Closed-form probability that every path copy passes its Bell check.

    A copy whose noise sites each mix the Bell label with probability q_i
    keeps the ideal label with probability P = prod(1 - q_i) and otherwise
    lands on each of the four labels equally, so it passes with
    P + (1 - P) / 4. Pair sites use q = (4/3) delta; each of the hops - 1
    swaps of a copy uses q = p.
    """
    total = Fraction(1)
    for path in paths:
        keep = (1 - p) ** (len(path) - 1)
        if pair_noise:
            for e in path:
                keep *= 1 - Fraction(e["delta"]) * Fraction(4, 3)
        total *= keep + (1 - keep) / 4
    return total


def check_simulate(req, result, w, oracle):
    paths = w.meta[req.input]["paths"]
    p = Fraction(req.arg("--noise-p"))
    trials = int(req.arg("--trials"))
    qubits = 2 * sum(len(path) for path in paths)
    problems = []
    if (result["pairs"], result["qubits"], result["trials"]) != (len(paths), qubits, trials):
        problems.append("pairs, qubits or trials differ from the request")
    pass_p = ladder_pass_probability(paths, p)
    sigma = math.sqrt(trials * pass_p * (1 - pass_p))
    if abs(result["all_pass_count"] - trials * pass_p) > 5 * sigma:
        problems.append(
            f"all_pass_count {result['all_pass_count']} is over 5 sigma from {float(trials * pass_p):.2f}"
        )
    exact = result["exact"]
    if (exact is None) != (qubits > 12):
        return problems + ["exact figures present beyond 12 qubits or missing within"]
    if exact is not None:
        operation = 1 - ladder_pass_probability(paths, p, pair_noise=False)
        generation = sum(Fraction(e["delta"]) for path in paths for e in path)
        want = {
            "pass_probability": pass_p,
            "trace_distance": 1 - pass_p,
            "operation_error": operation,
            "generation_budget": generation,
            "error_bound": generation + operation,
        }
        for key, value in want.items():
            if Fraction(exact[key]) != value:
                problems.append(f"exact {key} {exact[key]} is not {value}")
    return problems


def _plan_nodes(nodes: list[dict], depth: int = 0):
    stack = [(n, depth) for n in nodes]
    while stack:
        node, d = stack.pop()
        yield node, d
        stack.extend((c, d + 1) for c in node["sub"])


def check_concat(req, result, w, oracle):
    doc = w.docs[req.input]
    target = int(req.arg("--target"))
    flat = result["flat"]
    problems = []
    if flat["net_flow"] != target:
        problems.append(f"net flow {flat['net_flow']} is not the target {target}")
    deltas = {frozenset((e["a"], e["b"])): Fraction(e["lower"]["delta_target"]) for e in doc["edges"]}
    generation = sum((deltas[frozenset(k)] for k in flat["active_edges"]), Fraction(0))
    if Fraction(result["budget"]["generation"]) != generation:
        problems.append("generation budget is not the sum of the active delta targets")
    lower_cost = sum(n["uses"] * n["per_use_cost_milli"] for n in result["lower_plan"])
    if result["total_lower_cost_milli"] != lower_cost:
        problems.append("total lower cost is not the sum of uses times per-use cost")
    # Every bottom network is the same base grid, so one oracle answer serves.
    bottom = next(n for n in lower_networks(doc) if "lower" not in n["edges"][0])
    cut = oracle.max_flow(bottom, "bottom:" + req.input)
    optimum = oracle.min_cost(bottom, "bottom:" + req.input, cut)
    wrong = [
        node["edge"]
        for node, depth in _plan_nodes(result["lower_plan"])
        if depth == result["level"] - 1
        and (node["per_use_target"], node["per_use_cost_milli"]) != (cut, optimum)
    ]
    if wrong:
        problems.append(f"bottom edges {wrong[:3]}: per-use figures are not the oracle's")
    return problems


CHECKS = {
    "flow": check_flow,
    "maxflow": check_flow,
    "plan": check_plan,
    "mincut": check_mincut,
    "price-scan": check_price_scan,
    "simulate": check_simulate,
    "concat": check_concat,
}

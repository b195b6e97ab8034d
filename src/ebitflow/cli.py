"""Command-line front end tying the planning pipeline together.

Commands map one-to-one onto the library stages: capacity (``mincut``),
cost-optimal flow (``flow``, ``maxflow``, ``price-scan``), routing and swap
scheduling (``plan``), Clifford simulation (``simulate``), hierarchical
composition (``concat``) and asymptotic rates (``rate``).

Reports are JSON by default, stable-schema and deterministic: two runs with
the same input file and seed produce byte-identical bytes. Costs appear in
milli-units in machine output; the text format divides by 1000 and shows
three decimals. The ``EBITFLOW_FORMAT`` environment variable overrides the
default output format only; flags always win.

Exit codes: 0 success, 2 usage, 3 parse or validation failure, 4
unsatisfiable pair target.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .concat import aggregate_level, load_hierarchical, plan_lower_uses, total_lower_cost
from .errors import EbitflowError, InfeasibleTarget, NegativeTarget, ParseError
from .mincostflow import (
    min_cost_flow,
    min_cost_max_flow,
    solution_dot,
    solution_report,
)
from .netgraph import MILLI, as_fraction, load_network, min_cut
from .pathplan import (
    build_swap_schedule,
    decompose_flow,
    plan_channel_uses,
    serialize_schedule,
)
from .rates import asymptotic_rate, channel_capacity, parse_channel
from .stabsim import (
    EXACT_QUBIT_LIMIT,
    NoiseModel,
    exact_operation_error,
    exact_pass_probability,
    exact_trace_distance,
    fidelity_estimate,
    generation_error_budget,
)
from .yields import parse_yield

SCHEMA_VERSION = 1
TOOL_NAME = "ebitflow"

_FORMATS = ("json", "text", "dot")
_DOT_COMMANDS = frozenset({"flow", "maxflow"})


def _default_format() -> str:
    env = os.environ.get("EBITFLOW_FORMAT")
    return env if env in _FORMATS else "json"


def _read_input(path: str) -> tuple[str, str]:
    """Input file text and its sha256 hex digest."""
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read input file {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input file {path} is not UTF-8: {exc}") from exc
    return text, hashlib.sha256(raw).hexdigest()


def _milli_text(milli: int) -> str:
    return f"{milli // MILLI}.{milli % MILLI:03d}"


def _price_text(price: Fraction | None) -> str:
    if price is None:
        return "n/a"
    return f"{float(price) / MILLI:.3f}"


def _frac(value: Fraction) -> str:
    return str(Fraction(value))


def _flow_text(report: dict) -> str:
    lines = [
        f"net flow: {report['net_flow']}",
        f"total cost: {_milli_text(report['total_cost_milli'])}",
    ]
    price = report["unit_price_milli"]
    lines.append(
        "unit price: "
        + ("n/a" if price is None else _price_text(Fraction(price)))
    )
    lines.append("edges:")
    for e in report["edges"]:
        lines.append(f"  {e['a']}--{e['b']}: {e['flow']}/{e['capacity']}")
    return "\n".join(lines) + "\n"


def _cmd_mincut(args) -> tuple[dict, str, str | None]:
    docu = load_network(args.input_text, default_gen_error=args.delta_default)
    cut = min_cut(docu.graph)
    return {"min_cut": cut}, f"min-cut: {cut}\n", None


def _cmd_flow(args) -> tuple[dict, str, str | None]:
    docu = load_network(args.input_text, default_gen_error=args.delta_default)
    sol = min_cost_flow(docu.graph, args.target)
    report = solution_report(sol)
    return report, _flow_text(report), solution_dot(sol)


def _cmd_maxflow(args) -> tuple[dict, str, str | None]:
    docu = load_network(args.input_text, default_gen_error=args.delta_default)
    sol = min_cost_max_flow(docu.graph)
    report = solution_report(sol)
    return report, _flow_text(report), solution_dot(sol)


def _cmd_price_scan(args) -> tuple[dict, str, str | None]:
    docu = load_network(args.input_text, default_gen_error=args.delta_default)
    g = docu.graph
    capacity = min_cut(g)
    if capacity == 0:
        raise InfeasibleTarget("clients are disconnected; no positive target exists")
    curve = []
    best: tuple[Fraction, int] | None = None
    for target in range(1, capacity + 1):
        sol = min_cost_flow(g, target)
        price = Fraction(sol.total_cost, target)
        curve.append(
            {
                "target": target,
                "total_cost_milli": sol.total_cost,
                "unit_price_milli": _frac(price),
            }
        )
        if best is None or price < best[0]:
            best = (price, target)
    result = {
        "curve": curve,
        "best_target": best[1],
        "best_unit_price_milli": _frac(best[0]),
    }
    lines = [
        f"target {row['target']}: cost {_milli_text(row['total_cost_milli'])}, "
        f"unit price {_price_text(Fraction(row['unit_price_milli']))}"
        for row in curve
    ]
    lines.append(
        f"best target: {best[1]} at unit price {_price_text(best[0])}"
    )
    return result, "\n".join(lines) + "\n", None


def _document_yields(docu):
    return {key: parse_yield(raw) for key, raw in sorted(docu.yields.items())}


def _cmd_plan(args) -> tuple[dict, str, str | None]:
    docu = load_network(args.input_text, default_gen_error=args.delta_default)
    sol = min_cost_flow(docu.graph, args.target)
    bundles = decompose_flow(sol)
    use_plan = plan_channel_uses(docu.graph, sol, _document_yields(docu) or None)
    sched = build_swap_schedule(bundles)
    schedule_text = serialize_schedule(sched)
    result = {
        "flow": solution_report(sol),
        "bundles": [
            {"path": list(b.path), "multiplicity": b.multiplicity, "hops": b.hops}
            for b in bundles
        ],
        "channel_uses": [
            {
                "a": key[0],
                "b": key[1],
                "uses": use_plan.uses[key],
                "achieved": use_plan.achieved[key],
            }
            for key in sorted(use_plan.uses)
        ],
        "schedule": schedule_text.splitlines(),
        "qubits": sched.n_qubits,
        "instruction_counts": sched.counts(),
    }
    lines = [f"net flow: {sol.net_flow}", "paths:"]
    for b in bundles:
        lines.append(f"  {' -> '.join(b.path)} (x{b.multiplicity})")
    lines.append("channel uses:")
    for key in sorted(use_plan.uses):
        lines.append(
            f"  {key[0]}--{key[1]}: {use_plan.uses[key]} use(s) "
            f"for {use_plan.achieved[key]} pair(s)"
        )
    lines.append("schedule:")
    lines.extend(f"  {ln}" for ln in schedule_text.splitlines())
    counts = " ".join(f"{k}={v}" for k, v in sorted(sched.counts().items()))
    lines.append(f"counts: {counts} qubits={sched.n_qubits}")
    return result, "\n".join(lines) + "\n", None


def _cmd_simulate(args) -> tuple[dict, str, str | None]:
    docu = load_network(args.input_text, default_gen_error=args.delta_default)
    g = docu.graph
    sol = min_cost_flow(g, args.target)
    sched = build_swap_schedule(decompose_flow(sol))
    noise = NoiseModel.from_graph(g, swap_depolarize_p=args.noise_p)
    est = fidelity_estimate(sched, noise, trials=args.trials, seed=args.seed)
    result = {
        "pairs": sol.net_flow,
        "qubits": sched.n_qubits,
        "trials": est.trials,
        "all_pass_count": est.all_pass_count,
        "all_pass_rate": est.all_pass_rate,
        "per_pair": [
            {
                "copy": s.copy,
                "passes": s.passes,
                "trials": s.trials,
                "estimate": s.estimate,
                "wilson_low": s.wilson_low,
                "wilson_high": s.wilson_high,
            }
            for s in est.pairs
        ],
        "noise": {
            "swap_depolarize_p": _frac(noise.swap_depolarize_p),
            "pair_error": [
                {"a": k[0], "b": k[1], "q": _frac(q)}
                for k, q in sorted(noise.pair_error.items())
            ],
        },
        "exact": None,
    }
    lines = [
        f"pairs: {sol.net_flow}",
        f"trials: {est.trials}",
        f"all-pass: {est.all_pass_count}/{est.trials} ({est.all_pass_rate:.4f})",
    ]
    for s in est.pairs:
        lines.append(
            f"pair {s.copy}: {s.passes}/{s.trials} ({s.estimate:.4f}, "
            f"95% CI {s.wilson_low:.4f}..{s.wilson_high:.4f})"
        )
    if sched.n_qubits <= EXACT_QUBIT_LIMIT:
        pass_p = exact_pass_probability(sched, noise)
        trace = exact_trace_distance(sched, noise)
        op_err = exact_operation_error(sched, noise)
        gen = generation_error_budget(g, sol.active_edges)
        bound = gen + op_err
        result["exact"] = {
            "pass_probability": _frac(pass_p),
            "pass_probability_float": float(pass_p),
            "trace_distance": _frac(trace),
            "trace_distance_float": float(trace),
            "operation_error": _frac(op_err),
            "operation_error_float": float(op_err),
            "generation_budget": _frac(gen),
            "generation_budget_float": float(gen),
            "error_bound": _frac(bound),
            "error_bound_float": float(bound),
        }
        lines.append(f"exact pass probability: {float(pass_p):.6f} ({pass_p})")
        lines.append(f"exact trace distance: {float(trace):.6f} ({trace})")
        lines.append(f"operation error: {float(op_err):.6f} ({op_err})")
        lines.append(f"generation budget: {float(gen):.6f} ({gen})")
        lines.append(f"error bound: {float(bound):.6f} ({bound})")
    return result, "\n".join(lines) + "\n", None


def _plan_node_json(node) -> dict:
    return {
        "edge": list(node.edge),
        "pairs": node.pairs,
        "uses": node.uses,
        "per_use_target": node.per_use_target,
        "per_use_cost_milli": node.per_use_cost,
        "total_uses": node.total_uses,
        "lower_error": _frac(node.lower_error),
        "sub": [_plan_node_json(c) for c in node.sub],
    }


def _plan_node_text(node, indent: int, out: list) -> None:
    pad = "  " * indent
    out.append(
        f"{pad}{node.edge[0]}--{node.edge[1]}: {node.pairs} pair(s) via "
        f"{node.uses} use(s), total {node.total_uses} run(s) "
        f"(per-use target {node.per_use_target} @ {_milli_text(node.per_use_cost)})"
    )
    for c in node.sub:
        _plan_node_text(c, indent + 1, out)


def _cmd_concat(args) -> tuple[dict, str, str | None]:
    net = load_hierarchical(args.input_text)
    res = aggregate_level(net, args.target, swap_depolarize_p=args.noise_p)
    lower = plan_lower_uses(net, res.solution)
    lower_cost = total_lower_cost(net, res.solution)
    budget = res.budget
    result = {
        "level": net.level,
        "flat": solution_report(res.solution),
        "cost_milli": res.cost,
        "budget": {
            "generation": _frac(budget.generation),
            "generation_float": float(budget.generation),
            "operation": _frac(budget.operation),
            "operation_float": float(budget.operation),
            "total": _frac(budget.total),
            "total_float": float(budget.total),
        },
        "lower_plan": [_plan_node_json(n) for n in lower],
        "total_lower_cost_milli": lower_cost,
    }
    lines = [
        f"level: {net.level}",
        f"net flow: {res.solution.net_flow}",
        f"cost: {_milli_text(res.cost)}",
        f"generation budget: {float(budget.generation):.6f} ({budget.generation})",
        f"operation error: {float(budget.operation):.6f} ({budget.operation})",
        f"total error bound: {float(budget.total):.6f} ({budget.total})",
        "lower plan:",
    ]
    for n in lower:
        _plan_node_text(n, 1, lines)
    lines.append(f"total lower cost: {_milli_text(lower_cost)}")
    return result, "\n".join(lines) + "\n", None


def _cmd_rate(args) -> tuple[dict, str, str | None]:
    docu = load_network(args.input_text, default_gen_error=args.delta_default)
    models = {key: parse_channel(raw) for key, raw in sorted(docu.channels.items())}
    rate = asymptotic_rate(docu.graph, models)
    edges = []
    for key in sorted(models):
        m = models[key]
        cap = float(channel_capacity(m))
        edges.append(
            {
                "a": key[0],
                "b": key[1],
                "kind": m.kind,
                "use_rate": float(m.use_rate),
                "capacity_per_use": cap,
                "weight": float(m.use_rate) * cap,
            }
        )
    result = {"rate_ebits": rate, "edges": edges}
    lines = [f"asymptotic rate: {rate:.9f} ebits"]
    for e in edges:
        lines.append(
            f"{e['a']}--{e['b']}: weight {e['weight']:.9f} "
            f"({e['use_rate']:.6g} uses x {e['capacity_per_use']:.9f} ebits/use)"
        )
    return result, "\n".join(lines) + "\n", None


_HANDLERS = {
    "mincut": _cmd_mincut,
    "flow": _cmd_flow,
    "maxflow": _cmd_maxflow,
    "price-scan": _cmd_price_scan,
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "concat": _cmd_concat,
    "rate": _cmd_rate,
}


def _fraction_arg(text: str) -> Fraction:
    try:
        return as_fraction(text, "value")
    except EbitflowError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Plan and verify Bell-pair distribution over quantum networks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"{TOOL_NAME} {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="network document (JSON file)")
    common.add_argument(
        "--format",
        choices=_FORMATS,
        default=_default_format(),
        help="output format (default json; dot only for flow and maxflow)",
    )
    common.add_argument("--output", help="write the report here instead of stdout")
    common.add_argument(
        "--seed", type=int, default=0, help="random seed recorded in every report"
    )
    common.add_argument(
        "--delta-default",
        type=_fraction_arg,
        default=None,
        metavar="DELTA",
        help="generation error for edges without an explicit delta",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, target: bool = False, noise: bool = False):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if target:
            p.add_argument(
                "--target", type=int, required=True, help="end-to-end pairs to deliver"
            )
        if noise:
            p.add_argument(
                "--noise-p",
                type=_fraction_arg,
                default=Fraction(0),
                metavar="P",
                help="two-qubit depolarizing probability at each swap",
            )
        return p

    add("mincut", "maximum deliverable pairs between the clients")
    add("flow", "cheapest flow delivering the target", target=True)
    add("maxflow", "cheapest flow at full capacity")
    add("price-scan", "cost-per-pair curve over all feasible targets")
    add("plan", "paths, channel uses and swap schedule", target=True)
    sim = add("simulate", "Monte-Carlo stabilizer check of a plan", target=True, noise=True)
    sim.add_argument(
        "--trials", type=int, default=1000, help="Monte-Carlo trials (default 1000)"
    )
    add("concat", "flatten and plan a hierarchical network", target=True, noise=True)
    add("rate", "asymptotic entanglement rate from channel models")
    return parser


def _params(args) -> dict:
    out = {}
    for name in ("target", "trials"):
        if hasattr(args, name):
            out[name] = getattr(args, name)
    if hasattr(args, "noise_p"):
        out["noise_p"] = _frac(args.noise_p)
    if args.delta_default is not None:
        out["delta_default"] = _frac(args.delta_default)
    return out


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "dot" and args.command not in _DOT_COMMANDS:
        parser.error(f"dot output is not defined for {args.command}")
    try:
        args.input_text, digest = _read_input(args.input)
        result, text, dot = _HANDLERS[args.command](args)
    except (NegativeTarget, InfeasibleTarget) as exc:
        return _fail(exc, 4)
    except EbitflowError as exc:
        return _fail(exc, 3)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": __version__},
            "command": args.command,
            "input_sha256": digest,
            "seed": args.seed,
            "params": _params(args),
            "result": result,
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.output)
    elif args.format == "text":
        _emit(text, args.output)
    else:
        _emit(dot, args.output)
    return 0


def _fail(exc: EbitflowError, code: int) -> int:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

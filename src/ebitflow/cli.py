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

A request makes no reference cycles, so ``main`` pauses Python's cyclic
garbage collector while it runs: the collector's passes would find nothing
to free. A one-request process enters through ``ebitflow.__main__.main``,
which keeps the collector off from import to exit.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

from . import _EXPORTS, _OWNER, __version__
from .errors import (
    EbitflowError,
    InfeasibleTarget,
    NegativeTarget,
    ParseError,
    TooLarge,
    ValidationError,
)
from .netgraph import (
    MILLI,
    _frac,
    _is_probability,
    _milli_text,
    _too_long,
    as_fraction,
    load_network,
    min_cut,
)


def _bind(module: str) -> None:
    """Import ``module`` and bind its public names (``ebitflow._EXPORTS``)
    here, so a process imports only the modules its command uses. A name
    already bound, e.g. replaced from outside by a tracer, stays as it is."""
    qualified = f"{__package__}.{module}"
    # The import statement's path, which ``python -X importtime`` reports.
    __import__(qualified)
    source = sys.modules[qualified]
    namespace = globals()
    for name in _EXPORTS[module]:
        namespace.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_OWNER[name])
    return globals()[name]


SCHEMA_VERSION = 1
TOOL_NAME = "ebitflow"
# The most Monte-Carlo trials one ``simulate`` request may ask for.
MAX_TRIALS = 10**7

_FORMATS = ("json", "text", "dot")
_DOT_COMMANDS = frozenset({"flow", "maxflow"})


def _default_format(command: str) -> str:
    env = os.environ.get("EBITFLOW_FORMAT")
    usable = _FORMATS if command in _DOT_COMMANDS else ("json", "text")
    return env if env in usable else "json"


def _read_input(path: str) -> tuple[bytes, str]:
    """Input file bytes, checked to be UTF-8, and their sha256 hex digest.

    The loaders take the bytes as the document itself: text could also be
    read as the name of another file.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read input file {path}: {exc}") from exc
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input file {path} is not UTF-8: {exc}") from exc
    return raw, hashlib.sha256(raw).hexdigest()


def _price_text(price: Fraction | None) -> str:
    if price is None:
        return "n/a"
    try:
        return f"{float(price) / MILLI:.3f}"
    except OverflowError:
        # Beyond float range: exact to the milli-unit instead.
        return _milli_text(round(price))


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


# Each handler returns the JSON result and, for --format text or dot, the
# report in that format. ``main`` writes JSON reports itself; the text and
# DOT renders run only when they are printed.


def _cmd_mincut(args) -> tuple[dict, str | None]:
    docu = load_network(args.input_bytes, default_gen_error=args.delta_default)
    cut = min_cut(docu.graph)
    return {"min_cut": cut}, f"min-cut: {cut}\n"


def _flow_output(args, sol) -> tuple[dict, str | None]:
    report = solution_report(sol)
    if args.format == "dot":
        return report, solution_dot(sol)
    return report, _flow_text(report) if args.format == "text" else None


def _cmd_flow(args) -> tuple[dict, str | None]:
    docu = load_network(args.input_bytes, default_gen_error=args.delta_default)
    return _flow_output(args, min_cost_flow(docu.graph, args.target))


def _cmd_maxflow(args) -> tuple[dict, str | None]:
    docu = load_network(args.input_bytes, default_gen_error=args.delta_default)
    return _flow_output(args, min_cost_max_flow(docu.graph))


def _cmd_price_scan(args) -> tuple[dict, str | None]:
    docu = load_network(args.input_bytes, default_gen_error=args.delta_default)
    costs, best_target = price_curve(docu.graph)
    best_price = Fraction(costs[best_target - 1], best_target)
    rows = [
        {
            "target": target,
            "total_cost_milli": cost,
            "unit_price_milli": _frac(Fraction(cost, target)),
        }
        for target, cost in enumerate(costs, 1)
    ]
    result = {
        "curve": rows,
        "best_target": best_target,
        "best_unit_price_milli": _frac(best_price),
    }
    if args.format == "json":
        return result, None
    lines = [
        f"target {row['target']}: cost {_milli_text(row['total_cost_milli'])}, "
        f"unit price {_price_text(Fraction(row['unit_price_milli']))}"
        for row in rows
    ]
    lines.append(
        f"best target: {best_target} at unit price {_price_text(best_price)}"
    )
    return result, "\n".join(lines) + "\n"


def _document_yields(docu):
    return {key: parse_yield(raw) for key, raw in sorted(docu.yields.items())}


def _cmd_plan(args) -> tuple[dict, str | None]:
    docu = load_network(args.input_bytes, default_gen_error=args.delta_default)
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
    if args.format == "json":
        return result, None
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
    return result, "\n".join(lines) + "\n"


def _cmd_simulate(args) -> tuple[dict, str | None]:
    docu = load_network(args.input_bytes, default_gen_error=args.delta_default)
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
            "pair_error": _pair_error_rows(noise.pair_error),
        },
        "exact": None,
    }
    if sched.n_qubits <= EXACT_QUBIT_LIMIT:
        pass_p, op_err = exact_figures(sched, noise)
        trace = 1 - pass_p
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
    if args.format == "json":
        return result, None
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
    exact = result["exact"]
    if exact is not None:
        for label, key in (
            ("exact pass probability", "pass_probability"),
            ("exact trace distance", "trace_distance"),
            ("operation error", "operation_error"),
            ("generation budget", "generation_budget"),
            ("error bound", "error_bound"),
        ):
            lines.append(f"{label}: {exact[key + '_float']:.6f} ({exact[key]})")
    return result, "\n".join(lines) + "\n"


def _pair_error_rows(pair_error) -> list[dict]:
    """One report row per noisy edge, in key order; each distinct figure is
    written once."""
    texts: dict[tuple[int, int], str] = {}
    rows = []
    for (a, b), q in sorted(pair_error.items()):
        ints = q.numerator, q.denominator
        text = texts.get(ints)
        if text is None:
            text = texts[ints] = _frac(q)
        rows.append({"a": a, "b": b, "q": text})
    return rows


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


def _cmd_concat(args) -> tuple[dict, str | None]:
    net = load_hierarchical(args.input_bytes)
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
    if args.format == "json":
        return result, None
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
    return result, "\n".join(lines) + "\n"


def _cmd_rate(args) -> tuple[dict, str | None]:
    docu = load_network(args.input_bytes, default_gen_error=args.delta_default)
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
    if args.format == "json":
        return result, None
    lines = [f"asymptotic rate: {rate:.9f} ebits"]
    for e in edges:
        lines.append(
            f"{e['a']}--{e['b']}: weight {e['weight']:.9f} "
            f"({e['use_rate']:.6g} uses x {e['capacity_per_use']:.9f} ebits/use)"
        )
    return result, "\n".join(lines) + "\n"


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
# The modules whose names each handler calls.
_COMMAND_MODULES = {
    "mincut": (),
    "flow": ("mincostflow",),
    "maxflow": ("mincostflow",),
    "price-scan": ("mincostflow",),
    "plan": ("mincostflow", "pathplan", "yields"),
    "simulate": ("mincostflow", "pathplan", "stabsim"),
    "concat": ("mincostflow", "concat"),
    "rate": ("rates",),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing, usage errors
    and ``--version`` leave it as it was."""
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
        help="output format (default json; dot only for flow and maxflow)",
    )
    common.add_argument("--output", help="write the report here instead of stdout")
    common.add_argument(
        "--seed", type=int, default=0, help="random seed recorded in every report"
    )
    common.add_argument(
        "--delta-default",
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


_CONTAINERS = (dict, list, tuple)
# Exact types: a subclass, even of str or int, takes the walked path.
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _encoder(depth: int):
    """``encode`` of a C-backed encoder whose item separator carries the
    newline and indent of ``depth`` levels, as ``indent=2`` writes them."""
    return json.JSONEncoder(
        sort_keys=True, separators=(",\n" + "  " * depth, ": ")
    ).encode


def _scalars(items) -> bool:
    """Whether every item is a str, int, float, bool or None."""
    return set(map(type, items)) <= _SCALARS


def _rows(value: list | tuple) -> str | None:
    """``"}{"`` when ``value`` holds only non-empty dicts of scalars, ``"]["``
    when it holds only non-empty lists (or tuples) of scalars, else None."""
    kinds = set(map(type, value))
    if kinds == {dict}:
        brackets, leaves = "}{", chain.from_iterable(map(dict.values, value))
    elif kinds <= {list, tuple}:
        brackets, leaves = "][", chain.from_iterable(value)
    else:
        return None
    return brackets if all(value) and _scalars(leaves) else None


def _key_text(key) -> str:
    """A dict key as ``json.dumps`` writes it."""
    if isinstance(key, str):
        return _encoder(0)(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _encoder(0)(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    That call runs the pure-Python encoder. Here the C encoder writes each
    container whose items are no containers in one call, and each list of
    such dicts (or lists) in one call too; only the containers above them
    are walked in Python.
    """
    out: list[str] = []
    try:
        _write(value, 0, out)
    except ValueError as exc:
        # The encoder's one ValueError on a report: an int figure, such as
        # a cost multiplied level by level in a hierarchy, with more digits
        # than Python writes.
        raise _too_long() from exc
    return "".join(out)


def _write(value, depth: int, out: list[str]) -> None:
    """Append the text of ``value``, whose last line is indented ``depth``
    levels, to ``out``."""
    if not isinstance(value, _CONTAINERS) or not value:
        out.append(_encoder(depth)(value))
        return
    pad = "\n" + "  " * depth
    inner = pad + "  "
    is_dict = isinstance(value, dict)
    if _scalars(value.values() if is_dict else value):
        text = _encoder(depth + 1)(value)
        out.append(text[0] + inner + text[1:-1] + pad + text[-1])
        return
    if is_dict:
        out.append("{")
        sep = inner
        for key, item in sorted(value.items()):
            out.append(sep + _key_text(key) + ": ")
            _write(item, depth + 1, out)
            sep = "," + inner
        out.append(pad + "}")
        return
    brackets = _rows(value)
    if brackets:
        # Written at the items' inner depth, the item boundaries come out
        # as `},\n<indent>{` (or `],\n<indent>[`). Every other separator is
        # followed by a key or a scalar, and no string holds a raw newline,
        # so only the boundaries match.
        close, open_ = brackets
        text = _encoder(depth + 2)(value)
        deep = inner + "  "
        body = text[2:-2].replace(
            close + "," + deep + open_, inner + close + "," + inner + open_ + deep
        )
        out.append("[" + inner + open_ + deep + body + inner + close + pad + "]")
        return
    out.append("[")
    sep = inner
    for item in value:
        out.append(sep)
        _write(item, depth + 1, out)
        sep = "," + inner
    out.append(pad + "]")


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise ParseError(f"cannot write output file {output}: {exc}") from exc
        return
    stdout = sys.stdout
    if stdout is None:
        raise ParseError("cannot write to stdout: it is closed")
    try:
        stdout.write(text)
        stdout.flush()
    except (OSError, ValueError) as exc:
        _drop(stdout)
        raise ParseError(f"cannot write to stdout: {exc}") from exc


def _drop(stream) -> None:
    """Point ``stream``'s descriptor at the null device, so the bytes still
    buffered go nowhere when the interpreter flushes at exit, instead of
    failing there a second time."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


def main(argv=None) -> int:
    """Run one request and return its exit code.

    The cyclic garbage collector is paused for the call, since a request
    makes no reference cycles, and is left as the caller had it on every
    way out, ``SystemExit`` from a usage error included.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if was_enabled:
            gc.enable()


def _main(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "dot" and args.command not in _DOT_COMMANDS:
        parser.error(f"dot output is not defined for {args.command}")
    if args.command == "concat" and args.delta_default is not None:
        parser.error("concat does not apply --delta-default")
    args.format = args.format or _default_format(args.command)
    try:
        # Flag numbers are read here, so a bad one is invalid input (exit 3).
        for name in ("delta_default", "noise_p"):
            value = getattr(args, name, None)
            if value is not None:
                setattr(args, name, as_fraction(value, "--" + name.replace("_", "-")))
        if args.delta_default is not None and not _is_probability(args.delta_default):
            raise ValidationError("--delta-default: outside [0, 1]")
        if getattr(args, "trials", 0) > MAX_TRIALS:
            raise TooLarge(f"--trials: more than {MAX_TRIALS}")
        args.input_bytes, digest = _read_input(args.input)
        for module in _COMMAND_MODULES[args.command]:
            _bind(module)
        result, text = _HANDLERS[args.command](args)
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
            text = _json_text(doc) + "\n"
        _emit(text, args.output)
    except (NegativeTarget, InfeasibleTarget) as exc:
        return _fail(exc, 4)
    except EbitflowError as exc:
        return _fail(exc, 3)
    return 0


def _fail(exc: EbitflowError, code: int) -> int:
    """Write ``exc`` to stderr as a JSON error object and return ``code``,
    also when stderr is closed or cannot be written."""
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    stderr = sys.stderr
    if stderr is not None:
        try:
            stderr.write(_json_text(doc) + "\n")
            stderr.flush()
        except (OSError, ValueError):
            _drop(stderr)
    return code

"""Seeded input generators for the four benchmark workloads.

Every workload is a fixed cycle of CLI requests over generated network
documents. The seed changes capacities, costs, noise levels and simulator
seeds but never the shape of the cycle, so runs with different seeds do
the same kind and amount of work and their figures can be compared.

Why each workload exists:

* ``route``: k x k grids and chains through ``flow``, ``plan``, ``maxflow``
  and ``price-scan``. ``netgraph``, ``mincostflow`` and ``pathplan`` do
  almost all the work; ``stabsim`` and ``concat`` do none.
* ``sim-verify``: ``simulate`` with swap and pair noise on parallel-path
  ladders of 4, 12, 48 and 198 qubits. ``stabsim`` does almost all the work.
* ``hier-concat``: ``concat`` with noise on hierarchies of depth 2 and 4
  whose bottom networks are copies of one base grid. Many small repeated
  lower solves, unlike the few large ones of ``route``.
* ``cli-small``: every command on small documents, one ``python -m
  ebitflow`` process per request, so start-up and imports are measured.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``ebitflow <command> --input <file> <args...>``."""

    command: str
    input: str
    args: tuple[str, ...] = ()

    def argv(self, workdir: Path) -> list[str]:
        return [self.command, "--input", str(workdir / self.input), *self.args]

    @property
    def json_output(self) -> bool:
        return "--format" not in self.args

    def arg(self, name: str) -> str | None:
        if name in self.args:
            return self.args[self.args.index(name) + 1]
        return None


@dataclass
class Workload:
    """Generated inputs plus the request cycle that runs over them."""

    in_process: bool
    docs: dict[str, dict] = field(default_factory=dict)
    cycle: list[Request] = field(default_factory=list)
    warmup: list[Request] = field(default_factory=list)
    # Requests that fail at present through a known defect of the program.
    # They run once per run, outside the timed window, and are reported on
    # their own; once they succeed, their output is checked like any other.
    defects: list[Request] = field(default_factory=list)
    # Per-document facts the checks need that the document does not state
    # directly, such as the parallel paths of a ladder.
    meta: dict[str, dict] = field(default_factory=dict)

    def files(self) -> dict[str, bytes]:
        return {
            name: (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
            for name, doc in sorted(self.docs.items())
        }

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, data in self.files().items():
            (workdir / name).write_bytes(data)


def _cost(rng: random.Random, lo: int = 1, hi: int = 2000) -> float:
    # Milli-unit costs written as decimals, e.g. 1.234 means 1234 milli.
    return rng.randint(lo, hi) / 1000


def grid(
    rng: random.Random,
    k: int,
    *,
    source: str = "s",
    sink: str = "t",
    prefix: str = "g",
    cap: tuple[int, int] = (1, 6),
    attach: tuple[int, int] = (1, 4),
) -> tuple[dict, int]:
    """k x k grid with the source on the left column and the sink on the right.

    Returns the document and a lower bound on its min-cut: every row can
    carry the smallest capacity along it on its own.
    """
    def n(i: int, j: int) -> str:
        return f"{prefix}{i}_{j}"

    nodes = [source, sink] + [n(i, j) for i in range(k) for j in range(k)]
    edges = []
    lower_bound = 0
    for i in range(k):
        a_s, a_t = rng.randint(*attach), rng.randint(*attach)
        edges.append({"a": source, "b": n(i, 0), "capacity": a_s, "cost": _cost(rng)})
        edges.append({"a": n(i, k - 1), "b": sink, "capacity": a_t, "cost": _cost(rng)})
        row = [a_s, a_t]
        for j in range(k):
            if j + 1 < k:
                c = rng.randint(*cap)
                row.append(c)
                edges.append({"a": n(i, j), "b": n(i, j + 1), "capacity": c, "cost": _cost(rng)})
            if i + 1 < k:
                edges.append(
                    {"a": n(i, j), "b": n(i + 1, j), "capacity": rng.randint(*cap), "cost": _cost(rng)}
                )
        lower_bound += min(row)
    return {"nodes": nodes, "edges": edges, "source": source, "sink": sink}, lower_bound


def chain(rng: random.Random, hops: int) -> tuple[dict, int]:
    """A path of ``hops`` edges; returns the document and its min-cut."""
    nodes = [f"c{i}" for i in range(hops + 1)]
    caps = [rng.randint(2, 5) for _ in range(hops)]
    edges = [
        {"a": nodes[i], "b": nodes[i + 1], "capacity": caps[i], "cost": _cost(rng)}
        for i in range(hops)
    ]
    return {"nodes": nodes, "edges": edges, "source": nodes[0], "sink": nodes[-1]}, min(caps)


def ladder(rng: random.Random, paths: int, hops: int) -> tuple[dict, list[list[dict]]]:
    """``paths`` disjoint source-sink paths of ``hops`` unit-capacity edges,
    each with its own generation-error budget. Returns the document and the
    edges of each path."""
    nodes = ["s", "t"]
    edges = []
    by_path = []
    for p in range(paths):
        labels = ["s"] + [f"p{p}_{j}" for j in range(1, hops)] + ["t"]
        nodes.extend(labels[1:-1])
        path = [
            {
                "a": labels[j],
                "b": labels[j + 1],
                "capacity": 1,
                "cost": 1,
                "delta": f"{rng.randint(1, 9)}/1000",
            }
            for j in range(hops)
        ]
        edges.extend(path)
        by_path.append(path)
    return {"nodes": nodes, "edges": edges, "source": "s", "sink": "t"}, by_path


def _route(rng: random.Random) -> Workload:
    w = Workload(in_process=True)
    # One grid per size from 8 to 22, so request costs form a continuum and
    # the upper percentiles do not hinge on one or two inputs. Fixed client
    # links make the min-cut almost always 2k, so the work per request
    # barely depends on the seed. Every row carries at least one pair, so a
    # target of k is always feasible.
    sizes = range(8, 23)
    for k in sizes:
        w.docs[f"g{k}.json"], _ = grid(rng, k, attach=(2, 2))
    w.docs["g30.json"], _ = grid(rng, 30, attach=(2, 2))
    # A small grid with wide links: a long price curve from cheap solves.
    w.docs["hc6.json"], _ = grid(rng, 6, cap=(6, 12), attach=(7, 7))
    cuts = {}
    for hops in (10, 100, 1000):
        w.docs[f"chain{hops}.json"], cuts[hops] = chain(rng, hops)

    def req(command, name, *args):
        w.cycle.append(Request(command, f"{name}.json", tuple(args)))

    for k in sizes:
        req("flow", f"g{k}", "--target", str(k))
        req("maxflow", f"g{k}")
        if k % 2 == 0:
            req("plan", f"g{k}", "--target", str(k // 2))
    req("flow", "g30", "--target", "15")
    for name in ("g8", "g9", "g10", "g11", "hc6"):
        req("price-scan", name)
    for hops in (10, 100):
        req("flow", f"chain{hops}", "--target", str(cuts[hops]))
        req("plan", f"chain{hops}", "--target", str(cuts[hops]))
        req("maxflow", f"chain{hops}")
        req("price-scan", f"chain{hops}")
    rng.shuffle(w.cycle)
    # The 1000-hop chain overflows the recursion limit of the recursive
    # Dinic augment; it stays at this size so the defect shows until fixed.
    w.defects = [
        Request("flow", "chain1000.json", ("--target", str(cuts[1000]))),
        Request("maxflow", "chain1000.json"),
    ]
    w.warmup = [
        Request("flow", "chain10.json", ("--target", "1")),
        Request("plan", "chain10.json", ("--target", "1")),
        Request("maxflow", "g8.json"),
        Request("price-scan", "chain10.json"),
    ]
    return w


# Qubit class -> (parallel paths, hops per path, trials per request). The
# trial counts give every class a similar share of the run's time.
LADDERS = {
    "q4": (1, 2, 240),
    "q12": (2, 3, 80),
    "q48": (4, 6, 16),
    "q198": (9, 11, 2),
}
NOISE_P = ("1/200", "1/100", "1/50")


def _sim_verify(rng: random.Random) -> Workload:
    w = Workload(in_process=True)
    # Four documents per class, so the median falls among many requests of
    # similar cost rather than between two.
    for cls, (paths, hops, trials) in LADDERS.items():
        for copy in "abcd":
            name = f"{cls}{copy}.json"
            w.docs[name], by_path = ladder(rng, paths, hops)
            w.meta[name] = {"paths": by_path}
            w.cycle.append(
                Request(
                    "simulate",
                    name,
                    (
                        "--target", str(paths),
                        "--trials", str(trials),
                        "--noise-p", rng.choice(NOISE_P),
                        "--seed", str(rng.randint(0, 2**31)),
                    ),
                )
            )
    rng.shuffle(w.cycle)
    w.warmup = [
        Request("simulate", f"{cls}a.json", ("--target", str(p), "--trials", "1", "--noise-p", "1/100"))
        for cls, (p, _, _) in LADDERS.items()
    ]
    return w


# Shape of every wrapped level: internal nodes and edges between the two
# clients ``x`` and ``y``.
SHAPES = {
    "diamond": (("u", "v"), (("x", "u"), ("u", "y"), ("x", "v"), ("v", "y"))),
    "chain2": (("m",), (("x", "m"), ("m", "y"))),
}


def hierarchy(rng: random.Random, depth: int, shape: str, base_k: int) -> dict:
    """A depth-``depth`` hierarchy whose every wrapped level has ``shape`` and
    whose bottom networks are one base grid relabelled at the clients.

    Lower-edge parameters are drawn once per level, so every lower network
    of a level duplicates the others up to its client labels.
    """
    base, _ = grid(rng, base_k, source="@x", sink="@y", prefix="b", attach=(2, 2))
    base_text = json.dumps(base)
    params = {
        level: {
            "yield": {"kind": "linear-floor", "rate": rng.choice(("1/2", "2/3", "1"))},
            "max_uses": rng.randint(6, 10),
            "delta_target": f"{rng.randint(1, 9)}/1000",
        }
        for level in range(1, depth + 1)
    }
    inner, shape_edges = SHAPES[shape]

    def build(level: int, x: str, y: str) -> dict:
        if level == 0:
            return json.loads(base_text.replace('"@x"', json.dumps(x)).replace('"@y"', json.dumps(y)))
        label = {"x": x, "y": y, **{n: f"L{level}{n}" for n in inner}}
        edges = [
            {
                "a": label[a],
                "b": label[b],
                "lower": {"network": build(level - 1, label[a], label[b]), **params[level]},
            }
            for a, b in shape_edges
        ]
        return {"nodes": [label[n] for n in ("x", *inner, "y")], "edges": edges, "source": x, "sink": y}

    return build(depth, "A", "Z")


def lower_networks(doc: dict) -> list[dict]:
    """Every network wrapped by an edge, at any depth, in document order."""
    out = []
    stack = [doc]
    while stack:
        net = stack.pop()
        for e in net["edges"]:
            if "lower" in e:
                out.append(e["lower"]["network"])
                stack.append(e["lower"]["network"])
    return out


def canonical(net: dict) -> str:
    """A network's JSON with its two client labels replaced by placeholders."""
    names = {net["source"]: "\x00source", net["sink"]: "\x00sink"}

    def relabel(obj):
        if isinstance(obj, str):
            return names.get(obj, obj)
        if isinstance(obj, list):
            return [relabel(v) for v in obj]
        if isinstance(obj, dict):
            return {k: relabel(v) for k, v in obj.items()}
        return obj

    return json.dumps(relabel(net), sort_keys=True)


def _hier_concat(rng: random.Random) -> Workload:
    w = Workload(in_process=True)
    # Four documents for every depth and base-grid size: the base size sets
    # the cost tier, and with eight documents in each tier the percentiles
    # fall inside a tier instead of between two documents.
    for depth, shape in ((2, "diamond"), (4, "chain2")):
        for base_k in (4, 5, 6):
            for copy in "abcd":
                name = f"d{depth}k{base_k}{copy}.json"
                w.docs[name] = hierarchy(rng, depth, shape, base_k)
                w.cycle.append(
                    Request(
                        "concat",
                        name,
                        ("--target", str(rng.choice((2, 3))), "--noise-p", rng.choice(NOISE_P)),
                    )
                )
    rng.shuffle(w.cycle)
    w.warmup = [Request("concat", "d2k4a.json", ("--target", "1", "--noise-p", "1/100"))]
    return w


def rate_network(rng: random.Random, interior: int) -> dict:
    """A connected random network of ``interior`` + 2 nodes with channel
    models: explicit rational capacities and pure-loss channels."""
    labels = ["s", "t"] + [f"r{i}" for i in range(interior)]
    edges = {}
    order = labels[:1] + labels[2:] + labels[1:2]
    for a, b in zip(order, order[1:]):
        edges[(a, b)] = None
    while len(edges) < 2 * len(labels):
        a, b = rng.sample(labels, 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges[(a, b)] = None
    out = []
    for a, b in edges:
        if rng.random() < 0.5:
            channel = {"kind": "explicit", "Q": f"{rng.randint(1, 9)}/4", "rate": rng.randint(1, 3)}
        else:
            channel = {"kind": "pure-loss", "eta": f"{rng.randint(1, 9)}/10", "rate": rng.randint(1, 3)}
        out.append({"a": a, "b": b, "capacity": rng.randint(1, 4), "cost": _cost(rng), "channel": channel})
    return {"nodes": labels, "edges": out, "source": "s", "sink": "t"}


def _cli_small(rng: random.Random) -> Workload:
    w = Workload(in_process=False)
    w.docs["g4.json"], bound = grid(rng, 4)
    w.docs["lad.json"], by_path = ladder(rng, 1, 2)
    w.meta["lad.json"] = {"paths": by_path}
    w.docs["h1.json"] = hierarchy(rng, 1, "diamond", base_k=3)
    w.docs["r12.json"] = rate_network(rng, 10)
    target = str(max(1, bound // 2))
    w.cycle = [
        Request("mincut", "g4.json"),
        Request("flow", "g4.json", ("--target", target)),
        Request("flow", "g4.json", ("--target", target, "--format", "dot")),
        Request("maxflow", "g4.json"),
        Request("price-scan", "g4.json"),
        Request("plan", "g4.json", ("--target", target)),
        Request("plan", "g4.json", ("--target", target, "--format", "text")),
        Request(
            "simulate", "lad.json",
            ("--target", "1", "--trials", "50", "--noise-p", rng.choice(NOISE_P), "--seed", str(rng.randint(0, 2**31))),
        ),
        Request("concat", "h1.json", ("--target", "2", "--noise-p", rng.choice(NOISE_P))),
        Request("rate", "r12.json"),
    ]
    w.warmup = [Request("mincut", "g4.json")]
    return w


_GENERATORS = {
    "route": _route,
    "sim-verify": _sim_verify,
    "hier-concat": _hier_concat,
    "cli-small": _cli_small,
}
WORKLOADS = tuple(_GENERATORS)


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; equal arguments give equal inputs."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}"))

"""Graph model for entanglement distribution networks.

A network is an undirected graph whose edges carry an integer Bell-pair
capacity, a unit cost per delivered pair (an integer in milli-cost units), a
rational generation-error budget, and an optional bound on channel uses.
Two distinguished nodes, ``source`` and ``sink``, are the clients requesting
end-to-end entanglement.

All types in this module are immutable after construction and safe to share
across threads. All functions are pure.

Network documents are JSON objects with the exact shape::

    {
      "nodes": ["s", "r", "t"],
      "edges": [
        {"a": "s", "b": "r", "capacity": 3, "cost": 1,
         "delta": 0.001, "max_uses": 10,
         "channel": {"kind": "pure-loss", "eta": 0.5, "rate": 1},
         "yield": {"kind": "linear-floor", "rate": "1/2"}}
      ],
      "source": "s",
      "sink": "t"
    }

``delta``, ``max_uses``, ``channel`` and ``yield`` are optional; every other
field is required and unknown fields are rejected. The top-level checks
(``_doc_nodes``, ``_doc_clients``) are shared with hierarchical documents,
whose every level has the same four fields. ``cost`` is given in cost units and
is stored internally in milli-cost units (scaled by 1000); fractional costs
must be exact at that precision. Listing the same node pair more than once
merges the entries into one edge by summing capacities and channel-use
bounds; each entry must be a valid edge on its own, and their costs and
deltas must agree.

Parsing checks an edge array of the common shape one column at a time:
a list of plain objects with one key set and no ``channel`` or ``yield``,
exact-typed values and no repeated node pair. Each check runs over a whole
column in C-level builtins (type sets, ``issuperset``, ``min``), and the
edges are then built without checking each value again. Any other array,
or one that fails a column check, is parsed entry by entry from the start,
and that parse is the only code that words an entry error, so every error
is the same either way. One parse converts each distinct cost and delta
once, and gives every network whose checked columns equal an earlier
one's, in the same document, that network's graph object. From the
second such network on, each distinct edge row is built once and shared.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from operator import attrgetter, eq, itemgetter
from pathlib import Path

from .errors import ParseError, TooLarge, ValidationError

NodeId = str
EdgeKey = tuple[NodeId, NodeId]

# Costs are integers in milli-cost units: 1 cost unit = 1000 milli.
MILLI = 1000

# The generation error of an edge that states none; one shared instance.
_ZERO = Fraction(0)

# Floats below this bound take the exact fast path of ``cost_to_milli``.
_FAST_COST_LIMIT = 2**30

# No number of a document or flag has a numerator or a denominator above
# 10**_NUMBER_EXPONENT in magnitude. Every finite float fits (its parts
# stay below 10**325), and a product of ten such numbers still stays
# within the 4300 digits Python writes of an int, so reports can hold the
# milli costs, totals and error budgets derived from them.
_NUMBER_EXPONENT = 400
_NUMBER_LIMIT = 10**_NUMBER_EXPONENT
# The longest text of such a number: a sign, both parts and the slash.
_NUMBER_TEXT = len(f"-{_NUMBER_LIMIT}/{_NUMBER_LIMIT}")


# A value type's ``__init__`` sets each field through this, past the
# ``__setattr__`` that ``_value_type`` makes refuse every assignment.
_set = object.__setattr__


def _value_type(cls):
    """Class decorator: the value semantics of a frozen dataclass.

    Over the fields annotated in the class body, in declaration order,
    ``cls`` gets ``==`` (same class and equal field tuples), a ``hash`` of
    the field tuple, the repr ``QualName(field=value, ...)``, and an
    ``AttributeError`` on every assignment or deletion. The class writes
    its own ``__init__``, which sets each field with ``_set``.
    """
    names = tuple(cls.__annotations__)
    values = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


def _milli_text(milli: int) -> str:
    """A milli-unit amount in cost units with three decimals."""
    return f"{milli // MILLI}.{milli % MILLI:03d}"


def _max_str_digits() -> int:
    """The most digits Python writes of an int as text, or 0 for no limit,
    as on the interpreters before 3.10.7, which have neither the limit nor
    ``sys.get_int_max_str_digits``."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return 0 if get is None else get()


def _too_long() -> TooLarge:
    return TooLarge(
        "an exact figure has more digits than Python writes as text "
        f"({_max_str_digits()})"
    )


def _frac(value: Fraction) -> str:
    """An exact figure as ``Fraction`` text.

    Raises:
        TooLarge: If its numerator or denominator has more digits than
            Python writes. Each input number is bounded (``_NUMBER_LIMIT``),
            but a sum of many figures with unlike denominators, or a cost
            multiplied level by level in a hierarchy, can still outgrow them.
    """
    try:
        return str(Fraction(value))
    except ValueError as exc:
        raise _too_long() from exc


_EDGE_FIELDS_REQUIRED = frozenset({"a", "b", "capacity", "cost"})
_EDGE_FIELDS_OPTIONAL = frozenset({"delta", "max_uses", "channel", "yield"})
_EDGE_FIELDS = _EDGE_FIELDS_REQUIRED | _EDGE_FIELDS_OPTIONAL
_DOC_FIELDS = frozenset({"nodes", "edges", "source", "sink"})
# The types of the values whose conversions a parse remembers.
_MEMO_KINDS = frozenset({int, float, str})


def _is_int(value: object) -> bool:
    """An int or an int subclass, but not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_probability(value: Fraction) -> bool:
    # 0 <= p/q <= 1 with q > 0, compared as ints rather than Fractions.
    return 0 <= value.numerator <= value.denominator


def edge_key(a: NodeId, b: NodeId) -> EdgeKey:
    """Canonical (sorted) key for the undirected edge between ``a`` and ``b``."""
    return (a, b) if a <= b else (b, a)


def as_fraction(value: object, what: str = "value") -> Fraction:
    """Convert a JSON number or a string like ``"2/3"`` to an exact Fraction.

    Floats are interpreted through their decimal representation, so the
    ``0.001`` a user writes in a file means exactly 1/1000. Infinities and
    NaN are rejected, and so is an int or text whose numerator or
    denominator exceeds ``_NUMBER_LIMIT``, with a ParseError.
    """
    if isinstance(value, bool):
        raise ParseError(f"{what}: expected a number, got a boolean")
    if isinstance(value, int):
        if -_NUMBER_LIMIT <= value <= _NUMBER_LIMIT:
            return Fraction(value)
        raise _too_large(what)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"{what}: not a finite number: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        # Fraction builds 10**decimals and 10**exponent. Past these bounds
        # no value but zero fits, so the text is refused before either.
        size = len(value)
        if size > _NUMBER_TEXT or _exponent(value) > _NUMBER_EXPONENT + size:
            raise _too_large(what)
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{what}: not a valid rational: {value!r}") from exc
        if abs(frac.numerator) > _NUMBER_LIMIT or frac.denominator > _NUMBER_LIMIT:
            raise _too_large(what)
        return frac
    if isinstance(value, Fraction):
        return value
    raise ParseError(f"{what}: expected a number, got {type(value).__name__}")


def _exponent(text: str) -> int:
    """The magnitude of the decimal exponent of a number written as text,
    or 0 when it has none that parses."""
    _, mark, exponent = text.lower().partition("e")
    try:
        return abs(int(exponent)) if mark else 0
    except ValueError:
        return 0


def _too_large(what: str) -> ParseError:
    return ParseError(
        f"{what}: the numerator and denominator of a number may not exceed "
        f"10**{_NUMBER_EXPONENT}"
    )


def cost_to_milli(value: object, what: str = "cost") -> int:
    """Convert a cost in cost units to integer milli-units, exactly or not at all.

    A float in [0, ``_FAST_COST_LIMIT``) that is a whole number of
    milli-units is read without building a Fraction. Every other value goes
    through ``as_fraction``: a float means the decimal it prints as, and
    other values share its number limit.
    """
    # Below 2**30 a whole milli amount m has at most 13 significant digits,
    # and two decimals of at most 15 never round to the same double: if
    # m / 1000 rounds to ``value``, the decimal ``value`` prints as is m / 1000.
    if type(value) is float and 0 <= value < _FAST_COST_LIMIT:
        milli = round(value * MILLI)
        if milli / MILLI == value:
            return milli
    if _is_int(value):
        if not -_NUMBER_LIMIT <= value <= _NUMBER_LIMIT:
            raise _too_large(what)
        milli = value * MILLI
    else:
        frac = as_fraction(value, what)
        milli, rest = divmod(frac.numerator * MILLI, frac.denominator)
        if rest:
            raise ValidationError(
                f"{what}: {value!r} is not representable in whole milli-cost units"
            )
    if milli < 0:
        raise ValidationError(f"{what}: must be non-negative, got {value!r}")
    return milli


@_value_type
class Edge:
    """Undirected network edge.

    Attributes:
        a: One endpoint. Endpoints are stored in sorted order.
        b: The other endpoint.
        capacity: Bell pairs deliverable within the allowed channel uses.
        unit_cost: Cost per delivered pair, in milli-cost units.
        gen_error: Trace-distance budget for one generated pair, in [0, 1].
        max_uses: Channel-use bound, or None when unbounded.
    """

    a: NodeId
    b: NodeId
    capacity: int
    unit_cost: int
    gen_error: Fraction
    max_uses: int | None

    def __init__(
        self,
        a: NodeId,
        b: NodeId,
        capacity: int,
        unit_cost: int,
        gen_error: Fraction = _ZERO,
        max_uses: int | None = None,
    ) -> None:
        a, b = _endpoints(a, b)
        if not _is_int(capacity):
            raise ValidationError(f"edge {(a, b)}: capacity must be an integer")
        if capacity < 0:
            raise ValidationError(f"edge {(a, b)}: negative capacity")
        if not _is_int(unit_cost):
            raise ValidationError(f"edge {(a, b)}: unit_cost must be an integer")
        if unit_cost < 0:
            raise ValidationError(f"edge {(a, b)}: negative unit_cost")
        if not isinstance(gen_error, Fraction):
            gen_error = as_fraction(gen_error)
        if not _is_probability(gen_error):
            raise ValidationError(f"edge {(a, b)}: gen_error outside [0, 1]")
        if max_uses is not None:
            if not _is_int(max_uses):
                raise ValidationError(f"edge {(a, b)}: max_uses must be an integer")
            if max_uses < 1:
                raise ValidationError(f"edge {(a, b)}: max_uses must be positive")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "capacity", capacity)
        _set(self, "unit_cost", unit_cost)
        _set(self, "gen_error", gen_error)
        _set(self, "max_uses", max_uses)

    @property
    def key(self) -> EdgeKey:
        return (self.a, self.b)

    def other(self, node: NodeId) -> NodeId:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise KeyError(node)


def _endpoints(a: object, b: object) -> EdgeKey:
    """An edge's endpoints in sorted order, after the checks every edge
    type shares: two strings, not one node twice."""
    if not isinstance(a, str) or not isinstance(b, str):
        raise ValidationError(f"edge endpoints must be strings, got {a!r} and {b!r}")
    if a == b:
        raise ValidationError(f"self-loop at node {a!r}")
    return (a, b) if a < b else (b, a)


# The key of an Edge, as ``Edge.key`` gives it, without a property call.
_edge_key_of = attrgetter("a", "b")


def _trusted_edge(a, b, capacity, unit_cost, gen_error, max_uses) -> Edge:
    """The Edge of values that already pass every check of ``Edge``,
    built without running those checks again."""
    if a > b:
        a, b = b, a
    edge = object.__new__(Edge)
    _set(
        edge,
        "__dict__",
        {
            "a": a,
            "b": b,
            "capacity": capacity,
            "unit_cost": unit_cost,
            "gen_error": gen_error,
            "max_uses": max_uses,
        },
    )
    return edge


@_value_type
class NetworkGraph:
    """Immutable network with a designated client pair.

    Invariants enforced at construction: node labels are unique, endpoints
    exist, at most one edge per unordered node pair, and source != sink.
    """

    nodes: tuple[NodeId, ...]
    edges: tuple[Edge, ...]
    source: NodeId
    sink: NodeId

    def __init__(
        self,
        nodes: tuple[NodeId, ...],
        edges: tuple[Edge, ...],
        source: NodeId,
        sink: NodeId,
    ) -> None:
        nodes, edges = _checked_layout(nodes, edges, source, sink)
        _set(self, "nodes", nodes)
        _set(self, "edges", edges)
        _set(self, "source", source)
        _set(self, "sink", sink)

    @cached_property
    def edge_map(self) -> Mapping[EdgeKey, Edge]:
        return {e.key: e for e in self.edges}

    def edge_between(self, a: NodeId, b: NodeId) -> Edge:
        return self.edge_map[edge_key(a, b)]

    @classmethod
    def from_edge_list(
        cls,
        edges: Iterable[Edge | tuple],
        source: NodeId,
        sink: NodeId,
        extra_nodes: Iterable[NodeId] = (),
    ) -> "NetworkGraph":
        """Build a graph from ``(a, b, capacity, unit_cost[, gen_error[, max_uses]])``
        tuples or Edge objects. Node set is inferred from the endpoints."""
        built = []
        for item in edges:
            built.append(item if isinstance(item, Edge) else Edge(*item))
        nodes = {source, sink, *extra_nodes}
        for e in built:
            nodes.add(e.a)
            nodes.add(e.b)
        return cls(tuple(sorted(nodes)), tuple(built), source, sink)


def _checked_layout(nodes, edges, source, sink) -> tuple[tuple, tuple]:
    """A network's nodes and edges (anything with ends ``a`` and ``b``),
    each sorted, after the checks every network type shares: unique labels,
    one edge per node pair, known endpoints and two distinct clients."""
    # Labels are checked before they are sorted, which needs strings.
    for n in nodes:
        if not isinstance(n, str) or not n:
            raise ValidationError(f"node labels must be non-empty strings: {n!r}")
    nodes = tuple(sorted(nodes))
    if len(set(nodes)) != len(nodes):
        raise ValidationError("duplicate node labels")
    edges = tuple(sorted(edges, key=_edge_key_of))
    if len(set(map(_edge_key_of, edges))) != len(edges):
        raise ValidationError("duplicate edge between the same node pair")
    node_set = set(nodes)
    for e in edges:
        if e.a not in node_set or e.b not in node_set:
            raise ValidationError(f"edge {e.key} references an unknown node")
    _check_clients(node_set, source, sink)
    return nodes, edges


def _check_clients(node_set: set, source: NodeId, sink: NodeId) -> None:
    if source not in node_set:
        raise ValidationError(f"unknown source node {source!r}")
    if sink not in node_set:
        raise ValidationError(f"unknown sink node {sink!r}")
    if source == sink:
        raise ValidationError("source and sink must differ")


def _trusted_graph(nodes, edges, source, sink, node_set) -> NetworkGraph:
    """The NetworkGraph of labels and edges that the parse has proven
    (unique non-empty string labels, known endpoints, no self-loop or
    repeated pair), built with only the client checks of ``NetworkGraph``,
    which keep its messages and order."""
    _check_clients(node_set, source, sink)
    graph = object.__new__(NetworkGraph)
    _set(graph, "nodes", tuple(sorted(nodes)))
    _set(graph, "edges", tuple(sorted(edges, key=_edge_key_of)))
    _set(graph, "source", source)
    _set(graph, "sink", sink)
    return graph


@_value_type
class NetworkDocument:
    """A parsed network file: the graph plus raw per-edge annotations."""

    graph: NetworkGraph
    channels: Mapping[EdgeKey, Mapping[str, object]]
    yields: Mapping[EdgeKey, Mapping[str, object]]

    def __init__(
        self,
        graph: NetworkGraph,
        channels: Mapping[EdgeKey, Mapping[str, object]],
        yields: Mapping[EdgeKey, Mapping[str, object]] | None = None,
    ) -> None:
        _set(self, "graph", graph)
        _set(self, "channels", channels)
        _set(self, "yields", {} if yields is None else yields)


def _converted(memo: dict, convert, value: object, index: int, name: str):
    """``convert(value, "edges[index].name")``, remembered in ``memo``.

    Only values whose exact type is int, float or str are remembered, in
    one table per conversion and type, ``memo[convert, type]``: ``True ==
    1 == 1.0`` would otherwise share a result, and lists do not hash.
    (``0.0 == -0.0`` do share one, and both convert to zero.) A failed
    conversion is never remembered, so every error names the entry it
    came from.
    """
    kind = type(value)
    if kind not in _MEMO_KINDS:
        return convert(value, f"edges[{index}].{name}")
    table = memo.setdefault((convert, kind), {})
    result = table.get(value)
    if result is None:
        result = table[value] = convert(value, f"edges[{index}].{name}")
    return result


def _parse_edge_entry(entry: Mapping, index: int, memo: dict) -> tuple[EdgeKey, dict]:
    """The fields of one edge object; the caller has checked it is an object.

    ``memo`` holds the cost and delta conversions of the document so far.
    """
    names = set(entry)
    unknown = names - _EDGE_FIELDS
    if unknown:
        raise ParseError(f"edges[{index}]: unknown fields {sorted(unknown)}")
    missing = _EDGE_FIELDS_REQUIRED - names
    if missing:
        raise ParseError(f"edges[{index}]: missing fields {sorted(missing)}")
    a, b = entry["a"], entry["b"]
    if not isinstance(a, str) or not isinstance(b, str):
        raise ParseError(f"edges[{index}]: endpoints must be strings")
    capacity = entry["capacity"]
    if not _is_int(capacity):
        raise ParseError(f"edges[{index}]: capacity must be an integer")
    if capacity > _NUMBER_LIMIT:
        raise _too_large(f"edges[{index}].capacity")
    fields = {
        "capacity": capacity,
        "unit_cost": _converted(memo, cost_to_milli, entry["cost"], index, "cost"),
        "gen_error": None,
        "max_uses": None,
        "channel": None,
        "yield_spec": None,
    }
    if "delta" in names:
        fields["gen_error"] = _converted(memo, as_fraction, entry["delta"], index, "delta")
    if "max_uses" in names:
        mu = entry["max_uses"]
        if not _is_int(mu):
            raise ParseError(f"edges[{index}].max_uses: must be an integer")
        if mu > _NUMBER_LIMIT:
            raise _too_large(f"edges[{index}].max_uses")
        fields["max_uses"] = mu
    if "channel" in names:
        if not isinstance(entry["channel"], Mapping):
            raise ParseError(f"edges[{index}].channel: expected an object")
        fields["channel"] = dict(entry["channel"])
    if "yield" in names:
        if not isinstance(entry["yield"], Mapping):
            raise ParseError(f"edges[{index}].yield: expected an object")
        fields["yield_spec"] = dict(entry["yield"])
    if a == b:
        raise ValidationError(f"edges[{index}]: self-loop at node {a!r}")
    return edge_key(a, b), fields


def _merge_parallel(key: EdgeKey, entries: Sequence[dict]) -> dict:
    # Parallel channels between the same pair act as a single channel, so
    # capacities and use bounds add; price and error budget must be uniform.
    # Each entry must be a valid edge on its own before it joins the sum, or
    # a negative capacity or use bound would hide inside a valid-looking one.
    merged = entries[0]
    for other in entries:
        if other["capacity"] < 0:
            raise ValidationError(f"edge {key}: negative capacity")
        if other["max_uses"] is not None and other["max_uses"] < 1:
            raise ValidationError(f"edge {key}: max_uses must be positive")
        if other is merged:
            continue
        if other["unit_cost"] != merged["unit_cost"]:
            raise ValidationError(
                f"parallel edges {key} disagree on cost; cannot merge"
            )
        if other["gen_error"] != merged["gen_error"]:
            raise ValidationError(
                f"parallel edges {key} disagree on delta; cannot merge"
            )
        merged["capacity"] += other["capacity"]
        if merged["max_uses"] is None or other["max_uses"] is None:
            merged["max_uses"] = None
        else:
            merged["max_uses"] += other["max_uses"]
        if merged["channel"] is None:
            merged["channel"] = other["channel"]
        elif other["channel"] is not None and other["channel"] != merged["channel"]:
            raise ValidationError(
                f"parallel edges {key} disagree on channel annotation"
            )
        if merged["yield_spec"] is None:
            merged["yield_spec"] = other["yield_spec"]
        elif (
            other["yield_spec"] is not None
            and other["yield_spec"] != merged["yield_spec"]
        ):
            raise ValidationError(
                f"parallel edges {key} disagree on yield annotation"
            )
    return merged


# An edge array read column by column uses no other fields.
_COLUMN_FIELDS = _EDGE_FIELDS_REQUIRED | {"delta", "max_uses"}


def _converted_column(memo: dict, convert, column: tuple, valid=None) -> tuple | None:
    """``column`` converted through the tables of ``_converted``, each new
    value once, or None unless all values have one exact type among int,
    float and str, every value converts and ``valid``, if given, holds for
    each distinct result."""
    kinds = set(map(type, column))
    if len(kinds) != 1 or not kinds <= _MEMO_KINDS:
        return None
    table = memo.setdefault((convert, *kinds), {})
    distinct = set(column)
    try:
        for value in distinct.difference(table):
            table[value] = convert(value)
    except (ParseError, ValidationError):
        return None
    if valid is not None and not all(map(valid, map(table.__getitem__, distinct))):
        return None
    return tuple(map(table.__getitem__, column))


def _edge_columns(
    raw_edges: object, node_set: set, default_gen_error: Fraction, memo: dict
) -> tuple[tuple, tuple] | None:
    """The common shape of an edge array, checked one column at a time.

    That shape is a list of exact dicts with one key set and no annotations,
    exact ``str`` endpoints of known nodes, exact ``int`` capacities and use
    bounds, one exact type per cost and delta column, and no repeated node
    pair. Returns ``(kind, raw, columns)``: ``columns`` are the
    ``_trusted_edge`` arguments of each edge, every value passing the
    checks of ``Edge``. ``raw`` holds the same columns with the raw delta
    (None without one) in place of the generation error, so every value
    is exact-typed and hashes fast, and ``kind`` is the delta column's
    exact type or the default generation error: together they determine
    ``columns``. Returns None for any other array, or any value the
    per-entry parse would reject, so that parse stays the only one that
    words entry errors.
    """
    if type(raw_edges) is not list or set(map(type, raw_edges)) != {dict}:
        return None
    names = raw_edges[0].keys()
    if (
        set(map(len, raw_edges)) != {len(names)}
        or not _EDGE_FIELDS_REQUIRED <= names <= _COLUMN_FIELDS
    ):
        return None
    # Each entry has as many keys as the first and all of its names.
    extra = sorted(names - _EDGE_FIELDS_REQUIRED)
    try:
        a, b, capacity, cost, *rest = zip(
            *map(itemgetter("a", "b", "capacity", "cost", *extra), raw_edges)
        )
    except KeyError:
        return None
    optional = dict(zip(extra, rest))
    ends = a + b
    if (
        set(map(type, ends)) != {str}
        or not node_set.issuperset(ends)
        or any(map(eq, a, b))
        # Both orientations of every pair are distinct iff no pair repeats.
        or len(set(zip(ends, b + a))) != len(ends)
        or set(map(type, capacity)) != {int}
        or min(capacity) < 0
        or max(capacity) > _NUMBER_LIMIT
    ):
        return None
    unit_cost = _converted_column(memo, cost_to_milli, cost)
    if unit_cost is None:
        return None
    delta = optional.get("delta")
    if delta is not None:
        gen_error = _converted_column(memo, as_fraction, delta, _is_probability)
        if gen_error is None:
            return None
        # The conversion depends only on the type and value, and the raw
        # column hashes far faster than the Fractions.
        kind = type(delta[0])
    elif default_gen_error is _ZERO or (
        type(default_gen_error) is Fraction and _is_probability(default_gen_error)
    ):
        gen_error = (default_gen_error,) * len(a)
        delta = (None,) * len(a)
        kind = default_gen_error
    else:
        return None
    max_uses = optional.get("max_uses", (None,) * len(a))
    if "max_uses" in optional and (
        set(map(type, max_uses)) != {int}
        or min(max_uses) < 1
        or max(max_uses) > _NUMBER_LIMIT
    ):
        return None
    raw = (a, b, capacity, unit_cost, delta, max_uses)
    return kind, raw, (a, b, capacity, unit_cost, gen_error, max_uses)


def _column_edges(memo: dict, kind, raw: tuple, columns: tuple) -> Sequence[Edge]:
    """The edges of ``_edge_columns``, one object per distinct row of
    ``raw`` in the document that ``memo`` belongs to.

    Rows of one ``kind`` share a table. The first network a document
    builds from columns looks up no row, so a document of one network
    pays nothing for sharing; its rows join their table when a second
    network arrives.
    """
    # memo[_trusted_edge] keeps the first network's rows and edges until a
    # second network puts them in their table, and is () from then on.
    first = memo.get(_trusted_edge)
    if first is None:
        edges = tuple(map(_trusted_edge, *columns))
        memo[_trusted_edge] = (kind, raw, edges)
        return edges
    if first:
        memo[_trusted_edge] = ()
        first_kind, first_raw, first_edges = first
        rows = memo.setdefault((Edge, first_kind), {})
        rows.update(zip(zip(*first_raw), first_edges))
    rows = memo.setdefault((Edge, kind), {})
    edges = []
    for row, args in zip(zip(*raw), zip(*columns)):
        edge = rows.get(row)
        if edge is None:
            edge = rows[row] = _trusted_edge(*args)
        edges.append(edge)
    return edges


def _parse_nodes(raw: object) -> list[NodeId]:
    """The ``nodes`` field of a document: an array of non-empty strings."""
    if type(raw) is list and set(map(type, raw)) <= {str} and all(raw):
        return list(raw)
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ParseError("nodes: expected an array of labels")
    for n in raw:
        if not isinstance(n, str) or not n:
            raise ParseError(f"nodes: labels must be non-empty strings: {n!r}")
    return list(raw)


def _doc_nodes(doc: Mapping) -> list[NodeId]:
    """Check a document's top-level fields, then return its ``nodes``."""
    unknown = set(doc) - _DOC_FIELDS
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    missing = _DOC_FIELDS - set(doc)
    if missing:
        raise ParseError(f"missing fields {sorted(missing)}")
    return _parse_nodes(doc["nodes"])


def _doc_clients(doc: Mapping) -> tuple[NodeId, NodeId]:
    """A checked document's ``source`` and ``sink``."""
    source, sink = doc["source"], doc["sink"]
    if not isinstance(source, str) or not isinstance(sink, str):
        raise ParseError("source and sink must be strings")
    return source, sink


def parse_document(
    doc: Mapping, *, default_gen_error: Fraction | None = None
) -> NetworkDocument:
    """Parse an already-decoded network document.

    Args:
        doc: Mapping with exactly the documented fields.
        default_gen_error: Generation error applied to edges that do not
            specify ``delta``. Defaults to zero.

    Returns:
        The validated graph together with any per-edge channel annotations.

    Raises:
        ParseError: On structural problems (types, unknown fields).
        ValidationError: On semantic problems (self-loops, bad merges, ...).
    """
    if not isinstance(doc, Mapping):
        raise ParseError("network document must be an object")
    return _parse_flat(doc, default_gen_error, {})


def _parse_flat(
    doc: Mapping,
    default_gen_error: Fraction | None,
    memo: dict,
) -> NetworkDocument:
    """``parse_document`` of an object.

    ``memo`` lives for one document, including every level of a
    hierarchical one. It remembers cost and delta conversions (see
    ``_converted``), each graph built from columns, so a repeated network
    is built once, and each distinct edge row (see ``_column_edges``), so
    relabelled copies share their edges away from the relabelled nodes.
    A graph built from columns runs only the client checks of
    ``NetworkGraph``; the columns prove the rest.
    """
    nodes = _doc_nodes(doc)
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, Sequence) or isinstance(raw_edges, (str, bytes)):
        raise ParseError("edges: expected an array of edge objects")
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise ValidationError("duplicate node labels")

    if default_gen_error is None:
        default_gen_error = _ZERO
    found = _edge_columns(raw_edges, node_set, default_gen_error, memo)
    if found is None:
        edges, channels, yields = _parse_entries(
            raw_edges, node_set, default_gen_error, memo
        )
    source, sink = _doc_clients(doc)
    if found is None:
        graph = NetworkGraph(tuple(nodes), tuple(edges), source, sink)
        return NetworkDocument(graph=graph, channels=channels, yields=yields)
    # Equal columns make equal graphs, so a document that repeats a network
    # builds it once and hands every copy the same graph.
    kind, raw, columns = found
    key = (NetworkGraph, tuple(nodes), source, sink, kind, raw)
    graph = memo.get(key)
    if graph is None:
        edges = _column_edges(memo, kind, raw, columns)
        graph = memo[key] = _trusted_graph(nodes, edges, source, sink, node_set)
    return NetworkDocument(graph=graph, channels={}, yields={})


def _parse_entries(
    raw_edges: Sequence,
    node_set: set,
    default_gen_error: Fraction,
    memo: dict,
) -> tuple[list[Edge], dict, dict]:
    """The edges and annotations of ``raw_edges``, one entry at a time.

    Takes any edge array and raises each entry error; parallel entries
    are merged here.
    """
    # The field dicts of each node pair, in order of first appearance.
    by_key: dict[EdgeKey, list[dict]] = {}
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, Mapping):
            raise ParseError(f"edges[{i}]: expected an object")
        key, fields = _parse_edge_entry(entry, i, memo)
        if key[0] not in node_set or key[1] not in node_set:
            raise ValidationError(f"edges[{i}]: unknown endpoint in {key}")
        by_key.setdefault(key, []).append(fields)

    edges = []
    channels: dict[EdgeKey, Mapping[str, object]] = {}
    yields: dict[EdgeKey, Mapping[str, object]] = {}
    for key, entries in by_key.items():
        fields = _merge_parallel(key, entries) if len(entries) > 1 else entries[0]
        gen_error = fields["gen_error"]
        if gen_error is None:
            gen_error = default_gen_error
        edges.append(
            Edge(
                key[0],
                key[1],
                fields["capacity"],
                fields["unit_cost"],
                gen_error,
                fields["max_uses"],
            )
        )
        if fields["channel"] is not None:
            channels[key] = fields["channel"]
        if fields["yield_spec"] is not None:
            yields[key] = fields["yield_spec"]

    return edges, channels, yields


def _load_json(source: str | Path | bytes) -> object:
    """Decode a JSON file, or JSON text when ``source`` names no file.

    ``bytes`` are the UTF-8 text of the document itself, never a file name.
    Every decoding failure is a ParseError, including nesting too deep for
    the decoder and integer literals beyond Python's digit limit.
    """
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    else:
        text = source
        path = Path(source)
        try:
            if path.is_file():
                text = path.read_text(encoding="utf-8")
        except OSError:
            pass
        except UnicodeDecodeError as exc:
            raise ParseError(f"input file {path} is not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def load_network(
    source: str | Path | bytes, *, default_gen_error: Fraction | None = None
) -> NetworkDocument:
    """Load and parse a network document from a JSON file, JSON text or
    the document's UTF-8 bytes."""
    return parse_document(_load_json(source), default_gen_error=default_gen_error)


def undirected_max_flow(
    nodes: Sequence[NodeId],
    edges: Iterable[tuple[NodeId, NodeId, object]],
    source: NodeId,
    sink: NodeId,
):
    """Max-flow value of an undirected capacitated graph (Dinic's algorithm).

    Works over any ordered numeric type (int, Fraction, float). Opposing use
    of one edge cancels, so the pair of mutually-reverse residual arcs with
    capacity c each models the shared per-edge stock exactly.
    """
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(idx)
    s, t = idx[source], idx[sink]
    adj: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    res: list = []
    total = 0
    for a, b, c in edges:
        if c <= 0:
            continue
        ia, ib = idx[a], idx[b]
        adj[ia].append(len(to))
        to.append(ib)
        res.append(c)
        adj[ib].append(len(to))
        to.append(ia)
        res.append(c)
        total += c

    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            for aid in adj[u]:
                v = to[aid]
                if level[v] < 0 and res[aid] > 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return flow
        # Depth-first augmentation along the level graph with an explicit
        # stack; it[u] is u's current arc, kept across augmenting paths.
        it = [0] * n
        path = [s]
        arcs: list[int] = []
        limits = [total]
        while path:
            u = path[-1]
            if u == t:
                pushed = limits[-1]
                for aid in arcs:
                    res[aid] -= pushed
                    res[aid ^ 1] += pushed
                flow += pushed
                del path[1:], arcs[:], limits[1:]
                continue
            out = adj[u]
            next_level = level[u] + 1
            while it[u] < len(out):
                aid = out[it[u]]
                if res[aid] > 0 and level[to[aid]] == next_level:
                    path.append(to[aid])
                    arcs.append(aid)
                    limits.append(min(limits[-1], res[aid]))
                    break
                it[u] += 1
            else:
                # Dead end: no augmenting path continues through u.
                level[u] = -1
                path.pop()
                if arcs:
                    arcs.pop()
                    limits.pop()
                    it[path[-1]] += 1


def min_cut(g: NetworkGraph) -> int:
    """Minimum total capacity separating source from sink.

    Equals the minimum over node subsets containing the source but not the
    sink of the summed capacities of crossing edges, computed here as a
    max-flow. Returns 0 when the clients are disconnected.
    """
    return undirected_max_flow(
        g.nodes,
        ((e.a, e.b, e.capacity) for e in g.edges),
        g.source,
        g.sink,
    )

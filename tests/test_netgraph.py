import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ebitflow import (
    Edge,
    NetworkGraph,
    ParseError,
    ValidationError,
    as_fraction,
    cost_to_milli,
    edge_key,
    load_network,
    min_cut,
    parse_document,
    parse_hierarchical,
    undirected_max_flow,
)
from oracles import (
    cut_by_enumeration,
    random_network,
    reference_as_fraction,
    reference_cost_to_milli,
    reference_edge_fields,
    reference_parse_document,
    reference_parse_hierarchical,
)


def single(cap=5, cost=1000):
    return NetworkGraph.from_edge_list([("s", "t", cap, cost)], "s", "t")


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


class Count(int):
    """An int subclass, which Edge accepts wherever it accepts an int."""


class Label(str):
    """A str subclass, which Edge accepts as an endpoint."""


class FractionSubclass(Fraction):
    """Not exactly a Fraction, so ``as_fraction`` takes its slow path."""


def mostly(common, odd, one_in=4):
    """Draws from ``odd`` about once in ``one_in`` draws, else from ``common``."""
    return st.integers(1, one_in).flatmap(lambda n: odd if n == 1 else common)


EDGE_LABELS = mostly(
    st.sampled_from(["a", "b", "ab", "z", "", Label("a"), Label("b")]),
    st.sampled_from([1, None, ("a",)]),
    one_in=16,
)
EDGE_INTEGERS = mostly(
    st.one_of(st.integers(-1, 3), st.builds(Count, st.integers(-1, 3))),
    st.one_of(
        st.integers(),
        st.booleans(),
        st.sampled_from([1.0, 2.5, "3", None, Fraction(2), [1]]),
    ),
)
GEN_ERRORS = mostly(
    st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2), max_denominator=9),
    st.one_of(
        st.sampled_from(
            [Fraction(0), Fraction(-1, 10**30), Fraction(10**30 + 1, 10**30), Count(1)]
        ),
        st.integers(-2, 3),
        st.booleans(),
        st.floats(),
        st.sampled_from(["1/2", "3/2", "-0", "x", "1/0", 0.25, [], None]),
    ),
)
# Stands for leaving an Edge's gen_error at its default.
DEFAULT = object()


class TestEdge:
    def test_endpoints_sorted(self):
        e = Edge("z", "a", 1, 0)
        assert (e.a, e.b) == ("a", "z")
        assert e.key == ("a", "z")
        assert e.other("a") == "z"

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Edge("s", "s", 1, 0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            Edge("a", "b", -1, 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            Edge("a", "b", 1, -5)

    def test_gen_error_range(self):
        Edge("a", "b", 1, 0, Fraction(1))
        with pytest.raises(ValidationError):
            Edge("a", "b", 1, 0, Fraction(11, 10))

    def test_max_uses_positive(self):
        with pytest.raises(ValidationError):
            Edge("a", "b", 1, 0, 0, 0)

    @given(st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=7))
    def test_gen_error_range_matches_fraction_comparison(self, value):
        if 0 <= value <= 1:
            assert Edge("a", "b", 1, 0, value).gen_error == value
        else:
            with pytest.raises(ValidationError, match=r"gen_error outside \[0, 1\]"):
                Edge("a", "b", 1, 0, value)

    @pytest.mark.parametrize("a, b", [("a", 1), (1, "a"), (None, "b"), (1, 2), (1, 1)])
    def test_non_string_endpoints_rejected(self, a, b):
        with pytest.raises(ValidationError) as got:
            Edge(a, b, 1, 1)
        assert str(got.value) == f"edge endpoints must be strings, got {a!r} and {b!r}"

    @settings(derandomize=True, max_examples=2000, deadline=None)
    @given(
        EDGE_LABELS,
        EDGE_LABELS,
        EDGE_INTEGERS,
        EDGE_INTEGERS,
        st.one_of(st.just(DEFAULT), GEN_ERRORS),
        st.one_of(st.none(), EDGE_INTEGERS),
    )
    def test_checks_match_reference(self, a, b, capacity, unit_cost, gen_error, max_uses):
        args = (a, b, capacity, unit_cost) + (() if gen_error is DEFAULT else (gen_error,))
        def fields():
            e = Edge(*args, max_uses=max_uses)
            values = (e.a, e.b, e.capacity, e.unit_cost, e.gen_error, e.max_uses)
            return tuple((type(v), v) for v in values)

        got = outcome(fields)
        if isinstance(a, str) and isinstance(b, str):
            assert got == outcome(lambda: reference_edge_fields(*args, max_uses=max_uses))
        else:
            assert got == (
                ValidationError,
                f"edge endpoints must be strings, got {a!r} and {b!r}",
            )


class TestUnits:
    def test_cost_scaling_exact(self):
        assert cost_to_milli(1) == 1000
        assert cost_to_milli(0.001) == 1
        assert cost_to_milli("3/2") == 1500

    def test_cost_below_milli_rejected(self):
        with pytest.raises(ValidationError):
            cost_to_milli(0.0001)
        with pytest.raises(ValidationError):
            cost_to_milli("1/3")

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            cost_to_milli(-1)

    def test_fraction_parsing(self):
        assert as_fraction("2/3") == Fraction(2, 3)
        assert as_fraction(0.001) == Fraction(1, 1000)
        with pytest.raises(ParseError):
            as_fraction(True)
        with pytest.raises(ParseError):
            as_fraction("abc")

    def test_fraction_comes_back_as_the_same_object(self):
        value = Fraction(2, 3)
        assert as_fraction(value) is value
        assert as_fraction(value, "delta") is value


class TestNetworkGraph:
    @pytest.mark.parametrize("label", [1, None, ("a",), ""])
    def test_bad_label_rejected_before_sorting(self, label):
        with pytest.raises(ValidationError) as got:
            NetworkGraph(("a", label, "t"), (), "a", "t")
        assert str(got.value) == f"node labels must be non-empty strings: {label!r}"


MINIMAL_DOC = {
    "nodes": ["s", "t"],
    "edges": [{"a": "s", "b": "t", "capacity": 5, "cost": 1}],
    "source": "s",
    "sink": "t",
}


class TestParsing:
    def test_minimal_document(self):
        g = parse_document(MINIMAL_DOC).graph
        assert len(g.nodes) == 2
        assert len(g.edges) == 1
        assert g.edges[0].capacity == 5
        assert g.edges[0].unit_cost == 1000

    def test_self_loop_rejected(self):
        doc = {
            "nodes": ["s", "t"],
            "edges": [{"a": "s", "b": "s", "capacity": 1, "cost": 0}],
            "source": "s",
            "sink": "t",
        }
        with pytest.raises(ValidationError):
            parse_document(doc).graph

    def test_six_node_eight_edge_fixture(self):
        nodes = ["s", "u", "v", "w", "x", "t"]
        links = [
            ("s", "u"), ("s", "v"), ("u", "v"), ("u", "w"),
            ("v", "x"), ("w", "x"), ("w", "t"), ("x", "t"),
        ]
        doc = {
            "nodes": nodes,
            "edges": [
                {"a": a, "b": b, "capacity": 2, "cost": 1} for a, b in links
            ],
            "source": "s",
            "sink": "t",
        }
        g = parse_document(doc).graph
        assert len(g.nodes) == 6
        assert len(g.edges) == 8

    def test_unknown_fields_rejected(self):
        doc = dict(MINIMAL_DOC, extra=1)
        with pytest.raises(ParseError):
            parse_document(doc).graph
        doc = dict(MINIMAL_DOC)
        doc["edges"] = [dict(doc["edges"][0], weird=2)]
        with pytest.raises(ParseError):
            parse_document(doc).graph

    def test_missing_fields_rejected(self):
        doc = {k: v for k, v in MINIMAL_DOC.items() if k != "sink"}
        with pytest.raises(ParseError):
            parse_document(doc).graph

    def test_unknown_endpoint_rejected(self):
        doc = dict(MINIMAL_DOC)
        doc["edges"] = [{"a": "s", "b": "q", "capacity": 1, "cost": 0}]
        with pytest.raises(ValidationError):
            parse_document(doc).graph

    def test_source_equals_sink_rejected(self):
        doc = dict(MINIMAL_DOC, sink="s")
        with pytest.raises(ValidationError):
            parse_document(doc).graph

    def test_parallel_entries_merge(self):
        doc = {
            "nodes": ["s", "t"],
            "edges": [
                {"a": "s", "b": "t", "capacity": 2, "cost": 1, "max_uses": 4},
                {"a": "t", "b": "s", "capacity": 3, "cost": 1, "max_uses": 5},
            ],
            "source": "s",
            "sink": "t",
        }
        g = parse_document(doc).graph
        assert len(g.edges) == 1
        assert g.edges[0].capacity == 5
        assert g.edges[0].max_uses == 9

    def test_parallel_cost_mismatch_rejected(self):
        doc = {
            "nodes": ["s", "t"],
            "edges": [
                {"a": "s", "b": "t", "capacity": 2, "cost": 1},
                {"a": "s", "b": "t", "capacity": 3, "cost": 2},
            ],
            "source": "s",
            "sink": "t",
        }
        with pytest.raises(ValidationError):
            parse_document(doc).graph

    def test_parallel_delta_mismatch_rejected(self):
        doc = {
            "nodes": ["s", "t"],
            "edges": [
                {"a": "s", "b": "t", "capacity": 2, "cost": 1, "delta": 0.01},
                {"a": "s", "b": "t", "capacity": 3, "cost": 1, "delta": 0.02},
            ],
            "source": "s",
            "sink": "t",
        }
        with pytest.raises(ValidationError):
            parse_document(doc).graph

    def test_delta_parsed_exactly(self):
        doc = dict(MINIMAL_DOC)
        doc["edges"] = [dict(doc["edges"][0], delta=0.001)]
        g = parse_document(doc).graph
        assert g.edges[0].gen_error == Fraction(1, 1000)

    def test_delta_default_applied(self):
        docu = parse_document(MINIMAL_DOC, default_gen_error=Fraction(1, 50))
        assert docu.graph.edges[0].gen_error == Fraction(1, 50)

    def test_load_network_from_text_and_file(self, tmp_path):
        text = json.dumps(MINIMAL_DOC)
        assert load_network(text).graph == parse_document(MINIMAL_DOC).graph
        f = tmp_path / "net.json"
        f.write_text(text)
        assert load_network(f).graph == parse_document(MINIMAL_DOC).graph

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError):
            load_network("{not json")

    def test_bytes_are_the_document_never_a_file_name(self, tmp_path):
        text = json.dumps(MINIMAL_DOC)
        assert load_network(text.encode()).graph == parse_document(MINIMAL_DOC).graph
        f = tmp_path / "net.json"
        f.write_text(text)
        with pytest.raises(ParseError, match="invalid JSON"):
            load_network(str(f).encode())
        with pytest.raises(ParseError, match="not UTF-8"):
            load_network(text.encode("utf-16"))

    def test_non_utf8_file_rejected(self, tmp_path):
        f = tmp_path / "net.json"
        f.write_text(json.dumps(MINIMAL_DOC), encoding="utf-16")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_network(f)

    def test_annotations_collected(self):
        doc = dict(MINIMAL_DOC)
        doc["edges"] = [
            dict(
                doc["edges"][0],
                channel={"kind": "explicit", "Q": 1, "rate": 1},
                **{"yield": {"kind": "identity"}},
            )
        ]
        docu = parse_document(doc)
        key = edge_key("s", "t")
        assert docu.channels[key]["kind"] == "explicit"
        assert docu.yields[key]["kind"] == "identity"


class TestMinCut:
    def test_single_edge(self):
        assert min_cut(single(5)) == 5

    def test_chain(self):
        assert min_cut(CHAIN) == 2

    def test_diamond(self):
        assert min_cut(DIAMOND) == 2

    def test_disconnected_is_zero(self):
        g = NetworkGraph.from_edge_list([], "s", "t", extra_nodes=["s", "t"])
        assert min_cut(g) == 0

    def test_zero_capacity_edge_disconnects(self):
        g = single(0)
        assert min_cut(g) == 0

    def test_matches_enumeration_small_corpus(self):
        rnd = random.Random(7)
        for _ in range(60):
            g = random_network(rnd, max_nodes=7, max_cap=4)
            assert min_cut(g) == cut_by_enumeration(g)

    def test_monotone_in_capacity(self):
        rnd = random.Random(8)
        for _ in range(20):
            g = random_network(rnd, max_nodes=6, max_cap=3)
            if not g.edges:
                continue
            base = min_cut(g)
            bumped = list(g.edges)
            i = rnd.randrange(len(bumped))
            e = bumped[i]
            bumped[i] = Edge(e.a, e.b, e.capacity + 2, e.unit_cost)
            g2 = NetworkGraph.from_edge_list(
                bumped, g.source, g.sink, extra_nodes=g.nodes
            )
            assert min_cut(g2) >= base

    def test_zero_iff_disconnected(self):
        rnd = random.Random(9)
        for _ in range(40):
            g = random_network(rnd, max_nodes=6, max_cap=2)
            positive = [e for e in g.edges if e.capacity > 0]
            seen = {g.source}
            frontier = [g.source]
            while frontier:
                u = frontier.pop()
                for e in positive:
                    if u in (e.a, e.b):
                        v = e.other(u)
                        if v not in seen:
                            seen.add(v)
                            frontier.append(v)
            assert (min_cut(g) == 0) == (g.sink not in seen)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 6))
    labels = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                cap = draw(st.integers(0, 4))
                cost = draw(st.integers(0, 4)) * 1000
                edges.append((labels[i], labels[j], cap, cost))
    return NetworkGraph.from_edge_list(edges, labels[0], labels[1], extra_nodes=labels)


class TestMinCutProperties:
    @given(small_graphs())
    def test_equals_enumeration(self, g):
        assert min_cut(g) == cut_by_enumeration(g)

    @given(small_graphs())
    def test_max_flow_value_matches(self, g):
        triples = [(e.a, e.b, e.capacity) for e in g.edges]
        flow = undirected_max_flow(g.nodes, triples, g.source, g.sink)
        assert flow == min_cut(g)


class TestParallelEntriesCheckedBeforeMerge:
    """A parallel entry that would be invalid as an edge of its own is
    rejected, even when the merged sum would look valid."""

    BAD = {"a": "s", "b": "t", "capacity": -1, "cost": 1, "max_uses": -3}
    GOOD = {"a": "t", "b": "s", "capacity": 2, "cost": 1, "max_uses": 4}

    def parse(self, *entries):
        doc = {"nodes": ["s", "t"], "edges": list(entries), "source": "s", "sink": "t"}
        return parse_document(doc)

    @pytest.mark.parametrize("order", ["bad-first", "good-first"])
    def test_negative_capacity_entry(self, order):
        entries = (self.BAD, self.GOOD) if order == "bad-first" else (self.GOOD, self.BAD)
        with pytest.raises(ValidationError) as got:
            self.parse(*entries)
        with pytest.raises(ValidationError) as edge:
            Edge("s", "t", -1, 1000)
        assert str(got.value) == str(edge.value) == "edge ('s', 't'): negative capacity"

    @pytest.mark.parametrize("order", ["bad-first", "good-first"])
    def test_max_uses_below_one_entry(self, order):
        bad = dict(self.BAD, capacity=1, max_uses=0)
        entries = (bad, self.GOOD) if order == "bad-first" else (self.GOOD, bad)
        with pytest.raises(ValidationError) as got:
            self.parse(*entries)
        with pytest.raises(ValidationError) as edge:
            Edge("s", "t", 1, 1000, 0, 0)
        assert str(got.value) == str(edge.value) == "edge ('s', 't'): max_uses must be positive"

    def test_valid_entries_still_merge(self):
        g = self.parse(dict(self.BAD, capacity=1, max_uses=1), self.GOOD).graph
        assert (g.edges[0].capacity, g.edges[0].max_uses) == (3, 5)


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of what it raised."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        return (type(exc), str(exc))


COST_SPECIALS = [
    -0.0, 0.0, 0.0005, 1e-4, 1e15, 1e16, 1e300, 5e-324, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"), 0.001, 1.234, -1.5, -0.0005,
    123456.789, 1e-3, 2.5e-3, 1e22, 1.5e16, 9007199254740993.0,
]

COST_VALUES = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(),
    st.booleans(),
    st.sampled_from(COST_SPECIALS),
    st.floats(),
    st.integers(-(10**9), 10**9).map(lambda n: n / 1000),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-5000, 5000), st.integers(0, 3000)),
    st.sampled_from(["3/2", "1/3", "-2", "1.5", "1e3", " 2 ", "abc", "", "1/0", "nan", "inf"]),
    st.fractions(max_denominator=10**4),
    st.sampled_from([None, [], {}, "0x10"]),
)

LABELS = ["a", "b", "c", "d"]
PAIRS = [(a, b) for a in LABELS for b in LABELS if a != b]
CHANNELS = [
    {"kind": "pure-loss", "eta": 0.5, "rate": 1},
    {"kind": "explicit", "Q": 2, "rate": 1},
]
YIELDS = [{"kind": "identity"}, {"kind": "linear-floor", "rate": "1/2"}]
NON_OBJECTS = [[], "edge", 3, None, ["a", "b"]]

# True about one draw in twelve; a middle value, since hypothesis favours
# the ends of a range.
rarely = st.integers(0, 11).map(lambda n: n == 5)


@st.composite
def edge_entries(draw, cost, delta):
    """One edge object that mostly shares the document's cost and delta, so
    that repeated pairs often merge; sometimes corrupted."""
    a, b = draw(st.sampled_from(PAIRS))
    if draw(rarely):
        b = a
    entry = {
        "a": a,
        "b": b,
        "capacity": draw(st.integers(-1, 4)),
        "cost": draw(COST_VALUES) if draw(rarely) else cost,
    }
    if delta is not None:
        entry["delta"] = draw(COST_VALUES) if draw(rarely) else delta
    if draw(st.booleans()):
        entry["max_uses"] = draw(st.integers(-1, 4))
    if draw(st.booleans()):
        entry["channel"] = draw(st.sampled_from(CHANNELS))
    if draw(st.booleans()):
        entry["yield"] = draw(st.sampled_from(YIELDS))
    if not draw(rarely):
        return entry
    corruption = draw(st.sampled_from(["non-object", "unknown", "missing", "value"]))
    if corruption == "non-object":
        return draw(st.sampled_from(NON_OBJECTS))
    if corruption == "unknown":
        entry[draw(st.sampled_from(["extra", "lower"]))] = 1
    elif corruption == "missing":
        del entry[draw(st.sampled_from(sorted(entry)))]
    else:
        field = draw(st.sampled_from(sorted(entry)))
        entry[field] = draw(st.one_of(COST_VALUES, st.sampled_from(["z", 1.5, True, {}])))
    return entry


@st.composite
def flat_documents(draw):
    """Documents over four labels with up to nine edge entries, so node
    pairs repeat often; sometimes malformed at the top level."""
    cost = draw(st.sampled_from([0, 1, 0.5, 1.25, "3/2", 0.001, 2.0]))
    delta = draw(st.sampled_from([None, 0, 0.01, "1/100", 1, "3/2"]))
    source, sink = draw(st.sampled_from(PAIRS))
    doc = {
        "nodes": list(LABELS),
        "edges": draw(st.lists(edge_entries(cost, delta), max_size=9)),
        "source": source,
        "sink": sink,
    }
    if draw(rarely):
        doc["nodes"] = draw(st.lists(st.sampled_from(LABELS + ["z", ""]), max_size=5))
    if draw(rarely):
        doc[draw(st.sampled_from(["extra", "sink", "edges"]))] = draw(
            st.sampled_from([1, None, "a", "ab"])
        )
    return doc


def merge_hidden_messages(doc):
    """The errors of parallel entries that are invalid on their own and that
    the reference parser summed before checking."""
    groups: dict = {}
    for e in doc["edges"] if isinstance(doc["edges"], list) else ():
        if isinstance(e, dict) and isinstance(e.get("a"), str) and isinstance(e.get("b"), str):
            groups.setdefault(edge_key(e["a"], e["b"]), []).append(e)
    messages = set()
    for key, entries in groups.items():
        if len(entries) < 2:
            continue
        for e in entries:
            cap, mu = e.get("capacity"), e.get("max_uses")
            if isinstance(cap, int) and cap < 0:
                messages.add(f"edge {key}: negative capacity")
            if isinstance(mu, int) and mu < 1:
                messages.add(f"edge {key}: max_uses must be positive")
    return messages


# One cost and one delta written in ways that are equal as Python values, or
# nearly so, but must not share a conversion: the memo of a parse keys only
# floats and strings, by exact type and value.
MEMO_COSTS = [1, 1.0, True, "1", "1.0", [1], {}, 0.0, -0.0]
MEMO_DELTAS = [0.01, "0.01", "1/100", 0.010000000000000002, [0.01], False]


def memo_flat_documents():
    """Three entries, the third parallel to the first, with every ordered
    pair of the cost spellings and of the delta spellings."""
    for (c1, c2), (d1, d2) in product(
        product(MEMO_COSTS, repeat=2), product(MEMO_DELTAS, repeat=2)
    ):
        yield {
            "nodes": ["s", "r", "t"],
            "edges": [
                {"a": "s", "b": "r", "capacity": 1, "cost": c1, "delta": d1},
                {"a": "r", "b": "t", "capacity": 1, "cost": c2, "delta": d2},
                {"a": "r", "b": "s", "capacity": 2, "cost": c2, "delta": d2},
            ],
            "source": "s",
            "sink": "t",
        }


def memo_hierarchical_documents():
    """A top chain of two edges whose lower networks are one three-node
    chain relabelled; every entry of copy ``i`` has cost ``ci`` and delta
    ``di``, and the second copy's wrap uses the first copy's delta as its
    ``delta_target``."""
    for (c1, c2), (d1, d2) in product(
        product(MEMO_COSTS, repeat=2), product(MEMO_DELTAS, repeat=2)
    ):
        edges = []
        for i, (cost, delta, target) in enumerate(((c1, d1, "1/1000"), (c2, d2, d1))):
            x, m, y = f"n{i}", f"n{i}m", f"n{i + 1}"
            lower = {
                "nodes": [x, m, y],
                "edges": [
                    {"a": u, "b": v, "capacity": 2, "cost": cost, "delta": delta}
                    for u, v in ((x, m), (m, y))
                ],
                "source": x,
                "sink": y,
            }
            wrap = {"network": lower, "yield": {"kind": "identity"}, "max_uses": 2}
            edges.append({"a": x, "b": y, "lower": {**wrap, "delta_target": target}})
        yield {"nodes": ["n0", "n1", "n2"], "edges": edges, "source": "n0", "sink": "n2"}


class TestAgainstReferenceParser:
    """The lean parser returns what the Fraction-based reference returns, or
    raises the same exception type with the same message."""

    def test_memo_never_conflates_values(self):
        cases = [(parse_document, reference_parse_document, doc) for doc in memo_flat_documents()]
        cases += [
            (parse_hierarchical, reference_parse_hierarchical, doc)
            for doc in (*memo_flat_documents(), *memo_hierarchical_documents())
        ]
        values = 0
        for parse, reference, doc in cases:
            got = outcome(parse, doc)
            assert got == outcome(reference, doc), doc
            values += got[0] == "value"
        # Both outcomes occur, so merges and lower copies are reached.
        assert 0.05 < values / len(cases) < 0.95

    @settings(derandomize=True, max_examples=1500, deadline=None)
    @given(COST_VALUES)
    def test_cost_to_milli(self, value):
        assert outcome(cost_to_milli, value) == outcome(reference_cost_to_milli, value)

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(
        st.one_of(
            COST_VALUES,
            st.builds(FractionSubclass, st.integers(-9, 9), st.integers(1, 9)),
            st.sampled_from([Count(2), Label("1/2"), 1j, b"1", ()]),
        )
    )
    def test_as_fraction(self, value):
        """Every input but an exact Fraction gives what it gave before the
        Fraction fast path: the same value, or the same error and message."""
        assert outcome(as_fraction, value, "delta") == outcome(
            reference_as_fraction, value, "delta"
        )

    @pytest.mark.parametrize("value", COST_SPECIALS, ids=repr)
    def test_cost_to_milli_special_floats(self, value):
        assert outcome(cost_to_milli, value) == outcome(reference_cost_to_milli, value)

    def test_cost_to_milli_small_ints_and_milli_decimals(self):
        for n in range(-3000, 3001):
            for value in (n, n / 1000, n / 10_000):
                assert outcome(cost_to_milli, value) == outcome(
                    reference_cost_to_milli, value
                ), value

    @settings(
        derandomize=True,
        max_examples=600,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(flat_documents())
    def test_parse_document(self, doc):
        for parse, reference in (
            (parse_document, reference_parse_document),
            (parse_hierarchical, reference_parse_hierarchical),
        ):
            got, want = outcome(parse, doc), outcome(reference, doc)
            if got != want:
                assert got[0] is ValidationError, (got, want)
                assert got[1] in merge_hidden_messages(doc), (got, want)


class TestCostFastPath:
    """``cost_to_milli`` takes a float below 2**30 that is a whole number of
    milli-units without building a Decimal; every float converts as the
    Fraction-based reference converts it."""

    @settings(derandomize=True, max_examples=3000, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.integers(0, 2**41).map(lambda n: n / 1000)
        | st.integers(0, 2**41).map(lambda n: n / 10_000)
    )
    def test_every_finite_float(self, value):
        assert outcome(cost_to_milli, value) == outcome(reference_cost_to_milli, value)

    def test_each_side_of_the_cutoff(self):
        limit = float(2**30)
        values = [limit, -limit, math.nextafter(limit, 0), math.nextafter(limit, math.inf)]
        for milli in range(-3, 4):
            values += [limit + milli / 1000, limit + milli / 10_000]
        values += [v + d for v in (limit - 1, 0.0) for d in (0.0, 0.001, 0.0005, 5e-324)]
        for value in values:
            got = outcome(cost_to_milli, value)
            assert got == outcome(reference_cost_to_milli, value), value
            if value == limit - 0.001:
                assert got == ("value", 2**30 * 1000 - 1)


class TestNumberLimit:
    """No number of a document or flag has a numerator or denominator above
    10**400; every finite float is within that."""

    LIMIT = 10**400

    @pytest.mark.parametrize(
        "value",
        [
            LIMIT,
            -LIMIT,
            f"{LIMIT}",
            f"-{LIMIT}/{LIMIT - 1}",
            f"1e{400}",
            f"1e-{400}",
            f"1{'0' * 399}e-799",
            5e-324,
            1.7976931348623157e308,
            "0e400",
        ],
        ids=lambda value: repr(value)[:24],
    )
    def test_within(self, value):
        frac = as_fraction(value)
        assert abs(frac.numerator) <= self.LIMIT and frac.denominator <= self.LIMIT

    @pytest.mark.parametrize(
        "value",
        [
            LIMIT + 1,
            -LIMIT - 1,
            f"{LIMIT + 1}",
            f"1/{LIMIT + 1}",
            "1e401",
            "1e-401",
            "0e99999999",
            "1e-99999999",
            "0." + "0" * 10**6 + "1",
            f"{' ' * 900}1",
        ],
        ids=lambda value: repr(value)[:24],
    )
    def test_beyond(self, value):
        with pytest.raises(ParseError, match=r"^delta: .* 10\*\*400$"):
            as_fraction(value, "delta")

    def test_costs_share_the_limit(self):
        assert cost_to_milli(self.LIMIT) == self.LIMIT * 1000
        for value in (self.LIMIT + 1, f"{self.LIMIT + 1}", "1e999999"):
            with pytest.raises(ParseError, match=r"^cost: "):
                cost_to_milli(value)

    @pytest.mark.parametrize("field", ["cost", "delta"])
    def test_column_parse_names_the_entry(self, field):
        # The common shape is read a column at a time; a value past the
        # limit sends it to the entry parse, which names the entry.
        value = {"cost": "1e999999", "delta": "1e-5000"}[field]
        doc = {
            "nodes": ["s", "r", "t"],
            "edges": [
                {"a": "s", "b": "r", "capacity": 1, "cost": 1, "delta": 0},
                {"a": "r", "b": "t", "capacity": 1, "cost": 1, "delta": 0, field: value},
            ],
            "source": "s",
            "sink": "t",
        }
        with pytest.raises(ParseError, match=rf"^edges\[1\]\.{field}: "):
            parse_document(doc)

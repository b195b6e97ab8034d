"""Channel models and capacity-weighted rate bounds."""

import random
from fractions import Fraction

import pytest

from ebitflow import (
    ChannelModel,
    MissingModel,
    NetworkGraph,
    ParseError,
    ValidationError,
    asymptotic_rate,
    channel_capacity,
    min_cut,
    parse_channel,
)
from oracles import random_network, weighted_cut_by_enumeration


def explicit(q, rate=1):
    return ChannelModel(kind="explicit", q=Fraction(q), use_rate=Fraction(rate))


def pure_loss(eta, rate=1):
    return ChannelModel(kind="pure-loss", eta=Fraction(eta), use_rate=Fraction(rate))


class TestChannelModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            ChannelModel(kind="thermal", q=Fraction(1))

    def test_explicit_needs_nonnegative_q(self):
        with pytest.raises(ValidationError):
            ChannelModel(kind="explicit")
        with pytest.raises(ValidationError):
            ChannelModel(kind="explicit", q=Fraction(-1))
        with pytest.raises(ValidationError):
            ChannelModel(kind="explicit", q=Fraction(1), eta=Fraction(1, 2))

    def test_pure_loss_needs_open_interval_eta(self):
        with pytest.raises(ValidationError):
            ChannelModel(kind="pure-loss")
        with pytest.raises(ValidationError):
            ChannelModel(kind="pure-loss", eta=Fraction(0))
        with pytest.raises(ValidationError):
            ChannelModel(kind="pure-loss", eta=Fraction(1))
        with pytest.raises(ValidationError):
            ChannelModel(kind="pure-loss", eta=Fraction(1, 2), q=Fraction(1))

    def test_use_rate_positive(self):
        with pytest.raises(ValidationError):
            ChannelModel(kind="explicit", q=Fraction(1), use_rate=Fraction(0))


class TestChannelCapacity:
    def test_explicit_passthrough(self):
        assert channel_capacity(explicit(Fraction(3, 2))) == Fraction(3, 2)

    def test_pure_loss_half(self):
        assert channel_capacity(pure_loss(Fraction(1, 2))) == pytest.approx(1.0)

    def test_pure_loss_three_quarters(self):
        assert channel_capacity(pure_loss(Fraction(3, 4))) == pytest.approx(2.0)

    def test_monotone_in_eta(self):
        caps = [channel_capacity(pure_loss(Fraction(k, 10))) for k in range(1, 10)]
        assert caps == sorted(caps)
        assert caps[0] < caps[-1]


class TestParseChannel:
    def test_explicit(self):
        m = parse_channel({"kind": "explicit", "Q": 2, "rate": "1/2"})
        assert m.q == 2 and m.use_rate == Fraction(1, 2)

    def test_pure_loss(self):
        m = parse_channel({"kind": "pure-loss", "eta": 0.5, "rate": 3})
        assert m.eta == Fraction(1, 2) and m.use_rate == 3

    def test_missing_rate(self):
        with pytest.raises(ParseError):
            parse_channel({"kind": "explicit", "Q": 2})

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_channel({"kind": "amplitude-damping", "rate": 1})

    def test_field_exclusivity(self):
        with pytest.raises(ParseError):
            parse_channel({"kind": "explicit", "Q": 2, "eta": 0.5, "rate": 1})
        with pytest.raises(ParseError):
            parse_channel({"kind": "pure-loss", "eta": 0.5, "Q": 2, "rate": 1})

    def test_missing_capacity_field(self):
        with pytest.raises(ParseError):
            parse_channel({"kind": "explicit", "rate": 1})
        with pytest.raises(ParseError):
            parse_channel({"kind": "pure-loss", "rate": 1})

    @pytest.mark.parametrize(
        "raw",
        [
            {"kind": "explicit", "Q": 10**400, "rate": 1},
            {"kind": "explicit", "Q": 0, "rate": 10**400},
            {"kind": "explicit", "Q": 10**200, "rate": 10**200},
            {"kind": "pure-loss", "eta": f"{10**400 - 1}/{10**400}", "rate": 1},
        ],
        ids=["huge-capacity", "huge-rate", "huge-weight", "eta-underflow"],
    )
    def test_values_beyond_float_range(self, raw):
        # Rates are computed in floats; these used to raise OverflowError
        # or a math domain error from inside the computation.
        with pytest.raises(ValidationError):
            parse_channel(raw)


def single_edge():
    return NetworkGraph.from_edge_list([("s", "t", 1, 0)], "s", "t")


def chain():
    return NetworkGraph.from_edge_list(
        [("s", "r", 1, 0), ("r", "t", 1, 0)], "s", "t"
    )


def diamond():
    return NetworkGraph.from_edge_list(
        [("s", "a", 1, 0), ("a", "t", 1, 0), ("s", "b", 1, 0), ("b", "t", 1, 0)],
        "s",
        "t",
    )


class TestAsymptoticRate:
    def test_single_edge(self):
        rate = asymptotic_rate(single_edge(), {("s", "t"): explicit(2)})
        assert rate == pytest.approx(2.0)

    def test_chain_takes_minimum(self):
        models = {("r", "s"): explicit(3), ("r", "t"): explicit(1)}
        assert asymptotic_rate(chain(), models) == pytest.approx(1.0)

    def test_diamond_sums_parallel_routes(self):
        models = {k: explicit(Fraction(1, 2)) for k in
                  [("a", "s"), ("a", "t"), ("b", "s"), ("b", "t")]}
        assert asymptotic_rate(diamond(), models) == pytest.approx(1.0)

    def test_missing_model(self):
        with pytest.raises(MissingModel):
            asymptotic_rate(chain(), {("r", "s"): explicit(3)})

    def test_use_rate_multiplies_capacity(self):
        rate = asymptotic_rate(single_edge(), {("s", "t"): explicit(2, rate=Fraction(5, 2))})
        assert rate == pytest.approx(5.0)

    def test_pure_loss_network(self):
        models = {("r", "s"): pure_loss(Fraction(1, 2)), ("r", "t"): pure_loss(Fraction(3, 4))}
        assert asymptotic_rate(chain(), models) == pytest.approx(1.0)

    def test_integer_weights_match_unit_min_cut(self):
        for seed in range(40):
            rnd = random.Random(seed)
            g = random_network(rnd, max_nodes=8, max_cap=4)
            models = {e.key: explicit(e.capacity) for e in g.edges}
            unit = NetworkGraph.from_edge_list(
                [(e.a, e.b, e.capacity, 0) for e in g.edges],
                g.source,
                g.sink,
                extra_nodes=g.nodes,
            )
            assert asymptotic_rate(g, models) == pytest.approx(float(min_cut(unit)))

    def test_matches_enumeration_oracle(self):
        for seed in range(30):
            rnd = random.Random(1000 + seed)
            g = random_network(rnd, max_nodes=7, max_cap=3)
            models = {}
            weights = {}
            for e in g.edges:
                q = Fraction(rnd.randint(0, 8), 4)
                r = Fraction(rnd.randint(1, 3))
                models[e.key] = explicit(q, rate=r)
                weights[e.key] = float(q * r)
            expected = weighted_cut_by_enumeration(g, weights)
            assert asymptotic_rate(g, models) == pytest.approx(expected, abs=1e-9)

    def test_scaling_in_use_rate(self):
        g = diamond()
        keys = [("a", "s"), ("a", "t"), ("b", "s"), ("b", "t")]
        base = {k: pure_loss(Fraction(1, 2), rate=1) for k in keys}
        tripled = {k: pure_loss(Fraction(1, 2), rate=3) for k in keys}
        assert asymptotic_rate(g, tripled) == pytest.approx(
            3 * asymptotic_rate(g, base)
        )

    def test_monotone_in_q(self):
        g = chain()
        lo = {("r", "s"): explicit(1), ("r", "t"): explicit(1)}
        hi = {("r", "s"): explicit(1), ("r", "t"): explicit(2)}
        assert asymptotic_rate(g, lo) <= asymptotic_rate(g, hi)


class TestSmallFloatWeights:
    """Float weights far below 1 count toward the cut at every magnitude."""

    @pytest.mark.parametrize("eta", [Fraction(1, 10**10), Fraction(1, 10**14)])
    def test_single_pure_loss_edge(self, eta):
        model = pure_loss(eta)
        rate = asymptotic_rate(single_edge(), {("s", "t"): model})
        assert rate > 0
        assert rate == pytest.approx(channel_capacity(model), rel=1e-12)

    def test_chain_of_small_weights(self):
        models = {("r", "s"): pure_loss(Fraction(1, 10**10)),
                  ("r", "t"): pure_loss(Fraction(2, 10**10))}
        expected = channel_capacity(models[("r", "s")])
        assert asymptotic_rate(chain(), models) == pytest.approx(expected, rel=1e-12)

    def test_chain_with_mixed_magnitudes(self):
        models = {("r", "s"): pure_loss(Fraction(1, 2)),
                  ("r", "t"): pure_loss(Fraction(1, 10**12), rate=3)}
        expected = 3 * channel_capacity(models[("r", "t")])
        assert asymptotic_rate(chain(), models) == pytest.approx(expected, rel=1e-12)

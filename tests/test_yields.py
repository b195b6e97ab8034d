import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ebitflow import (
    ParseError,
    ValidationError,
    YieldFunction,
    YieldShortfall,
    parse_yield,
)
from oracles import smallest_uses_by_scan


class TestEvaluation:
    def test_identity(self):
        yf = YieldFunction.identity(7)
        assert [yf(m) for m in range(4)] == [0, 1, 2, 3]
        assert yf.cap() == 7

    def test_linear_floor(self):
        yf = YieldFunction.linear_floor(Fraction(1, 3), 10)
        assert [yf(m) for m in (0, 2, 3, 9, 10)] == [0, 0, 1, 3, 3]
        assert yf.cap() == 3

    def test_table(self):
        yf = YieldFunction.table([(1, 0), (5, 2), (9, 4)])
        assert yf.max_uses == 9
        assert [yf(m) for m in (0, 1, 4, 5, 8, 9)] == [0, 0, 0, 2, 2, 4]
        assert yf.cap() == 4

    def test_uses_above_bound_rejected(self):
        yf = YieldFunction.identity(3)
        with pytest.raises(ValidationError):
            yf(4)
        with pytest.raises(ValidationError):
            yf(-1)

    def test_unbounded_has_no_cap(self):
        with pytest.raises(ValidationError):
            YieldFunction.identity().cap()


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            YieldFunction(kind="cubic")

    def test_linear_floor_needs_positive_rate(self):
        with pytest.raises(ValidationError):
            YieldFunction.linear_floor(Fraction(0), 5)
        with pytest.raises(ValidationError):
            YieldFunction.linear_floor(Fraction(-1, 2), 5)

    def test_table_must_increase_uses(self):
        with pytest.raises(ValidationError):
            YieldFunction.table([(3, 1), (3, 2)])
        with pytest.raises(ValidationError):
            YieldFunction.table([(0, 0)])

    def test_table_pairs_monotone(self):
        with pytest.raises(ValidationError):
            YieldFunction.table([(1, 2), (4, 1)])

    @pytest.mark.parametrize("rate", [0.5, "1/2"], ids=repr)
    def test_rate_is_converted_like_an_edge_error(self, rate):
        yf = YieldFunction("linear-floor", rate=rate, max_uses=10)
        assert yf == YieldFunction.linear_floor(Fraction(1, 2), 10)
        assert type(yf.rate) is Fraction
        assert yf.cap() == 5

    @pytest.mark.parametrize("rate", ["half", True, [1]], ids=repr)
    def test_bad_rate_is_a_parse_error(self, rate):
        with pytest.raises(ParseError, match="^rate: "):
            YieldFunction("linear-floor", rate=rate, max_uses=10)

    @pytest.mark.parametrize("max_uses", [True, False, 2.0, "3", -1], ids=repr)
    def test_max_uses_must_be_a_non_negative_int(self, max_uses):
        # Bools are refused as ``Edge`` and ``HierEdge`` refuse them.
        with pytest.raises(ValidationError, match="^max_uses must be a non-negative integer$"):
            YieldFunction.identity(max_uses)

    @pytest.mark.parametrize(
        "points",
        [
            [(1.7, 1), (2, 2)],
            [("x", 1)],
            [(1, "a")],
            [(True, 1)],
            [(1, 2, 3)],
            [5],
            "ab",
            5,
        ],
        ids=repr,
    )
    def test_table_points_must_be_int_pairs(self, points):
        message = "^table points must be \\(uses, pairs\\) integer pairs$"
        with pytest.raises(ValidationError, match=message):
            YieldFunction.table(points)
        with pytest.raises(ValidationError, match=message):
            YieldFunction("table", points=points, max_uses=3)

    def test_table_points_are_stored_as_int_tuples(self):
        yf = YieldFunction("table", points=[[1, 0], [4, 2]], max_uses=4)
        assert yf.points == ((1, 0), (4, 2))
        assert yf == YieldFunction.table([(1, 0), (4, 2)])

    def test_kind_field_exclusivity(self):
        with pytest.raises(ValidationError):
            YieldFunction(kind="identity", rate=Fraction(1, 2))
        with pytest.raises(ValidationError):
            YieldFunction(kind="linear-floor", rate=Fraction(1, 2), points=((1, 1),))


class TestInvert:
    def test_identity(self):
        assert YieldFunction.identity(10).invert(4) == 4

    def test_half_floor(self):
        assert YieldFunction.linear_floor(Fraction(1, 2), 20).invert(3) == 6

    def test_two_fifths_floor(self):
        assert YieldFunction.linear_floor(Fraction(2, 5), 20).invert(2) == 5

    def test_table(self):
        assert YieldFunction.table([(5, 2), (9, 4)]).invert(3) == 9

    def test_zero_target(self):
        assert YieldFunction.linear_floor(Fraction(1, 3), 5).invert(0) == 0

    def test_table_topout(self):
        with pytest.raises(YieldShortfall):
            YieldFunction.table([(5, 2), (9, 4)]).invert(5)

    def test_bound_overflow(self):
        with pytest.raises(YieldShortfall):
            YieldFunction.identity(3).invert(4)


class TestParse:
    def test_round_trip(self):
        for raw in (
            {"kind": "identity"},
            {"kind": "linear-floor", "rate": "1/3"},
            {"kind": "table", "points": [[1, 0], [5, 2]]},
        ):
            yf = parse_yield(raw, 9)
            assert parse_yield(yf.to_dict(), 9) == yf

    def test_unknown_fields(self):
        with pytest.raises(ParseError):
            parse_yield({"kind": "identity", "rate": 1})
        with pytest.raises(ParseError):
            parse_yield({"kind": "nope"})
        with pytest.raises(ParseError):
            parse_yield({"kind": "linear-floor"})
        with pytest.raises(ParseError):
            parse_yield({"kind": "table", "points": [[1, 0.5]]})

    def test_table_default_bound_is_last_point(self):
        yf = parse_yield({"kind": "table", "points": [[2, 1], [6, 3]]})
        assert yf.max_uses == 6


@st.composite
def bounded_yields(draw):
    kind = draw(st.sampled_from(["identity", "linear-floor", "table"]))
    bound = draw(st.integers(1, 30))
    if kind == "identity":
        return YieldFunction.identity(bound)
    if kind == "linear-floor":
        num = draw(st.integers(1, 5))
        den = draw(st.integers(1, 5))
        return YieldFunction.linear_floor(Fraction(num, den), bound)
    n_pts = draw(st.integers(1, min(4, bound)))
    uses = sorted(draw(st.lists(st.integers(1, bound), min_size=n_pts,
                                max_size=n_pts, unique=True)))
    pairs = sorted(draw(st.lists(st.integers(0, 8), min_size=len(uses),
                                 max_size=len(uses))))
    return YieldFunction.table(list(zip(uses, pairs)), bound)


class TestInvertProperties:
    @given(bounded_yields(), st.integers(0, 12))
    def test_matches_scan_oracle(self, yf, target):
        expected = smallest_uses_by_scan(yf, target)
        if expected is None:
            with pytest.raises(YieldShortfall):
                yf.invert(target)
        else:
            assert yf.invert(target) == expected

    @given(bounded_yields(), st.integers(1, 12))
    def test_minimality(self, yf, target):
        try:
            m = yf.invert(target)
        except YieldShortfall:
            return
        assert yf(m) >= target
        if m > 0:
            assert yf(m - 1) < target

"""Channel yield functions: Bell pairs obtained from a number of channel uses.

A yield function maps an integer use count m to the number of pairs the
channel delivers, is monotone non-decreasing, and yields nothing for zero
uses. Three kinds are supported:

* ``identity``: one pair per use.
* ``linear-floor``: floor(rate * m) for a positive rational rate.
* ``table``: a step function through explicit (uses, pairs) points.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping, Sequence
from fractions import Fraction

from .errors import ParseError, ValidationError, YieldShortfall
from .netgraph import _NUMBER_LIMIT, _is_int, _set, _too_large, _value_type, as_fraction

_KINDS = ("identity", "linear-floor", "table")


@_value_type
class YieldFunction:
    """Monotone map from channel uses to delivered Bell pairs.

    Attributes:
        kind: One of ``identity``, ``linear-floor``, ``table``.
        rate: Pairs per use for the linear-floor kind.
        points: Sorted (uses, pairs) steps for the table kind.
        max_uses: Allowed channel uses, or None when unbounded.
    """

    kind: str
    rate: Fraction | None
    points: tuple[tuple[int, int], ...] | None
    max_uses: int | None

    def __init__(
        self,
        kind: str,
        rate: Fraction | None = None,
        points: tuple[tuple[int, int], ...] | None = None,
        max_uses: int | None = None,
    ) -> None:
        if kind not in _KINDS:
            raise ValidationError(f"unknown yield kind {kind!r}")
        if max_uses is not None and (not _is_int(max_uses) or max_uses < 0):
            raise ValidationError("max_uses must be a non-negative integer")
        if kind == "linear-floor":
            rate = None if rate is None else as_fraction(rate, "rate")
            if rate is None or rate <= 0:
                raise ValidationError("linear-floor requires a positive rate")
        elif rate is not None:
            raise ValidationError(f"{kind} yield takes no rate")
        if kind == "table":
            if not points:
                raise ValidationError("table yield requires at least one point")
            points = _table_points(points)
            last_m, last_y = 0, 0
            for m, y in points:
                if m < 1:
                    raise ValidationError("table uses must be positive")
                if m <= last_m:
                    raise ValidationError("table uses must strictly increase")
                if y < last_y:
                    raise ValidationError("table pairs must be non-decreasing")
                last_m, last_y = m, y
        elif points is not None:
            raise ValidationError(f"{kind} yield takes no points")
        _set(self, "kind", kind)
        _set(self, "rate", rate)
        _set(self, "points", points)
        _set(self, "max_uses", max_uses)

    @classmethod
    def identity(cls, max_uses: int | None = None) -> "YieldFunction":
        return cls(kind="identity", max_uses=max_uses)

    @classmethod
    def linear_floor(cls, rate, max_uses: int | None = None) -> "YieldFunction":
        return cls(kind="linear-floor", rate=rate, max_uses=max_uses)

    @classmethod
    def table(
        cls, points: Sequence[Sequence[int]], max_uses: int | None = None
    ) -> "YieldFunction":
        pts = _table_points(points)
        if max_uses is None and pts:
            max_uses = pts[-1][0]
        return cls(kind="table", points=pts, max_uses=max_uses)

    def __call__(self, uses: int) -> int:
        if uses < 0:
            raise ValidationError("uses must be non-negative")
        if self.max_uses is not None and uses > self.max_uses:
            raise ValidationError(f"uses {uses} above bound {self.max_uses}")
        if self.kind == "identity":
            return uses
        if self.kind == "linear-floor":
            return (self.rate.numerator * uses) // self.rate.denominator
        idx = bisect_right([m for m, _ in self.points], uses)
        return self.points[idx - 1][1] if idx else 0

    def cap(self) -> int:
        """Pairs delivered at the use bound. Requires a finite bound."""
        if self.max_uses is None:
            raise ValidationError(f"{self.kind} yield has no finite use bound")
        return self(self.max_uses)

    def invert(self, target: int) -> int:
        """Smallest use count whose yield reaches ``target``.

        When the target is exactly attainable the returned count attains it;
        otherwise the yield at the returned count overshoots by the least
        possible amount. Raises YieldShortfall when no admissible use count
        reaches the target.
        """
        if target <= 0:
            return 0
        if self.kind == "identity":
            uses = target
        elif self.kind == "linear-floor":
            # floor(r*m) >= t iff r*m >= t for integer t
            uses = -((-target * self.rate.denominator) // self.rate.numerator)
        else:
            uses = None
            for m, y in self.points:
                if y >= target:
                    uses = m
                    break
            if uses is None:
                raise YieldShortfall(
                    f"table yield tops out at {self.points[-1][1]}, below {target}"
                )
        if self.max_uses is not None and uses > self.max_uses:
            raise YieldShortfall(
                f"reaching {target} pairs needs {uses} uses, above bound {self.max_uses}"
            )
        return uses

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.rate is not None:
            out["rate"] = str(self.rate)
        if self.points is not None:
            out["points"] = [list(p) for p in self.points]
        return out


def _table_points(points: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """``points`` as a tuple of (uses, pairs) int pairs.

    Raises:
        ValidationError: Unless ``points`` is a sequence of pairs of ints.
    """
    if not isinstance(points, Sequence) or not all(
        isinstance(p, Sequence) and len(p) == 2 and all(map(_is_int, p)) for p in points
    ):
        raise ValidationError("table points must be (uses, pairs) integer pairs")
    return tuple((int(m), int(y)) for m, y in points)


def parse_yield(raw: Mapping, max_uses: int | None = None) -> YieldFunction:
    """Build a YieldFunction from its JSON form, e.g. {"kind": "table", ...}."""
    if not isinstance(raw, Mapping):
        raise ParseError("yield: expected an object")
    kind = raw.get("kind")
    if kind == "identity":
        allowed = {"kind"}
    elif kind == "linear-floor":
        allowed = {"kind", "rate"}
    elif kind == "table":
        allowed = {"kind", "points"}
    else:
        raise ParseError(f"yield: unknown kind {kind!r}")
    unknown = set(raw) - allowed
    if unknown:
        raise ParseError(f"yield: unknown fields {sorted(unknown)}")
    if kind == "identity":
        return YieldFunction.identity(max_uses)
    if kind == "linear-floor":
        if "rate" not in raw:
            raise ParseError("yield: linear-floor requires a rate")
        return YieldFunction.linear_floor(as_fraction(raw["rate"], "yield.rate"), max_uses)
    pts = raw.get("points")
    if not isinstance(pts, Sequence):
        raise ParseError("yield: table requires a points array")
    for p in pts:
        if not isinstance(p, Sequence) or len(p) != 2 or not all(map(_is_int, p)):
            raise ParseError("yield: table points must be [uses, pairs] integer pairs")
        if max(map(abs, p)) > _NUMBER_LIMIT:
            raise _too_large("yield.points")
    return YieldFunction.table(pts, max_uses)

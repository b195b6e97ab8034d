"""Asymptotic entanglement-generation rates from per-edge channel models.

Each physical channel gets a two-way assisted capacity (ebits per use) and
a use rate (uses per unit time). The end-to-end rate is bounded by the min
cut under capacity-times-use-rate weights: the value of one Dinic max-flow.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction

from .errors import MissingModel, ParseError, ValidationError
from .netgraph import (
    EdgeKey,
    NetworkGraph,
    _set,
    _value_type,
    as_fraction,
    undirected_max_flow,
)


@_value_type
class ChannelModel:
    """A physical channel: capacity model plus use rate.

    ``explicit`` carries a known capacity in ebits per use; ``pure-loss``
    derives it from the transmissivity eta as -log2(1 - eta).
    """

    kind: str
    q: Fraction | None
    eta: Fraction | None
    use_rate: Fraction

    def __init__(
        self,
        kind: str,
        q: Fraction | None = None,
        eta: Fraction | None = None,
        use_rate: Fraction = Fraction(1),
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "q", q)
        _set(self, "eta", eta)
        _set(self, "use_rate", use_rate)
        if self.kind not in ("explicit", "pure-loss"):
            raise ValidationError(f"unknown channel kind {self.kind!r}")
        if self.kind == "explicit":
            if self.q is None or self.q < 0:
                raise ValidationError("explicit channel needs a capacity Q >= 0")
            if self.eta is not None:
                raise ValidationError("explicit channel takes no eta")
        else:
            if self.eta is None or not 0 < self.eta < 1:
                raise ValidationError("pure-loss channel needs eta in (0, 1)")
            if self.q is not None:
                raise ValidationError("pure-loss channel takes no Q")
        if self.use_rate <= 0:
            raise ValidationError("use_rate must be positive")
        # Rates are computed in floating point from here on.
        try:
            weight = float(self.use_rate) * float(channel_capacity(self))
        except (OverflowError, ValueError) as exc:
            raise ValidationError(f"channel parameters out of float range: {exc}") from exc
        if math.isinf(weight):
            raise ValidationError("channel weight overflows a float")


def channel_capacity(model: ChannelModel):
    """Ebits per channel use: Q for explicit, -log2(1 - eta) for pure loss."""
    if model.kind == "explicit":
        return model.q
    return -math.log2(1 - model.eta)


def parse_channel(raw: Mapping) -> ChannelModel:
    """Build a ChannelModel from its JSON annotation form."""
    if not isinstance(raw, Mapping):
        raise ParseError("channel: expected an object")
    kind = raw.get("kind")
    if kind == "explicit":
        allowed = {"kind", "Q", "rate"}
    elif kind == "pure-loss":
        allowed = {"kind", "eta", "rate"}
    else:
        raise ParseError(f"channel: unknown kind {kind!r}")
    unknown = set(raw) - allowed
    if unknown:
        raise ParseError(f"channel: unknown fields {sorted(unknown)}")
    if "rate" not in raw:
        raise ParseError("channel: missing use rate")
    rate = as_fraction(raw["rate"], "channel.rate")
    if kind == "explicit":
        if "Q" not in raw:
            raise ParseError("channel: explicit kind requires Q")
        return ChannelModel(kind="explicit", q=as_fraction(raw["Q"], "channel.Q"), use_rate=rate)
    if "eta" not in raw:
        raise ParseError("channel: pure-loss kind requires eta")
    return ChannelModel(
        kind="pure-loss", eta=as_fraction(raw["eta"], "channel.eta"), use_rate=rate
    )


def asymptotic_rate(g: NetworkGraph, models: Mapping[EdgeKey, ChannelModel]) -> float:
    """Rate bound: min cut of the network under capacity-times-rate weights.

    Uses exact rational arithmetic when every weight is rational; otherwise
    floating point. The cut weight is the value of a Dinic max-flow
    (``undirected_max_flow``) at any network size. Float runs take no
    tolerance: a saturating push leaves exactly zero residual, so Dinic
    terminates, and a weight of any magnitude counts toward the cut.

    Raises:
        MissingModel: If any edge lacks a channel model.
        ValidationError: If the min-cut weight does not fit a float.
    """
    weights: dict[EdgeKey, object] = {}
    for e in g.edges:
        model = models.get(e.key)
        if model is None:
            raise MissingModel(f"edge {e.key} has no channel model")
        capacity = channel_capacity(model)
        weights[e.key] = model.use_rate * capacity

    exact = all(isinstance(w, Fraction) for w in weights.values())
    if not exact:
        weights = {k: float(w) for k, w in weights.items()}

    flow = undirected_max_flow(
        g.nodes, ((k[0], k[1], w) for k, w in weights.items()), g.source, g.sink
    )
    return _finite(flow)


def _finite(weight) -> float:
    """A cut weight as a float; one beyond float range is a ValidationError,
    whether its exact sum overflows the conversion or its float sum is inf."""
    try:
        value = float(weight)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise ValidationError("the min-cut weight overflows a float")
    return value

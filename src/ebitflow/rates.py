"""Asymptotic entanglement-generation rates from per-edge channel models.

Each physical channel gets a two-way assisted capacity (ebits per use) and
a use rate (uses per unit time). The achievable end-to-end rate is bounded
by the minimum cut of the network weighted by capacity times use rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .errors import InvariantViolation, MissingModel, ParseError, ValidationError
from .netgraph import EdgeKey, NetworkGraph, as_fraction, undirected_max_flow

_ENUM_NODE_LIMIT = 12
_TOL = 1e-9


@dataclass(frozen=True)
class ChannelModel:
    """A physical channel: capacity model plus use rate.

    ``explicit`` carries a known capacity in ebits per use; ``pure-loss``
    derives it from the transmissivity eta as -log2(1 - eta).
    """

    kind: str
    q: Fraction | None = None
    eta: Fraction | None = None
    use_rate: Fraction = Fraction(1)

    def __post_init__(self) -> None:
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
    floating point with a 1e-9 tolerance. For up to 12 nodes the cut is
    found by subset enumeration and cross-checked against max-flow.

    Raises:
        MissingModel: If any edge lacks a channel model.
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
    tol = 0 if exact else _TOL

    flow = undirected_max_flow(
        g.nodes,
        ((k[0], k[1], w) for k, w in weights.items()),
        g.source,
        g.sink,
        tol=tol,
    )
    if len(g.nodes) <= _ENUM_NODE_LIMIT:
        cut = _enumerate_min_cut(g, weights)
        if not abs(float(cut) - float(flow)) <= _TOL:
            raise InvariantViolation("max-flow disagrees with min-cut")
        return float(cut)
    return float(flow)


def _enumerate_min_cut(g: NetworkGraph, weights: Mapping[EdgeKey, object]):
    others = [n for n in g.nodes if n not in (g.source, g.sink)]
    best = None
    for r in range(len(others) + 1):
        for combo in combinations(others, r):
            side = {g.source, *combo}
            total = 0
            for e in g.edges:
                if (e.a in side) != (e.b in side):
                    total += weights[e.key]
            if best is None or total < best:
                best = total
    return best

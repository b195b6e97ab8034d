"""Simulation of swap schedules under Pauli noise.

A swap schedule creates Bell pairs, joins them by Bell measurements and
fixes the joined pairs with Pauli corrections, so every state it reaches
is a product of Bell pairs, and Pauli noise and measurement outcomes
only flip their XX and ZZ signs. The simulator therefore keeps Bell
pairs and sign flips; it needs no stabilizer tableau. Supported noise:

* ``swap_depolarize_p``: before each Bell measurement, with this probability
  a uniformly random two-qubit Pauli (identity included) hits the two
  measured qubits. At probability 1 the measured pair is fully depolarized.
* ``pair_error``: per edge, the probability that a freshly created pair is
  replaced by a uniformly random Bell state, i.e. by the maximally mixed
  two-qubit state. A pair wrong with probability q sits at trace distance
  (3/4) q from the ideal pair, so a trace-distance budget d converts to a
  replacement probability of (4/3) d.

Frame plan. A schedule is checked and planned in one walk (``_plan``),
which keeps each live qubit's partner and, per pair, the draws that flip
its XX and its ZZ sign. Every draw sets GF(2) variables, and each
outcome, correction and delivery check of a run is the parity of a fixed
set of them: with every variable 0, every outcome is 0, no correction
fires and every check of a delivered pair reads +1. Trials are then
sampled bit-parallel, as Stim samples Pauli frames across shots (Gidney,
Quantum 5, 497, 2021, arXiv:2103.02202): one Python int per variable
carries a block of trials, one bit lane each, and a check's failing lanes
are the XOR of its variables' ints. ``run_schedule`` is the same plan and
lane 0 of a one-lane block. Every reader of a mask (the checks of both,
and the sites of the exact figures below) lists its variables with one
helper, ``_variables``.

Determinism. The generator is fixed by this specification. Trial i of
``fidelity_estimate`` is lane i mod 4096 of block i // 4096 (blocks of
``_SEED_BLOCK`` trials, the last one shorter). Block b draws from CPython's
``random.Random`` (MT19937) keyed by ``_block_key``, an injective encoding
of the seed's entropy words and b, and every draw is one bit plane,
``getrandbits(lanes)`` with ``lanes`` the block's trial count. Planes are
drawn step by step in instruction order (``_draw``): per noise site (a
created pair with a positive error probability, or a Bell measurement
with positive swap noise) planes compared with the binary digits of its
exact probability (a ratio of ints) until no lane is tied, then, if any
lane is hit, two per qubit, the X and Z part of a uniformly random Pauli,
ANDed with the hits; per random measurement outcome one plane. The plan itself draws nothing,
so results depend only on (schedule, noise, seed, trials), and each block
could run apart.

Besides Monte-Carlo estimation this module computes exact delivered-state
error at every schedule size, read off the same frame plan: a hit noise
site mixes the Bell label of each delivery that reads it uniformly, so the
pass probability has a closed form, and the operation error the same
form over the swap sites alone, both in ratios of ints up to the one
Fraction returned (``exact_figures``). A schedule with no such form is
refused, never given a figure that disagrees with the estimate.

Trace distance here is (1/2) the trace norm of the difference, so the
distance between a Bell state and the maximally mixed two-qubit state
is 3/4.
"""

from __future__ import annotations

import math
import numbers
import operator
import random
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import ScheduleViolation, ValidationError
from .netgraph import (
    EdgeKey,
    NetworkGraph,
    _is_probability,
    _max_str_digits,
    _set,
    _too_long,
    _value_type,
    as_fraction,
)
from .pathplan import (
    BellMeasure,
    CreateBellPair,
    PauliCorrect,
    SwapSchedule,
)

# ``simulate`` reports exact figures for schedules of at most this many
# qubits; the exact functions here take any size.
EXACT_QUBIT_LIMIT = 12

# Two-sided 95% normal quantile, used for Wilson intervals.
WILSON_Z = 1.959963984540054


@_value_type
class NoiseModel:
    """Pauli noise parameters for schedule execution.

    Attributes:
        swap_depolarize_p: Two-qubit depolarizing probability applied to the
            measured qubits of every Bell measurement.
        pair_error: Per-edge probability that a created pair is replaced by
            a uniformly random Bell state.
    """

    swap_depolarize_p: Fraction
    pair_error: Mapping[EdgeKey, Fraction]

    def __init__(
        self,
        swap_depolarize_p: Fraction = Fraction(0),
        pair_error: Mapping[EdgeKey, Fraction] | None = None,
    ) -> None:
        p = as_fraction(swap_depolarize_p, "swap_depolarize_p")
        if not _is_probability(p):
            raise ValidationError("swap_depolarize_p outside [0, 1]")
        # Always a fresh dict, the caller's own mapping is never kept. Equal
        # values share one Fraction, checked once.
        cleaned = {}
        figures: dict[tuple[int, int], Fraction] = {}
        for key, q in dict(pair_error or {}).items():
            qf = as_fraction(q, f"pair_error[{key}]")
            ints = qf.numerator, qf.denominator
            figure = figures.get(ints)
            if figure is None:
                if not _is_probability(qf):
                    raise ValidationError(f"pair_error[{key}] outside [0, 1]")
                figure = figures[ints] = qf
            cleaned[key] = figure
        _set(self, "swap_depolarize_p", p)
        _set(self, "pair_error", cleaned)

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls()

    @classmethod
    def from_graph(cls, g: NetworkGraph, swap_depolarize_p=0) -> "NoiseModel":
        """Saturate each edge's generation-error budget with pair noise.

        An edge budget d becomes replacement probability (4/3) d, which puts
        the generated pair at trace distance exactly d from ideal. Budgets
        above 3/4 cannot be saturated by this channel and are rejected;
        each distinct budget is checked once, here alone.
        """
        pair_error = {}
        figures: dict[tuple[int, int], Fraction] = {}
        for e in g.edges:
            num, den = ints = e.gen_error.numerator, e.gen_error.denominator
            if num == 0:
                continue
            q = figures.get(ints)
            if q is None:
                if 4 * num > 3 * den:
                    raise ValidationError(
                        f"edge {e.key}: generation error {e.gen_error} above 3/4 "
                        "cannot be realized as Bell-mixing noise"
                    )
                q = figures[ints] = Fraction(4 * num, 3 * den)
            pair_error[e.key] = q
        model = cls(swap_depolarize_p=swap_depolarize_p)
        _set(model, "pair_error", pair_error)
        return model


@_value_type
class PairOutcome:
    """Stabilizer check of one delivered pair."""

    copy: int
    source_qubit: int
    sink_qubit: int
    xx_sign: int
    zz_sign: int

    def __init__(
        self,
        copy: int,
        source_qubit: int,
        sink_qubit: int,
        xx_sign: int,
        zz_sign: int,
    ) -> None:
        _set(self, "copy", copy)
        _set(self, "source_qubit", source_qubit)
        _set(self, "sink_qubit", sink_qubit)
        _set(self, "xx_sign", xx_sign)
        _set(self, "zz_sign", zz_sign)

    @property
    def passed(self) -> bool:
        return self.xx_sign == 1 and self.zz_sign == 1


@_value_type
class RunResult:
    """One execution of a schedule: outcomes, corrections, delivered pairs."""

    outcomes: tuple[tuple[int, int], ...]
    corrections: tuple[tuple[int, str], ...]
    pairs: tuple[PairOutcome, ...]

    def __init__(
        self,
        outcomes: tuple[tuple[int, int], ...],
        corrections: tuple[tuple[int, str], ...],
        pairs: tuple[PairOutcome, ...],
    ) -> None:
        _set(self, "outcomes", outcomes)
        _set(self, "corrections", corrections)
        _set(self, "pairs", pairs)

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.pairs)


_PAULI_NAMES = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}
# The frame-plan step of a random measurement outcome (see ``_Plan``).
_OUTCOME = (1, 1, 1)


@_value_type
class _Plan:
    """The frame plan of a schedule (see the module docstring).

    The draws set GF(2) variables, numbered in draw order: two per noisy
    pair site (the X and Z part of the Pauli on its right qubit), four per
    noisy Bell measurement (the X and Z parts on its left, then its right
    qubit) and one per random outcome. Sets of variables are bitmasks, and
    a figure is the parity of the set variables in its mask.

    Attributes:
        steps: The draws in order, each ``(num, den, count)``: a site hit
            with probability num / den, ints in lowest terms, that then sets
            each of its ``count`` variables, the next ones in order, with
            probability 1/2. A noise site has two per qubit (count 2 on a
            pair, 4 on a measurement), so a hit puts a uniformly random
            Pauli on each; a random outcome is ``(1, 1, 1)``.
        outcomes: Per distinct measurement index, in sorted order, the
            masks of its two outcomes.
        fixes: Per correction, the masks of its X and its Z part.
        checks: Per delivery, the masks that flip its XX and its ZZ sign
            from +1, or None when its two qubits share no pair: neither
            sign is then stabilized, and the check fails whatever is drawn.
    """

    steps: tuple[tuple, ...]
    outcomes: tuple[tuple[int, int], ...]
    fixes: tuple[tuple[int, int], ...]
    checks: tuple[tuple[int, int] | None, ...]

    def __init__(self, steps, outcomes, fixes, checks) -> None:
        _set(self, "steps", steps)
        _set(self, "outcomes", outcomes)
        _set(self, "fixes", fixes)
        _set(self, "checks", checks)


def _plan(sched: SwapSchedule, noise: NoiseModel) -> _Plan:
    """Check a schedule and build its frame plan in one walk.

    Every live qubit has a partner, the other half of its Bell pair, and
    both share the pair's frame ``[xx, zz]``: the masks of the variables
    that flip its XX and its ZZ sign. A Pauli X on a qubit flips its pair's
    ZZ and a Pauli Z its XX. A Bell measurement of qubits a and b reads XX
    on them, then ZZ. If they are one pair, the outcomes are the pair's own
    masks. Otherwise both outcomes are random, a new variable each, and
    the partners of a and b become a pair, whose XX is the product of the
    two old XX and the measured one, and likewise its ZZ.

    Raises:
        ScheduleViolation: As ``run_schedule`` documents: the first fault
            in instruction order, then in delivery order.
    """
    n = sched.n_qubits
    created: set[int] = set()
    partner: dict[int, int] = {}
    frame: dict[int, list[int]] = {}
    steps: list[tuple] = []
    outcomes: dict[int, tuple[int, int]] = {}
    fixes = []
    pair_error = noise.pair_error
    swap_p = noise.swap_depolarize_p
    swap_step = swap_p.numerator, swap_p.denominator, 4
    swap_noisy = swap_p.numerator > 0
    nv = 0

    def require_live(q: int, action: str) -> None:
        if q not in partner:
            if q in created:
                raise ScheduleViolation(f"{action} on already measured qubit q{q}")
            raise ScheduleViolation(f"{action} on qubit q{q} before creation")

    for ins in sched.instructions:
        if isinstance(ins, CreateBellPair):
            a, b = ins.qubit_left, ins.qubit_right
            for q in (a, b):
                if not 0 <= q < n:
                    raise ScheduleViolation(
                        f"qubit q{q} outside the schedule's {n} qubits"
                    )
                if q in created:
                    raise ScheduleViolation(f"qubit q{q} created twice")
                created.add(q)
            q = pair_error.get(ins.edge)
            if q:
                # The X part on b flips ZZ, the Z part XX.
                pair = [2 << nv, 1 << nv]
                steps.append((q.numerator, q.denominator, 2))
                nv += 2
            else:
                pair = [0, 0]
            partner[a], partner[b] = b, a
            frame[a] = frame[b] = pair
        elif isinstance(ins, BellMeasure):
            a, b = ins.qubit_left, ins.qubit_right
            if a == b:
                raise ScheduleViolation(f"Bell measurement m{ins.index} on one qubit q{a}")
            require_live(a, "measurement")
            require_live(b, "measurement")
            c, d = partner.pop(a), partner.pop(b)
            fa, fb = frame.pop(a), frame.pop(b)
            if swap_noisy:
                fa[0] ^= 2 << nv
                fa[1] ^= 1 << nv
                fb[0] ^= 8 << nv
                fb[1] ^= 4 << nv
                steps.append(swap_step)
                nv += 4
            if c == b:
                outcomes[ins.index] = (fa[0], fa[1])
            else:
                m_a, m_b = 1 << nv, 2 << nv
                steps += (_OUTCOME, _OUTCOME)
                nv += 2
                outcomes[ins.index] = (m_a, m_b)
                partner[c], partner[d] = d, c
                frame[c] = frame[d] = [fa[0] ^ fb[0] ^ m_a, fa[1] ^ fb[1] ^ m_b]
        elif isinstance(ins, PauliCorrect):
            require_live(ins.qubit, "correction")
            mask_x = mask_z = 0
            for src in ins.sources:
                if src not in outcomes:
                    raise ScheduleViolation(f"correction reads unknown outcome m{src}")
                m_a, m_b = outcomes[src]
                mask_z ^= m_a
                mask_x ^= m_b
            pair = frame[ins.qubit]
            pair[0] ^= mask_z
            pair[1] ^= mask_x
            fixes.append((mask_x, mask_z))
        else:
            raise ScheduleViolation(f"unknown instruction {ins!r}")
    checks = []
    for d in sched.deliveries:
        s, t = d.source_qubit, d.sink_qubit
        require_live(s, "delivery check")
        require_live(t, "delivery check")
        checks.append(tuple(frame[s]) if partner[s] == t else None)
    return _Plan(
        steps=tuple(steps),
        outcomes=tuple(outcomes[index] for index in sorted(outcomes)),
        fixes=tuple(fixes),
        checks=tuple(checks),
    )


# Trials sampled together, one bit lane each: a block's ints are 4096 bits.
_SEED_BLOCK = 4096
_M32 = 0xFFFFFFFF


def _entropy_words(seed: int | Sequence[int]) -> list[int]:
    """Check a seed and return its entropy words: each int split into
    little-endian 32-bit words, sequences concatenated, recursively.

    A seed is a non-negative int (numpy ints included, bools not) or a
    sequence of seeds: a list, tuple, range or array of one or more
    dimensions. Iterators and sets are refused rather than consumed, and so
    are bytes and a 0-d array, as numpy's seeding refuses them too.

    Raises:
        ValidationError: On any other seed, or one nested deeper than
            Python's recursion limit allows.
    """
    n = seed
    if type(n) is not int:
        if isinstance(n, numbers.Integral) and not isinstance(n, bool):
            n = operator.index(n)
        elif (
            isinstance(n, Sequence) and not isinstance(n, (str, bytes, bytearray))
        ) or getattr(n, "ndim", 0):
            try:
                return [word for item in n for word in _entropy_words(item)]
            except RecursionError:
                raise ValidationError("seed nested too deep") from None
        else:
            raise ValidationError(f"seed must be an integer, got {seed!r}")
    if n < 0:
        raise ValidationError(f"seed must be non-negative, got {n}")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _block_key(seed_words: Sequence[int], block: int) -> int:
    """The ``random.Random`` key of trial block ``block``: the int whose
    32-bit words, least significant first, are the number of seed words,
    the seed words, then the block index. The count comes first, so no two
    (seed words, block) pairs share a key."""
    key = block
    for word in reversed(seed_words):
        key = key << 32 | word
    return key << 32 | len(seed_words)


def _draw(steps: Sequence[tuple[int, int, int]], key: int, lanes: int) -> list[int]:
    """Sample ``lanes`` trials of a frame plan at once, one bit lane each.

    Returns one int per plan variable, with bit k set when trial k sets
    the variable. Every draw is a bit plane, ``getrandbits(lanes)`` of
    ``random.Random(key)``, taken step by step in order. A step ``(num,
    den, count)`` hits the lanes whose uniform draw in [0, 1) lies below
    p = num / den: the planes are the draw's binary digits, compared with
    p's digits by long division, most significant first, until no lane is
    tied; p = 1 hits every lane without a plane. If any lane is hit, each
    of the ``count`` variables then takes one plane ANDed with the hits;
    otherwise the step draws nothing more.
    """
    getrandbits = random.Random(key).getrandbits
    full = (1 << lanes) - 1
    values: list[int] = []
    for num, den, count in steps:
        if num == den:
            hit = full
        else:
            hit, tied = 0, full
            while tied:
                plane = getrandbits(lanes)
                num <<= 1
                if num >= den:
                    # Digit 1 of p: a tied lane with digit 0 lies below p.
                    num -= den
                    hit |= tied & ~plane
                    tied &= plane
                else:
                    tied &= ~plane
        if hit:
            values += [getrandbits(lanes) & hit for _ in range(count)]
        else:
            values += [0] * count
    return values


def _variables(mask: int) -> list[int]:
    """The variables set in ``mask``, in increasing order."""
    found, var = [], -1
    while mask:
        skip = (mask & -mask).bit_length()
        var += skip
        mask >>= skip
        found.append(var)
    return found


def _flips(mask: int, values: Sequence[int]) -> int:
    """The lanes where the variables of ``mask`` XOR to 1, given the lane
    ints ``values`` of ``_draw``."""
    flips = 0
    for var in _variables(mask):
        flips ^= values[var]
    return flips


def _failing(checks: Sequence[tuple | None], values: Sequence[int], lanes: int) -> list[int]:
    """Per delivery of ``_Plan.checks``, the lanes whose trial fails its XX
    or its ZZ check, given the lane ints ``values`` of ``_draw``. A sign
    flips where the XOR of its variables is set; a delivery whose qubits
    share no pair (None) fails everywhere."""
    full = (1 << lanes) - 1
    return [
        full if check is None else _flips(check[0], values) | _flips(check[1], values)
        for check in checks
    ]


def run_schedule(
    sched: SwapSchedule,
    noise: NoiseModel | None = None,
    seed: int | Sequence[int] = 0,
) -> RunResult:
    """Execute a schedule once.

    Deterministic for a given (schedule, noise, seed) triple: the run is
    lane 0 of a one-lane block 0 of ``fidelity_estimate``'s sampler: each
    figure is the parity of the frame-plan variables its draws set.

    Raises:
        ScheduleViolation: On double creation, qubits outside the schedule,
            a Bell measurement of one qubit with itself, gates or
            corrections on measured qubits, re-measurement, or unknown
            measurement sources.
        ValidationError: On a seed that is not a non-negative int or a
            sequence of seeds (a list, tuple, range or array; not an
            iterator or a set), or one nested too deep.
    """
    key = _block_key(_entropy_words(seed), 0)
    plan = _plan(sched, noise or NoiseModel.zero())
    values = _draw(plan.steps, key, 1)
    return RunResult(
        outcomes=tuple((_flips(a, values), _flips(b, values)) for a, b in plan.outcomes),
        corrections=tuple(
            (ins.qubit, _PAULI_NAMES[_flips(fx, values), _flips(fz, values)])
            for ins, (fx, fz) in zip(
                (ins for ins in sched.instructions if isinstance(ins, PauliCorrect)),
                plan.fixes,
            )
        ),
        pairs=tuple(
            PairOutcome(
                copy=d.copy,
                source_qubit=d.source_qubit,
                sink_qubit=d.sink_qubit,
                xx_sign=0 if check is None else 1 - 2 * _flips(check[0], values),
                zz_sign=0 if check is None else 1 - 2 * _flips(check[1], values),
            )
            for d, check in zip(sched.deliveries, plan.checks)
        ),
    )


def _require_int(value: object, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValidationError(f"successes must lie in [0, {trials}], got {successes}")
    p = successes / trials
    zz = z * z
    denom = 1 + zz / trials
    center = (p + zz / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials * trials)) / denom
    # Rounding must not push an endpoint past the point estimate.
    return (max(0.0, min(center - half, p)), min(1.0, max(center + half, p)))


@_value_type
class PairStats:
    """Pass count of one delivered pair over the trials, with its Wilson
    score interval."""

    copy: int
    passes: int
    trials: int
    estimate: float
    wilson_low: float
    wilson_high: float

    def __init__(
        self,
        copy: int,
        passes: int,
        trials: int,
        estimate: float,
        wilson_low: float,
        wilson_high: float,
    ) -> None:
        _set(self, "copy", copy)
        _set(self, "passes", passes)
        _set(self, "trials", trials)
        _set(self, "estimate", estimate)
        _set(self, "wilson_low", wilson_low)
        _set(self, "wilson_high", wilson_high)


@_value_type
class FidelityEstimate:
    """Monte-Carlo estimate of per-pair stabilizer-check pass rates."""

    trials: int
    pairs: tuple[PairStats, ...]
    all_pass_count: int

    def __init__(
        self,
        trials: int,
        pairs: tuple[PairStats, ...],
        all_pass_count: int,
    ) -> None:
        _set(self, "trials", trials)
        _set(self, "pairs", pairs)
        _set(self, "all_pass_count", all_pass_count)

    @property
    def all_pass_rate(self) -> float:
        return self.all_pass_count / self.trials


def fidelity_estimate(
    sched: SwapSchedule,
    noise: NoiseModel | None = None,
    trials: int = 1000,
    seed: int | Sequence[int] = 0,
) -> FidelityEstimate:
    """Estimate Pr[pair passes its XX and ZZ check] for every delivery.

    The schedule is walked once, by ``_plan``. Trials are then sampled on
    bit lanes (``_draw``), in blocks of up to
    ``_SEED_BLOCK`` trials: trial i is lane i mod 4096 of block i // 4096,
    whose generator is keyed by the seed and the block index alone, so
    estimates are reproducible and blocks could run apart without changing
    results. A trial's draws depend on the lane count of its block, so an
    estimate over fewer trials need not be a prefix of one over more. A
    trial's verdict is the parities of the variables its draws set.
    ``seed`` is what ``run_schedule`` takes: a non-negative int or a
    sequence of seeds.

    Raises:
        ValidationError: On a ``trials`` that is not a positive int, or a
            seed that ``run_schedule`` rejects.
    """
    _require_int(trials, "trials")
    if trials <= 0:
        raise ValidationError("trials must be positive")
    seed_words = _entropy_words(seed)
    plan = _plan(sched, noise or NoiseModel.zero())
    passes = [0] * len(plan.checks)
    all_pass = 0
    for block, first in enumerate(range(0, trials, _SEED_BLOCK)):
        lanes = min(_SEED_BLOCK, trials - first)
        values = _draw(plan.steps, _block_key(seed_words, block), lanes)
        failed = 0
        for i, fail in enumerate(_failing(plan.checks, values, lanes)):
            passes[i] += lanes - fail.bit_count()
            failed |= fail
        all_pass += lanes - failed.bit_count()
    stats = []
    for i, d in enumerate(sched.deliveries):
        lo, hi = wilson_interval(passes[i], trials)
        stats.append(
            PairStats(
                copy=d.copy,
                passes=passes[i],
                trials=trials,
                estimate=passes[i] / trials,
                wilson_low=lo,
                wilson_high=hi,
            )
        )
    return FidelityEstimate(trials=trials, pairs=tuple(stats), all_pass_count=all_pass)


def exact_figures(
    sched: SwapSchedule, noise: NoiseModel | None = None
) -> tuple[Fraction, Fraction]:
    """Exact pass probability and operation error of a schedule, read off
    the frame plan that ``fidelity_estimate`` samples.

    Every plan variable is born into the XX or the ZZ channel and stays
    there (a noise site puts Z parts in XX and X parts in ZZ, a random
    outcome ``m_a`` in XX and ``m_b`` in ZZ, and corrections keep them
    apart), and a hit site sets its variables uniformly. So a delivery whose
    XX and ZZ signs read the same sites keeps its ideal Bell label unless
    one is hit, and passes with probability (3P + 1) / 4, P the product of
    (1 - p) over those sites. Deliveries on disjoint sites multiply, and one
    whose qubits share no pair never passes. The operation error is 1 minus
    the same form over the swap sites alone, those read without pair noise.

    Raises:
        ScheduleViolation: As ``fidelity_estimate``; or when a delivery's
            XX and ZZ signs read different sites (an outcome no correction
            cancels, say), or two deliveries read one site.
        TooLarge: As ``_pass_probability``, the pass probability first.
    """
    groups = _site_groups(sched, noise)
    if groups is None:
        return Fraction(0), Fraction(1)
    return _pass_probability(groups[0].items()), 1 - _pass_probability(groups[1].items())


def exact_pass_probability(sched: SwapSchedule, noise: NoiseModel | None = None) -> Fraction:
    """Exact probability that every delivered pair passes its Bell check:
    the first figure of ``exact_figures``, with no operation error computed.
    Raises as ``exact_figures``.
    """
    groups = _site_groups(sched, noise)
    return Fraction(0) if groups is None else _pass_probability(groups[0].items())


def _site_groups(sched: SwapSchedule, noise: NoiseModel | None) -> tuple[dict, dict] | None:
    """The ``_pass_probability`` groups ``{keep: copies}`` of both exact
    figures, or None if some delivery's qubits share no pair: deliveries
    whose sites have the same figures, in order, pass alike."""
    plan = _plan(sched, noise or NoiseModel.zero())
    if None in plan.checks:
        return None
    step_of = [i for i, (_, _, count) in enumerate(plan.steps) for _ in range(count)]
    read: set[int] = set()
    groups: tuple[dict, dict] = ({}, {})
    for d, (xx, zz) in zip(sched.deliveries, plan.checks):
        sites = _sites(xx, step_of)
        where = f"delivery check of q{d.source_qubit} and q{d.sink_qubit}"
        if sites != _sites(zz, step_of):
            raise ScheduleViolation(f"{where}: XX and ZZ read different draws")
        if not read.isdisjoint(sites):
            raise ScheduleViolation(f"{where}: reads a noise site read before")
        read |= sites
        figures = [plan.steps[i] for i in sorted(sites)]
        swaps = [step for step in figures if step[2] != 2]
        for group, steps in zip(groups, (figures, swaps)):
            keep = tuple((den - num, den) for num, den, _ in steps)
            group[keep] = group.get(keep, 0) + 1
    return groups


def _sites(mask: int, step_of: Sequence[int]) -> set[int]:
    """The plan steps that ``mask`` reads, ``step_of[v]`` the step of v."""
    return {step_of[var] for var in _variables(mask)}


def _pass_probability(groups: Iterable[tuple]) -> Fraction:
    """The product over groups ``(keep, copies)`` of ``((3P + 1) / 4) **
    copies``, with P the product of the int pairs ``(den - num, den)`` in
    ``keep``: the ``1 - p`` of each noise site ``p = num / den`` of one of
    ``copies`` equal path copies. Int ratios are reduced by ``math.gcd``
    where a Fraction would be; one Fraction is built at the end.

    Raises:
        TooLarge: Once a power, a copy's P or the running product has a
            denominator with more bits than a number of
            ``netgraph._max_str_digits()`` digits can have, so the figure
            could not be written as text. A power is refused before it is
            computed: ``x ** k`` has the k-th power of x's denominator.
    """
    # Bits of the longest denominator a figure may have (no bound when
    # Python writes ints of any length).
    max_bits = (_max_str_digits() or math.inf) * math.log2(10) + 1
    num = den = 1
    for keep, copies in groups:
        p_num = p_den = 1
        for factor in keep:
            p_num, p_den = _product(p_num, p_den, *factor, max_bits)
        g = math.gcd(3 * p_num + p_den, 4 * p_den)
        base_num, base_den = (3 * p_num + p_den) // g, 4 * p_den // g
        # d ** k has at least k * (bits(d) - 1) + 1 bits.
        if copies * (base_den.bit_length() - 1) + 1 > max_bits:
            raise _too_long()
        num, den = _product(num, den, base_num**copies, base_den**copies, max_bits)
    return Fraction(num, den)


def _product(n1: int, d1: int, n2: int, d2: int, max_bits: float) -> tuple[int, int]:
    """(n1 / d1) (n2 / d2), both in lowest terms, reduced as Fraction does."""
    g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
    den = (d1 // g2) * (d2 // g1)
    if den.bit_length() > max_bits:
        raise _too_long()
    return (n1 // g1) * (n2 // g2), den


def exact_operation_error(sched: SwapSchedule, noise: NoiseModel | None = None) -> Fraction:
    """Trace distance between noisy and noiseless execution on ideal pairs.

    Pair-generation noise is deliberately excluded: this measures only the
    error the swapping operation itself introduces.

    Raises:
        TooLarge: As ``exact_pass_probability``.
    """
    noise = noise or NoiseModel.zero()
    stripped = NoiseModel(swap_depolarize_p=noise.swap_depolarize_p)
    return 1 - exact_pass_probability(sched, stripped)


def exact_trace_distance(sched: SwapSchedule, noise: NoiseModel | None = None) -> Fraction:
    """Exact trace distance of the delivered state from ideal pairs,
    with both pair-generation and swap noise active.

    Raises:
        TooLarge: As ``exact_pass_probability``.
    """
    return 1 - exact_pass_probability(sched, noise)


def generation_error_budget(g: NetworkGraph, active: Iterable[EdgeKey]) -> Fraction:
    """Sum of per-edge generation-error budgets over ``active`` edges.

    Numerators are summed as ints per denominator, then one Fraction is
    built per distinct denominator.
    """
    edge_map = g.edge_map
    sums: dict[int, int] = {}
    for key in active:
        d = edge_map[key].gen_error
        sums[d.denominator] = sums.get(d.denominator, 0) + d.numerator
    return sum((Fraction(num, den) for den, num in sums.items()), Fraction(0))


@_value_type
class ErrorBudget:
    """Additive end-to-end error bound: generation plus operation error.

    The delivered state's trace distance from ideal pairs is at most
    ``generation + operation``: generation noise moves the input state by at
    most the summed per-edge budgets, the swapping operation cannot increase
    that distance, and its own error adds by the triangle inequality.
    """

    generation: Fraction
    operation: Fraction

    def __init__(self, generation: Fraction, operation: Fraction) -> None:
        _set(self, "generation", generation)
        _set(self, "operation", operation)

    @property
    def total(self) -> Fraction:
        return self.generation + self.operation

"""Stabilizer-circuit simulation of swap schedules under Pauli noise.

The simulator executes a ``SwapSchedule`` on Aaronson-Gottesman tableaus
(arXiv:quant-ph/0406196): destabilizer and stabilizer generators with sign
bits, so every operation stays polynomial in the qubit count. Supported
noise:

* ``swap_depolarize_p``: before each Bell measurement, with this probability
  a uniformly random two-qubit Pauli (identity included) hits the two
  measured qubits. At probability 1 the measured pair is fully depolarized.
* ``pair_error``: per edge, the probability that a freshly created pair is
  replaced by a uniformly random Bell state, i.e. by the maximally mixed
  two-qubit state. A pair wrong with probability q sits at trace distance
  (3/4) q from the ideal pair, so a trace-distance budget d converts to a
  replacement probability of (4/3) d.

Layout. Each tableau is bit-packed into Python ints, one int per qubit
column and one for the signs (see ``StabilizerState``). A schedule is
compiled once into a list of operations on small tableaus, one per group
of qubits that interact: qubits tied by a pair creation, a Bell
measurement or a delivery check share a tableau. Path copies share no
qubits, so a 198-qubit schedule of nine copies runs as nine 22-qubit
tableaus; their product is the joint state.

Determinism. A run draws from one generator, ``numpy.random.default_rng``
of the given seed; ``fidelity_estimate`` seeds one per trial with
``(seed, trial)``. Draws happen in instruction order: per created pair with
a positive error probability one ``random()`` and, on a hit, one
``integers(4)``; per Bell measurement with positive swap noise one
``random()`` and, on a hit, two ``integers(4)``; then one ``integers(2)``
for each of its two outcomes that is random. Splitting the state into
copies changes none of these draws, so results depend only on
(schedule, noise, seed).

Besides Monte-Carlo estimation this module computes exact delivered-state
error for small schedules: every Pauli-noise branch delivers a product of
Bell states, so the output mixture is diagonal in the Bell-product basis
and trace distances reduce to exact rational arithmetic over per-site
branch weights.

Trace distance here is (1/2) the trace norm of the difference, so the
distance between a Bell state and the maximally mixed two-qubit state
is 3/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvariantViolation, ScheduleViolation, TooLarge, ValidationError
from .netgraph import EdgeKey, NetworkGraph, as_fraction
from .pathplan import (
    BellMeasure,
    CreateBellPair,
    PauliCorrect,
    SwapSchedule,
)

# Exact computations are contracted for at most this many qubits.
EXACT_QUBIT_LIMIT = 12

# Two-sided 95% normal quantile, used for Wilson intervals.
WILSON_Z = 1.959963984540054


class StabilizerState:
    """Pure stabilizer state on ``n`` qubits, initially all-zeros.

    Rows 0..n-1 of the tableau hold destabilizers, rows n..2n-1 hold
    stabilizers. The tableau is stored by column: bit ``i`` of ``x[q]``
    (of ``z[q]``) is set when generator ``i`` has an X (a Z) part on qubit
    ``q``, and bit ``i`` of ``r`` when generator ``i`` has sign -1. Gates
    and Pauli flips are a few integer operations; a measurement walks the
    ``n`` columns once. Destabilizer signs are never read, so they are not
    kept exact.
    """

    __slots__ = ("n", "x", "z", "r")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValidationError("qubit count must be non-negative")
        self.n = n
        self.x = [1 << q for q in range(n)]
        self.z = [1 << (n + q) for q in range(n)]
        self.r = 0

    def h(self, q: int) -> None:
        x, z = self.x, self.z
        self.r ^= x[q] & z[q]
        x[q], z[q] = z[q], x[q]

    def cnot(self, control: int, target: int) -> None:
        x, z = self.x, self.z
        xc, zt = x[control], z[target]
        self.r ^= xc & zt & ~(x[target] ^ z[control])
        x[target] ^= xc
        z[control] ^= zt

    def apply_x(self, q: int) -> None:
        self.r ^= self.z[q]

    def apply_z(self, q: int) -> None:
        self.r ^= self.x[q]

    def apply_y(self, q: int) -> None:
        self.r ^= self.x[q] ^ self.z[q]

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Measure qubit ``q`` in the computational basis; returns 0 or 1."""
        n, x, z = self.n, self.x, self.z
        col = x[q]
        anti = col >> n
        if not anti:
            # Outcome determined: the stabilizers paired with the
            # destabilizers that carry an X on q multiply to +-Z_q.
            return self._product(col << n)[2]
        # Outcome random: the first stabilizer anticommuting with Z_q is the
        # pivot. Multiply it into every other row anticommuting with Z_q,
        # move it to its destabilizer slot and replace it with +-Z_q.
        d = (anti & -anti).bit_length() - 1
        p = n + d
        others = col ^ (1 << p)
        moved = (1 << p) | (1 << d)
        keep = ~moved
        # Bit-sliced mod-4 counters (c1 c0) of each row's phase exponent,
        # summed over the pivot's support with the g function of
        # Aaronson-Gottesman: an X, Y or Z pivot entry adds +1 or -1 by the
        # row's entry on that qubit.
        c0 = c1 = 0
        for j in range(n):
            xj, zj = x[j], z[j]
            if not (xj | zj) & moved:
                continue
            px, pz = xj >> p & 1, zj >> p & 1
            if px or pz:
                if px and pz:
                    up, down = others & zj & ~xj, others & xj & ~zj
                elif px:
                    up, down = others & zj & xj, others & zj & ~xj
                else:
                    up, down = others & xj & ~zj, others & xj & zj
                carry = c0 & up
                c0 ^= up
                c1 ^= carry
                borrow = down & ~c0
                c0 ^= down
                c1 ^= borrow
                if px:
                    xj ^= others
                if pz:
                    zj ^= others
            x[j] = (xj & keep) | (px << d)
            z[j] = (zj & keep) | (pz << d)
        if (c0 & others) >> n:
            raise InvariantViolation(
                f"stabilizer sign became imaginary measuring q{q}: corrupted tableau"
            )
        r = self.r ^ c1
        sign_p = r >> p & 1
        if sign_p:
            r ^= others
        outcome = int(rng.integers(2))
        self.r = (r & keep) | (sign_p << d) | (outcome << p)
        # Also multiply the new +-Z_q into every destabilizer with a Z on q
        # (their signs are never read), so rows stay short.
        z[q] = (z[q] >> n | 1 << d) << n
        return outcome

    def _product(self, rows: int) -> tuple[int, int, int]:
        """Product of the commuting generators in the row bitmask ``rows``.

        Returns its X and Z parts as qubit bitmasks and its sign bit. In
        X^x Z^z form a generator with sign bit s is i^(2s + |x & z|) X^x Z^z;
        moving each X part left past the Z parts of earlier rows costs
        (-1)^(z_k . x_l), and the product's own |x & z| leaves again.

        Raises:
            InvariantViolation: If the phase comes out imaginary, which
                commuting generators cannot give: the tableau is corrupted.
        """
        e = 2 * (self.r & rows).bit_count()
        prod_x = prod_z = 0
        bit = 1
        for xj, zj in zip(self.x, self.z):
            xj &= rows
            zj &= rows
            if xj and zj:
                e += (xj & zj).bit_count()
                t = xj
                while t:
                    low = t & -t
                    e += 2 * (zj & (low - 1)).bit_count()
                    t ^= low
            if xj and xj.bit_count() & 1:
                prod_x |= bit
            if zj and zj.bit_count() & 1:
                prod_z |= bit
            bit <<= 1
        e -= (prod_x & prod_z).bit_count()
        if e & 1:
            raise InvariantViolation(
                "stabilizer product has an imaginary phase: corrupted tableau"
            )
        return prod_x, prod_z, e >> 1 & 1

    def _expectation(self, px: int, pz: int) -> int:
        """``expectation`` for a Pauli given as qubit bitmasks."""
        x, z = self.x, self.z
        anti = 0
        support = px | pz
        while support:
            low = support & -support
            j = low.bit_length() - 1
            if pz & low:
                anti ^= x[j]
            if px & low:
                anti ^= z[j]
            support ^= low
        if anti >> self.n:
            return 0
        prod_x, prod_z, sign = self._product(anti << self.n)
        if (prod_x, prod_z) != (px, pz):
            return 0
        return 1 - 2 * sign

    def expectation(self, xs: Sequence[int], zs: Sequence[int]) -> int:
        """Expectation of the +1-phase Pauli with X part ``xs``, Z part ``zs``.

        Returns +1 or -1 when the Pauli (up to sign) is in the stabilizer
        group, 0 otherwise.
        """
        px = sum(1 << j for j, b in enumerate(xs) if b)
        pz = sum(1 << j for j, b in enumerate(zs) if b)
        return self._expectation(px, pz)

    def pair_expectations(self, qa: int, qb: int) -> tuple[int, int]:
        """Signs of XX and ZZ on a qubit pair (+1, -1, or 0 each)."""
        both = (1 << qa) | (1 << qb)
        return self._expectation(both, 0), self._expectation(0, both)


@dataclass(frozen=True)
class NoiseModel:
    """Pauli noise parameters for schedule execution.

    Attributes:
        swap_depolarize_p: Two-qubit depolarizing probability applied to the
            measured qubits of every Bell measurement.
        pair_error: Per-edge probability that a created pair is replaced by
            a uniformly random Bell state.
    """

    swap_depolarize_p: Fraction = Fraction(0)
    pair_error: Mapping[EdgeKey, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = as_fraction(self.swap_depolarize_p, "swap_depolarize_p")
        if not 0 <= p <= 1:
            raise ValidationError("swap_depolarize_p outside [0, 1]")
        object.__setattr__(self, "swap_depolarize_p", p)
        cleaned = {}
        for key, q in dict(self.pair_error).items():
            qf = as_fraction(q, f"pair_error[{key}]")
            if not 0 <= qf <= 1:
                raise ValidationError(f"pair_error[{key}] outside [0, 1]")
            cleaned[key] = qf
        object.__setattr__(self, "pair_error", cleaned)

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls()

    @classmethod
    def from_graph(cls, g: NetworkGraph, swap_depolarize_p=0) -> "NoiseModel":
        """Saturate each edge's generation-error budget with pair noise.

        An edge budget d becomes replacement probability (4/3) d, which puts
        the generated pair at trace distance exactly d from ideal. Budgets
        above 3/4 cannot be saturated by this channel and are rejected.
        """
        pair_error = {}
        for e in g.edges:
            if e.gen_error == 0:
                continue
            q = e.gen_error * Fraction(4, 3)
            if q > 1:
                raise ValidationError(
                    f"edge {e.key}: generation error {e.gen_error} above 3/4 "
                    "cannot be realized as Bell-mixing noise"
                )
            pair_error[e.key] = q
        return cls(swap_depolarize_p=swap_depolarize_p, pair_error=pair_error)


@dataclass(frozen=True)
class PairOutcome:
    """Stabilizer check of one delivered pair."""

    copy: int
    source_qubit: int
    sink_qubit: int
    xx_sign: int
    zz_sign: int

    @property
    def passed(self) -> bool:
        return self.xx_sign == 1 and self.zz_sign == 1


@dataclass(frozen=True)
class RunResult:
    """One execution of a schedule: outcomes, corrections, delivered pairs."""

    outcomes: tuple[tuple[int, int], ...]
    corrections: tuple[tuple[int, str], ...]
    pairs: tuple[PairOutcome, ...]

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.pairs)


_PAULI_NAMES = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}

# Operation codes of a compiled schedule.
_PAIR, _SWAP, _FIX = range(3)


@dataclass(frozen=True)
class _Program:
    """A schedule checked once and lowered to operations on small tableaus.

    Attributes:
        sizes: Qubit count of each tableau.
        ops: ``(_PAIR, tableau, left, right, error_p)`` with ``error_p``
            None when the edge has no pair noise, ``(_SWAP, tableau, left,
            right, slot)``, ``(_FIX, tableau, qubit, slots)``; qubits are
            local to their tableau, slots index the outcome list.
        swap_p: Depolarizing probability before each Bell measurement.
        n_outcomes: Distinct measurement indices, in sorted order.
        fix_qubits: Schedule qubit of each correction, in instruction order.
        checks: Per delivery, its tableau and local source and sink qubits.
    """

    sizes: tuple[int, ...]
    ops: tuple[tuple, ...]
    swap_p: float
    n_outcomes: int
    fix_qubits: tuple[int, ...]
    checks: tuple[tuple[int, int, int], ...]


def _compile(sched: SwapSchedule, noise: NoiseModel) -> _Program:
    """Check a schedule in instruction order and compile it for execution.

    Raises:
        ScheduleViolation: As ``run_schedule`` documents.
    """
    n = sched.n_qubits
    created: set[int] = set()
    measured: set[int] = set()
    indices: set[int] = set()
    # Operations on schedule qubits, and the qubit pairs that must share a
    # tableau: those of a two-qubit operation or a delivery check.
    raw: list[tuple] = []
    ties: list[tuple[int, int]] = []

    def require_live(q: int, action: str) -> None:
        if q not in created:
            raise ScheduleViolation(f"{action} on qubit q{q} before creation")
        if q in measured:
            raise ScheduleViolation(f"{action} on already measured qubit q{q}")

    for ins in sched.instructions:
        if isinstance(ins, CreateBellPair):
            for q in (ins.qubit_left, ins.qubit_right):
                if not 0 <= q < n:
                    raise ScheduleViolation(
                        f"qubit q{q} outside the schedule's {n} qubits"
                    )
                if q in created:
                    raise ScheduleViolation(f"qubit q{q} created twice")
                created.add(q)
            q_err = noise.pair_error.get(ins.edge, Fraction(0))
            error_p = float(q_err) if q_err > 0 else None
            raw.append((_PAIR, ins.qubit_left, ins.qubit_right, error_p))
            ties.append((ins.qubit_left, ins.qubit_right))
        elif isinstance(ins, BellMeasure):
            require_live(ins.qubit_left, "measurement")
            require_live(ins.qubit_right, "measurement")
            measured.add(ins.qubit_left)
            measured.add(ins.qubit_right)
            indices.add(ins.index)
            raw.append((_SWAP, ins.qubit_left, ins.qubit_right, ins.index))
            ties.append((ins.qubit_left, ins.qubit_right))
        elif isinstance(ins, PauliCorrect):
            require_live(ins.qubit, "correction")
            for src in ins.sources:
                if src not in indices:
                    raise ScheduleViolation(f"correction reads unknown outcome m{src}")
            raw.append((_FIX, ins.qubit, ins.sources))
        else:
            raise ScheduleViolation(f"unknown instruction {ins!r}")
    for d in sched.deliveries:
        require_live(d.source_qubit, "delivery check")
        require_live(d.sink_qubit, "delivery check")
        ties.append((d.source_qubit, d.sink_qubit))

    parent = list(range(n))

    def find(q: int) -> int:
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    for a, b in ties:
        parent[find(a)] = find(b)
    tableau_of: dict[int, int] = {}
    layout: dict[int, tuple[int, int]] = {}
    sizes: list[int] = []
    for q in sorted(created):
        root = find(q)
        if root not in tableau_of:
            tableau_of[root] = len(sizes)
            sizes.append(0)
        t = tableau_of[root]
        layout[q] = (t, sizes[t])
        sizes[t] += 1

    slot = {index: i for i, index in enumerate(sorted(indices))}
    ops = []
    for op in raw:
        t, a = layout[op[1]]
        if op[0] == _PAIR:
            ops.append((_PAIR, t, a, layout[op[2]][1], op[3]))
        elif op[0] == _SWAP:
            ops.append((_SWAP, t, a, layout[op[2]][1], slot[op[3]]))
        else:
            ops.append((_FIX, t, a, tuple(slot[src] for src in op[2])))
    return _Program(
        sizes=tuple(sizes),
        ops=tuple(ops),
        swap_p=float(noise.swap_depolarize_p),
        n_outcomes=len(slot),
        fix_qubits=tuple(op[1] for op in raw if op[0] == _FIX),
        checks=tuple(
            (*layout[d.source_qubit], layout[d.sink_qubit][1]) for d in sched.deliveries
        ),
    )


def _execute(
    prog: _Program, rng: np.random.Generator
) -> tuple[list[StabilizerState], list[tuple[int, int]], list[tuple[int, int]]]:
    """Run a compiled schedule once: the final tableaus, the outcome of
    every measurement slot, and the (X, Z) frame of every correction."""
    tabs = [StabilizerState(size) for size in prog.sizes]
    outcomes: list = [None] * prog.n_outcomes
    frames = []
    swap_p = prog.swap_p
    for op in prog.ops:
        kind = op[0]
        if kind == _PAIR:
            _, t, a, b, error_p = op
            st = tabs[t]
            st.h(a)
            st.cnot(a, b)
            if error_p is not None and rng.random() < error_p:
                _apply_pauli(st, b, int(rng.integers(4)))
        elif kind == _SWAP:
            _, t, a, b, s = op
            st = tabs[t]
            if swap_p > 0 and rng.random() < swap_p:
                _apply_pauli(st, a, int(rng.integers(4)))
                _apply_pauli(st, b, int(rng.integers(4)))
            st.cnot(a, b)
            st.h(a)
            outcomes[s] = (st.measure(a, rng), st.measure(b, rng))
        else:
            _, t, q, slots = op
            frame_x = frame_z = 0
            for s in slots:
                a, b = outcomes[s]
                frame_z ^= a
                frame_x ^= b
            if frame_x:
                tabs[t].apply_x(q)
            if frame_z:
                tabs[t].apply_z(q)
            frames.append((frame_x, frame_z))
    return tabs, outcomes, frames


def run_schedule(
    sched: SwapSchedule,
    noise: NoiseModel | None = None,
    seed: int | Sequence[int] = 0,
) -> RunResult:
    """Execute a schedule once on the tableau simulator.

    Deterministic for a given (schedule, noise, seed) triple: random draws
    happen in instruction order from a single seeded generator.

    Raises:
        ScheduleViolation: On double creation, qubits outside the schedule,
            gates or corrections on measured qubits, re-measurement, or
            unknown measurement sources.
    """
    rng = np.random.default_rng(seed)
    prog = _compile(sched, noise or NoiseModel.zero())
    tabs, outcomes, frames = _execute(prog, rng)
    pairs = []
    for d, (t, a, b) in zip(sched.deliveries, prog.checks):
        xx, zz = tabs[t].pair_expectations(a, b)
        pairs.append(
            PairOutcome(
                copy=d.copy,
                source_qubit=d.source_qubit,
                sink_qubit=d.sink_qubit,
                xx_sign=xx,
                zz_sign=zz,
            )
        )
    return RunResult(
        outcomes=tuple(outcomes),
        corrections=tuple(
            (q, _PAULI_NAMES[frame]) for q, frame in zip(prog.fix_qubits, frames)
        ),
        pairs=tuple(pairs),
    )


def _apply_pauli(state: StabilizerState, q: int, which: int) -> None:
    if which == 1:
        state.apply_x(q)
    elif which == 2:
        state.apply_z(q)
    elif which == 3:
        state.apply_y(q)


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("trials must be positive")
    p = successes / trials
    zz = z * z
    denom = 1 + zz / trials
    center = (p + zz / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials * trials)) / denom
    # Rounding must not push an endpoint past the point estimate.
    return (max(0.0, min(center - half, p)), min(1.0, max(center + half, p)))


@dataclass(frozen=True)
class PairStats:
    copy: int
    passes: int
    trials: int
    estimate: float
    wilson_low: float
    wilson_high: float


@dataclass(frozen=True)
class FidelityEstimate:
    """Monte-Carlo estimate of per-pair stabilizer-check pass rates."""

    trials: int
    pairs: tuple[PairStats, ...]
    all_pass_count: int

    @property
    def all_pass_rate(self) -> float:
        return self.all_pass_count / self.trials


def fidelity_estimate(
    sched: SwapSchedule,
    noise: NoiseModel | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> FidelityEstimate:
    """Estimate Pr[pair passes its XX and ZZ check] for every delivery.

    Each trial runs the schedule with an independent generator seeded by
    (seed, trial index), so estimates are reproducible and trials could be
    distributed without changing results.
    """
    if trials <= 0:
        raise ValidationError("trials must be positive")
    prog = _compile(sched, noise or NoiseModel.zero())
    passes = [0] * len(prog.checks)
    all_pass = 0
    for trial in range(trials):
        tabs, _, _ = _execute(prog, np.random.default_rng((seed, trial)))
        ok_all = True
        for i, (t, a, b) in enumerate(prog.checks):
            if tabs[t].pair_expectations(a, b) == (1, 1):
                passes[i] += 1
            else:
                ok_all = False
        if ok_all:
            all_pass += 1
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


def _copy_sites(sched: SwapSchedule) -> dict[int, tuple[list[EdgeKey], int]]:
    """Per path copy: the edges of its created pairs and its measurement count."""
    qubit_copy: dict[int, int] = {}
    sites: dict[int, tuple[list[EdgeKey], int]] = {}
    for ins in sched.instructions:
        if isinstance(ins, CreateBellPair):
            qubit_copy[ins.qubit_left] = ins.copy
            qubit_copy[ins.qubit_right] = ins.copy
            edges, bsms = sites.setdefault(ins.copy, ([], 0))
            edges.append(ins.edge)
        elif isinstance(ins, BellMeasure):
            copy = qubit_copy.get(ins.qubit_left)
            if copy is None or qubit_copy.get(ins.qubit_right) != copy:
                raise ScheduleViolation(
                    "measurement couples qubits from different path copies"
                )
            edges, bsms = sites[copy]
            sites[copy] = (edges, bsms + 1)
    return sites


def _mixing_site(q: Fraction) -> dict[tuple[int, int], Fraction]:
    # With probability q the pair picks a uniformly random Bell label.
    quarter = q / 4
    return {
        (0, 0): 1 - 3 * quarter,
        (1, 0): quarter,
        (0, 1): quarter,
        (1, 1): quarter,
    }


def _convolve(
    d1: Mapping[tuple[int, int], Fraction], d2: Mapping[tuple[int, int], Fraction]
) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for (x1, z1), p1 in d1.items():
        for (x2, z2), p2 in d2.items():
            key = (x1 ^ x2, z1 ^ z2)
            out[key] = out.get(key, Fraction(0)) + p1 * p2
    return out


def exact_pass_probability(
    sched: SwapSchedule,
    noise: NoiseModel | None = None,
    *,
    include_pair_error: bool = True,
    include_swap_error: bool = True,
) -> Fraction:
    """Exact probability that every delivered pair passes its Bell check.

    Each noise site contributes an independent Bell-label flip distribution
    on its path copy: a uniformly random Pauli on qubits that feed a Bell
    measurement flips the delivered label's X and Z bits uniformly, and a
    replaced pair does the same. Flips add over GF(2), so per-copy branch
    weights are an XOR-convolution across sites, and copies multiply.
    """
    noise = noise or NoiseModel.zero()
    prob = Fraction(1)
    sites = _copy_sites(sched)
    for copy in sorted(sites):
        edges, bsms = sites[copy]
        dist: dict[tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
        if include_pair_error:
            for edge in edges:
                q = noise.pair_error.get(edge, Fraction(0))
                if q > 0:
                    dist = _convolve(dist, _mixing_site(q))
        if include_swap_error and noise.swap_depolarize_p > 0:
            site = _mixing_site(noise.swap_depolarize_p)
            for _ in range(bsms):
                dist = _convolve(dist, site)
        prob *= dist.get((0, 0), Fraction(0))
    return prob


def _require_exact_regime(sched: SwapSchedule) -> None:
    if sched.n_qubits > EXACT_QUBIT_LIMIT:
        raise TooLarge(
            f"{sched.n_qubits} qubits exceed the exact regime of {EXACT_QUBIT_LIMIT}"
        )


def exact_operation_error(sched: SwapSchedule, noise: NoiseModel | None = None) -> Fraction:
    """Trace distance between noisy and noiseless execution on ideal pairs.

    Pair-generation noise is deliberately excluded: this measures only the
    error the swapping operation itself introduces.

    Raises:
        TooLarge: Beyond the exact-computation qubit limit.
    """
    _require_exact_regime(sched)
    return 1 - exact_pass_probability(
        sched, noise, include_pair_error=False, include_swap_error=True
    )


def exact_trace_distance(sched: SwapSchedule, noise: NoiseModel | None = None) -> Fraction:
    """Exact trace distance of the delivered state from ideal pairs,
    with both pair-generation and swap noise active.

    Raises:
        TooLarge: Beyond the exact-computation qubit limit.
    """
    _require_exact_regime(sched)
    return 1 - exact_pass_probability(
        sched, noise, include_pair_error=True, include_swap_error=True
    )


def estimate_operation_error(
    sched: SwapSchedule,
    noise: NoiseModel | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> float:
    """Monte-Carlo stand-in for ``exact_operation_error`` on large schedules."""
    noise = noise or NoiseModel.zero()
    stripped = NoiseModel(swap_depolarize_p=noise.swap_depolarize_p)
    est = fidelity_estimate(sched, stripped, trials=trials, seed=seed)
    return 1.0 - est.all_pass_rate


def generation_error_budget(g: NetworkGraph, active: Iterable[EdgeKey]) -> Fraction:
    """Sum of per-edge generation-error budgets over ``active`` edges."""
    total = Fraction(0)
    for key in active:
        total += g.edge_map[key].gen_error
    return total


@dataclass(frozen=True)
class ErrorBudget:
    """Additive end-to-end error bound: generation plus operation error.

    The delivered state's trace distance from ideal pairs is at most
    ``generation + operation``: generation noise moves the input state by at
    most the summed per-edge budgets, the swapping operation cannot increase
    that distance, and its own error adds by the triangle inequality.
    """

    generation: Fraction
    operation: Fraction

    @property
    def total(self) -> Fraction:
        return self.generation + self.operation

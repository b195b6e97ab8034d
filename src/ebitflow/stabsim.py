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
column and one for the signs (see ``_Tableau``). A schedule is
checked and laid out once (``_layout``) on small tableaus, one per group
of qubits that interact: qubits tied by a pair creation, a Bell
measurement or a delivery check share a tableau. Path copies share no
qubits, so a 198-qubit schedule of nine copies runs as nine 22-qubit
tableaus; their product is the joint state.

Frame plan. Pauli noise and measurement outcomes change only the signs of
a tableau, never its X and Z parts, so the tableaus run once per call: the
reference pass (``_plan``) executes the schedule without noise, with every
random outcome 0. A noisy run differs from it by a Pauli frame, kept as
the draws that flip each stabilizer's sign: every draw sets GF(2)
variables, and each outcome, correction and delivery check of a run is its
reference value plus the parity of a fixed set of them. A trial is then
only its draws and a few XORs; this is the Pauli-frame sampling of Stim
(Gidney, Quantum 5, 497, 2021, arXiv:2103.02202), one trial at a time.
``run_schedule`` is the same plan and one trial.

Determinism. A run draws from one stream: that of
``numpy.random.default_rng`` for the run's seed, which ``_sample``
reproduces value for value in pure Python (PCG64 seeded through
SeedSequence), so simulation imports no numpy and gets numpy's draws.
``fidelity_estimate`` gives each trial the stream of ``(seed, trial)``.
Seeding is branch-free integer arithmetic, so ``_pcg64_starts`` seeds a
block of trials at once on ints that pack one 64-bit lane per trial; each
lane's stream is still that of ``default_rng((seed, trial))``, value for
value, and ``run_schedule`` seeds a block of one. Draws happen in
instruction order: per created pair with a positive error probability one
``random()`` and, on a hit, one ``integers(4)``; per Bell measurement with
positive swap noise one ``random()`` and, on a hit, two ``integers(4)``;
then one ``integers(2)`` for each of its two outcomes that is random.
Neither the split into copies nor the frame plan changes these draws (the
reference pass draws nothing), so results depend only on (schedule, noise,
seed) and equal those of running every trial on the tableaus. A trial of
``fidelity_estimate`` stops after its last draw that can flip a check.

Besides Monte-Carlo estimation this module computes exact delivered-state
error for small schedules: every Pauli-noise branch delivers a product of
Bell states, so the output mixture is diagonal in the Bell-product basis,
and because every noise site mixes its copy's Bell label uniformly the
pass probability has a closed form in exact rationals (see
``exact_pass_probability``).

Trace distance here is (1/2) the trace norm of the difference, so the
distance between a Bell state and the maximally mixed two-qubit state
is 3/4.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import islice

from .errors import InvariantViolation, ScheduleViolation, TooLarge, ValidationError
from .netgraph import EdgeKey, NetworkGraph, _set, _value_type, as_fraction
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


class _Tableau:
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

    def measure(self, q: int) -> tuple[int, int, int]:
        """Measure qubit ``q`` in the computational basis; a random outcome
        is 0.

        Returns ``(outcome, pivot, rows)``, with stabilizers numbered 0..n-1
        and sets of them as bitmasks. A determined outcome has ``pivot`` -1
        and reads the sign of the product of the stabilizers ``rows``. A
        random one replaces stabilizer ``pivot`` with +Z_q, after
        multiplying it into the other stabilizers that anticommute with
        Z_q, ``rows``.
        """
        n, x, z = self.n, self.x, self.z
        col = x[q]
        anti = col >> n
        if not anti:
            # Outcome determined: the stabilizers paired with the
            # destabilizers that carry an X on q multiply to +-Z_q.
            return self._product(col << n)[2], -1, col
        # Outcome random: the first stabilizer anticommuting with Z_q is the
        # pivot. Multiply it into every other row anticommuting with Z_q,
        # move it to its destabilizer slot and replace it with +Z_q.
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
        # The new stabilizer +Z_q has sign +1: the outcome is 0.
        self.r = (r & keep) | (sign_p << d)
        # Also multiply the new +Z_q into every destabilizer with a Z on q
        # (their signs are never read), so rows stay short.
        z[q] = (z[q] >> n | 1 << d) << n
        return 0, d, others >> n

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

    def _expectation(self, px: int, pz: int) -> tuple[int, int]:
        """Expectation of the +1-phase Pauli with X part ``px`` and Z part
        ``pz``, qubit bitmasks.

        Returns ``(sign, rows)``: +1 or -1 when the Pauli (up to sign) is in
        the stabilizer group, with ``rows`` the stabilizers whose product it
        is, those paired with the destabilizers that anticommute with it;
        ``(0, 0)`` otherwise.
        """
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
            return 0, 0
        prod_x, prod_z, sign = self._product(anti << self.n)
        if (prod_x, prod_z) != (px, pz):
            return 0, 0
        return 1 - 2 * sign, anti


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
        if not 0 <= p <= 1:
            raise ValidationError("swap_depolarize_p outside [0, 1]")
        # Always a fresh dict, the caller's own mapping is never kept.
        cleaned = {}
        for key, q in dict(pair_error or {}).items():
            qf = as_fraction(q, f"pair_error[{key}]")
            if not 0 <= qf <= 1:
                raise ValidationError(f"pair_error[{key}] outside [0, 1]")
            cleaned[key] = qf
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


def _layout(sched: SwapSchedule) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Check a schedule in instruction order and lay its qubits out on
    tableaus.

    Qubits tied by a pair creation, a Bell measurement or a delivery check
    share a tableau. Returns ``layout``, each created qubit's tableau and
    index in it, and ``sizes``, the qubit count of each tableau.

    Raises:
        ScheduleViolation: As ``run_schedule`` documents.
    """
    n = sched.n_qubits
    created: set[int] = set()
    measured: set[int] = set()
    indices: set[int] = set()
    # The qubit pairs that must share a tableau: those of a two-qubit
    # operation or a delivery check.
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
            ties.append((ins.qubit_left, ins.qubit_right))
        elif isinstance(ins, BellMeasure):
            if ins.qubit_left == ins.qubit_right:
                raise ScheduleViolation(
                    f"Bell measurement m{ins.index} on one qubit q{ins.qubit_left}"
                )
            require_live(ins.qubit_left, "measurement")
            require_live(ins.qubit_right, "measurement")
            measured.add(ins.qubit_left)
            measured.add(ins.qubit_right)
            indices.add(ins.index)
            ties.append((ins.qubit_left, ins.qubit_right))
        elif isinstance(ins, PauliCorrect):
            require_live(ins.qubit, "correction")
            for src in ins.sources:
                if src not in indices:
                    raise ScheduleViolation(f"correction reads unknown outcome m{src}")
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
    return layout, sizes


@_value_type
class _Plan:
    """The frame plan of a schedule (see the module docstring).

    The draws set GF(2) variables, numbered in draw order: two per noisy
    pair site (the X and Z part of the Pauli on its right qubit), four per
    noisy Bell measurement (the Paulis on its two qubits) and one per
    random outcome. Sets of variables are bitmasks.

    Attributes:
        steps: The draws in order, each with the variables it may set:
            ``(p, paulis)`` for a noise site, hit when
            ``random() < p``, that then draws ``integers(4)`` for each of
            its qubits and sets ``paulis[k][w]`` for draw ``w`` on qubit
            ``k`` (I, X, Z or Y), or ``(None, var)`` for a random outcome
            ``integers(2)``.
        outcomes: Per distinct measurement index, in sorted order,
            ``((ref, mask), (ref, mask))``: an outcome is ``ref`` plus the
            parity of the set variables in ``mask``.
        fixes: Per correction, its X and Z frame as ``(ref, mask)`` each.
        checks: Per delivery, its XX and ZZ check as ``(sign, mask)``
            each: the reference sign (+1, -1, or 0 when the pair is not
            stabilized, which no draw changes) and the variables that
            flip it.
    """

    steps: tuple[tuple, ...]
    outcomes: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    fixes: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    checks: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __init__(self, steps, outcomes, fixes, checks) -> None:
        _set(self, "steps", steps)
        _set(self, "outcomes", outcomes)
        _set(self, "fixes", fixes)
        _set(self, "checks", checks)


def _plan(sched: SwapSchedule, noise: NoiseModel) -> _Plan:
    """Check a schedule, run it once without noise and track its sign flips.

    The Pauli frame that separates a noisy run from the reference run is
    kept by its effect on the tableau: ``flips[t][i]``, a bitmask of
    variables, holds the sum of those that flip the sign of stabilizer
    ``i`` of tableau ``t``. Gates conjugate the frame and the stabilizers
    alike, so they change no flip. A Pauli, as in ``apply_x``, flips the
    stabilizers it anticommutes with. A random measurement multiplies its
    pivot into the other stabilizers that anticommute with Z on the qubit,
    which adds the pivot's flips to theirs, and gives the new stabilizer
    the outcome's variable. A determined outcome, and a check, flips by
    the sum over the stabilizers whose product it reads.

    Raises:
        ScheduleViolation: As ``run_schedule`` documents, before any
            tableau is built.
    """
    layout, sizes = _layout(sched)
    tabs = [_Tableau(size) for size in sizes]
    flips = [[0] * size for size in sizes]
    steps: list[tuple] = []
    outcomes: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    fixes = []
    swap_p = float(noise.swap_depolarize_p)
    nv = 0

    def flip(fl: list[int], rows: int, mask: int) -> None:
        """Add ``mask`` to the flips of the stabilizers in ``rows``."""
        while rows:
            low = rows & -rows
            fl[low.bit_length() - 1] ^= mask
            rows ^= low

    def total(fl: list[int], rows: int) -> int:
        """The sum of the flips of the stabilizers in ``rows``."""
        acc = 0
        while rows:
            low = rows & -rows
            acc ^= fl[low.bit_length() - 1]
            rows ^= low
        return acc

    def pauli(st: _Tableau, fl: list[int], q: int, mask_x: int, mask_z: int) -> None:
        flip(fl, st.z[q] >> st.n, mask_x)
        flip(fl, st.x[q] >> st.n, mask_z)

    def add_noise(st: _Tableau, fl: list[int], p: float, qubits: tuple[int, ...]) -> None:
        nonlocal nv
        paulis = []
        for q in qubits:
            mask_x, mask_z = 1 << nv, 2 << nv
            pauli(st, fl, q, mask_x, mask_z)
            # integers(4) picks I, X, Z or Y.
            paulis.append((0, mask_x, mask_z, mask_x | mask_z))
            nv += 2
        steps.append((p, tuple(paulis)))

    def measure(st: _Tableau, fl: list[int], q: int) -> tuple[int, int]:
        nonlocal nv
        outcome, pivot, rows = st.measure(q)
        if pivot < 0:
            return outcome, total(fl, rows)
        flip(fl, rows, fl[pivot])
        fl[pivot] = var = 1 << nv
        steps.append((None, var))
        nv += 1
        return outcome, var

    for ins in sched.instructions:
        if isinstance(ins, CreateBellPair):
            t, a = layout[ins.qubit_left]
            b = layout[ins.qubit_right][1]
            st = tabs[t]
            st.h(a)
            st.cnot(a, b)
            error_p = noise.pair_error.get(ins.edge)
            if error_p:
                add_noise(st, flips[t], float(error_p), (b,))
        elif isinstance(ins, BellMeasure):
            t, a = layout[ins.qubit_left]
            b = layout[ins.qubit_right][1]
            st, fl = tabs[t], flips[t]
            if swap_p > 0:
                add_noise(st, fl, swap_p, (a, b))
            st.cnot(a, b)
            st.h(a)
            outcomes[ins.index] = (measure(st, fl, a), measure(st, fl, b))
        else:
            t, q = layout[ins.qubit]
            ref_x = mask_x = ref_z = mask_z = 0
            for src in ins.sources:
                (ra, ma), (rb, mb) = outcomes[src]
                ref_z ^= ra
                mask_z ^= ma
                ref_x ^= rb
                mask_x ^= mb
            st = tabs[t]
            if ref_x:
                st.apply_x(q)
            if ref_z:
                st.apply_z(q)
            pauli(st, flips[t], q, mask_x, mask_z)
            fixes.append(((ref_x, mask_x), (ref_z, mask_z)))
    checks = []
    for d in sched.deliveries:
        t, a = layout[d.source_qubit]
        b = layout[d.sink_qubit][1]
        st, fl = tabs[t], flips[t]
        both = (1 << a) | (1 << b)
        checks.append(
            tuple(
                (sign, total(fl, rows))
                for sign, rows in (st._expectation(both, 0), st._expectation(0, both))
            )
        )
    return _Plan(
        steps=tuple(steps),
        outcomes=tuple(outcomes[index] for index in sorted(outcomes)),
        fixes=tuple(fixes),
        checks=tuple(checks),
    )


# ``numpy.random.default_rng(entropy)`` is PCG64 (O'Neill, "PCG: A Family of
# Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905) seeded through numpy's SeedSequence
# (numpy/random/bit_generator.pyx). Both are fixed integer algorithms, so the
# stream below gives numpy's draws value for value without importing it.
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constants: the entropy mix starts its hash constant at
# INIT_A and multiplies it by MULT_A per call, ``generate_state`` uses
# INIT_B and MULT_B, and ``mix`` combines two words with MIX_MULT_L and R.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(hash_const: int, mult: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's hash constant before and after the multiply of each
    successive hash call: ``value = (value ^ before) * after``."""
    while True:
        after = hash_const * mult & _M32
        yield hash_const, after
        hash_const = after


# The hash calls of SeedSequence's entropy mix on its pool of four words:
# one per pool word, then, for each source word, one per other pool word.
_POOL_HASH = tuple(islice(_hash_consts(_INIT_A, _MULT_A), 4))
_MIX_ROUNDS = tuple(
    (src, dst, *consts)
    for (src, dst), consts in zip(
        [(src, dst) for src in range(4) for dst in range(4) if src != dst],
        islice(_hash_consts(_INIT_A, _MULT_A), 4, 16),
    )
)
# The hash calls of ``generate_state``, one per 32-bit output word.
_STATE_HASH = tuple(islice(_hash_consts(_INIT_B, _MULT_B), 8))
# Trials seeded together by ``_trial_starts``: the packed ints of a block
# are 32 KiB each.
_SEED_BLOCK = 4096


def _entropy_words(seed: int | Sequence[int]) -> list[int]:
    """Check a seed and return SeedSequence's entropy words for it: each
    int split into little-endian 32-bit words, sequences concatenated,
    recursively.

    A seed is a non-negative int (numpy ints included, bools not) or a
    sequence of seeds: a list, tuple, range or array of one or more
    dimensions. Iterators and sets are refused rather than consumed, and so
    are bytes and a 0-d array; ``numpy.random.default_rng`` refuses them too.

    Raises:
        ValidationError: On any other seed.
    """
    n = seed
    if type(n) is not int:
        if isinstance(n, numbers.Integral) and not isinstance(n, bool):
            n = operator.index(n)
        elif (
            isinstance(n, Sequence) and not isinstance(n, (str, bytes, bytearray))
        ) or getattr(n, "ndim", 0):
            return [word for item in n for word in _entropy_words(item)]
        else:
            raise ValidationError(f"seed must be an integer, got {seed!r}")
    if n < 0:
        raise ValidationError(f"seed must be non-negative, got {n}")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _pcg64_starts(columns: Sequence[int], lanes: int) -> list[tuple[int, int]]:
    """PCG64's state and increment as ``default_rng`` seeds them, for
    ``lanes`` entropy sequences of one length at once.

    SeedSequence hashes a sequence's words into a pool of four 32-bit
    words, ``generate_state(4, uint64)`` draws the 128-bit seed and stream
    from the pool, and ``srandom`` starts the generator. All of it up to
    ``srandom`` is 32-bit arithmetic without branches, so it runs on every
    sequence at once, SIMD within a register: an int packs one 64-bit lane
    per sequence, in the byte order of ``sys.byteorder``, and
    ``columns[k]`` packs word k of every sequence. A 32-bit hash product
    fits in its lane; a right shift pulls the next lane's low bits in, so
    its result is masked again.
    """
    ones = ((1 << 64 * lanes) - 1) // _M64
    m32 = ones * _M32
    # ``mix`` subtracts MIX_MULT_R times a word mod 2**32: adding its
    # complement keeps every lane non-negative, and masking both products
    # to 32 bits keeps their sum below 2**33.
    mix_r = (1 << 32) - _MIX_MULT_R

    def hashed(value: int, before: int, after: int) -> int:
        value = (value ^ before * ones) * after & m32
        return (value ^ value >> 16) & m32

    def mixed(dst: int, value: int) -> int:
        value = (_MIX_MULT_L * dst & m32) + (mix_r * value & m32) & m32
        return (value ^ value >> 16) & m32

    pool = [
        hashed(word, before, after)
        for word, (before, after) in zip((*columns[:4], 0, 0, 0, 0), _POOL_HASH)
    ]
    # Each round hashes a word and mixes it into a pool word: first each
    # pool word into every other, then entropy beyond the pool into all.
    for src, dst, before, after in _MIX_ROUNDS:
        pool[dst] = mixed(pool[dst], hashed(pool[src], before, after))
    if len(columns) > 4:
        consts = islice(_hash_consts(_INIT_A, _MULT_A), 16, None)
        for word in columns[4:]:
            for dst, (before, after) in zip(range(4), consts):
                pool[dst] = mixed(pool[dst], hashed(word, before, after))
    out = [hashed(pool[i & 3], before, after) for i, (before, after) in enumerate(_STATE_HASH)]
    # Output words 2k and 2k + 1 are the low and high half of 64-bit word k;
    # the seed is 64-bit words 0 (high) and 1, the stream words 2 and 3.
    seed_hi, seed_lo, inc_hi, inc_lo = (
        memoryview((lo | hi << 32).to_bytes(8 * lanes, sys.byteorder)).cast("Q")
        for lo, hi in zip(out[::2], out[1::2])
    )
    starts = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = (i_hi << 64 | i_lo) << 1 & _M128 | 1
        starts.append(((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc & _M128, inc))
    return starts


def _trial_starts(seed_words: Sequence[int], trials: range) -> Iterator[tuple[int, int]]:
    """PCG64's start ``(state, inc)`` for ``default_rng((seed, trial))``, for
    each trial of the step-1 range ``trials``, with ``seed_words`` the
    seed's entropy words.

    Seeds ``_SEED_BLOCK`` trials at a time through ``_pcg64_starts``. A
    block never spans a change in the trial index's word count, since the
    lanes of a block must have entropy of one length.
    """
    lo, stop = trials.start, trials.stop
    while lo < stop:
        width = len(_entropy_words(lo))
        hi = min(stop, lo + _SEED_BLOCK, 1 << 32 * width)
        lanes = hi - lo
        ones = ((1 << 64 * lanes) - 1) // _M64
        index = int.from_bytes(array("Q", range(lo, hi)), sys.byteorder)
        columns = [word * ones for word in seed_words]
        columns += [index >> 32 * k & ones * _M32 for k in range(width)]
        yield from _pcg64_starts(columns, lanes)
        lo = hi


def _sample(steps: Sequence[tuple], start: tuple[int, int]) -> int:
    """Draw one trial from the PCG64 generator at ``start``, its
    ``(state, inc)`` as ``_pcg64_starts`` gives it; returns the bitmask of
    the variables it sets.

    Each step of the generator advances the 128-bit LCG and outputs its
    XSL-RR word; it is written out at each use, as this loop is the cost of
    a trial. ``random()`` is the top 53 bits of a 64-bit output.
    ``integers(high)``, for ``high`` 2 or 4, is the top 1 or 2 bits of a
    32-bit draw: numpy's Lemire bound then has threshold 0, so nothing is
    rejected. A 32-bit draw takes the low half of a 64-bit output and keeps
    the high half for the next 32-bit draw; ``random()`` leaves that kept
    half alone.
    """
    state, inc = start
    mult, m32, m64, m128 = _PCG_MULT, _M32, _M64, _M128
    half = -1
    values = 0
    for p, sets in steps:
        if p is None:
            # integers(2)
            if half < 0:
                state = state * mult + inc & m128
                x = (state >> 64 ^ state) & m64
                rot = state >> 122
                x = (x >> rot | x << 64 - rot) & m64
                half = x >> 32
                if x >> 31 & 1:
                    values ^= sets
            else:
                if half >> 31:
                    values ^= sets
                half = -1
            continue
        # random() < p, then integers(4) per qubit
        state = state * mult + inc & m128
        x = (state >> 64 ^ state) & m64
        rot = state >> 122
        if (((x >> rot | x << 64 - rot) & m64) >> 11) * 2**-53 >= p:
            continue
        for pauli in sets:
            if half < 0:
                state = state * mult + inc & m128
                x = (state >> 64 ^ state) & m64
                rot = state >> 122
                x = (x >> rot | x << 64 - rot) & m64
                half = x >> 32
                word = x & m32
            else:
                word, half = half, -1
            values ^= pauli[word >> 30]
    return values


def _variables(step: tuple) -> int:
    """The variables a step of ``_Plan.steps`` may set."""
    p, sets = step
    if p is None:
        return sets
    out = 0
    for pauli in sets:
        out |= pauli[3]
    return out


def run_schedule(
    sched: SwapSchedule,
    noise: NoiseModel | None = None,
    seed: int | Sequence[int] = 0,
) -> RunResult:
    """Execute a schedule once.

    Deterministic for a given (schedule, noise, seed) triple: random draws
    happen in instruction order from a single seeded generator, and the run
    is the reference run of ``_plan`` shifted by the frame they set.

    Raises:
        ScheduleViolation: On double creation, qubits outside the schedule,
            a Bell measurement of one qubit with itself, gates or
            corrections on measured qubits, re-measurement, or unknown
            measurement sources.
        ValidationError: On a seed that is not a non-negative int or a
            sequence of seeds (a list, tuple, range or array; not an
            iterator or a set).
    """
    words = _entropy_words(seed)
    plan = _plan(sched, noise or NoiseModel.zero())
    values = _sample(plan.steps, _pcg64_starts(words, 1)[0])

    def value(term: tuple[int, int]) -> int:
        ref, mask = term
        return ref ^ ((mask & values).bit_count() & 1)

    def sign(term: tuple[int, int]) -> int:
        ref, mask = term
        return -ref if (mask & values).bit_count() & 1 else ref

    return RunResult(
        outcomes=tuple((value(a), value(b)) for a, b in plan.outcomes),
        corrections=tuple(
            (ins.qubit, _PAULI_NAMES[value(fx), value(fz)])
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
                xx_sign=sign(xx),
                zz_sign=sign(zz),
            )
            for d, (xx, zz) in zip(sched.deliveries, plan.checks)
        ),
    )


def _require_int(value: object, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")


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

    Each trial runs the schedule with an independent generator seeded by
    (seed, trial index), so estimates are reproducible and trials could be
    distributed without changing results. ``seed`` is what ``run_schedule``
    takes: a non-negative int or a sequence of seeds. The tableaus run once, for the
    reference pass of ``_plan``; a trial is only its draws, and its
    verdict the parities of the variables they set.

    Raises:
        ValidationError: On a ``trials`` that is not a positive int, or a
            seed that ``run_schedule`` rejects.
    """
    _require_int(trials, "trials")
    if trials <= 0:
        raise ValidationError("trials must be positive")
    seed_words = _entropy_words(seed)
    plan = _plan(sched, noise or NoiseModel.zero())
    # Bits 2i and 2i + 1 of a trial's verdict are set when delivery i fails
    # its XX or its ZZ check. A check that is not stabilized always fails.
    base = 0
    flippers = []
    for i, pair in enumerate(plan.checks):
        for bit, (sign, mask) in zip((1 << 2 * i, 2 << 2 * i), pair):
            if sign != 1:
                base |= bit
            if sign and mask:
                flippers.append((bit, mask))
    # Each trial has its own generator, so draws after the last one that
    # can flip a check change nothing and are left out. Without draws
    # every trial gives the same verdict.
    relevant = 0
    for _, mask in flippers:
        relevant |= mask
    steps = list(plan.steps)
    while steps and not relevant & _variables(steps[-1]):
        steps.pop()
    counts: dict[int, int] = {}
    if not steps:
        counts[base] = trials
    else:
        for start in _trial_starts(seed_words, range(trials)):
            values = _sample(steps, start)
            verdict = base
            for bit, mask in flippers:
                if (mask & values).bit_count() & 1:
                    verdict ^= bit
            counts[verdict] = counts.get(verdict, 0) + 1
    passes = [
        sum(n for verdict, n in counts.items() if not verdict >> 2 * i & 3)
        for i in range(len(plan.checks))
    ]
    all_pass = counts.get(0, 0)
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


def exact_pass_probability(
    sched: SwapSchedule,
    noise: NoiseModel | None = None,
) -> Fraction:
    """Exact probability that every delivered pair passes its Bell check.

    Each noise site on a path copy mixes the delivered Bell label
    uniformly: with probability q a replaced pair picks a random label,
    and a uniformly random Pauli on qubits that feed a Bell measurement
    flips the label's X and Z bits uniformly. A uniform label stays
    uniform whatever the other sites do, so a copy keeps its ideal label
    unless some site mixes it, and passes with probability
    P + (1 - P) / 4, where P is the product of (1 - q) over its sites.
    Copies are independent, so their probabilities multiply.
    """
    noise = noise or NoiseModel.zero()
    prob = Fraction(1)
    for edges, bsms in _copy_sites(sched).values():
        unmixed = (1 - noise.swap_depolarize_p) ** bsms
        for edge in edges:
            unmixed *= 1 - noise.pair_error.get(edge, Fraction(0))
        prob *= unmixed + (1 - unmixed) / 4
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
    noise = noise or NoiseModel.zero()
    stripped = NoiseModel(swap_depolarize_p=noise.swap_depolarize_p)
    return 1 - exact_pass_probability(sched, stripped)


def exact_trace_distance(sched: SwapSchedule, noise: NoiseModel | None = None) -> Fraction:
    """Exact trace distance of the delivered state from ideal pairs,
    with both pair-generation and swap noise active.

    Raises:
        TooLarge: Beyond the exact-computation qubit limit.
    """
    _require_exact_regime(sched)
    return 1 - exact_pass_probability(sched, noise)


def estimate_operation_error(
    sched: SwapSchedule,
    noise: NoiseModel | None = None,
    trials: int = 1000,
    seed: int | Sequence[int] = 0,
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

"""Independent brute-force oracles that pin the solvers' outputs.

Everything here is deliberately naive: exhaustive subset scans and
depth-first searches with no shared code or ideas with the package
implementations, so an agreement between the two is meaningful. The
exceptions are the reference stabilizer simulator, the XOR convolution,
the reference min-cost flow and the reference hierarchical resolve at
the end: the package's earlier numpy tableau, kept as the slow path
whose runs its Bell-pair frame plan must reproduce when both are fed
the same draws, and itself pinned against a dense state vector, its
earlier reading of a one-lane run off the frame plan by packed-int
parity, which its one mask reader must reproduce, its
earlier exact pass probability, which the closed form must equal
exactly, its earlier three-search min-cost flow, which
the one-search solver must reproduce arc for arc, its earlier
canonicalization of a flow on node labels, which the one on arc indices
must reproduce, its earlier rounds that all searched from the sink,
whose paths the rounds that alternate direction must reproduce, its
earlier flow decomposition with one search per bundle, which the phased
one must reproduce bundle for bundle, and its earlier
resolve with one lower solve per edge, which the resolve that shares
solves between relabelled copies must reproduce, and its earlier
document parsers, whose Fraction-based cost conversion and per-entry
field dicts the lean parsers must reproduce value for value and error
for error, and the checks of ``Edge`` before their exact-type fast
paths, and the frozen dataclasses the package's value types were, whose
repr, equality, hashing and defaults those types must keep.
``mutate_schedule`` is test tooling, not an oracle: it writes hand-made
faults into schedule text.
"""

import dataclasses
import heapq
import math
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

import numpy as np
from hypothesis import strategies as st

from ebitflow import (
    BellMeasure,
    Edge,
    CreateBellPair,
    FlowSolution,
    HierarchicalNetwork,
    InfeasibleTarget,
    InvariantViolation,
    MalformedFlow,
    NegativeTarget,
    NetworkDocument,
    NetworkGraph,
    NoiseModel,
    ParseError,
    PairOutcome,
    PathBundle,
    PauliCorrect,
    RunResult,
    ScheduleViolation,
    SwapSchedule,
    ValidationError,
    generation_error_budget,
    min_cost_flow,
    min_cut,
    parse_yield,
    validate_flow,
)
from ebitflow.concat import HierEdge, _Resolved
from ebitflow.mincostflow import Arc
from ebitflow.netgraph import (
    MILLI,
    EdgeKey,
    NodeId,
    _DOC_FIELDS,
    _EDGE_FIELDS_OPTIONAL,
    _EDGE_FIELDS_REQUIRED,
    _parse_nodes,
    as_fraction,
    edge_key,
)


def cut_by_enumeration(g: NetworkGraph) -> int:
    """Minimum over all source-side subsets of the crossing capacity."""
    others = [n for n in g.nodes if n not in (g.source, g.sink)]
    best = None
    for r in range(len(others) + 1):
        for chosen in combinations(others, r):
            side = {g.source, *chosen}
            val = 0
            for e in g.edges:
                if (e.a in side) != (e.b in side):
                    val += e.capacity
            if best is None or val < best:
                best = val
    return best


def weighted_cut_by_enumeration(g: NetworkGraph, weights) -> float:
    """Same subset scan with arbitrary per-edge weights."""
    others = [n for n in g.nodes if n not in (g.source, g.sink)]
    best = None
    for r in range(len(others) + 1):
        for chosen in combinations(others, r):
            side = {g.source, *chosen}
            val = sum(
                float(weights[e.key])
                for e in g.edges
                if (e.a in side) != (e.b in side)
            )
            if best is None or val < best:
                best = val
    return best


def min_cost_by_search(g: NetworkGraph, target: int, cost_bound=None):
    """Exhaustive minimum cost over integral flows meeting the target.

    Searches signed net flows x in [-c, c] per edge (positive means flow
    from the smaller to the larger endpoint label). Opposing flow on an
    edge only adds cost without changing any constraint, so the signed
    space contains a cost minimizer of the full two-sided space; the tiny
    `min_cost_joint_enumeration` below checks exactly that on small cases.

    Returns the minimum total cost, or None when the target is infeasible
    (or when every feasible cost is >= cost_bound, if one is given).
    """
    edges = sorted(g.edges, key=lambda e: e.key)
    m = len(edges)
    balance = {n: 0 for n in g.nodes}
    remaining = {n: 0 for n in g.nodes}
    for e in edges:
        remaining[e.a] += 1
        remaining[e.b] += 1

    def node_ok(v) -> bool:
        if v == g.source:
            return balance[v] == -target
        if v == g.sink:
            return balance[v] == target
        return balance[v] == 0

    best = [cost_bound]
    found = [False]

    def dfs(i: int, cost: int) -> None:
        if best[0] is not None and cost >= best[0]:
            return
        if i == m:
            if all(node_ok(v) for v in g.nodes):
                best[0] = cost
                found[0] = True
            return
        e = edges[i]
        remaining[e.a] -= 1
        remaining[e.b] -= 1
        for x in range(-e.capacity, e.capacity + 1):
            balance[e.a] -= x
            balance[e.b] += x
            ok = (remaining[e.a] > 0 or node_ok(e.a)) and (
                remaining[e.b] > 0 or node_ok(e.b)
            )
            if ok:
                dfs(i + 1, cost + abs(x) * e.unit_cost)
            balance[e.a] += x
            balance[e.b] -= x
        remaining[e.a] += 1
        remaining[e.b] += 1

    dfs(0, 0)
    return best[0] if found[0] else None


def min_cost_joint_enumeration(g: NetworkGraph, target: int):
    """Literal enumeration of both-direction flows; tiny graphs only.

    Each edge takes every (f_ab, f_ba) with f_ab + f_ba <= capacity, so
    this walks the constraint set exactly as stated, opposing flow
    included. Cross-validates `min_cost_by_search`.
    """
    edges = sorted(g.edges, key=lambda e: e.key)
    per_edge = []
    for e in edges:
        opts = [
            (fab, fba)
            for fab in range(e.capacity + 1)
            for fba in range(e.capacity + 1 - fab)
        ]
        per_edge.append(opts)
    best = None
    for assignment in product(*per_edge):
        balance = {n: 0 for n in g.nodes}
        cost = 0
        for e, (fab, fba) in zip(edges, assignment):
            balance[e.a] += fba - fab
            balance[e.b] += fab - fba
            cost += (fab + fba) * e.unit_cost
        ok = all(
            balance[n] == 0 for n in g.nodes if n not in (g.source, g.sink)
        )
        if ok and balance[g.source] == -target and balance[g.sink] == target:
            if best is None or cost < best:
                best = cost
    return best


def smallest_uses_by_scan(yield_fn, target: int, scan_limit: int = 10_000):
    """First use count whose yield reaches the target, by linear scan."""
    m = 0
    while True:
        if yield_fn(m) >= target:
            return m
        if yield_fn.max_uses is not None and m >= yield_fn.max_uses:
            return None
        if m >= scan_limit:
            raise AssertionError("scan limit hit; oracle misuse")
        m += 1


def random_network(
    rnd,
    max_nodes: int = 10,
    max_cap: int = 5,
    max_cost_units: int = 5,
    max_edges: int | None = None,
) -> NetworkGraph:
    """Seeded random undirected network with integer caps and costs."""
    n = rnd.randint(2, max_nodes)
    labels = [f"n{i:02d}" for i in range(n)]
    source, sink = rnd.sample(labels, 2)
    pairs = list(combinations(labels, 2))
    rnd.shuffle(pairs)
    density = rnd.uniform(0.3, 0.9)
    chosen = [p for p in pairs if rnd.random() < density]
    if max_edges is not None:
        chosen = chosen[:max_edges]
    edges = [
        (a, b, rnd.randint(0, max_cap), rnd.randint(0, max_cost_units) * 1000)
        for a, b in chosen
    ]
    return NetworkGraph.from_edge_list(edges, source, sink, extra_nodes=labels)


@st.composite
def tie_graphs(draw):
    """Networks where many cheapest paths tie: costs mostly 0 (zero-cost
    cycles) or 1, labels assigned to positions in a random order."""
    n = draw(st.integers(2, 12))
    labels = draw(st.permutations([f"n{i:02d}" for i in range(n)]))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                cap = draw(st.integers(0, 4))
                cost = draw(st.sampled_from([0, 0, 1, 2]))
                edges.append((labels[i], labels[j], cap, cost))
    return NetworkGraph.from_edge_list(edges, labels[0], labels[1], extra_nodes=labels)


# --- Reference stabilizer simulator -----------------------------------------
# The int8 numpy tableau and schedule loop that ``ebitflow.stabsim`` used
# before it moved to bit-packed per-copy tableaus and then to a frame plan
# built from Bell pairs alone, kept so that plan can be pinned against it;
# a dense state vector (``StateVector``) pins the tableau in turn. The
# reference takes its random decisions from a draw source in instruction
# order (``ReplayedDraws``), so fed one trial's decisions it gives that
# trial's outcomes, corrections and pair signs.


class ReplayedDraws:
    """Draw source of the reference run: fixed decisions, replayed in
    instruction order.

    ``decisions`` holds one entry per draw of the run: for a noise site
    ``("site", paulis)``, with ``paulis`` None for a miss or the Pauli on
    each of its qubits (0 to 3 for I, X, Z, Y), and for a random
    measurement outcome ``("outcome", bit)``. A draw of the wrong kind, or
    one past the end, raises AssertionError.
    """

    def __init__(self, decisions: Sequence[tuple]) -> None:
        self.decisions = list(decisions)
        self.next = 0
        self.paulis: list[int] = []

    def _take(self, kind: str):
        assert self.next < len(self.decisions), f"no decision left for a {kind}"
        got, value = self.decisions[self.next]
        assert got == kind, f"decision {self.next} is a {got}, the run asks for a {kind}"
        self.next += 1
        return value

    def hit(self) -> bool:
        paulis = self._take("site")
        self.paulis = list(paulis or ())
        return paulis is not None

    def pauli(self) -> int:
        return self.paulis.pop(0)

    def outcome(self) -> int:
        return self._take("outcome")

    def exhausted(self) -> bool:
        return self.next == len(self.decisions)


class ReferenceTableau:
    """Int8 numpy Aaronson-Gottesman tableau: one joint state on ``n`` qubits.

    Rows 0..n-1 of the tableau hold destabilizers, rows n..2n-1 hold
    stabilizers. ``r`` holds the phase exponent of each generator mod 4
    (generators stay at 0 or 2, meaning +1 or -1).
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValidationError("qubit count must be non-negative")
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=np.int8)
        self.z = np.zeros((2 * n, n), dtype=np.int8)
        self.r = np.zeros(2 * n, dtype=np.int64)
        for i in range(n):
            self.x[i, i] = 1
            self.z[n + i, i] = 1

    def h(self, q: int) -> None:
        self.r = (self.r + 2 * (self.x[:, q] * self.z[:, q]).astype(np.int64)) % 4
        self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()

    def cnot(self, control: int, target: int) -> None:
        sign = (
            self.x[:, control]
            * self.z[:, target]
            * (self.x[:, target] ^ self.z[:, control] ^ 1)
        )
        self.r = (self.r + 2 * sign.astype(np.int64)) % 4
        self.x[:, target] ^= self.x[:, control]
        self.z[:, control] ^= self.z[:, target]

    def apply_x(self, q: int) -> None:
        self.r = (self.r + 2 * self.z[:, q].astype(np.int64)) % 4

    def apply_z(self, q: int) -> None:
        self.r = (self.r + 2 * self.x[:, q].astype(np.int64)) % 4

    def apply_y(self, q: int) -> None:
        self.r = (self.r + 2 * (self.x[:, q] ^ self.z[:, q]).astype(np.int64)) % 4

    @staticmethod
    def _phase_exponent(x1, z1, x2, z2) -> int:
        """Exponent of i contributed by multiplying Pauli row 1 into row 2."""
        g = np.zeros(x1.shape, dtype=np.int64)
        both = (x1 == 1) & (z1 == 1)
        g[both] = z2[both].astype(np.int64) - x2[both]
        only_x = (x1 == 1) & (z1 == 0)
        g[only_x] = z2[only_x].astype(np.int64) * (2 * x2[only_x].astype(np.int64) - 1)
        only_z = (x1 == 0) & (z1 == 1)
        g[only_z] = x2[only_z].astype(np.int64) * (1 - 2 * z2[only_z].astype(np.int64))
        return int(g.sum())

    def _rowsum(self, h: int, i: int) -> None:
        """Multiply generator ``i`` into generator ``h``."""
        self.r[h] = (
            self.r[h]
            + self.r[i]
            + self._phase_exponent(self.x[i], self.z[i], self.x[h], self.z[h])
        ) % 4
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def measure(self, q: int, draws) -> int:
        """Measure qubit ``q`` in the computational basis; returns 0 or 1,
        from ``draws.outcome()`` when the outcome is random."""
        n = self.n
        pivot = None
        for row in range(n, 2 * n):
            if self.x[row, q]:
                pivot = row
                break
        if pivot is not None:
            for row in range(2 * n):
                if row != pivot and self.x[row, q]:
                    self._rowsum(row, pivot)
            self.x[pivot - n] = self.x[pivot]
            self.z[pivot - n] = self.z[pivot]
            self.r[pivot - n] = self.r[pivot]
            self.x[pivot] = 0
            self.z[pivot] = 0
            outcome = draws.outcome()
            self.z[pivot, q] = 1
            self.r[pivot] = 2 * outcome
            return outcome
        # Outcome determined: accumulate the stabilizer product selected by
        # the destabilizers that touch q with an X.
        xs = np.zeros(n, dtype=np.int8)
        zs = np.zeros(n, dtype=np.int8)
        rs = 0
        for j in range(n):
            if self.x[j, q]:
                rs = (
                    rs
                    + self.r[n + j]
                    + self._phase_exponent(self.x[n + j], self.z[n + j], xs, zs)
                ) % 4
                xs ^= self.x[n + j]
                zs ^= self.z[n + j]
        assert rs in (0, 2)
        return 0 if rs == 0 else 1

    def expectation(self, xs: Sequence[int], zs: Sequence[int]) -> int:
        """Expectation of the +1-phase Pauli with X part ``xs``, Z part ``zs``.

        Returns +1 or -1 when the Pauli (up to sign) is in the stabilizer
        group, 0 otherwise.
        """
        n = self.n
        px = np.asarray(xs, dtype=np.int8)
        pz = np.asarray(zs, dtype=np.int8)
        stab_x, stab_z = self.x[n:], self.z[n:]
        anti = ((stab_x & pz).sum(axis=1) + (stab_z & px).sum(axis=1)) % 2
        if anti.any():
            return 0
        acc_x = np.zeros(n, dtype=np.int8)
        acc_z = np.zeros(n, dtype=np.int8)
        acc_r = 0
        for j in range(n):
            overlap = int((self.x[j] & pz).sum() + (self.z[j] & px).sum()) % 2
            if overlap:
                acc_r = (
                    acc_r
                    + self.r[n + j]
                    + self._phase_exponent(self.x[n + j], self.z[n + j], acc_x, acc_z)
                ) % 4
                acc_x ^= self.x[n + j]
                acc_z ^= self.z[n + j]
        if not (np.array_equal(acc_x, px) and np.array_equal(acc_z, pz)):
            return 0
        assert acc_r in (0, 2)
        return 1 if acc_r == 0 else -1

    def pair_expectations(self, qa: int, qb: int) -> tuple[int, int]:
        """Signs of XX and ZZ on a qubit pair (+1, -1, or 0 each)."""
        xs = np.zeros(self.n, dtype=np.int8)
        zs = np.zeros(self.n, dtype=np.int8)
        xs[qa] = xs[qb] = 1
        xx = self.expectation(xs, np.zeros(self.n, dtype=np.int8))
        zs[qa] = zs[qb] = 1
        zz = self.expectation(np.zeros(self.n, dtype=np.int8), zs)
        return xx, zz


class StateVector:
    """Dense complex state vector on ``n`` qubits, initially all-zeros.

    Amplitude ``amp[i]`` belongs to the basis state whose bit q is qubit
    q. It has the gate and measurement methods of ``ReferenceTableau`` and
    shares no idea with it, no tableau, phase rule or row product: each
    expectation is an inner product. So it pins the tableau on small
    circuits.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.index = np.arange(1 << n)
        self.amp = np.zeros(1 << n, dtype=complex)
        self.amp[0] = 1

    def _bit(self, q: int) -> np.ndarray:
        return self.index >> q & 1

    def h(self, q: int) -> None:
        self.amp = (self.amp[self.index ^ 1 << q] + (1 - 2 * self._bit(q)) * self.amp) / math.sqrt(2)

    def cnot(self, control: int, target: int) -> None:
        self.amp = self.amp[self.index ^ self._bit(control) << target]

    def apply_x(self, q: int) -> None:
        self.amp = self.amp[self.index ^ 1 << q]

    def apply_z(self, q: int) -> None:
        self.amp = self.amp * (1 - 2 * self._bit(q))

    def apply_y(self, q: int) -> None:
        # Y = iXZ.
        self.apply_z(q)
        self.apply_x(q)
        self.amp = 1j * self.amp

    def measure(self, q: int, draws) -> int:
        """Measure qubit ``q`` in the computational basis; returns 0 or 1,
        from ``draws.outcome()`` when both outcomes have weight."""
        bit = self._bit(q)
        p1 = float(np.sum(np.abs(self.amp[bit == 1]) ** 2))
        if p1 < 1e-9:
            outcome = 0
        elif p1 > 1 - 1e-9:
            outcome = 1
        else:
            outcome = draws.outcome()
        weight = p1 if outcome else 1 - p1
        self.amp = np.where(bit == outcome, self.amp, 0) / math.sqrt(weight)
        return outcome

    def expectation(self, xs: Sequence[int], zs: Sequence[int]) -> int:
        """<psi|P|psi> for the Hermitian Pauli P with X part ``xs`` and Z
        part ``zs`` (Y where both are set): +1, -1 or 0 on a stabilizer
        state."""
        flip = sum(x << q for q, x in enumerate(xs))
        signs = np.ones(1 << self.n)
        for q, z in enumerate(zs):
            if z:
                signs = signs * (1 - 2 * self._bit(q))
        # X^x Z^z times i per Y turns it Hermitian.
        phase = 1j ** sum(x & z for x, z in zip(xs, zs))
        value = phase * np.vdot(self.amp, (signs * self.amp)[self.index ^ flip])
        rounded = round(value.real)
        assert abs(value - rounded) < 1e-9 and rounded in (-1, 0, 1), value
        return rounded


_PAULI_NAMES = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}


def reference_run_schedule(
    sched: SwapSchedule,
    noise: NoiseModel | None,
    draws: ReplayedDraws,
) -> RunResult:
    """Execute a schedule once on one joint int8 tableau.

    Random decisions come from ``draws`` in instruction order: per created
    pair with a positive error probability, hit or miss and on a hit one
    Pauli on its right qubit; per Bell measurement with positive swap
    noise, hit or miss and on a hit one Pauli per qubit; then each random
    outcome of its two measurements.

    Raises:
        ScheduleViolation: On double creation, gates or corrections on
            measured qubits, re-measurement, or unknown measurement sources.
    """
    noise = noise or NoiseModel.zero()
    state = ReferenceTableau(sched.n_qubits)
    created: set[int] = set()
    measured: set[int] = set()
    outcomes: dict[int, tuple[int, int]] = {}
    corrections: list[tuple[int, str]] = []
    p_swap = float(noise.swap_depolarize_p)

    def require_live(q: int, action: str) -> None:
        if q not in created:
            raise ScheduleViolation(f"{action} on qubit q{q} before creation")
        if q in measured:
            raise ScheduleViolation(f"{action} on already measured qubit q{q}")

    for ins in sched.instructions:
        if isinstance(ins, CreateBellPair):
            for q in (ins.qubit_left, ins.qubit_right):
                if q in created:
                    raise ScheduleViolation(f"qubit q{q} created twice")
                created.add(q)
            state.h(ins.qubit_left)
            state.cnot(ins.qubit_left, ins.qubit_right)
            q_err = noise.pair_error.get(ins.edge, Fraction(0))
            if q_err > 0 and draws.hit():
                _apply_pauli(state, ins.qubit_right, draws.pauli())
        elif isinstance(ins, BellMeasure):
            require_live(ins.qubit_left, "measurement")
            require_live(ins.qubit_right, "measurement")
            if p_swap > 0 and draws.hit():
                _apply_pauli(state, ins.qubit_left, draws.pauli())
                _apply_pauli(state, ins.qubit_right, draws.pauli())
            state.cnot(ins.qubit_left, ins.qubit_right)
            state.h(ins.qubit_left)
            a = state.measure(ins.qubit_left, draws)
            b = state.measure(ins.qubit_right, draws)
            outcomes[ins.index] = (a, b)
            measured.add(ins.qubit_left)
            measured.add(ins.qubit_right)
        elif isinstance(ins, PauliCorrect):
            require_live(ins.qubit, "correction")
            frame_x = frame_z = 0
            for src in ins.sources:
                if src not in outcomes:
                    raise ScheduleViolation(f"correction reads unknown outcome m{src}")
                a, b = outcomes[src]
                frame_z ^= a
                frame_x ^= b
            if frame_x:
                state.apply_x(ins.qubit)
            if frame_z:
                state.apply_z(ins.qubit)
            corrections.append((ins.qubit, _PAULI_NAMES[(frame_x, frame_z)]))
        else:
            raise ScheduleViolation(f"unknown instruction {ins!r}")

    pairs = []
    for d in sched.deliveries:
        require_live(d.source_qubit, "delivery check")
        require_live(d.sink_qubit, "delivery check")
        xx, zz = state.pair_expectations(d.source_qubit, d.sink_qubit)
        pairs.append(
            PairOutcome(
                copy=d.copy,
                source_qubit=d.source_qubit,
                sink_qubit=d.sink_qubit,
                xx_sign=xx,
                zz_sign=zz,
            )
        )
    ordered = tuple(outcomes[i] for i in sorted(outcomes))
    return RunResult(
        outcomes=ordered,
        corrections=tuple(corrections),
        pairs=tuple(pairs),
    )


def reference_plan_run(sched: SwapSchedule, plan, values: Sequence[int]) -> RunResult:
    """The run that ``plan``, the frame plan of ``sched``, reads off the
    one-lane draws ``values``, as the package read it before its one mask
    reader: the draws packed into one int, each figure the ``bit_count``
    parity of that int ANDed with its mask."""
    packed = 0
    for var, bit in enumerate(values):
        packed |= bit << var

    def parity(mask: int) -> int:
        return (mask & packed).bit_count() & 1

    corrections = [ins for ins in sched.instructions if isinstance(ins, PauliCorrect)]
    return RunResult(
        outcomes=tuple((parity(a), parity(b)) for a, b in plan.outcomes),
        corrections=tuple(
            (ins.qubit, _PAULI_NAMES[parity(fx), parity(fz)])
            for ins, (fx, fz) in zip(corrections, plan.fixes)
        ),
        pairs=tuple(
            PairOutcome(
                copy=d.copy,
                source_qubit=d.source_qubit,
                sink_qubit=d.sink_qubit,
                xx_sign=0 if check is None else 1 - 2 * parity(check[0]),
                zz_sign=0 if check is None else 1 - 2 * parity(check[1]),
            )
            for d, check in zip(sched.deliveries, plan.checks)
        ),
    )


def _apply_pauli(state: ReferenceTableau, q: int, which: int) -> None:
    if which == 1:
        state.apply_x(q)
    elif which == 2:
        state.apply_z(q)
    elif which == 3:
        state.apply_y(q)


def convolved_pass_probability(
    sched: SwapSchedule,
    noise: NoiseModel,
    *,
    include_pair_error: bool = True,
    include_swap_error: bool = True,
) -> Fraction:
    """Exact all-pass probability by brute force over Bell labels: per path
    copy, the XOR-convolution of every noise site's label distribution
    (with probability q the label becomes uniformly random)."""

    def mixing(q: Fraction) -> dict:
        return {(0, 0): 1 - 3 * q / 4, (1, 0): q / 4, (0, 1): q / 4, (1, 1): q / 4}

    def convolve(d1: dict, d2: dict) -> dict:
        out: dict = {}
        for (x1, z1), p1 in d1.items():
            for (x2, z2), p2 in d2.items():
                key = (x1 ^ x2, z1 ^ z2)
                out[key] = out.get(key, Fraction(0)) + p1 * p2
        return out

    copy_of: dict[int, int] = {}
    labels: dict[int, dict] = {}
    for ins in sched.instructions:
        if isinstance(ins, CreateBellPair):
            copy_of[ins.qubit_left] = copy_of[ins.qubit_right] = ins.copy
            dist = labels.setdefault(ins.copy, {(0, 0): Fraction(1)})
            if include_pair_error:
                q = noise.pair_error.get(ins.edge, Fraction(0))
                labels[ins.copy] = convolve(dist, mixing(q))
        elif isinstance(ins, BellMeasure) and include_swap_error:
            copy = copy_of[ins.qubit_left]
            labels[copy] = convolve(labels[copy], mixing(noise.swap_depolarize_p))
    prob = Fraction(1)
    for dist in labels.values():
        prob *= dist[(0, 0)]
    return prob


# The hand-made faults of ``mutate_schedule``, each with the lines it
# applies to.
SCHEDULE_MUTATIONS = {
    "drop-fix": "fix ",
    "drop-deliver": "deliver ",
    "duplicate-deliver": "deliver ",
    "relabel-copy": "pair ",
    "idle-pair": "pair ",
}


def mutate_schedule(text: str, kind: str, pick: int) -> str:
    """``serialize_schedule`` text with one fault of ``kind`` written in by
    hand, at line ``pick`` (modulo their count) of the lines it applies to:

    * ``drop-fix`` drops a ``fix`` line;
    * ``drop-deliver`` drops a ``deliver`` line;
    * ``duplicate-deliver`` repeats a ``deliver`` line at the end;
    * ``relabel-copy`` moves a ``pair`` line ``pick + 1`` copies on;
    * ``idle-pair`` appends a ``pair`` on two new qubits at the nodes of an
      existing one, which no line delivers.

    ``parse_schedule`` reads every result. Text with no line of the kind
    comes back unchanged."""
    lines = text.splitlines()
    fitting = [i for i, line in enumerate(lines) if line.startswith(SCHEDULE_MUTATIONS[kind])]
    if not fitting:
        return text
    at = fitting[pick % len(fitting)]
    if kind in ("drop-fix", "drop-deliver"):
        del lines[at]
    elif kind == "duplicate-deliver":
        lines.append(lines[at])
    elif kind == "relabel-copy":
        head, copy = lines[at].rsplit(" ", 1)
        lines[at] = f"{head} {int(copy) + pick + 1}"
    else:
        # Qubit ids are dense and only pair lines create them.
        fresh = 2 * len(fitting)
        _, left, right, _, copy = lines[at].split()
        left, right = left.partition("@")[2], right.partition("@")[2]
        lines.append(f"pair q{fresh}@{left} q{fresh + 1}@{right} copy {copy}")
    return "\n".join(lines) + "\n"


# --- Reference min-cost flow ------------------------------------------------
# The solver ``ebitflow.mincostflow.min_cost_flow`` used before it ran one
# Dijkstra per augmentation: a second forward Dijkstra and a reverse one per
# path search, and a Dinic min-cut before the first augmentation. Kept
# unchanged so the one-search version can be pinned against it: same arcs,
# same tie-break, same errors. The canonicalization after the loop is
# ``reference_cancel_cycles``, the package's earlier one on node labels; the
# package now canonicalizes on arc and node indices and is pinned against it
# (``reference_residual_solution``).


class _ReferenceResidual:
    """Residual digraph with one forward arc per edge orientation.

    Arc ``i`` and ``i ^ 1`` are mutual reverses. Forward arcs carry the edge
    cost, reverse arcs its negation. ``res`` holds remaining capacity.
    """

    def __init__(self, g: NetworkGraph) -> None:
        self.nodes = list(g.nodes)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.adj: list[list[int]] = [[] for _ in self.nodes]
        self.to: list[int] = []
        self.res: list[int] = []
        self.cost: list[int] = []
        self.arc_ends: list[Arc] = []
        for e in g.edges:
            self._add(e.a, e.b, e.capacity, e.unit_cost)
            self._add(e.b, e.a, e.capacity, e.unit_cost)

    def _add(self, a: NodeId, b: NodeId, cap: int, cost: int) -> None:
        ia, ib = self.index[a], self.index[b]
        self.adj[ia].append(len(self.to))
        self.to.append(ib)
        self.res.append(cap)
        self.cost.append(cost)
        self.arc_ends.append((a, b))
        self.adj[ib].append(len(self.to))
        self.to.append(ia)
        self.res.append(0)
        self.cost.append(-cost)
        self.arc_ends.append((b, a))

    def dijkstra(self, start: int, potential: list[int]) -> list[int | None]:
        """Shortest reduced-cost distance from ``start`` to every node."""
        dist: list[int | None] = [None] * len(self.nodes)
        dist[start] = 0
        heap = [(0, start)]
        while heap:
            d, u = heapq.heappop(heap)
            if dist[u] is None or d > dist[u]:
                continue
            for aid in self.adj[u]:
                if self.res[aid] <= 0:
                    continue
                v = self.to[aid]
                nd = d + self.cost[aid] + potential[u] - potential[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def dijkstra_to(self, goal: int, potential: list[int]) -> list[int | None]:
        """Shortest reduced-cost distance from every node to ``goal``."""
        radj: list[list[int]] = [[] for _ in self.nodes]
        for u in range(len(self.nodes)):
            for aid in self.adj[u]:
                if self.res[aid] > 0:
                    radj[self.to[aid]].append(aid)
        dist: list[int | None] = [None] * len(self.nodes)
        dist[goal] = 0
        heap = [(0, goal)]
        while heap:
            d, v = heapq.heappop(heap)
            if dist[v] is None or d > dist[v]:
                continue
            for aid in radj[v]:
                u = self.index[self.arc_ends[aid][0]]
                nd = d + self.cost[aid] + potential[u] - potential[v]
                if dist[u] is None or nd < dist[u]:
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        return dist

    def lexicographic_shortest_path(
        self, s: int, t: int, potential: list[int]
    ) -> list[int] | None:
        """Arc ids of the cheapest s-t path whose node-label sequence is
        lexicographically smallest among all cheapest simple paths.

        Depth-first search restricted to arcs that lie on some cheapest
        path, visiting neighbors in label order. Backtracking handles the
        corner case where zero-cost cycles make the greedy walk dead-end.
        """
        dist_s = self.dijkstra(s, potential)
        if dist_s[t] is None:
            return None
        dist_t = self.dijkstra_to(t, potential)
        total = dist_s[t]

        def candidates(u: int, acc: int) -> list[tuple[str, int]]:
            found: dict[int, int] = {}
            for aid in self.adj[u]:
                if self.res[aid] <= 0:
                    continue
                v = self.to[aid]
                if dist_t[v] is None or v in on_path:
                    continue
                rc = self.cost[aid] + potential[u] - potential[v]
                if acc + rc + dist_t[v] == total and v not in found:
                    found[v] = aid
            return sorted(
                ((self.nodes[v], aid) for v, aid in found.items()),
                key=lambda item: item[0],
            )

        on_path = {s}
        path_arcs: list[int] = []
        acc_costs = [0]
        stack = [candidates(s, 0)]
        while True:
            node = s if not path_arcs else self.to[path_arcs[-1]]
            if node == t:
                return path_arcs
            options = stack[-1]
            if options:
                _, aid = options.pop(0)
                v = self.to[aid]
                on_path.add(v)
                path_arcs.append(aid)
                rc = (
                    self.cost[aid]
                    + potential[self.index[self.arc_ends[aid][0]]]
                    - potential[v]
                )
                acc_costs.append(acc_costs[-1] + rc)
                stack.append(candidates(v, acc_costs[-1]))
            else:
                # Dead end under the simple-path constraint; back out.
                stack.pop()
                if not path_arcs:
                    return None
                dropped = path_arcs.pop()
                on_path.discard(self.to[dropped])
                acc_costs.pop()


def reference_min_cost_flow(g: NetworkGraph, target: int) -> FlowSolution:
    """Cheapest integral flow delivering exactly ``target`` pairs end to end.

    Args:
        g: The network.
        target: Required net flow at the source, a non-negative integer.

    Returns:
        An optimal canonical FlowSolution (no opposing flow, no cycles).

    Raises:
        NegativeTarget: If ``target`` is negative.
        InfeasibleTarget: If ``target`` exceeds the source-sink min-cut.
    """
    if not isinstance(target, int) or isinstance(target, bool):
        raise NegativeTarget(f"target must be an integer, got {target!r}")
    if target < 0:
        raise NegativeTarget(f"target must be non-negative, got {target}")
    capacity = min_cut(g)
    if target > capacity:
        raise InfeasibleTarget(
            f"target {target} exceeds the source-sink min-cut {capacity}"
        )

    residual = _ReferenceResidual(g)
    s, t = residual.index[g.source], residual.index[g.sink]
    potential = [0] * len(residual.nodes)
    pushed = 0
    while pushed < target:
        dist = residual.dijkstra(s, potential)
        path = residual.lexicographic_shortest_path(s, t, potential)
        if path is None:
            raise InfeasibleTarget(
                f"no augmenting path after {pushed} of {target} pairs"
            )
        bottleneck = min(residual.res[aid] for aid in path)
        bottleneck = min(bottleneck, target - pushed)
        for aid in path:
            residual.res[aid] -= bottleneck
            residual.res[aid ^ 1] += bottleneck
        pushed += bottleneck
        for v in range(len(residual.nodes)):
            if dist[v] is not None:
                potential[v] += dist[v]

    arc_flow: dict[Arc, int] = {}
    for aid in range(0, len(residual.to), 2):
        f = residual.res[aid ^ 1]
        if f > 0:
            a, b = residual.arc_ends[aid]
            arc_flow[(a, b)] = arc_flow.get((a, b), 0) + f
    reference_cancel_cycles(arc_flow, g)

    total_cost = sum(
        g.edge_between(a, b).unit_cost * f for (a, b), f in arc_flow.items()
    )
    net = sum(f for (a, _), f in arc_flow.items() if a == g.source) - sum(
        f for (_, b), f in arc_flow.items() if b == g.source
    )
    if net != target:
        raise InvariantViolation("solver delivered a different net flow than requested")
    return FlowSolution(
        graph=g, arc_flow=dict(sorted(arc_flow.items())), net_flow=net, total_cost=total_cost
    )


def reference_cancel_cycles(arc_flow: dict[Arc, int], g: NetworkGraph) -> None:
    """Remove opposing flow pairs and any remaining support cycles in place.

    Cycles surviving opposing-pair cancellation must cost zero in an optimal
    flow, so removal never changes net flow and never increases cost.
    """
    for key in sorted({edge_key(a, b) for (a, b) in arc_flow}):
        f_ab = arc_flow.get(key, 0)
        f_ba = arc_flow.get((key[1], key[0]), 0)
        m = min(f_ab, f_ba)
        if m > 0:
            arc_flow[key] = f_ab - m
            arc_flow[(key[1], key[0])] = f_ba - m
    for arc in [a for a, f in arc_flow.items() if f <= 0]:
        del arc_flow[arc]

    while True:
        succ: dict[NodeId, list[NodeId]] = {}
        for a, b in arc_flow:
            succ.setdefault(a, []).append(b)
        for heads in succ.values():
            heads.sort()
        cycle = _find_label_cycle(succ)
        if cycle is None:
            return
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        bottleneck = min(arc_flow[arc] for arc in arcs)
        if sum(g.edge_between(*arc).unit_cost for arc in arcs) != 0:
            raise InvariantViolation("positive-cost cycle in an optimal flow")
        for arc in arcs:
            arc_flow[arc] -= bottleneck
            if arc_flow[arc] == 0:
                del arc_flow[arc]


def _find_label_cycle(succ: Mapping[NodeId, list[NodeId]]) -> list[NodeId] | None:
    visited: set[NodeId] = set()
    for start in sorted(succ):
        if start in visited:
            continue
        trail: list[NodeId] = [start]
        pos: dict[NodeId, int] = {start: 0}
        stack = [(start, iter(succ.get(start, ())))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt in pos:
                    return trail[pos[nxt] :]
                if nxt in visited:
                    continue
                trail.append(nxt)
                pos[nxt] = len(trail) - 1
                stack.append((nxt, iter(succ.get(nxt, ()))))
                break
            else:
                stack.pop()
                visited.add(node)
                del pos[node]
                trail.pop()
    return None


def reference_residual_solution(residual) -> FlowSolution:
    """The canonical flow of a package ``_Residual`` as its ``solution``
    read it before it worked on arc indices: per-arc flows on labels,
    summed per orientation, then ``reference_cancel_cycles``."""
    g = residual.graph
    arc_flow: dict[Arc, int] = {}
    for aid in range(0, len(residual.to), 2):
        f = residual.res[aid ^ 1]
        if f > 0:
            a = residual.nodes[residual.to[aid ^ 1]]
            b = residual.nodes[residual.to[aid]]
            arc_flow[(a, b)] = arc_flow.get((a, b), 0) + f
    reference_cancel_cycles(arc_flow, g)
    total_cost = sum(
        g.edge_between(a, b).unit_cost * f for (a, b), f in arc_flow.items()
    )
    net = sum(f for (a, _), f in arc_flow.items() if a == g.source) - sum(
        f for (_, b), f in arc_flow.items() if b == g.source
    )
    if net != residual.pushed:
        raise InvariantViolation("solver delivered a different net flow than requested")
    return FlowSolution(
        graph=g, arc_flow=dict(sorted(arc_flow.items())), net_flow=net, total_cost=total_cost
    )


def reference_augmenting_paths(residual):
    """``_Residual.augmenting_paths`` before its rounds alternated
    direction: every round's Dijkstra runs backwards from the sink, and
    the potentials, distances to the sink, are rebuilt whole each round.
    The caller pushes along each path before the next, as there."""
    s, t = residual.index[residual.graph.source], residual.index[residual.graph.sink]
    potential = [0] * len(residual.nodes)
    tight = False
    while True:
        path = residual.lexicographic_shortest_path(s, t, potential) if tight else None
        if path is None:
            found = residual.dijkstra(t, s, potential, residual.radj, residual.tail)
            if found is None:
                return
            settled, dist = found
            far = dist[s]
            tight = far == 0
            potential = [p + far for p in potential]
            for v in settled:
                potential[v] += dist[v] - far
            path = residual.lexicographic_shortest_path(s, t, potential)
            if path is None:
                raise InvariantViolation("no tight path to a reachable sink")
        yield path, min(residual.res[aid] for aid in path)


# --- Reference flow decomposition -------------------------------------------
# ``ebitflow.pathplan.decompose_flow`` before it peeled paths in BFS phases:
# per bundle it rebuilt the successor and predecessor lists of the arcs
# left and ran a BFS from each client. Kept so the phased version can be
# pinned against it: same bundles in the same order, same errors.


def reference_decompose_flow(sol: FlowSolution) -> tuple[PathBundle, ...]:
    """Split a canonical flow into path bundles, fewest hops first, then
    the lexicographically smallest node sequence, one search per bundle.

    Raises:
        MalformedFlow: If the flow fails ``validate_flow`` or strands flow
            on no s-t path.
    """
    validate_flow(sol)
    residual: dict[tuple[NodeId, NodeId], int] = {
        arc: f for arc, f in sol.arc_flow.items() if f > 0
    }
    g = sol.graph
    bundles: list[PathBundle] = []
    while residual:
        path = _fewest_hops_lexicographic(residual, g.source, g.sink)
        if path is None:
            raise MalformedFlow("positive flow remains but no source-sink path does")
        arcs = list(zip(path, path[1:]))
        width = min(residual[a] for a in arcs)
        for a in arcs:
            residual[a] -= width
            if residual[a] == 0:
                del residual[a]
        bundles.append(PathBundle(path=tuple(path), multiplicity=width))
    if sum(b.multiplicity for b in bundles) != sol.net_flow:
        raise InvariantViolation("path bundles do not sum to the net flow")
    return tuple(bundles)


def _fewest_hops_lexicographic(
    residual: Mapping[tuple[NodeId, NodeId], int], s: NodeId, t: NodeId
) -> list[NodeId] | None:
    succ: dict[NodeId, list[NodeId]] = {}
    pred: dict[NodeId, list[NodeId]] = {}
    for a, b in residual:
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)

    def bfs(start: NodeId, adj: Mapping[NodeId, list[NodeId]]) -> dict[NodeId, int]:
        dist = {start: 0}
        queue = [start]
        for u in queue:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    dist_s = bfs(s, succ)
    if t not in dist_s:
        return None
    dist_t = bfs(t, pred)
    total = dist_s[t]
    # Every admissible arc strictly decreases the distance to t, so the
    # greedy smallest-label walk terminates and is automatically simple.
    path = [s]
    node = s
    while node != t:
        nxt = min(
            v
            for v in succ.get(node, ())
            if v in dist_t and dist_s[node] + 1 + dist_t[v] == total
        )
        path.append(nxt)
        node = nxt
    return path


def reference_resolve(net: HierarchicalNetwork) -> _Resolved:
    """Resolve a hierarchy bottom-up into the tree of ``_Resolved`` nodes
    with one lower solve per edge: a ``min_cut`` when the edge sets no
    per-use target, then a ``min_cost_flow``, shared with no other edge.
    Networks are resolved level by level in ``_resolve``'s order, so the
    first infeasible solve is the same one."""
    networks: list[HierarchicalNetwork] = []
    queue = [net]
    while queue:
        n = queue.pop()
        networks.append(n)
        queue.extend(e.lower for e in n.edges)

    done: dict[int, _Resolved] = {}
    for n in sorted(networks, key=lambda n: n.level):
        if n.level == 0:
            done[id(n)] = _Resolved(n.base, {})
            continue
        rows = {}
        flat_edges = []
        for e in n.edges:
            lower = done[id(e.lower)]
            theta = e.yield_fn.cap()
            target = e.lower_target
            if target is None:
                target = min_cut(lower.graph)
            lower_sol = min_cost_flow(lower.graph, target)
            per_use = lower_sol.total_cost
            if e.unit_cost is not None:
                pounds = e.unit_cost
            elif theta == 0:
                pounds = 0
            else:
                pounds = -((-e.yield_fn.max_uses * per_use) // theta)
            generation = generation_error_budget(lower.graph, lower_sol.active_edges)
            rows[e.key] = (e, lower_sol, generation, lower)
            flat_edges.append(
                Edge(
                    e.a,
                    e.b,
                    capacity=theta,
                    unit_cost=pounds,
                    gen_error=e.distill_error,
                    max_uses=e.yield_fn.max_uses,
                )
            )
        graph = NetworkGraph(
            nodes=n.nodes,
            edges=tuple(flat_edges),
            source=n.clients[0],
            sink=n.clients[1],
        )
        done[id(n)] = _Resolved(graph, rows)
    return done[id(net)]


def reference_edge_fields(
    a, b, capacity, unit_cost, gen_error=Fraction(0), max_uses=None
) -> tuple:
    """The checks of ``Edge`` before its exact-type fast paths, on plain
    values: the stored ``(a, b, capacity, unit_cost, gen_error, max_uses)``
    each paired with its type, or the ValidationError or ParseError an
    Edge of them raises. Endpoints are strings; what other labels do is
    the label check's business."""
    if a == b:
        raise ValidationError(f"self-loop at node {a!r}")
    if a > b:
        a, b = b, a
    key = (a, b)
    if not isinstance(capacity, int) or isinstance(capacity, bool):
        raise ValidationError(f"edge {key}: capacity must be an integer")
    if capacity < 0:
        raise ValidationError(f"edge {key}: negative capacity")
    if not isinstance(unit_cost, int) or isinstance(unit_cost, bool):
        raise ValidationError(f"edge {key}: unit_cost must be an integer")
    if unit_cost < 0:
        raise ValidationError(f"edge {key}: negative unit_cost")
    if not isinstance(gen_error, Fraction):
        gen_error = as_fraction(gen_error)
    if not 0 <= gen_error.numerator <= gen_error.denominator:
        raise ValidationError(f"edge {key}: gen_error outside [0, 1]")
    if max_uses is not None:
        if not isinstance(max_uses, int) or isinstance(max_uses, bool):
            raise ValidationError(f"edge {key}: max_uses must be an integer")
        if max_uses < 1:
            raise ValidationError(f"edge {key}: max_uses must be positive")
    return tuple((type(v), v) for v in (a, b, capacity, unit_cost, gen_error, max_uses))


def reference_as_fraction(value: object, what: str = "value") -> Fraction:
    """``netgraph.as_fraction`` as it was before its Fraction fast path:
    the isinstance chain alone."""
    if isinstance(value, bool):
        raise ParseError(f"{what}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"{what}: not a finite number: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{what}: not a valid rational: {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    raise ParseError(f"{what}: expected a number, got {type(value).__name__}")


def reference_cost_to_milli(value: object, what: str = "cost") -> int:
    """Convert a cost in cost units to integer milli-units through one exact
    Fraction per value."""
    frac = as_fraction(value, what) * MILLI
    if frac.denominator != 1:
        raise ValidationError(
            f"{what}: {value!r} is not representable in whole milli-cost units"
        )
    if frac < 0:
        raise ValidationError(f"{what}: must be non-negative, got {value!r}")
    return int(frac)


def _reference_parse_edge_entry(entry: object, index: int) -> tuple[EdgeKey, dict]:
    if not isinstance(entry, Mapping):
        raise ParseError(f"edges[{index}]: expected an object")
    unknown = set(entry) - _EDGE_FIELDS_REQUIRED - _EDGE_FIELDS_OPTIONAL
    if unknown:
        raise ParseError(f"edges[{index}]: unknown fields {sorted(unknown)}")
    missing = _EDGE_FIELDS_REQUIRED - set(entry)
    if missing:
        raise ParseError(f"edges[{index}]: missing fields {sorted(missing)}")
    a, b = entry["a"], entry["b"]
    if not isinstance(a, str) or not isinstance(b, str):
        raise ParseError(f"edges[{index}]: endpoints must be strings")
    capacity = entry["capacity"]
    if not isinstance(capacity, int) or isinstance(capacity, bool):
        raise ParseError(f"edges[{index}]: capacity must be an integer")
    fields = {
        "capacity": capacity,
        "unit_cost": reference_cost_to_milli(entry["cost"], f"edges[{index}].cost"),
        "gen_error": None,
        "max_uses": None,
        "channel": None,
        "yield_spec": None,
    }
    if "delta" in entry:
        fields["gen_error"] = as_fraction(entry["delta"], f"edges[{index}].delta")
    if "max_uses" in entry:
        mu = entry["max_uses"]
        if not isinstance(mu, int) or isinstance(mu, bool):
            raise ParseError(f"edges[{index}].max_uses: must be an integer")
        fields["max_uses"] = mu
    if "channel" in entry:
        if not isinstance(entry["channel"], Mapping):
            raise ParseError(f"edges[{index}].channel: expected an object")
        fields["channel"] = dict(entry["channel"])
    if "yield" in entry:
        if not isinstance(entry["yield"], Mapping):
            raise ParseError(f"edges[{index}].yield: expected an object")
        fields["yield_spec"] = dict(entry["yield"])
    if a == b:
        raise ValidationError(f"edges[{index}]: self-loop at node {a!r}")
    return edge_key(a, b), fields


def _reference_merge_parallel(key: EdgeKey, entries: Sequence[dict]) -> dict:
    # Sums capacities and use bounds before any sign check, so a negative
    # entry can hide inside a valid-looking sum; the lean parser rejects it.
    merged = dict(entries[0])
    for other in entries[1:]:
        if other["unit_cost"] != merged["unit_cost"]:
            raise ValidationError(f"parallel edges {key} disagree on cost; cannot merge")
        if other["gen_error"] != merged["gen_error"]:
            raise ValidationError(f"parallel edges {key} disagree on delta; cannot merge")
        merged["capacity"] += other["capacity"]
        if merged["max_uses"] is None or other["max_uses"] is None:
            merged["max_uses"] = None
        else:
            merged["max_uses"] += other["max_uses"]
        if merged["channel"] is None:
            merged["channel"] = other["channel"]
        elif other["channel"] is not None and other["channel"] != merged["channel"]:
            raise ValidationError(f"parallel edges {key} disagree on channel annotation")
        if merged["yield_spec"] is None:
            merged["yield_spec"] = other["yield_spec"]
        elif other["yield_spec"] is not None and other["yield_spec"] != merged["yield_spec"]:
            raise ValidationError(f"parallel edges {key} disagree on yield annotation")
    return merged


def reference_parse_document(
    doc: Mapping, *, default_gen_error: Fraction | None = None
) -> NetworkDocument:
    """Parse a flat network document with a field dict per edge entry, every
    entry grouped by node pair and every group merged, even of one entry."""
    if not isinstance(doc, Mapping):
        raise ParseError("network document must be an object")
    unknown = set(doc) - _DOC_FIELDS
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    missing = _DOC_FIELDS - set(doc)
    if missing:
        raise ParseError(f"missing fields {sorted(missing)}")
    nodes = _parse_nodes(doc["nodes"])
    if not isinstance(doc["edges"], Sequence) or isinstance(doc["edges"], (str, bytes)):
        raise ParseError("edges: expected an array of edge objects")
    if len(set(nodes)) != len(nodes):
        raise ValidationError("duplicate node labels")
    node_set = set(nodes)

    grouped: dict[EdgeKey, list[dict]] = {}
    order: list[EdgeKey] = []
    for i, entry in enumerate(doc["edges"]):
        key, fields = _reference_parse_edge_entry(entry, i)
        if key[0] not in node_set or key[1] not in node_set:
            raise ValidationError(f"edges[{i}]: unknown endpoint in {key}")
        if key not in grouped:
            order.append(key)
        grouped.setdefault(key, []).append(fields)

    if default_gen_error is None:
        default_gen_error = Fraction(0)
    edges = []
    channels: dict[EdgeKey, Mapping[str, object]] = {}
    yields: dict[EdgeKey, Mapping[str, object]] = {}
    for key in order:
        merged = _reference_merge_parallel(key, grouped[key])
        gen_error = merged["gen_error"]
        if gen_error is None:
            gen_error = default_gen_error
        edges.append(
            Edge(
                key[0],
                key[1],
                merged["capacity"],
                merged["unit_cost"],
                gen_error,
                merged["max_uses"],
            )
        )
        if merged["channel"] is not None:
            channels[key] = merged["channel"]
        if merged["yield_spec"] is not None:
            yields[key] = merged["yield_spec"]

    source, sink = doc["source"], doc["sink"]
    if not isinstance(source, str) or not isinstance(sink, str):
        raise ParseError("source and sink must be strings")
    graph = NetworkGraph(tuple(nodes), tuple(edges), source, sink)
    return NetworkDocument(graph=graph, channels=channels, yields=yields)


def _reference_whole(raw: Mapping, name: str, where: str) -> int:
    """``raw[name]``, which must be a non-negative int of at most 10**400."""
    value = raw[name]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParseError(f"{where}: {name} must be a non-negative integer")
    if value > 10**400:
        raise ParseError(
            f"{where}.{name}: the numerator and denominator of a number may not "
            "exceed 10**400"
        )
    return value


def _reference_parse_lower(raw: object, index: int) -> dict:
    """The ``HierEdge`` fields of the ``lower`` object of ``edges[index]``,
    each value converted on its own, and its network document."""
    where = f"edges[{index}]"
    if not isinstance(raw, Mapping):
        raise ParseError(f"{where}: lower must be an object")
    required = {"network", "yield", "delta_target"}
    unknown = set(raw) - required - {"max_uses", "cost", "target", "threshold"}
    if unknown:
        raise ParseError(f"{where}: unknown lower fields {sorted(unknown)}")
    missing = required - set(raw)
    if missing:
        raise ParseError(f"{where}: missing lower fields {sorted(missing)}")
    max_uses = None
    if raw.get("max_uses") is not None:
        max_uses = _reference_whole(raw, "max_uses", where)
    fields = {
        "network": raw["network"],
        "yield_fn": parse_yield(raw["yield"], max_uses),
        "distill_error": as_fraction(raw["delta_target"], f"{where}.delta_target"),
        "unit_cost": None,
        "lower_target": None,
        "error_threshold": None,
    }
    if "cost" in raw:
        fields["unit_cost"] = reference_cost_to_milli(raw["cost"], f"{where}.cost")
    if "target" in raw:
        fields["lower_target"] = _reference_whole(raw, "target", where)
    if "threshold" in raw:
        fields["error_threshold"] = as_fraction(raw["threshold"], f"{where}.threshold")
    return fields


def reference_parse_hierarchical(doc: Mapping) -> HierarchicalNetwork:
    """Parse a hierarchical document, every flat level through
    ``reference_parse_document``, checking each edge for being an object
    both here and there."""
    if not isinstance(doc, Mapping):
        raise ParseError("network document must be an object")
    edges = doc.get("edges")
    if not isinstance(edges, Sequence) or isinstance(edges, (str, bytes)):
        raise ParseError("edges: expected an array of edge objects")
    wrapped = [isinstance(e, Mapping) and "lower" in e for e in edges]
    if not any(wrapped):
        return HierarchicalNetwork.from_graph(reference_parse_document(doc).graph)
    if not all(wrapped):
        raise ValidationError(
            "a network must be uniformly physical or uniformly wrapped; "
            "wrap single physical edges as two-node networks instead of mixing"
        )
    unknown = set(doc) - _DOC_FIELDS
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}")
    missing = _DOC_FIELDS - set(doc)
    if missing:
        raise ParseError(f"missing fields {sorted(missing)}")
    nodes = _parse_nodes(doc["nodes"])
    hier_edges = []
    for i, entry in enumerate(edges):
        where = f"edges[{i}]"
        unknown = set(entry) - {"a", "b", "lower"}
        if unknown:
            raise ParseError(f"{where}: unknown fields {sorted(unknown)}")
        if {"a", "b", "lower"} - set(entry):
            raise ParseError(f"{where}: needs a, b and lower")
        a, b = entry["a"], entry["b"]
        if not isinstance(a, str) or not isinstance(b, str):
            raise ParseError(f"{where}: endpoints must be strings")
        fields = _reference_parse_lower(entry["lower"], i)
        lower_net = reference_parse_hierarchical(fields.pop("network"))
        edge = HierEdge(a=a, b=b, lower=lower_net, **fields)
        threshold = fields["error_threshold"]
        if threshold is not None and not 0 <= threshold <= 1:
            raise ValidationError(f"edge {edge.key}: error_threshold outside [0, 1]")
        hier_edges.append(edge)
    source, sink = doc.get("source"), doc.get("sink")
    if not isinstance(source, str) or not isinstance(sink, str):
        raise ParseError("source and sink must be strings")
    levels = {e.lower.level for e in hier_edges}
    if len(levels) > 1:
        raise ValidationError(f"edges wrap networks of different levels {sorted(levels)}")
    return HierarchicalNetwork(
        level=hier_edges[0].lower.level + 1,
        nodes=tuple(nodes),
        edges=tuple(hier_edges),
        clients=(source, sink),
    )


# The defaults of every value type that has any, as its frozen dataclass
# declared them: a value, or ``dict`` for ``field(default_factory=dict)``.
VALUE_TYPE_DEFAULTS = {
    "Edge": {"gen_error": Fraction(0), "max_uses": None},
    "NetworkDocument": {"yields": dict},
    "YieldFunction": {"rate": None, "points": None, "max_uses": None},
    "ChannelModel": {"q": None, "eta": None, "use_rate": Fraction(1)},
    "NoiseModel": {"swap_depolarize_p": Fraction(0), "pair_error": dict},
    "HierEdge": {
        "unit_cost": None,
        "distill_error": Fraction(0),
        "lower_target": None,
        "error_threshold": None,
    },
    "HierarchicalNetwork": {"base": None},
}


def dataclass_twin(cls: type) -> type:
    """The frozen dataclass that ``cls`` was: same name, qualified name,
    fields in the same order and defaults, and no checks."""
    defaults = VALUE_TYPE_DEFAULTS.get(cls.__name__, {})
    fields = []
    for name in cls.__annotations__:
        if name not in defaults:
            fields.append((name, object))
        elif defaults[name] is dict:
            fields.append((name, object, dataclasses.field(default_factory=dict)))
        else:
            fields.append((name, object, dataclasses.field(default=defaults[name])))
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin

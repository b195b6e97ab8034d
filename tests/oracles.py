"""Independent brute-force oracles that pin the solvers' outputs.

Everything here is deliberately naive: exhaustive subset scans and
depth-first searches with no shared code or ideas with the package
implementations, so an agreement between the two is meaningful. The one
exception is the reference stabilizer simulator at the end: the package's
earlier numpy tableau, kept as the slow path its bit-packed replacement
must reproduce draw for draw.
"""

from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from ebitflow import (
    BellMeasure,
    CreateBellPair,
    FidelityEstimate,
    NetworkGraph,
    NoiseModel,
    PairOutcome,
    PairStats,
    PauliCorrect,
    RunResult,
    ScheduleViolation,
    SwapSchedule,
    ValidationError,
    wilson_interval,
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


# --- Reference stabilizer simulator -----------------------------------------
# The int8 numpy tableau and schedule loop that ``ebitflow.stabsim`` used
# before it moved to bit-packed per-copy tableaus, kept unchanged so the
# fast engine can be pinned against it: same draws from the same generator
# in instruction order, hence the same outcomes, corrections and pair signs.


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

    def measure(self, q: int, rng: np.random.Generator) -> int:
        """Measure qubit ``q`` in the computational basis; returns 0 or 1."""
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
            outcome = int(rng.integers(2))
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


_PAULI_NAMES = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "XZ"}


def reference_run_schedule(
    sched: SwapSchedule,
    noise: NoiseModel | None = None,
    seed: int | Sequence[int] = 0,
) -> RunResult:
    """Execute a schedule once on one joint int8 tableau.

    Deterministic for a given (schedule, noise, seed) triple: random draws
    happen in instruction order from a single seeded generator.

    Raises:
        ScheduleViolation: On double creation, gates or corrections on
            measured qubits, re-measurement, or unknown measurement sources.
    """
    noise = noise or NoiseModel.zero()
    rng = np.random.default_rng(seed)
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
            if q_err > 0 and rng.random() < float(q_err):
                _apply_pauli(state, ins.qubit_right, int(rng.integers(4)))
        elif isinstance(ins, BellMeasure):
            require_live(ins.qubit_left, "measurement")
            require_live(ins.qubit_right, "measurement")
            if p_swap > 0 and rng.random() < p_swap:
                _apply_pauli(state, ins.qubit_left, int(rng.integers(4)))
                _apply_pauli(state, ins.qubit_right, int(rng.integers(4)))
            state.cnot(ins.qubit_left, ins.qubit_right)
            state.h(ins.qubit_left)
            a = state.measure(ins.qubit_left, rng)
            b = state.measure(ins.qubit_right, rng)
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


def _apply_pauli(state: ReferenceTableau, q: int, which: int) -> None:
    if which == 1:
        state.apply_x(q)
    elif which == 2:
        state.apply_z(q)
    elif which == 3:
        state.apply_y(q)


def reference_fidelity_estimate(
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
    noise = noise or NoiseModel.zero()
    passes = [0] * len(sched.deliveries)
    all_pass = 0
    for trial in range(trials):
        result = reference_run_schedule(sched, noise, seed=(seed, trial))
        ok_all = True
        for i, pair in enumerate(result.pairs):
            if pair.passed:
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

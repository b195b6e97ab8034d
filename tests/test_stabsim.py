"""Tableau simulator, noise model, and exact-error machinery."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import (
    ReferenceTableau,
    reference_fidelity_estimate,
    reference_run_schedule,
)

from ebitflow import (
    EXACT_QUBIT_LIMIT,
    WILSON_Z,
    BellMeasure,
    CreateBellPair,
    Delivery,
    ErrorBudget,
    InvariantViolation,
    NetworkGraph,
    NoiseModel,
    PathBundle,
    PauliCorrect,
    ScheduleViolation,
    StabilizerState,
    SwapSchedule,
    TooLarge,
    ValidationError,
    build_swap_schedule,
    decompose_flow,
    estimate_operation_error,
    exact_operation_error,
    exact_pass_probability,
    exact_trace_distance,
    fidelity_estimate,
    generation_error_budget,
    min_cost_flow,
    min_cut,
    run_schedule,
    wilson_interval,
)

RNG = np.random.default_rng(0)

SINGLE = build_swap_schedule([PathBundle(path=("s", "t"), multiplicity=1)])
SINGLE2 = build_swap_schedule([PathBundle(path=("s", "t"), multiplicity=2)])
RELAY = build_swap_schedule([PathBundle(path=("s", "r", "t"), multiplicity=1)])
THREE_HOP = build_swap_schedule([PathBundle(path=("s", "a", "b", "t"), multiplicity=1)])

CORRECTION_NAMES = {"I", "X", "Z", "XZ"}


def bell_state() -> StabilizerState:
    st_ = StabilizerState(2)
    st_.h(0)
    st_.cnot(0, 1)
    return st_


class TestStabilizerState:
    def test_negative_qubit_count_rejected(self):
        with pytest.raises(ValidationError):
            StabilizerState(-1)

    def test_fresh_state_measures_zero(self):
        state = StabilizerState(3)
        for q in range(3):
            assert state.measure(q, RNG) == 0

    def test_fresh_state_z_stabilizers(self):
        state = StabilizerState(2)
        assert state.expectation([0, 0], [1, 0]) == 1
        assert state.expectation([0, 0], [1, 1]) == 1
        # X on either qubit anticommutes with the Z stabilizers.
        assert state.expectation([1, 0], [0, 0]) == 0

    def test_x_gate_flips_z_sign(self):
        state = StabilizerState(1)
        state.apply_x(0)
        assert state.expectation([0], [1]) == -1

    def test_y_gate_flips_z_sign(self):
        state = StabilizerState(1)
        state.apply_y(0)
        assert state.expectation([0], [1]) == -1

    def test_hadamard_makes_plus_state(self):
        state = StabilizerState(1)
        state.h(0)
        assert state.expectation([1], [0]) == 1
        assert state.expectation([0], [1]) == 0

    def test_bell_pair_expectations(self):
        state = bell_state()
        assert state.pair_expectations(0, 1) == (1, 1)

    def test_bell_pair_measurements_correlate(self):
        for seed in range(8):
            state = bell_state()
            rng = np.random.default_rng(seed)
            assert state.measure(0, rng) == state.measure(1, rng)

    def test_measurement_outcome_repeatable(self):
        state = bell_state()
        rng = np.random.default_rng(3)
        first = state.measure(0, rng)
        # Collapsed state: the same qubit keeps answering the same way.
        assert state.measure(0, rng) == first
        assert state.measure(0, rng) == first

    def test_anticorrelated_pair_zz_negative(self):
        state = bell_state()
        state.apply_x(1)
        xx, zz = state.pair_expectations(0, 1)
        assert (xx, zz) == (-1, 1) or (xx, zz) == (1, -1)
        assert zz == -1

    def test_corrupted_tableau_raises_typed_error(self):
        # Both destabilizers carry an X on qubit 0, so measuring it
        # multiplies both stabilizers, X_1 and Z_1. They anticommute, which
        # no sound tableau allows, and their product has an imaginary phase.
        state = StabilizerState(2)
        state.x[:] = [0b0011, 0b0100]
        state.z[:] = [0, 0b1000]
        with pytest.raises(InvariantViolation):
            state.measure(0, RNG)


class TestNoiseModel:
    def test_zero_model(self):
        nm = NoiseModel.zero()
        assert nm.swap_depolarize_p == 0
        assert dict(nm.pair_error) == {}

    def test_probability_bounds(self):
        with pytest.raises(ValidationError):
            NoiseModel(swap_depolarize_p=Fraction(3, 2))
        with pytest.raises(ValidationError):
            NoiseModel(swap_depolarize_p=-1)
        with pytest.raises(ValidationError):
            NoiseModel(pair_error={("a", "b"): Fraction(5, 4)})

    def test_fraction_coercion(self):
        nm = NoiseModel(swap_depolarize_p=0.25, pair_error={("a", "b"): "1/10"})
        assert nm.swap_depolarize_p == Fraction(1, 4)
        assert nm.pair_error[("a", "b")] == Fraction(1, 10)

    def test_from_graph_scales_budgets(self):
        g = NetworkGraph.from_edge_list(
            [("s", "t", 3, 1000, Fraction(1, 20))], "s", "t"
        )
        nm = NoiseModel.from_graph(g)
        assert nm.pair_error[("s", "t")] == Fraction(1, 15)

    def test_from_graph_skips_zero_budget_edges(self):
        g = NetworkGraph.from_edge_list(
            [("s", "r", 1, 1000, Fraction(1, 100)), ("r", "t", 1, 1000)], "s", "t"
        )
        nm = NoiseModel.from_graph(g, swap_depolarize_p=Fraction(1, 8))
        assert ("r", "t") not in nm.pair_error
        assert nm.pair_error[("r", "s")] == Fraction(1, 75)
        assert nm.swap_depolarize_p == Fraction(1, 8)

    def test_from_graph_rejects_unreachable_budget(self):
        g = NetworkGraph.from_edge_list(
            [("s", "t", 1, 1000, Fraction(4, 5))], "s", "t"
        )
        with pytest.raises(ValidationError):
            NoiseModel.from_graph(g)


class TestNoiselessRuns:
    @pytest.mark.parametrize("sched", [SINGLE, SINGLE2, RELAY, THREE_HOP])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_all_pairs_pass(self, sched, seed):
        result = run_schedule(sched, seed=seed)
        assert result.all_passed
        for pair in result.pairs:
            assert pair.xx_sign == 1 and pair.zz_sign == 1

    def test_single_hop_has_no_outcomes(self):
        result = run_schedule(SINGLE)
        assert result.outcomes == ()
        assert result.corrections == ()
        assert len(result.pairs) == 1

    def test_relay_has_one_measurement_and_correction(self):
        result = run_schedule(RELAY, seed=2)
        assert len(result.outcomes) == 1
        assert len(result.corrections) == 1
        qubit, name = result.corrections[0]
        assert name in CORRECTION_NAMES
        assert sched_qubit_node(RELAY, qubit) == "t"

    def test_correction_names_stay_in_frame_group(self):
        noise = NoiseModel(
            swap_depolarize_p=1,
            pair_error={("r", "s"): 1, ("r", "t"): 1},
        )
        seen = set()
        for seed in range(40):
            for sched in (RELAY, THREE_HOP):
                result = run_schedule(sched, noise, seed=seed)
                for _, name in result.corrections:
                    seen.add(name)
        assert seen <= CORRECTION_NAMES
        assert len(seen) >= 2

    def test_three_hop_correction_reads_both_measurements(self):
        result = run_schedule(THREE_HOP, seed=9)
        assert len(result.outcomes) == 2
        assert len(result.corrections) == 1


def sched_qubit_node(sched: SwapSchedule, qubit: int) -> str:
    return sched.qubit_nodes[qubit]


class TestScheduleViolations:
    def test_double_creation(self):
        create = CreateBellPair("s", "t", 0, 1, 0)
        sched = SwapSchedule(
            instructions=(create, create),
            deliveries=(),
            qubit_nodes=("s", "t"),
        )
        with pytest.raises(ScheduleViolation):
            run_schedule(sched)

    def test_measurement_before_creation(self):
        sched = SwapSchedule(
            instructions=(BellMeasure("r", 0, 1, 0),),
            deliveries=(),
            qubit_nodes=("r", "r"),
        )
        with pytest.raises(ScheduleViolation):
            run_schedule(sched)

    def test_remeasurement(self):
        sched = SwapSchedule(
            instructions=(
                CreateBellPair("s", "r", 0, 1, 0),
                CreateBellPair("r", "t", 2, 3, 0),
                BellMeasure("r", 1, 2, 0),
                BellMeasure("r", 1, 2, 1),
            ),
            deliveries=(),
            qubit_nodes=("s", "r", "r", "t"),
        )
        with pytest.raises(ScheduleViolation):
            run_schedule(sched)

    def test_correction_with_unknown_source(self):
        sched = SwapSchedule(
            instructions=(
                CreateBellPair("s", "t", 0, 1, 0),
                PauliCorrect("t", 1, (7,)),
            ),
            deliveries=(),
            qubit_nodes=("s", "t"),
        )
        with pytest.raises(ScheduleViolation):
            run_schedule(sched)

    def test_qubit_outside_schedule(self):
        sched = SwapSchedule(
            instructions=(CreateBellPair("s", "t", 0, 2, 0),),
            deliveries=(),
            qubit_nodes=("s", "t"),
        )
        with pytest.raises(ScheduleViolation):
            run_schedule(sched)

    def test_delivery_of_measured_qubit(self):
        sched = SwapSchedule(
            instructions=(
                CreateBellPair("s", "r", 0, 1, 0),
                CreateBellPair("r", "t", 2, 3, 0),
                BellMeasure("r", 1, 2, 0),
            ),
            deliveries=(Delivery(0, 0, 1),),
            qubit_nodes=("s", "r", "r", "t"),
        )
        with pytest.raises(ScheduleViolation):
            run_schedule(sched)


@st.composite
def noisy_schedules(draw):
    """A ladder of 1-9 disjoint paths of 1-12 hops, or up to 9 pairs routed
    through a small grid, with random per-edge pair errors and swap noise."""
    copies = draw(st.integers(1, 9))
    if draw(st.booleans()):
        bundles = []
        for c in range(copies):
            hops = draw(st.integers(1, 12))
            path = ("s", *(f"p{c}_{j}" for j in range(1, hops)), "t")
            bundles.append(PathBundle(path=path, multiplicity=1))
        sched = build_swap_schedule(bundles)
    else:
        rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 4))
        node = lambda i, j: f"g{i}_{j}"
        cap = st.integers(1, 5)
        cost = st.integers(1, 3).map(lambda c: 1000 * c)
        edges = []
        for i in range(rows):
            edges.append(("s", node(i, 0), draw(cap), draw(cost)))
            edges.append((node(i, cols - 1), "t", draw(cap), draw(cost)))
            for j in range(cols):
                if j + 1 < cols:
                    edges.append((node(i, j), node(i, j + 1), draw(cap), draw(cost)))
                if i + 1 < rows:
                    edges.append((node(i, j), node(i + 1, j), draw(cap), draw(cost)))
        g = NetworkGraph.from_edge_list(edges, "s", "t")
        target = min(copies, min_cut(g))
        sched = build_swap_schedule(decompose_flow(min_cost_flow(g, target)))
    keys = sorted(
        {ins.edge for ins in sched.instructions if isinstance(ins, CreateBellPair)}
    )
    pair_error = {key: Fraction(draw(st.integers(0, 12)), 12) for key in keys}
    p = draw(st.sampled_from([Fraction(0), Fraction(1, 20), Fraction(1, 4), Fraction(1)]))
    return sched, NoiseModel(swap_depolarize_p=p, pair_error=pair_error)


class TestAgainstReferenceTableau:
    """The bit-packed per-copy simulator reproduces the joint int8 tableau
    of ``tests/oracles.py`` draw for draw."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_clifford_circuits_match(self, seed):
        # Long circuits: short ones rarely give a generator the Y patterns
        # on which the phase rules of the two tableaus could differ.
        n = 2 + seed % 4
        rnd = random.Random(seed)
        fast, ref = StabilizerState(n), ReferenceTableau(n)
        fast_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            name = rnd.choice(["h", "apply_x", "apply_y", "apply_z", "measure", "cnot"])
            if name == "cnot":
                control, target = rnd.sample(range(n), 2)
                fast.cnot(control, target)
                ref.cnot(control, target)
            elif name == "measure":
                q = rnd.randrange(n)
                assert fast.measure(q, fast_rng) == ref.measure(q, ref_rng)
            else:
                q = rnd.randrange(n)
                getattr(fast, name)(q)
                getattr(ref, name)(q)
        # Equal expectations on every Pauli: the two states are the same.
        for code in range(4**n):
            xs = [code >> (2 * q) & 1 for q in range(n)]
            zs = [code >> (2 * q + 1) & 1 for q in range(n)]
            assert fast.expectation(xs, zs) == ref.expectation(xs, zs)

    @given(noisy_schedules(), st.integers(0, 2**32), st.integers(1, 3))
    def test_runs_and_estimates_match(self, case, seed, trials):
        sched, noise = case
        assert run_schedule(sched, noise, seed=seed) == reference_run_schedule(
            sched, noise, seed=seed
        )
        assert fidelity_estimate(
            sched, noise, trials=trials, seed=seed
        ) == reference_fidelity_estimate(sched, noise, trials=trials, seed=seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_tableaus_follow_interactions_not_copy_labels(self, seed):
        # A relay whose two pairs claim different copies: the measurement
        # still ties them into one tableau.
        sched = SwapSchedule(
            instructions=(
                CreateBellPair("s", "r", 0, 1, 0),
                CreateBellPair("r", "t", 2, 3, 1),
                BellMeasure("r", 1, 2, 0),
                PauliCorrect("t", 3, (0,)),
            ),
            deliveries=(Delivery(0, 0, 3),),
            qubit_nodes=("s", "r", "r", "t"),
        )
        noise = NoiseModel(swap_depolarize_p=Fraction(1, 2))
        result = run_schedule(sched, noise, seed=seed)
        assert result == reference_run_schedule(sched, noise, seed=seed)


class TestExactErrors:
    def test_full_depolarizing_swap(self):
        noise = NoiseModel(swap_depolarize_p=1)
        assert exact_operation_error(RELAY, noise) == Fraction(3, 4)
        # Uniform Bell mixing is absorbing, so more swaps change nothing.
        assert exact_operation_error(THREE_HOP, noise) == Fraction(3, 4)

    def test_half_depolarizing_swap(self):
        noise = NoiseModel(swap_depolarize_p=Fraction(1, 2))
        assert exact_operation_error(RELAY, noise) == Fraction(3, 8)
        assert exact_operation_error(THREE_HOP, noise) == Fraction(9, 16)

    def test_noiseless_is_exact_zero(self):
        assert exact_operation_error(RELAY) == 0
        assert exact_trace_distance(THREE_HOP) == 0
        assert exact_pass_probability(SINGLE2) == 1

    def test_pair_noise_excluded_from_operation_error(self):
        noise = NoiseModel(pair_error={("s", "t"): Fraction(1, 10)})
        assert exact_operation_error(SINGLE2, noise) == 0
        assert exact_trace_distance(SINGLE2, noise) == 1 - Fraction(1369, 1600)

    def test_copies_multiply(self):
        noise = NoiseModel(pair_error={("s", "t"): Fraction(1, 10)})
        one = exact_pass_probability(SINGLE, noise)
        two = exact_pass_probability(SINGLE2, noise)
        assert one == Fraction(37, 40)
        assert two == one * one

    def test_saturating_noise_hits_budget_exactly(self):
        g = NetworkGraph.from_edge_list(
            [("s", "t", 3, 1000, Fraction(1, 20))], "s", "t"
        )
        noise = NoiseModel.from_graph(g)
        assert exact_trace_distance(SINGLE, noise) == Fraction(1, 20)

    def test_additive_bound_holds_on_grid(self):
        g = NetworkGraph.from_edge_list(
            [("r", "s", 1, 1000, Fraction(1, 100)), ("r", "t", 1, 1000, Fraction(1, 50))],
            "s",
            "t",
        )
        generation = generation_error_budget(g, [("r", "s"), ("r", "t")])
        for p in (Fraction(0), Fraction(1, 20), Fraction(1, 4), Fraction(1)):
            noise = NoiseModel.from_graph(g, swap_depolarize_p=p)
            budget = ErrorBudget(
                generation=generation,
                operation=exact_operation_error(RELAY, noise),
            )
            assert exact_trace_distance(RELAY, noise) <= budget.total

    def test_qubit_limit_enforced(self):
        big = build_swap_schedule([PathBundle(path=("s", "t"), multiplicity=7)])
        assert big.n_qubits == 14
        assert big.n_qubits > EXACT_QUBIT_LIMIT
        with pytest.raises(TooLarge):
            exact_operation_error(big)
        with pytest.raises(TooLarge):
            exact_trace_distance(big)

    def test_error_budget_totals(self):
        budget = ErrorBudget(generation=Fraction(1, 50), operation=Fraction(3, 8))
        assert budget.total == Fraction(1, 50) + Fraction(3, 8)


class TestMonteCarlo:
    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValidationError):
            fidelity_estimate(SINGLE, trials=0)

    def test_noiseless_estimate_is_one(self):
        est = fidelity_estimate(RELAY, trials=50, seed=4)
        assert est.all_pass_count == 50
        assert est.all_pass_rate == 1.0
        for pair in est.pairs:
            assert pair.estimate == 1.0

    def test_estimate_within_sampling_error_of_exact(self):
        noise = NoiseModel(swap_depolarize_p=1)
        est = fidelity_estimate(RELAY, noise, trials=2000, seed=0)
        exact = float(exact_pass_probability(RELAY, noise))
        sigma = math.sqrt(exact * (1 - exact) / 2000)
        assert abs(est.pairs[0].estimate - exact) <= 4 * sigma
        assert est.pairs[0].wilson_low <= est.pairs[0].estimate <= est.pairs[0].wilson_high

    def test_pair_noise_estimate_tracks_exact(self):
        noise = NoiseModel(pair_error={("s", "t"): Fraction(1, 10)})
        est = fidelity_estimate(SINGLE, noise, trials=2000, seed=1)
        exact = float(exact_pass_probability(SINGLE, noise))
        sigma = math.sqrt(exact * (1 - exact) / 2000)
        assert abs(est.all_pass_rate - exact) <= 4 * sigma

    def test_same_seed_reproduces(self):
        noise = NoiseModel(swap_depolarize_p=Fraction(1, 4))
        a = fidelity_estimate(RELAY, noise, trials=200, seed=11)
        b = fidelity_estimate(RELAY, noise, trials=200, seed=11)
        assert a == b

    def test_trials_are_independently_seeded(self):
        noise = NoiseModel(swap_depolarize_p=Fraction(1, 2))
        est = fidelity_estimate(RELAY, noise, trials=25, seed=6)
        manual = sum(
            run_schedule(RELAY, noise, seed=(6, t)).all_passed for t in range(25)
        )
        assert est.all_pass_count == manual

    def test_operation_error_estimator_strips_pair_noise(self):
        noise = NoiseModel(
            swap_depolarize_p=0, pair_error={("r", "s"): 1, ("r", "t"): 1}
        )
        assert estimate_operation_error(RELAY, noise, trials=40, seed=2) == 0.0

    def test_operation_error_estimator_tracks_exact(self):
        noise = NoiseModel(swap_depolarize_p=1)
        est = estimate_operation_error(RELAY, noise, trials=2000, seed=0)
        assert abs(est - 0.75) < 0.05


class TestWilsonInterval:
    def test_rejects_empty_sample(self):
        with pytest.raises(ValidationError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("successes,trials", [(0, 10), (3, 7), (37, 40), (10, 10), (500, 1000)])
    def test_matches_quadratic_roots(self, successes, trials):
        # The interval ends solve (1 + z^2/n) p^2 - (2q + z^2/n) p + q^2 = 0
        # for q = successes/n.
        z = WILSON_Z
        q = successes / trials
        roots = np.roots(
            [1 + z * z / trials, -(2 * q + z * z / trials), q * q]
        )
        lo_expected, hi_expected = sorted(float(r) for r in roots)
        lo, hi = wilson_interval(successes, trials)
        assert lo == pytest.approx(max(0.0, lo_expected), abs=1e-12)
        assert hi == pytest.approx(min(1.0, hi_expected), abs=1e-12)

    def test_degenerate_endpoints(self):
        lo, hi = wilson_interval(0, 25)
        assert lo == 0.0
        lo1, hi1 = wilson_interval(25, 25)
        assert hi1 == pytest.approx(1.0)

    @given(st.integers(1, 400), st.data())
    def test_interval_brackets_estimate(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0


class TestGenerationBudget:
    def test_sums_active_edges(self):
        g = NetworkGraph.from_edge_list(
            [
                ("s", "a", 1, 1000, Fraction(1, 1000)),
                ("a", "t", 1, 1000, Fraction(1, 1000)),
                ("s", "t", 1, 1000, Fraction(1, 1000)),
            ],
            "s",
            "t",
        )
        keys = [("a", "s"), ("a", "t"), ("s", "t")]
        assert generation_error_budget(g, keys) == Fraction(3, 1000)
        assert generation_error_budget(g, keys[:1]) == Fraction(1, 1000)
        assert generation_error_budget(g, []) == 0

    def test_unknown_edge_raises(self):
        g = NetworkGraph.from_edge_list([("s", "t", 1, 1000)], "s", "t")
        with pytest.raises(KeyError):
            generation_error_budget(g, [("s", "x")])

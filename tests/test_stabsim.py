"""Frame-plan simulator, noise model, exact-error machinery, and the
reference tableau that judges the simulator."""

import functools
import json
import math
import operator
import random
import re
import sys
import typing
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    SCHEDULE_MUTATIONS,
    ReferenceTableau,
    ReplayedDraws,
    StateVector,
    convolved_pass_probability,
    mutate_schedule,
    random_network,
    reference_plan_run,
    reference_run_schedule,
    tie_graphs,
)

from ebitflow import (
    EXACT_QUBIT_LIMIT,
    WILSON_Z,
    BellMeasure,
    CreateBellPair,
    Delivery,
    EbitflowError,
    ErrorBudget,
    HierarchicalNetwork,
    NetworkGraph,
    NoiseModel,
    ParseError,
    PathBundle,
    PauliCorrect,
    ScheduleViolation,
    SwapSchedule,
    TooLarge,
    ValidationError,
    aggregate_level,
    build_swap_schedule,
    decompose_flow,
    exact_figures,
    exact_operation_error,
    exact_pass_probability,
    exact_trace_distance,
    fidelity_estimate,
    generation_error_budget,
    load_network,
    min_cost_flow,
    min_cut,
    parse_schedule,
    run_schedule,
    serialize_schedule,
    wilson_interval,
)
from ebitflow import stabsim


SINGLE = build_swap_schedule([PathBundle(path=("s", "t"), multiplicity=1)])
SINGLE2 = build_swap_schedule([PathBundle(path=("s", "t"), multiplicity=2)])
RELAY = build_swap_schedule([PathBundle(path=("s", "r", "t"), multiplicity=1)])
THREE_HOP = build_swap_schedule([PathBundle(path=("s", "a", "b", "t"), multiplicity=1)])

CORRECTION_NAMES = {"I", "X", "Z", "XZ"}


def bell_state() -> ReferenceTableau:
    st_ = ReferenceTableau(2)
    st_.h(0)
    st_.cnot(0, 1)
    return st_


def no_draws() -> ReplayedDraws:
    """A draw source that any draw fails: the outcome must be determined."""
    return ReplayedDraws([])


class TestStabilizerState:
    """The reference tableau of ``tests/oracles.py``, which judges the
    frame plan. Paulis are given as X and Z parts per qubit."""

    def test_fresh_state_measures_zero(self):
        state = ReferenceTableau(3)
        for q in range(3):
            # Determined: stabilizer q is Z_q.
            assert state.measure(q, no_draws()) == 0

    def test_fresh_state_z_stabilizers(self):
        state = ReferenceTableau(2)
        assert state.expectation([0, 0], [1, 0]) == 1
        assert state.expectation([0, 0], [1, 1]) == 1
        # X on either qubit anticommutes with the Z stabilizers.
        assert state.expectation([1, 0], [0, 0]) == 0

    def test_x_gate_flips_z_sign(self):
        state = ReferenceTableau(1)
        state.apply_x(0)
        assert state.expectation([0], [1]) == -1

    def test_y_gate_flips_z_sign(self):
        state = ReferenceTableau(1)
        state.apply_y(0)
        assert state.expectation([0], [1]) == -1
        # H takes -Z to -X.
        state.h(0)
        assert state.expectation([1], [0]) == -1

    def test_hadamard_makes_plus_state(self):
        state = ReferenceTableau(1)
        state.h(0)
        assert state.expectation([1], [0]) == 1
        assert state.expectation([0], [1]) == 0

    def test_bell_pair_expectations(self):
        assert bell_state().pair_expectations(0, 1) == (1, 1)

    def test_bell_pair_measurements_correlate(self):
        # The first outcome is random and drawn; the second one follows it.
        for first in (0, 1):
            for flip in (0, 1):
                state = bell_state()
                if flip:
                    state.apply_x(1)
                draws = ReplayedDraws([("outcome", first)])
                assert state.measure(0, draws) == first
                assert draws.exhausted()
                assert state.measure(1, no_draws()) == first ^ flip

    def test_measurement_outcome_repeatable(self):
        state = bell_state()
        first = state.measure(0, ReplayedDraws([("outcome", 1)]))
        # Collapsed state: the same qubit keeps answering the same way.
        assert state.measure(0, no_draws()) == first
        state.apply_x(0)
        assert state.measure(0, no_draws()) == 1 - first

    def test_anticorrelated_pair_zz_negative(self):
        state = bell_state()
        state.apply_x(1)
        assert state.pair_expectations(0, 1) == (1, -1)


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

    @pytest.mark.parametrize("swap", [0, Fraction(1, 8), "1/50", 1])
    def test_from_graph_converts_each_figure_once(self, count_calls, swap):
        """``from_graph`` builds the model the checked constructor builds
        from its figures, and converts nothing but the swap noise again."""
        g = NetworkGraph.from_edge_list(
            [
                ("s", "a", 1, 0, Fraction(1, 100)),
                ("a", "t", 1, 0, Fraction(1, 100)),
                ("s", "b", 1, 0, Fraction(3, 4)),
                ("b", "t", 1, 0),
            ],
            "s",
            "t",
        )
        conversions = count_calls(stabsim, "as_fraction")
        nm = NoiseModel.from_graph(g, swap_depolarize_p=swap)
        assert conversions == [1]
        assert nm == NoiseModel(swap_depolarize_p=swap, pair_error=dict(nm.pair_error))
        assert nm.pair_error == {
            ("a", "s"): Fraction(1, 75),
            ("a", "t"): Fraction(1, 75),
            ("b", "s"): Fraction(1),
        }

    def test_from_graph_checks_the_swap_noise(self):
        g = NetworkGraph.from_edge_list([("s", "t", 1, 1000, Fraction(1, 20))], "s", "t")
        with pytest.raises(ValidationError, match="^swap_depolarize_p outside"):
            NoiseModel.from_graph(g, swap_depolarize_p=Fraction(3, 2))

    def test_from_graph_rejects_unreachable_budget(self):
        g = NetworkGraph.from_edge_list(
            [("s", "t", 1, 1000, Fraction(4, 5))], "s", "t"
        )
        with pytest.raises(ValidationError):
            NoiseModel.from_graph(g)

    def test_from_graph_names_the_first_unreachable_budget_in_edge_order(self):
        """Each distinct budget is checked once, and the error still names
        the first edge in edge order whose budget is above 3/4."""
        g = NetworkGraph.from_edge_list(
            [
                ("d", "s", 1, 0, Fraction(4, 5)),
                ("c", "s", 1, 0, Fraction(9, 10)),
                ("a", "s", 1, 0, Fraction(1, 10)),
                ("a", "t", 1, 0, Fraction(3, 4)),
                ("b", "s", 1, 0, Fraction(4, 5)),
            ],
            "s",
            "t",
        )
        with pytest.raises(ValidationError) as got:
            NoiseModel.from_graph(g)
        assert str(got.value) == (
            "edge ('b', 's'): generation error 4/5 above 3/4 "
            "cannot be realized as Bell-mixing noise"
        )

    def test_budget_of_three_quarters_saturates(self):
        g = NetworkGraph.from_edge_list(
            [("s", "t", 1, 0, Fraction(3, 4))], "s", "t"
        )
        assert NoiseModel.from_graph(g).pair_error == {("s", "t"): Fraction(1)}

    def test_equal_budgets_share_one_figure(self):
        doc = {
            "nodes": ["s", "a", "b", "t"],
            "source": "s",
            "sink": "t",
            "edges": [
                {"a": "s", "b": "a", "capacity": 1, "cost": 1, "delta": 0.001},
                {"a": "a", "b": "t", "capacity": 1, "cost": 1, "delta": "1/1000"},
                {"a": "s", "b": "b", "capacity": 1, "cost": 1, "delta": "2/2000"},
                {"a": "b", "b": "t", "capacity": 1, "cost": 1, "delta": "1/500"},
            ],
        }
        g = load_network(json.dumps(doc)).graph
        figures = NoiseModel.from_graph(g).pair_error
        assert figures[("a", "s")] is figures[("a", "t")] is figures[("b", "s")]
        assert figures[("a", "s")] == Fraction(4, 3000)
        assert figures[("b", "t")] == Fraction(8, 3000)
        raw = NoiseModel(
            pair_error={("a", "s"): 0.001, ("a", "t"): "1/1000", ("b", "s"): "2/2000"}
        ).pair_error
        assert raw[("a", "s")] is raw[("a", "t")] is raw[("b", "s")]
        assert raw[("a", "s")] == Fraction(1, 1000)

    @pytest.mark.parametrize(
        "value, error, message",
        [
            ("abc", ParseError, "pair_error[('a', 'c')]: not a valid rational: 'abc'"),
            (True, ParseError, "pair_error[('a', 'c')]: expected a number, got a boolean"),
            (None, ParseError, "pair_error[('a', 'c')]: expected a number, got NoneType"),
            ([1], ParseError, "pair_error[('a', 'c')]: expected a number, got list"),
            ("1/0", ParseError, "pair_error[('a', 'c')]: not a valid rational: '1/0'"),
            (math.nan, ParseError, "pair_error[('a', 'c')]: not a finite number: nan"),
            (Fraction(5, 4), ValidationError, "pair_error[('a', 'c')] outside [0, 1]"),
            (-0.5, ValidationError, "pair_error[('a', 'c')] outside [0, 1]"),
            (2, ValidationError, "pair_error[('a', 'c')] outside [0, 1]"),
            ("-1/3", ValidationError, "pair_error[('a', 'c')] outside [0, 1]"),
        ],
    )
    def test_pair_error_messages(self, value, error, message):
        """A bad value is named at its first key, also when a later key
        repeats it and an earlier one holds a valid figure."""
        with pytest.raises(error) as got:
            NoiseModel(
                pair_error={("a", "b"): "1/2", ("a", "c"): value, ("b", "c"): value}
            )
        assert type(got.value) is error
        assert str(got.value) == message


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
        with pytest.raises(ScheduleViolation, match="created twice"):
            run_schedule(sched)

    def test_measurement_before_creation(self):
        sched = SwapSchedule(
            instructions=(BellMeasure("r", 0, 1, 0),),
            deliveries=(),
            qubit_nodes=("r", "r"),
        )
        with pytest.raises(ScheduleViolation, match="measurement on qubit q0 before creation"):
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
        with pytest.raises(ScheduleViolation, match="measurement on already measured qubit q1"):
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
        with pytest.raises(ScheduleViolation, match="correction reads unknown outcome m7"):
            run_schedule(sched)

    def test_qubit_outside_schedule(self):
        sched = SwapSchedule(
            instructions=(CreateBellPair("s", "t", 0, 2, 0),),
            deliveries=(),
            qubit_nodes=("s", "t"),
        )
        with pytest.raises(ScheduleViolation, match="qubit q2 outside the schedule's 2 qubits"):
            run_schedule(sched)

    def test_bell_measurement_of_one_qubit(self):
        sched = SwapSchedule(
            instructions=(
                CreateBellPair("s", "r", 0, 1, 0),
                CreateBellPair("r", "t", 2, 3, 0),
                BellMeasure("r", 1, 1, 0),
            ),
            deliveries=(),
            qubit_nodes=("s", "r", "r", "t"),
        )
        with pytest.raises(ScheduleViolation, match="Bell measurement m0 on one qubit q1"):
            run_schedule(sched)

    def test_negative_seed(self):
        with pytest.raises(ValidationError):
            run_schedule(RELAY, seed=-1)
        with pytest.raises(ValidationError):
            run_schedule(RELAY, seed=(3, -1))
        with pytest.raises(ValidationError):
            fidelity_estimate(RELAY, trials=1, seed=-1)

    @pytest.mark.parametrize(
        "seed", [1.5, "3", True, (3, 1.5), (3, False)], ids=repr
    )
    def test_seed_that_is_not_an_int_is_a_validation_error(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run_schedule(RELAY, seed=seed)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            fidelity_estimate(RELAY, trials=1, seed=seed)

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
        with pytest.raises(
            ScheduleViolation, match="delivery check on already measured qubit q1"
        ):
            run_schedule(sched)

    def test_unknown_instruction(self):
        sched = SwapSchedule(
            instructions=(CreateBellPair("s", "t", 0, 1, 0), "swap everything"),
            deliveries=(),
            qubit_nodes=("s", "t"),
        )
        with pytest.raises(ScheduleViolation, match="unknown instruction 'swap everything'"):
            run_schedule(sched)

    def test_whole_schedule_is_checked_before_any_tableau(self, monkeypatch):
        """A fault in the last delivery is found before anything is drawn,
        so a bad schedule costs no sampling."""
        bundles = [PathBundle(path=("s", "a", "b", "t"), multiplicity=2)]
        good = build_swap_schedule(bundles)
        measured = next(ins for ins in good.instructions if isinstance(ins, BellMeasure))
        bad = SwapSchedule(
            instructions=good.instructions,
            deliveries=(
                *good.deliveries[:-1],
                Delivery(1, good.deliveries[-1].source_qubit, measured.qubit_left),
            ),
            qubit_nodes=good.qubit_nodes,
        )
        draws = 0
        draw = stabsim._draw

        def counted_draw(*args):
            nonlocal draws
            draws += 1
            return draw(*args)

        monkeypatch.setattr(stabsim, "_draw", counted_draw)
        message = f"delivery check on already measured qubit q{measured.qubit_left}"
        with pytest.raises(ScheduleViolation, match=message):
            run_schedule(bad)
        with pytest.raises(ScheduleViolation, match=message):
            fidelity_estimate(bad, trials=10)
        assert draws == 0
        run_schedule(good)
        assert draws == 1


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


# True about one draw in six.
rarely = st.integers(0, 5).map(lambda n: n == 3)


@st.composite
def hand_built_schedules(draw):
    """1-7 pairs interleaved with Bell measurements and corrections on random
    live qubits, then deliveries on random live qubits. Corrections read
    random earlier outcomes, and a delivery checks a qubit against its
    entangled partner (stabilized, though its frame need not cancel), a
    random qubit or itself. So the outcomes reach the checks, which
    ``build_swap_schedule`` never lets them do."""
    n_pairs = draw(st.integers(1, 7))
    created = 0
    live: list[int] = []
    # The qubit each live qubit shares a Bell pair with in the noiseless
    # run, where every random outcome is 0 and no correction fires.
    partner: dict[int, int] = {}
    indices: list[int] = []
    instructions = []
    for _ in range(draw(st.integers(n_pairs, 3 * n_pairs + 2))):
        kinds = ["create"] * (created < n_pairs)
        # A qubit stays live for the deliveries.
        if len(live) >= 3:
            kinds.append("measure")
        if live and indices:
            kinds.append("correct")
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "create":
            a, b = 2 * created, 2 * created + 1
            instructions.append(CreateBellPair(f"u{created}", f"v{created}", a, b, created))
            live += [a, b]
            partner.update({a: b, b: a})
            created += 1
        elif kind == "measure":
            a, b = draw(st.lists(st.sampled_from(live), min_size=2, max_size=2, unique=True))
            live.remove(a)
            live.remove(b)
            pa, pb = partner.pop(a), partner.pop(b)
            if pa != b:
                partner.update({pa: pb, pb: pa})
            # Now and then an index is measured again and overwrites its outcome.
            index = draw(st.sampled_from(indices)) if indices and draw(rarely) else len(indices)
            indices.append(index)
            instructions.append(BellMeasure("r", a, b, index))
        else:
            q = draw(st.sampled_from(live))
            sources = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=3))
            instructions.append(PauliCorrect("r", q, tuple(sources)))
    deliveries = []
    for c in range(draw(st.integers(1, 3))):
        q = draw(st.sampled_from(live))
        other = draw(st.sampled_from([partner[q], partner[q], q, *live]))
        deliveries.append(Delivery(c, q, other))
    sched = SwapSchedule(
        instructions=tuple(instructions),
        deliveries=tuple(deliveries),
        qubit_nodes=tuple("r" for _ in range(2 * n_pairs)),
    )
    pair_error = {
        (f"u{i}", f"v{i}"): Fraction(draw(st.integers(0, 4)), 4) for i in range(created)
    }
    p = draw(st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1)]))
    return sched, NoiseModel(swap_depolarize_p=p, pair_error=pair_error)


class TestClosedFormExact:
    """The closed-form pass probability equals the XOR convolution of
    per-site Bell-label distributions in ``tests/oracles.py`` exactly. The
    package gets the noise model with the excluded sites stripped, the
    oracle the full model and its flags."""

    @given(noisy_schedules(), st.booleans(), st.booleans())
    def test_matches_convolution(self, case, pair, swap):
        sched, noise = case
        stripped = NoiseModel(
            swap_depolarize_p=noise.swap_depolarize_p if swap else 0,
            pair_error=noise.pair_error if pair else {},
        )
        assert exact_pass_probability(sched, stripped) == convolved_pass_probability(
            sched, noise, include_pair_error=pair, include_swap_error=swap
        )


# The noise figures of ``flow_bundles``.
BUNDLE_NOISE = st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1)])


@st.composite
def flow_bundles(draw):
    """The path bundles of a minimum-cost flow at a random positive target
    (0 at a cut of 0) on a random network, a tie graph or a ladder of 1-4
    parallel paths of capacity 1-4, with pair noise per edge and swap noise
    from ``BUNDLE_NOISE``. Capacities above 1 give multiplicities above 1."""
    kind = draw(st.sampled_from(["random", "ties", "ladder"]))
    if kind == "random":
        rnd = draw(st.randoms(use_true_random=False))
        g = random_network(rnd, max_nodes=8, max_cap=4, max_cost_units=2)
    elif kind == "ties":
        g = draw(tie_graphs())
    else:
        edges = []
        for c in range(draw(st.integers(1, 4))):
            # Only the first path may be the one-hop edge s-t.
            hops = draw(st.integers(1 if c == 0 else 2, 6))
            path = ("s", *(f"p{c}_{j}" for j in range(1, hops)), "t")
            cap = draw(st.integers(1, 4))
            edges += [(a, b, cap, 1000) for a, b in zip(path, path[1:])]
        g = NetworkGraph.from_edge_list(edges, "s", "t")
    cut = min_cut(g)
    bundles = decompose_flow(min_cost_flow(g, draw(st.integers(min(1, cut), cut))))
    pair_error = {e.key: draw(BUNDLE_NOISE) for e in g.edges}
    return bundles, NoiseModel(swap_depolarize_p=draw(BUNDLE_NOISE), pair_error=pair_error)


def keep_pair(p: Fraction) -> tuple[int, int]:
    """The closed-form core's int pair ``(den - num, den)`` of ``1 - p``."""
    return p.denominator - p.numerator, p.denominator


class TestBundleClosedForm:
    """The closed-form core over one group per path bundle, ``(keep,
    multiplicity)`` with ``keep`` the int pairs of the ``1 - q`` of each of
    a copy's path edges and of the ``1 - p`` of each of its ``hops - 1``
    swaps, equals the XOR convolution of ``tests/oracles.py`` over every
    copy of the bundles' swap schedule, with the flags of
    ``TestClosedFormExact``."""

    @given(flow_bundles(), st.booleans(), st.booleans())
    def test_matches_convolution_of_the_schedule(self, case, pair, swap):
        bundles, noise = case
        groups = []
        for b in bundles:
            keep = [keep_pair(noise.pair_error[edge]) for edge in b.edges()] if pair else []
            if swap:
                keep += [keep_pair(noise.swap_depolarize_p)] * (b.hops - 1)
            groups.append((keep, b.multiplicity))
        assert stabsim._pass_probability(groups) == convolved_pass_probability(
            build_swap_schedule(bundles), noise, include_pair_error=pair, include_swap_error=swap
        )


class ZeroDraws:
    """Draw source of the reference run with every draw 0: each noise site
    misses and each random outcome is 0."""

    def hit(self) -> bool:
        return False

    def outcome(self) -> int:
        return 0


def sampled_block(sched, noise, seed, lanes):
    """The frame plan of ``sched`` and the lane ints that block 0 of
    ``seed`` draws for it with ``lanes`` lanes."""
    plan = stabsim._plan(sched, noise)
    key = stabsim._block_key(stabsim._entropy_words(seed), 0)
    return plan, stabsim._draw(plan.steps, key, lanes)


def lane_draws(plan, values, lane) -> ReplayedDraws:
    """The decisions of trial ``lane`` of a sampled block, ``values`` the
    lane ints of ``stabsim._draw`` over ``plan.steps``, for the reference
    run. A noise site's variables are the X and Z part of each qubit's
    Pauli in turn; the site is a hit where any of them is set, since a hit
    whose Paulis are all the identity acts as a miss."""
    decisions, var = [], 0
    for step in plan.steps:
        count = step[-1]
        bits = [values[v] >> lane & 1 for v in range(var, var + count)]
        var += count
        if step == stabsim._OUTCOME:
            decisions.append(("outcome", bits[0]))
        elif any(bits):
            decisions.append(("site", tuple(x | z << 1 for x, z in zip(bits[::2], bits[1::2]))))
        else:
            decisions.append(("site", None))
    return ReplayedDraws(decisions)


def reference_lane0(sched, noise, seed):
    """The reference run fed the draws of ``run_schedule(sched, noise,
    seed=seed)``: lane 0 of a one-lane block."""
    draws = lane_draws(*sampled_block(sched, noise, seed, 1), 0)
    result = reference_run_schedule(sched, noise, draws)
    assert draws.exhausted()
    return result


def assert_runs_match_reference(sched, noise, seed, trials):
    """``run_schedule`` equals the reference run fed its draws, and every
    lane of a ``trials``-lane block fails the checks that the reference
    run fed that lane's draws fails, so the estimate counts its passes."""
    assert run_schedule(sched, noise, seed=seed) == reference_lane0(sched, noise, seed)
    plan, values = sampled_block(sched, noise, seed, trials)
    failing = stabsim._failing(plan.checks, values, trials)
    refs = [
        reference_run_schedule(sched, noise, lane_draws(plan, values, lane))
        for lane in range(trials)
    ]
    for lane, ref in enumerate(refs):
        assert [not pair.passed for pair in ref.pairs] == [
            bool(fail >> lane & 1) for fail in failing
        ]
    est = fidelity_estimate(sched, noise, trials=trials, seed=seed)
    assert est.trials == trials
    assert [pair.passes for pair in est.pairs] == [
        sum(ref.pairs[i].passed for ref in refs) for i in range(len(sched.deliveries))
    ]
    assert est.all_pass_count == sum(ref.all_passed for ref in refs)


class TestAgainstReferenceTableau:
    """The frame plan and its bit-lane sampler reproduce the joint int8
    tableau of ``tests/oracles.py``, fed the same draws, and that tableau
    reproduces a dense state vector."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_clifford_circuits_match(self, seed):
        # Long circuits: short ones rarely give a generator the Y patterns
        # on which the tableau's phase rules could go wrong.
        n = 2 + seed % 4
        rnd = random.Random(seed)
        dense, ref = StateVector(n), ReferenceTableau(n)
        for _ in range(200):
            name = rnd.choice(["h", "apply_x", "apply_y", "apply_z", "measure", "cnot"])
            if name == "cnot":
                control, target = rnd.sample(range(n), 2)
                dense.cnot(control, target)
                ref.cnot(control, target)
            elif name == "measure":
                q = rnd.randrange(n)
                assert dense.measure(q, ZeroDraws()) == ref.measure(q, ZeroDraws())
            else:
                q = rnd.randrange(n)
                getattr(dense, name)(q)
                getattr(ref, name)(q)
        # Equal expectations on every Pauli: the two states are the same.
        for code in range(4**n):
            xs = [code >> (2 * q) & 1 for q in range(n)]
            zs = [code >> (2 * q + 1) & 1 for q in range(n)]
            assert dense.expectation(xs, zs) == ref.expectation(xs, zs)

    @settings(derandomize=True, max_examples=200)
    @given(hand_built_schedules())
    def test_noiseless_run_reads_no_minus_sign(self, case):
        """With every draw 0 the run measures every outcome 0, applies no
        correction and reads every check +1, or 0 where the two qubits
        share no pair: a frame plan needs no reference values."""
        sched, noise = case
        run = reference_run_schedule(sched, noise, ZeroDraws())
        assert set(run.outcomes) <= {(0, 0)}
        assert {name for _, name in run.corrections} <= {"I"}
        for pair in run.pairs:
            assert pair.xx_sign == pair.zz_sign
            assert pair.xx_sign in (1, 0)

    @given(noisy_schedules(), st.integers(0, 2**32), st.integers(1, 3))
    def test_runs_and_estimates_match(self, case, seed, trials):
        assert_runs_match_reference(*case, seed, trials)

    @settings(derandomize=True, max_examples=400)
    @given(hand_built_schedules(), st.integers(0, 2**32), st.integers(1, 3))
    def test_hand_built_runs_and_estimates_match(self, case, seed, trials):
        assert_runs_match_reference(*case, seed, trials)

    @pytest.mark.parametrize("seed", range(6))
    def test_tableaus_follow_interactions_not_copy_labels(self, seed):
        # A relay whose two pairs claim different copies: the measurement
        # still joins them into one pair.
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
        assert run_schedule(sched, noise, seed=seed) == reference_lane0(sched, noise, seed)


def schedule_operation_error(path, copies, p):
    """``exact_operation_error`` on ``copies`` copies of ``path`` at swap
    noise ``p``."""
    sched = build_swap_schedule([PathBundle(path=path, multiplicity=copies)])
    return exact_operation_error(sched, NoiseModel(swap_depolarize_p=p))


def aggregate_operation_error(path, copies, p):
    """The operation error of ``aggregate_level`` at target ``copies`` on
    the chain ``path`` of capacity ``copies``, at swap noise ``p``."""
    g = NetworkGraph.from_edge_list(
        [(a, b, copies, 1000) for a, b in zip(path, path[1:])], path[0], path[-1]
    )
    net = HierarchicalNetwork.from_graph(g)
    return aggregate_level(net, copies, swap_depolarize_p=p).budget.operation


# (hops, copies, writable) of the refusal cases below.
REFUSAL_CASES = [(3, 1, True), (3, 5, True), (3, 6, False), (11, 1, True), (12, 1, False)]


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

    def test_exact_beyond_the_simulate_limit(self):
        # ``EXACT_QUBIT_LIMIT`` bounds only what ``simulate`` reports.
        big = build_swap_schedule([PathBundle(path=("s", "t"), multiplicity=7)])
        assert big.n_qubits == 14 > EXACT_QUBIT_LIMIT
        assert exact_operation_error(big) == 0
        assert exact_trace_distance(big) == 0
        chains = build_swap_schedule(
            [PathBundle(path=("s", "a", "b", "t"), multiplicity=3)]
        )
        assert chains.n_qubits == 18
        noise = NoiseModel(
            swap_depolarize_p=Fraction(1, 2), pair_error={("a", "b"): Fraction(1, 3)}
        )
        # Per copy P is (1/2)**2 for the swaps alone, passing with 7/16, and
        # (1/2)**2 * (2/3) with the pair noise, passing with 3/8.
        assert exact_operation_error(chains, noise) == 1 - Fraction(7, 16) ** 3
        assert exact_trace_distance(chains, noise) == 1 - Fraction(3, 8) ** 3

    @pytest.mark.parametrize(
        ("hops", "copies", "writable", "operation_error"),
        [
            pytest.param(*case, figure, id="-".join(map(str, case)) + suffix)
            for figure, suffix in (
                (schedule_operation_error, ""),
                (aggregate_operation_error, "-aggregate"),
            )
            for case in REFUSAL_CASES
        ],
    )
    def test_refuses_exactly_the_figures_too_long_to_write(
        self, hops, copies, writable, operation_error
    ):
        # Each swap multiplies the denominator by 10**399 + 7 (1326 bits),
        # and Python writes ints of up to 4300 digits by default (about
        # 14 284 bits).
        p = Fraction(1, 10**399 + 7)
        path = ("s", *(f"r{i}" for i in range(hops - 1)), "t")
        closed_form = 1 - ((3 * (1 - p) ** (hops - 1) + 1) / 4) ** copies
        if writable:
            assert operation_error(path, copies, p) == closed_form
            assert str(closed_form)
        else:
            with pytest.raises(TooLarge, match="more digits than Python writes"):
                operation_error(path, copies, p)
            with pytest.raises(ValueError):
                str(closed_form)

    def test_error_budget_totals(self):
        budget = ErrorBudget(generation=Fraction(1, 50), operation=Fraction(3, 8))
        assert budget.total == Fraction(1, 50) + Fraction(3, 8)


# Hand-written schedules on which the exact figures once read the schedule
# apart from the frame plan: a relay chain s-r-t, the same chain with no
# correction, with a pair that is never delivered, with a delivery of the
# measured relay qubit, and with its two pairs labelled as two copies.
CHAIN_TEXT = """\
pair q0@s q1@r copy 0
pair q2@r q3@t copy 0
swap r q1 q2 -> m0
fix t q3 m0
deliver copy 0 q0 q3
"""
CHAIN_NO_FIX = CHAIN_TEXT.replace("fix t q3 m0\n", "")
CHAIN_IDLE_PAIR = CHAIN_TEXT.replace("swap", "pair q4@s q5@r copy 1\nswap")
CHAIN_MEASURED = CHAIN_TEXT.replace("deliver copy 0 q0 q3", "deliver copy 0 q0 q1")
CHAIN_TWO_COPIES = CHAIN_TEXT.replace("q3@t copy 0", "q3@t copy 1")
HAND_NOISE = NoiseModel(
    swap_depolarize_p=Fraction(1, 5),
    pair_error={("r", "s"): Fraction(1, 4), ("r", "t"): Fraction(1, 10)},
)
EXACT_FIGURES = (exact_pass_probability, exact_operation_error, exact_trace_distance)


def assert_exact_is_the_estimate(sched, noise, trials, seed=1):
    """``exact_pass_probability`` is within 4 sigma of the all-pass rate of
    ``trials`` trials, and equal to it where it is 0 or 1."""
    exact = exact_pass_probability(sched, noise)
    rate = fidelity_estimate(sched, noise, trials=trials, seed=seed).all_pass_rate
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(rate - exact) <= 4 * sigma, (exact, rate)


class TestExactFromThePlan:
    """Exact figures are read off the frame plan that ``fidelity_estimate``
    samples, so on schedules that ``parse_schedule`` reads the two never
    disagree: the exact figure is within 4 sigma of the estimate, or the
    schedule is refused."""

    def test_uncorrected_outcome_is_refused(self):
        sched = parse_schedule(CHAIN_NO_FIX)
        for figure in EXACT_FIGURES:
            with pytest.raises(ScheduleViolation, match="XX and ZZ read different draws"):
                figure(sched)
        # The delivered pair is a uniformly random Bell state.
        rate = fidelity_estimate(sched, trials=200_000, seed=1).all_pass_rate
        assert abs(rate - 1 / 4) <= 4 * math.sqrt(3 / 16 / 200_000)

    def test_pair_never_delivered_is_not_read(self):
        sched = parse_schedule(CHAIN_IDLE_PAIR)
        # P = (3/4)(9/10)(4/5) over the chain's two pairs and its swap.
        assert exact_pass_probability(sched, HAND_NOISE) == Fraction(131, 200)
        assert exact_operation_error(sched, HAND_NOISE) == Fraction(3, 20)
        assert_exact_is_the_estimate(sched, HAND_NOISE, 200_000)

    def test_delivery_of_a_measured_qubit_raises_as_the_estimate(self):
        sched = parse_schedule(CHAIN_MEASURED)
        for figure in (fidelity_estimate, *EXACT_FIGURES):
            with pytest.raises(
                ScheduleViolation, match="^delivery check on already measured qubit q1$"
            ):
                figure(sched, HAND_NOISE)

    def test_copy_labels_are_not_read(self):
        sched = parse_schedule(CHAIN_TWO_COPIES)
        assert exact_pass_probability(sched) == 1
        assert fidelity_estimate(sched, trials=200_000, seed=1).all_pass_rate == 1
        assert exact_pass_probability(sched, HAND_NOISE) == exact_pass_probability(
            parse_schedule(CHAIN_TEXT), HAND_NOISE
        )

    def test_deliveries_sharing_a_site_are_refused(self):
        sched = parse_schedule(CHAIN_TEXT + "deliver copy 0 q0 q3\n")
        with pytest.raises(ScheduleViolation, match="reads a noise site read before"):
            exact_pass_probability(sched, HAND_NOISE)
        # Noiseless, the two checks read no site and both pass.
        assert exact_pass_probability(sched) == 1

    def test_delivery_of_two_qubits_sharing_no_pair_never_passes(self):
        sched = parse_schedule(CHAIN_TEXT.replace("q0 q3", "q0 q0"))
        assert exact_pass_probability(sched, HAND_NOISE) == 0
        assert fidelity_estimate(sched, HAND_NOISE, trials=50).all_pass_count == 0


# Pair and swap noise figures of ``mutated_schedules``.
MUTATED_NOISE = st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 4)])


@st.composite
def mutated_schedules(draw):
    """``serialize_schedule`` text of 1-3 path bundles of 1-4 hops and
    multiplicity 1-2, with one or two faults of ``mutate_schedule`` written
    in, read back by ``parse_schedule``; pair and swap noise from
    ``MUTATED_NOISE``."""
    bundles = []
    for c in range(draw(st.integers(1, 3))):
        hops = draw(st.integers(1, 4))
        path = ("s", *(f"p{c}_{j}" for j in range(1, hops)), "t")
        bundles.append(PathBundle(path=path, multiplicity=draw(st.integers(1, 2))))
    text = serialize_schedule(build_swap_schedule(bundles))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(sorted(SCHEDULE_MUTATIONS)))
        text = mutate_schedule(text, kind, draw(st.integers(0, 5)))
    pair_error = {key: draw(MUTATED_NOISE) for b in bundles for key in b.edges()}
    noise = NoiseModel(swap_depolarize_p=draw(MUTATED_NOISE), pair_error=pair_error)
    return parse_schedule(text), noise


class TestExactOnFaultySchedules:
    """Wherever ``exact_pass_probability`` gives a figure it is within 4
    sigma of the estimate at 20 000 trials; elsewhere it raises
    ``ScheduleViolation``. Derandomized, so each run checks the same
    schedules at the same seeds."""

    @settings(derandomize=True)
    @given(mutated_schedules())
    def test_mutated_schedules(self, case):
        sched, noise = case
        try:
            exact_pass_probability(sched, noise)
        except ScheduleViolation:
            return
        assert_exact_is_the_estimate(sched, noise, 20_000, seed=3)

    @settings(derandomize=True)
    @given(hand_built_schedules())
    def test_hand_built_schedules(self, case):
        sched, noise = case
        try:
            exact_pass_probability(sched, noise)
        except ScheduleViolation:
            return
        assert_exact_is_the_estimate(sched, noise, 20_000, seed=5)


class TestMaskReader:
    """``stabsim._variables`` is the one walk over a mask's set bits, and
    every reader of a plan mask goes through it."""

    @given(
        st.one_of(
            st.integers(0, 2**300),
            st.sets(st.integers(0, 5000), max_size=40).map(
                lambda vs: sum(1 << v for v in vs)
            ),
        )
    )
    def test_variables_are_the_set_bits(self, mask):
        assert stabsim._variables(mask) == [
            v for v in range(mask.bit_length()) if mask >> v & 1
        ]

    @settings(derandomize=True, max_examples=300)
    @given(
        st.one_of(noisy_schedules(), hand_built_schedules(), mutated_schedules()),
        st.integers(0, 2**32),
    )
    def test_runs_match_packed_parity(self, case, seed):
        """Signs, outcomes and fixes of ``run_schedule`` equal the packed-int
        ``bit_count`` parity of the same plan and one-lane draws; a schedule
        the plan refuses is refused by the run alike."""
        sched, noise = case
        try:
            plan, values = sampled_block(sched, noise, seed, 1)
        except ScheduleViolation as exc:
            with pytest.raises(ScheduleViolation, match=re.escape(str(exc))):
                run_schedule(sched, noise, seed=seed)
            return
        assert run_schedule(sched, noise, seed=seed) == reference_plan_run(
            sched, plan, values
        )


def figure_or_fault(figure, sched, noise):
    """``figure(sched, noise)``, or the type and message of the error it
    raises."""
    try:
        return figure(sched, noise)
    except EbitflowError as exc:
        return type(exc), str(exc)


class TestExactFigures:
    """``exact_figures`` reads both exact figures off one plan: it equals
    ``exact_pass_probability`` and ``exact_operation_error``, and refuses
    as the first of them does."""

    @given(flow_bundles(), st.booleans(), st.booleans())
    def test_equals_the_two_figures_on_flow_schedules(self, case, pair, swap):
        bundles, noise = case
        noise = NoiseModel(
            swap_depolarize_p=noise.swap_depolarize_p if swap else 0,
            pair_error=noise.pair_error if pair else {},
        )
        sched = build_swap_schedule(bundles)
        assert exact_figures(sched, noise) == (
            exact_pass_probability(sched, noise),
            exact_operation_error(sched, noise),
        )

    @settings(derandomize=True)
    @given(st.one_of(mutated_schedules(), hand_built_schedules()))
    def test_faulty_schedules_raise_as_the_pass_probability(self, case):
        sched, noise = case
        figures = figure_or_fault(exact_figures, sched, noise)
        passing = figure_or_fault(exact_pass_probability, sched, noise)
        if isinstance(passing, Fraction):
            # A plan with pair sites that has a figure has one without them.
            assert figures == (passing, exact_operation_error(sched, noise))
        else:
            assert figures == passing

    def test_a_delivery_sharing_no_pair_never_passes(self):
        sched = parse_schedule(CHAIN_TEXT.replace("q0 q3", "q0 q0"))
        assert exact_figures(sched, HAND_NOISE) == (0, 1)
        assert exact_operation_error(sched, HAND_NOISE) == 1

    def test_interpreter_without_a_digit_limit(self, monkeypatch):
        # Python before 3.10.7 writes ints of any length and has no
        # sys.get_int_max_str_digits.
        sched = ladder(2, 3)
        keys = {ins.edge for ins in sched.instructions if isinstance(ins, CreateBellPair)}
        noise = NoiseModel(
            swap_depolarize_p=Fraction(1, 50), pair_error=dict.fromkeys(keys, Fraction(2, 75))
        )
        expected = exact_figures(sched, noise)
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert exact_figures(sched, noise) == expected
        assert 0 < expected[0] < 1


class TestMonteCarlo:
    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValidationError):
            fidelity_estimate(SINGLE, trials=0)

    @pytest.mark.parametrize("trials", [2.0, "3", True, None], ids=repr)
    def test_trials_that_is_not_an_int_is_a_validation_error(self, trials):
        with pytest.raises(ValidationError, match="trials must be an integer"):
            fidelity_estimate(SINGLE, trials=trials)

    def test_numpy_integers_are_accepted(self):
        assert fidelity_estimate(
            RELAY, trials=np.int64(3), seed=np.int64(5)
        ) == fidelity_estimate(RELAY, trials=3, seed=5)
        assert run_schedule(RELAY, seed=np.array([5, 2])) == run_schedule(
            RELAY, seed=(5, 2)
        )

    @pytest.mark.parametrize(
        "seed",
        [np.array(5), [np.array(5)], (1, np.array(2)), b"ab", bytearray(b"ab")],
        ids=repr,
    )
    def test_zero_dimensional_array_seed_is_a_validation_error(self, seed):
        with pytest.raises(TypeError):
            np.random.default_rng(seed)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run_schedule(RELAY, seed=seed)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            fidelity_estimate(RELAY, trials=1, seed=seed)

    @pytest.mark.parametrize(
        "make_seed",
        [lambda: iter([5, 2]), lambda: (s for s in (5, 2)), lambda: {5, 2}],
        ids=["iterator", "generator", "set"],
    )
    def test_one_shot_or_unordered_seed_is_a_validation_error(self, make_seed):
        # Such a seed is refused, not consumed: reading an iterator once to
        # check it used to leave it empty, so the run drew as ``seed=()``.
        with pytest.raises(TypeError):
            np.random.default_rng(make_seed())
        noise = NoiseModel(swap_depolarize_p=Fraction(1, 2))
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run_schedule(RELAY, noise, seed=make_seed())
        with pytest.raises(ValidationError, match="seed must be an integer"):
            fidelity_estimate(RELAY, noise, trials=1, seed=make_seed())

    @pytest.mark.parametrize(
        "seed",
        [range(3), (1, (2, 3)), [np.int64(4), [5]], np.array([[1, 2], [3, 4]]), ()],
        ids=repr,
    )
    def test_sequence_seeds_run_as_the_reference(self, seed):
        noise = NoiseModel(swap_depolarize_p=Fraction(1, 2))
        assert run_schedule(THREE_HOP, noise, seed=seed) == reference_lane0(
            THREE_HOP, noise, seed
        )

    def test_seed_nested_past_the_recursion_limit_is_a_validation_error(self):
        seed = 5
        for _ in range(3000):
            seed = [seed]
        with pytest.raises(ValidationError, match="seed nested too deep"):
            fidelity_estimate(RELAY, trials=1, seed=seed)
        with pytest.raises(ValidationError, match="seed nested too deep"):
            run_schedule(RELAY, seed=seed)

    def test_negative_entropy_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            stabsim._entropy_words((1, -1))

    def test_annotations_resolve(self):
        assert typing.get_type_hints(stabsim._plan)["return"] is stabsim._Plan
        assert typing.get_type_hints(stabsim._draw)["return"] == list[int]
        seed = int | Sequence[int]
        for fn in (run_schedule, fidelity_estimate):
            assert typing.get_type_hints(fn)["seed"] == seed

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
        """A block's generator is keyed by the seed and its index alone: the
        estimate is the sum of its blocks run apart, and a one-trial
        estimate is the run of ``run_schedule`` with the same seed."""
        noise = NoiseModel(swap_depolarize_p=Fraction(1, 4))
        plan = stabsim._plan(RELAY, noise)
        words = stabsim._entropy_words(3)

        def block_counts(block, lanes):
            key = stabsim._block_key(words, block)
            failing = stabsim._failing(plan.checks, stabsim._draw(plan.steps, key, lanes), lanes)
            failed = functools.reduce(operator.or_, failing)
            return [lanes - fail.bit_count() for fail in failing], lanes - failed.bit_count()

        first = block_counts(0, stabsim._SEED_BLOCK)
        second = block_counts(1, 5)
        est = fidelity_estimate(RELAY, noise, trials=stabsim._SEED_BLOCK + 5, seed=3)
        assert [pair.passes for pair in est.pairs] == [
            a + b for a, b in zip(first[0], second[0])
        ]
        assert est.all_pass_count == first[1] + second[1]
        # The first block run apart is the estimate over its trials alone.
        alone = fidelity_estimate(RELAY, noise, trials=stabsim._SEED_BLOCK, seed=3)
        assert ([pair.passes for pair in alone.pairs], alone.all_pass_count) == first
        for seed in range(25):
            one = fidelity_estimate(RELAY, noise, trials=1, seed=(6, seed))
            assert one.all_pass_count == run_schedule(RELAY, noise, seed=(6, seed)).all_passed

    def test_tableau_runs_once_per_call_not_per_trial(self, monkeypatch):
        """An estimate plans the schedule once, whatever the trial count.
        Counts calls; no timing is involved."""
        bundles = [
            PathBundle(path=("s", *(f"p{c}_{j}" for j in range(1, 6)), "t"), multiplicity=1)
            for c in range(4)
        ]
        sched = build_swap_schedule(bundles)
        assert sched.n_qubits == 48
        keys = {ins.edge for ins in sched.instructions if isinstance(ins, CreateBellPair)}
        noise = NoiseModel(
            swap_depolarize_p=Fraction(1, 20),
            pair_error=dict.fromkeys(keys, Fraction(1, 10)),
        )
        calls = 0
        plan = stabsim._plan

        def counted_plan(*args):
            nonlocal calls
            calls += 1
            return plan(*args)

        monkeypatch.setattr(stabsim, "_plan", counted_plan)
        for trials in (1, 500):
            calls = 0
            est = fidelity_estimate(sched, noise, trials=trials, seed=3)
            # The noise is live: some of the 500 trials fail.
            assert trials == 1 or est.all_pass_count < trials
            assert calls == 1


class TestBatchedSeeding:
    """Trials drawn in blocks of ``_SEED_BLOCK`` bit lanes."""

    def test_estimate_across_blocks_matches_reference(self):
        """Every trial of both blocks of a two-block estimate passes where
        the reference tableau, fed that trial's draws, passes."""
        noise = NoiseModel(swap_depolarize_p=Fraction(1, 4))
        plan = stabsim._plan(RELAY, noise)
        words = stabsim._entropy_words(3)
        refs = []
        for block, lanes in ((0, stabsim._SEED_BLOCK), (1, 5)):
            values = stabsim._draw(plan.steps, stabsim._block_key(words, block), lanes)
            refs += [
                reference_run_schedule(RELAY, noise, lane_draws(plan, values, lane))
                for lane in range(lanes)
            ]
        est = fidelity_estimate(RELAY, noise, trials=len(refs), seed=3)
        assert [pair.passes for pair in est.pairs] == [
            sum(ref.pairs[i].passed for ref in refs) for i in range(len(RELAY.deliveries))
        ]
        assert est.all_pass_count == sum(ref.all_passed for ref in refs)


def ladder(copies: int, hops: int) -> SwapSchedule:
    """``copies`` disjoint paths of ``hops`` hops: 2 * copies * hops qubits."""
    return build_swap_schedule(
        [
            PathBundle(path=("s", *(f"p{c}_{j}" for j in range(1, hops)), "t"), multiplicity=1)
            for c in range(copies)
        ]
    )


# (copies, hops, swap noise, pair noise) of the ladders below.
LADDER_NOISE = [
    (1, 2, Fraction(1, 200), Fraction(1, 150)),
    (1, 2, Fraction(1, 50), Fraction(2, 75)),
    (2, 3, Fraction(1, 100), Fraction(1, 75)),
    (2, 3, Fraction(1, 50), Fraction(2, 75)),
    (4, 6, Fraction(1, 200), Fraction(1, 150)),
    (4, 6, Fraction(1, 50), Fraction(2, 75)),
    (9, 11, Fraction(1, 100), Fraction(1, 75)),
    (9, 11, Fraction(1, 50), Fraction(2, 75)),
    (10, 20, Fraction(1, 200), Fraction(1, 150)),
    (10, 20, Fraction(1, 50), Fraction(2, 75)),
    # Sites with p = 1 hit every lane.
    (2, 3, Fraction(1), Fraction(0)),
    (1, 2, Fraction(0), Fraction(1)),
    (4, 6, Fraction(1, 50), Fraction(1)),
    # No noise: every trial passes.
    (9, 11, Fraction(0), Fraction(0)),
]


class TestSamplerStatistics:
    """At fixed seeds, the all-pass count of ``fidelity_estimate`` lies
    within 5 sigma of the closed form, the bound the benchmark's simulate
    check uses, on ladders of 4 to 400 qubits. In the first ten cases every
    edge's pair noise is 4/3 of the swap noise p, so a fresh pair sits at
    trace distance p from ideal. 5000 trials span two blocks."""

    TRIALS = 5000

    @pytest.mark.parametrize(
        "copies, hops, swap, pair",
        LADDER_NOISE,
        ids=[f"q{2 * c * h}-swap{float(s):g}-pair{float(p):.3g}" for c, h, s, p in LADDER_NOISE],
    )
    def test_all_pass_count_tracks_exact(self, copies, hops, swap, pair):
        sched = ladder(copies, hops)
        keys = {ins.edge for ins in sched.instructions if isinstance(ins, CreateBellPair)}
        noise = NoiseModel(swap_depolarize_p=swap, pair_error=dict.fromkeys(keys, pair))
        exact = exact_pass_probability(sched, noise)
        est = fidelity_estimate(sched, noise, trials=self.TRIALS, seed=copies * 100 + hops)
        mean = self.TRIALS * exact
        sigma = math.sqrt(mean * (1 - exact))
        assert abs(est.all_pass_count - mean) <= 5 * sigma, (
            sched.n_qubits,
            est.all_pass_count,
            float(mean),
        )


class TestWilsonInterval:
    def test_rejects_empty_sample(self):
        with pytest.raises(ValidationError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("successes", [-1, 4, 5])
    def test_rejects_successes_outside_the_trials(self, successes):
        with pytest.raises(ValidationError, match="successes"):
            wilson_interval(successes, 3)

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

    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from([1, 3, 8, 20, 1000, 1024])),
            min_size=1,
            max_size=12,
        ),
        st.data(),
    )
    def test_equals_a_sum_of_fractions(self, budgets, data):
        """Summing numerators per denominator gives the exact Fraction sum,
        whatever the denominators and the order of the active edges."""
        edges = [
            ("s", f"n{i:02d}", 1, 0, min(Fraction(num, den), Fraction(1)))
            for i, (num, den) in enumerate(budgets)
        ]
        g = NetworkGraph.from_edge_list(edges, "s", "n00")
        keys = data.draw(st.permutations([e.key for e in g.edges]))
        active = keys[: data.draw(st.integers(0, len(keys)))]
        expected = Fraction(0)
        for key in active:
            expected += g.edge_map[key].gen_error
        got = generation_error_budget(g, active)
        assert type(got) is Fraction
        assert got == expected

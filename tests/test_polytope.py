"""Tests for AoT constraints, deterministic strategies, and algebraic maxima."""

import itertools
import tracemalloc

import numpy as np
import pytest

import util
from oracles import outcome_sequence, prob, strategy_to_table
from temporalwitness import GuardExceeded, polytope, protocols, simulator
from temporalwitness.polytope import (
    algebraic_max,
    aot_constraints,
    check_aot,
    enumerate_deterministic_strategies,
    independent_constraint_count,
    num_deterministic_strategies,
)
from temporalwitness.scenario import Scenario, Witness, decode_index, get_witness
from temporalwitness.simulator import CorrelationTable


class TestConstraints:
    def test_independent_counts(self):
        assert independent_constraint_count(Scenario(2, 2, 2)) == 2
        assert independent_constraint_count(Scenario(3, 2, 2)) == 14

    def test_length_one_has_no_constraints(self):
        assert aot_constraints(Scenario(1, 2, 2)) == []
        assert aot_constraints(Scenario(1, 3, 4)) == []

    def test_rank_matches_numpy_oracle(self):
        # Independence modulo normalization, recomputed in floating point:
        # the flagged rows are independent and span every AoT constraint.
        for dims in ((2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 3, 2), (2, 3, 3), (3, 2, 3), (4, 2, 2)):
            scenario = Scenario(*dims)
            cons = aot_constraints(scenario)
            ncols = scenario.num_setting_sequences * scenario.num_outcome_sequences
            norm_rows = []
            for x_idx in range(scenario.num_setting_sequences):
                row = np.zeros(ncols)
                row[
                    x_idx * scenario.num_outcome_sequences:
                    (x_idx + 1) * scenario.num_outcome_sequences
                ] = 1.0
                norm_rows.append(row)
            aot_rows = []
            for con in cons:
                row = np.zeros(ncols)
                plus, minus = con.cells(scenario)
                for i, j in plus:
                    row[i * scenario.num_outcome_sequences + j] += 1.0
                for i, j in minus:
                    row[i * scenario.num_outcome_sequences + j] -= 1.0
                aot_rows.append(row)
            flagged = [row for row, con in zip(aot_rows, cons) if con.independent]
            rank_norm = np.linalg.matrix_rank(np.array(norm_rows))
            rank_all = np.linalg.matrix_rank(np.array(norm_rows + aot_rows))
            rank_flagged = np.linalg.matrix_rank(np.array(norm_rows + flagged))
            assert len(flagged) == rank_flagged - rank_norm == rank_all - rank_norm
            assert independent_constraint_count(scenario) == rank_all - rank_norm

    def test_flagged_subset_is_prefix_marginal_form(self):
        cons = aot_constraints(Scenario(2, 2, 2))
        flagged = [c for c in cons if c.independent]
        assert len(flagged) == 2
        for con in flagged:
            assert con.prefix_len == 1
            assert con.outcome_prefix == (0,)  # the "+" marginals suffice


class TestCheckAot:
    def test_simulator_output_passes(self):
        for wid, length in (("B1", 2), ("B4", 2), ("T", 3)):
            table = simulator.sequence_probabilities(
                protocols.optimal_protocol(wid), length
            )
            assert check_aot(table, tol=1e-10) == []

    def test_constructed_violation(self):
        probs = np.array(
            [
                [0.6, 0.0, 0.4, 0.0],
                [0.5, 0.0, 0.5, 0.0],
                [0.5, 0.0, 0.5, 0.0],
                [0.5, 0.0, 0.5, 0.0],
            ]
        )
        table = CorrelationTable(Scenario(2, 2, 2), probs)
        violations = check_aot(table)
        assert len(violations) == 2  # the "+" and "-" marginals of x=0
        magnitudes = sorted(abs(v) for _, v in violations)
        assert magnitudes == pytest.approx([0.1, 0.1])

    def test_strategy_tables_pass_exactly(self):
        scenario = Scenario(2, 2, 2)
        for strategy in enumerate_deterministic_strategies(scenario):
            assert check_aot(strategy_to_table(strategy), tol=0.0) == []


class TestEnumeration:
    def test_counts(self):
        assert num_deterministic_strategies(Scenario(2, 2, 2)) == 64
        assert num_deterministic_strategies(Scenario(3, 2, 2)) == 16384
        assert num_deterministic_strategies(Scenario(1, 1, 2)) == 2

    def test_yields_each_exactly_once(self):
        scenario = Scenario(2, 2, 2)
        seen = {s.moves for s in enumerate_deterministic_strategies(scenario)}
        assert len(seen) == 64

    def test_lexicographic_first(self):
        first = next(iter(enumerate_deterministic_strategies(Scenario(2, 2, 2))))
        assert first.moves == ((0, 0), (0, 0, 0, 0))

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            list(enumerate_deterministic_strategies(Scenario(4, 3, 3)))


class TestStrategyTables:
    def test_constant_plus(self):
        scenario = Scenario(2, 2, 2)
        strategy = polytope.DeterministicStrategy(scenario, ((0, 0), (0, 0, 0, 0)))
        table = strategy_to_table(strategy)
        for x_idx in range(4):
            x_seq = decode_index(x_idx, 2, 2)
            assert prob(table, x_seq, (0, 0)) == 1.0

    def test_first_witness_maximizer(self):
        # f1 = "+", f2 = "+" iff the two settings agree: the extreme point
        # reaching the two-step maximum.
        scenario = Scenario(2, 2, 2)
        moves2 = tuple(0 if x1 == x2 else 1 for x1, x2 in
                       (decode_index(i, 2, 2) for i in range(4)))
        strategy = polytope.DeterministicStrategy(scenario, ((0, 0), moves2))
        table = strategy_to_table(strategy)
        value = simulator.evaluate_witness(get_witness("B1"), table)
        assert value == 4.0

    def test_rows_sum_to_one(self):
        scenario = Scenario(2, 2, 2)
        for strategy in enumerate_deterministic_strategies(scenario):
            table = strategy_to_table(strategy)
            assert np.array_equal(table.probs.sum(axis=1), np.ones(4))


class TestAlgebraicMax:
    def test_registry_maxima(self):
        for wid in ("B1", "B2", "B3", "B4"):
            value, count, _ = algebraic_max(get_witness(wid))
            assert (value, count) == (4.0, 1)
        value, count, _ = algebraic_max(get_witness("T"))
        assert (value, count) == (8.0, 1)

    def test_maximizer_reproduces_value(self):
        w = get_witness("T")
        value, _, first = algebraic_max(w)
        table = strategy_to_table(first)
        assert simulator.evaluate_witness(w, table) == value

    def test_ties_all_reported(self):
        scenario = Scenario(2, 2, 2)
        w = Witness(id="single", scenario=scenario, terms=((
            (0, 0), (0, 0), 1.0),))
        value, count, first = algebraic_max(w)
        assert value == 1.0
        # f1(0) and f2(00) pinned; f1(1) and the three other f2 entries free.
        assert count == 2 ** 4
        assert first.moves == ((0, 0), (0, 0, 0, 0))

    def test_unique_maximizer_beyond_enumeration_guard(self):
        # 2^30 strategies, but only the all-"+" one maximizes.
        scenario = Scenario(4, 2, 2)
        terms = tuple(
            (x_seq, a_seq, float(a_seq.count(0)))
            for x_seq in itertools.product(range(2), repeat=4)
            for a_seq in itertools.product(range(2), repeat=4)
        )
        value, count, first = algebraic_max(Witness(id="plus", scenario=scenario, terms=terms))
        assert (value, count) == (16 * 4.0, 1)
        assert first.moves == ((0,) * 2, (0,) * 4, (0,) * 8, (0,) * 16)

    def test_counts_maximizers_beyond_enumeration_guard(self):
        # 3^120 strategies; the term pins 4 setting prefixes, the other 116 are free.
        w = Witness(id="single", scenario=Scenario(4, 3, 3), terms=(((0,) * 4, (0,) * 4, 1.0),))
        value, count, first = algebraic_max(w)
        assert (value, count) == (1.0, 3**116)
        assert first.moves == ((0,) * 3, (0,) * 9, (0,) * 27, (0,) * 81)

    def test_count_visits_only_the_terms_histories(self):
        # 2^4094 strategies, of which the 2^4072 that answer the two terms'
        # 22 setting prefixes maximize. The walk visits only those 22 nodes;
        # one over all 4^11 histories takes seconds.
        w = Witness(id="pair", scenario=Scenario(11, 2, 2),
                    terms=(((0,) * 11, (0,) * 11, 1.0), ((1,) * 11, (1,) * 11, 1.0)))
        value, count, first = algebraic_max(w)
        assert (value, count) == (2.0, 2**4072)
        for settings, outcomes, _ in w.terms:
            assert outcome_sequence(first, settings) == outcomes

    def test_counts_ties_in_little_memory(self):
        # 2^16 of the 2^20 strategies maximize; a list of them took 65 MiB.
        w = Witness(id="pair", scenario=Scenario(2, 4, 2),
                    terms=(((0, 0), (0, 0), 1.0), ((1, 1), (1, 1), 1.0)))
        tracemalloc.start()
        try:
            value, count, _ = algebraic_max(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (value, count) == (2.0, 2**16)
        assert peak < 2**20

    def test_quantum_tables_stay_below(self):
        rng = np.random.default_rng(13)
        for wid, length in (("B2", 2), ("T", 3)):
            w = get_witness(wid)
            value, _, _ = algebraic_max(w)
            for _ in range(10):
                protocol = util.random_qutrit_protocol(rng)
                table = simulator.sequence_probabilities(protocol, length)
                assert simulator.evaluate_witness(w, table) <= value + 1e-10

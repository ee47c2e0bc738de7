"""Tests for correlation tables, the sequential simulator, readout noise,
and witness evaluation."""

import re

import numpy as np
import pytest

import oracles
from temporalwitness import GuardExceeded, polytope, protocols, simulator
from temporalwitness.protocols import optimal_protocol
from temporalwitness.qcore import identity, ketbra
from temporalwitness.scenario import (
    WITNESSES,
    Scenario,
    Witness,
    decode_index,
    encode_sequence,
    get_witness,
    parse_outcome_sequence,
    parse_setting_sequence,
    sequence_labels,
)
from temporalwitness.simulator import (
    CorrelationTable,
    ReadoutNoise,
    apply_readout_noise,
    evaluate_witness,
    format_correlation_table,
    sequence_probabilities,
)

# Fidelity caps from a single deterministic branch per setting sequence:
# each recorded step is independently correct with the bright or dark
# fidelity, so the ideal value 4 shrinks to 2 f_b^2 + 2 f_b f_d and the
# ideal 8 to 2 f_b^3 + 4 f_b^2 f_d + 2 f_b f_d^2.
NOISY_TWO_STEP = 2 * 0.96**2 + 2 * 0.96 * 0.98
NOISY_THREE_STEP = 2 * 0.96**3 + 4 * 0.96**2 * 0.98 + 2 * 0.96 * 0.98**2


def trivial_qubit_protocol():
    """Both settings always answer '+' and re-prepare the ground state; the
    protocol carries no bright mask."""
    ground = ketbra(2, 0, 0)
    return protocols.Protocol(
        initial_state=ground,
        effects=[[identity(2), np.zeros((2, 2))]] * 2,
        preparations=[[ground] * 2] * 2,
    )


class TestScenario:
    def test_guard(self):
        with pytest.raises(GuardExceeded):
            Scenario(length=8, settings=4, outcomes=4)

    def test_guard_on_a_huge_length(self):
        # A length read from a file header: the guard must not compute
        # settings^length, an integer of 10^20 bits.
        with pytest.raises(GuardExceeded):
            Scenario(length=10**20, settings=2, outcomes=2)
        Scenario(length=11, settings=2, outcomes=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(length=0, settings=2, outcomes=2)
        with pytest.raises(ValueError):
            Scenario(length=2, settings=2, outcomes=1)

    def test_encoding_round_trip(self):
        for base, length in ((2, 3), (3, 2), (5, 4)):
            for idx in range(base**length):
                seq = decode_index(idx, base, length)
                assert encode_sequence(seq, base) == idx

    def test_history_view_interleaves_steps(self):
        sc = Scenario(3, 2, 3)
        table = np.arange(sc.num_setting_sequences * sc.num_outcome_sequences).reshape(8, 27)
        tensor = oracles.to_history(sc, table)
        assert tensor.shape == (2, 3, 2, 3, 2, 3)
        for x_idx in range(8):
            x_seq = decode_index(x_idx, 2, 3)
            for a_idx in range(27):
                a_seq = decode_index(a_idx, 3, 3)
                history = tuple(v for pair in zip(x_seq, a_seq) for v in pair)
                assert tensor[history] == table[x_idx, a_idx]
        assert np.array_equal(sc.from_history(tensor), table)


class TestWitnessRegistry:
    def test_bounds_and_maxima(self):
        expected = {"B1": 3.0, "B2": 3.0, "B3": 3.186, "B4": 3.186, "T": 5.226}
        for wid, bound in expected.items():
            w = get_witness(wid)
            assert w.qubit_bound == bound
            assert w.algebraic_max == (8.0 if wid == "T" else 4.0)
            assert len(w.terms) == (8 if wid == "T" else 4)
            assert all(coeff == 1.0 for _, _, coeff in w.terms)

    def test_thresholds(self):
        expected = {"B1": 3.0, "B2": 3.0, "B3": 3.1863, "B4": 3.1863, "T": 5.226}
        for wid, threshold in expected.items():
            assert get_witness(wid).threshold == threshold

    def test_threshold_defaults_to_qubit_bound_and_never_below_it(self):
        sc = Scenario(2, 2, 2)
        terms = (((0, 0), (0, 0), 1.0),)
        assert Witness("w", sc, terms, qubit_bound=0.5, algebraic_max=1.0).threshold == 0.5
        assert Witness("w", sc, terms).threshold is None
        for bound in (0.5, None):
            with pytest.raises(ValueError, match="threshold"):
                Witness("w", sc, terms, qubit_bound=bound, algebraic_max=1.0, threshold=0.4)

    def test_term_patterns(self):
        w3 = get_witness("B3")
        assert ((0, 0), (0, 1), 1.0) in w3.terms  # "+-" given settings 00
        assert ((1, 1), (0, 0), 1.0) in w3.terms  # "++" given settings 11
        wT = get_witness("T")
        assert ((0, 1, 1), (0, 1, 0), 1.0) in wT.terms  # "+-+" given 011

    def test_every_first_outcome_is_plus(self):
        for w in WITNESSES.values():
            assert all(outcomes[0] == 0 for _, outcomes, _ in w.terms)

    def test_qubit_bounds_strictly_below_algebraic_maxima(self):
        # This separation is what makes each quantity a dimension witness.
        for w in WITNESSES.values():
            assert w.qubit_bound < w.algebraic_max

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_witness("nope")

    def test_coefficients_tensor(self):
        w = Witness(id="dup", scenario=Scenario(2, 2, 2),
                    terms=(((0, 1), (1, 0), 1.5), ((0, 1), (1, 0), -0.5), ((1, 1), (0, 0), 2.0)))
        coeffs = w.coefficients
        assert coeffs.shape == (2, 2, 2, 2)
        assert coeffs[0, 1, 1, 0] == 1.0
        assert coeffs[1, 0, 1, 0] == 2.0
        assert coeffs.sum() == 3.0
        table = sequence_probabilities(optimal_protocol("B1"), 2)
        assert evaluate_witness(w, table) == pytest.approx(
            float(np.sum(coeffs * oracles.to_history(w.scenario, table.probs)))
        )


class TestSequenceProbabilities:
    def test_ideal_two_step_maxima(self):
        for wid in ("B1", "B2", "B3", "B4"):
            table = sequence_probabilities(optimal_protocol(wid), 2)
            w = get_witness(wid)
            for settings, outcomes, _ in w.terms:
                assert oracles.prob(table, settings, outcomes) == pytest.approx(1.0, abs=1e-12)
            assert evaluate_witness(w, table) == pytest.approx(4.0, abs=1e-12)

    def test_ideal_three_step_maximum(self):
        table = sequence_probabilities(optimal_protocol("T"), 3)
        w = get_witness("T")
        for settings, outcomes, _ in w.terms:
            assert oracles.prob(table, settings, outcomes) == pytest.approx(1.0, abs=1e-12)
        assert evaluate_witness(w, table) == pytest.approx(8.0, abs=1e-12)

    def test_trivial_instrument(self):
        table = sequence_probabilities(trivial_qubit_protocol(), 2)
        for x_idx in range(4):
            x_seq = decode_index(x_idx, 2, 2)
            assert oracles.prob(table, x_seq, (0, 0)) == pytest.approx(1.0)

    def test_rows_normalized(self):
        table = sequence_probabilities(optimal_protocol("B3"), 3)
        assert np.allclose(table.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_measure_and_prepare_factorizes(self):
        # With setting-only preparations, p(ab|xy) = p(a|x) r(b|xy).
        protocol = optimal_protocol("B4")
        effects, preparations = protocol.effects, protocol.preparations
        table = sequence_probabilities(protocol, 2)
        for x in (0, 1):
            for y in (0, 1):
                for a in (0, 1):
                    for b in (0, 1):
                        first = np.trace(effects[x, a] @ protocol.initial_state).real
                        second = np.trace(effects[y, b] @ preparations[x, a]).real
                        assert oracles.prob(table, (x, y), (a, b)) == pytest.approx(
                            first * second, abs=1e-12
                        )

    def test_simulated_tables_satisfy_aot(self):
        for wid, length in (("B2", 2), ("T", 3)):
            table = sequence_probabilities(optimal_protocol(wid), length)
            assert polytope.check_aot(table, tol=1e-10) == []


class TestReadoutNoise:
    def test_perfect_fidelities_change_nothing(self):
        protocol = optimal_protocol("B1")
        table = sequence_probabilities(protocol, 2)
        noisy = apply_readout_noise(
            table, protocol.bright, ReadoutNoise(1.0, 1.0)
        )
        assert np.array_equal(noisy.probs, table.probs)

    def test_two_step_cap(self):
        protocol = optimal_protocol("B1")
        noisy = apply_readout_noise(
            sequence_probabilities(protocol, 2),
            protocol.bright,
            ReadoutNoise(),
        )
        value = evaluate_witness(get_witness("B1"), noisy)
        assert value == pytest.approx(NOISY_TWO_STEP, abs=1e-12)

    def test_three_step_cap(self):
        protocol = optimal_protocol("T")
        noisy = apply_readout_noise(
            sequence_probabilities(protocol, 3),
            protocol.bright,
            ReadoutNoise(),
        )
        value = evaluate_witness(get_witness("T"), noisy)
        assert value == pytest.approx(NOISY_THREE_STEP, abs=1e-12)

    def test_preserves_normalization_exactly(self):
        protocol = optimal_protocol("B3")
        noisy = apply_readout_noise(
            sequence_probabilities(protocol, 3),
            protocol.bright,
            ReadoutNoise(0.9, 0.7),
        )
        assert np.allclose(noisy.probs.sum(axis=1), 1.0, atol=1e-12)
        assert polytope.check_aot(noisy, tol=1e-10) == []

    def test_commutes_with_final_step_marginalization(self):
        # Marginalizing the noisy three-step table over the last outcome
        # (any last setting; AoT makes them agree) equals noising the
        # two-step table.
        protocol = optimal_protocol("B2")
        noise = ReadoutNoise()
        noisy3 = apply_readout_noise(sequence_probabilities(protocol, 3), protocol.bright, noise)
        noisy2 = apply_readout_noise(sequence_probabilities(protocol, 2), protocol.bright, noise)
        probs3 = noisy3.probs.reshape(2, 2, 2, 2, 2, 2)  # x1 x2 x3 a1 a2 a3
        for last_setting in (0, 1):
            marginal = probs3[:, :, last_setting].sum(axis=-1).reshape(4, 4)
            assert np.allclose(marginal, noisy2.probs, atol=1e-12)

    def test_requires_binary_outcomes(self):
        sc = Scenario(1, 1, 3)
        table = CorrelationTable(sc, np.array([[0.2, 0.3, 0.5]]))
        with pytest.raises(ValueError, match="binary"):
            apply_readout_noise(table, np.ones((1, 3), dtype=bool), ReadoutNoise())

    def test_requires_a_bright_mask(self):
        # The trivial protocol has no mask; the others have the wrong shape
        # or dtype for its two settings and two outcomes.
        assert trivial_qubit_protocol().bright is None
        table = sequence_probabilities(trivial_qubit_protocol(), 2)
        for bright in (None, np.ones((2, 3), dtype=bool), np.ones((1, 2), dtype=bool),
                       np.ones((2, 2))):
            with pytest.raises(ValueError, match="detection-kind"):
                apply_readout_noise(table, bright, ReadoutNoise())


class TestEvaluateWitness:
    def test_uniform_three_step_table(self):
        sc = Scenario(3, 2, 2)
        table = CorrelationTable(sc, np.full((8, 8), 1 / 8))
        assert evaluate_witness(get_witness("T"), table) == pytest.approx(1.0)

    def test_complementary_protocol_scores_zero(self):
        table = sequence_probabilities(optimal_protocol("B1"), 2)
        assert evaluate_witness(get_witness("B2"), table) == pytest.approx(0.0, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        w = get_witness("B1")
        t1 = sequence_probabilities(optimal_protocol("B1"), 2)
        t2 = sequence_probabilities(optimal_protocol("B2"), 2)
        for _ in range(10):
            lam = rng.uniform()
            mix = CorrelationTable(
                w.scenario, lam * t1.probs + (1 - lam) * t2.probs
            )
            expected = lam * evaluate_witness(w, t1) + (1 - lam) * evaluate_witness(w, t2)
            assert evaluate_witness(w, mix) == pytest.approx(expected, abs=1e-12)

    def test_scenario_mismatch(self):
        table = sequence_probabilities(optimal_protocol("B1"), 3)
        with pytest.raises(ValueError, match="does not match"):
            evaluate_witness(get_witness("B1"), table)


class TestTableValidationAndSerialization:
    # No command reads a table file back; the reference reader in
    # oracles.py holds the file grammar that the writer must meet.
    def test_rejects_unnormalized_rows(self):
        sc = Scenario(1, 1, 2)
        with pytest.raises(ValueError, match="sum to 1"):
            CorrelationTable(sc, np.array([[0.5, 0.4]]))

    def test_rejects_out_of_range(self):
        sc = Scenario(1, 1, 2)
        with pytest.raises(ValueError, match="outside"):
            CorrelationTable(sc, np.array([[1.5, -0.5]]))

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf]])
    def test_rejects_non_finite(self, row):
        with pytest.raises(ValueError, match="finite"):
            CorrelationTable(Scenario(1, 1, 2), np.array([row]))

    @pytest.mark.parametrize("entries", [("nan", "nan"), ("1", "nan"), ("inf", "-inf")])
    def test_parse_rejects_non_finite(self, entries):
        text = (
            "correlation-table v1\nlength: 1\nsettings: 1\noutcomes: 2\n"
            f"0 + {entries[0]}\n0 - {entries[1]}\n"
        )
        with pytest.raises(ValueError, match="finite"):
            oracles.parse_correlation_table(text)

    def test_clamps_tiny_negatives(self):
        sc = Scenario(1, 1, 2)
        table = CorrelationTable(sc, np.array([[1.0 + 5e-10, -5e-10]]))
        assert table.probs.min() == 0.0

    def test_round_trip(self):
        protocol = optimal_protocol("B3")
        noisy = apply_readout_noise(
            sequence_probabilities(protocol, 2),
            protocol.bright,
            ReadoutNoise(),
        )
        text = format_correlation_table(noisy)
        back = oracles.parse_correlation_table(text)
        assert back.scenario == noisy.scenario
        assert np.allclose(back.probs, noisy.probs, atol=1e-12)

    def test_parse_rejects_missing_rows(self):
        text = "correlation-table v1\nlength: 1\nsettings: 1\noutcomes: 2\n0 + 1\n"
        with pytest.raises(ValueError, match="missing rows"):
            oracles.parse_correlation_table(text)

    def test_parse_rejects_duplicates(self):
        text = (
            "correlation-table v1\nlength: 1\nsettings: 1\noutcomes: 2\n"
            "0 + 1\n0 + 0\n0 - 0\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            oracles.parse_correlation_table(text)

    def test_parse_rejects_repeated_header_key(self):
        text = (
            "correlation-table v1\nlength: 1\nlength: 2\nsettings: 1\noutcomes: 2\n"
            "0 + 1\n0 - 0\n"
        )
        with pytest.raises(ValueError, match="repeated table-file key 'length': 'length: 2'"):
            oracles.parse_correlation_table(text)

    # int() read `+2`, `0_2` and `\u0662` (ARABIC-INDIC DIGIT TWO) as 2.
    @pytest.mark.parametrize("key", ["length", "settings", "outcomes"])
    @pytest.mark.parametrize("spelled", ["+2", "0_2", "\u0662"])
    def test_parse_rejects_non_decimal_header(self, key, spelled):
        text = format_correlation_table(CorrelationTable(Scenario(2, 2, 2), np.full((4, 4), 0.25)))
        text = text.replace(f"\n{key}: 2\n", f"\n{key}: {spelled}\n")
        with pytest.raises(ValueError, match=re.escape(repr(f"{key}: {spelled}"))):
            oracles.parse_correlation_table(text)

    def test_parse_reads_the_entries_the_writer_spells(self):
        # np.clip keeps -0.0, which "%.12g" writes as -0.
        table = CorrelationTable(Scenario(2, 1, 2), np.array([[1e-05, -0.0, 0.25, 0.74999]]))
        text = format_correlation_table(table)
        assert "00 ++ 1e-05\n00 +- -0\n00 -+ 0.25\n" in text
        back = oracles.parse_correlation_table(text)
        assert np.array_equal(back.probs.view(np.int64), table.probs.view(np.int64))

    # float() reads `+0.25`, `0_0.25` and `\u0660.\u0662\u0665` (Arabic-Indic
    # digits) as 0.25, but "%.12g" writes none of these spellings.
    @pytest.mark.parametrize("spelled", [
        "+0.25", "0_0.25", "\u0660.\u0662\u0665", ".25", "0.", "2.5E-1", "2.5e+1", "25e-2", "25e-2e-1",
        "-0.0", "-1e-10", "0x1p-2", "nan", "inf",
    ])
    def test_parse_rejects_entries_the_writer_never_spells(self, spelled):
        table = CorrelationTable(Scenario(1, 1, 2), np.array([[0.25, 0.75]]))
        text = format_correlation_table(table).replace("\n0 + 0.25\n", f"\n0 + {spelled}\n")
        with pytest.raises(ValueError, match=re.escape(repr(f"0 + {spelled}"))):
            oracles.parse_correlation_table(text)

    # A row labelled `\u06600` used to read as `00`: labels are looked up
    # exactly as the writer spells them.
    @pytest.mark.parametrize("x_txt, a_txt", [
        ("\u06600", "++"), ("0\u0661", "++"), ("00", "+\u0661"),
    ])
    def test_parse_rejects_non_ascii_labels(self, x_txt, a_txt):
        text = format_correlation_table(CorrelationTable(Scenario(2, 2, 2), np.full((4, 4), 0.25)))
        text = text.replace("\n00 ++ 0.25\n", f"\n{x_txt} {a_txt} 0.25\n")
        with pytest.raises(ValueError, match="bad (setting|outcome) sequence"):
            oracles.parse_correlation_table(text)

    @pytest.mark.parametrize("scenario", [Scenario(2, 2, 2), Scenario(2, 2, 3)])
    def test_parse_sequence_takes_label_symbols_only(self, scenario):
        assert parse_setting_sequence("01", scenario) == (0, 1)
        for parse in (parse_setting_sequence, parse_outcome_sequence):
            with pytest.raises(ValueError, match="bad (setting|outcome) sequence"):
                parse("\u06601", scenario)

    def test_labels_stop_at_ten_settings_and_outcomes(self):
        x_labels, a_labels = sequence_labels(Scenario(2, 10, 10))
        assert x_labels[-1] == a_labels[-1] == "99"
        for scenario in (Scenario(2, 11, 2), Scenario(2, 2, 11)):
            with pytest.raises(ValueError, match="one digit per step"):
                sequence_labels(scenario)

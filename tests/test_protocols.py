"""Tests for pulse-block measurements, the optimal protocols, protocol
validation, and the extremal qubit measurement family."""

import sys

import numpy as np
import pytest

from temporalwitness import protocols, simulator
from temporalwitness.cli import main
from temporalwitness.protocols import (
    OPTIMAL_PULSES,
    PhaseConfig,
    Protocol,
    INT64_MAX,
    extremal_qubit_measurements,
    format_protocol_spec,
    measure_and_prepare_from_pulses,
    optimal_protocol,
    parse_protocol_spec,
    parse_pulse_token,
)
from temporalwitness.qcore import basis_ket, identity, ketbra
from temporalwitness.scenario import WITNESSES, get_witness


def block(tokens):
    return tuple(parse_pulse_token(t) for t in tokens.split())


class TestPulseGrammar:
    # effects[a]: outcome a, with "+" at index 0.
    def test_b1_style_block(self):
        effects, prepared = measure_and_prepare_from_pulses(block("pi02 D C P0 pi01"), "+")
        assert np.allclose(effects[0], np.diag([1, 1, 0]), atol=1e-12)
        assert np.allclose(effects[1], np.diag([0, 0, 1]), atol=1e-12)
        assert np.allclose(prepared, ketbra(3, 1, 1), atol=1e-12)

    def test_idle_block_with_dark_plus(self):
        effects, prepared = measure_and_prepare_from_pulses(block("I D C P0 pi01"), "-")
        assert np.allclose(effects[0], np.diag([1, 0, 0]), atol=1e-12)
        assert np.allclose(effects[1], np.diag([0, 1, 1]), atol=1e-12)
        assert np.allclose(prepared, ketbra(3, 1, 1), atol=1e-12)

    def test_pi01_block(self):
        effects, prepared = measure_and_prepare_from_pulses(block("pi01 D C P0 pi02"), "+")
        assert np.allclose(effects[0], np.diag([1, 0, 1]), atol=1e-12)
        assert np.allclose(prepared, ketbra(3, 2, 2), atol=1e-12)

    def test_rejects_malformed_blocks(self):
        with pytest.raises(ValueError, match="5 primitives"):
            measure_and_prepare_from_pulses(block("pi02 D C P0"), "+")
        with pytest.raises(ValueError, match="grammar"):
            measure_and_prepare_from_pulses(block("pi02 C D P0 pi01"), "+")
        with pytest.raises(ValueError, match="grammar"):
            measure_and_prepare_from_pulses(block("D D C P0 pi01"), "+")
        with pytest.raises(ValueError, match="bright outcome"):
            measure_and_prepare_from_pulses(block("pi02 D C P0 pi01"), "0")

    def test_rejects_unknown_token(self):
        with pytest.raises(ValueError, match="unknown pulse token"):
            parse_pulse_token("pi12")


class TestOptimalProtocols:
    # effects[x, a]: setting x, outcome a, with "+" at index 0.
    def test_first_witness_effects(self):
        p = optimal_protocol("B1")
        assert np.allclose(p.effects[0, 0], np.diag([1, 1, 0]))
        assert np.allclose(p.effects[1, 0], np.diag([1, 0, 1]))

    def test_second_witness_effects(self):
        p = optimal_protocol("B2")
        assert np.allclose(p.effects[0, 0], np.diag([1, 0, 1]))
        assert np.allclose(p.effects[0, 1], np.diag([0, 1, 0]))
        assert np.allclose(p.effects[1, 0], np.diag([1, 1, 0]))

    def test_third_witness_effects(self):
        p = optimal_protocol("B3")
        assert np.allclose(p.effects[0, 0], np.diag([1, 0, 0]))
        assert np.allclose(p.effects[0, 1], np.diag([0, 1, 1]))
        assert np.allclose(p.effects[1, 0], np.diag([1, 0, 1]))

    def test_fourth_witness_effects(self):
        p = optimal_protocol("B4")
        assert np.allclose(p.effects[0, 0], np.diag([1, 0, 1]))
        assert np.allclose(p.effects[1, 0], np.diag([1, 0, 0]))
        assert np.allclose(p.effects[1, 1], np.diag([0, 1, 1]))

    def test_first_branch_moves_ground_to_level_one(self):
        # The first measurement of the first optimal protocol answers "+"
        # on |0> with unit probability and leaves |1>.
        p = optimal_protocol("B1")
        assert np.trace(p.effects[0, 0] @ p.initial_state).real == pytest.approx(1.0)
        assert np.allclose(p.preparations[0, 0], ketbra(3, 1, 1), atol=1e-12)

    def test_three_step_protocol_reuses_first(self):
        assert OPTIMAL_PULSES["T"] is OPTIMAL_PULSES["B1"]

    def test_initial_state_is_ground(self):
        for wid in OPTIMAL_PULSES:
            p = optimal_protocol(wid)
            assert np.array_equal(p.initial_state, ketbra(3, 0, 0))

    def test_unknown_witness(self):
        with pytest.raises(KeyError, match="no optimal protocol"):
            optimal_protocol("B9")

    def test_instruments_pass_completeness(self):
        for wid in OPTIMAL_PULSES:
            p = optimal_protocol(wid)
            assert p.effects.shape == p.preparations.shape == (2, 2, 3, 3)
            assert np.max(np.abs(p.effects.sum(axis=1) - identity(3))) < 1e-10

    def test_arrays_are_read_only(self):
        p = optimal_protocol("B1")
        with pytest.raises(ValueError):
            p.effects[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            p.preparations[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            p.initial_state[0, 0] = 0.5
        with pytest.raises(ValueError):
            p.bright[0, 0] = False

    def test_repeated_setting_is_deterministic_where_required(self):
        # Each witness demands a fixed outcome when the same setting is
        # repeated from its own post-measurement state.
        for wid, w in WITNESSES.items():
            p = optimal_protocol(wid)
            for settings, outcomes, _ in w.terms:
                for t in range(1, len(settings)):
                    if settings[t] == settings[t - 1]:
                        effect = p.effects[settings[t], outcomes[t]]
                        prepared = p.preparations[settings[t - 1], outcomes[t - 1]]
                        assert np.trace(effect @ prepared).real == pytest.approx(
                            1.0, abs=1e-12
                        )


class TestPhaseInvariance:
    def test_random_phases_leave_tables_unchanged(self):
        rng = np.random.default_rng(10)
        for wid in ("B1", "B3", "T"):
            length = get_witness(wid).scenario.length
            reference = simulator.sequence_probabilities(optimal_protocol(wid), length)
            for _ in range(5):
                phases = PhaseConfig(
                    pi01=rng.uniform(-np.pi, np.pi),
                    pi02=rng.uniform(-np.pi, np.pi),
                    idle=(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)),
                )
                shifted = simulator.sequence_probabilities(
                    optimal_protocol(wid, phases), length
                )
                assert np.allclose(shifted.probs, reference.probs, atol=1e-12)


class TestExtremalQubitEffects:
    # effects[x, a] and preparations[x, a], with "+" at a = 0.
    def test_projective_identical_pair(self):
        effects, _ = extremal_qubit_measurements(1.0, 1.0, 1.0)
        assert np.allclose(effects[0, 0], effects[1, 0], atol=1e-12)
        vals = np.linalg.eigvalsh(effects[0, 0])
        assert np.allclose(vals, [0.0, 1.0], atol=1e-12)

    def test_trivial_measurement_at_zero(self):
        effects, _ = extremal_qubit_measurements(0.0, 0.5, 0.2)
        assert np.allclose(effects[0, 0], identity(2), atol=1e-14)
        assert np.allclose(effects[0, 1], 0.0, atol=1e-14)

    def test_optimizer_argmax_family(self):
        effects, _ = extremal_qubit_measurements(1.0, 1.0, -0.458)
        cg = np.trace(
            (2 * effects[0, 0] - identity(2)) @ (2 * effects[1, 0] - identity(2))
        ).real / 2
        assert cg == pytest.approx(-0.458, abs=1e-12)

    def test_effects_sum_to_identity_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            effects, _ = protocols.extremal_qubit_measurements(
                rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1)
            )
            for x in (0, 1):
                assert np.array_equal(effects[x, 0] + effects[x, 1], identity(2))

    def test_instrument_effects_complete_within_tolerance(self):
        # The pair is what Protocol takes, and passes its validation.
        rng = np.random.default_rng(14)
        for _ in range(20):
            effects, preparations = extremal_qubit_measurements(
                rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1)
            )
            p = Protocol(ketbra(2, 0, 0), effects, preparations)
            assert p.effects.shape == p.preparations.shape == (2, 2, 2, 2)
            assert np.max(np.abs(p.effects.sum(axis=1) - identity(2))) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            extremal_qubit_measurements(1.2, 0.5, 0.0)
        with pytest.raises(ValueError):
            extremal_qubit_measurements(0.5, 0.5, -1.5)


class TestProtocolValidation:
    @staticmethod
    def arrays():
        """A valid qubit protocol's effects and preparations: Z, then |0>."""
        effects = np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]], dtype=complex)
        return effects, np.array([[np.diag([1.0, 0.0])] * 2], dtype=complex)

    def build(self, effects, preparations, initial=ketbra(2, 0, 0)):
        return Protocol(initial_state=initial, effects=effects, preparations=preparations)

    def test_accepts_valid_arrays(self):
        p = self.build(*self.arrays())
        assert (p.dim, p.num_settings, p.outcomes) == (2, 1, ("+", "-"))

    def test_outcome_labels_are_digits_beyond_two(self):
        effects = np.broadcast_to(np.eye(3) / 3, (1, 3, 3, 3))
        p = self.build(effects, np.broadcast_to(np.eye(3) / 3, (1, 3, 3, 3)), np.eye(3) / 3)
        assert p.outcomes == ("0", "1", "2")

    def test_rejects_effects_not_summing_to_identity(self):
        effects, preparations = self.arrays()
        effects[0, 1] = np.diag([0.0, 0.5])
        with pytest.raises(ValueError, match="sum to the identity"):
            self.build(effects, preparations)

    def test_rejects_effect_spectrum_outside_unit_interval(self):
        effects, preparations = self.arrays()
        effects[0] = [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]
        with pytest.raises(ValueError, match="spectrum"):
            self.build(effects, preparations)

    def test_rejects_preparation_trace(self):
        effects, preparations = self.arrays()
        preparations[0, 1] = np.eye(2)
        with pytest.raises(ValueError, match="trace"):
            self.build(effects, preparations)

    def test_rejects_preparation_negative_eigenvalue(self):
        effects, preparations = self.arrays()
        preparations[0, 0] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            self.build(effects, preparations)

    def test_rejects_shape_mismatch(self):
        effects, preparations = self.arrays()
        with pytest.raises(ValueError, match="preparations have shape"):
            self.build(effects, preparations[:, :1])
        with pytest.raises(ValueError, match="shape"):
            self.build(effects[0], preparations[0])

    def test_bright_mask(self):
        effects, preparations = self.arrays()
        initial = ketbra(2, 0, 0)
        p = Protocol(initial, effects, preparations, bright=[[True, False]])
        assert p.bright.dtype == bool and p.bright.tolist() == [[True, False]]
        assert not p.bright.flags.writeable
        for bad in ([[True, False, True]], [[True], [False]], [[1, 0]], [[1.0, 0.0]], True):
            with pytest.raises(ValueError, match="bright must be a boolean array"):
                Protocol(initial, effects, preparations, bright=bad)

    def test_rejects_initial_state_dimension(self):
        with pytest.raises(ValueError, match=r"initial state has shape \(3, 3\)"):
            self.build(*self.arrays(), ketbra(3, 0, 0))
        with pytest.raises(ValueError, match=r"initial state has shape \(2,\)"):
            self.build(*self.arrays(), basis_ket(2, 0))

    def test_rejects_non_hermitian_initial_state(self):
        with pytest.raises(ValueError, match="initial state is not Hermitian"):
            self.build(*self.arrays(), np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_rejects_initial_state_trace(self):
        with pytest.raises(ValueError, match="initial state trace 2.0 is not 1"):
            self.build(*self.arrays(), np.eye(2))

    def test_rejects_initial_state_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="initial state has negative eigenvalue"):
            self.build(*self.arrays(), np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_initial_state(self, bad):
        with pytest.raises(ValueError, match="finite"):
            self.build(*self.arrays(), np.array([[1.0, bad], [bad, 0.0]]))

    def test_stores_a_read_only_copy_of_the_initial_state(self):
        initial = np.eye(2) / 2
        p = self.build(*self.arrays(), initial)
        initial[0, 0] = 0.0
        assert np.array_equal(p.initial_state, np.eye(2) / 2)
        assert p.initial_state.dtype == complex
        with pytest.raises(ValueError):
            p.initial_state[0, 0] = 0.5


class TestProtocolFiles:
    def test_round_trips_every_optimal_protocol(self):
        for wid, spec in OPTIMAL_PULSES.items():
            text = format_protocol_spec(spec)
            parsed = parse_protocol_spec(text)
            assert parsed == spec
            assert format_protocol_spec(parsed) == text

    def test_built_protocols_match(self):
        spec = parse_protocol_spec(format_protocol_spec(OPTIMAL_PULSES["B3"]))
        rebuilt = spec.build()
        reference = optimal_protocol("B3")
        assert np.allclose(rebuilt.effects, reference.effects, atol=1e-12)
        assert np.allclose(rebuilt.preparations, reference.preparations, atol=1e-12)
        assert np.array_equal(rebuilt.bright, reference.bright)

    def test_rejects_unknown_key(self):
        text = "protocol v1\ndim: 3\ninitial: 0\ncolor: blue\n"
        with pytest.raises(ValueError, match="unknown key"):
            parse_protocol_spec(text)

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError, match="protocol v1"):
            parse_protocol_spec("dim: 3\n")

    def test_rejects_malformed_measurement(self):
        text = "protocol v1\ndim: 3\ninitial: 0\nmeasurement: pi01 D C P0 pi02\n"
        with pytest.raises(ValueError, match="malformed measurement"):
            parse_protocol_spec(text)

    # A second `dim:` or `initial:` line used to replace the first, so
    # `dim: 4` then `dim: 3` read as a qutrit; int() also read `+3`, `0_3`
    # and `\u0663` (ARABIC-INDIC DIGIT THREE) as 3.
    @pytest.mark.parametrize("line, replacement, quoted", [
        ("dim: 3", "dim: 4\ndim: 3", "dim: 3"),
        ("dim: 3", "dim: 3\ndim: 3", "dim: 3"),
        ("initial: 0", "initial: 2\ninitial: 0", "initial: 0"),
        ("dim: 3", "dim: +3", "dim: +3"),
        ("dim: 3", "dim: 0_3", "dim: 0_3"),
        ("dim: 3", "dim: \u0663", "dim: \u0663"),
        ("initial: 0", "initial: +0", "initial: +0"),
    ])
    def test_simulate_rejects_repeated_keys_and_non_decimal_numbers(
        self, capsys, tmp_path, line, replacement, quoted
    ):
        text = format_protocol_spec(OPTIMAL_PULSES["B1"])
        path = tmp_path / "spec.protocol"
        path.write_text(text.replace(f"{line}\n", f"{replacement}\n", 1))
        code = main(["simulate", "--protocol", str(path), "--length", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert repr(quoted) in err

    # `natural` reads every number of the three file formats. Leading zeros
    # are allowed however many there are, so the interpreter's limit on the
    # digits that int() converts (4300 by default, settable) decides nothing.
    @pytest.mark.parametrize("text, value", [
        ("0", 0), ("007", 7), (str(INT64_MAX), INT64_MAX), ("0" * 4400 + "7", 7),
        ("0" * 4400, 0), (str(INT64_MAX + 1), None), ("1" + "0" * 4400, None),
        ("+7", None), ("0_7", None), ("\u0667", None), ("-0", None), ("", None),
    ])
    @pytest.mark.parametrize("max_digits", [sys.get_int_max_str_digits(), 640])
    def test_natural_reads_ascii_decimal_int64(self, text, value, max_digits):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(max_digits)
        try:
            if value is None:
                with pytest.raises(ValueError, match="needs a decimal integer"):
                    protocols.natural(text, f"n: {text}")
            else:
                assert protocols.natural(text, f"n: {text}") == value
        finally:
            sys.set_int_max_str_digits(saved)

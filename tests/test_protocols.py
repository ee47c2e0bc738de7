"""Tests for pulse-block instruments, the optimal protocols, and the
extremal qubit measurement family."""

import numpy as np
import pytest

from temporalwitness import protocols, simulator
from temporalwitness.protocols import (
    OPTIMAL_PULSES,
    PhaseConfig,
    PulsePrimitive,
    extremal_qubit_effects,
    format_protocol_spec,
    instrument_from_pulses,
    measure_and_prepare_from_pulses,
    optimal_protocol,
    parse_protocol_spec,
    parse_pulse_token,
)
from temporalwitness.qcore import effect_of, identity, ketbra, probability


def block(tokens):
    return tuple(parse_pulse_token(t) for t in tokens.split())


class TestPulseGrammar:
    def test_b1_style_block(self):
        instr = instrument_from_pulses(block("pi02 D C P0 pi01"), "+")
        assert np.allclose(effect_of(instr, "+").mat, np.diag([1, 1, 0]), atol=1e-12)
        assert np.allclose(effect_of(instr, "-").mat, np.diag([0, 0, 1]), atol=1e-12)
        mp = measure_and_prepare_from_pulses(block("pi02 D C P0 pi01"), "+")
        assert np.allclose(mp.prepared_state.mat, ketbra(3, 1, 1), atol=1e-12)

    def test_idle_block_with_dark_plus(self):
        instr = instrument_from_pulses(block("I D C P0 pi01"), "-")
        assert np.allclose(effect_of(instr, "+").mat, np.diag([1, 0, 0]), atol=1e-12)
        assert np.allclose(effect_of(instr, "-").mat, np.diag([0, 1, 1]), atol=1e-12)
        mp = measure_and_prepare_from_pulses(block("I D C P0 pi01"), "-")
        assert np.allclose(mp.prepared_state.mat, ketbra(3, 1, 1), atol=1e-12)

    def test_pi01_block(self):
        instr = instrument_from_pulses(block("pi01 D C P0 pi02"), "+")
        assert np.allclose(effect_of(instr, "+").mat, np.diag([1, 0, 1]), atol=1e-12)
        mp = measure_and_prepare_from_pulses(block("pi01 D C P0 pi02"), "+")
        assert np.allclose(mp.prepared_state.mat, ketbra(3, 2, 2), atol=1e-12)

    def test_rejects_malformed_blocks(self):
        with pytest.raises(ValueError, match="5 primitives"):
            instrument_from_pulses(block("pi02 D C P0"), "+")
        with pytest.raises(ValueError, match="grammar"):
            instrument_from_pulses(block("pi02 C D P0 pi01"), "+")
        with pytest.raises(ValueError, match="grammar"):
            instrument_from_pulses(block("D D C P0 pi01"), "+")

    def test_rejects_unknown_token(self):
        with pytest.raises(ValueError, match="unknown pulse token"):
            parse_pulse_token("pi12")


class TestOptimalProtocols:
    def test_first_witness_effects(self):
        p = optimal_protocol("B1")
        assert np.allclose(effect_of(p.instruments[0], "+").mat, np.diag([1, 1, 0]))
        assert np.allclose(effect_of(p.instruments[1], "+").mat, np.diag([1, 0, 1]))

    def test_second_witness_effects(self):
        p = optimal_protocol("B2")
        assert np.allclose(effect_of(p.instruments[0], "+").mat, np.diag([1, 0, 1]))
        assert np.allclose(effect_of(p.instruments[0], "-").mat, np.diag([0, 1, 0]))
        assert np.allclose(effect_of(p.instruments[1], "+").mat, np.diag([1, 1, 0]))

    def test_third_witness_effects(self):
        p = optimal_protocol("B3")
        assert np.allclose(effect_of(p.instruments[0], "+").mat, np.diag([1, 0, 0]))
        assert np.allclose(effect_of(p.instruments[0], "-").mat, np.diag([0, 1, 1]))
        assert np.allclose(effect_of(p.instruments[1], "+").mat, np.diag([1, 0, 1]))

    def test_fourth_witness_effects(self):
        p = optimal_protocol("B4")
        assert np.allclose(effect_of(p.instruments[0], "+").mat, np.diag([1, 0, 1]))
        assert np.allclose(effect_of(p.instruments[1], "+").mat, np.diag([1, 0, 0]))
        assert np.allclose(effect_of(p.instruments[1], "-").mat, np.diag([0, 1, 1]))

    def test_three_step_protocol_reuses_first(self):
        assert OPTIMAL_PULSES["T"] is OPTIMAL_PULSES["B1"]

    def test_initial_state_is_ground(self):
        for wid in OPTIMAL_PULSES:
            p = optimal_protocol(wid)
            assert np.allclose(p.initial_state.mat, ketbra(3, 0, 0))

    def test_unknown_witness(self):
        with pytest.raises(KeyError, match="no optimal protocol"):
            optimal_protocol("B9")

    def test_instruments_pass_completeness(self):
        for wid in OPTIMAL_PULSES:
            p = optimal_protocol(wid)
            for instr in p.instruments.values():
                total = sum(effect_of(instr, o).mat for o in instr.outcomes)
                assert np.max(np.abs(total - identity(3))) < 1e-10

    def test_repeated_setting_is_deterministic_where_required(self):
        # Each witness demands a fixed outcome when the same setting is
        # repeated from its own post-measurement state.
        for wid, w in simulator.WITNESSES.items():
            spec = OPTIMAL_PULSES[wid]
            measurements = {
                s: measure_and_prepare_from_pulses(row.block, row.bright_outcome)
                for s, row in enumerate(spec.rows)
            }
            for settings, outcomes, _ in w.terms:
                for t in range(1, len(settings)):
                    if settings[t] == settings[t - 1]:
                        mp = measurements[settings[t]]
                        label = protocols.OUTCOME_LABELS[outcomes[t]]
                        assert probability(
                            mp.effect(label), measurements[settings[t - 1]].prepared_state
                        ) == pytest.approx(1.0, abs=1e-12)


class TestPhaseInvariance:
    def test_random_phases_leave_tables_unchanged(self):
        rng = np.random.default_rng(10)
        for wid in ("B1", "B3", "T"):
            length = simulator.get_witness(wid).scenario.length
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
    def test_projective_identical_pair(self):
        i0, i1 = extremal_qubit_effects(1.0, 1.0, 1.0)
        assert np.allclose(
            effect_of(i0, "+").mat, effect_of(i1, "+").mat, atol=1e-12
        )
        vals = np.linalg.eigvalsh(effect_of(i0, "+").mat)
        assert np.allclose(vals, [0.0, 1.0], atol=1e-12)

    def test_trivial_measurement_at_zero(self):
        i0, _ = extremal_qubit_effects(0.0, 0.5, 0.2)
        assert np.allclose(effect_of(i0, "+").mat, identity(2), atol=1e-14)
        assert np.allclose(effect_of(i0, "-").mat, 0.0, atol=1e-14)

    def test_optimizer_argmax_family(self):
        i0, i1 = extremal_qubit_effects(1.0, 1.0, -0.458)
        for instr in (i0, i1):
            total = sum(effect_of(instr, o).mat for o in instr.outcomes)
            assert np.max(np.abs(total - identity(2))) < 1e-12
        cg = np.trace(
            (2 * effect_of(i0, "+").mat - identity(2))
            @ (2 * effect_of(i1, "+").mat - identity(2))
        ).real / 2
        assert cg == pytest.approx(-0.458, abs=1e-12)

    def test_effects_sum_to_identity_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m0, m1 = protocols.extremal_qubit_measurements(
                rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1)
            )
            for mp in (m0, m1):
                total = mp.effect_bright.mat + mp.effect_dark.mat
                assert np.array_equal(total, identity(2))

    def test_instrument_effects_complete_within_tolerance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            i0, i1 = extremal_qubit_effects(
                rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1)
            )
            for instr in (i0, i1):
                total = effect_of(instr, "+").mat + effect_of(instr, "-").mat
                assert np.max(np.abs(total - identity(2))) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            extremal_qubit_effects(1.2, 0.5, 0.0)
        with pytest.raises(ValueError):
            extremal_qubit_effects(0.5, 0.5, -1.5)


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
        for s in (0, 1):
            for o in ("+", "-"):
                assert np.allclose(
                    effect_of(rebuilt.instruments[s], o).mat,
                    effect_of(reference.instruments[s], o).mat,
                    atol=1e-12,
                )

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

"""Unit tests for the quantum core's stacked state and effect checks and
the pulse unitaries, and for the Bloch helpers in ``oracles.py``."""

import numpy as np
import pytest

from oracles import bloch_effect, bloch_to_state, pauli_matrices
from temporalwitness import qcore
from temporalwitness.protocols import _UNITARIES, PulsePrimitive
from temporalwitness.qcore import basis_ket, identity, ketbra


class TestStackedChecks:
    def test_accept_stacks(self):
        qcore.check_states(np.array([[ketbra(3, 0, 0), np.eye(3) / 3]]))
        qcore.check_effects(np.array([ketbra(3, 0, 0), identity(3), np.zeros((3, 3))]))

    def test_states_reject_bad_trace_anywhere_in_the_stack(self):
        with pytest.raises(ValueError, match="preparation trace 2.0 is not 1"):
            qcore.check_states(np.array([ketbra(2, 0, 0), np.eye(2)]), "preparation")

    def test_states_reject_non_hermitian(self):
        with pytest.raises(ValueError, match="density matrix is not Hermitian"):
            qcore.check_states(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_states_reject_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            qcore.check_states(np.array([np.eye(2) / 2, np.diag([1.5, -0.5])]))

    def test_effects_reject_spectrum_outside_unit_interval(self):
        for bad in (1.5 * np.eye(2), -0.5 * ketbra(2, 0, 0)):
            with pytest.raises(ValueError, match="spectrum"):
                qcore.check_effects(np.array([ketbra(2, 0, 0), bad]))


class TestBloch:
    def test_center_is_maximally_mixed(self):
        assert np.allclose(bloch_to_state([0, 0, 0]), identity(2) / 2)

    def test_north_pole(self):
        assert np.allclose(bloch_to_state([0, 0, 1]), ketbra(2, 0, 0))

    def test_x_axis_expectation(self):
        rho = bloch_to_state([1, 0, 0])
        sig = pauli_matrices()
        assert np.trace(sig[0] @ rho).real == pytest.approx(1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = rng.normal(size=3)
            alpha *= rng.uniform(0, 1) / np.linalg.norm(alpha)
            back = np.einsum("kij,ji->k", pauli_matrices(), bloch_to_state(alpha)).real
            assert np.allclose(back, alpha, atol=1e-12)

    def test_pure_iff_unit_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha = rng.normal(size=3)
            alpha /= np.linalg.norm(alpha)
            rho = bloch_to_state(alpha)
            purity = np.trace(rho @ rho).real
            assert purity == pytest.approx(1.0, abs=1e-12)
            mixed = bloch_to_state(0.5 * alpha)
            assert np.trace(mixed @ mixed).real < 1.0 - 1e-6

    def test_rejects_long_vector(self):
        with pytest.raises(ValueError, match="norm"):
            bloch_to_state([1.1, 0, 0])

    def test_rejects_non_finite_vector(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="norm"):
                bloch_to_state([bad, 0, 0])


class TestBlochEffect:
    def test_projector(self):
        e = bloch_effect(0.5, 1.0, [0, 0, 1])
        assert np.allclose(e, ketbra(2, 0, 0), atol=1e-14)

    def test_half_identity(self):
        e = bloch_effect(0.5, 0.0, [1, 0, 0])
        assert np.allclose(e, identity(2) / 2)

    def test_extremal_family_form(self):
        # a = 1/(1+b) with b = p/(2-p) reproduces [(2-p) 1 + p c.sigma]/2.
        rng = np.random.default_rng(9)
        sig = pauli_matrices()
        for _ in range(20):
            p = rng.uniform(0, 1)
            c = rng.normal(size=3)
            c /= np.linalg.norm(c)
            b = p / (2 - p)
            e = bloch_effect(1 / (1 + b), b, c)
            expected = 0.5 * ((2 - p) * identity(2) + p * np.einsum("i,ijk->jk", c, sig))
            assert np.allclose(e, expected, atol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bloch_effect(0.9, 0.5, [0, 0, 1])  # a > 1/(1+b)
        with pytest.raises(ValueError):
            bloch_effect(0.5, 1.2, [0, 0, 1])
        with pytest.raises(ValueError, match="unit"):
            bloch_effect(0.5, 0.5, [0, 0, 2])


class TestUnitaries:
    def test_primitives_are_unitary(self):
        for u in _UNITARIES.values():
            assert np.array_equal(u.conj().T @ u, identity(3))

    def test_swap_action(self):
        for prim, level in ((PulsePrimitive.PI01, 1), (PulsePrimitive.PI02, 2)):
            assert np.allclose(_UNITARIES[prim] @ basis_ket(3, 0), -1j * basis_ket(3, level))

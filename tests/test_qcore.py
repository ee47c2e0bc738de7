"""Unit tests for the quantum core: validated types and pure operations."""

import numpy as np
import pytest

from temporalwitness import qcore
from temporalwitness.qcore import (
    DensityMatrix,
    DimensionMismatchError,
    Effect,
    Unitary,
    basis_ket,
    bloch_effect,
    bloch_to_state,
    complement,
    identity,
    ketbra,
    pauli_matrices,
    probability,
    state_to_bloch,
)


def random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / rho.trace())


class TestDensityMatrix:
    def test_basis_state(self):
        rho = DensityMatrix.basis_state(3, 1)
        assert rho.mat[1, 1] == 1.0
        assert rho.mat.trace() == pytest.approx(1.0)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(mat)

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(mat)

    def test_immutable(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 5.0


class TestEffect:
    def test_accepts_projector(self):
        Effect(ketbra(3, 0, 0))

    def test_rejects_spectrum_above_one(self):
        with pytest.raises(ValueError, match="spectrum"):
            Effect(1.5 * np.eye(2, dtype=complex))

    def test_complement_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            b = rng.uniform(0, 1)
            a = rng.uniform(0, 1 / (1 + b))
            e = bloch_effect(a, b, n)
            total = e.mat + complement(e).mat
            assert np.array_equal(total, identity(2))


class TestProbability:
    def test_unit_effect(self):
        rng = np.random.default_rng(6)
        one = Effect(identity(3))
        assert probability(one, random_state(rng, 3)) == pytest.approx(1.0)

    def test_projector_on_maximally_mixed_qutrit(self):
        e = Effect(ketbra(3, 0, 0))
        assert probability(e, DensityMatrix.maximally_mixed(3)) == pytest.approx(1 / 3)

    def test_first_step_deterministic_for_optimal_protocol(self):
        from temporalwitness.protocols import optimal_protocol

        protocol = optimal_protocol("B1")
        e = Effect(protocol.effects[0, 0])
        assert probability(e, protocol.initial_state) == pytest.approx(1.0, abs=1e-12)

    def test_clamps_roundoff(self):
        e = Effect(ketbra(2, 0, 0))
        assert probability(e, DensityMatrix.basis_state(2, 1)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            probability(Effect(identity(2)), DensityMatrix.maximally_mixed(3))


class TestBloch:
    def test_center_is_maximally_mixed(self):
        assert np.allclose(bloch_to_state([0, 0, 0]).mat, identity(2) / 2)

    def test_north_pole(self):
        assert np.allclose(bloch_to_state([0, 0, 1]).mat, ketbra(2, 0, 0))

    def test_x_axis_expectation(self):
        rho = bloch_to_state([1, 0, 0])
        sig = pauli_matrices()
        assert np.trace(sig[0] @ rho.mat).real == pytest.approx(1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = rng.normal(size=3)
            alpha *= rng.uniform(0, 1) / np.linalg.norm(alpha)
            back = state_to_bloch(bloch_to_state(alpha))
            assert np.allclose(back, alpha, atol=1e-12)

    def test_pure_iff_unit_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha = rng.normal(size=3)
            alpha /= np.linalg.norm(alpha)
            rho = bloch_to_state(alpha)
            purity = np.trace(rho.mat @ rho.mat).real
            assert purity == pytest.approx(1.0, abs=1e-12)
            mixed = bloch_to_state(0.5 * alpha)
            assert np.trace(mixed.mat @ mixed.mat).real < 1.0 - 1e-6

    def test_rejects_long_vector(self):
        with pytest.raises(ValueError, match="norm"):
            bloch_to_state([1.1, 0, 0])


class TestBlochEffect:
    def test_projector(self):
        e = bloch_effect(0.5, 1.0, [0, 0, 1])
        assert np.allclose(e.mat, ketbra(2, 0, 0), atol=1e-14)

    def test_half_identity(self):
        e = bloch_effect(0.5, 0.0, [1, 0, 0])
        assert np.allclose(e.mat, identity(2) / 2)

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
            assert np.allclose(e.mat, expected, atol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bloch_effect(0.9, 0.5, [0, 0, 1])  # a > 1/(1+b)
        with pytest.raises(ValueError):
            bloch_effect(0.5, 1.2, [0, 0, 1])
        with pytest.raises(ValueError, match="unit"):
            bloch_effect(0.5, 0.5, [0, 0, 2])


class TestUnitaries:
    def test_constructors_are_unitary(self):
        for u in (qcore.pi01(0.3), qcore.pi02(-0.7), qcore.idle(0.1, 0.2)):
            assert np.allclose(u.mat.conj().T @ u.mat, identity(3), atol=1e-12)

    def test_swap_action(self):
        assert np.allclose(qcore.pi01().mat @ basis_ket(3, 0), -1j * basis_ket(3, 1))
        assert np.allclose(qcore.pi02().mat @ basis_ket(3, 0), -1j * basis_ket(3, 2))

    def test_phases_recorded(self):
        assert qcore.idle(0.1, 0.2).phases == (0.1, 0.2)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            Unitary(np.diag([1.0, 0.5]).astype(complex))

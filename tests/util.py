"""Shared builders for randomized protocols used across test modules."""

import numpy as np

from temporalwitness import protocols
from temporalwitness.protocols import OUTCOME_LABELS
from temporalwitness.qcore import DensityMatrix, Effect, bloch_effect


def random_pure_state(rng, dim):
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DensityMatrix.from_ket(ket)


def random_qubit_protocol(rng):
    """A random two-setting qubit protocol: arbitrary two-outcome effects
    with arbitrary (possibly outcome-dependent) pure re-preparations."""
    instruments = {}
    for setting in range(2):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        b = rng.uniform(0, 1)
        a = rng.uniform(0, 1 / (1 + b))
        plus = bloch_effect(a, b, axis)
        minus = Effect(np.eye(2) - plus.mat)
        instruments[setting] = protocols.measure_and_prepare_instrument(
            effects={"+": plus, "-": minus},
            prepared={label: random_pure_state(rng, 2) for label in OUTCOME_LABELS},
        )
    return protocols.Protocol(
        dim=2,
        initial_state=random_pure_state(rng, 2),
        instruments=instruments,
    )


def qubit_effect_parameters(protocol):
    """Recover (a0, b0, a1, b1, cos_gamma) of a random qubit protocol's
    "+" effects, for comparison against the parametrized bound."""
    from temporalwitness.qcore import effect_of, pauli_matrices

    sig = pauli_matrices()
    params = []
    axes = []
    for setting in (0, 1):
        mat = effect_of(protocol.instruments[setting], "+").mat
        w = np.trace(mat).real / 2
        v = np.array([np.trace(s @ mat).real / 2 for s in sig])
        norm = np.linalg.norm(v)
        a = w
        b = norm / w if w > 1e-12 else 0.0
        params.append((a, b))
        axes.append(v / norm if norm > 1e-12 else np.array([1.0, 0.0, 0.0]))
    cos_gamma = float(np.clip(axes[0] @ axes[1], -1.0, 1.0))
    (a0, b0), (a1, b1) = params
    return a0, b0, a1, b1, cos_gamma


def random_qutrit_protocol(rng):
    """A random two-setting measure-and-prepare qutrit protocol."""
    instruments = {}
    for setting in range(2):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = h + h.conj().T
        _, vecs = np.linalg.eigh(h)
        spectrum = rng.uniform(0, 1, size=3)
        plus = Effect((vecs * spectrum) @ vecs.conj().T)
        minus = Effect(np.eye(3) - plus.mat)
        instruments[setting] = protocols.measure_and_prepare_instrument(
            effects={"+": plus, "-": minus},
            prepared={label: random_pure_state(rng, 3) for label in OUTCOME_LABELS},
        )
    return protocols.Protocol(
        dim=3,
        initial_state=random_pure_state(rng, 3),
        instruments=instruments,
    )

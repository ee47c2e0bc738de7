"""Shared builders for randomized protocols used across test modules."""

import numpy as np

from oracles import bloch_effect, pauli_matrices
from temporalwitness import protocols


def random_pure_state(rng, dim):
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    ket /= np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def random_state(rng, dim, mixed=False):
    """A random pure state, or with ``mixed`` a random full-rank one."""
    if not mixed:
        return random_pure_state(rng, dim)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def random_measurement(rng, outcomes, dim):
    """Random effects of one setting, diagonal in one random basis: each
    eigenvalue's unit weight is cut at sorted uniform points, and the last
    effect is the identity minus the others."""
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    _, vecs = np.linalg.eigh(h + h.conj().T)
    cuts = np.sort(rng.uniform(0, 1, size=(outcomes - 1, dim)), axis=0)
    effects = [(vecs * w) @ vecs.conj().T for w in np.diff(cuts, axis=0, prepend=0.0)]
    return effects + [np.eye(dim) - sum(effects)]


def random_protocol(rng, settings, outcomes, dim, mixed=False):
    """A random measure-and-prepare protocol whose preparations depend on
    the outcome; with ``mixed``, the preparations and the initial state are
    full-rank mixed states instead of pure ones."""
    effects, preparations = [], []
    for _ in range(settings):
        effects.append(random_measurement(rng, outcomes, dim))
        preparations.append([random_state(rng, dim, mixed) for _ in range(outcomes)])
    return protocols.Protocol(
        initial_state=random_state(rng, dim, mixed),
        effects=effects,
        preparations=preparations,
    )


def random_qutrit_protocol(rng):
    """A random two-setting, two-outcome measure-and-prepare qutrit protocol."""
    return random_protocol(rng, 2, 2, 3)


def random_qubit_protocol(rng):
    """A random two-setting qubit protocol: arbitrary two-outcome effects
    with arbitrary (possibly outcome-dependent) pure re-preparations."""
    effects, preparations = [], []
    for _ in range(2):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        b = rng.uniform(0, 1)
        a = rng.uniform(0, 1 / (1 + b))
        plus = bloch_effect(a, b, axis)
        effects.append([plus, np.eye(2) - plus])
        preparations.append([random_pure_state(rng, 2) for _ in range(2)])
    return protocols.Protocol(
        initial_state=random_pure_state(rng, 2),
        effects=effects,
        preparations=preparations,
    )


def qubit_effect_parameters(protocol):
    """Recover (a0, b0, a1, b1, cos_gamma) of a random qubit protocol's
    "+" effects, for comparison against the parametrized bound."""
    sig = pauli_matrices()
    params = []
    axes = []
    for setting in (0, 1):
        mat = protocol.effects[setting, 0]
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

"""Finite-dimensional quantum objects: states, effects and unitaries.

Everything is dense, exact-ish (double precision) and validated at
construction time. Dimension is a runtime parameter; the library exercises
dims 2 and 3 but nothing here assumes a fixed size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Tolerances for construction-time checks. Dims are tiny, so double
# precision leaves orders of magnitude of headroom; anything worse than
# these is a logic error, not numerical noise.
HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
COMPLETENESS_TOL = 1e-10
PROB_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operands live in Hilbert spaces of different dimensions."""


def _as_square_complex(mat: np.ndarray | Sequence) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("matrix has non-finite entries")
    return arr


def _freeze(mat: np.ndarray) -> np.ndarray:
    out = np.array(mat, dtype=complex)
    out.setflags(write=False)
    return out


def _check_hermitian(mats: np.ndarray, what: str) -> None:
    dev = np.max(np.abs(mats - np.swapaxes(mats, -1, -2).conj()))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e})")


def check_states(mats: np.ndarray, what: str = "density matrix") -> None:
    """Raise ``ValueError`` unless every matrix on the last two axes is a
    state: Hermitian, unit trace, positive semidefinite."""
    _check_hermitian(mats, what)
    traces = np.trace(mats, axis1=-2, axis2=-1).real
    bad = traces[np.abs(traces - 1.0) > TRACE_TOL]
    if bad.size:
        raise ValueError(f"{what} trace {bad[0]} is not 1")
    lo = np.linalg.eigvalsh(mats)[..., 0].min()
    if lo < -PSD_TOL:
        raise ValueError(f"{what} has negative eigenvalue {lo:.3e}")


def check_effects(mats: np.ndarray, what: str = "effect") -> None:
    """Raise ``ValueError`` unless every matrix on the last two axes is an
    effect: Hermitian with spectrum inside [0, 1]."""
    _check_hermitian(mats, what)
    vals = np.linalg.eigvalsh(mats)
    lo, hi = vals[..., 0].min(), vals[..., -1].max()
    if lo < -PSD_TOL or hi > 1.0 + PSD_TOL:
        raise ValueError(f"{what} spectrum [{lo:.3e}, {hi:.3e}] not within [0, 1]")


def identity(dim: int) -> np.ndarray:
    if dim < 1:
        raise ValueError("dimension must be positive")
    return np.eye(dim, dtype=complex)


def pauli_matrices() -> np.ndarray:
    """The three Pauli matrices, shape ``(3, 2, 2)``."""
    return np.array(
        [
            [[0, 1], [1, 0]],
            [[0, -1j], [1j, 0]],
            [[1, 0], [0, -1]],
        ],
        dtype=complex,
    )


def basis_ket(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    ket = np.zeros(dim, dtype=complex)
    ket[index] = 1.0
    return ket


def ketbra(dim: int, i: int, j: int) -> np.ndarray:
    """The matrix unit ``|i><j|``."""
    mat = np.zeros((dim, dim), dtype=complex)
    mat[i, j] = 1.0
    return mat


# ---------------------------------------------------------------------------
# Validated value types. All are immutable after construction; every
# operation below is a pure function, so concurrent use is safe.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A quantum state: Hermitian, unit trace, positive semidefinite."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_square_complex(self.mat)
        check_states(arr)
        object.__setattr__(self, "mat", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_ket(cls, ket: np.ndarray | Sequence) -> "DensityMatrix":
        vec = np.asarray(ket, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            raise ValueError("cannot build a state from the zero vector")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "DensityMatrix":
        return cls.from_ket(basis_ket(dim, index))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(identity(dim) / dim)


@dataclass(frozen=True, eq=False)
class Effect:
    """A measurement effect: Hermitian with spectrum inside [0, 1]."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_square_complex(self.mat)
        check_effects(arr)
        object.__setattr__(self, "mat", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def complement(effect: Effect) -> Effect:
    """The opposite-outcome effect ``1 - E``, exact by construction."""
    return Effect(identity(effect.dim) - effect.mat)


@dataclass(frozen=True, eq=False)
class Unitary:
    """A unitary matrix, optionally remembering the free phase parameters
    that went into its construction."""

    mat: np.ndarray
    phases: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        arr = _as_square_complex(self.mat)
        dev = np.max(np.abs(arr.conj().T @ arr - identity(arr.shape[0])))
        if dev > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        object.__setattr__(self, "mat", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def pi01(phase: float = 0.0) -> Unitary:
    """Qutrit unitary swapping levels 0 and 1; the spectator level 2 picks
    up an unintended but fixed phase."""
    mat = -1j * (ketbra(3, 0, 1) + ketbra(3, 1, 0)) + np.exp(1j * phase) * ketbra(3, 2, 2)
    return Unitary(mat, phases=(phase,))


def pi02(phase: float = 0.0) -> Unitary:
    """Qutrit unitary swapping levels 0 and 2, with a free phase on level 1."""
    mat = -1j * (ketbra(3, 0, 2) + ketbra(3, 2, 0)) + np.exp(1j * phase) * ketbra(3, 1, 1)
    return Unitary(mat, phases=(phase,))


def idle(phase1: float = 0.0, phase2: float = 0.0) -> Unitary:
    """Qutrit idling (free evolution), with free phases on levels 1 and 2."""
    mat = (
        ketbra(3, 0, 0)
        + np.exp(1j * phase1) * ketbra(3, 1, 1)
        + np.exp(1j * phase2) * ketbra(3, 2, 2)
    )
    return Unitary(mat, phases=(phase1, phase2))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def probability(effect: Effect, state: DensityMatrix) -> float:
    """Outcome probability ``tr(E rho)``, clamped to [0, 1].

    Values outside ``[-PROB_TOL, 1 + PROB_TOL]`` indicate a logic error
    upstream and raise instead of being clamped.
    """
    if effect.dim != state.dim:
        raise DimensionMismatchError(
            f"effect dim {effect.dim} does not match state dim {state.dim}"
        )
    p = float(np.trace(effect.mat @ state.mat).real)
    if p < -PROB_TOL or p > 1.0 + PROB_TOL:
        raise ValueError(f"probability {p} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, p))


def bloch_to_state(alpha: np.ndarray | Sequence[float]) -> DensityMatrix:
    """Qubit state ``(1 + alpha . sigma) / 2`` from a Bloch vector."""
    vec = np.asarray(alpha, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    norm = float(np.linalg.norm(vec))
    if norm > 1.0 + TRACE_TOL:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    mat = 0.5 * (identity(2) + np.einsum("i,ijk->jk", vec, pauli_matrices()))
    return DensityMatrix(mat)


def state_to_bloch(state: DensityMatrix) -> np.ndarray:
    """Bloch vector of a qubit state; inverse of :func:`bloch_to_state`."""
    if state.dim != 2:
        raise DimensionMismatchError("Bloch decomposition requires dim 2")
    sig = pauli_matrices()
    return np.array([np.trace(s @ state.mat).real for s in sig])


def check_bloch_parameters(a: float, b: float) -> None:
    """Raise ``ValueError`` unless ``b in [0, 1]`` and ``a in [0, 1/(1+b)]``,
    the domain of :func:`bloch_effect`."""
    if not -PSD_TOL <= b <= 1.0 + PSD_TOL:
        raise ValueError(f"b={b} outside [0, 1]")
    if not -PSD_TOL <= a <= 1.0 / (1.0 + min(b, 1.0)) + PSD_TOL:
        raise ValueError(f"a={a} outside [0, 1/(1+b)]")


def clamp_cos_gamma(cos_gamma: float) -> float:
    """Raise ``ValueError`` unless the cosine of the angle between two effect
    axes lies in ``[-1, 1]`` to within 1e-12; return it clamped onto
    ``[-1, 1]``."""
    if not -1.0 - 1e-12 <= cos_gamma <= 1.0 + 1e-12:
        raise ValueError(f"cos_gamma={cos_gamma} outside [-1, 1]")
    return min(1.0, max(-1.0, cos_gamma))


def bloch_effect(a: float, b: float, n: np.ndarray | Sequence[float]) -> Effect:
    """Qubit effect ``a (1 + b n . sigma)`` with ``n`` a unit vector.

    The domain ``b in [0, 1]``, ``a in [0, 1/(1+b)]`` is exactly the set of
    parameters producing a valid effect with nonnegative anisotropy.
    """
    vec = np.asarray(n, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError("axis must have 3 components")
    if abs(float(np.linalg.norm(vec)) - 1.0) > PSD_TOL:
        raise ValueError("axis must be a unit vector")
    check_bloch_parameters(a, b)
    mat = a * (identity(2) + b * np.einsum("i,ijk->jk", vec, pauli_matrices()))
    return Effect(mat)

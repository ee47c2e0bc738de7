"""Dense matrix helpers for the measure-and-prepare model.

The module holds the state and effect checks, which test a whole stack of
matrices on its last two axes in one pass; the basis kets and matrix units
that the pulse unitaries are built from; the check on Bloch-parametrized
effect parameters; and the clamp on the cosine between two effect axes.
Every state, effect and unitary is a plain complex array, and
``protocols.Protocol`` is where they are checked. Dimension is a runtime
parameter: the library uses dims 2 and 3, and no check assumes a size.
"""

from __future__ import annotations

import numpy as np

# Tolerances for the checks. Dims are tiny, so double precision leaves
# orders of magnitude of headroom; anything worse than these is a logic
# error, not numerical noise.
HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
COMPLETENESS_TOL = 1e-10


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


def check_bloch_parameters(a: float, b: float) -> None:
    """Raise ``ValueError`` unless ``b in [0, 1]`` and ``a in [0, 1/(1+b)]``:
    exactly the parameters for which ``a (1 + b n . sigma)``, with ``n`` a
    unit vector, is an effect."""
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

"""Qubit upper bounds on temporal witnesses.

Two routes are provided. ``tee_closed_form`` evaluates the nested
square-root expression for the three-step witness on the extremal effect
family. ``nested_generic_bound`` computes, for arbitrary fixed two-outcome
qubit effects, the exact optimum of any witness over all initial states
and all history-dependent post-measurement states, by propagating
max-eigenvalue value functions backwards through the measurement tree.
Derivative-free outer optimizers then search the effect parameters.

Every 2x2 operator that appears is a real combination of the identity and
Pauli matrices, so operators are carried as coefficient 4-vectors
``(w, v1, v2, v3)`` with largest eigenvalue ``w + |v|``; this keeps the
objective cheap enough for exhaustive grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from . import qcore
from .simulator import Witness

# Seed for the randomized restarts of the generic optimizer; fixed so that
# reported traces are reproducible.
DEFAULT_SEED = 20240601
# Grid points per batch of the generic optimizer's exhaustive grid.
GRID_CHUNK = 10_000


@dataclass(frozen=True)
class QubitBoundParams:
    """Extremal-family parameters: both effects saturate ``a = 1/(1+b)``,
    rewritten as ``E(+|s) = [(2-p) 1 + p n.sigma]/2`` with ``p, q`` the
    weights of the two settings and ``cos_gamma`` the axis overlap."""

    p: float
    q: float
    cos_gamma: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError("p and q must lie in [0, 1]")
        if not -1.0 <= self.cos_gamma <= 1.0:
            raise ValueError("cos_gamma must lie in [-1, 1]")


@dataclass(frozen=True)
class BoundResult:
    """Outcome of a bound optimization.

    ``effect_params`` is the general parametrization ``(a0, b0, a1, b1,
    cos_gamma)``; ``params`` is its extremal-family view, present when the
    optimum sits on the ``a = 1/(1+b)`` boundary.
    """

    value: float
    method: str
    effect_params: tuple[float, float, float, float, float] | None
    params: QubitBoundParams | None
    evaluations: int
    restarts: int = 0
    seed: int | None = None


def _clamped_sqrt(x):
    return np.sqrt(np.maximum(x, 0.0))


def tee_closed_form(params: QubitBoundParams | tuple[float, float, float]) -> float:
    """The closed-form qubit optimum of the three-step witness on the
    extremal effect family.

    Radicands are mathematically nonnegative on the domain; they are
    clamped at zero to absorb roundoff at the ``p = q``, ``cos_gamma = 1``
    degeneracies.
    """
    if not isinstance(params, QubitBoundParams):
        params = QubitBoundParams(*params)
    return float(_tee_closed_form_array(params.p, params.q, params.cos_gamma))


def _tee_closed_form_array(p, q, cg):
    root = _clamped_sqrt(p * p + q * q - 2.0 * p * q * cg)
    x0 = 2.0 - p + q + root
    x1 = p + 2.0 - q + root
    root = _clamped_sqrt((p * x0) ** 2 + (q * x1) ** 2 - 2.0 * p * q * x0 * x1 * cg)
    y0 = (2.0 - p) * x0 + q * x1 + root
    y1 = p * x0 + (2.0 - q) * x1 + root
    root = _clamped_sqrt((p * y0) ** 2 + (q * y1) ** 2 + 2.0 * p * q * y0 * y1 * cg)
    return ((2.0 - p) * y0 + (2.0 - q) * y1 + root) / 8.0


# ---------------------------------------------------------------------------
# Nested max-eigenvalue bound for fixed effects
# ---------------------------------------------------------------------------

def _effect_four_vector(effect: qcore.Effect) -> np.ndarray:
    """Coefficients ``(w, v)`` of an effect in the identity/Pauli basis."""
    sig = qcore.pauli_matrices()
    w = float(np.trace(effect.mat).real) / 2.0
    v = [float(np.trace(s @ effect.mat).real) / 2.0 for s in sig]
    return np.array([w, *v])


def _nested_bound(coeffs: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Backward loop over the levels of the measurement tree.

    ``coeffs`` is a witness's coefficient history tensor and
    ``ops[..., x, a, :]`` the 4-vector of effect ``a|x``, with leading batch
    axes. Each level contracts the last ``(x, a)`` pair of the values with
    the effects; the value of a history is the largest eigenvalue of that
    sum, which for ``w 1 + v.sigma`` is ``w + |v|``.
    """
    batch = ops.shape[:-3]
    m, d = ops.shape[-3:-1]
    values = coeffs
    for level in range(coeffs.ndim // 2, 0, -1):
        effects = ops.reshape(batch + (1,) * (2 * level - 2) + ops.shape[-3:])
        op = 0.0
        for x in range(m):
            for a in range(d):
                op = op + values[..., x, a, None] * effects[..., x, a, :]
        values = op[..., 0] + np.sqrt(op[..., 1] ** 2 + op[..., 2] ** 2 + op[..., 3] ** 2)
    return values


def _check_two_setting_binary(witness: Witness) -> None:
    if witness.scenario.settings != 2 or witness.scenario.outcomes != 2:
        raise ValueError(
            "the parametrized qubit bound covers two settings with two outcomes"
        )


def nested_generic_bound(
    witness: Witness,
    a0: float,
    b0: float,
    a1: float,
    b1: float,
    cos_gamma: float,
) -> float:
    """Exact qubit optimum of a witness for the fixed effects
    ``E(+|0) = a0 (1 + b0 c.sigma)`` and ``E(+|1) = a1 (1 + b1 d.sigma)``,
    optimizing over the initial state and every history-dependent
    post-measurement state.

    ``c`` is pinned along the first axis and ``d`` in the 1-2 plane at
    angle ``gamma``; only the relative angle matters.
    """
    _check_two_setting_binary(witness)
    if not -1.0 - 1e-12 <= cos_gamma <= 1.0 + 1e-12:
        raise ValueError(f"cos_gamma={cos_gamma} outside [-1, 1]")
    cg = min(1.0, max(-1.0, cos_gamma))
    c = np.array([1.0, 0.0, 0.0])
    d = np.array([cg, math.sqrt(max(0.0, 1.0 - cg * cg)), 0.0])
    plus0 = qcore.bloch_effect(a0, b0, c)
    plus1 = qcore.bloch_effect(a1, b1, d)
    ops = np.stack(
        [
            np.stack([_effect_four_vector(plus0), _effect_four_vector(qcore.complement(plus0))]),
            np.stack([_effect_four_vector(plus1), _effect_four_vector(qcore.complement(plus1))]),
        ]
    )
    return float(_nested_bound(witness.coefficients, ops))


def _ops_from_parameters(s0, b0, s1, b1, cg) -> np.ndarray:
    """Effect 4-vectors from box coordinates; ``s = a (1 + b)`` rescales the
    coupled domain ``a in [0, 1/(1+b)]`` onto the unit box."""
    s0, b0, s1, b1, cg = np.broadcast_arrays(s0, b0, s1, b1, cg)
    a0 = s0 / (1.0 + b0)
    a1 = s1 / (1.0 + b1)
    sg = _clamped_sqrt(1.0 - cg * cg)
    batch = np.shape(s0)
    ops = np.zeros(batch + (2, 2, 4))
    ops[..., 0, 0, 0] = a0
    ops[..., 0, 0, 1] = a0 * b0
    ops[..., 0, 1, 0] = 1.0 - a0
    ops[..., 0, 1, 1] = -a0 * b0
    ops[..., 1, 0, 0] = a1
    ops[..., 1, 0, 1] = a1 * b1 * cg
    ops[..., 1, 0, 2] = a1 * b1 * sg
    ops[..., 1, 1, 0] = 1.0 - a1
    ops[..., 1, 1, 1] = -a1 * b1 * cg
    ops[..., 1, 1, 2] = -a1 * b1 * sg
    return ops


# ---------------------------------------------------------------------------
# Outer optimizers
# ---------------------------------------------------------------------------

def _refine(
    objective: Callable[[np.ndarray], float],
    start: np.ndarray,
    box: Sequence[tuple[float, float]],
    budget: int,
) -> tuple[float, np.ndarray, int]:
    """Nelder-Mead ascent from ``start``, restricted to the non-degenerate
    axes of ``box``. Returns (value, point, evaluations)."""
    free = [i for i, (lo, hi) in enumerate(box) if hi - lo > 1e-15]
    point = np.array(start, dtype=float)
    if not free:
        return objective(point), point, 1

    def neg(z: np.ndarray) -> float:
        full = point.copy()
        full[free] = z
        return -objective(full)

    res = minimize(
        neg,
        point[free],
        method="Nelder-Mead",
        bounds=[box[i] for i in free],
        options={"xatol": 1e-9, "fatol": 1e-12, "maxfev": budget},
    )
    best = point.copy()
    best[free] = res.x
    return -res.fun, best, int(res.nfev)


def _grid_axes(box: Sequence[tuple[float, float]], resolution: int) -> list[np.ndarray]:
    return [np.linspace(lo, hi, resolution) for lo, hi in box]


def optimize_tee_bound(
    grid_resolution: int = 40,
    refinement_budget: int = 2000,
    box: Sequence[tuple[float, float]] | None = None,
) -> BoundResult:
    """Globally maximize the closed-form three-step bound over
    ``(p, q, cos_gamma)`` by exhaustive grid search plus simplex refinement
    from the ten best grid cells."""
    if grid_resolution < 20:
        raise ValueError("grid resolution must be at least 20 per axis")
    if box is None:
        box = ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
    axes = _grid_axes(box, grid_resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    values = _tee_closed_form_array(*mesh)
    flat = values.ravel()
    evaluations = flat.size
    order = np.argsort(flat)[::-1][:10]
    points = np.stack([m.ravel()[order] for m in mesh], axis=1)

    best_value = float(flat[order[0]])
    best_point = points[0]
    for start in points:
        val, pt, nfev = _refine(
            lambda z: float(_tee_closed_form_array(*z)), start, box, refinement_budget
        )
        evaluations += nfev
        if val > best_value:
            best_value, best_point = val, pt
    params = QubitBoundParams(*(float(v) for v in best_point))
    a0 = 1.0 / (1.0 + params.p / (2.0 - params.p))
    a1 = 1.0 / (1.0 + params.q / (2.0 - params.q))
    return BoundResult(
        value=best_value,
        method="closed_form",
        effect_params=(
            a0,
            params.p / (2.0 - params.p),
            a1,
            params.q / (2.0 - params.q),
            params.cos_gamma,
        ),
        params=params,
        evaluations=evaluations,
    )


def optimize_qubit_bound(
    witness: Witness,
    restarts: int = 50,
    seed: int = DEFAULT_SEED,
    grid_resolution: int = 6,
    refinement_budget: int = 2000,
) -> BoundResult:
    """Maximize the nested qubit bound of a witness over all two-outcome
    effect pairs ``(a0, b0, a1, b1, cos_gamma)``.

    Multi-start strategy: a coarse exhaustive grid, simplex refinement from
    the ten best cells, then ``restarts`` seeded random starts. The search
    runs in rescaled coordinates ``s = a (1 + b)`` so the box is a product.
    """
    _check_two_setting_binary(witness)
    box = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))

    coeffs = witness.coefficients

    def objective_batch(z: Sequence[np.ndarray]) -> np.ndarray:
        return _nested_bound(coeffs, _ops_from_parameters(*z))

    def objective(z: np.ndarray) -> float:
        return float(objective_batch(tuple(z)))

    axes = _grid_axes(box, grid_resolution)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))
    # Chunks bound the memory of the level tensors on fine grids.
    flat = np.concatenate([
        objective_batch(chunk.T)
        for chunk in np.split(grid, range(GRID_CHUNK, len(grid), GRID_CHUNK))
    ])
    evaluations = flat.size
    order = np.argsort(flat)[::-1][:10]
    starts = [grid[k] for k in order]

    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        z = rng.uniform([lo for lo, _ in box], [hi for _, hi in box])
        starts.append(z)

    best_value = float(flat[order[0]])
    best_point = starts[0]
    for start in starts:
        val, pt, nfev = _refine(objective, start, box, refinement_budget)
        evaluations += nfev
        if val > best_value:
            best_value, best_point = val, pt

    s0, b0, s1, b1, cg = (float(v) for v in best_point)
    effect_params = (s0 / (1.0 + b0), b0, s1 / (1.0 + b1), b1, cg)
    params = None
    if s0 > 1.0 - 1e-6 and s1 > 1.0 - 1e-6:
        params = QubitBoundParams(
            p=2.0 * b0 / (1.0 + b0), q=2.0 * b1 / (1.0 + b1), cos_gamma=cg
        )
    return BoundResult(
        value=best_value,
        method="nested_generic",
        effect_params=effect_params,
        params=params,
        evaluations=evaluations,
        restarts=restarts,
        seed=seed,
    )

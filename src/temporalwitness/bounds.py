"""Qubit upper bounds on temporal witnesses.

Two routes are provided. ``tee_closed_form`` evaluates the nested
square-root expression for the three-step witness on the extremal effect
family. ``nested_generic_bound`` computes, for arbitrary fixed two-outcome
qubit effects, the exact optimum of any witness over all initial states
and all history-dependent post-measurement states, by propagating
max-eigenvalue value functions backwards through the measurement tree.
Derivative-free outer optimizers then search the effect parameters: an
exhaustive grid, then Nelder-Mead from the best grid cells and from seeded
random starts. The Nelder-Mead restarts run in lockstep on arrays: the live
runs are the rows of one simplex array, and each iteration makes one
speculative objective call on the reflection, expansion and both
contraction points of every run. Each run keeps the values scipy's bounded
Nelder-Mead would have computed and so takes its steps exactly; only
shrinks need a second call.

The ``nested_generic`` value is a multistart optimum: a lower estimate of
the qubit supremum of the witness, not a certified bound.

Every 2x2 operator that appears is a real combination of the identity and
Pauli matrices, so operators are carried as coefficient 4-vectors
``(w, v1, v2, v3)`` with largest eigenvalue ``w + |v|``; this keeps the
objective cheap enough for exhaustive grids. The effects are laid out batch
last, ``(m d, 4, points)``, so each level of the nested bound is one product
and one sum over the ``(x, a)`` axis, which numpy adds in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import qcore
from .simulator import Witness

# Seed for the randomized restarts of the generic optimizer; fixed so that
# reported traces are reproducible.
DEFAULT_SEED = 20240601
# Cells of the level products per batch of the generic optimizer's
# exhaustive grid.
GRID_CHUNK_CELLS = 1 << 19


def __getattr__(name: str):
    # Lazy shim: nothing here calls scipy's ``minimize``, but the traced
    # benchmark run (perfbench/spans.py) wraps ``bounds.minimize`` by name.
    # Importing scipy only on that lookup keeps it off the CLI's start-up
    # path. The shim goes once that span moves to ``_lockstep_nelder_mead``.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

def _nested_bound(coeffs: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Backward loop over the levels of the measurement tree.

    ``coeffs`` is a witness's coefficient history tensor and
    ``ops[x d + a, :, ...]`` the 4-vector of effect ``a|x``, with the batch
    axes last. Each level multiplies the last ``(x, a)`` pair of the values
    into the effects and sums it out in index order; the value of a history
    is the largest eigenvalue of that sum, which for ``w 1 + v.sigma`` is
    ``w + |v|``.
    """
    md = ops.shape[0]
    values = coeffs.reshape((-1,) + (1,) * (ops.ndim - 2))
    for _ in range(coeffs.ndim // 2):
        op = np.add.reduce(values.reshape((-1, md, 1) + values.shape[1:]) * ops, axis=1)
        values = op[:, 0] + np.sqrt(np.add.reduce(op[:, 1:] ** 2, axis=1))
    return values[0]


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
    qcore.check_bloch_parameters(a0, b0)
    qcore.check_bloch_parameters(a1, b1)
    cg = min(1.0, max(-1.0, cos_gamma))
    return float(_nested_bound(witness.coefficients, _effect_ops(a0, b0, a1, b1, cg)))


def _effect_ops(a0, b0, a1, b1, cg) -> np.ndarray:
    """The 4-vectors of ``E(+|0)``, ``E(-|0)``, ``E(+|1)``, ``E(-|1)`` as the
    rows of an ``(m d, 4, ...)`` array, batch axes last."""
    a0, b0, a1, b1, cg = np.broadcast_arrays(a0, b0, a1, b1, cg)
    x0 = a0 * b0
    x1, y1 = a1 * b1 * cg, a1 * b1 * _clamped_sqrt(1.0 - cg * cg)
    zero = np.zeros(a0.shape)
    return np.array([[a0, x0, zero, zero], [1.0 - a0, -x0, zero, zero],
                     [a1, x1, y1, zero], [1.0 - a1, -x1, -y1, zero]])


def _ops_from_parameters(s0, b0, s1, b1, cg) -> np.ndarray:
    """Effect 4-vectors from box coordinates; ``s = a (1 + b)`` rescales the
    coupled domain ``a in [0, 1/(1+b)]`` onto the unit box."""
    return _effect_ops(s0 / (1.0 + b0), b0, s1 / (1.0 + b1), b1, cg)


# ---------------------------------------------------------------------------
# Outer optimizers
# ---------------------------------------------------------------------------

# scipy's Nelder-Mead coefficients (non-adaptive), initial-simplex steps and
# the refinement tolerances.
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
NONZDELT, ZDELT = 0.05, 0.00025
XATOL, FATOL = 1e-9, 1e-12
# The reflection, expansion, outside and inside contraction points are
# ``c xbar - c' worst`` with scipy's coefficients ``(c, c')``, one row each;
# the inside contraction's ``+ PSI worst`` is ``- (-PSI) worst``, the same
# rounding.
TRIAL_STEPS = np.array([[1 + RHO, RHO], [1 + RHO * CHI, RHO * CHI],
                        [1 + PSI * RHO, PSI * RHO], [1 - PSI, -PSI]])[:, :, None]


def _lockstep_nelder_mead(
    objective_batch: Callable[[Sequence[np.ndarray]], np.ndarray],
    starts: Sequence[np.ndarray],
    box: Sequence[tuple[float, float]],
    budget: int,
) -> list[tuple[float, np.ndarray, int]]:
    """Nelder-Mead ascent from every start at once, restricted to the
    non-degenerate axes of ``box``; returns ``(value, point, evaluations)``
    per start.

    Each run takes the steps of scipy's bounded minimization exactly
    (``adaptive=False``, ``xatol=XATOL``, ``fatol=FATOL``,
    ``maxfev=budget >= 1``). The live runs are rows of one simplex array;
    each iteration evaluates the reflection, expansion and both contraction
    points of every row in one call of ``objective_batch``, which maps
    coordinate arrays to values elementwise, keeps the values scipy would
    have computed and counts only those calls. Shrinks take a second call.
    """
    starts = np.array(starts, dtype=float)
    free = [i for i, (lo, hi) in enumerate(box) if hi - lo > 1e-15]
    if not free:
        values = objective_batch(starts.T)
        return [(float(v), start, 1) for v, start in zip(values, starts)]
    lower = np.array([box[i][0] for i in free], dtype=float)
    upper = np.array([box[i][1] for i in free], dtype=float)
    n = len(free)

    def minus_objective(owners, points):
        full = starts[owners]
        full[:, free] = points
        return -objective_batch(full.T)

    def sort(sim, fsim):
        order = np.argsort(fsim, axis=1)
        by_run = np.arange(len(order))[:, None]
        return sim[by_run, order], fsim[by_run, order]

    x0 = np.clip(starts[:, free], lower, upper)
    sim = np.repeat(x0[:, None], n + 1, axis=1)
    axis = np.arange(n)
    sim[:, axis + 1, axis] = np.where(x0 != 0, (1 + NONZDELT) * x0, ZDELT)
    # Vertices pushed past the upper bound are reflected into the box.
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    rows = np.arange(len(starts))
    first = min(n + 1, budget)
    fsim = np.full((len(rows), n + 1), np.inf)
    fsim[:, :first] = minus_objective(
        np.repeat(rows, first), sim[:, :first].reshape(-1, n)).reshape(len(rows), first)
    nfev = np.full(len(rows), first)
    # scipy sorts twice here; argsort need not keep ties in place.
    sim, fsim = sort(*sort(sim, fsim))
    results: list = [None] * len(rows)
    while True:
        done = (nfev >= budget) | (
            (np.max(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2)) <= XATOL)
            & (np.max(np.abs(fsim[:, :1] - fsim[:, 1:]), axis=1) <= FATOL)
        )
        if done.any():
            for k in np.flatnonzero(done):
                point = starts[rows[k]].copy()
                point[free] = sim[k, 0]
                results[rows[k]] = (float(-np.min(fsim[k])), point, int(nfev[k]))
            if done.all():
                return results
            rows, sim, fsim, nfev = rows[~done], sim[~done], fsim[~done], nfev[~done]

        xbar = np.add.reduce(sim[:, :-1], 1) / n
        trial = TRIAL_STEPS[:, 0] * xbar[:, None] - TRIAL_STEPS[:, 1] * sim[:, -1:]
        trial = np.clip(trial, lower, upper)
        ftrial = minus_objective(np.repeat(rows, 4), trial.reshape(-1, n)).reshape(-1, 4)
        fxr, fxe, fxc, fxcc = ftrial.T
        # scipy's branches. With one call left its counter raises before an
        # expansion or contraction call, so only an accepted reflection moves.
        second = nfev < budget - 1
        expand = second & (fxr < fsim[:, 0])
        reflect = (fxr >= fsim[:, 0]) & (fxr < fsim[:, -2])
        contract = second & ~expand & ~reflect
        outside = fxr < fsim[:, -1]
        to_e = expand & (fxe < fxr)
        to_c = contract & outside & (fxc <= fxr)
        to_cc = contract & ~outside & (fxcc < fsim[:, -1])
        moved = expand | reflect | to_c | to_cc
        pick = to_e + 2 * to_c + 3 * to_cc
        sim[moved, -1] = trial[moved, pick[moved]]
        fsim[moved, -1] = ftrial[moved, pick[moved]]
        nfev += np.where(expand | contract, 2, 1)
        shrink = contract & ~moved
        if shrink.any():
            # Shrink towards the best vertex, moving only evaluated vertices.
            # scipy also moves the one whose call would exceed the budget, but
            # the run then stops with its old value, never below the best one
            # at index 0, which argsort keeps first: no result reads that move.
            calls = np.minimum(n, budget - nfev[shrink])
            part, fpart = sim[shrink], fsim[shrink]
            shrunk = np.clip(part[:, :1] + SIGMA * (part[:, 1:] - part[:, :1]), lower, upper)
            evaluate = axis < calls[:, None]
            if evaluate.any():
                part[:, 1:][evaluate] = shrunk[evaluate]
                fpart[:, 1:][evaluate] = minus_objective(
                    np.repeat(rows[shrink], calls), shrunk[evaluate])
            sim[shrink], fsim[shrink], nfev[shrink] = part, fpart, nfev[shrink] + calls
        sim, fsim = sort(sim, fsim)


def _check_refinement_budget(budget: int) -> None:
    if budget < 1:
        raise ValueError("refinement budget must be at least 1 evaluation")


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
    _check_refinement_budget(refinement_budget)
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
    refined = _lockstep_nelder_mead(
        lambda z: _tee_closed_form_array(*z), points, box, refinement_budget
    )
    for val, pt, nfev in refined:
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
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")
    _check_refinement_budget(refinement_budget)
    box = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))

    coeffs = witness.coefficients

    def objective_batch(z: Sequence[np.ndarray]) -> np.ndarray:
        return _nested_bound(coeffs, _ops_from_parameters(*z))

    axes = _grid_axes(box, grid_resolution)
    shape = tuple(map(len, axes))

    def grid_points(index):
        return [axis[i] for axis, i in zip(axes, np.unravel_index(index, shape))]

    # Chunks bound the memory of the level products, which hold 4 cells per
    # entry of the history tensor per point.
    size = math.prod(shape)
    chunk = max(1, GRID_CHUNK_CELLS // (4 * coeffs.size))
    flat = np.concatenate([
        objective_batch(grid_points(np.arange(lo, min(lo + chunk, size))))
        for lo in range(0, size, chunk)
    ])
    evaluations = flat.size
    order = np.argsort(flat)[::-1][:10]
    starts = list(np.stack(grid_points(order), axis=1))

    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        z = rng.uniform([lo for lo, _ in box], [hi for _, hi in box])
        starts.append(z)

    best_value = float(flat[order[0]])
    best_point = starts[0]
    for val, pt, nfev in _lockstep_nelder_mead(objective_batch, starts, box, refinement_budget):
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

"""Qubit upper bounds on temporal witnesses.

Two routes are provided. ``tee_closed_form`` evaluates the nested
square-root expression for the three-step witness on the extremal effect
family. ``nested_generic_bound`` computes, for arbitrary fixed two-outcome
qubit effects, the exact optimum of any witness over all initial states
and all history-dependent post-measurement states, by propagating
max-eigenvalue value functions backwards through the measurement tree.
Both outer optimizers run one multistart driver: an exhaustive grid in
chunks, guarded by ``GRID_GUARD_POINTS``, then Nelder-Mead from the best
grid cells and from seeded random starts. One map, ``_effect_params``,
turns box coordinates ``(s0, b0, s1, b1, cos_gamma)`` into effects; the
closed form's extremal family is the ``s = 1`` face. The Nelder-Mead
restarts run in lockstep: the live runs are the rows of one simplex array,
and each iteration makes one speculative objective call on the reflection,
expansion and both contraction points of every run. Each run keeps the
values scipy's bounded Nelder-Mead would have computed and so takes its
steps exactly; only shrinks need a second call. The float work (trial
points, clipping, shrinks, sorting) stays on arrays, while the choice of
step and the evaluation counts run per run on Python floats: a few runs
crawl along the clipped ``s = 1`` corner for their whole budget with only
a handful of points per call, so an iteration costs fixed call overhead,
not arithmetic.

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
from .simulator import GuardExceeded, Witness

# Seed for the randomized restarts of the generic optimizer; fixed so that
# reported traces are reproducible.
DEFAULT_SEED = 20240601
# Cells of the objective's temporaries per batch of an exhaustive grid.
GRID_CHUNK_CELLS = 1 << 19
# Grid points beyond which a search raises GuardExceeded before allocating.
# At the guard (2-core x86 VM) the closed form's 215^3 grid takes 2.1 s and
# 190 MB, the generic search's 25^5 grid of T 8.3 s and 260 MB.
GRID_GUARD_POINTS = 10**7


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
    cg = qcore.clamp_cos_gamma(cos_gamma)
    qcore.check_bloch_parameters(a0, b0)
    qcore.check_bloch_parameters(a1, b1)
    return float(_nested_bound(witness.coefficients, _effect_ops(a0, b0, a1, b1, cg)))


def _effect_ops(a0, b0, a1, b1, cg) -> np.ndarray:
    """The 4-vectors of ``E(+|0)``, ``E(-|0)``, ``E(+|1)``, ``E(-|1)`` as the
    rows of an ``(m d, 4, ...)`` array, batch axes last."""
    ops = np.zeros((4, 4) + np.broadcast(a0, b0, a1, b1, cg).shape)
    ops[0, 0], ops[0, 1] = a0, a0 * b0
    ops[2, 0], ops[2, 1], ops[2, 2] = a1, a1 * b1 * cg, a1 * b1 * _clamped_sqrt(1.0 - cg * cg)
    ops[1::2, 0] = 1.0 - ops[::2, 0]
    ops[1, 1], ops[3, 1:3] = -ops[0, 1], -ops[2, 1:3]
    return ops


def _effect_params(s0, b0, s1, b1, cg):
    """Effect parameters ``(a0, b0, a1, b1, cos_gamma)`` from the box
    coordinates of the searches; ``s = a (1 + b)`` rescales the coupled
    domain ``a in [0, 1/(1+b)]`` onto the unit box, whose ``s = 1`` face is
    the extremal family."""
    return s0 / (1.0 + b0), b0, s1 / (1.0 + b1), b1, cg


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

    The trial points, clipping, shrinks and the per-row ``argsort`` run on
    the arrays. scipy's if/elif branch runs per live run on Python floats
    (its trial values and its best, second-worst and worst vertex values),
    and the run indices and evaluation counts are Python lists: with few
    live runs, as in the long runs that crawl along a clipped corner, a
    handful of comparisons costs less than the numpy calls of a mask per
    branch. Convergence tests ``f[-1] - f[0] <= FATOL`` on each sorted row
    first and measures the simplex spread only where that holds.
    """
    starts = np.array(starts, dtype=float)
    free = [i for i, (lo, hi) in enumerate(box) if hi - lo > 1e-15]
    if not free:
        values = objective_batch(starts.T)
        return [(float(v), start, 1) for v, start in zip(values, starts)]
    lower = np.array([box[i][0] for i in free], dtype=float)
    upper = np.array([box[i][1] for i in free], dtype=float)
    n = len(free)

    def minus_objective(runs, repeats, points):
        if n == len(box):
            return -objective_batch(points.T)
        full = starts[np.repeat(runs, repeats)]
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
    rows = list(range(len(starts)))
    first = min(n + 1, budget)
    fsim = np.full((len(rows), n + 1), np.inf)
    fsim[:, :first] = minus_objective(
        rows, first, sim[:, :first].reshape(-1, n)).reshape(len(rows), first)
    nfev = [first] * len(rows)
    # scipy sorts twice here; argsort need not keep ties in place.
    sim, fsim = sort(*sort(sim, fsim))
    results: list = [None] * len(rows)
    while True:
        # A sorted row's largest |f0 - fi| is f[-1] - f[0], bit for bit; the
        # simplex spread is needed only where that passes.
        converged = fsim[:, -1] - fsim[:, 0] <= FATOL
        if converged.any():
            converged[converged] = (
                np.abs(sim[converged, 1:] - sim[converged, :1]).max(axis=(1, 2)) <= XATOL)
        done = [k for k, (calls, stop) in enumerate(zip(nfev, converged.tolist()))
                if stop or calls >= budget]
        if done:
            for k in done:
                point = starts[rows[k]].copy()
                point[free] = sim[k, 0]
                results[rows[k]] = (float(-fsim[k, 0]), point, nfev[k])
            if len(done) == len(rows):
                return results
            live = sorted(set(range(len(rows))).difference(done))
            sim, fsim = sim[live], fsim[live]
            rows, nfev = [rows[k] for k in live], [nfev[k] for k in live]

        xbar = np.add.reduce(sim[:, :-1], 1) / n
        trial = TRIAL_STEPS[:, 0] * xbar[:, None] - TRIAL_STEPS[:, 1] * sim[:, -1:]
        trial = np.clip(trial, lower, upper)
        ftrial = minus_objective(rows, 4, trial.reshape(-1, n)).reshape(-1, 4)
        # scipy's branches on each run's trial values and its best, second
        # worst and worst vertex values; ``pick`` indexes TRIAL_STEPS.
        moved, picks, shrink = [], [], []
        for k, ((fxr, fxe, fxc, fxcc), (best, second_worst, worst)) in enumerate(
                zip(ftrial.tolist(), fsim[:, [0, -2, -1]].tolist())):
            if best <= fxr < second_worst:
                nfev[k] += 1
                pick = 0
            elif nfev[k] >= budget - 1:
                # With one call left scipy's counter raises before an
                # expansion or contraction call: nothing moves.
                nfev[k] += 1
                continue
            else:
                nfev[k] += 2
                if fxr < best:
                    pick = 1 if fxe < fxr else 0
                elif fxr < worst:
                    pick = 2 if fxc <= fxr else None
                else:
                    pick = 3 if fxcc < worst else None
            if pick is None:
                shrink.append(k)
            else:
                moved.append(k)
                picks.append(pick)
        if moved:
            moved, picks = np.array(moved), np.array(picks)
            sim[moved, -1] = trial[moved, picks]
            fsim[moved, -1] = ftrial[moved, picks]
        if shrink:
            # Shrink towards the best vertex, moving only evaluated vertices.
            # scipy also moves the one whose call would exceed the budget, but
            # the run then stops with its old value, never below the best one
            # at index 0, which argsort keeps first: no result reads that move.
            calls = [min(n, budget - nfev[k]) for k in shrink]
            part, fpart = sim[shrink], fsim[shrink]
            shrunk = np.clip(part[:, :1] + SIGMA * (part[:, 1:] - part[:, :1]), lower, upper)
            evaluate = axis < np.array(calls)[:, None]
            if evaluate.any():
                part[:, 1:][evaluate] = shrunk[evaluate]
                fpart[:, 1:][evaluate] = minus_objective(
                    [rows[k] for k in shrink], calls, shrunk[evaluate])
            sim[shrink], fsim[shrink] = part, fpart
            for k, c in zip(shrink, calls):
                nfev[k] += c
        sim, fsim = sort(sim, fsim)


def _multistart(
    objective_batch: Callable[[Sequence[np.ndarray]], np.ndarray],
    box: Sequence[tuple[float, float]],
    resolution: int,
    cells_per_point: int,
    restarts: int,
    seed: int | None,
    budget: int,
) -> tuple[float, np.ndarray, int]:
    """Maximize ``objective_batch`` over ``box``: an exhaustive grid of
    ``resolution`` points per axis, in chunks of ``GRID_CHUNK_CELLS`` cells
    at ``cells_per_point`` cells per point, then lockstep Nelder-Mead from
    the ten best cells and ``restarts`` seeded uniform starts. Returns the
    best value, its point and the number of objective evaluations. A grid of
    more than ``GRID_GUARD_POINTS`` points raises :class:`GuardExceeded`."""
    if resolution < 1:
        raise ValueError("grid resolution must be at least 1 point per axis")
    if restarts < 0:
        raise ValueError("restarts must be nonnegative")
    if budget < 1:
        raise ValueError("refinement budget must be at least 1 evaluation")
    shape = (resolution,) * len(box)
    size = math.prod(shape)
    if size > GRID_GUARD_POINTS:
        raise GuardExceeded(f"a grid of {size} points exceeds the guard of {GRID_GUARD_POINTS}")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]

    def grid_points(index):
        return [axis[i] for axis, i in zip(axes, np.unravel_index(index, shape))]

    chunk = max(1, GRID_CHUNK_CELLS // cells_per_point)
    flat = np.concatenate([
        objective_batch(grid_points(np.arange(lo, min(lo + chunk, size))))
        for lo in range(0, size, chunk)
    ])
    order = np.argsort(flat)[::-1][:10]
    lower, upper = np.transpose(box)
    starts = [*np.stack(grid_points(order), axis=1),
              *np.random.default_rng(seed).uniform(lower, upper, (restarts, len(box)))]

    best_value, best_point, evaluations = float(flat[order[0]]), starts[0], size
    for value, point, nfev in _lockstep_nelder_mead(objective_batch, starts, box, budget):
        evaluations += nfev
        if value > best_value:
            best_value, best_point = value, point
    return best_value, best_point, evaluations


def optimize_tee_bound(
    grid_resolution: int = 40,
    refinement_budget: int = 2000,
    box: Sequence[tuple[float, float]] | None = None,
) -> BoundResult:
    """Globally maximize the closed-form three-step bound over
    ``(p, q, cos_gamma)`` by exhaustive grid search plus simplex refinement
    from the ten best grid cells. The argmax maps to effects as a point of
    the ``s = 1`` face of the generic box, with ``b = p / (2 - p)``."""
    if grid_resolution < 20:
        raise ValueError("grid resolution must be at least 20 per axis")
    if box is None:
        box = ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
    # The closed form peaks at 8 float cells per point.
    value, point, evaluations = _multistart(
        lambda z: _tee_closed_form_array(*z), box, grid_resolution, 8, 0, None, refinement_budget
    )
    params = QubitBoundParams(*(float(v) for v in point))
    p, q = params.p, params.q
    return BoundResult(
        value=value, method="closed_form", params=params, evaluations=evaluations,
        effect_params=_effect_params(1.0, p / (2.0 - p), 1.0, q / (2.0 - q), params.cos_gamma),
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
    runs in the box coordinates of :func:`_effect_params`.
    """
    _check_two_setting_binary(witness)
    coeffs = witness.coefficients
    value, point, evaluations = _multistart(
        lambda z: _nested_bound(coeffs, _effect_ops(*_effect_params(*z))),
        ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)),
        # A level product holds 4 cells per entry of the history tensor.
        grid_resolution, 4 * coeffs.size, restarts, seed, refinement_budget,
    )
    s0, b0, s1, b1, cg = (float(v) for v in point)
    params = None
    if s0 > 1.0 - 1e-6 and s1 > 1.0 - 1e-6:
        params = QubitBoundParams(2.0 * b0 / (1.0 + b0), 2.0 * b1 / (1.0 + b1), cg)
    return BoundResult(
        value=value, method="nested_generic", params=params, evaluations=evaluations,
        effect_params=_effect_params(s0, b0, s1, b1, cg), restarts=restarts, seed=seed,
    )

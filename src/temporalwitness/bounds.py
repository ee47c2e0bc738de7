"""Qubit upper bounds on temporal witnesses.

Two routes are provided. ``tee_closed_form`` evaluates the nested
square-root expression for the three-step witness on the extremal effect
family. ``nested_generic_bound`` computes, for arbitrary fixed two-outcome
qubit effects, the exact optimum of any witness over all initial states
and all history-dependent post-measurement states, by propagating
max-eigenvalue value functions backwards through the measurement tree.
Both outer optimizers run one multistart driver: an exhaustive grid,
guarded by ``GRID_GUARD_POINTS``, then Nelder-Mead from the ten best grid
cells and from seeded random starts. The grid runs in slabs, blocks of
leading-axis indices broadcast against the trailing axes, and keeps only a
running top ten, so its memory does not grow with the grid; ties among the
ten go to the lowest grid index on any CPU. One map, ``_effect_params``,
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
last, ``(m d, 4, points)``. The nested bound walks a level plan built once
per witness by ``_nested_plan``: the histories whose value can be nonzero,
level by level, with each one's children as rows of the level after and a
shared zero row for those that are not planned. Each level is one gather,
one product and one sum over the ``(x, a)`` axis, which numpy adds in index
order, over the planned histories only: T keeps 4 of 16, 2 of 4 and the
root, B1-B4 2 of 4 and the root. A skipped history's value is an exact
``+0`` on the dense tree as well, so every value keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import DEFAULT_SEED, qcore
from .simulator import GuardExceeded, Witness

# Cells of the objective's temporaries per slab of an exhaustive grid. The
# generic grid's slabs stay sized by the dense history tensor, though the
# nested bound touches only its planned rows: at most 2048 points for T and
# 8192 for B1-B4.
GRID_CHUNK_CELLS = 1 << 19
# Points per slab at most: the closed form's one-cell-per-point temporaries
# stay near 128 KB, where a single 64,000-point pass faulted its 5 MB of
# temporaries back in on every call.
GRID_SLAB_POINTS = 1 << 14
# Grid points beyond which a search raises GuardExceeded before allocating.
# At the guard (2-core x86 VM) the closed form's 215^3 grid takes 0.7 s and
# the generic search's 25^5 grid of T 2.7 s, each within 40 MB of peak RSS.
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

class _NestedPlan(NamedTuple):
    """The histories of a coefficient tensor whose value can be nonzero.

    ``rows`` are the nonzero rows of ``coeffs.reshape(-1, m d)``, the
    histories one step short of the end, and ``coeff_rows`` their
    coefficients. ``steps`` runs from the step before the last back to the
    root: each ``(parents, children)`` pair lists the histories with at
    least one planned child and, per ``(x, a)``, that child's row in the
    values of the step after, where a missing child points at one zero row
    appended after them.
    """

    rows: np.ndarray
    coeff_rows: np.ndarray
    steps: tuple[tuple[np.ndarray, np.ndarray], ...]


def _nested_plan(coeffs: np.ndarray) -> _NestedPlan:
    """The level plan of a witness's coefficient history tensor."""
    md = coeffs.shape[0] * coeffs.shape[1]
    flat = coeffs.reshape(-1, md)
    rows = np.flatnonzero(flat.any(axis=1))
    live, steps = rows, []
    for _ in range(coeffs.ndim // 2 - 1):
        parents = np.unique(live // md)
        children = np.full((len(parents), md), len(live))
        children[np.searchsorted(parents, live // md), live % md] = np.arange(len(live))
        steps.append((parents, children))
        live = parents
    return _NestedPlan(rows, flat[rows], tuple(steps))


def _nested_bound(plan: _NestedPlan, ops: np.ndarray) -> np.ndarray:
    """Backward loop over the planned levels of the measurement tree.

    ``ops[x d + a, :, ...]`` is the 4-vector of effect ``a|x``, with the
    batch axes last. Each level multiplies the values of a history's
    children into the effects and sums out ``(x, a)`` in index order; the
    value of a history is the largest eigenvalue of that sum, which for
    ``w 1 + v.sigma`` is ``w + |v|``. A history outside the plan has value
    ``+0`` on the dense tree too, since its terms are all ``0 E``, so the
    plan skips only exact zeros and every value keeps its bits.
    """
    batch = ops.shape[2:]
    children = plan.coeff_rows.reshape(plan.coeff_rows.shape + (1,) * (len(batch) + 1))
    for _, index in plan.steps:
        # One zero row after the level's values stands for every unplanned child.
        values = np.zeros((len(children) + 1,) + batch)
        _level_values(children, ops, out=values[:-1])
        children = values[index][:, :, None]
    values = _level_values(children, ops)
    # With nothing planned the root is unplanned too: an exact zero.
    return values[0] if len(values) else np.zeros(batch)


def _level_values(children, ops, out=None):
    """Each row's largest eigenvalue of ``sum_(x, a) child E(a|x)``."""
    op = np.add.reduce(children * ops, axis=1)
    return np.add(op[:, 0], np.sqrt(np.add.reduce(op[:, 1:] ** 2, axis=1)), out=out)


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
    plan = _nested_plan(witness.coefficients)
    return float(_nested_bound(plan, _effect_ops(a0, b0, a1, b1, cg)))


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
    """Nelder-Mead ascent from every start at once, inside ``box``; returns
    ``(value, point, evaluations)`` per start.

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
    lower, upper = np.array(box, dtype=float).T
    n = len(box)

    def sort(sim, fsim):
        order = np.argsort(fsim, axis=1)
        by_run = np.arange(len(order))[:, None]
        return sim[by_run, order], fsim[by_run, order]

    x0 = np.clip(np.array(starts, dtype=float), lower, upper)
    sim = np.repeat(x0[:, None], n + 1, axis=1)
    axis = np.arange(n)
    sim[:, axis + 1, axis] = np.where(x0 != 0, (1 + NONZDELT) * x0, ZDELT)
    # Vertices pushed past the upper bound are reflected into the box.
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    rows = list(range(len(starts)))
    first = min(n + 1, budget)
    fsim = np.full((len(rows), n + 1), np.inf)
    fsim[:, :first] = -objective_batch(sim[:, :first].reshape(-1, n).T).reshape(len(rows), first)
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
                results[rows[k]] = (float(-fsim[k, 0]), sim[k, 0].copy(), nfev[k])
            if len(done) == len(rows):
                return results
            live = sorted(set(range(len(rows))).difference(done))
            sim, fsim = sim[live], fsim[live]
            rows, nfev = [rows[k] for k in live], [nfev[k] for k in live]

        xbar = np.add.reduce(sim[:, :-1], 1) / n
        trial = TRIAL_STEPS[:, 0] * xbar[:, None] - TRIAL_STEPS[:, 1] * sim[:, -1:]
        trial = np.clip(trial, lower, upper)
        ftrial = -objective_batch(trial.reshape(-1, n).T).reshape(-1, 4)
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
                fpart[:, 1:][evaluate] = -objective_batch(shrunk[evaluate].T)
            sim[shrink], fsim[shrink] = part, fpart
            for k, c in zip(shrink, calls):
                nfev[k] += c
        sim, fsim = sort(sim, fsim)


def _grid_top_ten(
    objective_batch: Callable[[Sequence[np.ndarray]], np.ndarray],
    axes: Sequence[np.ndarray],
    cells_per_point: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The ten largest values of ``objective_batch`` on the grid of ``axes``
    and their C-order grid indices, by value descending and then by index:
    ``np.argsort(-flat, kind="stable")[:10]`` of the dense grid.

    The grid runs in slabs of at most ``GRID_CHUNK_CELLS // cells_per_point``
    and ``GRID_SLAB_POINTS`` points. A slab gathers a block of indices of
    the leading axes, shaped ``(b, 1, ...)``, against open-mesh views of
    the trailing axes, so its values come out in the grid's C order and,
    the objective being elementwise, with the bits of a dense evaluation.
    Only a running top ten is kept, so memory does not grow with the grid.
    """
    shape = tuple(len(axis) for axis in axes)
    points = max(1, min(GRID_CHUNK_CELLS // cells_per_point, GRID_SLAB_POINTS))
    lead = next(k for k in range(1, len(axes) + 1) if math.prod(shape[k:]) <= points)
    tail, heads = math.prod(shape[lead:]), math.prod(shape[:lead])
    block = max(1, points // tail)
    ones = (1,) * (len(axes) - lead)
    trailing = [axis.reshape((-1,) + ones[j:]) for j, axis in enumerate(axes[lead:], 1)]
    top_values, top_index = np.empty(0), np.empty(0, dtype=np.intp)
    for lo in range(0, heads, block):
        leading = np.unravel_index(np.arange(lo, min(lo + block, heads)), shape[:lead])
        values = objective_batch(
            [*(axis[i].reshape((-1,) + ones) for axis, i in zip(axes, leading)), *trailing]
        ).reshape(-1)
        # Only values at or above the slab's tenth largest can join the top ten.
        kept = np.arange(len(values))
        if len(values) > 10:
            kept = np.flatnonzero(values >= np.partition(values, len(values) - 10)[-10])
        top_values = np.concatenate([top_values, values[kept]])
        top_index = np.concatenate([top_index, lo * tail + kept])
        # Earlier slabs come first, so the stable sort breaks ties by index.
        order = np.argsort(-top_values, kind="stable")[:10]
        top_values, top_index = top_values[order], top_index[order]
    return top_values, top_index


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
    ``resolution`` points per axis, in slabs of :func:`_grid_top_ten` at
    ``cells_per_point`` cells per point, then lockstep Nelder-Mead from the
    ten best cells and ``restarts`` seeded uniform starts. Returns the
    best value, its point and the number of objective evaluations. A grid of
    more than ``GRID_GUARD_POINTS`` points, or more starts than leave
    ``(10 + restarts) * budget`` refinement points under it, raises
    :class:`GuardExceeded` before anything is evaluated."""
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
    # A start evaluates at most ``budget`` points and every start's initial
    # simplex goes into one call, so the same guard caps the refinement.
    if (10 + restarts) * budget > GRID_GUARD_POINTS:
        raise GuardExceeded(
            f"{10 + restarts} refinement starts of up to {budget} evaluations each "
            f"exceed the guard of {GRID_GUARD_POINTS} points"
        )
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    top_values, top_index = _grid_top_ten(objective_batch, axes, cells_per_point)
    lower, upper = np.transpose(box)
    starts = [*np.stack([axis[i] for axis, i in zip(axes, np.unravel_index(top_index, shape))],
                        axis=1),
              *np.random.default_rng(seed).uniform(lower, upper, (restarts, len(box)))]

    best_value, best_point, evaluations = float(top_values[0]), starts[0], size
    for value, point, nfev in _lockstep_nelder_mead(objective_batch, starts, box, budget):
        evaluations += nfev
        if value > best_value:
            best_value, best_point = value, point
    return best_value, best_point, evaluations


def optimize_tee_bound(grid_resolution: int = 40, refinement_budget: int = 2000) -> BoundResult:
    """Globally maximize the closed-form three-step bound over
    ``(p, q, cos_gamma)`` by exhaustive grid search plus simplex refinement
    from the ten best grid cells. The argmax maps to effects as a point of
    the ``s = 1`` face of the generic box, with ``b = p / (2 - p)``."""
    if grid_resolution < 20:
        raise ValueError("grid resolution must be at least 20 per axis")
    # The closed form peaks at 8 float cells per point.
    value, point, evaluations = _multistart(
        lambda z: _tee_closed_form_array(*z), ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)),
        grid_resolution, 8, 0, None, refinement_budget,
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
    plan = _nested_plan(coeffs)
    value, point, evaluations = _multistart(
        lambda z: _nested_bound(plan, _effect_ops(*_effect_params(*z))),
        ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (-1.0, 1.0)),
        # Slabs are sized by the dense level product, 4 cells per entry of
        # the history tensor (see GRID_CHUNK_CELLS).
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

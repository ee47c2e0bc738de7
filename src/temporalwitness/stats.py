"""Statistical certification from count data.

Confidence intervals use Hoeffding's tail inequality, which needs no
assumption on the outcome distributions. The arrow-of-time check is a
likelihood-ratio test of the factorized (setting-history conditional)
model against unconstrained per-sequence multinomials, with the degrees of
freedom given by the exact number of independent AoT constraints. Its
chi-square tail and the normal quantile of the sigma equivalent are computed
in closed form with the standard library (``math`` and
``statistics.NormalDist``). The statistic is scored from the margins of the
factorized fit, since the cells' ``k log k`` terms cancel between the two
fits; one walk folds the counts over each step's outcome and setting by
strided integer adds and feeds both the statistic and the null-model table.
Each level's ``k log(k / c)`` terms are summed as one dense C-ordered row,
where a zero count adds an exact 0.0, so a table scores alike alone or in a
batch. The Monte Carlo calibration scores the observed table once, then
draws and scores the null-model replications in chunks, one multinomial
draw and one batched statistic per chunk, with the draw stream of one draw
per replication and setting sequence.
Counts are Python ints, so :func:`certify` needs no numpy; the AoT test,
its calibration and the sampler build their int64 arrays once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import GuardExceeded
from .scenario import INT64_MAX, Scenario, Witness, decode_index, encode_sequence

if TYPE_CHECKING:  # the AoT test and the sampler import numpy when they run
    import numpy as np

    from .simulator import CorrelationTable

# Table cells per chunk of Monte Carlo replications drawn and scored at once.
MC_CHUNK_CELLS = 1 << 14
# Replicated table cells beyond which the Monte Carlo calibration refuses to
# run: at 0.13-0.2 us per cell drawn and scored (2-core x86 VM), about a minute.
MC_GUARD_CELLS = 1 << 28


@dataclass(frozen=True, eq=False)
class CountsTable:
    """Shot counts per (setting sequence, outcome sequence), plus the number
    of validation-rejected shots per setting sequence.

    Rejected shots are excluded from the counts and from the per-sequence
    totals, so the frequencies and the reported witness value ignore them.
    The certification verdict does not: :func:`certify` scores every
    rejected shot as a failure.

    Both take nested sequences or arrays of integers, not floats or bools,
    and hold tuples of Python ints: a row of counts and one discard count
    per setting sequence.
    """

    scenario: Scenario
    counts: tuple[tuple[int, ...], ...]
    discarded: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        shape = (self.scenario.num_setting_sequences, self.scenario.num_outcome_sequences)
        rows = self.counts.tolist() if hasattr(self.counts, "tolist") else self.counts
        if _shape(rows) != shape or any(_shape(row) != shape[1:] for row in rows):
            raise ValueError(f"counts must have shape {shape}, got {_shape(rows)}")
        if not all(type(k) is int for row in rows for k in row):
            raise ValueError("counts must be integers")
        if min(map(min, rows)) < 0:
            raise ValueError("counts must be non-negative")
        disc = [0] * shape[0] if self.discarded is None else self.discarded
        disc = disc.tolist() if hasattr(disc, "tolist") else disc
        if _shape(disc) != shape[:1] or not all(type(d) is int for d in disc):
            raise ValueError("discarded must be one integer per setting sequence")
        if min(disc) < 0:
            raise ValueError("discarded counts must be non-negative")
        # The margins, the row totals and the attempted shots are int64 sums
        # across cells and records in the AoT test; the total shows whether
        # they fit.
        if sum(map(sum, rows)) + sum(disc) > INT64_MAX:
            raise ValueError(f"counts and discarded shots total more than {INT64_MAX}")
        object.__setattr__(self, "counts", tuple(map(tuple, rows)))
        object.__setattr__(self, "discarded", tuple(disc))

    @property
    def repetitions(self) -> tuple[int, ...]:
        """Recorded shots per setting sequence."""
        return tuple(map(sum, self.counts))


def _shape(values) -> tuple[int, ...]:
    """The shape of nested lists or tuples, read along their first items."""
    nested = isinstance(values, (list, tuple))
    return (len(values), *_shape(values[0] if values else None)) if nested else ()


@dataclass(frozen=True)
class ConfidenceSpec:
    """Two-sided confidence level for the Hoeffding interval."""

    confidence: float = 0.68

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")


def hoeffding_halfwidth(
    witness: Witness,
    repetitions: int | Sequence[int],
    spec: ConfidenceSpec = ConfidenceSpec(),
) -> float:
    """Hoeffding half-width ``t`` of the two-sided confidence interval for a
    witness value estimated from frequencies.

    Solves ``2 exp(-2 t^2 / sum_x 1/n_x) = 1 - confidence`` in closed form,
    where the sum runs over the witness's setting sequences. ``repetitions``
    is one shot count for every setting sequence, or the counts indexed as
    the table rows. Valid only for 0/1 coefficients per cell, summed over
    the terms that name it, for which each setting sequence's frequencies
    score a variable in [0, 1] and the witness is a sum of their means.
    """
    # Each cell's coefficient, summed in term order and keyed by its history
    # ((x_1, a_1), ..., (x_L, a_L)): the first bad cell is the first in that order.
    cells: dict[tuple[int, ...], float] = {}
    for settings, outcomes, coeff in witness.terms:
        cell = tuple(zip(settings, outcomes))
        cells[cell] = cells.get(cell, 0.0) + coeff
    bad = [cells[cell] for cell in sorted(cells) if cells[cell] not in (0.0, 1.0)]
    if bad:
        raise ValueError(
            "Hoeffding half-width requires 0/1 witness coefficients per cell; "
            f"got {bad[0]} (rescale the witness or derive a custom bound)"
        )
    sc = witness.scenario
    inv_sum = 0.0
    for settings in witness.setting_sequences:
        x = encode_sequence(settings, sc.settings)
        n = int(repetitions[x] if hasattr(repetitions, "__len__") else repetitions)
        if n <= 0:
            raise ValueError(f"setting sequence {settings} has zero repetitions")
        inv_sum += 1.0 / (2.0 * n)
    return math.sqrt(-math.log((1.0 - spec.confidence) / 2.0) * inv_sum)


@dataclass(frozen=True)
class QutritFraction:
    """Minimal frequency of higher-dimensional use explaining a value.

    ``below_bound`` marks values under the qubit bound, whose fraction
    clamps to zero.
    """

    fraction: float
    below_bound: bool


def qutrit_fraction(value: float, qubit_bound: float, algebraic_max: float) -> QutritFraction:
    """Affine interpolation ``(value - C) / (A - C)`` between the qubit
    bound ``C`` and the algebraic maximum ``A``, clamped to [0, 1]."""
    if algebraic_max <= qubit_bound:
        raise ValueError("algebraic maximum must exceed the qubit bound")
    raw = (value - qubit_bound) / (algebraic_max - qubit_bound)
    return QutritFraction(fraction=min(1.0, max(0.0, raw)), below_bound=raw < 0.0)


# ---------------------------------------------------------------------------
# Arrow-of-time likelihood-ratio test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AotTestResult:
    statistic: float
    dof: int
    p_value: float
    sigma_equivalent: float


def _fold(a: np.ndarray, base: int, axis: int) -> np.ndarray:
    """Sum of ``a`` over the last base-``base`` digit of its index on
    ``axis`` (-1 for the outcome sequence, -2 for the setting sequence), as
    adds of whole strided slices: a step's digit is the last of its
    sequence's index, so its ``base`` values sit ``base`` apart."""
    if base == 1:
        return a
    tail = (slice(None),) * (-1 - axis)
    total = a[(..., slice(0, None, base), *tail)] + a[(..., slice(1, None, base), *tail)]
    for digit in range(2, base):
        total += a[(..., slice(digit, None, base), *tail)]
    return total


def _pooled_levels(scenario: Scenario, counts: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pooled counts of the factorized model's conditionals, step by step.

    At step ``t``, the conditional for the step-``t`` outcome is estimated
    in the context of the settings chosen up to and including step ``t``
    and the outcomes seen before it, pooling over everything later; this
    pooling is the exact maximum-likelihood fit of the AoT model. Entry
    ``t - 1`` holds the counts of each history ``(x_1 a_1 .. x_t a_t)``,
    shaped ``(..., settings^t, outcomes^(t-1), outcomes)``, and those of its
    context, with the outcome axis kept at length one. The walk folds the
    ``(setting sequence, outcome sequence)`` array from the last step down,
    alternately over the step's outcome and its setting, with no history
    transpose. Leading batch axes of ``counts`` stay in front. The sums are
    exact integers while a table's total fits in int64, which
    :class:`CountsTable` checks.
    """
    d = scenario.outcomes
    levels = []
    pooled = counts
    for step in range(scenario.length, 0, -1):
        context = _fold(pooled, d, -1)
        levels.append((pooled.reshape(context.shape + (d,)), context[..., None]))
        if step > 1:
            pooled = _fold(context, scenario.settings, -2)
    return levels[::-1]


def null_model_table(counts: CountsTable) -> CorrelationTable:
    """The AoT-factorized maximum-likelihood table for the observed counts.

    Conditionals whose context never occurred in the data are unidentified
    (the likelihood does not depend on them); they are completed uniformly
    so the table is a proper distribution.
    """
    import numpy as np

    from .simulator import CorrelationTable

    sc = counts.scenario
    probs = np.ones((1, 1))
    for pooled, context in _pooled_levels(sc, np.array(counts.counts, dtype=np.int64)):
        conditional = np.where(
            context > 0, pooled / np.maximum(context, 1), 1.0 / sc.outcomes
        )
        rows, cols = probs.shape
        probs = (probs[:, None, :, None]
                 * conditional.reshape(rows, sc.settings, cols, sc.outcomes)
                 ).reshape(rows * sc.settings, cols * sc.outcomes)
    return CorrelationTable(scenario=sc, probs=probs)


def _log_likelihood(k: np.ndarray, n: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
    """``sum k log(k / n)`` over the cells of each table on the leading
    ``batch`` axes, with ``n`` broadcast; a zero ``k`` adds an exact 0.0.

    The terms are written to one C-ordered array, so each table's terms form
    one contiguous row in cell order, summed as for a lone table: a table
    scores alike alone or in a batch.
    """
    import numpy as np

    terms = np.divide(k, n, out=np.ones(k.shape), where=k > 0)
    np.multiply(k, np.log(terms, out=terms), out=terms)
    return np.add.reduce(terms.reshape(math.prod(batch), -1), axis=1).reshape(batch)


def _log_likelihoods(scenario: Scenario, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unconstrained and the factorized maximized log-likelihoods of each
    counts table on the leading axes of ``counts``, of shape
    ``(..., setting sequences, outcome sequences)``."""
    batch = counts.shape[:-2]
    log_alt = _log_likelihood(counts, counts.sum(axis=-1, keepdims=True), batch)
    log_null = sum(_log_likelihood(pooled, context, batch)
                   for pooled, context in _pooled_levels(scenario, counts))
    return log_alt, log_null


def _aot_statistic(scenario: Scenario, counts: np.ndarray) -> np.ndarray:
    """The LR statistic of each counts table on the leading axes of
    ``counts``, scored from its margins.

    The two fits share the last step's ``k log k`` cell terms, which
    cancel: with ``c_L`` the last step's contexts, ``n_x`` the shots of
    setting sequence ``x`` and ``(k_t, c_t)`` the pooled counts and contexts
    of the earlier steps, the statistic is
    ``2 [sum c_L log(c_L / n_x) - sum_{t<L} sum k_t log(k_t / c_t)]``.
    """
    import numpy as np

    batch = counts.shape[:-2]
    *earlier, (_, last) = _pooled_levels(scenario, counts)
    log_ratio = _log_likelihood(last, last.sum(axis=-2, keepdims=True), batch)
    for pooled, context in earlier:
        log_ratio = log_ratio - _log_likelihood(pooled, context, batch)
    return np.maximum(0.0, 2.0 * log_ratio)


def aot_lr_test(counts: CountsTable) -> AotTestResult:
    """Wilks likelihood-ratio test of the AoT constraints.

    The statistic compares unconstrained per-sequence multinomial fits with
    the pooled factorized fit; its null distribution is chi-square with as
    many degrees of freedom as there are independent AoT constraints. The
    sigma equivalent is the two-sided standard-normal quantile of the
    p-value.
    """
    import numpy as np

    return _observed_aot_test(counts.scenario, np.array(counts.counts, dtype=np.int64))


def _observed_aot_test(scenario: Scenario, counts: np.ndarray) -> AotTestResult:
    """:func:`aot_lr_test` of the int64 counts array. The Monte Carlo
    calibration calls this name, so a span around the public name times
    only direct calls."""
    from . import polytope

    if not counts.sum(axis=1).all():
        raise ValueError("every setting sequence needs at least one shot")
    dof = polytope.independent_constraint_count(scenario)
    if dof == 0:
        raise ValueError("scenario has no AoT constraints to test")
    statistic = float(_aot_statistic(scenario, counts))
    p_value = _chi2_sf(statistic, dof)
    return AotTestResult(statistic, dof, p_value, _sigma_equivalent(p_value))


def _chi2_sf(x: float, dof: int) -> float:
    """Upper tail ``P(X >= x)`` of a chi-square variable with integer ``dof``.

    With ``h = x / 2`` the tail is the finite sum of Poisson-like terms
    ``h^j e^-h / Gamma(j + 1)`` over ``j = 0, 1, ..., dof/2 - 1`` for even
    ``dof``, and ``erfc(sqrt(h))`` plus the same terms over ``j = 1/2,
    3/2, ..., dof/2 - 1`` for odd ``dof``. Every term is exponentiated from
    its logarithm, so large ``x`` underflows to zero instead of overflowing.
    """
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    log_h = math.log(h)
    start = (dof % 2) / 2.0
    terms = [math.exp(j * log_h - h - math.lgamma(j + 1.0))
             for j in (start + i for i in range(dof // 2))]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return math.fsum(terms)


def _sigma_equivalent(p_value: float) -> float:
    # Imported here: ``statistics`` loads ``fractions`` and ``decimal``,
    # which only the AoT test needs.
    from statistics import NormalDist

    half = min(1.0, p_value) / 2.0
    if half <= 0.0:
        return math.inf
    # 0.0 - z rather than -z: p = 1 gives +0.0, not -0.0.
    return 0.0 - NormalDist().inv_cdf(half)


@dataclass(frozen=True)
class AotMonteCarloResult:
    """LR test with a Monte Carlo calibration of the p-value under the
    fitted null model."""

    asymptotic: AotTestResult
    replications: int
    seed: int
    p_value: float
    sigma_equivalent: float


def aot_lr_test_montecarlo(
    counts: CountsTable, replications: int, seed: int
) -> AotMonteCarloResult:
    """The LR test, with its p-value calibrated by drawing ``replications``
    tables of the observed shots per sequence from the fitted null model.

    Replications are drawn and scored in chunks of at most
    ``MC_CHUNK_CELLS`` table cells, so memory does not grow with
    ``replications``; the draws are those of a loop of one draw per
    replication and setting sequence. A replication counts as at least as
    extreme as the observed table when its statistic is at most
    ``1e-12 * max(1, |log_alt| + |log_null|)`` below the observed one, where
    ``log_alt`` and ``log_null`` are the observed table's log-likelihoods.
    More than ``MC_GUARD_CELLS`` replicated table cells raise
    :class:`GuardExceeded` before any draw.
    """
    import numpy as np

    array = np.array(counts.counts, dtype=np.int64)
    asymptotic = _observed_aot_test(counts.scenario, array)
    if replications < 1:
        raise ValueError("need at least one replication")
    if replications * array.size > MC_GUARD_CELLS:
        raise GuardExceeded(
            f"{replications} replications of {array.size} cells exceed the guard")
    null_probs = null_model_table(counts).probs
    # The statistic is a difference of sums whose rounding error is a few
    # ulp of the log-likelihoods; this tolerance is thousands of ulp, so a
    # replication that ties the observed table mathematically, such as a
    # relabelled copy, counts whatever the order of summation.
    log_alt, log_null = _log_likelihoods(counts.scenario, array)
    cutoff = asymptotic.statistic - 1e-12 * max(1.0, float(abs(log_alt) + abs(log_null)))
    rng = np.random.default_rng(seed)
    n_per_seq = array.sum(axis=1)
    chunk = max(1, MC_CHUNK_CELLS // array.size)
    exceed = 0
    for start in range(0, replications, chunk):
        sampled = _draw_counts(rng, null_probs, n_per_seq, min(chunk, replications - start))
        statistics = _aot_statistic(counts.scenario, sampled)
        exceed += int(np.count_nonzero(statistics >= cutoff))
    p_value = (1 + exceed) / (replications + 1)
    return AotMonteCarloResult(
        asymptotic=asymptotic,
        replications=replications,
        seed=seed,
        p_value=p_value,
        sigma_equivalent=_sigma_equivalent(p_value),
    )


def _draw_counts(
    rng: np.random.Generator, probs: np.ndarray, repetitions: np.ndarray, *batch: int
) -> np.ndarray:
    """Multinomial counts of ``repetitions[x]`` shots from each row ``x`` of
    ``probs``, normalized, stacked on the leading ``batch`` axes. numpy draws
    them index by index and row by row, so the stream is that of one
    ``rng.multinomial`` call per row in that order."""
    rows = probs / probs.sum(axis=1, keepdims=True)
    return rng.multinomial(repetitions, rows, size=(*batch, len(probs)))


def sample_counts(
    table: CorrelationTable,
    repetitions: int | Sequence[int] | np.ndarray,
    rng: np.random.Generator | int,
    discarded: Sequence[int] | None = None,
) -> CountsTable:
    """Draw multinomial shot counts from a correlation table, one draw per
    setting sequence."""
    import numpy as np

    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    sc = table.scenario
    reps = np.broadcast_to(
        np.asarray(repetitions, dtype=np.int64), (sc.num_setting_sequences,)
    )
    counts = _draw_counts(rng, table.probs, reps)
    disc = None if discarded is None else np.asarray(discarded, dtype=np.int64)
    return CountsTable(scenario=sc, counts=counts, discarded=disc)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificationReport:
    """Everything needed to state a dimension verdict from counts.

    ``value``, ``halfwidth``, the fractions and the ratio ignore discarded
    shots. ``certified`` counts them as failures: it holds exactly when the
    lower confidence end ``sum_x k_x / (n_x + d_x) - t`` exceeds the
    witness's ``threshold``, which sits at or above the reported
    ``qubit_bound``. Here ``k_x`` counts the witness outcomes of setting
    sequence ``x``, ``n_x`` its recorded and ``d_x`` its discarded shots,
    and ``t`` is the Hoeffding half-width for ``n_x + d_x`` shots. Without
    discards this is ``value - halfwidth``.
    """

    witness_id: str
    value: float
    halfwidth: float
    confidence: float
    qubit_bound: float
    algebraic_max: float
    violation_ratio: float
    fraction: float
    fraction_halfwidth: float
    below_bound: bool
    certified: bool
    total_shots: int
    total_discarded: int

    @property
    def discard_rate(self) -> float:
        attempted = self.total_shots + self.total_discarded
        return self.total_discarded / attempted if attempted else 0.0


def certify(
    witness: Witness,
    counts: CountsTable,
    spec: ConfidenceSpec = ConfidenceSpec(),
) -> CertificationReport:
    """Assemble the full certification report for a witness and counts.

    The verdict is sound only under two assumptions:

    - *time-independent instruments*: setting ``x`` applies the same
      measurement and re-preparation ``(E, sigma)`` at every step;
    - *arrow of time*: a setting is not known before an earlier step
      reports.

    With step-dependent instruments a classical bit reaches the algebraic
    maximum of B1, and its table passes every AoT constraint.

    The Hoeffding interval also assumes the shot counts were fixed before
    the data were seen. Calling this on growing counts and stopping at the
    first certified verdict is not covered: with data exactly at the
    threshold (eight sequences at p = 1/2, 68% confidence, nominal false
    rate 16%), that rule certified falsely 10.5% of the time with 10 looks
    and 30.3% with 1,000.

    The witness, ``certify --witness`` included, must likewise be fixed
    before the data are seen. One length-2 counts file serves B1-B4, and
    trying all four and keeping one that certifies can raise the false rate
    up to four times the stated ``(1 - confidence) / 2``.
    """
    if witness.qubit_bound is None or witness.algebraic_max is None:
        raise ValueError(f"witness {witness.id!r} carries no dimension bounds")
    if witness.scenario != counts.scenario:
        raise ValueError("witness and counts scenarios do not match")
    shots = counts.repetitions
    if 0 in shots:
        bad = decode_index(shots.index(0), counts.scenario.settings, counts.scenario.length)
        raise ValueError(f"setting sequence {bad} has zero repetitions")
    # The verdict scores every discarded shot as a failure of the witness.
    attempted = [n + d for n, d in zip(shots, counts.discarded)]

    def rates(totals: Sequence[int]) -> list[list[float]]:
        # float(k) / float(n) rounds as numpy's int64 division does; past
        # 2^53, k / n, rounded once from the exact ratio, can differ.
        return [[float(k) / float(n) for k in row] for row, n in zip(counts.counts, totals)]

    value = witness.score(rates(shots))
    halfwidth = hoeffding_halfwidth(witness, shots, spec)
    lower = witness.score(rates(attempted)) - hoeffding_halfwidth(witness, attempted, spec)
    frac = qutrit_fraction(value, witness.qubit_bound, witness.algebraic_max)
    span = witness.algebraic_max - witness.qubit_bound
    return CertificationReport(
        witness_id=witness.id,
        value=value,
        halfwidth=halfwidth,
        confidence=spec.confidence,
        qubit_bound=witness.qubit_bound,
        algebraic_max=witness.algebraic_max,
        violation_ratio=value / witness.qubit_bound,
        fraction=frac.fraction,
        fraction_halfwidth=halfwidth / span,
        below_bound=frac.below_bound,
        certified=lower > witness.threshold,
        total_shots=sum(shots),
        total_discarded=sum(counts.discarded),
    )

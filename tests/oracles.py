"""Slow reference implementations of the prefix-tree walkers and of the
bound refinement.

Each walker goes through the tree of measurement histories cell by cell or
node by node, without the history-tensor view; ``refine`` runs one scipy
Nelder-Mead search per start on a scalar objective; the Monte Carlo AoT
calibration draws and scores one replication at a time. They are the
references for the randomized comparisons in ``test_oracles.py``.
"""

import math

import numpy as np
from scipy.optimize import minimize

from temporalwitness import stats
from temporalwitness.polytope import aot_constraints, enumerate_deterministic_strategies
from temporalwitness.qcore import apply_map
from temporalwitness.simulator import CorrelationTable, Scenario, decode_index, encode_sequence


def sequence_probabilities(protocol, length):
    """Depth-first recursion over histories, pruning branches of trace at
    most 1e-15."""
    m = protocol.num_settings
    d = len(protocol.outcomes)
    scenario = Scenario(length=length, settings=m, outcomes=d)
    probs = np.zeros((scenario.num_setting_sequences, scenario.num_outcome_sequences))

    def descend(depth, x_idx, a_idx, rho):
        if depth == length:
            probs[x_idx, a_idx] = float(rho.trace().real)
            return
        for x in range(m):
            instr = protocol.instruments[x]
            for a, label in enumerate(protocol.outcomes):
                branch = apply_map(instr.maps[label], rho)
                if branch.trace().real > 1e-15:
                    descend(depth + 1, x_idx * m + x, a_idx * d + a, branch)

    descend(0, 0, 0, np.asarray(protocol.initial_state.mat))
    return CorrelationTable(scenario=scenario, probs=probs)


def apply_readout_noise(table, resolver, noise):
    """Sum over every (true, recorded) outcome-sequence pair of a row."""
    sc = table.scenario
    noisy = np.zeros_like(table.probs)
    for x_idx in range(sc.num_setting_sequences):
        x_seq = decode_index(x_idx, sc.settings, sc.length)
        for a_idx in range(sc.num_outcome_sequences):
            p = table.probs[x_idx, a_idx]
            if p == 0.0:
                continue
            a_seq = decode_index(a_idx, sc.outcomes, sc.length)
            kinds = [resolver(x_seq[t], a_seq[t]) for t in range(sc.length)]
            for r_idx in range(sc.num_outcome_sequences):
                r_seq = decode_index(r_idx, sc.outcomes, sc.length)
                factor = p
                for t in range(sc.length):
                    factor *= noise.record_prob(kinds[t], r_seq[t] != a_seq[t])
                noisy[x_idx, r_idx] += factor
    return CorrelationTable(scenario=sc, probs=noisy)


def prefix_counts(counts):
    """Pooled counts keyed by (setting prefix, outcome prefix) per depth."""
    sc = counts.scenario
    num = [dict() for _ in range(sc.length + 1)]
    den = [dict() for _ in range(sc.length + 1)]
    for x_idx in range(sc.num_setting_sequences):
        x_seq = decode_index(x_idx, sc.settings, sc.length)
        for a_idx in range(sc.num_outcome_sequences):
            n = int(counts.counts[x_idx, a_idx])
            if n == 0:
                continue
            a_seq = decode_index(a_idx, sc.outcomes, sc.length)
            for t in range(1, sc.length + 1):
                key = (x_seq[:t], a_seq[:t])
                num[t][key] = num[t].get(key, 0) + n
                ctx = (x_seq[:t], a_seq[: t - 1])
                den[t][ctx] = den[t].get(ctx, 0) + n
    return num, den


def null_model_table(counts):
    sc = counts.scenario
    num, den = prefix_counts(counts)
    probs = np.zeros((sc.num_setting_sequences, sc.num_outcome_sequences))
    for x_idx in range(sc.num_setting_sequences):
        x_seq = decode_index(x_idx, sc.settings, sc.length)
        for a_idx in range(sc.num_outcome_sequences):
            a_seq = decode_index(a_idx, sc.outcomes, sc.length)
            prob = 1.0
            for t in range(1, sc.length + 1):
                context = den[t].get((x_seq[:t], a_seq[: t - 1]), 0)
                if context == 0:
                    prob /= sc.outcomes
                else:
                    prob *= num[t].get((x_seq[:t], a_seq[:t]), 0) / context
            probs[x_idx, a_idx] = prob
    return CorrelationTable(scenario=sc, probs=probs)


def aot_log_likelihoods(counts):
    """The unconstrained and the factorized maximized log-likelihoods."""
    sc = counts.scenario
    n_per_seq = counts.repetitions
    log_alt = 0.0
    for x_idx in range(sc.num_setting_sequences):
        for a_idx in range(sc.num_outcome_sequences):
            k = int(counts.counts[x_idx, a_idx])
            if k:
                log_alt += k * math.log(k / n_per_seq[x_idx])
    num, den = prefix_counts(counts)
    log_null = 0.0
    for t in range(1, sc.length + 1):
        for (x_prefix, a_prefix), pooled in num[t].items():
            context = den[t][(x_prefix, a_prefix[:-1])]
            log_null += pooled * math.log(pooled / context)
    return log_alt, log_null


def aot_statistic(counts):
    log_alt, log_null = aot_log_likelihoods(counts)
    return max(0.0, 2.0 * (log_alt - log_null))


def sample_counts(table, repetitions, rng):
    """One multinomial draw per setting sequence, row by row."""
    counts = np.zeros(table.probs.shape, dtype=np.int64)
    for x_idx, row in enumerate(table.probs):
        counts[x_idx] = rng.multinomial(int(repetitions[x_idx]), row / row.sum())
    return stats.CountsTable(table.scenario, counts)


def aot_montecarlo_p_value(counts, replications, seed):
    """Monte Carlo p-value of the AoT statistic, one replication at a time:
    draw each from the null model, score it, compare with the observed."""
    observed = aot_statistic(counts)
    null = stats.null_model_table(counts)
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(replications):
        if aot_statistic(sample_counts(null, counts.repetitions, rng)) >= observed - 1e-12:
            exceed += 1
    return (1 + exceed) / (replications + 1)


def nested_bound(witness, ops):
    """Recursive max-eigenvalue value function over histories."""
    length = witness.scenario.length
    m, d = witness.scenario.settings, witness.scenario.outcomes
    coeffs = {}
    for settings, outcomes, coeff in witness.terms:
        key = tuple(zip(settings, outcomes))
        coeffs[key] = coeffs.get(key, 0.0) + coeff
    batch = ops.shape[:-3]

    def value(history):
        if len(history) == length:
            return coeffs.get(history, 0.0)
        op = np.zeros(batch + (4,))
        for x in range(m):
            for a in range(d):
                child = np.asarray(value(history + ((x, a),)))
                if child.ndim:
                    child = child[..., None]
                op = op + child * ops[..., x, a, :]
        return op[..., 0] + np.sqrt(op[..., 1] ** 2 + op[..., 2] ** 2 + op[..., 3] ** 2)

    return value(())


def refine(objective, start, box, budget):
    """scipy's Nelder-Mead ascent from ``start``, restricted to the
    non-degenerate axes of ``box``. Returns (value, point, evaluations)."""
    free = [i for i, (lo, hi) in enumerate(box) if hi - lo > 1e-15]
    point = np.array(start, dtype=float)
    if not free:
        return objective(point), point, 1

    def neg(z):
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


def algebraic_max(witness):
    """Brute force over every deterministic strategy."""
    best = -math.inf
    maximizers = []
    m = witness.scenario.settings
    term_checks = [
        (
            tuple(
                (t, encode_sequence(settings[: t + 1], m), outcomes[t])
                for t in range(witness.scenario.length)
            ),
            coeff,
        )
        for settings, outcomes, coeff in witness.terms
    ]
    for strategy in enumerate_deterministic_strategies(witness.scenario):
        value = 0.0
        for checks, coeff in term_checks:
            if all(strategy.moves[t][prefix] == outcome for t, prefix, outcome in checks):
                value += coeff
        if value > best + 1e-12:
            best = value
            maximizers = [strategy]
        elif abs(value - best) <= 1e-12:
            maximizers.append(strategy)
    return best, maximizers


def integer_row_reduce(basis, row):
    """Reduce ``row`` against a pivot basis by fraction-free elimination;
    returns the gcd-normalized remainder, or None if it is dependent."""
    for pivot_row in basis:
        lead = next(k for k, v in enumerate(pivot_row) if v != 0)
        if row[lead] != 0:
            pv, rv = pivot_row[lead], row[lead]
            row = [pv * r - rv * p for r, p in zip(row, pivot_row)]
    if all(v == 0 for v in row):
        return None
    g = 0
    for v in row:
        g = math.gcd(g, abs(v))
    return [v // g for v in row]


def constraint_row(scenario, con):
    """The +-1 coefficient vector of a constraint over the flattened table."""
    row = [0] * (scenario.num_setting_sequences * scenario.num_outcome_sequences)
    plus, minus = con.cells(scenario)
    for i, j in plus:
        row[i * scenario.num_outcome_sequences + j] += 1
    for i, j in minus:
        row[i * scenario.num_outcome_sequences + j] -= 1
    return row


def normalization_basis(scenario):
    basis = []
    width = scenario.num_outcome_sequences
    for x_idx in range(scenario.num_setting_sequences):
        row = [0] * (scenario.num_setting_sequences * width)
        row[x_idx * width:(x_idx + 1) * width] = [1] * width
        basis.append(integer_row_reduce(basis, row))
    return basis


def greedy_independent_flags(scenario):
    """Exact elimination over all constraints in order, modulo
    normalization: flags each constraint that enlarges the span."""
    basis = normalization_basis(scenario)
    flags = []
    for con in aot_constraints(scenario):
        reduced = integer_row_reduce(basis, constraint_row(scenario, con))
        if reduced is not None:
            basis.append(reduced)
        flags.append(reduced is not None)
    return flags


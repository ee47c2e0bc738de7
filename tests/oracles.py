"""Slow reference implementations of the prefix-tree walkers and of the
bound refinement.

Each walker goes through the tree of measurement histories cell by cell or
node by node, without the history-tensor view, except
``readout_noise_einsum``, the per-step contraction of that view that the
strided noise update must match bit for bit; ``refine`` runs one scipy
Nelder-Mead search per start on a scalar objective; the Monte Carlo AoT
calibration draws and scores one replication at a time; the AoT check
sums each constraint's cells one by one. They are the
references for the randomized comparisons in ``test_oracles.py``. The
table and counts-file writers and readers decode, parse and encode every
label cell by cell, and ``strategy_to_table`` writes a deterministic
strategy's 0/1 table one setting sequence at a time.

The qubit helpers (the Pauli matrices, Bloch states and the extremal
measurement pair), ``prob``, which reads one table entry by its
sequences, and ``frequencies``, the counts divided as numpy divides int64
arrays, serve only the tests and live here for that reason; ``certify``
builds the certification report from those frequencies.
"""

import itertools
import math
import re
from decimal import Decimal

import numpy as np
from scipy.optimize import minimize

from temporalwitness import stats
from temporalwitness.polytope import aot_constraints, enumerate_deterministic_strategies
from temporalwitness.qcore import (
    PSD_TOL,
    TRACE_TOL,
    check_bloch_parameters,
    clamp_cos_gamma,
    identity,
)
from temporalwitness.scenario import (
    OUTCOME_LABELS,
    Scenario,
    decode_index,
    encode_sequence,
    parse_outcome_sequence,
    parse_setting_sequence,
)
from temporalwitness.simulator import CorrelationTable, evaluate_witness


def branch_kraus_operators(effect, preparation):
    """Kraus operators ``sqrt(lambda_k mu_j) |s_j><e_k|`` of the branch
    ``rho -> tr(E rho) sigma``, from the eigendecompositions
    ``E = sum_k lambda_k |e_k><e_k|`` and ``sigma = sum_j mu_j |s_j><s_j|``;
    terms with a product below 1e-24 are dropped."""
    lam, e_vecs = np.linalg.eigh(effect)
    mu, s_vecs = np.linalg.eigh(preparation)
    return [
        math.sqrt(lam[k] * mu[j]) * np.outer(s_vecs[:, j], e_vecs[:, k].conj())
        for k in range(len(lam))
        for j in range(len(mu))
        if lam[k] * mu[j] > 1e-24
    ]


def sequence_probabilities(protocol, length):
    """Depth-first recursion over histories through each branch's physical
    instrument, ``rho -> sum_i K_i rho K_i^dag``, pruning branches of trace
    at most 1e-15."""
    m = protocol.num_settings
    d = len(protocol.outcomes)
    scenario = Scenario(length=length, settings=m, outcomes=d)
    probs = np.zeros((scenario.num_setting_sequences, scenario.num_outcome_sequences))
    kraus = [[branch_kraus_operators(protocol.effects[x, a], protocol.preparations[x, a])
              for a in range(d)] for x in range(m)]

    def descend(depth, x_idx, a_idx, rho):
        if depth == length:
            probs[x_idx, a_idx] = float(rho.trace().real)
            return
        for x in range(m):
            for a in range(d):
                branch = sum((op @ rho @ op.conj().T for op in kraus[x][a]),
                             np.zeros_like(rho))
                if branch.trace().real > 1e-15:
                    descend(depth + 1, x_idx * m + x, a_idx * d + a, branch)

    descend(0, 0, 0, protocol.initial_state)
    return CorrelationTable(scenario=scenario, probs=probs)


def apply_readout_noise(table, bright, noise):
    """Sum over every (true, recorded) outcome-sequence pair of a row;
    ``bright[x][a]`` tells whether branch ``(x, a)`` fluoresces."""
    sc = table.scenario
    noisy = np.zeros_like(table.probs)
    for x_idx in range(sc.num_setting_sequences):
        x_seq = decode_index(x_idx, sc.settings, sc.length)
        for a_idx in range(sc.num_outcome_sequences):
            p = table.probs[x_idx, a_idx]
            if p == 0.0:
                continue
            a_seq = decode_index(a_idx, sc.outcomes, sc.length)
            correct = [noise.p_bright_correct if bright[x_seq[t]][a_seq[t]]
                       else noise.p_dark_correct for t in range(sc.length)]
            for r_idx in range(sc.num_outcome_sequences):
                r_seq = decode_index(r_idx, sc.outcomes, sc.length)
                factor = p
                for t in range(sc.length):
                    factor *= correct[t] if r_seq[t] == a_seq[t] else 1.0 - correct[t]
                noisy[x_idx, r_idx] += factor
    return CorrelationTable(scenario=sc, probs=noisy)


def to_history(sc, table):
    """History-tensor view, axes ``x_1, a_1, ..., x_L, a_L``, of a
    ``(setting sequence, outcome sequence)`` array of scenario ``sc``, or of
    a stack of them on leading batch axes, which are kept in front; the
    inverse of ``Scenario.from_history``."""
    length = sc.length
    batch = np.shape(table)[:-2]
    arr = np.reshape(table, batch + (sc.settings,) * length + (sc.outcomes,) * length)
    first = len(batch)
    return arr.transpose([*range(first), *(first + t + length * j
                                           for t in range(length) for j in (0, 1))])


def readout_noise_einsum(table, bright, noise):
    """Readout noise as a contraction of the history tensor: one einsum per
    step takes the true outcome into the recorded one through the confusion
    ``[x, a, r]``. It sums the same two products in the same order as
    ``simulator.apply_readout_noise``, so the two agree bit for bit."""
    sc = table.scenario
    correct = np.where(bright, noise.p_bright_correct, noise.p_dark_correct)[..., None]
    confusion = np.where(np.eye(2, dtype=bool), correct, 1.0 - correct)
    tensor = to_history(sc, table.probs)
    axes = list(range(tensor.ndim))
    for x_axis in range(0, tensor.ndim, 2):
        out = axes.copy()
        out[x_axis + 1] = tensor.ndim
        tensor = np.einsum(tensor, axes, confusion, [x_axis, x_axis + 1, tensor.ndim], out)
    return CorrelationTable(scenario=sc, probs=sc.from_history(tensor))


def prefix_counts(counts):
    """Pooled counts keyed by (setting prefix, outcome prefix) per depth."""
    sc = counts.scenario
    num = [dict() for _ in range(sc.length + 1)]
    den = [dict() for _ in range(sc.length + 1)]
    for x_idx in range(sc.num_setting_sequences):
        x_seq = decode_index(x_idx, sc.settings, sc.length)
        for a_idx in range(sc.num_outcome_sequences):
            n = int(counts.counts[x_idx][a_idx])
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
            k = int(counts.counts[x_idx][a_idx])
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
    log_alt, log_null = aot_log_likelihoods(counts)
    cutoff = aot_statistic(counts) - 1e-12 * max(1.0, abs(log_alt) + abs(log_null))
    null = stats.null_model_table(counts)
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(replications):
        if aot_statistic(sample_counts(null, counts.repetitions, rng)) >= cutoff:
            exceed += 1
    return (1 + exceed) / (replications + 1)


def frequencies(counts):
    """Empirical frequencies by numpy's int64 division; every setting
    sequence needs at least one shot."""
    n = np.array(counts.repetitions, dtype=np.int64)
    if n.min() == 0:
        bad = decode_index(int(np.argmin(n)), counts.scenario.settings, counts.scenario.length)
        raise ValueError(f"setting sequence {bad} has zero repetitions")
    return CorrelationTable(counts.scenario, np.array(counts.counts, dtype=np.int64) / n[:, None])


def certify(witness, counts, spec=stats.ConfidenceSpec()):
    """The report of ``stats.certify``, with every frequency divided as
    numpy divides int64 arrays: the value from :func:`frequencies`, the
    lower end from the counts over the attempted shots."""
    n = np.array(counts.repetitions, dtype=np.int64)
    attempted = n + np.array(counts.discarded, dtype=np.int64)
    value = evaluate_witness(witness, frequencies(counts))
    halfwidth = stats.hoeffding_halfwidth(witness, n, spec)
    lower = witness.score(np.array(counts.counts, dtype=np.int64) / attempted[:, None])
    lower -= stats.hoeffding_halfwidth(witness, attempted, spec)
    frac = stats.qutrit_fraction(value, witness.qubit_bound, witness.algebraic_max)
    return stats.CertificationReport(
        witness_id=witness.id, value=value, halfwidth=halfwidth, confidence=spec.confidence,
        qubit_bound=witness.qubit_bound, algebraic_max=witness.algebraic_max,
        violation_ratio=value / witness.qubit_bound, fraction=frac.fraction,
        fraction_halfwidth=halfwidth / (witness.algebraic_max - witness.qubit_bound),
        below_bound=frac.below_bound, certified=lower > witness.threshold,
        total_shots=int(n.sum()), total_discarded=int(np.sum(counts.discarded)))


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


def pauli_matrices():
    """The three Pauli matrices, shape ``(3, 2, 2)``."""
    return np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def bloch_to_state(alpha):
    """Qubit state ``(1 + alpha . sigma) / 2`` from a Bloch vector of norm
    at most 1."""
    vec = np.asarray(alpha, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    norm = float(np.linalg.norm(vec))
    if not norm <= 1.0 + TRACE_TOL:
        raise ValueError(f"Bloch vector norm {norm} exceeds 1")
    return 0.5 * (identity(2) + np.einsum("i,ijk->jk", vec, pauli_matrices()))


def bloch_effect(a, b, n):
    """Qubit effect ``a (1 + b n . sigma)`` with ``n`` a unit vector, for
    ``b in [0, 1]`` and ``a in [0, 1/(1+b)]``."""
    vec = np.asarray(n, dtype=float).reshape(-1)
    if vec.shape != (3,):
        raise ValueError("axis must have 3 components")
    if abs(float(np.linalg.norm(vec)) - 1.0) > PSD_TOL:
        raise ValueError("axis must be a unit vector")
    check_bloch_parameters(a, b)
    return a * (identity(2) + b * np.einsum("i,ijk->jk", vec, pauli_matrices()))


def effect_four_vector(effect):
    """Coefficients ``(w, v)`` of an effect in the identity/Pauli basis."""
    w = float(np.trace(effect).real) / 2.0
    v = [float(np.trace(s @ effect).real) / 2.0 for s in pauli_matrices()]
    return np.array([w, *v])


def effect_ops(a0, b0, a1, b1, cos_gamma):
    """``ops[x, a, :]`` of ``E(+|0) = a0 (1 + b0 c.sigma)``,
    ``E(+|1) = a1 (1 + b1 d.sigma)`` and their complements, traced out of
    2x2 matrices; ``c`` is the first axis and ``d`` lies in the 1-2 plane."""
    c = np.array([1.0, 0.0, 0.0])
    d = np.array([cos_gamma, math.sqrt(max(0.0, 1.0 - cos_gamma * cos_gamma)), 0.0])
    ops = []
    for a, b, axis in ((a0, b0, c), (a1, b1, d)):
        plus = bloch_effect(a, b, axis)
        ops.append([effect_four_vector(plus), effect_four_vector(identity(2) - plus)])
    return np.array(ops)


def extremal_qubit_measurements(p, q, cos_gamma):
    """The extremal two-outcome qubit measurement pair, as the ``(2, 2, 2,
    2)`` arrays ``(effects, preparations)`` that ``Protocol`` takes.

    Effects are ``E(+|0) = [(2-p) 1 + p c.sigma]/2`` and its complement
    (computed by exact subtraction, so the pair sums to the identity
    exactly), and the analogue with ``q`` and ``d``, where ``c`` points
    along the first axis and ``d`` lies in the 1-2 plane at relative angle
    ``gamma``. Setting 0 prepares, on either outcome, the Bloch vector
    along ``p X0 c - q X1 d`` and setting 1 its opposite; these realize
    the optimal qubit value of the three-step witness.
    """
    for name, val in (("p", p), ("q", q)):
        if not -1e-12 <= val <= 1.0 + 1e-12:
            raise ValueError(f"{name}={val} outside [0, 1]")
    cg = clamp_cos_gamma(cos_gamma)
    c = np.array([1.0, 0.0, 0.0])
    d = np.array([cg, math.sqrt(max(0.0, 1.0 - cg * cg)), 0.0])
    sig = pauli_matrices()
    plus = [
        0.5 * ((2.0 - s) * identity(2) + s * np.einsum("i,ijk->jk", n, sig))
        for s, n in ((p, c), (q, d))
    ]
    root = math.sqrt(max(0.0, p * p + q * q - 2.0 * p * q * cg))
    x0 = 2.0 - p + q + root
    x1 = p + 2.0 - q + root
    axis = p * x0 * c - q * x1 * d
    norm = float(np.linalg.norm(axis))
    alpha = axis / norm if norm > 1e-12 else c
    prepared = (bloch_to_state(alpha), bloch_to_state(-alpha))
    effects = np.array([[e, identity(2) - e] for e in plus])
    return effects, np.array([[prep, prep] for prep in prepared])


def refine(objective, start, box, budget):
    """scipy's Nelder-Mead ascent from ``start`` inside ``box``. Returns
    (value, point, evaluations)."""
    res = minimize(
        lambda z: -objective(z),
        np.array(start, dtype=float),
        method="Nelder-Mead",
        bounds=box,
        options={"xatol": 1e-9, "fatol": 1e-12, "maxfev": budget},
    )
    return -res.fun, res.x, int(res.nfev)


def grid_top_ten(objective_batch, axes):
    """The ten best cells of the dense grid of ``axes``, evaluated in one
    call on its points in C order: their indices, by value descending and
    then by index, and their values."""
    shape = tuple(len(axis) for axis in axes)
    index = np.unravel_index(np.arange(math.prod(shape)), shape)
    flat = objective_batch([axis[i] for axis, i in zip(axes, index)])
    order = np.argsort(-flat, kind="stable")[:10]
    return order, flat[order]


def prob(table, settings, outcomes):
    """The table entry of an outcome sequence given a setting sequence."""
    sc = table.scenario
    return float(table.probs[encode_sequence(settings, sc.settings),
                             encode_sequence(outcomes, sc.outcomes)])


def outcome_sequence(strategy, settings):
    """The outcomes a deterministic strategy gives a setting sequence."""
    m = strategy.scenario.settings
    return tuple(strategy.moves[t][encode_sequence(settings[: t + 1], m)]
                 for t in range(len(settings)))


def strategy_to_table(strategy):
    """The 0/1 correlation table of a strategy; satisfies AoT exactly."""
    sc = strategy.scenario
    probs = np.zeros((sc.num_setting_sequences, sc.num_outcome_sequences))
    x_seqs = itertools.product(range(sc.settings), repeat=sc.length)
    for x_idx, x_seq in enumerate(x_seqs):
        probs[x_idx, encode_sequence(outcome_sequence(strategy, x_seq), sc.outcomes)] = 1.0
    return CorrelationTable(scenario=sc, probs=probs)


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


def aot_constraint_value(table, con):
    """A constraint's +1 cells minus its -1 cells, each summed cell by cell."""
    plus, minus = con.cells(table.scenario)
    return float(
        sum(table.probs[i, j] for i, j in plus) - sum(table.probs[i, j] for i, j in minus)
    )


def check_aot(table, tol):
    """Every constraint past ``tol``, evaluated one at a time in order."""
    values = [(con, aot_constraint_value(table, con)) for con in aot_constraints(table.scenario)]
    return [(con, value) for con, value in values if abs(value) > tol]


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


def format_setting_sequence(seq):
    """A setting-sequence label, one digit per step."""
    return "".join(str(x) for x in seq)


def format_outcome_sequence(seq, scenario):
    """An outcome-sequence label: ``+``/``-`` per step for two outcomes,
    else one digit per step."""
    if scenario.outcomes == 2:
        return "".join(OUTCOME_LABELS[a] for a in seq)
    return "".join(str(a) for a in seq)


def format_correlation_table(table):
    """The table text, one row per cell, each label decoded from its index."""
    sc = table.scenario
    lines = [
        "correlation-table v1",
        f"length: {sc.length}",
        f"settings: {sc.settings}",
        f"outcomes: {sc.outcomes}",
    ]
    for x_idx in range(sc.num_setting_sequences):
        x_txt = format_setting_sequence(decode_index(x_idx, sc.settings, sc.length))
        for a_idx in range(sc.num_outcome_sequences):
            a_txt = format_outcome_sequence(decode_index(a_idx, sc.outcomes, sc.length), sc)
            lines.append(f"{x_txt} {a_txt} {table.probs[x_idx, a_idx]:.12g}")
    return "\n".join(lines) + "\n"


def table_rows(table):
    """The machine-report rows of a table, cell by cell."""
    sc = table.scenario
    rows = []
    for x_idx in range(sc.num_setting_sequences):
        x_txt = format_setting_sequence(decode_index(x_idx, sc.settings, sc.length))
        for a_idx in range(sc.num_outcome_sequences):
            a_txt = format_outcome_sequence(decode_index(a_idx, sc.outcomes, sc.length), sc)
            rows.append(
                {"settings": x_txt, "outcomes": a_txt, "p": table.probs[x_idx, a_idx]}
            )
    return rows


def format_counts_file(counts, witness_id=None):
    """The counts file, record by record and cell by cell."""
    sc = counts.scenario
    lines = [
        "counts v1",
        f"length: {sc.length}",
        f"settings: {sc.settings}",
        f"outcomes: {sc.outcomes}",
    ]
    if witness_id is not None:
        lines.append(f"witness: {witness_id}")
    for x_idx in range(sc.num_setting_sequences):
        x_seq = decode_index(x_idx, sc.settings, sc.length)
        lines.append("")
        lines.append(f"sequence: {format_setting_sequence(x_seq)}")
        lines.append(f"n: {int(counts.repetitions[x_idx])}")
        lines.append(f"discarded: {int(counts.discarded[x_idx])}")
        for a_idx in range(sc.num_outcome_sequences):
            a_seq = decode_index(a_idx, sc.outcomes, sc.length)
            lines.append(
                f"{format_outcome_sequence(a_seq, sc)} {int(counts.counts[x_idx][a_idx])}"
            )
    return "\n".join(lines) + "\n"


def parse_correlation_table(text):
    """The table reader that parses and encodes every label."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "correlation-table v1":
        raise ValueError("correlation-table file must start with 'correlation-table v1'")
    header = {}
    body_start = 1
    for ln in lines[1:]:
        key, sep, rest = ln.partition(":")
        if not sep:
            break
        if key.strip() not in ("length", "settings", "outcomes"):
            raise ValueError(f"unknown table-file key {key.strip()!r}: {ln!r}")
        if key.strip() in header:
            raise ValueError(f"repeated table-file key {key.strip()!r}: {ln!r}")
        header[key.strip()] = count_value(rest.strip(), ln)
        body_start += 1
    for key in ("length", "settings", "outcomes"):
        if key not in header:
            raise ValueError(f"table file is missing the {key!r} header")
    scenario = Scenario(header["length"], header["settings"], header["outcomes"])
    probs = np.zeros((scenario.num_setting_sequences, scenario.num_outcome_sequences))
    seen = np.zeros(probs.shape, dtype=bool)
    for ln in lines[body_start:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"malformed table row: {ln!r}")
        x_seq = parse_setting_sequence(parts[0], scenario)
        a_seq = parse_outcome_sequence(parts[1], scenario)
        i = encode_sequence(x_seq, scenario.settings)
        j = encode_sequence(a_seq, scenario.outcomes)
        if seen[i, j]:
            raise ValueError(f"duplicate table row for {parts[0]} {parts[1]}")
        seen[i, j] = True
        probs[i, j] = table_entry(parts[2], ln)
    if not seen.all():
        raise ValueError("table file is missing rows")
    return CorrelationTable(scenario=scenario, probs=probs)


def table_entry(text, line):
    """A table entry as ``"%.12g"`` writes one in [0, 1]: ``-0``, or ASCII
    digits with an optional fraction of ASCII digits and, after a single
    leading digit, an optional exponent ``e-`` and ASCII digits."""
    mantissa, exp_sign, exponent = text.partition("e-")
    whole, point, fraction = mantissa.partition(".")

    def digits(part):
        return part != "" and all(c in "0123456789" for c in part)

    if text != "-0" and not (digits(whole) and (not point or digits(fraction))
                             and (not exp_sign or (len(whole) == 1 and digits(exponent)))):
        raise ValueError(
            f"line {line!r} needs a finite ASCII decimal entry, as '%.12g' writes one in [0, 1]")
    return float(text)


def count_value(text, line):
    """A document number: ASCII decimal digits, however many, and an int64
    that is not negative. ``Decimal`` reads any number of digits, where
    ``int`` stops at a settable limit."""
    if re.fullmatch("[0-9]+", text) is None or Decimal(text) > np.iinfo(np.int64).max:
        raise ValueError(
            f"line {line!r} needs a decimal integer in [0, {np.iinfo(np.int64).max}]")
    return int(Decimal(text))


def parse_counts_file(text):
    """The counts-file reader that parses and encodes every label."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "counts v1":
        raise ValueError("counts file must start with 'counts v1'")
    header = {}
    pos = 1
    while pos < len(lines) and not lines[pos].startswith("sequence:"):
        key, sep, rest = lines[pos].partition(":")
        key = key.strip()
        if not sep or key not in ("length", "settings", "outcomes", "witness"):
            raise ValueError(f"unknown counts-file key {key!r}: {lines[pos]!r}")
        if key in header:
            raise ValueError(f"repeated counts-file key {key!r}: {lines[pos]!r}")
        header[key] = rest.strip() if key == "witness" else count_value(rest.strip(), lines[pos])
        pos += 1
    for key in ("length", "settings", "outcomes"):
        if key not in header:
            raise ValueError(f"counts file is missing the {key!r} header")
    scenario = Scenario(header["length"], header["settings"], header["outcomes"])
    witness_id = header.get("witness")

    counts = np.zeros(
        (scenario.num_setting_sequences, scenario.num_outcome_sequences), dtype=np.int64
    )
    discarded = np.zeros(scenario.num_setting_sequences, dtype=np.int64)
    seen = set()
    while pos < len(lines):
        key, sep, rest = lines[pos].partition(":")
        if key.strip() != "sequence" or not sep:
            raise ValueError(f"expected a 'sequence:' record, got {lines[pos]!r}")
        x_seq = parse_setting_sequence(rest.strip(), scenario)
        x_idx = encode_sequence(x_seq, scenario.settings)
        if x_idx in seen:
            raise ValueError(f"duplicate record for sequence {rest.strip()!r}")
        seen.add(x_idx)
        pos += 1
        x_txt = format_setting_sequence(x_seq)
        declared_n = None
        keys_seen = set()
        while pos < len(lines) and not lines[pos].startswith("sequence:"):
            ln = lines[pos]
            key, sep, rest = ln.partition(":")
            if sep and key.strip() in ("n", "discarded"):
                if key.strip() in keys_seen:
                    raise ValueError(f"record {x_txt!r} repeats {key.strip()!r}: {ln!r}")
                keys_seen.add(key.strip())
                if key.strip() == "n":
                    declared_n = count_value(rest.strip(), ln)
                else:
                    discarded[x_idx] = count_value(rest.strip(), ln)
            else:
                parts = ln.split()
                if len(parts) != 2:
                    raise ValueError(f"malformed counts line {ln!r}")
                a_seq = parse_outcome_sequence(parts[0], scenario)
                if a_seq in keys_seen:
                    raise ValueError(f"record {x_txt!r} repeats {parts[0]!r}: {ln!r}")
                keys_seen.add(a_seq)
                counts[x_idx, encode_sequence(a_seq, scenario.outcomes)] = count_value(parts[1], ln)
            pos += 1
        if declared_n is None:
            raise ValueError(f"record {x_txt!r} is missing 'n'")
        total = sum(int(k) for k in counts[x_idx])
        if total != declared_n:
            raise ValueError(
                f"counts for sequence {x_txt!r} sum to {total}, expected n={declared_n}"
            )
    if len(seen) != scenario.num_setting_sequences:
        raise ValueError("counts file does not cover every setting sequence")
    return stats.CountsTable(scenario=scenario, counts=counts, discarded=discarded), witness_id

"""Randomized comparisons of the history-tensor walkers and of the
label-table serializers with the slow reference implementations in
``oracles.py``."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import chdtrc, ndtri

import oracles
import util
from temporalwitness import bounds, cli, polytope, protocols, simulator, stats
from temporalwitness.scenario import WITNESSES, Scenario, Witness, get_witness
from temporalwitness.simulator import CorrelationTable, ReadoutNoise

ORACLE = settings(max_examples=25, deadline=None, database=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


def random_table(rng, scenario, sparsity=0.3):
    shape = (scenario.num_setting_sequences, scenario.num_outcome_sequences)
    weights = rng.random(shape) * (rng.random(shape) >= sparsity)
    weights[:, 0] += 0.1
    return CorrelationTable(scenario, weights / weights.sum(axis=1, keepdims=True))


def deterministic_scenarios(max_strategies):
    """Small scenarios whose strategies brute force can enumerate."""
    return [
        Scenario(length, m, d)
        for length, m, d in itertools.product((1, 2, 3), (1, 2, 3), (2, 3))
        if d ** sum(m**t for t in range(1, length + 1)) <= max_strategies
    ]


def random_witness(rng, scenario, num_terms, integer=True):
    terms = []
    for _ in range(num_terms):
        settings_ = tuple(int(v) for v in rng.integers(0, scenario.settings, scenario.length))
        outcomes = tuple(int(v) for v in rng.integers(0, scenario.outcomes, scenario.length))
        coeff = float(rng.integers(-3, 4)) if integer else float(rng.normal())
        terms.append((settings_, outcomes, coeff))
    return Witness(id="random", scenario=scenario, terms=tuple(terms))


@ORACLE
@given(seed=seeds, m=st.integers(1, 3), d=st.integers(2, 3), dim=st.integers(2, 3),
       mixed=st.booleans(), length=st.integers(1, 5))
def test_simulator_matches_recursion_measure_and_prepare(seed, m, d, dim, mixed, length):
    # The recursion visits every history; (3 * 3)^5 of them would take
    # seconds, so length 5 runs with at most six branches per step.
    assume((m * d) ** length <= 6**5)
    protocol = util.random_protocol(np.random.default_rng(seed), m, d, dim, mixed)
    table = simulator.sequence_probabilities(protocol, length)
    expected = oracles.sequence_probabilities(protocol, length)
    assert np.allclose(table.probs, expected.probs, rtol=0, atol=1e-12)


@ORACLE
@given(seed=seeds, dim=st.integers(2, 3), mixed=st.booleans())
def test_reference_branches_measure_and_prepare(seed, dim, mixed):
    # The reference's Kraus operators of branch (x, a) realize the physical
    # map rho -> tr(E rho) sigma, which the Markov product assumes.
    rng = np.random.default_rng(seed)
    protocol = util.random_protocol(rng, 1, 3, dim, mixed)
    rho = util.random_state(rng, dim, mixed=True)
    for effect, preparation in zip(protocol.effects[0], protocol.preparations[0]):
        ops = oracles.branch_kraus_operators(effect, preparation)
        out = sum(op @ rho @ op.conj().T for op in ops)
        assert np.allclose(out, np.trace(effect @ rho).real * preparation, rtol=0, atol=1e-12)


@pytest.mark.parametrize("wid", sorted(WITNESSES))
def test_optimal_protocols_match_recursion_exactly(wid):
    protocol = protocols.optimal_protocol(wid)
    for length in (1, 2, 3, 4, 5, 6):
        table = simulator.sequence_probabilities(protocol, length)
        assert np.array_equal(
            table.probs, oracles.sequence_probabilities(protocol, length).probs
        )


@ORACLE
@given(seed=seeds, shape=st.sampled_from([(1, 1), (2, 1), (3, 2), (4, 2), (2, 3), (3, 3)]),
       bright=st.floats(0.0, 1.0), dark=st.floats(0.0, 1.0))
def test_readout_noise_matches_cell_loop(seed, shape, bright, dark):
    rng = np.random.default_rng(seed)
    length, m = shape
    table = random_table(rng, Scenario(length, m, 2))
    mask = rng.random((m, 2)) < 0.5
    noise = ReadoutNoise(bright, dark)
    noisy = simulator.apply_readout_noise(table, mask, noise)
    expected = oracles.apply_readout_noise(table, mask.tolist(), noise)
    assert np.allclose(noisy.probs, expected.probs, rtol=0, atol=1e-12)


@ORACLE
@given(seed=seeds, length=st.integers(1, 6), m=st.integers(1, 3),
       sparsity=st.sampled_from([0.0, 0.3, 0.9]),
       bright=st.floats(0.0, 1.0), dark=st.floats(0.0, 1.0))
@example(seed=0, length=6, m=3, sparsity=0.9, bright=0.0, dark=1.0)
@example(seed=1, length=5, m=2, sparsity=0.3, bright=1.0, dark=0.0)
def test_readout_noise_matches_einsum_bit_for_bit(seed, length, m, sparsity, bright, dark):
    rng = np.random.default_rng(seed)
    table = random_table(rng, Scenario(length, m, 2), sparsity)
    mask = rng.random((m, 2)) < 0.5
    noise = ReadoutNoise(bright, dark)
    noisy = simulator.apply_readout_noise(table, mask, noise)
    expected = oracles.readout_noise_einsum(table, mask, noise)
    assert np.array_equal(noisy.probs.view(np.int64), expected.probs.view(np.int64))


counts_scenarios = st.sampled_from(
    [(1, 2, 2), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2), (3, 1, 3), (4, 2, 2)]
)


@ORACLE
@given(seed=seeds, dims=counts_scenarios, shots=st.integers(1, 10**8),
       sparsity=st.floats(0.0, 0.9), batch=st.sampled_from([(), (3,), (2, 2)]),
       single=st.floats(0.0, 1.0))
def test_aot_statistics_match_dict_loops(seed, dims, shots, sparsity, batch, single):
    rng = np.random.default_rng(seed)
    sc = Scenario(*dims)
    shape = batch + (sc.num_setting_sequences, sc.num_outcome_sequences)
    raw = rng.integers(0, shots + 1, size=shape) * (rng.random(shape) >= sparsity)
    # A share ``single`` of the rows keeps one nonzero outcome, whose
    # margins all equal their contexts.
    rows = rng.random(shape[:-1]) < single
    kept = rng.integers(0, sc.num_outcome_sequences, size=shape[:-1])
    one_hot = np.arange(sc.num_outcome_sequences) == kept[..., None]
    raw = np.where(rows[..., None] & ~one_hot, 0, raw)
    raw[rows[..., None] & one_hot] = rng.integers(1, shots + 1, size=int(rows.sum()))
    statistics = stats._aot_statistic(sc, raw)
    assert statistics.shape == batch

    for index in np.ndindex(batch):
        counts = stats.CountsTable(sc, raw[index])
        # Both sides sum many terms of either sign, so they agree to 1e-12
        # relative to the log-likelihoods, not to their difference.
        log_alt, log_null = oracles.aot_log_likelihoods(counts)
        scale = 1.0 + abs(log_alt) + abs(log_null)
        assert abs(statistics[index] - oracles.aot_statistic(counts)) <= 1e-12 * scale

        null = stats.null_model_table(counts)
        expected = oracles.null_model_table(counts)
        assert np.allclose(null.probs, expected.probs, rtol=0, atol=1e-12)


@ORACLE
@given(seed=seeds, dims=counts_scenarios, batch=st.sampled_from([(), (1,), (3,), (2, 3)]))
def test_history_view_of_stacked_tables(seed, dims, batch):
    sc = Scenario(*dims)
    tables = np.random.default_rng(seed).random(
        batch + (sc.num_setting_sequences, sc.num_outcome_sequences))
    tensor = oracles.to_history(sc, tables)
    assert tensor.shape == batch + (sc.settings, sc.outcomes) * sc.length
    for index in np.ndindex(batch):
        assert np.array_equal(tensor[index], oracles.to_history(sc, tables[index]))


def null_model_counts(rng, sc, shots, sparsity, prefix_gap):
    """Sparse counts with at least one shot per setting sequence. With
    ``prefix_gap`` no shot has the last outcome first, so every context
    that follows it never occurs."""
    shape = (sc.num_setting_sequences, sc.num_outcome_sequences)
    raw = rng.integers(0, shots + 1, size=shape) * (rng.random(shape) >= sparsity)
    if prefix_gap:
        raw[:, -sc.outcomes ** (sc.length - 1):] = 0
    empty = raw.sum(axis=1) == 0
    raw[empty, rng.integers(0, sc.num_outcome_sequences // sc.outcomes, empty.sum())] = 1
    return stats.CountsTable(sc, raw)


null_scenarios = st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (4, 2, 2)])


@ORACLE
@given(seed=seeds, dims=null_scenarios, shots=st.integers(1, 60), sparsity=st.floats(0.0, 0.9),
       prefix_gap=st.booleans(), replications=st.integers(1, 300), chunk=st.integers(1, 64),
       spare=st.floats(0.0, 1.0))
def test_montecarlo_chunks_match_replication_loop(seed, dims, shots, sparsity, prefix_gap,
                                                  replications, chunk, spare):
    sc = Scenario(*dims)
    counts = null_model_counts(np.random.default_rng(seed), sc, shots, sparsity, prefix_gap)
    # Chunks of ``chunk`` replications, so that boundaries fall mid-run.
    cells = chunk * counts.counts.size + int(spare * (counts.counts.size - 1))
    with mock.patch.object(stats, "MC_CHUNK_CELLS", cells):
        result = stats.aot_lr_test_montecarlo(counts, replications, seed)
    assert result.p_value == oracles.aot_montecarlo_p_value(counts, replications, seed)


@ORACLE
@given(seed=seeds, dims=null_scenarios, shots=st.integers(1, 60), sparsity=st.floats(0.0, 0.9),
       gaps=st.lists(st.booleans(), min_size=1, max_size=6), shape=st.sampled_from([(6,), (2, 3)]))
def test_table_scores_alike_alone_or_in_a_batch(seed, dims, shots, sparsity, gaps, shape):
    # The Monte Carlo tie cutoff compares batched replications with the lone
    # observed table, so both must sum each table's terms in the same order.
    sc = Scenario(*dims)
    rng = np.random.default_rng(seed)
    tables = [null_model_counts(rng, sc, shots, sparsity, gaps[i % len(gaps)]).counts
              for i in range(6)]
    stack = np.reshape(tables, shape + tables[0].shape)

    def scores(counts):
        return np.stack([*stats._log_likelihoods(sc, counts), stats._aot_statistic(sc, counts)])

    batched = scores(stack)
    for index in np.ndindex(shape):
        assert batched[(slice(None), *index)].tobytes() == scores(stack[index]).tobytes()


@ORACLE
@given(seed=seeds, dims=counts_scenarios, shots=st.integers(0, 500))
def test_sample_counts_match_row_loop(seed, dims, shots):
    rng = np.random.default_rng(seed)
    sc = Scenario(*dims)
    table = random_table(rng, sc, sparsity=0.5)
    probs = table.probs.copy()
    probs[0] = np.eye(1, sc.num_outcome_sequences, sc.num_outcome_sequences - 1)
    table = CorrelationTable(sc, probs)
    reps = rng.integers(0, shots + 1, sc.num_setting_sequences)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    sampled = stats.sample_counts(table, reps, ours)
    assert np.array_equal(sampled.counts, oracles.sample_counts(table, reps, theirs).counts)
    assert ours.bit_generator.state == theirs.bit_generator.state


@ORACLE
@given(seed=seeds, length=st.integers(1, 3), num_terms=st.integers(1, 12),
       kind=st.sampled_from(["random", "single", "cancelled"]),
       batch=st.sampled_from([(), (3,), (2, 2)]))
# The drawn examples are mostly short; these reach plans with several
# planned rows at every level.
@example(seed=1, length=3, num_terms=6, kind="random", batch=(3,))
@example(seed=2, length=3, num_terms=12, kind="random", batch=(2, 2))
def test_nested_bound_matches_recursion(seed, length, num_terms, kind, batch):
    rng = np.random.default_rng(seed)
    if kind == "single":
        num_terms = 1
    witness = random_witness(rng, Scenario(length, 2, 2), num_terms, integer=False)
    if kind == "cancelled":
        # Each term is followed by its negation, so every cell sums to an
        # exact zero: an all-zero tensor with no planned rows.
        terms = tuple(t for s, o, c in witness.terms for t in ((s, o, c), (s, o, -c)))
        witness = Witness(id="random", scenario=witness.scenario, terms=terms)
    plan = bounds._nested_plan(witness.coefficients)
    assert (len(plan.rows) == 0) == (kind == "cancelled")
    lo = np.array([0.0, 0.0, 0.0, 0.0, -1.0]).reshape((5,) + (1,) * len(batch))
    z = lo + (1.0 - lo) * rng.random((5,) + batch)
    ops = bounds._effect_ops(*bounds._effect_params(*z))
    # The oracle takes the effects batch first, as ``ops[..., x, a, :]``.
    batch_first = np.moveaxis(ops, (0, 1), (-2, -1)).reshape(batch + (2, 2, 4))
    # The same products and sums in the same order, skipping only exact
    # zeros: equal to the last bit.
    assert np.array_equal(
        bounds._nested_bound(plan, ops),
        oracles.nested_bound(witness, batch_first),
    )


@pytest.mark.parametrize("name,planned,histories", [
    ("T", [4, 2, 1], [16, 4, 1]), *((b, [2, 1], [4, 1]) for b in ("B1", "B2", "B3", "B4")),
])
def test_nested_plan_of_registry_witnesses(name, planned, histories):
    coeffs = get_witness(name).coefficients
    plan = bounds._nested_plan(coeffs)
    flat = coeffs.reshape(-1, 4)
    assert len(flat) == histories[0]
    assert np.array_equal(plan.rows, np.flatnonzero(flat.any(axis=1)))
    assert np.array_equal(plan.coeff_rows, flat[plan.rows])
    assert [len(plan.rows)] + [len(parents) for parents, _ in plan.steps] == planned
    below = plan.rows
    for (parents, children), size in zip(plan.steps, histories[1:]):
        assert parents.max() < size
        # Child (x, a) of a parent is its planned history, or the zero row
        # after the planned ones.
        for parent, row in zip(parents, children):
            for xa, k in enumerate(row):
                expected = np.flatnonzero(below == 4 * parent + xa)
                assert [k] == (list(expected) or [len(below)])
        below = parents


@ORACLE
@given(dof=st.integers(1, 400), data=st.data())
def test_chi2_sf_matches_scipy(dof, data):
    top = 20.0 * dof + 200.0
    drawn = data.draw(st.lists(st.floats(0.0, top), min_size=1, max_size=20))
    for x in [*drawn, *np.linspace(0.0, top, 201)]:
        expected = chdtrc(dof, x)
        if expected > 1e-300:
            assert stats._chi2_sf(float(x), dof) == pytest.approx(expected, rel=1e-11, abs=0)


@ORACLE
@given(p=st.one_of(st.floats(0.0, 1.0), st.floats(-300.0, 0.0).map(lambda e: 10.0**e)))
def test_sigma_equivalent_matches_scipy(p):
    expected = -ndtri(p / 2.0)
    assert stats._sigma_equivalent(p) == pytest.approx(expected, rel=1e-11, abs=0)


def test_chi2_sf_and_sigma_edges():
    for dof in (1, 2, 14, 399):
        assert stats._chi2_sf(0.0, dof) == 1.0
    sigma = stats._sigma_equivalent(1.0)
    assert sigma == 0.0 and math.copysign(1.0, sigma) == 1.0
    assert stats._sigma_equivalent(0.0) == math.inf


@ORACLE
@given(seed=seeds, witness_id=st.sampled_from(["B1", "B2", "B3", "B4", "T"]))
def test_nested_generic_bound_matches_matrix_effects(seed, witness_id):
    rng = np.random.default_rng(seed)
    witness = get_witness(witness_id)
    b0, b1 = rng.choice([0.0, 1.0, rng.random()], 2)
    a0, a1 = (rng.choice([1.0, rng.random()]) / (1.0 + b) for b in (b0, b1))
    params = (a0, b0, a1, b1, rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)]))
    ops = oracles.effect_ops(*params)
    assert np.abs(bounds._effect_ops(*params).reshape(2, 2, 4) - ops).max() <= 1e-15
    expected = oracles.nested_bound(witness, ops)
    assert bounds.nested_generic_bound(witness, *params) == pytest.approx(expected, rel=1e-15)


QUBIT_BOX = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
TEE_BOX = ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))


def refinement_problem(name):
    """Box and batched objective of the bound searches: the nested bound of
    a registry witness, or the closed form of the three-step witness."""
    if name == "closed":
        return TEE_BOX, lambda z: bounds._tee_closed_form_array(*z)
    plan = bounds._nested_plan(get_witness(name).coefficients)
    return QUBIT_BOX, lambda z: bounds._nested_bound(
        plan, bounds._effect_ops(*bounds._effect_params(*z)))


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_lockstep_matches_scipy(objective_batch, starts, box, budget):
    def scalar(z):
        return float(objective_batch(tuple(z)))

    results = bounds._lockstep_nelder_mead(objective_batch, starts, box, budget)
    assert len(results) == len(starts)
    for start, (value, point, nfev) in zip(starts, results):
        expected_value, expected_point, expected_nfev = oracles.refine(scalar, start, box, budget)
        assert type(value) is float
        assert bits(value) == bits(expected_value)
        assert bits(point) == bits(expected_point)
        assert nfev == expected_nfev


@ORACLE
@given(seed=seeds, objective=st.sampled_from(["B1", "T", "closed"]),
       num_starts=st.integers(1, 4), budget=st.integers(1, 80))
def test_lockstep_nelder_mead_matches_scipy(seed, objective, num_starts, budget):
    rng = np.random.default_rng(seed)
    box, objective_batch = refinement_problem(objective)
    lo, hi = np.array(box).T
    starts = lo + (hi - lo) * rng.random((num_starts, len(box)))
    # Starts on the upper bound take scipy's reflection branch; zero
    # coordinates take its absolute initial step.
    pick = rng.random(starts.shape)
    starts = np.where(pick < 0.2, hi, np.where(pick > 0.8, 0.0, starts))
    assert_lockstep_matches_scipy(objective_batch, starts, box, budget)


def grid_objective(name):
    """A batched objective with heavily tied values, and its cells per
    point."""
    if name == "constant":
        return lambda z: np.full(np.broadcast(*z).shape, 3.0), 1
    if name == "quantized":
        return lambda z: np.round(3.0 * np.cos(sum((k + 1) * c for k, c in enumerate(z)))), 1
    _, objective_batch = refinement_problem(name)
    return objective_batch, 64


@ORACLE
@given(data=st.data(), objective=st.sampled_from(["constant", "quantized", "B1"]),
       resolution=st.integers(1, 12))
def test_grid_top_ten_matches_dense_grid(data, objective, resolution):
    if objective == "B1":
        box = QUBIT_BOX
        resolution = min(resolution, 8)
    else:
        box = data.draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.sampled_from([0.0, 0.5, 2.0])),
                                 min_size=1, max_size=5))
        box = [(lo, lo + width) for lo, width in box]
    objective_batch, cells = grid_objective(objective)
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    # At most about a thousand slabs, down to one point each on small grids.
    size = resolution ** len(box)
    chunk = data.draw(st.integers(max(1, size * cells // 512), bounds.GRID_CHUNK_CELLS))
    with mock.patch.object(bounds, "GRID_CHUNK_CELLS", chunk):
        values, index = bounds._grid_top_ten(objective_batch, axes, cells)
    expected_index, expected_values = oracles.grid_top_ten(objective_batch, axes)
    assert index.tolist() == expected_index.tolist()
    assert bits(values) == bits(expected_values)


@pytest.mark.parametrize("objective,fraction", [("B1", 0.25), ("T", 0.37), ("closed", 0.37)])
def test_lockstep_nelder_mead_cut_at_every_budget(objective, fraction):
    # Every cut of one search: inside the initial simplex, before an
    # expansion or a contraction and, from the B1 start, inside a shrink.
    box, objective_batch = refinement_problem(objective)
    start = np.array([lo + fraction * (hi - lo) for lo, hi in box])
    for budget in range(1, 81):
        assert_lockstep_matches_scipy(objective_batch, [start, np.array(box)[:, 1]], box, budget)


def scipy_iteration_calls(objective_batch, start, box, budget):
    """Objective calls per iteration of scipy's search from ``start``,
    counted between its per-iteration callbacks, after the initial simplex."""
    calls = []

    def neg(z):
        calls.append(None)
        return -float(objective_batch(tuple(z)))

    ends = []
    minimize(neg, start, method="Nelder-Mead", bounds=box,
             callback=lambda xk: ends.append(len(calls)),
             options={"xatol": 1e-9, "fatol": 1e-12, "maxfev": budget})
    return np.diff([min(len(box) + 1, budget), *ends])


@pytest.mark.parametrize("objective,num_starts,budget",
                         [("B1", 12, 150), ("T", 20, 150), ("closed", 8, 185)])
def test_lockstep_nelder_mead_runs_of_different_lengths(objective, num_starts, budget):
    # Runs leave the lockstep at different iterations: some converge, the
    # others are cut by the budget, at least one inside a shrink.
    box, objective_batch = refinement_problem(objective)
    lo, hi = np.array(box).T
    starts = lo + (hi - lo) * np.random.default_rng(0).random((num_starts, len(box)))
    assert_lockstep_matches_scipy(objective_batch, starts, box, budget)
    per_run = [scipy_iteration_calls(objective_batch, s, box, budget) for s in starts]
    lengths = {len(calls) for calls in per_run}
    assert len(lengths) > 2
    assert any(len(box) + 1 + calls.sum() < budget for calls in per_run)
    assert any(2 < calls[-1] < 2 + len(box) for calls in per_run)


def test_lockstep_nelder_mead_runs_the_full_budget_on_the_corner():
    # Two of the seed-1 restarts of T crawl along the clipped s = 1 corner
    # until the default budget of 2000 evaluations runs out.
    box, objective_batch = refinement_problem("T")
    lo, hi = np.array(box).T
    starts = np.random.default_rng(1).uniform(lo, hi, (50, len(box)))[[37, 47]]
    results = bounds._lockstep_nelder_mead(objective_batch, starts, box, 2000)
    assert [nfev for _, _, nfev in results] == [2000, 2000]
    assert all(point[:4].min() > 1.0 - 1e-12 for _, point, _ in results)
    assert_lockstep_matches_scipy(objective_batch, starts, box, 2000)


@ORACLE
@given(seed=seeds, scenario=st.sampled_from(deterministic_scenarios(1024)),
       num_terms=st.integers(1, 12), integer=st.booleans())
def test_algebraic_max_matches_brute_force(seed, scenario, num_terms, integer):
    # Integer sums are exact in any order; normal coefficients are summed
    # per node here and per strategy by the oracle, so their last bits may
    # differ.
    witness = random_witness(np.random.default_rng(seed), scenario, num_terms, integer)
    value, maximizers = polytope.algebraic_max(witness)
    expected_value, expected = oracles.algebraic_max(witness)
    if integer:
        assert value == expected_value
    else:
        assert abs(value - expected_value) <= 1e-12
    assert [s.moves for s in maximizers] == [s.moves for s in expected]


@pytest.mark.parametrize("wid", sorted(WITNESSES))
def test_registry_algebraic_max_matches_brute_force(wid):
    witness = get_witness(wid)
    value, maximizers = polytope.algebraic_max(witness)
    expected_value, expected = oracles.algebraic_max(witness)
    assert value == expected_value
    assert [s.moves for s in maximizers] == [s.moves for s in expected]


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 3, 2)])
def test_independence_count_matches_exact_elimination(dims):
    scenario = Scenario(*dims)
    flags = oracles.greedy_independent_flags(scenario)
    assert sum(flags) == polytope.independent_constraint_count(scenario)

    basis = oracles.normalization_basis(scenario)
    for con in polytope.aot_constraints(scenario):
        if not con.independent:
            continue
        reduced = oracles.integer_row_reduce(basis, oracles.constraint_row(scenario, con))
        assert reduced is not None
        basis.append(reduced)


@ORACLE
@given(seed=seeds, dims=st.sampled_from([(1, 2, 2), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3),
                                         (3, 2, 2), (3, 1, 3), (4, 2, 2), (5, 2, 2)]),
       aot=st.booleans(), tol=st.sampled_from([0.0, 1e-10, 0.05]))
def test_check_aot_matches_constraint_loop(seed, dims, aot, tol):
    rng = np.random.default_rng(seed)
    sc = Scenario(*dims)
    if aot:
        # A factorized table: every difference is roundoff, below any tol
        # but 0.0, where the two sums may round apart.
        table = stats.null_model_table(null_model_counts(rng, sc, 20, 0.5, False))
        tol = max(tol, 1e-10)
    else:
        table = random_table(rng, sc)
    violations = polytope.check_aot(table, tol)
    expected = oracles.check_aot(table, tol)
    assert [con for con, _ in violations] == [con for con, _ in expected]
    for (_, value), (_, expected_value) in zip(violations, expected):
        assert type(value) is float
        assert abs(value - expected_value) <= 1e-14


# Scenarios with m in 1-3, d in 2-4 and L in 1-5, of at most 2^13 cells so
# that the cell-by-cell references stay fast.
label_scenarios = st.sampled_from([
    Scenario(length, m, d)
    for length, m, d in itertools.product(range(1, 6), (1, 2, 3), (2, 3, 4))
    if (m * d) ** length <= 1 << 13
])


def label_table(rng, sc):
    """A table with exact zeros and ones, short and full-precision entries."""
    table = random_table(rng, sc, sparsity=0.4)
    probs = table.probs.copy()
    probs[0] = np.eye(1, sc.num_outcome_sequences, rng.integers(sc.num_outcome_sequences))
    probs[-1] = 0.0
    probs[-1, [0, -1]] += [0.25, 0.75]
    return CorrelationTable(sc, probs)


def label_counts(rng, sc):
    shape = (sc.num_setting_sequences, sc.num_outcome_sequences)
    raw = rng.integers(0, 1000, size=shape) * (rng.random(shape) >= 0.4)
    return stats.CountsTable(sc, raw, discarded=rng.integers(0, 30, sc.num_setting_sequences))


def parsed(parse, text):
    """The parse result, or the message of the ValueError it raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def random_label(data, sc):
    # U+0661 is ARABIC-INDIC DIGIT ONE, a digit to int() but no label symbol.
    alphabet = "0123456789+-ab\u0661" if sc.outcomes == 2 else "0123456789ab\u0661"
    return data.draw(st.text(alphabet, min_size=1, max_size=sc.length + 1))


def assert_writers_match_cell_loops(table):
    """Both table writers match the cell loops; returns the rows text."""
    rows = cli._table_rows(table)
    assert rows == json.dumps(oracles.table_rows(table), sort_keys=True)
    assert simulator.format_correlation_table(table) == oracles.format_correlation_table(table)
    return rows


@ORACLE
@given(seed=seeds, sc=label_scenarios)
def test_table_writers_match_cell_loops(seed, sc):
    table = label_table(np.random.default_rng(seed), sc)
    assert_writers_match_cell_loops(table)
    round_trip = oracles.parse_correlation_table(simulator.format_correlation_table(table))
    assert np.array_equal(round_trip.probs, [[float(f"{p:.12g}") for p in row]
                                             for row in table.probs])


# Entries that sum to far below 1 and whose repr is subnormal or has an exponent.
TINY_ENTRIES = np.array([0.0, 5e-324, 1e-300, 3e-17, 2.5e-08, 1.25e-05])


@ORACLE
@given(seed=seeds, sc=label_scenarios)
def test_table_rows_text_matches_json_dumps(seed, sc):
    rng = np.random.default_rng(seed)
    rows, cols = sc.num_setting_sequences, sc.num_outcome_sequences
    # Column 0 completes each row; row 0 is exactly (1.0, 0.0, ...).
    tiny = np.resize(TINY_ENTRIES, (rows - 1) * (cols - 1))
    rng.shuffle(tiny)
    probs = np.zeros((rows, cols))
    probs[1:, 1:] = tiny.reshape(rows - 1, cols - 1)
    probs[:, 0] = 1.0 - probs.sum(axis=1)
    table = CorrelationTable(sc, probs[:, rng.permutation(cols)])
    text = cli._table_rows(table)
    assert text == json.dumps(oracles.table_rows(table), sort_keys=True)
    if (rows - 1) * (cols - 1) >= len(TINY_ENTRIES):
        assert {1.0, *TINY_ENTRIES} <= set(table.probs.flat)
        assert ' "p": 5e-324, ' in text and ' "p": 1e-300, ' in text


@ORACLE
@given(seed=seeds, sc=label_scenarios, distinct=st.integers(1, 4))
def test_table_writers_on_repeated_entries(seed, sc, distinct):
    # Every row permutes one row of at most `distinct` values.
    rng = np.random.default_rng(seed)
    cols = sc.num_outcome_sequences
    row = rng.choice(rng.random(distinct) + 0.5, size=cols)
    row /= row.sum()
    probs = np.array([rng.permutation(row) for _ in range(sc.num_setting_sequences)])
    table = CorrelationTable(sc, probs)
    assert len(np.unique(table.probs)) <= distinct
    assert_writers_match_cell_loops(table)


@ORACLE
@given(seed=seeds, sc=label_scenarios)
def test_table_writers_keep_negative_zero(seed, sc):
    # One 1.0 per row; every other zero of the table is -0.0.
    rows, cols = sc.num_setting_sequences, sc.num_outcome_sequences
    assume(rows * (cols - 1) >= 2)
    rng = np.random.default_rng(seed)
    probs = np.zeros((rows, cols))
    probs[np.arange(rows), rng.integers(cols, size=rows)] = 1.0
    probs.flat[np.flatnonzero(probs == 0.0)[::2]] = -0.0
    table = CorrelationTable(sc, probs)
    assert np.array_equal(np.signbit(table.probs), np.signbit(probs))
    text = assert_writers_match_cell_loops(table)
    assert '"p": -0.0, ' in text and '"p": 0.0, ' in text


@ORACLE
@given(seed=seeds, sc=label_scenarios)
def test_table_writers_on_distinct_entries(seed, sc):
    table = random_table(np.random.default_rng(seed), sc, sparsity=0.0)
    assert len(np.unique(table.probs)) == table.probs.size
    assert_writers_match_cell_loops(table)


@ORACLE
@given(seed=seeds, sc=label_scenarios, witness_id=st.sampled_from([None, "B1"]))
def test_counts_writer_matches_cell_loop(seed, sc, witness_id):
    counts = label_counts(np.random.default_rng(seed), sc)
    text = cli.format_counts_file(counts, witness_id=witness_id)
    assert text == oracles.format_counts_file(counts, witness_id=witness_id)
    parsed_counts, parsed_id = cli.parse_counts_file(text)
    assert parsed_id == witness_id
    assert np.array_equal(parsed_counts.counts, counts.counts)
    assert np.array_equal(parsed_counts.discarded, counts.discarded)


@ORACLE
@given(seed=seeds, sc=label_scenarios, data=st.data(),
       edit=st.sampled_from(["setting", "outcome", "duplicate", "missing", "shuffle",
                             "repeat", "repeat header", "number"]))
def test_counts_reader_matches_label_parsing(seed, sc, data, edit):
    rng = np.random.default_rng(seed)
    text = cli.format_counts_file(label_counts(rng, sc))
    header, *records = text.split("\n\n")
    records = [record.splitlines() for record in records]
    record = records[rng.integers(len(records))]
    if edit == "setting":
        record[0] = f"sequence: {random_label(data, sc)}"
    elif edit == "outcome":
        cell = 3 + rng.integers(len(record) - 3)
        record[cell] = f"{random_label(data, sc)} {record[cell].split()[1]}"
    elif edit == "duplicate":
        record[0] = records[rng.integers(len(records))][0]
    elif edit == "missing":
        records.remove(record)
    elif edit == "repeat":
        # A second n, discarded or outcome line, with the same or another value.
        line = record[1 + rng.integers(len(record) - 1)]
        record.insert(1 + rng.integers(len(record)), line if rng.random() < 0.5
                      else f"{line.rsplit(maxsplit=1)[0]} {rng.integers(5)}")
    elif edit == "number":
        # An n, discarded or outcome count past int64, negative, one that
        # wraps an int64 sum, or not a number; or past the digits that int()
        # converts by default, as a huge number or as the same count after
        # leading zeros.
        line = 1 + rng.integers(len(record) - 1)
        key, old = record[line].rsplit(maxsplit=1)
        value = rng.choice([str(10**20), str(-2**63), str(2**62), "-1", "x1",
                            "1" + "0" * 4400, "0" * 4400 + old])
        record[line] = f"{key} {value}"
    elif edit == "repeat header":
        lines = header.splitlines()
        lines.insert(1 + rng.integers(len(lines) - 1), lines[1 + rng.integers(len(lines) - 1)])
        header = "\n".join(lines)
    else:
        rng.shuffle(records)
    text = "\n\n".join([header] + ["\n".join(record) for record in records]) + "\n"
    ours = parsed(cli.parse_counts_file, text)
    theirs = parsed(oracles.parse_counts_file, text)
    if isinstance(theirs, str):
        assert ours == theirs
    else:
        assert np.array_equal(ours[0].counts, theirs[0].counts)
        assert np.array_equal(ours[0].discarded, theirs[0].discarded)

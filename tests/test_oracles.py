"""Randomized comparisons of the history-tensor walkers with the slow
reference implementations in ``oracles.py``."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc, ndtri

import oracles
import util
from temporalwitness import bounds, polytope, protocols, simulator, stats
from temporalwitness.protocols import BRIGHT, DARK
from temporalwitness.qcore import Instrument, KrausMap
from temporalwitness.simulator import CorrelationTable, ReadoutNoise, Scenario, Witness

ORACLE = settings(max_examples=25, deadline=None, database=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


def random_instrument(rng, dim, labels, kraus_rank):
    """A random instrument: the Kraus operators are blocks of a random
    isometry, so the branches sum to a trace-preserving map."""
    rows = len(labels) * kraus_rank * dim
    isometry, _ = np.linalg.qr(rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim)))
    ops = isometry.reshape(len(labels), kraus_rank, dim, dim)
    maps = {label: KrausMap(tuple(ops[a])) for a, label in enumerate(labels)}
    return Instrument(dim=dim, outcomes=labels, maps=maps)


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
@given(seed=seeds, dim=st.integers(2, 3), m=st.integers(1, 3), d=st.integers(2, 3),
       rank=st.integers(1, 2), length=st.integers(1, 3))
def test_simulator_matches_recursion(seed, dim, m, d, rank, length):
    rng = np.random.default_rng(seed)
    labels = tuple(str(a) for a in range(d))
    protocol = protocols.Protocol(
        dim=dim,
        initial_state=util.random_pure_state(rng, dim),
        instruments={x: random_instrument(rng, dim, labels, rank) for x in range(m)},
    )
    table = simulator.sequence_probabilities(protocol, length)
    expected = oracles.sequence_probabilities(protocol, length)
    assert np.allclose(table.probs, expected.probs, rtol=0, atol=1e-12)


@ORACLE
@given(seed=seeds, qutrit=st.booleans(), length=st.integers(1, 4))
def test_simulator_matches_recursion_measure_and_prepare(seed, qutrit, length):
    rng = np.random.default_rng(seed)
    build = util.random_qutrit_protocol if qutrit else util.random_qubit_protocol
    protocol = build(rng)
    table = simulator.sequence_probabilities(protocol, length)
    expected = oracles.sequence_probabilities(protocol, length)
    assert np.allclose(table.probs, expected.probs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("wid", sorted(simulator.WITNESSES))
def test_optimal_protocols_match_recursion_exactly(wid):
    protocol = protocols.optimal_protocol(wid)
    for length in (1, 2, 3, 4):
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
    kinds = {(x, a): (BRIGHT, DARK)[rng.integers(2)] for x in range(m) for a in range(2)}

    def resolver(x, a):
        return kinds[(x, a)]

    noise = ReadoutNoise(bright, dark)
    noisy = simulator.apply_readout_noise(table, resolver, noise)
    expected = oracles.apply_readout_noise(table, resolver, noise)
    assert np.allclose(noisy.probs, expected.probs, rtol=0, atol=1e-12)


counts_scenarios = st.sampled_from(
    [(1, 2, 2), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2), (3, 1, 3), (4, 2, 2)]
)


@ORACLE
@given(seed=seeds, dims=counts_scenarios, shots=st.integers(1, 200),
       sparsity=st.floats(0.0, 0.9))
def test_aot_statistics_match_dict_loops(seed, dims, shots, sparsity):
    rng = np.random.default_rng(seed)
    sc = Scenario(*dims)
    shape = (sc.num_setting_sequences, sc.num_outcome_sequences)
    raw = rng.integers(0, shots + 1, size=shape) * (rng.random(shape) >= sparsity)
    counts = stats.CountsTable(sc, raw)

    # Both sides sum many terms of either sign, so they agree to 1e-12
    # relative to the log-likelihoods, not to their difference.
    log_alt, log_null = oracles.aot_log_likelihoods(counts)
    scale = 1.0 + abs(log_alt) + abs(log_null)
    assert abs(stats._aot_statistic(counts) - oracles.aot_statistic(counts)) <= 1e-12 * scale

    null = stats.null_model_table(counts)
    expected = oracles.null_model_table(counts)
    assert np.allclose(null.probs, expected.probs, rtol=0, atol=1e-12)


@ORACLE
@given(seed=seeds, length=st.integers(1, 3), num_terms=st.integers(1, 12),
       batch=st.sampled_from([(), (3,), (2, 2)]))
def test_nested_bound_matches_recursion(seed, length, num_terms, batch):
    rng = np.random.default_rng(seed)
    witness = random_witness(rng, Scenario(length, 2, 2), num_terms, integer=False)
    lo = np.array([0.0, 0.0, 0.0, 0.0, -1.0]).reshape((5,) + (1,) * len(batch))
    z = lo + (1.0 - lo) * rng.random((5,) + batch)
    ops = bounds._ops_from_parameters(*z)
    # The same products and sums in the same order: equal to the last bit.
    assert np.array_equal(
        bounds._nested_bound(witness.coefficients, ops), oracles.nested_bound(witness, ops)
    )


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


QUBIT_BOX = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
TEE_BOX = ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))


def refinement_problem(name):
    """Box and batched objective of the bound searches: the nested bound of
    a registry witness, or the closed form of the three-step witness."""
    if name == "closed":
        return TEE_BOX, lambda z: bounds._tee_closed_form_array(*z)
    coeffs = simulator.get_witness(name).coefficients
    return QUBIT_BOX, lambda z: bounds._nested_bound(coeffs, bounds._ops_from_parameters(*z))


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
       num_starts=st.integers(1, 4), budget=st.integers(1, 80),
       degenerate=st.sampled_from([None, 0, 1, 2, -1]))
def test_lockstep_nelder_mead_matches_scipy(seed, objective, num_starts, budget, degenerate):
    rng = np.random.default_rng(seed)
    box, objective_batch = refinement_problem(objective)
    lo, hi = np.array(box).T
    starts = lo + (hi - lo) * rng.random((num_starts, len(box)))
    # Starts on the upper bound take scipy's reflection branch; zero
    # coordinates take its absolute initial step.
    pick = rng.random(starts.shape)
    starts = np.where(pick < 0.2, hi, np.where(pick > 0.8, 0.0, starts))
    if degenerate is not None:
        box = list(box)
        box[degenerate] = (starts[0, degenerate],) * 2
        starts[:, degenerate] = starts[0, degenerate]
    assert_lockstep_matches_scipy(objective_batch, starts, box, budget)


@pytest.mark.parametrize("objective,fraction", [("B1", 0.25), ("T", 0.37), ("closed", 0.37)])
def test_lockstep_nelder_mead_cut_at_every_budget(objective, fraction):
    # Every cut of one search: inside the initial simplex, before an
    # expansion or a contraction and, from the B1 start, inside a shrink.
    box, objective_batch = refinement_problem(objective)
    start = np.array([lo + fraction * (hi - lo) for lo, hi in box])
    for budget in range(1, 81):
        assert_lockstep_matches_scipy(objective_batch, [start, np.array(box)[:, 1]], box, budget)


def test_lockstep_nelder_mead_without_free_axes():
    _, objective_batch = refinement_problem("closed")
    box = ((0.25, 0.25), (0.5, 0.5), (-0.5, -0.5))
    assert_lockstep_matches_scipy(objective_batch, [np.array(box)[:, 0]] * 2, box, 10)


@ORACLE
@given(seed=seeds, scenario=st.sampled_from(deterministic_scenarios(1024)),
       num_terms=st.integers(1, 12))
def test_algebraic_max_matches_brute_force(seed, scenario, num_terms):
    witness = random_witness(np.random.default_rng(seed), scenario, num_terms)
    value, maximizers = polytope.algebraic_max(witness)
    expected_value, expected = oracles.algebraic_max(witness)
    assert value == expected_value
    assert [s.moves for s in maximizers] == [s.moves for s in expected]


@pytest.mark.parametrize("wid", sorted(simulator.WITNESSES))
def test_registry_algebraic_max_matches_brute_force(wid):
    witness = simulator.get_witness(wid)
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

"""Acceptance suite: the package's exit criteria.

One test per criterion, each printing a single pass/fail line (visible with
``pytest -s`` or in captured output). Tolerances are pinned here and match
the library's documented reproduction targets.
"""

import math
import time

import numpy as np
import pytest

import util
from temporalwitness import polytope, protocols, simulator, stats
from temporalwitness.bounds import (
    nested_generic_bound,
    optimize_qubit_bound,
    tee_closed_form,
)
from temporalwitness.scenario import Scenario, get_witness

ALL_WITNESSES = ("B1", "B2", "B3", "B4", "T")
QUBIT_BOUNDS = {"B1": 3.0, "B2": 3.0, "B3": 3.186, "B4": 3.186, "T": 5.226}


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def optimized_bounds():
    """Full 50-restart bound optimization for every witness, timed once."""
    start = time.perf_counter()
    results = {
        wid: optimize_qubit_bound(get_witness(wid), restarts=50)
        for wid in ALL_WITNESSES
    }
    elapsed = time.perf_counter() - start
    return results, elapsed


def ideal_table(wid):
    w = get_witness(wid)
    return simulator.sequence_probabilities(
        protocols.optimal_protocol(wid), w.scenario.length
    )


def noisy_value(wid):
    protocol = protocols.optimal_protocol(wid)
    w = get_witness(wid)
    noisy = simulator.apply_readout_noise(
        simulator.sequence_probabilities(protocol, w.scenario.length),
        protocol.bright,
        simulator.ReadoutNoise(0.96, 0.98),
    )
    return simulator.evaluate_witness(w, noisy)


def test_criterion_1_algebraic_maxima():
    start = time.perf_counter()
    ok = True
    details = []
    for wid in ("B1", "B2", "B3", "B4"):
        value, _, _ = polytope.algebraic_max(get_witness(wid))
        ok &= value == 4.0
        details.append(f"{wid}={value:g}")
    value, _, _ = polytope.algebraic_max(get_witness("T"))
    ok &= value == 8.0
    details.append(f"T={value:g}")
    elapsed = time.perf_counter() - start
    ok &= polytope.num_deterministic_strategies(Scenario(2, 2, 2)) == 64
    ok &= polytope.num_deterministic_strategies(Scenario(3, 2, 2)) == 16384
    ok &= elapsed < 1.0
    _report(1, ok, f"{', '.join(details)}; 64/16384 strategies; {elapsed:.3f}s")


def test_criterion_2_ideal_protocols():
    ok = True
    details = []
    for wid in ALL_WITNESSES:
        value = simulator.evaluate_witness(get_witness(wid), ideal_table(wid))
        target = 8.0 if wid == "T" else 4.0
        ok &= abs(value - target) <= 1e-12
        details.append(f"{wid}={value:.12f}")
    _report(2, ok, "; ".join(details))


def test_criterion_3_qubit_bounds(optimized_bounds):
    results, elapsed = optimized_bounds
    ok = elapsed < 60.0
    details = []
    for wid in ALL_WITNESSES:
        value = results[wid].value
        ok &= abs(value - QUBIT_BOUNDS[wid]) <= 2e-3
        details.append(f"{wid}={value:.4f}")
    argmax = results["T"].params
    ok &= argmax is not None
    if argmax is not None:
        ok &= abs(argmax.p - 1.0) <= 1e-3 and abs(argmax.q - 1.0) <= 1e-3
        ok &= abs(argmax.cos_gamma - (-0.458)) <= 5e-3
        details.append(
            f"T argmax p={argmax.p:.4f} q={argmax.q:.4f} cos_gamma={argmax.cos_gamma:.4f}"
        )
    _report(3, ok, f"{'; '.join(details)}; 50 restarts in {elapsed:.1f}s")


def test_thresholds_cover_optimized_bounds(optimized_bounds):
    # Certification must not pass data some qubit reaches. The slack is
    # float rounding only: B2's optimum is 3 plus one ulp.
    results, _ = optimized_bounds
    for wid in ALL_WITNESSES:
        assert get_witness(wid).threshold >= results[wid].value - 1e-12


def test_criterion_4_closed_vs_generic_agreement():
    rng = np.random.default_rng(40)
    w = get_witness("T")
    worst = 0.0
    for _ in range(1000):
        p, q = rng.uniform(0, 1, size=2)
        cg = rng.uniform(-1, 1)
        closed = tee_closed_form((p, q, cg))
        nested = nested_generic_bound(
            w, (2 - p) / 2, p / (2 - p), (2 - q) / 2, q / (2 - q), cg
        )
        worst = max(worst, abs(closed - nested))
    _report(4, worst <= 1e-9, f"max |closed - nested| = {worst:.2e} over 1000 points")


def test_criterion_5_noise_caps():
    v3 = noisy_value("T")
    v2 = noisy_value("B1")
    ok = abs(v3 - 7.226) <= 1e-3 and abs(v2 - 3.725) <= 1e-3
    _report(5, ok, f"T={v3:.6f} (target 7.226); B1={v2:.6f} (target 3.725)")


def test_criterion_6_certification_arithmetic():
    reported = {"B1": 3.65, "B2": 3.66, "B3": 3.75, "B4": 3.70, "T": 7.00}
    paper_fractions = {"B1": 0.65, "B2": 0.66, "B3": 0.70, "B4": 0.64, "T": 0.64}
    ok = True
    details = []
    for wid in ALL_WITNESSES:
        w = get_witness(wid)
        frac = stats.qutrit_fraction(reported[wid], w.qubit_bound, w.algebraic_max)
        rounded = round(frac.fraction, 2)
        ok &= abs(rounded - paper_fractions[wid]) <= 0.01 + 1e-12
        details.append(f"{wid}: {rounded:.2f} vs {paper_fractions[wid]:.2f}")
    ratio = reported["T"] / get_witness("T").qubit_bound
    ok &= abs(ratio - 1.34) <= 0.01
    details.append(f"T ratio {ratio:.4f} vs 1.34")
    _report(6, ok, "; ".join(details))


def test_criterion_7_hoeffding():
    w = get_witness("B1")
    spec = stats.ConfidenceSpec(0.68)
    t = stats.hoeffding_halfwidth(w, 1000, spec)
    ok = abs(t - 0.0605) <= 1e-4
    inv_sum = len(w.setting_sequences) / 1000
    identity_residual = abs(
        2 * math.exp(-2 * t * t / inv_sum) - (1 - spec.confidence)
    )
    ok &= identity_residual <= 1e-12
    _report(7, ok, f"t={t:.6f} (target 0.0605); inversion residual {identity_residual:.1e}")


def test_criterion_8_aot_machinery():
    ok = True
    details = []

    count2 = polytope.independent_constraint_count(Scenario(2, 2, 2))
    count3 = polytope.independent_constraint_count(Scenario(3, 2, 2))
    ok &= count2 == 2 and count3 == 14
    details.append(f"independent constraints {count2}/{count3}")

    protocol = protocols.optimal_protocol("B2")
    noisy = simulator.apply_readout_noise(
        simulator.sequence_probabilities(protocol, 2),
        protocol.bright,
        simulator.ReadoutNoise(),
    )
    exact = stats.CountsTable(
        noisy.scenario, np.round(noisy.probs * 10000).astype(np.int64)
    )
    sigma_exact = stats.aot_lr_test(exact).sigma_equivalent
    ok &= sigma_exact <= 1e-6
    details.append(f"factorized counts sigma {sigma_exact:.1e}")

    gap = np.array(
        [
            [0.6, 0.0, 0.4, 0.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.5, 0.0, 0.5, 0.0],
        ]
    )
    perturbed = stats.CountsTable(
        Scenario(2, 2, 2), np.round(gap * 12000).astype(np.int64)
    )
    sigma_gap = stats.aot_lr_test(perturbed).sigma_equivalent
    ok &= sigma_gap >= 3.0
    details.append(f"0.1-gap sigma {sigma_gap:.1f}")

    rng = np.random.default_rng(41)
    quiet = sum(
        stats.aot_lr_test(stats.sample_counts(noisy, 1000, rng)).sigma_equivalent < 2.0
        for _ in range(1000)
    )
    ok &= quiet >= 900
    details.append(f"null replications below 2 sigma: {quiet}/1000")

    _report(8, ok, "; ".join(details))


def test_criterion_9_soundness(optimized_bounds):
    results, _ = optimized_bounds
    rng = np.random.default_rng(42)

    worst_margin = -math.inf
    ok = True
    for _ in range(200):
        protocol = util.random_qubit_protocol(rng)
        table2 = simulator.sequence_probabilities(protocol, 2)
        table3 = simulator.sequence_probabilities(protocol, 3)
        for wid in ALL_WITNESSES:
            w = get_witness(wid)
            table = table3 if wid == "T" else table2
            value = simulator.evaluate_witness(w, table)
            margin = value - results[wid].value
            worst_margin = max(worst_margin, margin)
            ok &= margin <= 1e-6

    worst_qutrit = -math.inf
    for _ in range(200):
        protocol = util.random_qutrit_protocol(rng)
        table2 = simulator.sequence_probabilities(protocol, 2)
        table3 = simulator.sequence_probabilities(protocol, 3)
        for wid in ALL_WITNESSES:
            w = get_witness(wid)
            table = table3 if wid == "T" else table2
            value = simulator.evaluate_witness(w, table)
            margin = value - w.algebraic_max
            worst_qutrit = max(worst_qutrit, margin)
            ok &= margin <= 1e-10

    _report(
        9,
        ok,
        f"qubit worst margin {worst_margin:.2e} over 200 protocols; "
        f"qutrit worst margin {worst_qutrit:.2e} over 200 protocols",
    )

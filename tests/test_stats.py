"""Tests for counts tables, Hoeffding intervals, qutrit fractions, the AoT
likelihood-ratio test, and certification."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from temporalwitness import GuardExceeded, polytope, protocols, simulator, stats
from temporalwitness.scenario import Scenario, Witness, decode_index, encode_sequence, get_witness
from temporalwitness.simulator import CorrelationTable
from temporalwitness.stats import (
    ConfidenceSpec,
    CountsTable,
    aot_lr_test,
    aot_lr_test_montecarlo,
    certify,
    hoeffding_halfwidth,
    null_model_table,
    qutrit_fraction,
    sample_counts,
)


def noisy_table(wid):
    protocol = protocols.optimal_protocol(wid)
    length = get_witness(wid).scenario.length
    return simulator.apply_readout_noise(
        simulator.sequence_probabilities(protocol, length),
        protocol.bright,
        simulator.ReadoutNoise(),
    )


def table_one_counts(wid):
    """Deterministic counts reproducing the reported summary values."""
    w = get_witness(wid)
    sc = w.scenario
    value = {"B1": 3.65, "B2": 3.66, "B3": 3.75, "B4": 3.70, "T": 7.00}[wid]
    n = 1000 if sc.length == 2 else 3000
    total_hits = round(value * n)
    base, extra = divmod(total_hits, len(w.terms))
    counts = np.zeros((sc.num_setting_sequences, sc.num_outcome_sequences), dtype=np.int64)
    for k, (settings, outcomes, _) in enumerate(w.terms):
        i = encode_sequence(settings, sc.settings)
        j = encode_sequence(outcomes, sc.outcomes)
        hit = base + (1 if k < extra else 0)
        counts[i, j] = hit
        # park the remainder on the all-minus record
        counts[i, sc.num_outcome_sequences - 1] += n - hit
    return CountsTable(scenario=sc, counts=counts)


class TestCountsTable:
    def test_rejects_negative(self):
        sc = Scenario(1, 1, 2)
        with pytest.raises(ValueError, match="non-negative"):
            CountsTable(sc, np.array([[-1, 2]]))

    def test_rejects_floats(self):
        sc = Scenario(1, 1, 2)
        with pytest.raises(ValueError, match="integers"):
            CountsTable(sc, np.array([[0.5, 0.5]]))

    def test_rejects_bools(self):
        # numpy's bool dtype is not an integer dtype, and neither is bool here.
        with pytest.raises(ValueError, match="integers"):
            CountsTable(Scenario(1, 1, 2), np.array([[True, False]]))
        with pytest.raises(ValueError, match="discarded must be one integer"):
            CountsTable(Scenario(1, 1, 2), [[3, 7]], discarded=[True])

    def test_rejects_a_wrong_shape(self):
        with pytest.raises(ValueError, match=r"must have shape \(2, 2\), got \(1, 2\)"):
            CountsTable(Scenario(1, 2, 2), [[3, 7]])
        with pytest.raises(ValueError, match="must have shape"):
            CountsTable(Scenario(1, 2, 2), [[3, 7], [1]])
        with pytest.raises(ValueError, match="discarded must be one integer"):
            CountsTable(Scenario(1, 2, 2), [[3, 7], [1, 0]], discarded=[[0], [0]])

    def test_holds_python_ints(self):
        counts = CountsTable(Scenario(1, 2, 2), np.array([[3, 7], [2**62, 0]], dtype=np.uint64),
                             discarded=np.array([1, 2], dtype=np.int8))
        assert counts.counts == ((3, 7), (2**62, 0))
        assert counts.discarded == (1, 2)
        assert {type(k) for k in (*counts.counts[0], *counts.counts[1], *counts.discarded)} \
            == {int}

    def test_discarded_defaults_to_zero(self):
        sc = Scenario(1, 1, 2)
        counts = CountsTable(sc, np.array([[3, 7]]))
        assert counts.discarded == (0,)
        assert counts.repetitions == (10,)

    def test_rejects_bad_discarded(self):
        sc = Scenario(1, 1, 2)
        with pytest.raises(ValueError, match="discarded"):
            CountsTable(sc, np.array([[3, 7]]), discarded=np.array([-1]))

    @pytest.mark.parametrize("counts, discarded", [
        pytest.param([[2**62, 0], [2**62, 0]], [0, 0], id="counts"),
        pytest.param([[2**63 - 1, 0], [1, 0]], [0, 0], id="records"),
        pytest.param([[2**63 - 1, 0], [0, 0]], [2**63 - 1, 0], id="discarded"),
        pytest.param(np.array([[2**64 - 1, 0], [0, 0]], dtype=np.uint64), [0, 0], id="uint64"),
    ])
    def test_rejects_total_past_int64(self, counts, discarded):
        # Each number fits int64, but the margins and row totals, summed
        # across cells and records in int64, would wrap.
        with pytest.raises(ValueError, match="total more than 9223372036854775807"):
            CountsTable(Scenario(1, 2, 2), np.array(counts), discarded=np.array(discarded))

    def test_accepts_total_at_int64_max(self):
        counts = CountsTable(Scenario(1, 2, 2), np.array([[2**62, 0], [2**62 - 2, 0]]),
                             discarded=np.array([0, 1]))
        assert sum(counts.repetitions) + sum(counts.discarded) == 2**63 - 1


class TestFrequencies:
    def test_simple_ratio(self):
        sc = Scenario(1, 1, 2)
        table = oracles.frequencies(CountsTable(sc, np.array([[500, 500]])))
        assert table.probs[0, 0] == 0.5

    def test_one_hot_counts_pass_aot(self):
        sc = Scenario(2, 2, 2)
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[:, 0] = 1000
        table = oracles.frequencies(CountsTable(sc, counts))
        assert polytope.check_aot(table, tol=0.0) == []

    def test_zero_repetitions_rejected(self):
        sc = Scenario(1, 2, 2)
        counts = np.array([[10, 0], [0, 0]])
        with pytest.raises(ValueError, match="zero repetitions"):
            oracles.frequencies(CountsTable(sc, counts))

    def test_multinomial_concentration(self):
        # Sampling the ideal table is deterministic (all mass on one
        # outcome per sequence); the noisy table concentrates at rate
        # sqrt(terms/n) around its witness value.
        w = get_witness("B1")
        ideal = simulator.sequence_probabilities(protocols.optimal_protocol("B1"), 2)
        sampled = sample_counts(ideal, 1000, rng=0)
        assert simulator.evaluate_witness(w, oracles.frequencies(sampled)) == pytest.approx(4.0)
        noisy = noisy_table("B1")
        expect = simulator.evaluate_witness(w, noisy)
        rng = np.random.default_rng(18)
        for _ in range(20):
            sampled = sample_counts(noisy, 1000, rng)
            value = simulator.evaluate_witness(w, oracles.frequencies(sampled))
            assert abs(value - expect) < 3 * math.sqrt(4 / 1000)


class TestHoeffding:
    def test_four_sequences_at_thousand(self):
        t = hoeffding_halfwidth(get_witness("B1"), 1000)
        assert t == pytest.approx(0.0605, abs=1e-4)

    def test_eight_sequences_at_three_thousand(self):
        t = hoeffding_halfwidth(get_witness("T"), 3000)
        assert t == pytest.approx(0.0494, abs=1e-4)

    def test_inversion_identity(self):
        for wid, n in (("B1", 1000), ("T", 3000), ("B3", 777)):
            w = get_witness(wid)
            spec = ConfidenceSpec(0.68)
            t = hoeffding_halfwidth(w, n, spec)
            inv_sum = len(w.setting_sequences) / n
            assert 2 * math.exp(-2 * t**2 / inv_sum) == pytest.approx(
                1 - spec.confidence, abs=1e-12
            )

    def test_large_n_limit(self):
        assert hoeffding_halfwidth(get_witness("B1"), 10**9) < 1e-3

    def test_monotonicity(self):
        w = get_witness("B1")
        assert hoeffding_halfwidth(w, 2000) < hoeffding_halfwidth(w, 1000)
        assert hoeffding_halfwidth(w, 1000, ConfidenceSpec(0.95)) > hoeffding_halfwidth(
            w, 1000, ConfidenceSpec(0.68)
        )

    def test_accepts_numpy_integers(self):
        w = get_witness("B1")
        assert hoeffding_halfwidth(w, np.int64(1000)) == hoeffding_halfwidth(w, 1000)

    def test_reads_repetitions_from_counts(self):
        counts = table_one_counts("B1")
        assert hoeffding_halfwidth(get_witness("B1"), counts.repetitions) == pytest.approx(
            hoeffding_halfwidth(get_witness("B1"), 1000)
        )

    def test_reads_the_shots_of_the_witness_rows(self):
        # Rows are indexed as in the table; a row the witness does not use
        # may have no shots.
        sc = Scenario(2, 2, 2)
        terms = (((1, 1), (0, 0), 1.0), ((0, 0), (0, 1), 1.0))
        w = Witness(id="corners", scenario=sc, terms=terms)
        shots = np.array([500, 0, 0, 2000])
        t = hoeffding_halfwidth(w, shots)
        assert 2 * math.exp(-2 * t**2 / (1 / 2000 + 1 / 500)) == pytest.approx(0.32, abs=1e-12)
        with pytest.raises(ValueError, match=r"\(1, 1\) has zero repetitions"):
            hoeffding_halfwidth(w, np.array([500, 0, 0, 0]))

    def test_rejects_non_binary_coefficients(self):
        sc = Scenario(2, 2, 2)
        w = Witness(id="scaled", scenario=sc, terms=(((0, 0), (0, 0), 2.0),))
        with pytest.raises(ValueError, match="0/1"):
            hoeffding_halfwidth(w, 1000)

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError, match="zero repetitions"):
            hoeffding_halfwidth(get_witness("B1"), 0)

    def test_rejects_a_repeated_cell(self):
        # The cell (00, ++) named twice has coefficient 2, so its setting
        # sequence scores a variable in [0, 2]: the one-term width, 0.0957
        # at 100 shots and 68%, would be half what Hoeffding allows.
        term = ((0, 0), (0, 0), 1.0)
        w = Witness(id="twice", scenario=Scenario(2, 2, 2), terms=(term, term))
        assert w.coefficients.max() == 2.0
        with pytest.raises(ValueError, match="0/1 witness coefficients per cell; got 2.0"):
            hoeffding_halfwidth(w, 100)

    def test_names_the_first_bad_cell_in_history_order(self):
        # The terms name (11, ++) before (00, ++); the error names the cell
        # that comes first in history order, as a scan of the tensor would.
        sc = Scenario(2, 2, 2)
        terms = (((1, 1), (0, 0), 3.0), ((0, 0), (0, 0), 2.0))
        with pytest.raises(ValueError, match="per cell; got 2.0 "):
            hoeffding_halfwidth(Witness(id="scaled", scenario=sc, terms=terms), 1000)

    # The widths at 100 shots and 68% before the per-cell check.
    @pytest.mark.parametrize("wid, width", [
        *((b, 0.19144615241619825) for b in ("B1", "B2", "B3", "B4")),
        ("T", 0.27074574521113426),
    ])
    def test_registry_witnesses_keep_their_width(self, wid, width):
        assert hoeffding_halfwidth(get_witness(wid), 100) == width


class TestQutritFraction:
    def test_reported_fractions(self):
        assert qutrit_fraction(3.65, 3.0, 4.0).fraction == pytest.approx(0.65)
        assert qutrit_fraction(7.00, 5.226, 8.0).fraction == pytest.approx(0.64, abs=5e-3)
        p3 = qutrit_fraction(3.75, 3.186, 4.0).fraction
        assert 0.69 <= p3 <= 0.70

    def test_below_bound_clamps(self):
        result = qutrit_fraction(2.9, 3.0, 4.0)
        assert result.fraction == 0.0
        assert result.below_bound

    def test_clamps_above_max(self):
        assert qutrit_fraction(4.2, 3.0, 4.0).fraction == 1.0

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            qutrit_fraction(3.5, 4.0, 4.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            value, lo, hi = 3.4, 3.0, 4.0
            scale = rng.uniform(0.1, 5.0)
            shift = rng.uniform(-10, 10)
            base = qutrit_fraction(value, lo, hi).fraction
            mapped = qutrit_fraction(
                scale * value + shift, scale * lo + shift, scale * hi + shift
            ).fraction
            assert mapped == pytest.approx(base, abs=1e-12)


class TestAotLrTest:
    def test_factorized_counts_score_zero(self):
        table = noisy_table("B2")
        counts = CountsTable(
            table.scenario, np.round(table.probs * 10000).astype(np.int64)
        )
        result = aot_lr_test(counts)
        assert result.statistic == pytest.approx(0.0, abs=1e-9)
        assert result.sigma_equivalent == pytest.approx(0.0, abs=1e-6)
        assert result.dof == 2

    def test_three_step_dof(self):
        table = noisy_table("T")
        counts = CountsTable(
            table.scenario, np.round(table.probs * 12800).astype(np.int64)
        )
        assert aot_lr_test(counts).dof == 14

    def test_constructed_signaling_detected(self):
        probs = np.array(
            [
                [0.6, 0.0, 0.4, 0.0],
                [0.5, 0.0, 0.5, 0.0],
                [0.5, 0.0, 0.5, 0.0],
                [0.5, 0.0, 0.5, 0.0],
            ]
        )
        counts = CountsTable(
            Scenario(2, 2, 2), np.round(probs * 12000).astype(np.int64)
        )
        result = aot_lr_test(counts)
        assert result.sigma_equivalent >= 3.0

    def test_statistic_nonnegative_on_random_counts(self):
        rng = np.random.default_rng(20)
        sc = Scenario(2, 2, 2)
        for _ in range(20):
            counts = CountsTable(sc, rng.integers(1, 50, size=(4, 4)))
            assert aot_lr_test(counts).statistic >= 0.0

    def test_outcome_relabeling_invariance(self):
        rng = np.random.default_rng(21)
        table = noisy_table("B2")
        counts = sample_counts(table, 1000, rng)
        sc = counts.scenario
        original_counts = np.array(counts.counts)
        flipped = np.zeros_like(original_counts)
        for j in range(sc.num_outcome_sequences):
            a_seq = decode_index(j, sc.outcomes, sc.length)
            k = encode_sequence(tuple(1 - a for a in a_seq), sc.outcomes)
            flipped[:, k] = original_counts[:, j]
        original = aot_lr_test(counts).statistic
        relabeled = aot_lr_test(CountsTable(sc, flipped)).statistic
        assert relabeled == pytest.approx(original, abs=1e-10)

    def test_null_sampled_mostly_insignificant(self):
        table = noisy_table("B2")
        rng = np.random.default_rng(22)
        quiet = sum(
            aot_lr_test(sample_counts(table, 1000, rng)).sigma_equivalent < 2.0
            for _ in range(200)
        )
        assert quiet >= 0.9 * 200

    def test_rejects_unconstrained_scenario(self):
        counts = CountsTable(Scenario(1, 2, 2), np.array([[5, 5], [4, 6]]))
        with pytest.raises(ValueError, match="no AoT constraints"):
            aot_lr_test(counts)

    def test_null_model_table_is_valid_and_factorized(self):
        rng = np.random.default_rng(23)
        counts = sample_counts(noisy_table("B2"), 500, rng)
        null = null_model_table(counts)
        assert polytope.check_aot(null, tol=1e-12) == []

    # Digests of the null-model bytes taken before the statistic was scored
    # from margins: the margin walk must leave every bit of the table as it
    # was. At 3 shots per sequence many contexts never occur and are
    # completed uniformly.
    @pytest.mark.parametrize("wid, seed, shots, digest", [
        ("B1", 41, 3000, "02a56cd676bd1707d568f2da4e753bd8b91a0e30b2061f76c75d8685e3ccc61f"),
        ("B1", 41, 3, "7088de95c071855e9cd2dea79ac36af3a2386e7d207eaa4fb13de6da381ecf9d"),
        ("B2", 42, 3000, "2031effa5bae9c960a7c77ecab47b656afe99a6415d9a1c09d527df484a602c0"),
        ("B2", 42, 3, "a17b54875670d2d5633714b51cede4e04c78327ca73060926cfb6e492a43b1f7"),
        ("B3", 43, 3000, "3929b2948a239478136526f562d28c2f2eeb0c4861bd70d8cdf026388c738a12"),
        ("B3", 43, 3, "66c276c080a7292e2c973b6b784a1daf115719f81752857a66c4382163df2164"),
        ("B4", 44, 3000, "da683021656b96a425501120f73dfce5736b1bd5631e7879d27dbf13aeb16ea9"),
        ("B4", 44, 3, "4e1fd3e287423521dbe786260e7f7865fc2f2ab70c0fcbfe9e28204789457c88"),
        ("T", 45, 3000, "d45109f531809f923ff28bc63576f14ee9fe2e99d9fb844e85ab3d43227d52e1"),
        ("T", 45, 3, "aa8baf4770c345a9e6cd02945000b7142e4fc9b32ae30e4647a606f2f528e93a"),
    ])
    def test_null_model_table_bytes_pinned(self, wid, seed, shots, digest):
        counts = sample_counts(noisy_table(wid), shots, rng=seed)
        probs = null_model_table(counts).probs
        assert hashlib.sha256(probs.tobytes()).hexdigest() == digest

    def test_montecarlo_close_to_asymptotic(self):
        counts = sample_counts(noisy_table("B2"), 1000, rng=24)
        mc = aot_lr_test_montecarlo(counts, replications=400, seed=25)
        assert abs(mc.p_value - mc.asymptotic.p_value) < 0.15
        repeat = aot_lr_test_montecarlo(counts, replications=400, seed=25)
        assert repeat.p_value == mc.p_value

    def test_montecarlo_on_exact_counts(self):
        table = noisy_table("B2")
        counts = CountsTable(
            table.scenario, np.round(table.probs * 10000).astype(np.int64)
        )
        mc = aot_lr_test_montecarlo(counts, replications=50, seed=26)
        assert mc.p_value == pytest.approx(1.0)

    def test_montecarlo_memory_does_not_grow_with_replications(self):
        # Replications are drawn and scored in chunks, so the peak traced
        # allocation stays flat as their number grows tenfold.
        counts = sample_counts(noisy_table("T"), 3000, rng=27)

        def peak(replications):
            tracemalloc.start()
            try:
                aot_lr_test_montecarlo(counts, replications=replications, seed=28)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20_000) <= 1.5 * peak(2_000)

    def test_montecarlo_guard_counts_replicated_cells(self, monkeypatch):
        counts = sample_counts(noisy_table("B2"), 100, rng=29)
        monkeypatch.setattr(stats, "MC_GUARD_CELLS", 10 * np.size(counts.counts))
        assert aot_lr_test_montecarlo(counts, replications=10, seed=30).replications == 10
        monkeypatch.setattr(stats, "_draw_counts", lambda *args: pytest.fail("drew counts"))
        with pytest.raises(GuardExceeded, match="11 replications of 16 cells exceed the guard"):
            aot_lr_test_montecarlo(counts, replications=11, seed=30)

    def test_montecarlo_counts_relabelled_copies_as_extreme(self, monkeypatch):
        # Flipping setting or outcome labels along history axes leaves the
        # statistic unchanged mathematically, but sums its terms in another
        # order: on these T counts some copies land about 3e-10 below the
        # observed statistic, beyond an absolute tolerance of 1e-12.
        counts = sample_counts(noisy_table("T"), 100_000, rng=18)
        sc = counts.scenario
        history = oracles.to_history(sc, counts.counts)
        copies = iter([sc.from_history(np.flip(history, axes))
                       for r in range(1, 2 * sc.length + 1)
                       for axes in itertools.combinations(range(2 * sc.length), r)])
        monkeypatch.setattr(stats, "_draw_counts",
                            lambda rng, probs, reps, n: np.array([next(copies) for _ in range(n)]))
        mc = aot_lr_test_montecarlo(counts, replications=2 ** (2 * sc.length) - 1, seed=0)
        assert mc.p_value == 1.0


class TestCertify:
    def test_first_witness_summary(self):
        report = certify(get_witness("B1"), table_one_counts("B1"))
        assert report.value == pytest.approx(3.65, abs=1e-12)
        assert report.halfwidth == pytest.approx(0.0605, abs=1e-4)
        assert report.fraction == pytest.approx(0.65, abs=1e-12)
        assert report.fraction_halfwidth == pytest.approx(0.06, abs=5e-3)
        assert report.certified
        assert not report.below_bound

    def test_three_step_summary(self):
        report = certify(get_witness("T"), table_one_counts("T"))
        assert report.value == pytest.approx(7.00, abs=1e-12)
        assert report.fraction == pytest.approx(0.64, abs=5e-3)
        assert report.fraction_halfwidth == pytest.approx(0.02, abs=5e-3)
        assert report.violation_ratio == pytest.approx(1.34, abs=0.01)
        assert report.certified

    def test_violation_ratios_ordered(self):
        # The three-step quantity shows the largest violation ratio.
        ratios = {
            wid: certify(get_witness(wid), table_one_counts(wid)).violation_ratio
            for wid in ("B1", "B2", "B3", "B4", "T")
        }
        assert all(ratios["T"] > ratios[wid] for wid in ("B1", "B2", "B3", "B4"))

    def test_value_at_bound_not_certified(self):
        w = get_witness("B1")
        sc = w.scenario
        counts = np.zeros((4, 4), dtype=np.int64)
        for settings, outcomes, _ in w.terms:
            i = encode_sequence(settings, 2)
            counts[i, encode_sequence(outcomes, 2)] = 750
            counts[i, 3] += 250
        report = certify(w, CountsTable(sc, counts))
        assert report.value == pytest.approx(3.0)
        assert not report.certified
        assert report.fraction == 0.0

    def test_lower_end_between_reported_bound_and_threshold_not_certified(self):
        # B3 at 3.1864 from 1e8 shots per sequence: the lower end 3.18621
        # clears the reported 3.186 but not the qubit optimum 3.186228.
        w = get_witness("B3")
        counts = np.zeros((4, 4), dtype=np.int64)
        for settings, outcomes, _ in w.terms:
            i = encode_sequence(settings, 2)
            counts[i, encode_sequence(outcomes, 2)] = 79_660_000
            counts[i, 3 - encode_sequence(outcomes, 2)] = 20_340_000
        report = certify(w, CountsTable(w.scenario, counts))
        assert report.value == pytest.approx(3.1864)
        assert report.qubit_bound == 3.186
        assert 3.186 < report.value - report.halfwidth <= w.threshold
        assert not report.certified

    def test_discard_rate_recorded(self):
        counts = table_one_counts("B1")
        with_discards = CountsTable(
            counts.scenario, counts.counts, discarded=np.array([10, 20, 0, 10])
        )
        report = certify(get_witness("B1"), with_discards)
        assert report.total_discarded == 40
        assert report.discard_rate == pytest.approx(40 / 4040)

    def test_discarded_shots_count_as_failures(self):
        # B3 at 3.24 from 10,000 recorded shots per sequence clears the
        # threshold 3.1863. With 200 more shots per sequence discarded (a 2%
        # rate), all scored as failures, the value is 3.1765 and the lower
        # end falls below the threshold.
        w = get_witness("B3")
        counts = np.zeros((4, 4), dtype=np.int64)
        for settings, outcomes, _ in w.terms:
            i = encode_sequence(settings, 2)
            counts[i, encode_sequence(outcomes, 2)] = 8_100
            counts[i, 3 - encode_sequence(outcomes, 2)] = 1_900
        clean = certify(w, CountsTable(w.scenario, counts))
        assert clean.certified
        attack = certify(w, CountsTable(w.scenario, counts, discarded=np.full(4, 200)))
        # The reported numbers ignore the discarded shots; the verdict does not.
        assert (attack.value, attack.halfwidth, attack.fraction, attack.violation_ratio) == (
            clean.value, clean.halfwidth, clean.fraction, clean.violation_ratio)
        assert attack.value - attack.halfwidth > w.threshold
        assert not attack.certified
        # A few discards leave the verdict standing.
        assert certify(w, CountsTable(w.scenario, counts, discarded=np.full(4, 10))).certified

    def test_zero_repetitions_named_in_table_order(self):
        # B1 reads its rows in the order 00, 11, 01, 10. With rows 10 and 11
        # empty, the error names 10, the first empty row of the table.
        counts = np.array(table_one_counts("B1").counts)
        counts[2:] = 0
        with pytest.raises(ValueError, match=r"^setting sequence \(1, 0\) has zero repetitions$"):
            certify(get_witness("B1"), CountsTable(Scenario(2, 2, 2), counts))

    def test_scenario_mismatch(self):
        with pytest.raises(ValueError, match="do not match"):
            certify(get_witness("T"), table_one_counts("B1"))

    def test_witness_without_bounds_rejected(self):
        sc = Scenario(2, 2, 2)
        w = Witness(id="bare", scenario=sc, terms=(((0, 0), (0, 0), 1.0),))
        with pytest.raises(ValueError, match="no dimension bounds"):
            certify(w, table_one_counts("B1"))


class TestThreatModel:
    def test_step_dependent_instruments_let_a_bit_reach_the_b1_maximum(self):
        # A classical bit whose instruments change between steps: step 1
        # always reports "+" and prepares the bit x1; step 2 reports "+" iff
        # the bit equals x2. The verdict assumes time-independent
        # instruments. Without them a bit reaches B1's algebraic maximum,
        # the AoT constraints all hold, and the data "certify" a qutrit.
        sc = Scenario(2, 2, 2)
        history = np.zeros((2, 2, 2, 2))  # axes x1, a1, x2, a2
        history[:, 0, :, 0] = np.eye(2)
        history[:, 0, :, 1] = 1 - np.eye(2)
        table = CorrelationTable(sc, sc.from_history(history))
        assert simulator.evaluate_witness(get_witness("B1"), table) == 4.0
        assert polytope.check_aot(table) == []
        counts = CountsTable(sc, (table.probs * 1000).astype(np.int64))
        assert certify(get_witness("B1"), counts).certified


class TestSampleCounts:
    def test_deterministic_given_seed(self):
        table = noisy_table("B1")
        a = sample_counts(table, 500, rng=31)
        b = sample_counts(table, 500, rng=31)
        assert np.array_equal(a.counts, b.counts)

    def test_row_totals(self):
        table = noisy_table("B1")
        counts = sample_counts(table, [100, 200, 300, 400], rng=32)
        assert counts.repetitions == (100, 200, 300, 400)

"""Tests for the closed-form and nested qubit bounds and their optimizers."""

import tracemalloc

import numpy as np
import pytest

import util
from temporalwitness import GuardExceeded, bounds, simulator
from temporalwitness.bounds import (
    QubitBoundParams,
    nested_generic_bound,
    optimize_qubit_bound,
    optimize_tee_bound,
    tee_closed_form,
)
from temporalwitness.scenario import Scenario, Witness, get_witness


def extremal_to_effect_params(p, q, cos_gamma):
    return (2 - p) / 2, p / (2 - p), (2 - q) / 2, q / (2 - q), cos_gamma


class TestClosedForm:
    def test_reported_optimum(self):
        assert tee_closed_form((1.0, 1.0, -0.458)) == pytest.approx(5.226, abs=1e-3)

    def test_trivial_measurements(self):
        for cg in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert tee_closed_form((0.0, 0.0, cg)) == pytest.approx(2.0, abs=1e-12)

    def test_identical_projective_measurements(self):
        # Cross-checked against the nested route at the same parameters.
        value = tee_closed_form((1.0, 1.0, 1.0))
        nested = nested_generic_bound(
            get_witness("T"), *extremal_to_effect_params(1.0, 1.0, 1.0)
        )
        assert value == pytest.approx(2.0, abs=1e-12)
        assert nested == pytest.approx(value, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tee_closed_form((1.5, 0.5, 0.0))
        with pytest.raises(ValueError):
            tee_closed_form((0.5, 0.5, 2.0))

    def test_accepts_params_object(self):
        params = QubitBoundParams(0.3, 0.8, -0.2)
        assert tee_closed_form(params) == tee_closed_form((0.3, 0.8, -0.2))


class TestOptimizeTeeBound:
    def test_defaults_find_reported_optimum(self):
        result = optimize_tee_bound()
        assert result.value == pytest.approx(5.226, abs=1e-3)
        assert result.params.p == pytest.approx(1.0, abs=1e-6)
        assert result.params.q == pytest.approx(1.0, abs=1e-6)
        assert result.params.cos_gamma == pytest.approx(-0.458, abs=5e-3)
        assert result.method == "closed_form"

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="at least 20"):
            optimize_tee_bound(grid_resolution=10)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_rejects_empty_refinement_budget(self, budget):
        with pytest.raises(ValueError, match="refinement budget"):
            optimize_tee_bound(refinement_budget=budget)

    def test_value_is_float(self):
        # A refinement beats the grid here, and also with a one-call budget
        # that only re-evaluates the grid point.
        for budget in (2000, 1):
            result = optimize_tee_bound(refinement_budget=budget)
            assert type(result.value) is float

    def test_effect_params_map_the_argmax_onto_the_nested_bound(self):
        # The argmax maps onto the s = 1 face of the generic box, where the
        # nested bound of T is the closed form.
        result = optimize_tee_bound()
        nested = nested_generic_bound(get_witness("T"), *result.effect_params)
        assert nested == pytest.approx(result.value, abs=1e-9)

    def test_grid_memory_does_not_grow_with_the_grid(self):
        # The 150^3 grid runs in slabs no larger than the 40^3 grid's.
        def traced_peak(resolution):
            tracemalloc.start()
            try:
                optimize_tee_bound(grid_resolution=resolution, refinement_budget=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(150) <= 1.5 * traced_peak(40)

    def test_result_dominates_probes(self):
        rng = np.random.default_rng(15)
        result = optimize_tee_bound()
        for _ in range(200):
            point = (rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(-1, 1))
            assert tee_closed_form(point) <= result.value + 1e-9


class TestNestedGenericBound:
    def test_agrees_with_closed_form_on_extremal_family(self):
        rng = np.random.default_rng(16)
        w = get_witness("T")
        for _ in range(200):
            p, q = rng.uniform(0, 1, size=2)
            cg = rng.uniform(-1, 1)
            closed = tee_closed_form((p, q, cg))
            nested = nested_generic_bound(w, *extremal_to_effect_params(p, q, cg))
            assert abs(closed - nested) < 1e-9

    def test_trivial_effects_two_step(self):
        # Only the two repeated-setting terms can fire when both effects
        # are the identity.
        value = nested_generic_bound(get_witness("B1"), 1.0, 0.0, 1.0, 0.0, 0.5)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_zero_witness(self):
        w = Witness(id="zero", scenario=Scenario(2, 2, 2), terms=(((0, 0), (0, 0), 0.0),))
        assert nested_generic_bound(w, 0.5, 1.0, 0.5, 1.0, 0.0) == 0.0

    def test_domain_errors(self):
        w = get_witness("B1")
        with pytest.raises(ValueError):
            nested_generic_bound(w, 0.9, 0.5, 0.5, 1.0, 0.0)  # a0 too large
        with pytest.raises(ValueError):
            nested_generic_bound(w, 0.5, 1.0, 0.5, 1.0, 1.5)

    def test_rejects_wrong_scenario(self):
        w = Witness(id="wide", scenario=Scenario(2, 3, 2), terms=(((0, 2), (0, 0), 1.0),))
        with pytest.raises(ValueError, match="two settings"):
            nested_generic_bound(w, 0.5, 1.0, 0.5, 1.0, 0.0)


class TestOptimizeQubitBound:
    def test_two_step_bounds_quick(self):
        # Reduced restarts for speed; the acceptance suite runs the full 50.
        for wid, expected in (("B1", 3.0), ("B3", 3.186)):
            result = optimize_qubit_bound(get_witness(wid), restarts=5)
            assert result.value == pytest.approx(expected, abs=2e-3)

    def test_three_step_argmax_on_extremal_boundary(self):
        result = optimize_qubit_bound(get_witness("T"), restarts=5)
        assert result.value == pytest.approx(5.226, abs=2e-3)
        assert result.params is not None
        assert result.params.p == pytest.approx(1.0, abs=1e-4)
        assert result.params.q == pytest.approx(1.0, abs=1e-4)
        assert result.params.cos_gamma == pytest.approx(-0.458, abs=5e-3)

    def test_value_is_float(self):
        # The best value comes from a refinement with the default budget and
        # from the grid when each refinement may only evaluate its start.
        for budget in (2000, 1):
            result = optimize_qubit_bound(get_witness("B3"), restarts=0, refinement_budget=budget)
            assert type(result.value) is float

    @pytest.mark.parametrize("kwargs", [
        {"refinement_budget": 0}, {"refinement_budget": -1}, {"restarts": -1},
    ])
    def test_rejects_invalid_search(self, kwargs):
        with pytest.raises(ValueError, match="refinement budget|restarts"):
            optimize_qubit_bound(get_witness("B1"), **kwargs)

    def test_grid_memory_does_not_grow_with_the_grid(self):
        # The grid is evaluated in chunks of GRID_CHUNK_CELLS product cells,
        # so a 10^5-point grid peaks about where a two-chunk grid does.
        w = get_witness("T")
        chunk = bounds.GRID_CHUNK_CELLS // (4 * w.coefficients.size)
        two_chunks = round((2 * chunk) ** (1 / 5))
        assert chunk < two_chunks**5 < 10**5

        def traced_peak(resolution):
            tracemalloc.start()
            try:
                optimize_qubit_bound(w, restarts=0, grid_resolution=resolution,
                                     refinement_budget=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(10) <= 1.5 * traced_peak(two_chunks)

    def test_deterministic_given_seed(self):
        w = get_witness("B2")
        r1 = optimize_qubit_bound(w, restarts=3, seed=99)
        r2 = optimize_qubit_bound(w, restarts=3, seed=99)
        assert r1.value == r2.value
        assert r1.effect_params == r2.effect_params
        assert r1.evaluations == r2.evaluations

    def test_simulated_qubit_protocols_respect_bound(self):
        rng = np.random.default_rng(17)
        cached = {
            wid: optimize_qubit_bound(get_witness(wid), restarts=5).value
            for wid in ("B1", "T")
        }
        for _ in range(25):
            protocol = util.random_qubit_protocol(rng)
            own_params = util.qubit_effect_parameters(protocol)
            for wid in ("B1", "T"):
                w = get_witness(wid)
                table = simulator.sequence_probabilities(protocol, w.scenario.length)
                value = simulator.evaluate_witness(w, table)
                assert value <= nested_generic_bound(w, *own_params) + 1e-9
                assert value <= cached[wid] + 1e-6


class TestMultistart:
    @pytest.mark.parametrize("optimize", [
        lambda: optimize_tee_bound(grid_resolution=20),
        lambda: optimize_qubit_bound(get_witness("B3"), restarts=2),
    ], ids=["closed", "generic"])
    def test_chunked_grid_matches_one_pass(self, optimize, monkeypatch):
        # Both default grids fit in one slab; 999 cells cut them into slabs
        # of 120 and 12 points, the closed form's last one short.
        default = optimize()
        monkeypatch.setattr(bounds, "GRID_CHUNK_CELLS", 999)
        chunked = optimize()
        assert chunked.value == default.value
        assert chunked.effect_params == default.effect_params
        assert chunked.params == default.params
        assert chunked.evaluations == default.evaluations

    def test_guard_counts_grid_points(self, monkeypatch):
        monkeypatch.setattr(bounds, "GRID_GUARD_POINTS", 20**3)
        result = optimize_tee_bound(grid_resolution=20, refinement_budget=1)
        assert result.evaluations == 20**3 + 10
        with pytest.raises(GuardExceeded, match="exceeds the guard"):
            optimize_tee_bound(grid_resolution=21)

    def test_guard_counts_refinement_points(self, monkeypatch):
        def objective(z):
            raise AssertionError("evaluated the objective")

        monkeypatch.setattr(bounds, "GRID_GUARD_POINTS", 120)
        box = ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
        with pytest.raises(GuardExceeded,
                           match="12 refinement starts of up to 11 evaluations each exceed"):
            bounds._multistart(objective, box, 2, 1, 2, None, 11)
        # (10 + 2) starts of 10 evaluations sit at the guard and run.
        result = optimize_qubit_bound(get_witness("B1"), restarts=2, grid_resolution=2,
                                      refinement_budget=10)
        assert 2**5 < result.evaluations <= 2**5 + 120

    @pytest.mark.parametrize("resolution", [216, 1000])
    def test_guard_trips_before_the_grid(self, resolution):
        def objective(z):
            raise AssertionError("evaluated the grid")

        box = ((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))
        assert resolution**3 > bounds.GRID_GUARD_POINTS
        with pytest.raises(GuardExceeded, match="exceeds the guard"):
            bounds._multistart(objective, box, resolution, 1, 0, None, 1)
        with pytest.raises(GuardExceeded, match="exceeds the guard"):
            optimize_tee_bound(grid_resolution=resolution)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="grid resolution must be at least 1"):
            optimize_qubit_bound(get_witness("B1"), grid_resolution=0)

"""Interval bookkeeping, decay rates, and imputation contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustseq.errors import ValidationError
from robustseq.temporal import (DecayParams, EmpiricalMeans, VisitSeries,
                                compute_intervals, decay_rates,
                                empirical_means, impute_inputs,
                                impute_with_cache, mean_impute_inputs)

from conftest import random_series


def make_series(timestamps, values, mask, labels=None):
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = np.zeros((values.shape[0], 2))
    return VisitSeries(timestamps=np.asarray(timestamps, dtype=float),
                       values=values, mask=np.asarray(mask, dtype=float),
                       labels=labels)


class TestVisitSeriesValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            make_series([0.0, 1.0], [[1.0], [2.0]], [[1.0, 1.0], [1.0, 1.0]])

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            make_series([1.0, 0.5], [[1.0], [2.0]], [[1.0], [1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamps_rejected(self, bad):
        with pytest.raises(ValidationError, match="timestamps must be finite"):
            make_series([0.0, bad, 2.0], [[1.0], [2.0], [3.0]],
                        [[1.0], [0.0], [1.0]])

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValidationError, match="mask"):
            make_series([0.0, 1.0], [[1.0], [2.0]], [[0.5], [1.0]])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValidationError, match="label"):
            make_series([0.0], [[1.0]], [[1.0]], labels=[[0.3, 1.0]])

    def test_non_finite_observed_value_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            make_series([0.0], [[np.inf]], [[1.0]])

    def test_unobserved_cells_forced_to_nan(self):
        s = make_series([0.0, 1.0], [[3.0, 7.0], [5.0, 9.0]],
                        [[1.0, 0.0], [0.0, 1.0]])
        assert s.values[0, 0] == 3.0 and s.values[1, 1] == 9.0
        assert np.isnan(s.values[0, 1]) and np.isnan(s.values[1, 0])

    def test_dimension_properties(self, rng):
        s = random_series(rng, t_len=5, d=3, c=4)
        assert (s.num_steps, s.num_variables, s.num_codes) == (5, 3, 4)

    def test_error_message_names_patient(self):
        with pytest.raises(ValidationError, match="patient 'p9'"):
            VisitSeries(timestamps=np.array([1.0, 0.0]),
                        values=np.ones((2, 1)), mask=np.ones((2, 1)),
                        labels=np.zeros((2, 1)), patient_id="p9")


class TestComputeIntervals:
    def test_hand_case_with_carry(self):
        # variable 0 observed every step; variable 1 unobserved at t=1 so
        # its gap keeps accumulating until the next observation
        s = make_series([0.0, 2.0, 5.0, 6.0],
                        [[1.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
                        [[1, 1], [1, 0], [1, 0], [1, 1]])
        deltas = compute_intervals(s)
        expected = np.array([[0.0, 0.0],
                             [2.0, 2.0],
                             [3.0, 5.0],
                             [1.0, 6.0]])
        np.testing.assert_allclose(deltas, expected)

    def test_first_row_is_zero(self, rng):
        deltas = compute_intervals(random_series(rng, t_len=7))
        assert np.all(deltas[0] == 0.0)

    def test_observed_previous_step_gives_raw_gap(self, rng):
        s = random_series(rng, t_len=9, d=5)
        deltas = compute_intervals(s)
        gaps = np.diff(s.timestamps)
        for t in range(1, s.num_steps):
            observed_prev = s.mask[t - 1] > 0
            np.testing.assert_allclose(deltas[t][observed_prev],
                                       gaps[t - 1])

    def test_timestamp_shift_invariance(self, rng):
        s = random_series(rng, t_len=6)
        shifted = VisitSeries(timestamps=s.timestamps + 500.0,
                              values=np.where(s.mask > 0, s.values, 0.0),
                              mask=s.mask, labels=s.labels)
        np.testing.assert_allclose(compute_intervals(shifted),
                                   compute_intervals(s))


class TestEmpiricalMeans:
    def test_pooled_hand_case(self):
        a = make_series([0.0, 1.0], [[2.0, 4.0], [4.0, 0.0]],
                        [[1, 1], [1, 0]])
        b = make_series([0.0], [[6.0, 0.0]], [[1, 0]])
        means = empirical_means([a, b]).means
        np.testing.assert_allclose(means, [4.0, 4.0])

    def test_never_observed_variable_gets_zero(self):
        s = make_series([0.0, 1.0], [[1.0, 0.0], [3.0, 0.0]],
                        [[1, 0], [1, 0]])
        np.testing.assert_allclose(empirical_means([s]).means, [2.0, 0.0])

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValidationError):
            empirical_means([])

    def test_inconsistent_widths_rejected(self, rng):
        with pytest.raises(ValidationError):
            empirical_means([random_series(rng, d=3), random_series(rng, d=4)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_means_rejected(self, bad):
        with pytest.raises(ValidationError, match="means must be finite"):
            EmpiricalMeans(np.array([0.0, bad]))


class TestDecayRates:
    def test_hand_value(self):
        params = DecayParams(w_gamma=np.array([2.0]), b_gamma=np.array([-1.0]))
        np.testing.assert_allclose(decay_rates(np.array([[3.0]]), params),
                                   np.exp(-5.0))

    def test_negative_preactivation_clamps_to_one(self):
        params = DecayParams(w_gamma=np.array([1.0]), b_gamma=np.array([-10.0]))
        assert decay_rates(np.array([[2.0]]), params) == 1.0

    @given(w=st.floats(-3, 3), b=st.floats(-3, 3),
           delta=st.floats(0, 100))
    def test_rates_lie_in_unit_interval(self, w, b, delta):
        g = decay_rates(np.array([delta]),
                        DecayParams(w_gamma=np.array([w]), b_gamma=np.array([b])))
        assert 0.0 < g[0] <= 1.0

    @given(w=st.floats(0, 3), b=st.floats(-3, 3),
           d1=st.floats(0, 50), d2=st.floats(0, 50))
    def test_nonnegative_weight_gives_monotone_decay(self, w, b, d1, d2):
        lo, hi = sorted((d1, d2))
        params = DecayParams(w_gamma=np.array([w]), b_gamma=np.array([b]))
        g_lo = decay_rates(np.array([lo]), params)[0]
        g_hi = decay_rates(np.array([hi]), params)[0]
        assert g_hi <= g_lo + 1e-12


class TestImputation:
    def test_observed_cells_pass_through(self, rng):
        s = random_series(rng, t_len=8, d=5)
        params = DecayParams(w_gamma=rng.standard_normal(5),
                             b_gamma=rng.standard_normal(5))
        means = EmpiricalMeans(rng.standard_normal(5))
        out = impute_inputs(s, params, means)
        observed = s.mask > 0
        np.testing.assert_array_equal(out[observed], s.values[observed])
        assert np.isfinite(out).all()

    def test_missing_cell_blends_last_observation_and_mean(self):
        s = make_series([0.0, 1.0], [[4.0], [0.0]], [[1], [0]],
                        labels=np.zeros((2, 1)))
        params = DecayParams(w_gamma=np.array([1.0]), b_gamma=np.array([0.0]))
        means = EmpiricalMeans(np.array([10.0]))
        gamma = np.exp(-1.0)
        out = impute_inputs(s, params, means)
        np.testing.assert_allclose(out[1, 0], gamma * 4.0 + (1 - gamma) * 10.0)

    def test_missing_with_no_history_falls_back_to_mean(self):
        s = make_series([0.0, 3.0], [[0.0], [7.0]], [[0], [1]],
                        labels=np.zeros((2, 1)))
        params = DecayParams(w_gamma=np.array([1.0]), b_gamma=np.array([0.0]))
        means = EmpiricalMeans(np.array([2.5]))
        out = impute_inputs(s, params, means)
        # gamma * mean + (1 - gamma) * mean collapses to the mean itself
        assert out[0, 0] == 2.5
        assert out[1, 0] == 7.0

    def test_fallback_tracks_most_recent_observation(self):
        s = make_series([0.0, 1.0, 2.0, 3.0],
                        [[1.0], [5.0], [0.0], [0.0]],
                        [[1], [1], [0], [0]], labels=np.zeros((4, 1)))
        cache = impute_with_cache(s, DecayParams(np.array([0.0]), np.array([0.0])),
                                  EmpiricalMeans(np.array([0.0])))
        assert cache.fallback[2, 0] == 5.0
        assert cache.fallback[3, 0] == 5.0

    def test_cache_flags_match_mask_and_kink(self):
        s = make_series([0.0, 2.0], [[1.0, 2.0], [0.0, 0.0]],
                        [[1, 1], [0, 0]])
        params = DecayParams(w_gamma=np.array([1.0, -1.0]),
                             b_gamma=np.array([0.0, 0.0]))
        cache = impute_with_cache(s, params, EmpiricalMeans(np.zeros(2)))
        np.testing.assert_array_equal(cache.missing, s.mask == 0)
        assert cache.active[1, 0]          # 1.0 * 2.0 + 0 > 0
        assert not cache.active[1, 1]      # negative pre-activation clamps

    def test_mean_imputation_fills_every_missing_cell(self, rng):
        s = random_series(rng, t_len=6, d=4, observed_rate=0.4)
        means = EmpiricalMeans(np.arange(4.0))
        out = mean_impute_inputs(s, means)
        missing = s.mask == 0
        np.testing.assert_array_equal(out[missing],
                                      np.broadcast_to(means.means, out.shape)[missing])
        np.testing.assert_array_equal(out[~missing], s.values[~missing])

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_imputed_inputs_always_finite(self, seed):
        r = np.random.default_rng(seed)
        s = random_series(r, t_len=int(r.integers(1, 9)), d=3,
                          observed_rate=float(r.random()))
        params = DecayParams(w_gamma=r.standard_normal(3),
                             b_gamma=r.standard_normal(3))
        means = EmpiricalMeans(r.standard_normal(3))
        assert np.isfinite(impute_inputs(s, params, means)).all()

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from centilebench.model import (
    ConditionalParams,
    LognormalAR1Model,
    PercentilePath,
    VisitSchedule,
    conditional_params,
    conditional_percentile,
    drift_conditional_ranks,
    log_mean,
    marginal_percentile,
)
from centilebench.numerics import std_normal_cdf, std_normal_quantile

from conftest import true_log_mean


class TestLogMean:
    @pytest.mark.parametrize("t", [22.0, 26.0, 16.0, 36.0, 29.37])
    def test_polynomial(self, model, t):
        assert log_mean(model, t) == pytest.approx(float(true_log_mean(t)), abs=1e-12)

    def test_known_values(self, model):
        assert log_mean(model, 22.0) == pytest.approx(4.218928, abs=1e-6)
        assert log_mean(model, 26.0) == pytest.approx(4.224016, abs=1e-6)

    def test_degenerate_coefficients_outside_window(self):
        # A flat mean curve is c0 at every week of the study window.
        flat = LognormalAR1Model(c0=5.0, c2=0.0, c3=0.0)
        assert log_mean(flat, 26.0) == pytest.approx(5.0, abs=1e-15)

    @pytest.mark.parametrize("t", [15.9, 36.1, -2.0])
    def test_window_enforced(self, model, t):
        with pytest.raises(ValueError):
            log_mean(model, t)


class TestMarginalPercentile:
    def test_week22_third(self, model):
        assert marginal_percentile(model, 22.0, 0.03) == pytest.approx(56.3, abs=0.05)

    def test_week22_ninety_seventh(self, model):
        assert marginal_percentile(model, 22.0, 0.97) == pytest.approx(82.0, abs=0.05)

    def test_median_is_exp_log_mean(self, model):
        assert marginal_percentile(model, 26.0, 0.50) == pytest.approx(
            math.exp(float(true_log_mean(26.0))), rel=1e-12
        )
        assert marginal_percentile(model, 26.0, 0.50) == pytest.approx(68.31, abs=0.005)

    def test_tau_domain(self, model):
        with pytest.raises(ValueError):
            marginal_percentile(model, 22.0, 1.0)


class TestConditionalParams:
    def test_median_prior_no_adjustment(self, model):
        params = conditional_params(model, 22.0, 26.0, math.exp(log_mean(model, 22.0)))
        assert params.mu_cond == pytest.approx(4.224016, abs=1e-6)
        assert params.sigma_cond == pytest.approx(0.1 * math.sqrt(1 - 0.6**2), abs=1e-15)
        assert params.sigma_cond == pytest.approx(0.08, abs=1e-12)

    def test_low_prior(self, model):
        # independent evaluation of mu_26 + rho * (ln 56.31 - mu_22)
        expected = float(true_log_mean(26.0)) + 0.6 * (
            math.log(56.31) - float(true_log_mean(22.0))
        )
        params = conditional_params(model, 22.0, 26.0, 56.31)
        assert params.mu_cond == pytest.approx(expected, abs=1e-12)
        assert params.mu_cond == pytest.approx(4.11118, abs=5e-6)

    def test_requires_positive_prior(self, model):
        with pytest.raises(ValueError):
            conditional_params(model, 22.0, 26.0, -3.0)

    def test_requires_adjacent_intervals(self, model):
        with pytest.raises(ValueError):
            conditional_params(model, 18.0, 26.0, 60.0)
        with pytest.raises(ValueError):
            conditional_params(model, 26.0, 22.0, 60.0)

    def test_sigma_cond_positive_enforced(self):
        with pytest.raises(ValueError):
            ConditionalParams(mu_cond=4.0, sigma_cond=0.0)


def _exact_prior(model, tau):
    return math.exp(float(true_log_mean(22.0)) + std_normal_quantile(tau) * model.sigma)


class TestConditionalPercentile:
    def test_path_a_tails(self, model):
        y_a = _exact_prior(model, 0.03)
        assert conditional_percentile(model, 22.0, 26.0, y_a, 0.03) == pytest.approx(
            52.5, abs=0.05
        )
        assert conditional_percentile(model, 22.0, 26.0, y_a, 0.97) == pytest.approx(
            70.9, abs=0.05
        )

    def test_path_b_median_formula(self, model):
        # exact formula value; the published table shows this rounded down
        y_b = _exact_prior(model, 0.97)
        expected = math.exp(
            float(true_log_mean(26.0))
            + 0.6 * (math.log(y_b) - float(true_log_mean(22.0)))
        )
        assert conditional_percentile(model, 22.0, 26.0, y_b, 0.50) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(76.467, abs=0.001)

    def test_increasing_in_tau(self, model):
        y_prev = 70.0
        vals = [
            conditional_percentile(model, 22.0, 26.0, y_prev, tau)
            for tau in (0.03, 0.1, 0.5, 0.9, 0.97)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_increasing_in_prior_for_positive_rho(self, model):
        vals = [
            conditional_percentile(model, 22.0, 26.0, y, 0.5)
            for y in (55.0, 60.0, 65.0, 70.0, 80.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rho_zero_reduces_to_marginal(self):
        indep = LognormalAR1Model(rho=0.0)
        for y_prev in (50.0, 68.0, 90.0):
            assert conditional_percentile(indep, 22.0, 26.0, y_prev, 0.9) == pytest.approx(
                marginal_percentile(indep, 26.0, 0.9), rel=1e-12
            )


class TestDriftConditionalRanks:
    def test_scenario_c(self, model):
        path = PercentilePath((18.0, 22.0, 26.0, 30.0), (0.60, 0.70, 0.80, 0.90))
        ranks = drift_conditional_ranks(model, path)
        assert np.allclose(ranks, [0.68, 0.74, 0.83], atol=0.005)

    def test_scenario_d(self, model):
        path = PercentilePath(
            (18.0, 22.0, 26.0, 30.0, 34.0), (0.50, 0.50, 0.80, 0.80, 0.80)
        )
        ranks = drift_conditional_ranks(model, path)
        assert np.allclose(ranks, [0.50, 0.85, 0.66, 0.66], atol=0.005)

    def test_matches_z_formula(self, model):
        path = PercentilePath((18.0, 22.0, 26.0), (0.25, 0.40, 0.65))
        z = std_normal_quantile(np.array(path.marginal_ranks))
        expected = std_normal_cdf((z[1:] - 0.6 * z[:-1]) / math.sqrt(1 - 0.36))
        assert np.allclose(drift_conditional_ranks(model, path), expected, atol=1e-12)

    def test_constant_path_rho_zero(self):
        indep = LognormalAR1Model(rho=0.0)
        path = PercentilePath((18.0, 22.0, 26.0, 30.0), (0.7, 0.7, 0.7, 0.7))
        assert np.allclose(drift_conditional_ranks(indep, path), 0.7, atol=1e-12)

    def test_mean_shift_invariance(self, model):
        shifted = LognormalAR1Model(c0=model.c0 + 0.4)
        path = PercentilePath((18.0, 22.0, 26.0, 30.0), (0.60, 0.70, 0.80, 0.90))
        assert np.allclose(
            drift_conditional_ranks(model, path),
            drift_conditional_ranks(shifted, path),
            atol=1e-14,
        )

    def test_non_adjacent_times_rejected(self, model):
        path = PercentilePath((18.0, 26.0, 30.0), (0.6, 0.7, 0.8))
        with pytest.raises(ValueError):
            drift_conditional_ranks(model, path)

    def test_needs_two_points(self, model):
        with pytest.raises(ValueError):
            drift_conditional_ranks(model, PercentilePath((20.0,), (0.5,)))


class TestPercentilePath:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            PercentilePath((22.0, 22.0), (0.5, 0.6))

    def test_ranks_domain(self):
        with pytest.raises(ValueError):
            PercentilePath((18.0, 22.0), (0.5, 1.0))


class TestIntervalIndex:
    """The truth layer's visit intervals: the default schedule's windows."""

    @pytest.mark.parametrize(
        "t,expected", [(16.0, 0), (19.99, 0), (20.0, 1), (26.0, 2), (35.9, 4), (36.0, 4)]
    )
    def test_mapping(self, t, expected):
        assert VisitSchedule().interval_index(t) == expected

    def test_out_of_window(self):
        with pytest.raises(ValueError):
            VisitSchedule().interval_index(40.0)


class TestNonFiniteTimes:
    """NaN compares false against both window ends, so a window check written
    as `t < lo or t > hi` lets it through."""

    @given(
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        good=st.lists(st.floats(16.0, 36.0), max_size=6),
        pos=st.integers(0, 6),
    )
    def test_rejected(self, model, bad, good, pos):
        times = good[:pos] + [bad] + good[pos:]
        for t in (bad, times, np.array(times)):
            with pytest.raises(ValueError, match="finite"):
                VisitSchedule().interval_index(t)
            with pytest.raises(ValueError, match="finite"):
                log_mean(model, t)
            with pytest.raises(ValueError, match="finite"):
                marginal_percentile(model, t, 0.5)


class TestModelValidation:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            LognormalAR1Model(sigma=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["c0", "c2", "c3", "sigma"])
    def test_coefficients_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LognormalAR1Model(**{field: value})

    def test_rho_in_open_interval(self):
        with pytest.raises(ValueError):
            LognormalAR1Model(rho=1.0)

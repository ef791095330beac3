import math

import numpy as np
import pytest

from centilebench.lms import (
    LMSFit,
    fit_ar1_z,
    fit_lms,
    lms_centile,
    lms_conditional_centile,
    lms_zscore,
    zscore_pairs,
)
from centilebench.model import conditional_percentile
from centilebench.numerics import std_normal_quantile
from centilebench.splines import design_matrix

from conftest import TWO_WEEK_SCHEDULE, true_log_mean


def constant_fit(spec, L, M, S):
    """LMSFit with constant curves (partition of unity makes coefs the values)."""
    k = spec.n_basis
    return LMSFit(
        spec=spec,
        l_coefs=(float(L),) * k,
        m_coefs=(math.log(M),) * k,
        s_coefs=(math.log(S),) * k,
    )


@pytest.fixture(scope="module")
def oracle_fit(spec5):
    """The true model expressed as an LMS fit: L=0, M=exp(mu), S=sigma."""
    grid = np.linspace(16.0, 36.0, 201)
    m_coefs, *_ = np.linalg.lstsq(design_matrix(spec5, grid), true_log_mean(grid), rcond=None)
    fit = LMSFit(
        spec=spec5,
        l_coefs=(0.0,) * 5,
        m_coefs=tuple(m_coefs),
        s_coefs=(math.log(0.1),) * 5,
    )
    # the cubic is exactly representable, so this really is the true model
    assert np.max(np.abs(design_matrix(spec5, grid) @ m_coefs - true_log_mean(grid))) < 1e-9
    return fit


@pytest.fixture(scope="module")
def fitted(recovery_cohort, spec5):
    t, y = recovery_cohort.observed_points()
    return fit_lms(t, y, spec5)


class TestFitRecovery:
    def test_s_curve_near_truth(self, fitted, spec5):
        grid = np.linspace(16.0, 36.0, 201)
        s_hat = np.exp(design_matrix(spec5, grid) @ np.array(fitted.s_coefs))
        assert np.max(np.abs(s_hat - 0.1)) < 0.01

    def test_l_curve_small_in_interior(self, fitted, spec5):
        # true L is 0; unpenalized ML leaves L noisy near the boundary, so
        # the bound is checked on the interior window
        grid = np.linspace(18.0, 34.0, 161)
        l_hat = design_matrix(spec5, grid) @ np.array(fitted.l_coefs)
        assert np.max(np.abs(l_hat)) < 0.5

    def test_median_curve_near_truth(self, fitted, spec5):
        grid = np.linspace(18.0, 34.0, 161)
        m_hat = np.exp(design_matrix(spec5, grid) @ np.array(fitted.m_coefs))
        assert np.max(np.abs(m_hat - np.exp(true_log_mean(grid)))) < 0.6

    def test_noise_free_grid_reproduces_z(self, spec5):
        t_grid = np.linspace(16.5, 35.5, 39)
        z_grid = np.array([-2.0, -1.2, -0.5, 0.0, 0.5, 1.2, 2.0])
        z_grid = z_grid / np.sqrt(np.mean(z_grid**2))  # unit sample variance
        t = np.repeat(t_grid, z_grid.size)
        z = np.tile(z_grid, t_grid.size)
        y = np.exp(true_log_mean(t) + 0.1 * z)
        fit = fit_lms(t, y, spec5)
        assert np.max(np.abs(lms_zscore(fit, t, y) - z)) < 0.02

    def test_input_validation(self, spec5):
        with pytest.raises(ValueError):
            fit_lms([20.0] * 5, [60.0] * 5, spec5)
        with pytest.raises(ValueError):
            fit_lms(np.linspace(17, 35, 60), np.full(60, -1.0), spec5)


class TestZScore:
    def test_median_maps_to_zero(self, oracle_fit):
        t = 24.0
        m_t = math.exp(float(true_log_mean(t)))
        assert lms_zscore(oracle_fit, t, m_t) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value(self, spec5):
        fit = constant_fit(spec5, L=1.0, M=100.0, S=0.1)
        assert lms_zscore(fit, 26.0, 110.0) == pytest.approx(1.0, abs=1e-12)

    def test_continuity_at_l_zero(self, spec5):
        near = constant_fit(spec5, L=1e-5, M=70.0, S=0.1)
        zero = constant_fit(spec5, L=0.0, M=70.0, S=0.1)
        for ratio in (0.7, 0.9, 1.0, 1.2, 1.4):
            y = 70.0 * ratio
            assert abs(lms_zscore(near, 25.0, y) - lms_zscore(zero, 25.0, y)) < 1e-6

    def test_strictly_increasing_in_y(self, fitted):
        ys = np.linspace(45.0, 95.0, 60)
        zs = lms_zscore(fitted, np.full(ys.size, 27.0), ys)
        assert np.all(np.diff(zs) > 0.0)

    def test_positive_required(self, oracle_fit):
        with pytest.raises(ValueError):
            lms_zscore(oracle_fit, 24.0, 0.0)


class TestAr1:
    def test_recovers_rho(self, fitted, recovery_cohort):
        z_prev, z_cur = zscore_pairs(fitted, recovery_cohort.pair_set(max_gap=1))
        rho = fit_ar1_z(z_prev, z_cur)
        assert rho == pytest.approx(0.6, abs=0.05)

    def test_perfect_correlation_clamped(self):
        z = np.linspace(-2.0, 2.0, 50)
        assert fit_ar1_z(z, z) == 0.999

    def test_independent_streams(self):
        rng = np.random.default_rng(12)
        assert abs(fit_ar1_z(rng.standard_normal(10_000), rng.standard_normal(10_000))) < 0.03

    def test_needs_ten_pairs(self):
        with pytest.raises(ValueError):
            fit_ar1_z(np.arange(5.0), np.arange(5.0))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            fit_ar1_z(np.ones(20), np.arange(20.0))


class TestConditionalCentile:
    def test_oracle_chain_matches_truth(self, oracle_fit, model):
        y_a = math.exp(float(true_log_mean(22.0)) + std_normal_quantile(0.03) * 0.1)
        got = lms_conditional_centile(oracle_fit, 0.6, 22.0, y_a, 26.0, 0.03)
        want = conditional_percentile(model, 22.0, 26.0, y_a, 0.03)
        assert got == pytest.approx(want, abs=1e-7)
        assert got == pytest.approx(52.5, abs=0.05)

    def test_rho_zero_equals_marginal(self, fitted):
        for tau in (0.1, 0.5, 0.9):
            assert lms_conditional_centile(
                fitted, 0.0, 22.0, 64.0, 26.0, tau
            ) == pytest.approx(lms_centile(fitted, 26.0, tau), rel=1e-12)

    def test_round_trip_through_zscore(self, fitted):
        z_c = 1.17
        lo, mi, si = (arr[0] for arr in fitted.curves_at(26.0))
        y = lms_conditional_centile(fitted, 0.0, 22.0, 64.0, 26.0, 0.5)
        # invert/rescore at an off-median z
        from centilebench.lms import _from_zscore

        y_c = _from_zscore(float(lo), float(mi), float(si), z_c)
        assert lms_zscore(fitted, 26.0, y_c) == pytest.approx(z_c, abs=1e-9)

    def test_increasing_in_tau_and_prior(self, fitted):
        taus = (0.03, 0.1, 0.5, 0.9, 0.97)
        vals = [lms_conditional_centile(fitted, 0.6, 22.0, 64.0, 26.0, t) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        priors = (55.0, 62.0, 70.0, 80.0)
        vals = [lms_conditional_centile(fitted, 0.6, 22.0, y, 26.0, 0.5) for y in priors]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_requires_adjacent_intervals(self, fitted):
        with pytest.raises(ValueError):
            lms_conditional_centile(fitted, 0.6, 18.0, 64.0, 26.0, 0.5)

    def test_adjacency_follows_schedule(self, fitted):
        with pytest.raises(ValueError, match="adjacent"):
            lms_conditional_centile(
                fitted, 0.6, 22.0, 64.0, 26.0, 0.5, schedule=TWO_WEEK_SCHEDULE
            )
        assert lms_conditional_centile(
            fitted, 0.6, 22.0, 64.0, 24.0, 0.5, schedule=TWO_WEEK_SCHEDULE
        ) > 0.0

    def test_domain_edge_raises(self, spec5):
        fit = constant_fit(spec5, L=-2.0, M=70.0, S=0.5)
        with pytest.raises(ValueError, match="domain"):
            lms_conditional_centile(fit, 0.0, 22.0, 70.0, 26.0, 0.97)


class TestExport:
    def test_json_with_rho(self, fitted):
        import json

        payload = json.loads(fitted.to_json(rho_hat=0.61))
        assert set(payload) == {"knots", "l_coefs", "m_coefs", "s_coefs", "rho_hat"}
        assert payload["rho_hat"] == 0.61
        assert len(payload["m_coefs"]) == 5


class TestZscorePairsGuard:
    def test_gap_pairs_rejected(self, fitted, recovery_cohort):
        with pytest.raises(ValueError, match="one visit interval"):
            zscore_pairs(fitted, recovery_cohort.pair_set(max_gap=None))

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centilebench import lms
from centilebench.cohort import VisitSchedule, generate_cohort
from centilebench.lms import (
    LMSFit,
    fit_ar1_z,
    fit_lms,
    lms_centile,
    lms_conditional_centile,
    lms_zscore,
    zscore_pairs,
)
from centilebench.model import LognormalAR1Model, conditional_percentile
from centilebench.numerics import RngStream, std_normal_quantile
from centilebench.errors import FitError
from centilebench.splines import design_matrix

from conftest import true_log_mean


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
        for bad in (np.nan, np.inf):
            y = np.full(60, 70.0)
            y[7] = bad
            with pytest.raises(ValueError, match="finite"):
                fit_lms(np.linspace(17, 35, 60), y, spec5)


class TestZScore:
    def test_median_maps_to_zero(self, oracle_fit):
        t = 24.0
        m_t = math.exp(float(true_log_mean(t)))
        assert lms_zscore(oracle_fit, t, m_t) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value(self, spec5):
        fit = constant_fit(spec5, L=1.0, M=100.0, S=0.1)
        assert lms_zscore(fit, 26.0, 110.0) == pytest.approx(1.0, abs=1e-12)

    def test_continuity_at_l_zero(self, spec5):
        # z = u E(L u) / S with E(x) = 1 + x/2 + O(x^2), so z(L) - z(0) is
        # L u^2 / (2 S) to first order on both sides of L = 0: no switch to
        # the log form, and no kink, at any |L|.
        zero = constant_fit(spec5, L=0.0, M=70.0, S=0.1)
        for L in (-1e-3, -1e-4, -1e-5, -1e-8, 1e-8, 1e-5, 1e-4, 1e-3):
            near = constant_fit(spec5, L=L, M=70.0, S=0.1)
            for ratio in (0.7, 0.9, 1.0, 1.2, 1.4):
                y = 70.0 * ratio
                u = math.log(ratio)
                diff = lms_zscore(near, 25.0, y) - lms_zscore(zero, 25.0, y)
                assert diff == pytest.approx(L * u * u / 0.2, rel=1e-3, abs=1e-14)

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
        # Midweeks of every pair of the study's windows: only a window and
        # the next one are adjacent.
        mids = [(lo + hi) / 2.0 for lo, hi in VisitSchedule.windows]
        for i, t_prev in enumerate(mids):
            for j, t_cur in enumerate(mids):
                if j == i + 1:
                    assert lms_conditional_centile(fitted, 0.6, t_prev, 64.0, t_cur, 0.5) > 0.0
                else:
                    with pytest.raises(ValueError, match="visit intervals apart"):
                        lms_conditional_centile(fitted, 0.6, t_prev, 64.0, t_cur, 0.5)

    def test_domain_edge_raises(self, spec5):
        fit = constant_fit(spec5, L=-2.0, M=70.0, S=0.5)
        with pytest.raises(ValueError, match="domain"):
            lms_conditional_centile(fit, 0.0, 22.0, 70.0, 26.0, 0.97)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior_raises(self, fitted, bad):
        # A NaN prior passes a positivity check alone and would give NaN.
        for y_prev in (bad, np.array([64.0, bad])):
            with pytest.raises(ValueError, match="positive and finite"):
                lms_conditional_centile(fitted, 0.6, 22.0, y_prev, 26.0, 0.5)


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestCentileBroadcast:
    """Array arguments give every cell the bits of its own scalar call."""

    WEEKS = [16.0, 20.0, 26.0, 31.7, 36.0]
    TAUS = [0.03, 0.1, 0.5, 0.9, 0.97]

    def test_marginal_weeks_by_taus(self, fitted):
        scalar = [[lms_centile(fitted, w, tau) for tau in self.TAUS] for w in self.WEEKS]
        assert all(isinstance(v, float) for row in scalar for v in row)
        # A scalar call keeps the one-row curves and the math inverse it has
        # always used.
        L, M, S = (float(c[0]) for c in fitted.curves_at(31.7))
        assert scalar[3][4] == lms._from_zscore(L, M, S, std_normal_quantile(0.97))
        grid = lms_centile(fitted, np.array(self.WEEKS)[:, None], self.TAUS)
        assert grid.shape == (5, 5)
        assert hexes(grid) == hexes(scalar)
        assert hexes(lms_centile(fitted, self.WEEKS, np.array(self.TAUS)[:, None]).T) == hexes(scalar)

    def test_conditional_priors_by_taus(self, fitted):
        priors = [55.0, 64.0, 82.0]
        scalar = [
            [lms_conditional_centile(fitted, 0.6, 22.0, y, 26.0, tau) for tau in self.TAUS]
            for y in priors
        ]
        assert all(isinstance(v, float) for row in scalar for v in row)
        z = 0.6 * lms_zscore(fitted, 22.0, 64.0) + std_normal_quantile(0.1) * np.sqrt(1 - 0.36)
        L, M, S = (float(c[0]) for c in fitted.curves_at(26.0))
        assert scalar[1][1] == lms._from_zscore(L, M, S, float(z))
        grid = lms_conditional_centile(fitted, 0.6, 22.0, np.array(priors)[:, None], 26.0, self.TAUS)
        assert grid.shape == (3, 5)
        assert hexes(grid) == hexes(scalar)


class TestZscorePairsGuard:
    def test_gap_pairs_rejected(self, fitted, recovery_cohort):
        with pytest.raises(ValueError, match="one visit interval"):
            zscore_pairs(fitted, recovery_cohort.pair_set(max_gap=None))


class TestSharedBasis:
    @pytest.mark.parametrize("n_subjects", [200, 5000])
    def test_fit_and_pair_scores_keep_their_bits(self, monkeypatch, spec5, n_subjects):
        # The observed basis, built once by the caller, serves the fit as it
        # is and the pair z-scores by its rows at both ends of each pair.
        cohort = generate_cohort(
            LognormalAR1Model(), VisitSchedule(), n_subjects, RngStream(9).child(0)
        )
        t, y = cohort.observed_points()
        pairs = cohort.pair_set(max_gap=1)
        basis = design_matrix(spec5, t)
        fit = fit_lms(t, y, spec5)
        want = zscore_pairs(fit, pairs)
        monkeypatch.setattr(lms, "design_matrix", None)
        shared = fit_lms(t, y, spec5, basis=basis)
        assert hexes(coefs_of(shared)) == hexes(coefs_of(fit))
        assert shared.newton_steps == fit.newton_steps
        for got, ends in zip(zscore_pairs(fit, pairs, basis=basis), want):
            assert got.tobytes() == ends.tobytes()


def oracle_nll(x, basis, ln_y):
    """Box-Cox negative log-likelihood (up to a constant), written from the
    density ((y/M)^L - 1) / (L S) directly; complex x gives complex-step
    derivatives."""
    k = basis.shape[1]
    L = basis @ x[:k]
    u = ln_y - basis @ x[k : 2 * k]
    ln_s = basis @ x[2 * k :]
    # Below |L| = 1e-4 the series is exact to rounding. The closed form is
    # not there: the imaginary part of the complex division loses about
    # eps / (L u) relative to cancellation, beyond the gradient tolerance
    # when L is near 5e-8.
    tiny = np.abs(L.real) < 1e-4
    lu = L * u
    z = np.where(
        tiny,
        u * (1.0 + lu / 2.0 + lu * lu / 6.0 + lu**3 / 24.0),
        np.expm1(lu) / np.where(tiny, 1.0, L),
    ) / np.exp(ln_s)
    return -np.sum(lu - ln_s - 0.5 * z * z)


def oracle_grad(x, basis, ln_y, h=1e-20):
    g = np.empty(x.size)
    for j in range(x.size):
        xc = x.astype(complex)
        xc[j] += 1j * h
        g[j] = oracle_nll(xc, basis, ln_y).imag / h
    return g


def cohort_points(n_subjects, seed):
    cohort = generate_cohort(
        LognormalAR1Model(), VisitSchedule(), n_subjects, RngStream(seed).child(0)
    )
    return cohort.observed_points()


def coefs_of(fit):
    return np.array(fit.l_coefs + fit.m_coefs + fit.s_coefs)


def assert_box_optimal(fit, t, y):
    """First- and second-order conditions for a minimum over the box, with
    the gradient taken by complex step of the oracle likelihood."""
    basis = design_matrix(fit.spec, t)
    ln_y = np.log(y)
    x = coefs_of(fit)
    nll = float(oracle_nll(x, basis, ln_y))
    g = oracle_grad(x, basis, ln_y)
    lower, upper = lms._coefficient_box(fit.spec.n_basis)
    assert np.all((x >= lower) & (x <= upper))
    at_lo, at_hi = x == lower, x == upper
    # a coefficient at a bound is held there by its gradient
    assert np.all(g[at_lo] > 0.0) and np.all(g[at_hi] < 0.0)
    free = ~(at_lo | at_hi)
    _, _, hess = lms._nll_grad_hess(x, basis, ln_y, lms._basis_products(basis))
    h_free = hess[np.ix_(free, free)]
    assert np.linalg.eigvalsh(h_free)[0] > 0.0
    # the Newton step still open on the free coefficients gains at most
    # 1e-6 nat and moves no coefficient by more than 1e-3
    step = np.linalg.solve(h_free, g[free])
    assert 0.5 * g[free] @ step <= 1e-6
    assert np.max(np.abs(step)) <= 1e-3
    return basis, ln_y, nll


class TestExpm1Ratio:
    @given(x=st.floats(-3.0, 3.0) | st.sampled_from([0.0, 1e-2, -1e-2, 1e-300, 5e-3]))
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath(self, x):
        e0, e1, e2, ex = (float(v[0]) for v in lms._expm1_ratio_derivs(np.array([x])))
        with mpmath.workdps(40):
            xm = mpmath.mpf(x)
            f = lambda s: mpmath.expm1(s) / s if s != 0 else mpmath.mpf(1)
            want = [f(xm), mpmath.diff(f, xm, 1), mpmath.diff(f, xm, 2)]
        # The closed forms of E' and E'' lose about eps/x and eps/x^2 to
        # cancellation just above the series cutoff x = 1e-2.
        for got, ref, rel in zip((e0, e1, e2), want, (1e-14, 1e-12, 1e-10)):
            assert got == pytest.approx(float(ref), rel=rel)
        # The Hessian takes e^x from here, with the bits of its own np.exp.
        assert ex.hex() == float(np.exp(np.array([x]))[0]).hex()


def likelihood_point(seed, level, spread):
    """L coefficients at level +- spread, M and S coefficients near the
    generating model's, and 80 observations, all drawn from one seed."""
    rng = np.random.default_rng(seed)
    k = 5
    x = np.concatenate([
        level + spread * rng.uniform(-1.0, 1.0, k),
        np.log(70.0) + 0.05 * rng.standard_normal(k),
        np.log(0.1) + 0.3 * rng.standard_normal(k),
    ])
    t = rng.uniform(16.0, 36.0, 80)
    y = np.exp(true_log_mean(t) + 0.1 * rng.standard_normal(t.size))
    return x, t, y


@st.composite
def likelihood_points(draw):
    """Coefficients with L(t) at 0, or straddling |L| = 1e-4, or anywhere in
    the box, on a small synthetic data set."""
    seed = draw(st.integers(0, 2**32 - 1))
    level = draw(
        st.sampled_from([0.0, 1e-4, -1e-4, 5e-5, -5e-5, 2e-4, -2e-4, 1e-2])
        | st.floats(-2.5, 2.5)
    )
    spread = draw(st.sampled_from([0.0, 5e-5, 2e-4]) | st.floats(0.0, 0.5))
    return likelihood_point(seed, level, spread)


class TestNewtonDerivatives:
    # L near +-5e-8: the complex division of the oracle's closed form used to
    # miss the analytic gradient by up to 9e-8 on these points.
    @example(point=likelihood_point(164, 5e-8, 5e-8))
    @example(point=likelihood_point(12, -5e-8, 0.0))
    @given(point=likelihood_points())
    @settings(max_examples=60, deadline=None)
    def test_hessian_matches_central_differences(self, point, spec5):
        x, t, y = point
        basis = design_matrix(spec5, t)
        ln_y = np.log(y)
        products = lms._basis_products(basis)
        nll, grad, hess = lms._nll_grad_hess(x, basis, ln_y, products)
        assert np.array_equal(hess, hess.T)
        assert nll == pytest.approx(lms._nll(x, basis, ln_y), rel=1e-13)
        assert nll == pytest.approx(float(oracle_nll(x, basis, ln_y)), rel=1e-12)
        assert np.allclose(grad, oracle_grad(x, basis, ln_y), rtol=1e-9, atol=1e-9 * np.max(np.abs(grad)))
        h = 1e-6
        fd = np.empty_like(hess)
        for j in range(x.size):
            step = np.zeros(x.size)
            step[j] = h
            fd[:, j] = (
                lms._nll_grad_hess(x + step, basis, ln_y, products)[1]
                - lms._nll_grad_hess(x - step, basis, ln_y, products)[1]
            ) / (2.0 * h)
        assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(hess))


class TestNewtonFit:
    # (subjects, seed); RngStream(2) at 200 subjects ends with an L
    # coefficient on its bound.
    COHORTS = [(200, 2), (200, 5), (1000, 7), (5000, 3)]

    @pytest.mark.parametrize("n_subjects, seed", COHORTS)
    def test_box_optimal(self, n_subjects, seed, spec5):
        t, y = cohort_points(n_subjects, seed)
        fit = fit_lms(t, y, spec5)
        assert 1 <= fit.newton_steps <= 10
        assert_box_optimal(fit, t, y)
        if (n_subjects, seed) == (200, 2):
            assert lms._L_BOUND in np.abs(fit.l_coefs)

    @pytest.mark.parametrize("n_subjects, seed", COHORTS)
    def test_not_beaten_by_lbfgsb(self, n_subjects, seed, spec5):
        from scipy.optimize import minimize

        t, y = cohort_points(n_subjects, seed)
        fit = fit_lms(t, y, spec5)
        basis = design_matrix(spec5, t)
        ln_y = np.log(y)
        products = lms._basis_products(basis)
        x = coefs_of(fit)
        nll = lms._nll(x, basis, ln_y)
        lower, upper = lms._coefficient_box(spec5.n_basis)
        res = minimize(
            lambda v: lms._nll_grad_hess(v, basis, ln_y, products)[:2],
            x, jac=True, method="L-BFGS-B", bounds=list(zip(lower, upper)),
            options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12},
        )
        assert nll <= res.fun + 1e-10 * abs(nll)

    @pytest.mark.parametrize("n_subjects, seed", [(200, 82), (200, 202), (1000, 39)])
    def test_converges_with_l_near_zero(self, n_subjects, seed, spec5):
        # Each of these fits has L(t) within 4e-5 of zero at some observed
        # age, where a switch to the log form used to put a kink in the
        # likelihood that Newton could not converge across.
        t, y = cohort_points(n_subjects, seed)
        fit = fit_lms(t, y, spec5)
        assert fit.newton_steps <= 6
        l_obs = design_matrix(spec5, t) @ np.array(fit.l_coefs)
        assert np.min(np.abs(l_obs)) < 4e-5
        assert_box_optimal(fit, t, y)

    def test_step_cap_raises(self, spec5, monkeypatch):
        monkeypatch.setattr(lms, "_MAX_NEWTON_STEPS", 1)
        t, y = cohort_points(200, 5)
        with pytest.raises(FitError, match="did not converge"):
            fit_lms(t, y, spec5)

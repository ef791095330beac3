import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import centilebench.mvn
from centilebench.cohort import Cohort, VisitSchedule, generate_cohort
from centilebench.model import LognormalAR1Model, conditional_percentile
from centilebench.mvn import (
    _RHO_BOUNDS,
    _RHO_XATOL,
    MVNFit,
    _minimize_bounded,
    _pattern_moments,
    _profile,
    _stack_patterns,
    fit_mvn,
    mvn_conditional_centile,
    mvn_marginal_centile,
)
from centilebench.numerics import RngStream, std_normal_quantile
from centilebench.splines import design_matrix

from conftest import many_visit_cohort, true_log_mean

def gaussian_log_likelihood(cohort, spec, mean_coefs, sigma, rho) -> float:
    """Exact joint log-likelihood of the observed data at given parameters.

    Straightforward per-subject evaluation, deliberately independent of the
    moment-based path used by fit_mvn.
    """
    beta = np.asarray(mean_coefs, dtype=float)
    total = 0.0
    for i in range(cohort.times.shape[0]):
        k = np.nonzero(cohort.observed[i])[0]
        if k.size == 0:
            continue
        resid = np.log(cohort.values[i, k]) - design_matrix(
            spec, cohort.times[i, k]
        ) @ beta
        cov = sigma ** 2 * rho ** np.abs(np.subtract.outer(k, k)).astype(float)
        sign, log_det = np.linalg.slogdet(cov)
        total += -0.5 * (
            k.size * math.log(2.0 * math.pi)
            + log_det
            + resid @ np.linalg.solve(cov, resid)
        )
    return float(total)


def reference_pattern_moments(cohort, spec, center, obs_basis=None):
    """Per-subject moment builder: one basis call per subject, patterns kept
    in order of first appearance, the all-missing pattern skipped. It builds
    its own basis, whatever observed basis a fit passes on."""
    logs = np.log(cohort.values) - center
    by_pattern = {}
    for i in range(cohort.times.shape[0]):
        key = tuple(np.nonzero(cohort.observed[i])[0])
        if key:
            by_pattern.setdefault(key, []).append(i)
    groups = []
    n_obs = 0
    for key, members in by_pattern.items():
        idx = np.asarray(members)
        k = np.asarray(key)
        bases = np.stack([design_matrix(spec, cohort.times[i, k]) for i in idx])
        ys = logs[np.ix_(idx, k)]
        groups.append(
            {
                "gaps": np.abs(np.subtract.outer(k, k)).astype(float),
                "count": len(idx),
                "sxx": np.einsum("nka,nlb->klab", bases, bases),
                "sxy": np.einsum("nka,nl->kla", bases, ys),
                "syy": np.einsum("nk,nl->kl", ys, ys),
            }
        )
        n_obs += ys.size
    return groups, n_obs


def reference_profile(rho, groups, n_obs, n_basis):
    """Per-pattern profile log-likelihood: one inverse, one log-determinant
    and three contractions per attendance pattern, added to running sums in
    first-appearance order. The batched _profile must match it bit for bit."""
    a_mat = np.zeros((n_basis, n_basis))
    c_vec = np.zeros(n_basis)
    log_det = 0.0
    syy = 0.0
    for g in groups:
        corr = rho ** g["gaps"]
        w = np.linalg.inv(corr)
        log_det += g["count"] * np.linalg.slogdet(corr)[1]
        a_mat += np.einsum("kl,klab->ab", w, g["sxx"])
        c_vec += np.einsum("kl,kla->a", w, g["sxy"])
        syy += np.einsum("kl,kl->", w, g["syy"])
    beta = np.linalg.solve(a_mat, c_vec)
    quad = syy - 2.0 * c_vec @ beta + beta @ a_mat @ beta
    sigma2 = quad / n_obs
    ll = -0.5 * (n_obs * math.log(2.0 * math.pi * sigma2) + log_det + n_obs)
    return ll, beta, math.sqrt(sigma2)


def _fit_or_error(cohort, spec):
    try:
        return fit_mvn(cohort, spec)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


_MASK_SOURCE = generate_cohort(
    LognormalAR1Model(), VisitSchedule(), 40, RngStream(31).child(0)
)
_ALL_PATTERNS = (np.arange(32)[:, None] >> np.arange(5) & 1).astype(bool)


@pytest.fixture(scope="module")
def fitted(recovery_cohort, spec5):
    return fit_mvn(recovery_cohort, spec5)


@pytest.fixture(scope="module")
def oracle_fit(spec5):
    """The true model expressed as an MVN fit."""
    grid = np.linspace(16.0, 36.0, 201)
    coefs, *_ = np.linalg.lstsq(design_matrix(spec5, grid), true_log_mean(grid), rcond=None)
    return MVNFit(spec=spec5, mean_coefs=tuple(coefs), sigma_hat=0.1, rho_hat=0.6)


class TestFit:
    def test_recovers_covariance_parameters(self, fitted):
        assert fitted.rho_hat == pytest.approx(0.6, abs=0.05)
        assert fitted.sigma_hat == pytest.approx(0.1, abs=0.005)

    def test_mean_curve_recovery(self, fitted, spec5):
        grid = np.linspace(18.0, 34.0, 161)
        m_hat = np.exp(design_matrix(spec5, grid) @ np.array(fitted.mean_coefs))
        assert np.max(np.abs(m_hat - np.exp(true_log_mean(grid)))) < 0.4

    def test_rho_zero_recovered(self, spec5):
        indep = LognormalAR1Model(rho=0.0)
        sched = VisitSchedule(attendance_prob=1.0)
        cohort = generate_cohort(indep, sched, 4000, RngStream(55).child(0))
        fit = fit_mvn(cohort, spec5)
        assert abs(fit.rho_hat) < 0.03

    def test_subject_without_observations_skipped(self, model, schedule, spec5):
        cohort = generate_cohort(model, schedule, 50, RngStream(2).child(0))
        observed = cohort.observed.copy()
        assert observed[0].any()
        observed[0] = False
        masked = Cohort(times=cohort.times, values=cohort.values, observed=observed)
        # The empty subject adds nothing: the fit is that of the other 49.
        rest = Cohort(
            times=cohort.times[1:], values=cohort.values[1:], observed=cohort.observed[1:]
        )
        assert fit_mvn(masked, spec5) == fit_mvn(rest, spec5)

    def test_loglik_consistency_between_paths(self, fitted, recovery_cohort, spec5):
        direct = gaussian_log_likelihood(
            recovery_cohort, spec5, fitted.mean_coefs, fitted.sigma_hat, fitted.rho_hat
        )
        assert fitted.loglik == pytest.approx(direct, abs=1e-5)

    @pytest.mark.parametrize("seed", [404, 71, 72])
    def test_ml_dominates_truth(self, model, schedule, spec5, oracle_fit, seed):
        cohort = generate_cohort(model, schedule, 400, RngStream(seed).child(0))
        fit = fit_mvn(cohort, spec5)
        at_truth = gaussian_log_likelihood(
            cohort, spec5, oracle_fit.mean_coefs, 0.1, 0.6
        )
        assert fit.loglik >= at_truth - 1e-6

    def test_scale_invariance(self, recovery_cohort, spec5, fitted):
        scaled = Cohort(
            times=recovery_cohort.times,
            values=recovery_cohort.values * 3.0, observed=recovery_cohort.observed,
        )
        fit3 = fit_mvn(scaled, spec5)
        assert fit3.sigma_hat == pytest.approx(fitted.sigma_hat, abs=1e-8)
        assert fit3.rho_hat == pytest.approx(fitted.rho_hat, abs=1e-6)
        shift = np.array(fit3.mean_coefs) - np.array(fitted.mean_coefs)
        assert np.allclose(shift, math.log(3.0), atol=1e-6)

    def test_brent_evals_count_profile_evaluations(self, model, schedule, spec5, monkeypatch):
        calls = []
        real = centilebench.mvn._profile

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        cohort = generate_cohort(model, schedule, 300, RngStream(8).child(0))
        monkeypatch.setattr(centilebench.mvn, "_profile", counting)
        fit = fit_mvn(cohort, spec5)
        # The search's evaluations, then one more at its answer.
        assert fit.brent_evals == len(calls) - 1 > 0
        assert calls[-1] == fit.rho_hat


class TestPatternMoments:
    @settings(max_examples=60, deadline=None)
    @given(
        mask=st.integers(1, 40).flatmap(
            lambda n: arrays(bool, (n, 5), elements=st.booleans())
        )
    )
    @example(mask=np.ones((40, 5), dtype=bool))
    @example(mask=_ALL_PATTERNS)
    @example(mask=np.concatenate([np.zeros((3, 5), bool), np.eye(5, dtype=bool)] * 4))
    @example(mask=np.concatenate([np.zeros((20, 5), bool), np.ones((20, 5), bool)]))
    def test_matches_per_subject_reference(self, spec5, mask):
        n = mask.shape[0]
        cohort = Cohort(
            times=_MASK_SOURCE.times[:n], values=_MASK_SOURCE.values[:n],
            observed=mask,
        )
        center = 4.2
        got, got_n = _pattern_moments(cohort, spec5, center)
        want, want_n = reference_pattern_moments(cohort, spec5, center)
        assert got_n == want_n
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g["count"] == w["count"]
            for name in ("gaps", "sxx", "sxy", "syy"):
                assert g[name].shape == w[name].shape, name
                assert np.array_equal(g[name], w[name]), name

        if mask.any():
            fit = _fit_or_error(cohort, spec5)
            with mock.patch.object(
                centilebench.mvn, "_pattern_moments", reference_pattern_moments
            ):
                assert fit == _fit_or_error(cohort, spec5)

    def test_pattern_codes_hold_64_visits(self, model, spec5):
        # Each pattern is a 64-bit code: 64 visits group as the reference
        # does, and a 65th is refused rather than folded onto another bit.
        # The study has five visits, so these cohorts are built by hand.
        for n_visits in (64, 65):
            cohort = many_visit_cohort(model, n_visits, 30, seed=4)
            if n_visits == 65:
                with pytest.raises(ValueError, match="at most 64 visits"):
                    _pattern_moments(cohort, spec5, 4.2)
                continue
            got, got_n = _pattern_moments(cohort, spec5, 4.2)
            want, want_n = reference_pattern_moments(cohort, spec5, 4.2)
            assert got_n == want_n
            assert [g["count"] for g in got] == [w["count"] for w in want]
            for g, w in zip(got, want):
                for name in ("gaps", "sxx", "sxy", "syy"):
                    assert np.array_equal(g[name], w[name]), name

    @pytest.mark.parametrize("n_subjects", [30, 1000])
    def test_one_basis_call_per_fit(self, model, schedule, spec5, monkeypatch, n_subjects):
        calls = []

        def counting(spec, times):
            calls.append(np.size(times))
            return design_matrix(spec, times)

        cohort = generate_cohort(model, schedule, n_subjects, RngStream(6).child(0))
        monkeypatch.setattr(centilebench.mvn, "design_matrix", counting)
        fit = fit_mvn(cohort, spec5)
        assert calls == [int(cohort.observed.sum())]
        # A basis built by the caller is used as it is, with the same bits.
        shared = design_matrix(spec5, cohort.observed_points()[0])
        calls.clear()
        assert fit_mvn(cohort, spec5, basis=shared) == fit
        assert calls == []

    @pytest.mark.parametrize("n_visits", [5, 10])
    def test_flat_einsums_have_the_bits_of_the_four_index_ones(self, model, spec5, n_visits):
        # The study's five visits give patterns of 1 to 5 visits; the
        # 10-visit cohort is built by hand. The reference sums each moment
        # by the four-index einsums "nka,nlb->klab" and "nka,nl->kla".
        if n_visits == 5:
            cohort = generate_cohort(model, VisitSchedule(0.5), 2000, RngStream(8).child(0))
        else:
            cohort = many_visit_cohort(model, n_visits, 400, seed=8, attendance_prob=0.9)
        got, got_n = _pattern_moments(cohort, spec5, 4.2)
        want, want_n = reference_pattern_moments(cohort, spec5, 4.2)
        assert got_n == want_n
        if n_visits == 5:
            assert {g["gaps"].shape[0] for g in got} == set(range(1, 6))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for name in ("sxx", "sxy"):
                assert g[name].flags.c_contiguous, name
                assert g[name].shape == w[name].shape, name
                assert g[name].tobytes() == w[name].tobytes(), name


class TestBatchedProfile:
    """The profile batched over the patterns of each size has the bits of
    the per-pattern sum."""

    @staticmethod
    def assert_same_bits(cohort, spec, rhos):
        center = float(np.log(cohort.values[cohort.observed]).mean())
        groups, n_obs = _pattern_moments(cohort, spec, center)
        stacks = _stack_patterns(groups)
        for rho in rhos:
            ll, beta, sigma = _profile(rho, stacks, n_obs, spec.n_basis)
            want_ll, want_beta, want_sigma = reference_profile(rho, groups, n_obs, spec.n_basis)
            assert ll.hex() == want_ll.hex()
            assert [b.hex() for b in beta] == [b.hex() for b in want_beta]
            assert sigma.hex() == want_sigma.hex()

    @given(
        n_subjects=st.integers(30, 600),
        seed=st.integers(0, 2**32 - 1),
        ten_visits=st.booleans(),
        attendance=st.sampled_from([0.3, 0.8, 1.0]),
        rho=st.floats(-0.99, 0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_pattern_sum(
        self, model, spec5, n_subjects, seed, ten_visits, attendance, rho
    ):
        # Ten visits, built by hand, give many more patterns than the
        # study's five.
        if ten_visits:
            cohort = many_visit_cohort(model, 10, n_subjects, seed, attendance)
        else:
            schedule = VisitSchedule(attendance_prob=attendance)
            cohort = generate_cohort(model, schedule, n_subjects, RngStream(seed).child(0))
        if cohort.observed.sum() < spec5.n_basis + 2:
            return
        self.assert_same_bits(cohort, spec5, [rho, 0.0, 0.6])

    @pytest.mark.parametrize("n_subjects", [1000, 5000])
    def test_matches_per_pattern_sum_on_study_cohorts(self, model, schedule, spec5, n_subjects):
        cohort = generate_cohort(model, schedule, n_subjects, RngStream(9).child(0))
        self.assert_same_bits(cohort, spec5, np.linspace(-0.99, 0.99, 21))

    def test_fit_equals_per_pattern_fit(self, model, spec5, monkeypatch):
        cohort = many_visit_cohort(model, 10, 400, seed=12)
        fit = fit_mvn(cohort, spec5)
        monkeypatch.setattr(centilebench.mvn, "_stack_patterns", lambda groups: groups)
        monkeypatch.setattr(centilebench.mvn, "_profile", reference_profile)
        assert fit == fit_mvn(cohort, spec5)


class TestBoundedBrent:
    """The port of Brent's bounded search against scipy's, as a test-only
    oracle: the same minimizer, value, evaluation count and status."""

    @staticmethod
    def assert_same_as_scipy(func, lower, upper, xatol, maxiter=500):
        from scipy.optimize import minimize_scalar

        want = minimize_scalar(
            func, bounds=(lower, upper), method="bounded",
            options={"xatol": xatol, "maxiter": maxiter},
        )
        x, fx, nfev, status = _minimize_bounded(func, lower, upper, xatol, maxiter)
        assert (x, fx, nfev, status) == (want.x, want.fun, want.nfev, want.status)

    @given(
        c=arrays(float, 5, elements=st.floats(-3.0, 3.0)),
        lower=st.floats(-5.0, 1.0),
        width=st.floats(1e-3, 10.0),
        xatol=st.sampled_from([1e-3, 1e-5, 1e-7, 1e-9]),
        maxiter=st.sampled_from([3, 8, 500]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_on_smooth_functions(self, c, lower, width, xatol, maxiter):
        def func(x):
            return c[0] * x + c[1] * x * x + c[2] * math.sin(c[3] * x) + c[4] * math.cos(x)

        self.assert_same_as_scipy(func, lower, lower + width, xatol, maxiter)

    @pytest.mark.parametrize("n_subjects, seed", [(200, 1), (1000, 2), (5000, 3)])
    def test_matches_scipy_on_profile(self, model, schedule, spec5, n_subjects, seed):
        cohort = generate_cohort(model, schedule, n_subjects, RngStream(seed).child(0))
        center = float(np.log(cohort.values[cohort.observed]).mean())
        groups, n_obs = _pattern_moments(cohort, spec5, center)
        stacks = _stack_patterns(groups)

        def neg_profile(rho):
            return -_profile(rho, stacks, n_obs, spec5.n_basis)[0]

        self.assert_same_as_scipy(neg_profile, *_RHO_BOUNDS, _RHO_XATOL)


class TestMarginalCentile:
    def test_median_is_exp_mean(self, fitted):
        assert mvn_marginal_centile(fitted, 24.0, 0.5) == pytest.approx(
            math.exp(float(fitted.mean_at(24.0)[0])), rel=1e-12
        )

    def test_oracle_week22_third(self, oracle_fit):
        assert mvn_marginal_centile(oracle_fit, 22.0, 0.03) == pytest.approx(56.3, abs=0.05)

    def test_strictly_increasing_in_tau(self, fitted):
        vals = [mvn_marginal_centile(fitted, 28.0, tau) for tau in (0.03, 0.1, 0.5, 0.9, 0.97)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestCentileBroadcast:
    """Array arguments give every cell the bits of its own scalar call."""

    WEEKS = [16.0, 20.0, 26.0, 31.7, 36.0]
    TAUS = [0.03, 0.1, 0.5, 0.9, 0.97]

    def test_marginal_weeks_by_taus(self, fitted, spec5):
        scalar = [[mvn_marginal_centile(fitted, w, tau) for tau in self.TAUS] for w in self.WEEKS]
        assert all(isinstance(v, float) for row in scalar for v in row)
        # A scalar call keeps the one-row product it has always made.
        mean = (design_matrix(spec5, 31.7) @ np.asarray(fitted.mean_coefs))[0]
        q = std_normal_quantile(0.97)
        assert scalar[3][4] == float(np.exp(mean + q * fitted.sigma_hat))
        grid = mvn_marginal_centile(fitted, np.array(self.WEEKS)[:, None], self.TAUS)
        assert grid.shape == (5, 5)
        assert hexes(grid) == hexes(scalar)

    def test_conditional_priors_by_taus(self, fitted, spec5):
        priors = [55.0, 64.0, 82.0]
        scalar = [
            [mvn_conditional_centile(fitted, 22.0, y, 26.0, tau) for tau in self.TAUS]
            for y in priors
        ]
        assert all(isinstance(v, float) for row in scalar for v in row)
        coefs = np.asarray(fitted.mean_coefs)
        m_cur, m_prev = (float((design_matrix(spec5, t) @ coefs)[0]) for t in (26.0, 22.0))
        mu = m_cur + fitted.rho_hat * (math.log(64.0) - m_prev)
        scale = fitted.sigma_hat * math.sqrt(1.0 - fitted.rho_hat * fitted.rho_hat)
        assert scalar[1][1] == float(np.exp(mu + std_normal_quantile(0.1) * scale))
        grid = mvn_conditional_centile(fitted, 22.0, np.array(priors)[:, None], 26.0, self.TAUS)
        assert grid.shape == (3, 5)
        assert hexes(grid) == hexes(scalar)


class TestConditionalCentile:
    def test_oracle_path_a_median(self, oracle_fit):
        y_a = math.exp(float(true_log_mean(22.0)) + std_normal_quantile(0.03) * 0.1)
        assert mvn_conditional_centile(oracle_fit, 22.0, y_a, 26.0, 0.50) == pytest.approx(
            61.0, abs=0.05
        )

    def test_oracle_agrees_with_analytic_truth(self, oracle_fit, model):
        for name, prior_tau in (("A", 0.03), ("B", 0.97)):
            y_prev = math.exp(
                float(true_log_mean(22.0)) + std_normal_quantile(prior_tau) * 0.1
            )
            for tau in (0.03, 0.10, 0.50, 0.90, 0.97):
                ours = mvn_conditional_centile(oracle_fit, 22.0, y_prev, 26.0, tau)
                truth = conditional_percentile(model, 22.0, 26.0, y_prev, tau)
                assert abs(ours - truth) < 1e-10

    def test_rho_zero_reduces_to_marginal(self, fitted, spec5):
        indep = MVNFit(
            spec=spec5, mean_coefs=fitted.mean_coefs,
            sigma_hat=fitted.sigma_hat, rho_hat=0.0,
        )
        for tau in (0.1, 0.5, 0.9):
            assert mvn_conditional_centile(indep, 22.0, 70.0, 26.0, tau) == pytest.approx(
                mvn_marginal_centile(indep, 26.0, tau), rel=1e-12
            )

    def test_validation(self, fitted):
        # NaN and +inf priors pass a positivity check alone.
        for y_prev in (-1.0, math.nan, math.inf, np.array([66.0, math.nan])):
            with pytest.raises(ValueError, match="positive and finite"):
                mvn_conditional_centile(fitted, 22.0, y_prev, 26.0, 0.5)
        with pytest.raises(ValueError):
            mvn_conditional_centile(fitted, 18.0, 66.0, 26.0, 0.5)

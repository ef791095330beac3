import hashlib
import math
from types import SimpleNamespace

import numpy as np
import scipy.optimize
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from centilebench import quantreg
from centilebench.cohort import VisitSchedule, generate_cohort
from centilebench.errors import FitError
from centilebench.model import LognormalAR1Model
from centilebench.numerics import RngStream
from centilebench.quantreg import (
    _PFN_MIN_ROWS,
    QuantileFit,
    _certified_vertex,
    _Design,
    _order_statistics,
    _pivot_vertex,
    _preprocessed_vertex,
    _shifted_start,
    _sign_counts_ok,
    _solve_check_loss,
    _solve_check_loss_lp,
    _zero_tol,
    count_quantile_crossings,
    fit_conditional_qr,
    fit_marginal_qr,
    predict_centile,
)
from centilebench.splines import SplineSpec, design_matrix

from conftest import true_log_mean

INTERCEPT_SPEC = SplineSpec(degree=0, n_basis=1)


def n_params(fit):
    """Coefficients of a fit: the spline basis, plus beta0 and beta1 when
    conditional."""
    return fit.spec.n_basis + (2 if fit.conditional else 0)


def solve_check_loss(X, y, tau):
    """The solver's vertex, path and pivot count, and whether the
    preprocessing fell back, as a fit of this design reports it."""
    beta, solver, pivots = _solve_check_loss(_Design(X, y), tau)
    fit = QuantileFit(tau=tau, spec=SplineSpec(), spline_coefs=(), n_obs=y.size, solver=solver)
    return beta, solver, pivots, fit.pfn_fallback


def check_loss(residual, tau):
    """The quantile regression objective: the sum over the residuals r of
    r * (tau - 1{r < 0})."""
    r = np.asarray(residual, dtype=float)
    return float(np.sum(r * (tau - (r < 0.0))))


def mid_times(n):
    return np.full(n, 26.0)


class TestInterceptOnly:
    def test_median_of_small_sample(self):
        fit = fit_marginal_qr(mid_times(5), [1.0, 2.0, 3.0, 4.0, 5.0], 0.5, INTERCEPT_SPEC)
        assert predict_centile(fit, 26.0) == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_quartile_against_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 * rng.integers(5, 60) + 1  # odd n
        y = rng.normal(size=n) * 10.0
        tau = 0.25
        fit = fit_marginal_qr(mid_times(n), y, tau, INTERCEPT_SPEC)
        q = predict_centile(fit, 26.0)
        n_below = int(np.sum(y < q - 1e-9))
        n_above = int(np.sum(y > q + 1e-9))
        assert n_below <= math.ceil(tau * n)
        assert n_above <= math.ceil((1.0 - tau) * n)


class TestMarginalFit:
    def test_median_curve_recovery(self, recovery_cohort, spec5, model):
        t, y = recovery_cohort.observed_points()
        fit = fit_marginal_qr(t, y, 0.5, spec5)
        grid = np.linspace(20.0, 32.0, 121)
        truth = np.exp(true_log_mean(grid))
        assert np.max(np.abs(predict_centile(fit, grid) - truth)) < 0.6

    def test_subgradient_condition(self, recovery_cohort, spec5):
        t, y = recovery_cohort.observed_points()
        for tau in (0.03, 0.10, 0.50, 0.90, 0.97):
            fit = fit_marginal_qr(t, y, tau, spec5)
            n = fit.n_obs
            assert fit.n_neg <= tau * n + n_params(fit)
            assert fit.n_pos <= (1.0 - tau) * n + n_params(fit)
            assert fit.subgradient_ok

    def test_objective_beats_truth_coefficients(self, recovery_cohort, spec5, model):
        t, y = recovery_cohort.observed_points()
        fit = fit_marginal_qr(t, y, 0.5, spec5)
        basis = design_matrix(spec5, t)
        grid = np.linspace(16.0, 36.0, 201)
        truth_coefs, *_ = np.linalg.lstsq(
            design_matrix(spec5, grid), np.exp(true_log_mean(grid)), rcond=None
        )
        fit_obj = check_loss(y - basis @ np.array(fit.spline_coefs), 0.5)
        assert fit_obj <= check_loss(y - basis @ truth_coefs, 0.5) + 1e-8

    def test_too_few_observations(self, spec5):
        with pytest.raises(ValueError):
            fit_marginal_qr([20.0] * 5, [60.0] * 5, 0.5, spec5)

    def test_rank_deficiency_named(self, spec5):
        # all observations at one age cannot identify five basis coefficients
        with pytest.raises(ValueError, match="rank"):
            fit_marginal_qr([26.0] * 40, np.linspace(50, 90, 40), 0.5, spec5)

    def test_tau_domain(self, spec5):
        with pytest.raises(ValueError):
            fit_marginal_qr([20.0, 24.0, 26.0, 30.0, 34.0, 35.0], [60.0] * 6, 0.0, spec5)


def _pairs_from_cohort(cohort, max_gap=None):
    return cohort.pair_set(max_gap=max_gap)


def _constant_prior_pairs(n=400):
    """Pairs with one prior value and one gap: the history columns repeat
    the intercept, so the conditional design is singular."""
    rng = np.random.default_rng(4)
    t_cur = rng.uniform(20.0, 36.0, n)
    return _FakePairs(
        t_prev=t_cur - 4.0,
        y_prev=np.full(n, 65.0),
        t_cur=t_cur,
        y_cur=65.0 + 8.0 * rng.standard_normal(n),
    )


class TestConditionalFit:
    def test_constant_prior_matches_marginal(self, spec5):
        # constant y_prev and constant gap collapse the history term into the
        # intercept; fitted values must match the marginal fit
        pairs = _constant_prior_pairs()
        n, t_cur = len(pairs), pairs.t_cur
        cond = fit_conditional_qr(pairs, 0.5, spec5)
        marg = fit_marginal_qr(pairs.t_cur, pairs.y_cur, 0.5, spec5)
        pred_cond = predict_centile(cond, t_cur, y_prev=np.full(n, 65.0), dt=np.full(n, 4.0))
        pred_marg = predict_centile(marg, t_cur)
        assert check_loss(pairs.y_cur - pred_cond, 0.5) == pytest.approx(
            check_loss(pairs.y_cur - pred_marg, 0.5), abs=1e-6
        )
        assert np.max(np.abs(pred_cond - pred_marg)) < 1e-5
        # The history columns repeat the intercept, so the pivots' least-squares
        # start is singular and the fit must come from the LP; the regular
        # marginal design pivots to its certified vertex.
        assert cond.solver == "lp"
        assert marg.solver == "pivot"
        X = design_matrix(spec5, t_cur)
        assert hexes(marg.spline_coefs) == hexes(_full_vertex(X, pairs.y_cur, 0.5))

    def test_rho_zero_slope_vanishes(self):
        indep = LognormalAR1Model(rho=0.0)
        sched = VisitSchedule(attendance_prob=1.0)
        cohort = generate_cohort(indep, sched, 25_000, RngStream(21).child(0))
        pairs = cohort.pair_set(max_gap=None)
        assert len(pairs) == 4 * 25_000
        spec = SplineSpec()
        fit = fit_conditional_qr(pairs, 0.5, spec)
        assert abs(fit.beta0) < 0.02
        grid = np.linspace(20.0, 32.0, 49)
        typical_prev = float(np.exp(true_log_mean(22.0)))
        pred = predict_centile(
            fit, grid, y_prev=np.full(grid.size, typical_prev), dt=np.full(grid.size, 4.0)
        )
        assert np.max(np.abs(pred - np.exp(true_log_mean(grid)))) < 0.5

    def test_prediction_affine_in_prior(self, recovery_cohort, spec5):
        pairs = recovery_cohort.pair_set(max_gap=None)
        fit = fit_conditional_qr(pairs, 0.9, spec5)
        base = predict_centile(fit, 26.0, y_prev=60.0, dt=4.0)
        bump = predict_centile(fit, 26.0, y_prev=70.0, dt=4.0)
        assert bump - base == pytest.approx(10.0 * (fit.beta0 + fit.beta1 * 4.0), abs=1e-9)

    def test_beta1_zero_means_gap_free(self, spec5):
        fit_dummy = fit_conditional_qr(
            _FakePairs(
                t_prev=np.linspace(16.5, 31.0, 60),
                y_prev=np.linspace(55, 80, 60),
                t_cur=np.linspace(20.5, 35.0, 60),
                y_cur=np.linspace(56, 82, 60),
            ),
            0.5,
            spec5,
        )
        pinned = _replace_betas(fit_dummy, beta1=0.0)
        a = predict_centile(pinned, 26.0, y_prev=66.0, dt=4.0)
        b = predict_centile(pinned, 26.0, y_prev=66.0, dt=7.5)
        assert a == pytest.approx(b, abs=1e-12)

    def test_too_few_pairs(self, spec5):
        pairs = _FakePairs(
            t_prev=np.array([20.0]), y_prev=np.array([60.0]),
            t_cur=np.array([24.0]), y_cur=np.array([61.0]),
        )
        with pytest.raises(ValueError):
            fit_conditional_qr(pairs, 0.5, spec5)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestNonFiniteInput:
    @given(field=st.sampled_from(["times", "values"]), bad=NON_FINITE, pos=st.integers(0, 39))
    @settings(max_examples=40, deadline=None)
    def test_marginal_rejects(self, field, bad, pos):
        data = {"times": np.linspace(17.0, 35.0, 40), "values": np.linspace(60.0, 80.0, 40)}
        data[field][pos] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_marginal_qr(data["times"], data["values"], 0.5, SplineSpec())

    @given(
        field=st.sampled_from(["t_prev", "y_prev", "t_cur", "y_cur"]),
        bad=NON_FINITE,
        pos=st.integers(0, 59),
    )
    @settings(max_examples=40, deadline=None)
    def test_conditional_rejects(self, field, bad, pos):
        data = dict(
            t_prev=np.linspace(16.5, 31.0, 60),
            y_prev=np.linspace(55.0, 80.0, 60),
            t_cur=np.linspace(20.5, 35.0, 60),
            y_cur=np.linspace(56.0, 82.0, 60),
        )
        data[field][pos] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_conditional_qr(_FakePairs(**data), 0.5, SplineSpec())


def _primal_lp_objective(X, y, tau):
    """Check-loss optimum of the split-residual primal LP, solved by scipy."""
    n, p = X.shape
    eye = sp.identity(n, format="csr")
    res = linprog(
        np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)]),
        A_eq=sp.hstack([sp.csr_matrix(X), eye, -eye], format="csr"),
        b_eq=y,
        bounds=[(None, None)] * p + [(0.0, None)] * (2 * n),
        method="highs",
    )
    assert res.status == 0
    return res.fun


@st.composite
def _tied_designs(draw, n_min=20, n_max=400):
    """Intercept plus p-1 Gaussian columns; y rounded to 0-2 decimals, so
    residuals tie and some optima are degenerate."""
    n = draw(st.integers(n_min, n_max))
    p = draw(st.integers(1, 7))
    tau = draw(st.floats(0.02, 0.98))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = np.round(X @ rng.normal(size=p) + rng.standard_t(3, size=n), draw(st.integers(0, 2)))
    return X, y, tau


def _heavy_tailed_design(n=20_000):
    """Spline design at uniform times with t(2) noise around 70 mmHg."""
    rng = np.random.default_rng(0)
    X = design_matrix(SplineSpec(), rng.uniform(16.0, 36.0, n))
    return X, 70.0 + 5.0 * rng.standard_t(2, size=n)


class TestSolver:
    @given(design=_tied_designs())
    @settings(max_examples=100, deadline=None)
    def test_optimum_matches_primal_lp(self, design):
        X, y, tau = design
        beta, *_ = solve_check_loss(X, y, tau)
        want = _primal_lp_objective(X, y, tau)
        got = check_loss(y - X @ beta, tau)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert _sign_counts_ok(X, y, beta, tau)  # the subgradient_ok condition

    def test_near_zero_start_residual(self, model):
        # With an odd count at tau=0.5 the tau-shifted start puts one residual
        # within rounding of zero, and that row enters the start basis first;
        # the pivots still reach the certified median.
        fit = fit_marginal_qr(mid_times(41), np.linspace(50.0, 90.0, 41), 0.5, INTERCEPT_SPEC)
        assert fit.solver == "pivot"
        assert predict_centile(fit, 26.0) == pytest.approx(70.0, abs=1e-9)
        for seed in (0, 2):
            cohort = generate_cohort(model, VisitSchedule(), 200, RngStream(seed).child(0))
            t, y = cohort.observed_points()
            odd = t.size - (1 - t.size % 2)
            fit = fit_marginal_qr(t[:odd], y[:odd], 0.5, SplineSpec())
            assert fit.solver == "pivot"
            assert fit.subgradient_ok

    def test_rank_deficient_design_falls_back(self):
        # A singular X'X raises LinAlgError at the pivots' least-squares
        # start; the fit must come from the LP instead of raising.
        X = np.column_stack([np.ones(50), np.ones(50), np.linspace(0.0, 1.0, 50)])
        y = np.linspace(0.0, 1.0, 50) ** 2
        beta, solver, *_ = solve_check_loss(X, y, 0.5)
        assert solver == "lp"
        assert _sign_counts_ok(X, y, beta, 0.5)

    @pytest.mark.parametrize("tau", [0.03, 0.5, 0.9])
    def test_small_nonbasis_residual_is_certified(self, tau):
        # Move one positive residual to 2e-6, inside the audit's zero band
        # but far beyond rounding: its sign is unchanged, so the vertex stays
        # the optimum and must be certified, not left to the LP.
        X, y = _heavy_tailed_design(2_000)
        vertex, solver, *_ = solve_check_loss(X, y, tau)
        assert solver == "pivot"
        assert hexes(vertex) == hexes(_full_vertex(X, y, tau))
        resid = y - X @ vertex
        i = int(np.argmax(resid))
        y[i] -= resid[i] - 2e-6
        assert abs(y[i] - X[i] @ vertex) < _zero_tol(_Design(X, y))
        moved, solver, *_ = solve_check_loss(X, y, tau)
        assert solver == "pivot"
        assert hexes(moved) == hexes(_full_vertex(X, y, tau))
        np.testing.assert_allclose(moved, vertex, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(moved, _solve_check_loss_lp(X, y, tau), rtol=1e-9)

    def test_primal_lp_answer_is_audited(self, monkeypatch):
        # A dual answer that fails the subgradient audit sends the LP to its
        # primal re-solve. Its answer is returned only when it passes the
        # audit too; otherwise FitError is raised, not a wrong fit returned.
        X, y = _heavy_tailed_design(300)
        real = scipy.optimize.linprog
        methods = []

        def dual_fails(c, **kwargs):
            methods.append(kwargs["method"])
            res = real(c, **kwargs)
            if kwargs["method"] == "highs":
                res.eqlin.marginals = np.zeros(X.shape[1])
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", dual_fails)
        beta = _solve_check_loss_lp(X, y, 0.3)
        assert methods == ["highs", "highs-ds"]
        assert _sign_counts_ok(X, y, beta, 0.3)
        assert check_loss(y - X @ beta, 0.3) == pytest.approx(
            _primal_lp_objective(X, y, 0.3), rel=1e-9
        )

        def both_fail(c, **kwargs):
            methods.append(kwargs["method"])
            # Zero coefficients leave every residual positive.
            marginals = np.zeros(kwargs["A_eq"].shape[0])
            return SimpleNamespace(status=0, eqlin=SimpleNamespace(marginals=marginals), x=np.zeros(c.size))

        methods.clear()
        monkeypatch.setattr(scipy.optimize, "linprog", both_fail)
        with pytest.raises(FitError, match="primal answer fails the subgradient audit"):
            _solve_check_loss_lp(X, y, 0.3)
        assert methods == ["highs", "highs-ds"]
        # A fit whose pivots decline raises it too.
        with pytest.raises(FitError):
            fit_conditional_qr(_constant_prior_pairs(), 0.3, SplineSpec())

    def test_degenerate_vertex_falls_back(self):
        # A non-basis observation exactly on the fitted hyperplane leaves its
        # sign to rounding; such a vertex is left to the LP.
        X, y = _heavy_tailed_design(2_000)
        vertex, *_ = solve_check_loss(X, y, 0.5)
        resid = y - X @ vertex
        i = int(np.argmax(resid))
        y[i] = X[i] @ vertex
        beta, solver, *_ = solve_check_loss(X, y, 0.5)
        assert solver == "lp"
        assert _sign_counts_ok(X, y, beta, 0.5)
        assert check_loss(y - X @ beta, 0.5) == pytest.approx(
            check_loss(y - X @ vertex, 0.5), rel=1e-12
        )

    def test_scaled_response_scales_the_vertex(self):
        # Rescaling y rescales the start, every residual and every breakpoint
        # alike, and leaves the edges' slopes as they are: the same pivots,
        # on the preprocessed problem at 20 000 rows, reach the scaled
        # vertex.
        rng = np.random.default_rng(8)
        n = 20_000
        X = design_matrix(SplineSpec(), rng.uniform(16.0, 36.0, n))
        y = 70.0 * np.exp(0.1 * rng.standard_normal(n))
        for tau in (0.03, 0.97):
            vertex, solver, pivots, _ = solve_check_loss(X, y, tau)
            assert solver == "pfn"
            assert hexes(vertex) == hexes(_full_vertex(X, y, tau))
            for scale in (1e-6, 1e-3, 1e3, 1e6):
                scaled, scaled_solver, scaled_pivots, _ = solve_check_loss(X, scale * y, tau)
                assert (scaled_solver, scaled_pivots) == (solver, pivots)
                np.testing.assert_allclose(scaled, scale * vertex, rtol=1e-9)

    @pytest.mark.parametrize("tau", [0.02, 0.03, 0.5, 0.97, 0.98])
    def test_start_sits_at_tau_quantile(self, tau):
        # The least-squares start itself has about half its residuals below
        # zero, however extreme tau is; shifted, a tau share is.
        X, y = _heavy_tailed_design()
        _, resid = _shifted_start(_Design(X, y), tau)
        assert abs(np.mean(resid < 0.0) - tau) <= 2.0 / y.size

    def test_heavy_tails_at_extreme_tau(self):
        # t(2) noise at tau=0.02 and 0.98: cold pivots on all 20 000 rows,
        # the preprocessing's fallback, take 11 and 9; the cap of 100 must
        # leave room for them. They reach the preprocessed vertex.
        X, y = _heavy_tailed_design()
        for tau in (0.02, 0.98):
            with np.errstate(all="ignore"):
                vertex, pivots, _ = _pivot_vertex(_Design(X, y), tau)
            assert vertex is not None and pivots <= 50
            beta, solver, *_ = solve_check_loss(X, y, tau)
            assert solver == "pfn"
            assert hexes(beta) == hexes(vertex)



def solve_certified_vertex(X, y, beta, tau):
    """The certificate with its basis coordinates from one triangular solve
    per row, X_h^{-T} X': the oracle for _certified_vertex's one n x p
    product. Returns the same vertex, or None, on every beta."""
    p = X.shape[1]
    resid = y - X @ beta
    h = np.sort(np.argpartition(np.abs(resid), p - 1)[:p])
    X_h = X[h]
    if np.linalg.cond(X_h) > quantreg._VERTEX_MAX_COND:
        return None
    vertex = np.linalg.solve(X_h, y[h])
    resid = y - X @ vertex
    if np.any(np.abs(resid[h]) > _zero_tol(_Design(X, y))):
        return None
    coords = np.linalg.solve(X_h.T, X.T)
    nonbasis = np.ones(y.size, dtype=bool)
    nonbasis[h] = False
    evaluation = (
        quantreg._RESID_EVAL_ULPS * p * np.finfo(float).eps
        * (np.abs(y) + np.abs(X) @ np.abs(vertex))
    )
    rounding = evaluation + np.abs(coords).T @ (np.abs(resid[h]) + evaluation[h])
    if np.any(np.abs(resid[nonbasis]) <= rounding[nonbasis]):
        return None
    psi = np.where(resid < 0.0, tau - 1.0, tau)
    psi[h] = 0.0
    v = -(coords @ psi)
    slack = quantreg._DUAL_SLACK
    if np.any(v < tau - 1.0 - slack) or np.any(v > tau + slack):
        return None
    if not _sign_counts_ok(X, y, vertex, tau):
        return None
    return vertex


def _same_certificate(X, y, beta, tau):
    """Both certificates decide alike on beta and give the same vertex; the
    decision is returned."""
    with np.errstate(all="ignore"):
        got = _certified_vertex(_Design(X, y), beta, tau)
        want = solve_certified_vertex(X, y, beta, tau)
    assert (got is None) == (want is None)
    if got is not None:
        assert hexes(got) == hexes(want)
    return got is not None


def _nearby_betas(X, y, tau, seed=0):
    """The solver's vertex and perturbations of it, which polish to other,
    mostly refused, vertices."""
    beta = solve_check_loss(X, y, tau)[0]
    rng = np.random.default_rng(seed)
    scale = np.max(np.abs(beta))
    noise = [eps * scale * rng.standard_normal(beta.size) for eps in (1e-9, 1e-5, 1e-2)]
    return [beta] + [beta + d for d in noise]


class TestCertificate:
    """The certificate from one n x p product decides as the solve-based
    one does."""

    @given(design=_tied_designs())
    @settings(max_examples=60, deadline=None)
    def test_tied_designs(self, design):
        X, y, tau = design
        for beta in _nearby_betas(X, y, tau):
            if np.all(np.isfinite(beta)):
                _same_certificate(X, y, beta, tau)

    @pytest.mark.parametrize("tau", [0.02, 0.5, 0.98])
    def test_heavy_tailed_design(self, tau):
        X, y = _heavy_tailed_design(4_000)
        decisions = [_same_certificate(X, y, beta, tau) for beta in _nearby_betas(X, y, tau)]
        assert decisions[0] and not all(decisions)

    def test_degenerate_design(self):
        X, y = _heavy_tailed_design(2_000)
        vertex, *_ = solve_check_loss(X, y, 0.5)
        i = int(np.argmax(y - X @ vertex))
        y[i] = X[i] @ vertex
        assert not _same_certificate(X, y, vertex, 0.5)
        # The pivots' descent ends on a vertex that both refuse.
        with np.errstate(all="ignore"):
            refused, _, descent = _pivot_vertex(_Design(X, y), 0.5)
        assert refused is None and descent is not None
        assert not _same_certificate(X, y, descent, 0.5)

    @pytest.mark.parametrize("n_subjects", [1000, 5000])
    def test_cohort_designs(self, n_subjects):
        # Both certify every fit's own vertex.
        for X, y in _cohort_designs(n_subjects, 2):
            for tau in TAUS:
                decisions = [_same_certificate(X, y, beta, tau) for beta in _nearby_betas(X, y, tau)]
                assert decisions[0]

    @pytest.mark.parametrize("n_subjects", [1000, 5000])
    def test_first_bound_covers_the_exact_one(self, n_subjects):
        # The first stage may clear a residual only where the exact rounding
        # bound clears it too; at the optimum it clears every non-basis row.
        rng = np.random.default_rng(n_subjects)
        for X, y in _cohort_designs(n_subjects, 2):
            n, p = X.shape
            for tau in (0.1, 0.5):
                vertex = _full_vertex(X, y, tau)
                resid = y - X @ vertex
                h = np.sort(np.argpartition(np.abs(resid), p - 1)[:p])
                inv_h = np.linalg.inv(X[h])
                nonbasis = np.ones(n, dtype=bool)
                nonbasis[h] = False
                evaluation = (
                    quantreg._RESID_EVAL_ULPS * p * np.finfo(float).eps
                    * (np.abs(y) + np.abs(X) @ np.abs(vertex))
                )
                terms = np.abs(resid[h]) + evaluation[h]
                unclear = quantreg._unclear_rows(_Design(X, y), vertex, resid, inv_h, terms)
                assert not np.any(unclear & nonbasis)
                coords = np.linalg.solve(X[h].T, X.T).T
                exact = evaluation + np.abs(coords) @ terms
                # Residuals placed at, just beyond, and around the exact bound.
                factors = rng.choice([0.5, 1.0, 1.0 + 1e-12, 1.5, 3.0], size=n)
                signs = rng.choice([-1.0, 1.0], size=n)
                placed = np.where(nonbasis, exact * factors * signs, resid)
                unclear = quantreg._unclear_rows(_Design(X, y), vertex, placed, inv_h, terms)
                assert np.all(unclear[nonbasis & (np.abs(placed) <= exact)])


TAUS = (0.03, 0.10, 0.50, 0.90, 0.97)


def _cohort_designs(n_subjects, seed):
    """The marginal and the conditional (X, y) that the fits build from one
    simulated cohort."""
    cohort = generate_cohort(
        LognormalAR1Model(), VisitSchedule(), n_subjects, RngStream(seed).child(0)
    )
    spec = SplineSpec()
    t, y = cohort.observed_points()
    pairs = cohort.pair_set(max_gap=None)
    X_cond = np.column_stack([
        design_matrix(spec, pairs.t_cur),
        pairs.y_prev,
        pairs.y_prev * (pairs.t_cur - pairs.t_prev),
    ])
    return [(design_matrix(spec, t), y), (X_cond, pairs.y_cur)]


def _full_vertex(X, y, tau):
    """The vertex of cold simplex pivots on the full design, certified as
    the only minimizer: the answer of every fit below the preprocessing
    threshold, and an independent path to the preprocessed fits' vertex."""
    with np.errstate(all="ignore"):
        vertex = _pivot_vertex(_Design(X, y), tau)[0]
    assert vertex is not None
    return vertex


def _stride_design(n, seed, tilt):
    """A line through Gaussian noise whose stride-subsample rows have their
    slope raised by `tilt`, so that the subsample fit misplaces the band and
    globs rows on the wrong side of the optimum."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-1.0, 1.0, n)
    y = 2.0 * x + rng.standard_normal(n)
    sub = np.linspace(0, n - 1, round((3 * n) ** (2.0 / 3.0))).astype(int)
    y[sub] += tilt * x[sub]
    return np.column_stack([np.ones(n), x]), y


def _record_problems(monkeypatch):
    """The subsample designs the preprocessing takes, and the design and
    ``certify_on`` of every pivot descent that runs, in order."""
    subsamples, problems = [], []
    real_subsample = _Design.subsample
    real_pivot_vertex = quantreg._pivot_vertex

    def subsample(design, m):
        out = real_subsample(design, m)
        subsamples.append(out[0])
        return out

    def pivot_vertex(design, tau, certify_on=None):
        problems.append((design, certify_on))
        return real_pivot_vertex(design, tau, certify_on)

    monkeypatch.setattr(_Design, "subsample", subsample)
    monkeypatch.setattr(quantreg, "_pivot_vertex", pivot_vertex)
    return subsamples, problems


# SHA-256 over the vertices of _cohort_designs(5000, seed) at seeds 1-3,
# marginal then conditional, one line per level of TAUS holding the
# coefficients as float.hex. A solver change that moves one bit of one
# preprocessed fit shows here.
PINNED_VERTICES_5000 = "2a1f9dd52f1677099e427ef6fe7d3aed0eb621030f50ba3e42cf842d69214e53"


class TestPreprocessing:
    def test_large_cohort_vertices_pinned(self):
        digest = hashlib.sha256()
        for seed in (1, 2, 3):
            for X, y in _cohort_designs(5000, seed):
                for tau in TAUS:
                    beta = solve_check_loss(X, y, tau)[0]
                    digest.update((" ".join(hexes(beta)) + "\n").encode())
        assert digest.hexdigest() == PINNED_VERTICES_5000

    def test_large_cohorts_give_the_full_vertex_bit_for_bit(self):
        solvers = []
        for seed in (1, 2, 3):
            for X, y in _cohort_designs(5000, seed):
                assert y.size >= _PFN_MIN_ROWS
                for tau in TAUS:
                    beta, solver, _, fallback = solve_check_loss(X, y, tau)
                    solvers.append(solver)
                    assert fallback == (solver != "pfn")
                    assert hexes(beta) == hexes(_full_vertex(X, y, tau))
        assert solvers.count("pfn") >= 0.99 * len(solvers)

    @given(design=_tied_designs(n_min=_PFN_MIN_ROWS, n_max=_PFN_MIN_ROWS + 2000))
    @settings(max_examples=5, deadline=None)
    def test_optimum_matches_lp(self, design):
        # Rounded responses tie, so some optima are degenerate or not unique.
        # The simplex on the dual is the oracle: the primal takes seconds.
        X, y, tau = design
        beta, *_ = solve_check_loss(X, y, tau)
        want = check_loss(y - X @ _solve_check_loss_lp(X, y, tau), tau)
        got = check_loss(y - X @ beta, tau)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert _sign_counts_ok(X, y, beta, tau)

    def test_wrongly_globbed_rows_move_out_of_their_glob(self, monkeypatch):
        subsamples, problems = _record_problems(monkeypatch)
        for tilt, tau in ((0.25, 0.1), (0.2, 0.9)):
            X, y = _stride_design(10_000, 0, tilt)
            want = _full_vertex(X, y, tau)
            subsamples.clear()
            problems.clear()
            beta, solver, _, fallback = solve_check_loss(X, y, tau)
            assert (solver, fallback) == ("pfn", False)
            assert hexes(beta) == hexes(want)
            # The reduced problem, whose optimum the full certificate
            # refuses, and a re-solve with the wrong rows back in it; the
            # subsample is never doubled.
            rows = [design.y.size for design, _ in problems]
            assert len(rows) >= 2 and rows[1] > rows[0]
            assert len(subsamples) == 1

    def test_reduced_problems_start_from_the_shifted_subsample_fit(self, monkeypatch):
        # No pivots run on the subsample: every descent that runs is on a
        # reduced problem certified on the full data, and it starts from
        # the subsample's least-squares fit shifted to its tau order
        # statistic.
        subsamples, problems = _record_problems(monkeypatch)
        for X, y in _cohort_designs(5000, 1):
            design = _Design(X, y)
            for tau in TAUS:
                subsamples.clear()
                problems.clear()
                with np.errstate(all="ignore"):
                    vertex, _ = _preprocessed_vertex(design, tau)
                assert vertex is not None
                assert hexes(vertex) == hexes(_full_vertex(X, y, tau))
                (sub,) = subsamples
                start = hexes(_shifted_start(sub, tau)[0])
                assert problems
                for reduced, certify_on in problems:
                    assert certify_on is design
                    assert hexes(reduced.start) == start

    def test_many_wrong_rows_double_the_subsample(self, monkeypatch):
        X, y = _stride_design(10_000, 0, 1.0)
        want = _full_vertex(X, y, 0.5)
        subsamples, _ = _record_problems(monkeypatch)
        beta, solver, _, fallback = solve_check_loss(X, y, 0.5)
        assert (solver, fallback) == ("pfn", False)
        assert hexes(beta) == hexes(want)
        sizes = [sub.y.size for sub in subsamples]
        assert sizes[1] == 2 * sizes[0]

    def test_refused_reduced_answer_falls_back_to_full_pivots(self, monkeypatch):
        X, y = _cohort_designs(5000, 1)[0]
        tau = 0.9
        want = _full_vertex(X, y, tau)
        with np.errstate(all="ignore"):
            _, full_pivots, _ = _pivot_vertex(_Design(X, y), tau)
        _, problems = _record_problems(monkeypatch)
        certify = quantreg._certified_vertex
        calls = []

        def refuse_all(design, beta, tau, unique=False, basis=None):
            calls.append(beta)

        # The preprocessing's certificates: one on each reduced problem's
        # final vertex, on the full design.
        monkeypatch.setattr(quantreg, "_certified_vertex", refuse_all)
        with np.errstate(all="ignore"):
            vertex, pfn_pivots = _preprocessed_vertex(_Design(X, y), tau)
        assert vertex is None
        n_pfn = len(calls)
        assert n_pfn == len(problems) >= 1
        assert all(certify_on.y is y for _, certify_on in problems)
        calls.clear()
        problems.clear()

        def refuse_preprocessing(design, beta, tau, unique=False, basis=None):
            calls.append(beta)
            return None if len(calls) <= n_pfn else certify(design, beta, tau, unique, basis)

        def no_lp(*args):
            raise AssertionError("the LP ran")

        monkeypatch.setattr(quantreg, "_certified_vertex", refuse_preprocessing)
        monkeypatch.setattr(quantreg, "_solve_check_loss_lp", no_lp)
        beta, solver, pivots, fallback = solve_check_loss(X, y, tau)
        assert (solver, fallback) == ("pivot", True)
        # The pivots on the full design run last and certify at once.
        assert len(calls) == n_pfn + 1
        assert len(problems) == n_pfn + 1
        full, certify_on = problems[-1]
        assert full.y is y and certify_on is None
        assert hexes(beta) == hexes(want)
        assert pivots == pfn_pivots + full_pivots

    def test_below_threshold_only_the_full_pivots_run(self, monkeypatch):
        # Headline-sized designs, and the leading rows of a large one just
        # below and at the threshold. Below it the preprocessing never
        # starts: one descent on the full design fits.
        designs = _cohort_designs(1000, 1)
        X_big, y_big = _cohort_designs(5000, 1)[0]
        designs.append((X_big[: _PFN_MIN_ROWS - 1], y_big[: _PFN_MIN_ROWS - 1]))
        subsamples, problems = _record_problems(monkeypatch)
        for X, y in designs:
            assert y.size < _PFN_MIN_ROWS
            for tau in TAUS:
                problems.clear()
                beta, solver, pivots, fallback = solve_check_loss(X, y, tau)
                assert (solver, fallback) == ("pivot", False)
                ((full, certify_on),) = problems
                assert full.y is y and certify_on is None
                assert hexes(beta) == hexes(_full_vertex(X, y, tau))
        assert subsamples == []
        assert solve_check_loss(X_big[:_PFN_MIN_ROWS], y_big[:_PFN_MIN_ROWS], 0.5)[1] == "pfn"
        assert len(subsamples) == 1
        # Declined pivots leave a design below the threshold to the LP.
        monkeypatch.setattr(
            quantreg, "_pivot_vertex", lambda design, tau, certify_on=None: (None, 0, None)
        )
        X, y = designs[0]
        beta, solver, pivots, fallback = solve_check_loss(X, y, 0.5)
        assert (solver, pivots, fallback) == ("lp", 0, False)
        assert hexes(beta) == hexes(_solve_check_loss_lp(X, y, 0.5))
        assert len(subsamples) == 1

    def test_fit_records_the_path(self):
        cohort = generate_cohort(
            LognormalAR1Model(), VisitSchedule(), 5000, RngStream(1).child(0)
        )
        t, y = cohort.observed_points()
        fit = fit_marginal_qr(t, y, 0.5, SplineSpec())
        assert (fit.solver, fit.pfn_fallback) == ("pfn", False)
        assert fit.pivots == solve_check_loss(design_matrix(SplineSpec(), t), y, 0.5)[2] > 0
        assert fit.subgradient_ok


# Each fit's pivot count on _cohort_designs(n_subjects, seed), marginal then
# conditional, one count per level of TAUS. A changed pivot sequence shows
# here even where it ends on the same vertex.
PINNED_PIVOTS = {
    200: {
        1: [(6, 6, 8, 3, 6), (8, 17, 20, 9, 7)],
        2: [(7, 9, 5, 7, 5), (12, 14, 14, 11, 14)],
        3: [(5, 11, 7, 7, 9), (13, 8, 13, 7, 6)],
    },
    1000: {
        1: [(8, 7, 11, 6, 6), (14, 19, 17, 16, 15)],
        2: [(10, 9, 10, 12, 15), (20, 17, 12, 17, 16)],
        3: [(8, 7, 9, 13, 9), (26, 19, 19, 17, 6)],
    },
}


def searchsorted_breakpoint(near, fall, need):
    """_slope_breakpoint with its lift from np.cumsum and np.searchsorted:
    the reference for its running sum in Python floats."""
    n = near.size
    m = min(n, quantreg._PIVOT_SEARCH)
    while True:
        order = np.argpartition(near, n - m)[n - m :] if m < n else np.arange(n)
        order = order[np.argsort(near[order])[::-1]]
        i = int(np.searchsorted(np.cumsum(np.abs(fall[order])), need))
        if i < m:
            return (i, order) if near[order[i]] > 0.0 else (None, None)
        if m == n or not near[order[-1]] > 0.0:
            return None, None
        m = min(n, 4 * m)


class TestPivots:
    """Below the preprocessing threshold the simplex pivots give the
    certified vertex, or decline."""

    @pytest.mark.parametrize("n_subjects", [200, 1000])
    def test_cohort_designs_give_the_full_vertex_bit_for_bit(self, n_subjects):
        for seed in (1, 2, 3):
            counts = []
            for X, y in _cohort_designs(n_subjects, seed):
                assert y.size < _PFN_MIN_ROWS
                design = _Design(X, y)
                counts.append([])
                for tau in TAUS:
                    with np.errstate(all="ignore"):
                        vertex, pivots, descent = _pivot_vertex(design, tau)
                    assert vertex is not None and 0 < pivots <= quantreg._PIVOT_MAX
                    # The solve-based certificate polishes it to itself.
                    want = hexes(solve_certified_vertex(X, y, vertex, tau))
                    assert hexes(vertex) == hexes(descent) == want
                    beta, solver, solved_pivots, fallback = solve_check_loss(X, y, tau)
                    assert (solver, solved_pivots, fallback) == ("pivot", pivots, False)
                    assert hexes(beta) == want
                    counts[-1].append(pivots)
            assert [tuple(c) for c in counts] == PINNED_PIVOTS[n_subjects][seed]

    @pytest.mark.parametrize("n_subjects", [200, 1000])
    def test_certificate_given_the_pivot_basis_decides_as_from_scratch(
        self, monkeypatch, n_subjects
    ):
        # Each descent hands its final basis to the certificate. With it, or
        # with one of its rows swapped for the nearest non-basis row, the
        # certificate gives the vertex and sign counts it gives without it.
        certify = quantreg._certified_vertex
        calls = []

        def recording(design, beta, tau, unique=False, basis=None):
            calls.append((beta, tau, unique, basis.copy()))
            return certify(design, beta, tau, unique, basis)

        monkeypatch.setattr(quantreg, "_certified_vertex", recording)
        for seed in (1, 2, 3):
            for X, y in _cohort_designs(n_subjects, seed):
                calls.clear()
                for tau in TAUS:
                    with np.errstate(all="ignore"):
                        _pivot_vertex(_Design(X, y), tau)
                assert len(calls) == len(TAUS)
                p = X.shape[1]
                for beta, tau, unique, basis in calls:
                    assert unique
                    fresh = _Design(X, y)
                    want = certify(fresh, beta, tau, unique)
                    assert want is not None
                    # The pivots end on the p smallest residuals, so the
                    # certificate takes the basis as given.
                    size = np.abs(y - X @ beta)
                    order = np.argsort(size, kind="stable")
                    assert sorted(order[:p]) == list(basis) and size[order[p]] > size[basis].max()
                    swapped = np.sort(np.append(basis[1:], order[p]))
                    for given in (basis, swapped):
                        design = _Design(X, y)
                        got = certify(design, beta, tau, unique, given)
                        assert hexes(got) == hexes(want)
                        assert design.sign_counts == fresh.sign_counts

    def test_edge_pricing_matches_numpy(self):
        # The numpy pricing it replaces: first minimum, and NaN anywhere
        # gives a NaN slope, which declines.
        rng = np.random.default_rng(11)
        for trial in range(2000):
            p = int(rng.integers(1, 9))
            v = np.round(rng.normal(0.0, 0.6, p), int(rng.integers(1, 4)))
            if trial % 4 == 1:
                v[rng.integers(p)] = np.nan
            elif trial % 4 == 2:
                v[rng.integers(p)] = rng.choice([np.inf, -np.inf])
            tau = float(rng.choice(TAUS))
            slopes = np.minimum(tau + v, (1.0 - tau) - v)
            j = int(slopes.argmin())
            got_j, got_slope = quantreg._steepest_edge(v.tolist(), tau)
            if np.isnan(slopes[j]):
                assert math.isnan(got_slope)
            else:
                assert (got_j, float(got_slope).hex()) == (j, float(slopes[j]).hex())

    def test_breakpoint_search_matches_cumsum(self):
        # Sizes below, at and above the first batch of candidates, needs
        # that no breakpoint meets, and NaN in either input.
        rng = np.random.default_rng(12)
        for trial in range(1500):
            n = int(rng.choice([3, 32, 40, 300, 3000]))
            near = rng.standard_normal(n)
            fall = rng.standard_normal(n)
            need = float(rng.uniform(0.0, 0.6) * np.abs(fall[near > 0.0]).sum())
            if trial % 5 == 1:
                fall[rng.integers(n)] = np.nan
            elif trial % 5 == 2:
                near[rng.integers(n)] = np.nan
            elif trial % 5 == 3:
                need = 2.0 * np.abs(fall).sum() + 1.0
            i, order = quantreg._slope_breakpoint(near, fall, need)
            want_i, want_order = searchsorted_breakpoint(near, fall, need)
            assert i == want_i
            assert (order is None) == (want_order is None)
            if order is not None:
                assert np.array_equal(order, want_order)

    @given(design=_tied_designs())
    @settings(max_examples=100, deadline=None)
    def test_tied_designs_decline_or_reach_the_optimum(self, design):
        # Ties make some optima degenerate or not unique: those must be
        # declined, and every vertex given must be optimal.
        X, y, tau = design
        with np.errstate(all="ignore"):
            vertex, pivots, _ = _pivot_vertex(_Design(X, y), tau)
        assert 0 <= pivots <= quantreg._PIVOT_MAX
        if vertex is None:
            return
        want = _primal_lp_objective(X, y, tau)
        got = check_loss(y - X @ vertex, tau)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert _sign_counts_ok(X, y, vertex, tau)

    @pytest.mark.parametrize("n", [40, 41])
    def test_median_of_an_even_count_is_declined(self, n):
        # With an even count every point between the two middle values is a
        # median; the pivots decline, and the LP's vertex stands.
        X = np.ones((n, 1))
        y = np.linspace(50.0, 90.0, n)
        with np.errstate(all="ignore"):
            vertex, pivots, _ = _pivot_vertex(_Design(X, y), 0.5)
        beta, solver, solved_pivots, _ = solve_check_loss(X, y, 0.5)
        assert solved_pivots == pivots
        if n % 2 == 0:
            assert vertex is None
            assert solver == "lp"
            assert hexes(beta) == hexes(_solve_check_loss_lp(X, y, 0.5))
            assert y[n // 2 - 1] <= beta[0] <= y[n // 2]
        else:
            assert hexes(vertex) == hexes(beta) == hexes(y[n // 2])
            assert solver == "pivot"

    def test_declines_when_the_least_squares_start_fails(self):
        # Collinear columns: the start's X'X is singular, so the pivots
        # decline before their first.
        X = np.column_stack([np.ones(50), np.ones(50), np.linspace(0.0, 1.0, 50)])
        y = np.linspace(0.0, 1.0, 50) ** 2
        assert _pivot_vertex(_Design(X, y), 0.5) == (None, 0, None)


class TestPredictErrors:
    def test_conditional_needs_history(self, recovery_cohort, spec5):
        pairs = recovery_cohort.pair_set(max_gap=None)
        fit = fit_conditional_qr(pairs, 0.5, spec5)
        with pytest.raises(ValueError):
            predict_centile(fit, 26.0)
        with pytest.raises(ValueError):
            predict_centile(fit, 26.0, y_prev=60.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_conditional_rejects_non_finite_history(self, recovery_cohort, spec5, bad):
        # A NaN prior or gap would otherwise give NaN, and an infinite prior inf.
        fit = fit_conditional_qr(recovery_cohort.pair_set(max_gap=None), 0.5, spec5)
        for history in (
            dict(y_prev=bad, dt=4.0),
            dict(y_prev=np.array([60.0, bad]), dt=4.0),
            dict(y_prev=60.0, dt=bad),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                predict_centile(fit, 26.0, **history)

    def test_marginal_rejects_history(self, recovery_cohort, spec5):
        t, y = recovery_cohort.observed_points()
        fit = fit_marginal_qr(t, y, 0.5, spec5)
        with pytest.raises(ValueError):
            predict_centile(fit, 26.0, y_prev=60.0, dt=4.0)


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestPredictBroadcast:
    """Array arguments give every cell the bits of its own scalar call."""

    def test_marginal_weeks(self, recovery_cohort, spec5):
        t, y = recovery_cohort.observed_points()
        fit = fit_marginal_qr(t, y, 0.9, spec5)
        weeks = [16.0, 20.0, 24.3, 28.0, 32.0, 36.0]
        scalar = [predict_centile(fit, w) for w in weeks]
        assert all(isinstance(v, float) for v in scalar)
        # A scalar call keeps the one-row product it has always made.
        coefs = np.asarray(fit.spline_coefs)
        assert hexes(scalar) == hexes([(design_matrix(spec5, w) @ coefs)[0] for w in weeks])
        grid = predict_centile(fit, np.reshape(weeks, (2, 3)))
        assert grid.shape == (2, 3)
        assert hexes(grid) == hexes(scalar)

    def test_conditional_priors(self, recovery_cohort, spec5):
        fit = fit_conditional_qr(recovery_cohort.pair_set(max_gap=None), 0.1, spec5)
        priors = [55.0, 66.6, 82.0]
        scalar = [predict_centile(fit, 26.0, y_prev=p, dt=4.0) for p in priors]
        assert all(isinstance(v, float) for v in scalar)
        got = predict_centile(fit, 26.0, y_prev=np.array(priors), dt=4.0)
        assert got.shape == (3,)
        assert hexes(got) == hexes(scalar)

    def test_family_of_fits(self, recovery_cohort, spec5):
        # A tau family evaluates through one basis; its last axis runs over
        # the fits, each with the bits of that fit's own call.
        t, y = recovery_cohort.observed_points()
        weeks = np.array([20.0, 24.0, 28.0, 32.0])
        fits = fit_marginal_qr(t, y, TAUS, spec5)
        got = predict_centile(fits, weeks)
        assert got.shape == (weeks.size, len(TAUS))
        assert hexes(got) == hexes(np.column_stack([predict_centile(f, weeks) for f in fits]))
        fits = fit_conditional_qr(recovery_cohort.pair_set(max_gap=None), TAUS, spec5)
        priors = np.array([55.0, 82.0])
        got = predict_centile(fits, 26.0, y_prev=priors, dt=4.0)
        assert got.shape == (priors.size, len(TAUS))
        want = [predict_centile(f, 26.0, y_prev=priors, dt=4.0) for f in fits]
        assert hexes(got) == hexes(np.column_stack(want))
        other = QuantileFit(tau=0.5, spec=SplineSpec(n_basis=6), spline_coefs=(70.0,) * 6)
        with pytest.raises(ValueError, match="one spline basis"):
            predict_centile((fits[0], other), 26.0, y_prev=priors, dt=4.0)


def fit_bits(fit):
    """Every field of a fit, with its floats as float.hex."""
    return {
        name: hexes(value) if isinstance(value, (float, tuple)) else value
        for name, value in vars(fit).items()
    }


def _cohort_data(n_subjects, seed=1):
    cohort = generate_cohort(
        LognormalAR1Model(), VisitSchedule(), n_subjects, RngStream(seed).child(0)
    )
    return cohort.observed_points(), cohort.pair_set(max_gap=None)


class TestTauGrid:
    """A tau sequence fits every level on one design, with the bits of the
    scalar calls."""

    def _assert_grid_matches_scalars(self, fit_fn, args, spec, solver):
        grid = fit_fn(*args, TAUS, spec)
        assert isinstance(grid, tuple) and len(grid) == len(TAUS)
        scalars = [fit_fn(*args, tau, spec) for tau in TAUS]
        assert [fit_bits(f) for f in grid] == [fit_bits(f) for f in scalars]
        assert [f.tau for f in grid] == list(TAUS)
        assert {f.solver for f in grid} == {solver}

    @pytest.mark.parametrize(
        "n_subjects, solver", [(1000, "pivot"), (1000, "lp"), (5000, "pfn")]
    )
    def test_grid_equals_scalar_calls(self, monkeypatch, n_subjects, solver, spec5):
        if solver == "lp":
            # Declined pivots leave the fits to the LP.
            monkeypatch.setattr(
                quantreg, "_pivot_vertex", lambda design, tau, certify_on=None: (None, 0, None)
            )
        (t, y), pairs = _cohort_data(n_subjects)
        self._assert_grid_matches_scalars(fit_marginal_qr, (t, y), spec5, solver)
        self._assert_grid_matches_scalars(fit_conditional_qr, (pairs,), spec5, solver)

    def test_grid_equals_scalar_calls_on_the_lp_path(self, monkeypatch, spec5):
        pairs = _constant_prior_pairs()
        self._assert_grid_matches_scalars(fit_conditional_qr, (pairs,), spec5, "lp")
        # The marginal design is regular; refusing every vertex sends it to
        # the LP too.
        monkeypatch.setattr(
            quantreg,
            "_certified_vertex",
            lambda design, beta, tau, unique=False, basis=None: None,
        )
        self._assert_grid_matches_scalars(
            fit_marginal_qr, (pairs.t_cur, pairs.y_cur), spec5, "lp"
        )

    def test_singular_design_is_factored_once_for_the_grid(self, monkeypatch, spec5):
        # The constant-prior design's X'X is singular. Its failed factoring
        # is kept: the grid's starts factor it once, each start still
        # raises, and every level comes from the LP.
        pairs = _constant_prior_pairs()
        X = np.column_stack([
            design_matrix(spec5, pairs.t_cur),
            pairs.y_prev,
            pairs.y_prev * (pairs.t_cur - pairs.t_prev),
        ])
        factored = []
        cholesky = np.linalg.cholesky

        def counting(a):
            factored.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        fits = fit_conditional_qr(pairs, TAUS, spec5)
        assert factored == [(7, 7)]
        assert [f.solver for f in fits] == ["lp"] * len(TAUS)
        for fit in fits:
            want = _solve_check_loss_lp(X, pairs.y_cur, fit.tau)
            assert hexes(fit.spline_coefs + (fit.beta0, fit.beta1)) == hexes(want)
        design = _Design(X, pairs.y_cur)
        for tau in TAUS:
            with pytest.raises(np.linalg.LinAlgError):
                _shifted_start(design, tau)
        assert len(factored) == 2

    def test_call_shapes(self, recovery_cohort, spec5):
        t, y = recovery_cohort.observed_points()
        pairs = recovery_cohort.pair_set(max_gap=None)
        assert isinstance(fit_marginal_qr(t, y, 0.5, spec5), QuantileFit)
        assert isinstance(fit_conditional_qr(pairs, np.float64(0.5), spec5), QuantileFit)
        (one,) = fit_marginal_qr(t, y, [0.5], spec5)
        assert fit_bits(one) == fit_bits(fit_marginal_qr(t, y, 0.5, spec5))
        assert [f.tau for f in fit_conditional_qr(pairs, (0.9, 0.1), spec5)] == [0.9, 0.1]

    @pytest.mark.parametrize(
        "taus", [(0.5, 0.0), (math.nan, 0.5), (0.1, 0.5, 1.0), (0.5, 0.9, -0.1), (0.5, math.inf)]
    )
    def test_bad_level_anywhere_raises_before_any_solve(self, monkeypatch, taus, spec5):
        solves = []
        monkeypatch.setattr(quantreg, "_solve_check_loss", lambda *args: solves.append(args))
        pairs = _constant_prior_pairs()
        with pytest.raises(ValueError, match="tau must lie strictly in"):
            fit_marginal_qr(pairs.t_cur, pairs.y_cur, taus, spec5)
        with pytest.raises(ValueError, match="tau must lie strictly in"):
            fit_conditional_qr(pairs, taus, spec5)
        assert solves == []

    def test_one_design_and_rank_check_per_call(self, monkeypatch, recovery_cohort, spec5):
        calls = []

        def counted(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapped

        for name in ("design_matrix", "_check_design"):
            monkeypatch.setattr(quantreg, name, counted(name, getattr(quantreg, name)))
        t, y = recovery_cohort.observed_points()
        fit_marginal_qr(t, y, TAUS, spec5)
        assert calls == ["design_matrix", "_check_design"]
        calls.clear()
        fit_conditional_qr(recovery_cohort.pair_set(max_gap=None), TAUS, spec5)
        assert calls == ["design_matrix", "_check_design"]

    @pytest.mark.parametrize("n_subjects", [1000, 5000])
    def test_shared_basis_gives_the_same_fits(self, monkeypatch, n_subjects, spec5):
        # The observed basis, built once by the caller, serves the marginal
        # design as it is and the conditional one by its rows at the pairs'
        # later ends; no design is built, and every fit keeps its bits.
        (t, y), pairs = _cohort_data(n_subjects)
        basis = design_matrix(spec5, t)
        want = [fit_marginal_qr(t, y, TAUS, spec5), fit_conditional_qr(pairs, TAUS, spec5)]
        monkeypatch.setattr(quantreg, "design_matrix", None)
        got = [
            fit_marginal_qr(t, y, TAUS, spec5, basis=basis),
            fit_conditional_qr(pairs, TAUS, spec5, basis=basis),
        ]
        for got_fits, want_fits in zip(got, want):
            assert [fit_bits(f) for f in got_fits] == [fit_bits(f) for f in want_fits]


class TestOrderStatistics:
    """Two levels are found by two single partitions, with the values of
    numpy's partition at both ranks at once."""

    @pytest.mark.parametrize("tied", [False, True])
    def test_match_numpy_partition(self, tied):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7, 100, 20_000):
            values = rng.integers(0, 4, n).astype(float) if tied else rng.standard_normal(n)
            before = values.copy()
            levels = [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (0.3, 0.3), (0.1, 0.9), (0.9, 0.1)]
            levels += [tuple(rng.random(2)) for _ in range(20)]
            for pair in levels:
                ranks = [int(q * (n - 1)) for q in pair]
                got = _order_statistics(values, pair)
                assert hexes(got) == hexes(np.partition(values, ranks)[ranks])
                (one,) = _order_statistics(values, pair[:1])
                assert one == np.partition(values, ranks[0])[ranks[0]]
            assert values.tobytes() == before.tobytes()


class TestReporting:
    def test_crossing_count_reported(self, recovery_cohort, spec5):
        t, y = recovery_cohort.observed_points()
        fits = [fit_marginal_qr(t, y, tau, spec5) for tau in (0.03, 0.1, 0.5, 0.9, 0.97)]
        count = count_quantile_crossings(fits)
        assert isinstance(count, int) and count >= 0
        assert count == count_quantile_crossings(fits)

    def test_crossings_need_one_basis(self, spec5):
        fits = [
            QuantileFit(tau=0.1, spec=spec5, spline_coefs=(60.0,) * 5),
            QuantileFit(tau=0.9, spec=SplineSpec(n_basis=6), spline_coefs=(70.0,) * 6),
        ]
        with pytest.raises(ValueError, match="one spline basis"):
            count_quantile_crossings(fits)


class _FakePairs:
    """Minimal stand-in for PairSet when constructing pairs directly."""

    def __init__(self, t_prev, y_prev, t_cur, y_cur):
        self.t_prev = np.asarray(t_prev, dtype=float)
        self.y_prev = np.asarray(y_prev, dtype=float)
        self.t_cur = np.asarray(t_cur, dtype=float)
        self.y_cur = np.asarray(y_cur, dtype=float)

    def __len__(self):
        return self.t_prev.size


def _replace_betas(fit, **kw):
    from dataclasses import replace

    return replace(fit, **kw)

"""Traced replay of one replication of the study.

`replay_calls` makes the same calls, in the same order and with the same
arguments, as `experiment._replication` does, but through the public
functions of each module and from the benchmark's side: every call is timed
as a span. The outputs are checked against the oracles only after the
calls of every replication are done, so the checks do not disturb the
timings. Two probes that the replication does not make on its own are
timed and kept out of the layer total: one basis for all observed times of
the cohort, and one-row bases at the first observed times, the call shape
that the centile predictions and the MVN fit repeat about 1100 times per
replication.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.special import ndtri

import oracles
from centilebench.cohort import generate_cohort
from centilebench.lms import (
    fit_ar1_z,
    fit_lms,
    lms_centile,
    lms_conditional_centile,
    zscore_pairs,
)
from centilebench.mvn import fit_mvn, mvn_conditional_centile, mvn_marginal_centile
from centilebench.numerics import RngStream
from centilebench.quantreg import (
    count_quantile_crossings,
    fit_conditional_qr,
    fit_marginal_qr,
    predict_centile,
)
from centilebench.splines import design_matrix

ROW_PROBES = 100
# Spans of the benchmark's own probes; every other span below a replication
# is a call the replication itself makes, and counts towards the layer total.
PROBES = ("splines.design_obs", "splines.design_row")


class Tracer:
    """Spans kept in memory: (round, rep, name, parent, start_ns, end_ns).
    A round is one replay of the replications of a study."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        self.rounds = 0

    def call(self, rep: int, name: str, fn, *args, **kwargs):
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.spans.append(
            (self.rounds, rep, name, "experiment.replication", t0, time.perf_counter_ns())
        )
        return out

    def replication(self, rep: int, t0: int) -> None:
        self.spans.append((self.rounds, rep, "experiment.replication", "", t0, time.perf_counter_ns()))


def check_basis_grid(spec, n: int = 1000) -> list[str]:
    """design_matrix on n uniform times spanning the boundary, endpoints
    included, against scipy's B-spline design matrix."""
    t = np.linspace(*spec.boundary, n)
    if np.max(np.abs(design_matrix(spec, t) - oracles.basis(spec.knots, spec.degree, t))) > oracles.BASIS_ABS_TOL:
        return [f"splines: design_matrix on {n} uniform times differs from scipy"]
    return []


def _calls(cfg, rep: int, tracer: Tracer) -> dict:
    """The replication's calls, timed; the outputs are kept for the checks."""
    t0 = time.perf_counter_ns()
    call = lambda name, fn, *a, **k: tracer.call(rep, name, fn, *a, **k)  # noqa: E731
    spec = cfg.spline
    week_c, week_p = cfg.eval_week_conditional, cfg.prior_week
    o: dict = {"marginal": {}, "conditional": {}, "failures": []}
    marg, cond = o["marginal"], o["conditional"]

    def fail(method: str, exc: Exception) -> None:
        """As in the study, a failed method contributes no cells at all."""
        o["failures"].append((method, f"{type(exc).__name__}: {exc}"))
        for cells in (marg, cond):
            for key in [k for k in cells if k[0] == method]:
                del cells[key]

    o["cohort"] = cohort = call(
        "cohort.generate", generate_cohort,
        cfg.model, cfg.schedule, cfg.n_subjects, RngStream(cfg.master_seed).child(rep),
    )
    o["t_obs"], o["y_obs"] = t_obs, y_obs = call("cohort.observed_points", cohort.observed_points)
    o["priors"] = priors = call("experiment.prior_values", cfg.prior_values)
    o["pairs_adj"] = pairs_adj = call("cohort.pairs_adjacent", cohort.pair_set, max_gap=1)
    o["pairs_succ"] = pairs_succ = call("cohort.pairs_successive", cohort.pair_set, max_gap=None)
    pairs_qr = pairs_succ if cfg.qr_pair_mode == "successive" else pairs_adj
    o["design_obs"] = call("splines.design_obs", design_matrix, spec, t_obs)
    o["design_rows"] = [
        call("splines.design_row", design_matrix, spec, float(t)) for t in t_obs[:ROW_PROBES]
    ]

    if "QR" in cfg.methods:
        try:
            o["qr_marginal"] = fits = []
            for tau in cfg.tau_grid:
                fit = call("quantreg.fit_marginal", fit_marginal_qr, t_obs, y_obs, tau, spec)
                fits.append(fit)
                for week in cfg.eval_weeks_marginal:
                    marg[("QR", week, tau)] = call("quantreg.predict", predict_centile, fit, week)
            call("quantreg.crossings", count_quantile_crossings, fits)
            o["qr_conditional"] = fits = []
            for tau in cfg.tau_grid:
                fit = call("quantreg.fit_conditional", fit_conditional_qr, pairs_qr, tau, spec)
                fits.append(fit)
                for name, y_prev in priors.items():
                    cond[("QR", name, tau)] = call(
                        "quantreg.predict", predict_centile,
                        fit, week_c, y_prev=y_prev, dt=week_c - week_p,
                    )
        except Exception as exc:  # noqa: BLE001 - mirrors the study's failure policy
            fail("QR", exc)

    if "LMS" in cfg.methods:
        try:
            o["lms"] = fit = call("lms.fit", fit_lms, t_obs, y_obs, spec)
            for tau in cfg.tau_grid:
                for week in cfg.eval_weeks_marginal:
                    marg[("LMS", week, tau)] = call("lms.centile", lms_centile, fit, week, tau)
            z_prev, z_cur = call("lms.condition", zscore_pairs, fit, pairs_adj)
            o["lms_rho"] = rho_hat = call("lms.condition", fit_ar1_z, z_prev, z_cur)
            for name, y_prev in priors.items():
                for tau in cfg.tau_grid:
                    cond[("LMS", name, tau)] = call(
                        "lms.condition", lms_conditional_centile,
                        fit, rho_hat, week_p, y_prev, week_c, tau,
                    )
        except Exception as exc:  # noqa: BLE001
            fail("LMS", exc)

    if "MVN" in cfg.methods:
        try:
            o["mvn"] = fit = call("mvn.fit", fit_mvn, cohort, spec)
            for tau in cfg.tau_grid:
                for week in cfg.eval_weeks_marginal:
                    marg[("MVN", week, tau)] = call("mvn.centile", mvn_marginal_centile, fit, week, tau)
            for name, y_prev in priors.items():
                for tau in cfg.tau_grid:
                    cond[("MVN", name, tau)] = call(
                        "mvn.centile", mvn_conditional_centile, fit, week_p, y_prev, week_c, tau
                    )
        except Exception as exc:  # noqa: BLE001
            fail("MVN", exc)

    tracer.replication(rep, t0)
    return o


def _check(cfg, o: dict) -> tuple[list[str], dict]:
    """Every output of the replication against the oracles."""
    spec = cfg.spline
    knots, deg, k = spec.knots, spec.degree, spec.n_basis
    week_c, week_p = cfg.eval_week_conditional, cfg.prior_week
    cohort, t_obs, y_obs, priors = o["cohort"], o["t_obs"], o["y_obs"], o["priors"]
    marg, cond = o["marginal"], o["conditional"]
    failed = {m for m, _ in o["failures"]}
    counts = {
        "observations": t_obs.size,
        "pairs_adjacent": len(o["pairs_adj"]),
        "pairs_successive": len(o["pairs_succ"]),
        "qr_subgradient_violations": 0,
        "lms_newton_decrement": None,
    }
    errs = oracles.check_cohort(
        cohort, cfg.model, cfg.schedule.windows, cfg.schedule.attendance_prob
    )
    errs += oracles.check_pairs(cohort, o["pairs_adj"], 1)
    errs += oracles.check_pairs(cohort, o["pairs_succ"], None)

    def differ(value, want, what, rel=oracles.REL_TOL):
        if not oracles.close(value, want, rel):
            errs.append(f"{what}: {value!r} differs from the oracle's {want!r}")

    basis_obs = oracles.basis(knots, deg, t_obs)
    if np.max(np.abs(o["design_obs"] - basis_obs)) > oracles.BASIS_ABS_TOL:
        errs.append("splines: design_matrix on the observed times differs from scipy")
    if np.max(np.abs(np.vstack(o["design_rows"]) - basis_obs[:ROW_PROBES])) > oracles.BASIS_ABS_TOL:
        errs.append("splines: one-row design_matrix differs from scipy")

    def audit(X, y, fit, coefs, what):
        n_neg, n_pos, ok = oracles.qr_audit(X, y, coefs, fit.tau)
        counts["qr_subgradient_violations"] += not ok
        if not ok:
            errs.append(f"quantreg: {what} tau={fit.tau} fails the residual-sign audit")
        elif not oracles.qr_directional_ok(X, y, coefs, fit.tau):
            errs.append(f"quantreg: {what} tau={fit.tau} check loss falls along a coordinate")
        if (n_neg, n_pos, y.size) != (fit.n_neg, fit.n_pos, fit.n_obs):
            errs.append(f"quantreg: {what} tau={fit.tau} reports wrong residual signs")

    if "QR" in cfg.methods and "QR" not in failed:
        for fit in o["qr_marginal"]:
            audit(basis_obs, y_obs, fit, fit.spline_coefs, "marginal fit")
            for week in cfg.eval_weeks_marginal:
                want = oracles.basis(knots, deg, week)[0] @ fit.spline_coefs
                differ(marg[("QR", week, fit.tau)], float(want), "quantreg.predict_centile")
        pairs = o["pairs_succ"] if cfg.qr_pair_mode == "successive" else o["pairs_adj"]
        X = oracles.qr_design(knots, deg, pairs.t_cur, pairs.y_prev, pairs.t_cur - pairs.t_prev)
        for fit in o["qr_conditional"]:
            coefs = np.array(fit.spline_coefs + (fit.beta0, fit.beta1))
            audit(X, pairs.y_cur, fit, coefs, "conditional fit")
            for name, y_prev in priors.items():
                want = oracles.qr_design(knots, deg, week_c, np.array([y_prev]), week_c - week_p)[0] @ coefs
                differ(cond[("QR", name, fit.tau)], float(want), "quantreg.predict_centile")

    if "LMS" in cfg.methods and "LMS" not in failed:
        fit = o["lms"]
        coefs = np.array(fit.l_coefs + fit.m_coefs + fit.s_coefs)
        decrement, min_eig = oracles.lms_stationarity(coefs, basis_obs, y_obs)
        counts["lms_newton_decrement"] = decrement
        if not decrement <= oracles.LMS_NEWTON_DECREMENT_TOL:
            errs.append(
                f"lms: fit is not stationary: Newton decrement {decrement:.3g} "
                f"(smallest Hessian eigenvalue {min_eig:.3g})"
            )
        nll_fit = oracles.boxcox_nll(coefs, basis_obs, y_obs)
        nll_true = oracles.boxcox_nll(oracles.lms_truth_coefs(cfg.model, knots, deg), basis_obs, y_obs)
        if nll_fit > nll_true + 1e-9 * abs(nll_true):
            errs.append(f"lms: fit nll {nll_fit:.6f} worse than the true model's {nll_true:.6f}")

        def curves(t):
            b = oracles.basis(knots, deg, t)
            return b @ coefs[:k], np.exp(b @ coefs[k : 2 * k]), np.exp(b @ coefs[2 * k :])

        rel = oracles.LMS_REL_TOL
        for tau in cfg.tau_grid:
            for week in cfg.eval_weeks_marginal:
                L, M, S = (float(c[0]) for c in curves(week))
                differ(marg[("LMS", week, tau)], oracles.boxcox_centile(L, M, S, ndtri(tau)), "lms_centile", rel)
        pa = o["pairs_adj"]
        z_prev = oracles.boxcox_z(*curves(pa.t_prev), pa.y_prev)
        z_cur = oracles.boxcox_z(*curves(pa.t_cur), pa.y_cur)
        rho = o["lms_rho"]
        differ(rho, float(np.clip(np.corrcoef(z_prev, z_cur)[0, 1], -0.999, 0.999)), "lms rho_hat", rel)
        L, M, S = (float(c[0]) for c in curves(week_c))
        for name, y_prev in priors.items():
            z_p = float(oracles.boxcox_z(*curves(week_p), y_prev)[0])
            for tau in cfg.tau_grid:
                z = rho * z_p + ndtri(tau) * math.sqrt(1 - rho * rho)
                differ(cond[("LMS", name, tau)], oracles.boxcox_centile(L, M, S, z), "lms_conditional_centile", rel)

    if "MVN" in cfg.methods and "MVN" not in failed:
        fit = o["mvn"]
        ll = oracles.mvn_loglik(cohort, knots, deg, fit.mean_coefs, fit.sigma_hat, fit.rho_hat)
        differ(fit.loglik, ll, "mvn loglik against the per-subject likelihood")
        beta, sigma, _ = oracles.mvn_profile(cohort, knots, deg, fit.rho_hat)
        differ(fit.mean_coefs, beta, "mvn mean coefficients against GLS at rho_hat", 1e-8)
        differ(fit.sigma_hat, sigma, "mvn sigma against the profile at rho_hat", 1e-8)
        vertex = oracles.mvn_rho_vertex(cohort, knots, deg, fit.rho_hat)
        if not abs(vertex - fit.rho_hat) <= oracles.MVN_RHO_TOL:
            errs.append(f"mvn: rho_hat {fit.rho_hat:.7f} is not the profile maximum {vertex:.7f}")
        m = cfg.model
        truth = oracles.lms_truth_coefs(m, knots, deg)[k : 2 * k]
        ll_true = oracles.mvn_loglik(cohort, knots, deg, truth, m.sigma, m.rho)
        if ll < ll_true - 1e-9 * abs(ll_true):
            errs.append(f"mvn: fit loglik {ll:.6f} below the true model's {ll_true:.6f}")

        def mean(t):
            return float(oracles.basis(knots, deg, t)[0] @ fit.mean_coefs)

        for tau in cfg.tau_grid:
            for week in cfg.eval_weeks_marginal:
                want = math.exp(mean(week) + ndtri(tau) * fit.sigma_hat)
                differ(marg[("MVN", week, tau)], want, "mvn_marginal_centile")
        scale = fit.sigma_hat * math.sqrt(1 - fit.rho_hat**2)
        for name, y_prev in priors.items():
            mu = mean(week_c) + fit.rho_hat * (math.log(y_prev) - mean(week_p))
            for tau in cfg.tau_grid:
                differ(cond[("MVN", name, tau)], math.exp(mu + ndtri(tau) * scale), "mvn_conditional_centile")
    return errs, counts


def replay_calls(cfg, reps, tracer: Tracer) -> list[dict]:
    """One round: the calls of the given replications, timed."""
    outputs = [_calls(cfg, rep, tracer) for rep in reps]
    tracer.rounds += 1
    return outputs


def check_replay(cfg, outputs) -> list[dict]:
    """For each replayed replication its estimates, failures, counts and the
    messages of every failed oracle check."""
    results = []
    for o in outputs:
        errs, counts = _check(cfg, o)
        results.append({
            "marginal": o["marginal"], "conditional": o["conditional"],
            "failures": o["failures"], "counts": counts, "errors": errs,
        })
    return results

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to watch the lines live. The
full-scale reproduction (criterion 2) runs 500 replications of 1000
subjects and dominates the runtime; on a 2-CPU machine the module takes
about 12 s, 7 s of it the criterion-2 study.

Criterion 1b checks the analytic conditional percentiles two ways: against
an mpmath oracle that shares no code with the package, and against the
published conditional-truth row kept exactly as printed. Two path-B cells
of that row (50th and 97th) print the exact value truncated rather than
rounded to 0.1 mmHg (76.4 for 76.467, 88.8 for 88.884). They are held in
`TABLE2_TRUE_ERRATA` and checked as an erratum: the package must match the
pinned exact value, and the printed value must be that value truncated and
not rounded, so the erratum list cannot grow past the actual disagreement.
"""

import math
import os
import time

import mpmath
import numpy as np
import pytest

from centilebench.cli import main
from centilebench.experiment import (
    ExperimentConfig,
    run_both_experiments,
    run_drift_report,
    run_marginal_experiment,
)
from centilebench.model import (
    LognormalAR1Model,
    PercentilePath,
    conditional_percentile,
    drift_conditional_ranks,
    marginal_percentile,
)
from centilebench.mvn import fit_mvn
from centilebench.lms import fit_ar1_z, fit_lms, zscore_pairs
from centilebench.numerics import RngStream
from centilebench.quantreg import fit_marginal_qr, predict_centile
from centilebench.screening import (
    ScreeningConfig,
    ShiftMode,
    absolute_shift_report,
    required_difference,
    run_screening_report,
    sensitivity_closed_form,
)
from centilebench.splines import SplineSpec

from conftest import monte_carlo_screen, summary_cell, true_log_mean

WORKERS = min(4, os.cpu_count() or 1)

TAUS = (0.03, 0.10, 0.50, 0.90, 0.97)
WEEKS = (20.0, 24.0, 28.0, 32.0)

# Published values reproduced by the experiment.
TABLE1_SD = {
    ("QR", 20.0): (0.49, 0.37, 0.31, 0.47, 0.71),
    ("LMS", 20.0): (0.40, 0.30, 0.28, 0.39, 0.57),
    ("MVN", 20.0): (0.25, 0.23, 0.23, 0.29, 0.35),
    ("QR", 24.0): (0.43, 0.33, 0.27, 0.43, 0.64),
    ("LMS", 24.0): (0.36, 0.28, 0.25, 0.37, 0.53),
    ("MVN", 24.0): (0.24, 0.23, 0.23, 0.29, 0.34),
    ("QR", 28.0): (0.41, 0.33, 0.28, 0.42, 0.62),
    ("LMS", 28.0): (0.35, 0.28, 0.25, 0.36, 0.52),
    ("MVN", 28.0): (0.24, 0.23, 0.23, 0.29, 0.34),
    ("QR", 32.0): (0.50, 0.38, 0.32, 0.50, 0.78),
    ("LMS", 32.0): (0.42, 0.32, 0.28, 0.41, 0.62),
    ("MVN", 32.0): (0.26, 0.24, 0.24, 0.30, 0.36),
}
TABLE2 = {
    ("QR", "A"): ((52.8, 0.57), (55.5, 0.42), (61.5, 0.33), (68.3, 0.51), (71.8, 0.79)),
    ("LMS", "A"): ((52.5, 0.55), (55.1, 0.43), (61.0, 0.33), (67.6, 0.37), (70.9, 0.41)),
    ("MVN", "A"): ((52.5, 0.19), (55.1, 0.20), (61.0, 0.22), (67.6, 0.27), (70.9, 0.31)),
    ("QR", "B"): ((65.3, 0.61), (68.7, 0.46), (76.2, 0.37), (84.5, 0.57), (88.6, 0.91)),
    ("LMS", "B"): ((65.8, 0.38), (69.0, 0.40), (76.4, 0.44), (84.7, 0.67), (88.8, 0.91)),
    ("MVN", "B"): ((65.8, 0.29), (69.0, 0.29), (76.4, 0.28), (84.7, 0.30), (88.9, 0.32)),
}
TABLE2_TRUE = {"A": (52.5, 55.1, 61.0, 67.6, 70.9), "B": (65.8, 69.0, 76.4, 84.7, 88.8)}
# Cells of TABLE2_TRUE printed as the exact value truncated, not rounded, to
# 0.1 mmHg: (path, tau) -> exact value to three decimals.
TABLE2_TRUE_ERRATA = {("B", 0.50): 76.467, ("B", 0.97): 88.884}


def mp_percentile(t: float, tau: float, prior_tau: float | None = None) -> float:
    """mpmath oracle for a percentile of the study model, in mmHg.

    Marginal at week t, or, given ``prior_tau``, conditional on the value in
    the adjacent prior interval sitting at that marginal percentile:
    exp(mu(t) + rho*z_prior*sigma + z_tau*sigma*sqrt(1 - rho^2)). Uses the
    coefficients of ``true_log_mean`` and quantiles from ``mpmath.erfinv`` at
    40 digits, sharing no code with the package.
    """
    with mpmath.workdps(40):
        c0, c2, c3 = mpmath.mpf("4.247"), mpmath.mpf("-0.019"), mpmath.mpf("0.006")
        sigma, rho = mpmath.mpf("0.1"), mpmath.mpf("0.6")

        def z(p):
            return mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)

        s = mpmath.mpf(t) / 10
        mu = c0 + c2 * s**2 + c3 * s**3
        if prior_tau is None:
            return float(mpmath.exp(mu + z(tau) * sigma))
        sigma_cond = sigma * mpmath.sqrt(1 - rho**2)
        return float(mpmath.exp(mu + rho * z(prior_tau) * sigma + z(tau) * sigma_cond))


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")


@pytest.fixture(scope="session")
def full_run():
    cfg = ExperimentConfig(workers=WORKERS)
    start = time.perf_counter()
    marg, cond = run_both_experiments(cfg, keep_replicates=True)
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 2 run: {cfg.n_reps} reps x {cfg.n_subjects} subjects, "
          f"{WORKERS} workers, {elapsed:.0f} s]")
    return marg, cond, elapsed


@pytest.fixture(scope="session")
def desk_run():
    cfg = ExperimentConfig(n_reps=100, workers=WORKERS)
    start = time.perf_counter()
    marg = run_marginal_experiment(cfg)
    return marg, time.perf_counter() - start


class TestCriterion1AnalyticTruth:
    def test_1a_marginal_truth(self, model):
        errs = []
        for tau, want in ((0.03, 56.3), (0.97, 82.0)):
            got = marginal_percentile(model, 22.0, tau)
            if abs(got - want) > 0.05:
                errs.append(f"tau={tau}: {got:.3f} vs {want}")
        report("1a marginal percentiles (56.3 / 82.0 +-0.05)", not errs, "; ".join(errs))
        assert not errs

    def test_1b_conditional_truth_table(self, model):
        errs = []
        for path_name, prior_tau in (("A", 0.03), ("B", 0.97)):
            y_prev = mp_percentile(22.0, prior_tau)
            for tau, published in zip(TAUS, TABLE2_TRUE[path_name]):
                cell = f"{path_name}/tau={tau}"
                got = conditional_percentile(model, 22.0, 26.0, y_prev, tau)
                exact = mp_percentile(26.0, tau, prior_tau)
                if abs(got / exact - 1.0) > 1e-10:
                    errs.append(f"{cell}: {got!r} vs oracle {exact!r}")
                pinned = TABLE2_TRUE_ERRATA.get((path_name, tau))
                if pinned is None:
                    if abs(got - published) > 0.05:
                        errs.append(f"{cell}: {got:.3f} vs published {published}")
                    continue
                if abs(got - pinned) > 0.0005:
                    errs.append(f"{cell}: {got:.4f} vs erratum value {pinned}")
                if published != math.floor(exact * 10.0) / 10.0:
                    errs.append(f"{cell}: published {published} is not {exact:.3f} truncated")
                if published == round(exact, 1):
                    errs.append(f"{cell}: published {published} is {exact:.3f} rounded, not an erratum")
        report(
            "1b conditional truth table (oracle 1e-10, published +-0.05, "
            "erratum B/50th 76.467 and B/97th 88.884 truncated in print)",
            not errs,
            "; ".join(errs),
        )
        assert not errs, (
            "conditional truth disagrees with the mpmath oracle, the published "
            f"row or its erratum: {errs}"
        )

    def test_1c_drift_scenarios(self, model):
        c_ranks = drift_conditional_ranks(
            model, PercentilePath((18.0, 22.0, 26.0, 30.0), (0.60, 0.70, 0.80, 0.90))
        )
        d_ranks = drift_conditional_ranks(
            model,
            PercentilePath((18.0, 22.0, 26.0, 30.0, 34.0), (0.50, 0.50, 0.80, 0.80, 0.80)),
        )
        ok_c = np.allclose(c_ranks, (0.68, 0.74, 0.83), atol=0.005)
        ok_d = np.allclose(d_ranks, (0.50, 0.85, 0.66, 0.66), atol=0.005)
        report(
            "1c drift scenarios C and D (+-0.005)",
            ok_c and ok_d,
            f"C={np.round(c_ranks, 4)}, D={np.round(d_ranks, 4)}",
        )
        assert ok_c and ok_d

    def test_1d_screening_headlines(self, model):
        d_onset = required_difference(0.9, 0.9, 0.1, 0.6, ShiftMode.ONSET_AT_SCREEN)
        d_const = required_difference(0.9, 0.9, 0.1, 0.6, ShiftMode.CONSTANT_SHIFT)
        abs_diff, sd_units = absolute_shift_report(model, 26.0, 0.2276)
        checks = [
            ("d_onset", d_onset, 0.2276, 0.001),
            ("d_constant", d_const, 0.6696, 0.002),
            ("abs_diff", abs_diff, 15.6, 0.1),
            ("sd_units", sd_units, 2.3, 0.05),
        ]
        errs = [
            f"{name}: {got:.4f} vs {want}"
            for name, got, want, tol in checks
            if abs(got - want) > tol
        ]
        report("1d screening headline numbers", not errs, "; ".join(errs))
        assert not errs

    def test_1_runtime_under_one_second(self, model):
        start = time.perf_counter()
        marginal_percentile(model, 22.0, 0.03)
        marginal_percentile(model, 22.0, 0.97)
        for path_name, prior_tau in (("A", 0.03), ("B", 0.97)):
            y_prev = marginal_percentile(model, 22.0, prior_tau)
            for tau in TAUS:
                conditional_percentile(model, 22.0, 26.0, y_prev, tau)
        run_drift_report(model)
        run_screening_report(model)
        elapsed = time.perf_counter() - start
        report("1 analytic suite runtime < 1 s", elapsed < 1.0, f"{elapsed * 1e3:.1f} ms")
        assert elapsed < 1.0


class TestCriterion2FullScale:
    def test_2_table1_sd_cells(self, full_run):
        marg, _, _ = full_run
        errs = []
        for (method, week), sds in TABLE1_SD.items():
            for tau, want in zip(TAUS, sds):
                got = summary_cell(marg, method, week, tau).sd_mmhg
                rel = (got - want) / want
                if abs(rel) > 0.20:
                    errs.append(f"{method}/wk{week:.0f}/tau={tau}: {got:.3f} vs {want} ({rel:+.0%})")
        report("2 Table-1 SD cells within +-20%", not errs, "; ".join(errs[:6]))
        assert not errs

    def test_2_table2_means_and_sds(self, full_run):
        _, cond, _ = full_run
        mean_errs, sd_errs = [], []
        for (method, path), cells in TABLE2.items():
            for tau, (want_mean, want_sd) in zip(TAUS, cells):
                row = summary_cell(cond, method, 26.0, tau, path)
                if abs(row.mean_mmhg - want_mean) > 0.3:
                    mean_errs.append(
                        f"{method}/{path}/tau={tau}: {row.mean_mmhg:.2f} vs {want_mean}"
                    )
                rel = (row.sd_mmhg - want_sd) / want_sd
                if abs(rel) > 0.25:
                    sd_errs.append(
                        f"{method}/{path}/tau={tau}: sd {row.sd_mmhg:.3f} vs {want_sd} ({rel:+.0%})"
                    )
        report("2 Table-2 means within +-0.3 mmHg", not mean_errs, "; ".join(mean_errs[:6]))
        report("2 Table-2 SDs within +-25%", not sd_errs, "; ".join(sd_errs[:6]))
        assert not mean_errs and not sd_errs

    def test_2_qr_bias_signature(self, full_run):
        _, cond, _ = full_run
        bias_a = summary_cell(cond, "QR", 26.0, 0.03, "A").mean_mmhg - 52.5
        bias_b = summary_cell(cond, "QR", 26.0, 0.03, "B").mean_mmhg - 65.8
        ok = 0.15 <= bias_a <= 0.5 and -0.8 <= bias_b <= -0.2
        report(
            "2 QR conditional bias signature",
            ok,
            f"path A {bias_a:+.3f} (need +0.15..+0.5), path B {bias_b:+.3f} (need -0.8..-0.2)",
        )
        assert ok

    def test_2_half_split_consistency(self, full_run):
        marg, _, _ = full_run
        worst = 0.0
        for values in marg.replicates.values():
            half = values.size // 2
            s1 = float(np.std(values[:half], ddof=1))
            s2 = float(np.std(values[half:], ddof=1))
            pooled = float(np.std(values, ddof=1))
            se_diff = pooled * math.sqrt(1.0 / (half - 1))
            worst = max(worst, abs(s1 - s2) / se_diff)
        report("2 SD half-split consistency (< 3 SE)", worst < 3.0, f"worst {worst:.2f} SE")
        assert worst < 3.0

    def test_2_runtime_target(self, full_run):
        _, _, elapsed = full_run
        report("2 runtime target <= 15 min", elapsed <= 900.0, f"{elapsed:.0f} s")
        assert elapsed <= 900.0


class TestCriterion3DeskScale:
    def test_3_mvn_sds_and_ordering(self, desk_run):
        marg, elapsed = desk_run
        mvn_errs = []
        for week in WEEKS:
            for tau, want in zip(TAUS, TABLE1_SD[("MVN", week)]):
                got = summary_cell(marg, "MVN", week, tau).sd_mmhg
                if abs((got - want) / want) > 0.30:
                    mvn_errs.append(f"wk{week:.0f}/tau={tau}: {got:.3f} vs {want}")
        ordered = 0
        for week in WEEKS:
            for tau in TAUS:
                sd = {
                    m: summary_cell(marg, m, week, tau).sd_mmhg for m in ("QR", "LMS", "MVN")
                }
                ordered += sd["MVN"] < sd["LMS"] < sd["QR"]
        ok = not mvn_errs and ordered >= 18 and elapsed <= 180.0
        report(
            "3 desk-scale smoke (MVN +-30%, ordering >= 18/20, <= 3 min)",
            ok,
            f"ordering {ordered}/20, {elapsed:.0f} s" + ("; " + "; ".join(mvn_errs[:4]) if mvn_errs else ""),
        )
        assert not mvn_errs
        assert ordered >= 18
        assert elapsed <= 180.0


class TestCriterion4TruthRecovery:
    def test_4_estimator_recovery(self, recovery_cohort, spec5, model):
        mvn = fit_mvn(recovery_cohort, spec5)
        lms = fit_lms(*recovery_cohort.observed_points(), spec5)
        rho_lms = fit_ar1_z(*zscore_pairs(lms, recovery_cohort.pair_set(max_gap=1)))
        t, y = recovery_cohort.observed_points()
        qr = fit_marginal_qr(t, y, 0.5, spec5)
        grid = np.linspace(18.0, 34.0, 161)
        qr_err = float(np.max(np.abs(predict_centile(qr, grid) - np.exp(true_log_mean(grid)))))
        checks = [
            ("MVN rho", abs(mvn.rho_hat - 0.6) <= 0.05, f"{mvn.rho_hat:.4f}"),
            ("MVN sigma", abs(mvn.sigma_hat - 0.1) <= 0.005, f"{mvn.sigma_hat:.5f}"),
            ("LMS rho", abs(rho_lms - 0.6) <= 0.05, f"{rho_lms:.4f}"),
            ("QR median curve", qr_err <= 0.6, f"max err {qr_err:.3f} mmHg"),
        ]
        ok = all(c[1] for c in checks)
        report(
            "4 estimator truth recovery",
            ok,
            ", ".join(f"{name} {detail}" for name, _, detail in checks),
        )
        assert ok


class TestCriterion5OracleEquivalence:
    def test_5_intercept_only_median(self):
        spec = SplineSpec(degree=0, n_basis=1)
        rng = np.random.default_rng(777)
        bad = 0
        for _ in range(200):
            n = int(2 * rng.integers(3, 60) + 1)
            y = rng.normal(loc=70.0, scale=8.0, size=n)
            fit = fit_marginal_qr(np.full(n, 26.0), y, 0.5, spec)
            if abs(predict_centile(fit, 26.0) - float(np.median(y))) > 1e-8:
                bad += 1
        report("5 intercept-only QR equals sample median (200 runs)", bad == 0, f"{bad} mismatches")
        assert bad == 0

    def test_5_subgradient_property_all_fits(self, full_run):
        marg, cond, _ = full_run
        violations = marg.diagnostics["qr_subgradient_violations"]
        report("5 subgradient optimality on every criterion-2 fit", violations == 0,
               f"{violations} violations, {marg.diagnostics['qr_lp_fallbacks']} LP fallbacks")
        assert violations == 0
        assert cond.diagnostics["qr_subgradient_violations"] == 0


class TestCriterion6ScreeningCrossCheck:
    COMBOS = (
        (0.2276, 0.6, 0.9, ShiftMode.ONSET_AT_SCREEN),
        (0.6696, 0.6, 0.9, ShiftMode.CONSTANT_SHIFT),
        (0.10, 0.6, 0.8, ShiftMode.ONSET_AT_SCREEN),
        (0.30, 0.3, 0.9, ShiftMode.CONSTANT_SHIFT),
        (0.15, 0.0, 0.85, ShiftMode.ONSET_AT_SCREEN),
        (0.50, 0.8, 0.95, ShiftMode.CONSTANT_SHIFT),
    )
    # Exact counts of screened-positive diseased and screened-negative normal
    # subjects, of 50 000 per arm, for each combination. They pin the streams
    # the oracle draws, so a change to its draws cannot pass unseen.
    SENSITIVITY_COUNTS = (45075, 44947, 31877, 36987, 31798, 19186)
    SPECIFICITY_COUNTS = (44912, 45183, 40113, 45005, 42545, 47423)

    @pytest.fixture(scope="class")
    def screens(self):
        return [
            monte_carlo_screen(
                LognormalAR1Model(rho=rho), d, mode, [3], x, 50_000,
                RngStream(9000 + i).child(0),
            )
            for i, (d, rho, x, mode) in enumerate(self.COMBOS)
        ]

    @pytest.fixture(scope="class")
    def repeated_screen(self):
        return monte_carlo_screen(
            LognormalAR1Model(), 0.0, ShiftMode.ONSET_AT_SCREEN, [2, 3, 4], 0.9, 50_000,
            RngStream(9100).child(0),
        )

    def test_6_counts_pinned(self, screens, repeated_screen):
        counts = [(s.sensitivity * 50_000, s.specificity * 50_000) for s in screens]
        assert counts == list(zip(self.SENSITIVITY_COUNTS, self.SPECIFICITY_COUNTS))
        assert repeated_screen.specificity == 0.72792

    def test_6_monte_carlo_matches_closed_form(self, screens):
        errs = []
        for (d, rho, x, mode), got in zip(self.COMBOS, screens):
            want = sensitivity_closed_form(
                ScreeningConfig(d=d, sigma=0.1, rho=rho, specificity=x, mode=mode)
            )
            if abs(got.sensitivity - want) > 0.01:
                errs.append(f"{mode.value} d={d} rho={rho}: {got.sensitivity:.4f} vs {want:.4f}")
            if abs(got.specificity - x) > 0.01:
                errs.append(f"{mode.value} d={d} rho={rho}: spec {got.specificity:.4f} vs {x}")
        report("6 Monte Carlo vs closed form (6 combos, +-0.01)", not errs, "; ".join(errs))
        assert not errs

    def test_6_repeated_screening_directionality(self, repeated_screen):
        result = repeated_screen
        drop = 0.9 - result.specificity
        ok = drop > result.ci_halfwidth
        report(
            "6 repeated screening drops specificity beyond CI",
            ok,
            f"specificity {result.specificity:.4f} vs 0.9 (ci {result.ci_halfwidth:.4f})",
        )
        assert ok


class TestCriterion7Determinism:
    def test_7_byte_identical_runs(self, tmp_path):
        args = ["table2", "--reps", "50", "--seed", "42"]
        out = [tmp_path / f"run{i}.csv" for i in range(3)]
        assert main(args + ["--workers", "1", "--out", str(out[0])]) == 0
        assert main(args + ["--workers", "1", "--out", str(out[1])]) == 0
        assert main(args + ["--workers", "8", "--out", str(out[2])]) == 0
        same_run = out[0].read_bytes() == out[1].read_bytes()
        same_parallel = out[0].read_bytes() == out[2].read_bytes()
        report("7 determinism (repeat + 8-worker parallel byte-identical)",
               same_run and same_parallel,
               f"repeat={same_run}, parallel={same_parallel}")
        assert same_run
        assert same_parallel

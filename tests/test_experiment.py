import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import centilebench
from centilebench import experiment, lms, mvn, quantreg, splines
from centilebench.cli import build_config, main
from centilebench.cohort import VisitSchedule, generate_cohort
from centilebench.errors import ExperimentError, FitError
from centilebench.experiment import (
    DRIFT_SCENARIOS,
    ExperimentConfig,
    emit_true_centiles,
    run_both_experiments,
    run_conditional_experiment,
    run_drift_report,
    run_marginal_experiment,
    run_metadata,
)
from centilebench.lms import (
    fit_ar1_z,
    fit_lms,
    lms_centile,
    lms_conditional_centile,
    zscore_pairs,
)
from centilebench.model import GA_WINDOW, marginal_percentile
from centilebench.mvn import fit_mvn, mvn_conditional_centile, mvn_marginal_centile
from centilebench.numerics import RngStream
from centilebench.quantreg import fit_conditional_qr, fit_marginal_qr, predict_centile
from centilebench.screening import run_screening_report
from centilebench.splines import SplineSpec

from conftest import summary_cell, true_log_mean

TINY = dict(n_reps=4, n_subjects=150, master_seed=314)
# The evaluation cells of Tables 1 and 2, fixed on the class.
FIXED_CELLS = ("tau_grid", "eval_weeks_marginal", "eval_week_conditional", "prior_week", "paths")


@pytest.fixture(scope="module")
def tiny_run():
    cfg = ExperimentConfig(**TINY)
    return run_both_experiments(cfg, keep_replicates=True)


class TestConfig:
    def test_defaults_match_study_design(self):
        cfg = ExperimentConfig()
        assert cfg.n_reps == 500
        assert cfg.n_subjects == 1000
        assert cfg.tau_grid == (0.03, 0.10, 0.50, 0.90, 0.97)
        assert cfg.eval_weeks_marginal == (20.0, 24.0, 28.0, 32.0)
        assert cfg.eval_week_conditional == 26.0
        assert cfg.prior_week == 22.0
        assert dict(cfg.paths) == {"A": 0.03, "B": 0.97}

    def test_prior_values_are_exact_percentiles(self, model):
        cfg = ExperimentConfig()
        priors = cfg.prior_values()
        assert priors["A"] == pytest.approx(marginal_percentile(model, 22.0, 0.03), rel=1e-14)
        assert priors["B"] == pytest.approx(82.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("QR", "GAM"))

    def test_qr_pairs_are_successive(self):
        # QR's conditional fits take every consecutive pair of observed
        # visits; the mode is fixed and not a config setting.
        assert ExperimentConfig().qr_pair_mode == "successive"
        with pytest.raises(TypeError):
            ExperimentConfig(qr_pair_mode="adjacent")

    def test_empty_methods_rejected(self):
        # No methods used to write empty tables.
        with pytest.raises(ValueError, match="^methods must be nonempty"):
            ExperimentConfig(methods=())

    def test_duplicate_methods_rejected(self):
        with pytest.raises(ValueError, match="duplicate methods"):
            ExperimentConfig(methods=("QR", "MVN", "QR"))

    def test_describe_is_jsonable_and_stable(self):
        cfg = ExperimentConfig(**TINY)
        echo = json.dumps(cfg.describe(), sort_keys=True)
        assert json.dumps(cfg.describe(), sort_keys=True) == echo
        assert "workers" not in cfg.describe()

    def test_describe_echoes_every_design_field(self):
        cfg = ExperimentConfig(**TINY, workers=2, spline=SplineSpec(n_basis=6))
        echo = cfg.describe()

        def as_json(value):
            return json.loads(json.dumps(value))

        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(echo) == (fields - {"workers"}) | set(FIXED_CELLS) | {"qr_pair_mode"}
        assert echo["qr_pair_mode"] == "successive"
        assert echo["paths"] == {"A": 0.03, "B": 0.97}
        for name in (fields - {"workers", "model", "schedule", "spline"}) | (
            set(FIXED_CELLS) - {"paths"}
        ):
            assert echo[name] == as_json(getattr(cfg, name)), name
        assert echo["model"] == {
            f.name: as_json(getattr(cfg.model, f.name)) for f in dataclasses.fields(cfg.model)
        }
        # The schedule section is its fields plus the fixed windows.
        assert echo["schedule"] == {
            **{f.name: as_json(getattr(cfg.schedule, f.name))
               for f in dataclasses.fields(cfg.schedule)},
            "windows": as_json(VisitSchedule.windows),
        }
        # The spline section is its fields plus the full knot vector.
        spline_fields = {f.name for f in dataclasses.fields(SplineSpec)}
        assert set(echo["spline"]) == spline_fields | {"knots"}
        assert echo["spline"] == {
            **{name: getattr(cfg.spline, name) for name in spline_fields},
            "knots": list(cfg.spline.knots),
        }
        assert echo["spline"]["n_basis"] == 6

    @pytest.mark.parametrize("field", ["n_reps", "n_subjects", "workers", "master_seed"])
    def test_counts_and_seed_must_be_integers(self, field):
        # int() would truncate a fractional seed into another stream, and a
        # fractional count would fail inside the run.
        for bad in (2.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                ExperimentConfig(**{field: bad})
        value = getattr(ExperimentConfig(**{field: np.int64(2)}), field)
        assert value == 2 and type(value) is int

    def test_master_seed_range(self):
        # Out of range, it would fail only inside the first replication.
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match="^master_seed must be an unsigned 64-bit"):
                ExperimentConfig(master_seed=bad)
        for good in (0, 2**64 - 1):
            assert ExperimentConfig(master_seed=good).master_seed == good


class TestFixedCells:
    def test_only_the_design_settings_are_fields(self):
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "n_reps", "n_subjects", "master_seed", "methods", "workers",
            "model", "schedule", "spline",
        ]

    def test_cells_hold_the_guarded_properties(self):
        cfg = ExperimentConfig
        # Each value names summary rows, so a repeat would merge two rows.
        assert all(0.0 < tau < 1.0 for tau in cfg.tau_grid)
        assert len(set(cfg.tau_grid)) == len(cfg.tau_grid)
        lo, hi = GA_WINDOW
        weeks = cfg.eval_weeks_marginal
        assert len(set(weeks)) == len(weeks)
        assert all(lo <= week <= hi for week in weeks)
        # QR predicts its conditional cells at the gap between the two weeks,
        # and the LMS and MVN conditional centiles chain one interval's
        # correlation.
        assert lo <= cfg.prior_week < cfg.eval_week_conditional <= hi
        VisitSchedule.check_adjacent(cfg.prior_week, cfg.eval_week_conditional)
        # The empty path marks marginal rows.
        names = [name for name, _ in cfg.paths]
        assert "" not in names and len(set(names)) == len(names)
        assert all(0.0 < rank < 1.0 for _, rank in cfg.paths)
        # Floats, so the rows and the config echo print 26.0, not 26.
        numbers = (
            *cfg.tau_grid, *weeks, cfg.prior_week, cfg.eval_week_conditional,
            *(rank for _, rank in cfg.paths),
        )
        assert all(type(value) is float for value in numbers)

    @pytest.mark.parametrize("key", FIXED_CELLS)
    def test_cell_is_not_a_config_key(self, tmp_path, key):
        # Even the study's own value, which the metadata echoes, is refused.
        value = getattr(ExperimentConfig, key)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--config", str(cfg_file), "--reps", "1"])
        assert str(exc.value) == f"unknown config keys: ['{key}']"
        with pytest.raises(TypeError):
            ExperimentConfig(**{key: value})


class TestRunStructure:
    def test_row_grid_complete(self, tiny_run):
        marg, cond = tiny_run
        assert len(marg.rows) == 3 * 4 * 5
        assert len(cond.rows) == 3 * 2 * 5
        assert all(r.n_reps == 4 for r in marg.rows)
        assert all(r.sd_mmhg >= 0.0 for r in marg.rows)
        assert all(r.path == "" for r in marg.rows)
        assert {r.path for r in cond.rows} == {"A", "B"}

    def test_estimates_near_truth(self, tiny_run, model):
        marg, _ = tiny_run
        for row in marg.rows:
            truth = marginal_percentile(model, row.week, row.tau)
            assert abs(row.mean_mmhg - truth) < 3.0

    def test_diagnostics_recorded(self, tiny_run):
        marg, cond = tiny_run
        assert marg.diagnostics["qr_subgradient_violations"] == 0
        assert marg.diagnostics["n_failed_replications"] == 0
        assert marg.diagnostics["qr_crossing_grid_points_mean"] >= 0.0
        assert cond.diagnostics["n_pairs_successive_mean"] > cond.diagnostics[
            "n_pairs_adjacent_mean"
        ]
        assert 0.3 < cond.diagnostics["lms_rho_hat_mean"] < 0.9
        assert 0.3 < cond.diagnostics["mvn_rho_hat_mean"] < 0.9

    def test_replicates_kept_on_request(self, tiny_run):
        marg, _ = tiny_run
        values = marg.replicates[("MVN", 24.0, 0.5, "")]
        assert values.shape == (4,)
        row = summary_cell(marg, "MVN", 24.0, 0.5)
        assert row.mean_mmhg == pytest.approx(float(values.mean()), rel=1e-15)

    def test_metadata_contents(self, tiny_run):
        # The summaries carry no metadata: the CLI adds run_metadata once.
        marg, cond = tiny_run
        assert "metadata" not in marg.to_payload()
        assert "metadata" not in cond.to_payload()
        metadata = run_metadata(ExperimentConfig(**TINY))
        assert metadata["prng"].startswith("numpy PCG64")
        assert metadata["knots"] == [16.0] * 4 + [26.0] + [36.0] * 4
        assert metadata["config"]["n_reps"] == 4

    def test_lms_newton_steps_totalled(self, tiny_run):
        cfg = ExperimentConfig(**TINY)
        steps = 0
        for rep in range(cfg.n_reps):
            stream = RngStream(cfg.master_seed).child(rep)
            cohort = generate_cohort(cfg.model, cfg.schedule, cfg.n_subjects, stream)
            steps += fit_lms(*cohort.observed_points(), cfg.spline).newton_steps
        for summary in tiny_run:
            assert summary.diagnostics["lms_newton_steps"] == steps >= cfg.n_reps


def _scalar_cells(cfg: ExperimentConfig, rep: int) -> dict:
    """Every cell of one replication through the public scalar functions."""
    cohort = generate_cohort(
        cfg.model, cfg.schedule, cfg.n_subjects, RngStream(cfg.master_seed).child(rep)
    )
    t, y = cohort.observed_points()
    pairs_qr = cohort.pair_set(max_gap=None)
    week_p, week_c = cfg.prior_week, cfg.eval_week_conditional
    priors = cfg.prior_values()
    lms_fit = fit_lms(t, y, cfg.spline)
    rho_hat = fit_ar1_z(*zscore_pairs(lms_fit, cohort.pair_set(max_gap=1)))
    mvn_fit = fit_mvn(cohort, cfg.spline)
    cells = {}
    for tau in cfg.tau_grid:
        qr_marg = fit_marginal_qr(t, y, tau, cfg.spline)
        qr_cond = fit_conditional_qr(pairs_qr, tau, cfg.spline)
        for week in cfg.eval_weeks_marginal:
            cells[("QR", week, tau, "")] = predict_centile(qr_marg, week)
            cells[("LMS", week, tau, "")] = lms_centile(lms_fit, week, tau)
            cells[("MVN", week, tau, "")] = mvn_marginal_centile(mvn_fit, week, tau)
        for name, y_prev in priors.items():
            cells[("QR", week_c, tau, name)] = predict_centile(
                qr_cond, week_c, y_prev=y_prev, dt=week_c - week_p
            )
            cells[("LMS", week_c, tau, name)] = lms_conditional_centile(
                lms_fit, rho_hat, week_p, y_prev, week_c, tau
            )
            cells[("MVN", week_c, tau, name)] = mvn_conditional_centile(
                mvn_fit, week_p, y_prev, week_c, tau
            )
    return cells


class TestCellGrid:
    @pytest.mark.parametrize(
        "design",
        [
            dict(master_seed=11),
            dict(master_seed=12),
            dict(master_seed=13),
        ],
    )
    def test_cells_equal_scalar_calls(self, design):
        cfg = ExperimentConfig(n_reps=1, n_subjects=300, **design)
        cells = experiment._replication(cfg, True, True, 0)["cells"]
        want = _scalar_cells(cfg, 0)
        assert len(want) == 3 * (4 + 2) * 5
        assert {k: v.hex() for k, v in cells.items()} == {k: v.hex() for k, v in want.items()}

    def test_failed_conditional_fit_drops_every_cell_of_its_method(self, monkeypatch):
        # 50 replications leave room for one failure in the 2% budget.
        cfg = ExperimentConfig(**dict(TINY, n_reps=50))
        n_tau = len(cfg.tau_grid)
        real = experiment.fit_conditional_qr
        fits = []

        def recording(*args, **kwargs):
            grid = real(*args, **kwargs)
            fits.extend(grid)
            return grid

        monkeypatch.setattr(experiment, "fit_conditional_qr", recording)
        clean = run_both_experiments(cfg, keep_replicates=True)
        # Replication 1's conditional QR grid call fails, so none of its
        # fits is counted, not even those it had finished before failing.
        lost = fits[n_tau : 2 * n_tau]
        expected_diag = dict(clean[0].diagnostics, n_failed_replications=1)
        expected_diag["qr_ipm_steps"] -= sum(f.ipm_steps for f in lost)
        expected_diag["qr_pivots"] -= sum(f.pivots for f in lost)
        expected_diag["qr_lp_fallbacks"] -= sum(f.solver == "lp" for f in lost)
        expected_diag["qr_pfn_fallbacks"] -= sum(f.pfn_fallback for f in lost)
        expected_diag["qr_subgradient_violations"] -= sum(not f.subgradient_ok for f in lost)

        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise FitError("injected")
            return real(*args, **kwargs)

        solve = quantreg._solve_check_loss
        conditional_solves = []

        def failing_third_level(design, tau):
            if design.X.shape[1] > cfg.spline.n_basis:
                conditional_solves.append(tau)
                if len(conditional_solves) == n_tau + 3:
                    raise FitError("injected")
            return solve(design, tau)

        # The call fails before its first fit, or at its third tau level.
        monkeypatch.setattr(experiment, "fit_conditional_qr", failing)
        failures = [run_both_experiments(cfg, keep_replicates=True)]
        monkeypatch.setattr(experiment, "fit_conditional_qr", real)
        monkeypatch.setattr(quantreg, "_solve_check_loss", failing_third_level)
        failures.append(run_both_experiments(cfg, keep_replicates=True))
        # Replication 1 solved two levels before the third failed, and
        # their pivots are not counted.
        assert conditional_solves[n_tau : n_tau + 3] == list(cfg.tau_grid[:3])
        assert all(f.solver == "pivot" and f.pivots > 0 for f in lost[:2])

        for failed in failures:
            for before, after in zip(clean, failed):
                assert after.failures == (
                    {"rep": 1, "method": "QR", "error": "FitError: injected"},
                )
                assert after.diagnostics == expected_diag
                assert after.replicates.keys() == before.replicates.keys()
                for key, values in before.replicates.items():
                    if key[0] == "QR":
                        values = np.delete(values, 1)
                    assert np.array_equal(after.replicates[key], values)
                assert [r.n_reps for r in after.rows] == [
                    cfg.n_reps - (r.method == "QR") for r in before.rows
                ]

    def test_basis_built_at_most_12_times(self, monkeypatch):
        calls = []
        real = splines.design_matrix

        def counted(spec, times):
            calls.append(np.size(times))
            return real(spec, times)

        for module in (experiment, splines, quantreg, lms, mvn):
            monkeypatch.setattr(module, "design_matrix", counted)
        cfg = ExperimentConfig()
        experiment._replication(cfg, True, True, 0)
        cohort = generate_cohort(
            cfg.model, cfg.schedule, cfg.n_subjects, RngStream(cfg.master_seed).child(0)
        )
        # One basis of the observed times serves every fit and both pair
        # sets; the others are evaluation grids of a few weeks each.
        assert calls.count(int(cohort.observed.sum())) == 1
        assert len(calls) <= 12

    def test_basis_of_the_wrong_shape_is_refused(self):
        cfg = ExperimentConfig()
        cohort = generate_cohort(cfg.model, cfg.schedule, 200, RngStream(3).child(0))
        t, y = cohort.observed_points()
        spec = cfg.spline
        good = splines.design_matrix(spec, t)
        calls = [
            lambda b: fit_marginal_qr(t, y, 0.5, spec, basis=b),
            lambda b: fit_conditional_qr(cohort.pair_set(max_gap=None), 0.5, spec, basis=b),
            lambda b: fit_lms(t, y, spec, basis=b),
            lambda b: zscore_pairs(fit_lms(t, y, spec), cohort.pair_set(max_gap=1), basis=b),
            lambda b: fit_mvn(cohort, spec, basis=b),
        ]
        for call in calls:
            call(good)
            for bad in (good[:-1], np.vstack([good, good[:1]]), good[:, :-1], good.ravel()):
                with pytest.raises(ValueError, match="basis must have shape"):
                    call(bad)


class TestDeterminism:
    def test_rerun_identical(self):
        cfg = ExperimentConfig(**TINY)
        a = run_conditional_experiment(cfg)
        b = run_conditional_experiment(cfg)
        assert a.rows == b.rows

    def test_parallel_equals_sequential(self):
        seq = run_marginal_experiment(ExperimentConfig(**TINY, workers=1))
        par = run_marginal_experiment(ExperimentConfig(**TINY, workers=2))
        assert seq.rows == par.rows
        assert seq.to_payload() == par.to_payload()

    @pytest.mark.parametrize("workers,n_reps,pools", [(64, 2, [2]), (2, 1, []), (3, 3, [3])])
    def test_no_more_workers_than_replications(self, monkeypatch, workers, n_reps, pools):
        # The pool forks all its workers at the first submit, so 64 workers
        # for 2 replications forked 62 idle processes.
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
        design = dict(TINY, n_reps=n_reps, methods=("MVN",))
        pooled = run_marginal_experiment(ExperimentConfig(**design, workers=workers))
        assert started == pools
        serial = run_marginal_experiment(ExperimentConfig(**design))
        assert pooled.to_payload() == serial.to_payload()

    def test_method_subset_does_not_disturb_others(self):
        full = run_marginal_experiment(ExperimentConfig(**TINY))
        part = run_marginal_experiment(ExperimentConfig(**TINY, methods=("LMS", "MVN")))
        for row in part.rows:
            twin = summary_cell(full, row.method, row.week, row.tau)
            assert row.mean_mmhg == twin.mean_mmhg
            assert row.sd_mmhg == twin.sd_mmhg


class TestImports:
    def test_study_does_not_load_scipy_optimize(self):
        # scipy.optimize costs about 20 MB of resident memory; only a QR fit
        # that falls back to the LP solver needs it.
        src = os.path.dirname(os.path.dirname(centilebench.__file__))
        code = (
            "import sys\n"
            "import centilebench\n"
            "from centilebench.experiment import ExperimentConfig, run_both_experiments\n"
            "marg, _ = run_both_experiments(ExperimentConfig(n_reps=1, n_subjects=200))\n"
            "assert marg.diagnostics['qr_lp_fallbacks'] == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_study_does_not_load_scipy_special(self):
        # scipy.special costs about 0.3 s of start-up; only the truth layer's
        # normal CDF needs it, and no study calls that.
        src = os.path.dirname(os.path.dirname(centilebench.__file__))
        code = (
            "import sys\n"
            "import centilebench\n"
            "from centilebench.experiment import ExperimentConfig, run_both_experiments\n"
            "run_both_experiments(ExperimentConfig(n_reps=1, n_subjects=200))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_study_does_not_load_screening(self):
        # Only the screening subcommand needs the screening module, so a study's
        # start-up does not load it.
        src = os.path.dirname(os.path.dirname(centilebench.__file__))
        code = "import sys, centilebench.experiment\nprint('centilebench.screening' in sys.modules)\n"
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=300, check=True,
        )
        assert out.stdout.strip() == "False"


class TestFailurePolicy:
    def test_budget_exceeded_raises(self):
        # 12 observations cannot support the LMS fit, so every rep fails
        cfg = ExperimentConfig(n_reps=3, n_subjects=3, master_seed=1, methods=("LMS",))
        with pytest.raises(ExperimentError):
            run_marginal_experiment(cfg)

    def test_programming_error_propagates(self, monkeypatch):
        # Only errors a fit raises on unfittable data are booked as failed
        # fits; a bug must surface, not spend the 2% budget.
        def broken(*args, **kwargs):
            raise TypeError("bug inside a fit")

        monkeypatch.setattr(experiment, "fit_mvn", broken)
        with pytest.raises(TypeError, match="bug inside a fit"):
            run_both_experiments(ExperimentConfig(**TINY))


class TestSolverDiagnostics:
    def test_lp_fallbacks_counted(self, monkeypatch):
        solvers = []

        def recording(fit_fn):
            def wrapped(*args, **kwargs):
                grid = fit_fn(*args, **kwargs)
                solvers.extend(fit.solver for fit in grid)
                return grid

            return wrapped

        for name in ("fit_marginal_qr", "fit_conditional_qr"):
            monkeypatch.setattr(experiment, name, recording(getattr(experiment, name)))
        # Refuse every vertex at the median, so those fits take the LP path.
        certify = quantreg._certified_vertex
        monkeypatch.setattr(
            quantreg,
            "_certified_vertex",
            lambda design, beta, tau, unique=False, basis=None: (
                None if tau == 0.5 else certify(design, beta, tau, unique, basis)
            ),
        )
        cfg = ExperimentConfig(**TINY, methods=("QR",))
        marg, cond = run_both_experiments(cfg)
        assert len(solvers) == 2 * len(cfg.tau_grid) * cfg.n_reps
        assert solvers.count("lp") == 2 * cfg.n_reps
        assert marg.diagnostics["qr_lp_fallbacks"] == solvers.count("lp")
        assert cond.diagnostics["qr_lp_fallbacks"] == solvers.count("lp")
        assert marg.diagnostics["qr_subgradient_violations"] == 0


class TestIpmSteps:
    def test_total_positive_and_worker_independent(self, monkeypatch):
        # Declined pivots leave every fit to the interior point; the pool's
        # workers are forked, so they decline too.
        monkeypatch.setattr(quantreg, "_pivot_vertex", lambda design, tau: (None, 0))
        cfg = dict(TINY, n_reps=3, methods=("QR",))
        serial, _ = run_both_experiments(ExperimentConfig(**cfg, workers=1))
        pooled, _ = run_both_experiments(ExperimentConfig(**cfg, workers=2))
        steps = serial.diagnostics["qr_ipm_steps"]
        assert isinstance(steps, int) and steps > 0
        assert pooled.diagnostics["qr_ipm_steps"] == steps

    def test_total_sums_fits(self, monkeypatch):
        fits = []

        def recording(fit_fn):
            def wrapped(*args, **kwargs):
                grid = fit_fn(*args, **kwargs)
                fits.extend(grid)
                return grid

            return wrapped

        for name in ("fit_marginal_qr", "fit_conditional_qr"):
            monkeypatch.setattr(experiment, name, recording(getattr(experiment, name)))
        marg, cond = run_both_experiments(ExperimentConfig(**TINY, methods=("QR",)))
        assert all(fit.ipm_steps > 0 for fit in fits if fit.solver == "ipm")
        assert marg.diagnostics["qr_ipm_steps"] == sum(fit.ipm_steps for fit in fits)
        assert cond.diagnostics["qr_ipm_steps"] == marg.diagnostics["qr_ipm_steps"]


class TestPivotCounter:
    def test_total_sums_fits_and_is_worker_independent(self, monkeypatch):
        fits = []

        def recording(fit_fn):
            def wrapped(*args, **kwargs):
                grid = fit_fn(*args, **kwargs)
                fits.extend(grid)
                return grid

            return wrapped

        for name in ("fit_marginal_qr", "fit_conditional_qr"):
            monkeypatch.setattr(experiment, name, recording(getattr(experiment, name)))
        cfg = dict(TINY, n_reps=3, methods=("QR",))
        serial, cond = run_both_experiments(ExperimentConfig(**cfg, workers=1))
        assert {fit.solver for fit in fits} == {"pivot"}
        pivots = serial.diagnostics["qr_pivots"]
        assert isinstance(pivots, int) and pivots == sum(fit.pivots for fit in fits) > 0
        assert cond.diagnostics["qr_pivots"] == pivots
        pooled, _ = run_both_experiments(ExperimentConfig(**cfg, workers=2))
        assert pooled.diagnostics == serial.diagnostics


# 2500 subjects give about 10 000 observations, above the QR preprocessing
# threshold, and about 7500 pairs, below it.
PFN_DESIGN = dict(n_reps=2, n_subjects=2500, master_seed=7, methods=("QR", "MVN"))


class TestCounters:
    def test_totals_worker_independent(self):
        serial, _ = run_both_experiments(ExperimentConfig(**PFN_DESIGN, workers=1))
        pooled, _ = run_both_experiments(ExperimentConfig(**PFN_DESIGN, workers=2))
        for key in ("qr_ipm_steps", "qr_pfn_fallbacks", "mvn_brent_evals"):
            assert isinstance(serial.diagnostics[key], int)
            assert pooled.diagnostics[key] == serial.diagnostics[key]
        assert serial.diagnostics["mvn_brent_evals"] > 0

    def test_totals_sum_fits(self, monkeypatch):
        qr_fits, mvn_fits = [], []

        def recording(fit_fn, into, grid=False):
            def wrapped(*args, **kwargs):
                fits = fit_fn(*args, **kwargs)
                into.extend(fits if grid else [fits])
                return fits

            return wrapped

        for name in ("fit_marginal_qr", "fit_conditional_qr"):
            monkeypatch.setattr(
                experiment, name, recording(getattr(experiment, name), qr_fits, grid=True)
            )
        monkeypatch.setattr(experiment, "fit_mvn", recording(experiment.fit_mvn, mvn_fits))
        # The preprocessing gives up at the median, so those fits of the
        # marginal design fall back to the full interior point.
        preprocess = quantreg._preprocessed_vertex
        monkeypatch.setattr(
            quantreg,
            "_preprocessed_vertex",
            lambda design, tau: (None, 0) if tau == 0.5 else preprocess(design, tau),
        )
        marg, cond = run_both_experiments(ExperimentConfig(**PFN_DESIGN))
        fallbacks = [fit for fit in qr_fits if fit.pfn_fallback]
        assert [(f.tau, f.conditional, f.solver) for f in fallbacks] == [(0.5, False, "ipm")] * 2
        assert {f.solver for f in qr_fits if not f.pfn_fallback} == {"pfn", "pivot"}
        assert marg.diagnostics["qr_pfn_fallbacks"] == 2
        assert marg.diagnostics["qr_pivots"] == sum(f.pivots for f in qr_fits) > 0
        assert marg.diagnostics["mvn_brent_evals"] == sum(f.brent_evals for f in mvn_fits)
        assert marg.diagnostics["qr_ipm_steps"] == sum(f.ipm_steps for f in qr_fits)
        assert cond.diagnostics == marg.diagnostics


class TestTrueCentiles:
    def test_week22_third_percentile(self, model):
        rows = emit_true_centiles(model, (0.03,), week_step=0.5)
        lookup = {(t, tau): v for t, tau, v in rows}
        assert lookup[(22.0, 0.03)] == pytest.approx(56.3, abs=0.05)

    def test_median_column_is_exp_mu(self, model):
        rows = emit_true_centiles(model, (0.5,), week_step=2.0)
        for t, _, v in rows:
            assert v == pytest.approx(math.exp(float(true_log_mean(t))), rel=1e-12)

    def test_monotone_in_tau(self, model):
        taus = (0.03, 0.10, 0.50, 0.90, 0.97)
        rows = emit_true_centiles(model, taus, week_step=1.0)
        by_week = {}
        for t, tau, v in rows:
            by_week.setdefault(t, []).append(v)
        for vals in by_week.values():
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_covers_window_inclusive(self, model):
        rows = emit_true_centiles(model, (0.5,), week_step=0.5)
        weeks = sorted({t for t, _, _ in rows})
        assert weeks[0] == 16.0 and weeks[-1] == 36.0
        assert len(weeks) == 41

    def test_step_validated(self, model):
        # An infinite step would write week 16 alone; NaN would fail inside numpy.
        for step in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="week_step must be finite and positive"):
                emit_true_centiles(model, (0.5,), week_step=step)


class TestReports:
    def test_drift_report_values(self, model):
        report = run_drift_report(model)
        by_name = {sc["scenario"]: sc for sc in report["scenarios"]}
        assert np.allclose(by_name["C"]["conditional_ranks"], [0.68, 0.74, 0.83], atol=0.005)
        assert np.allclose(
            by_name["D"]["conditional_ranks"], [0.50, 0.85, 0.66, 0.66], atol=0.005
        )
        assert all(sc["pass"] for sc in report["scenarios"])

    def test_drift_scenarios_shape(self):
        assert DRIFT_SCENARIOS["C"].marginal_ranks == (0.60, 0.70, 0.80, 0.90)
        assert DRIFT_SCENARIOS["D"].times == (18.0, 22.0, 26.0, 30.0, 34.0)

    def test_screening_report_checks_pass(self, model):
        report = run_screening_report(model)
        assert all(chk["pass"] for chk in report["checks"])
        by_name = {chk["quantity"]: chk["computed"] for chk in report["checks"]}
        assert by_name["required_difference_onset"] == pytest.approx(0.2276, abs=1e-3)
        assert by_name["abs_diff_mmhg_onset"] == pytest.approx(15.6, abs=0.1)
        assert by_name["sd_units_onset"] == pytest.approx(2.3, abs=0.05)
        assert by_name["required_difference_constant"] == pytest.approx(0.6696, abs=2e-3)

    def test_screening_report_entry_fields(self, model):
        report = run_screening_report(model)
        for entry in report["entries"]:
            assert set(entry) == {
                "mode", "d", "sigma", "rho", "specificity",
                "sensitivity", "abs_diff_mmhg", "sd_units",
            }


class TestCli:
    def test_table2_csv_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["table2", "--reps", "2", "--subjects", "120", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()
        assert header[-1].count(",") == 6
        assert any(line.startswith("# config:") for line in header)

    def test_json_format(self, tmp_path):
        out = tmp_path / "t1.json"
        assert main([
            "table1", "--reps", "2", "--subjects", "120", "--seed", "9",
            "--format", "json", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["command"] == "table1"
        assert len(payload["rows"]) == 3 * 4 * 5
        assert payload["diagnostics"]["qr_subgradient_violations"] == 0

    def test_simulate_writes_cohort(self, tmp_path):
        out = tmp_path / "cohort.csv"
        assert main(["simulate", "--subjects", "25", "--seed", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "subject_id,interval_index,time_weeks,value_mmhg,observed"
        assert len(lines) - header_at - 1 == 25 * 5

    @pytest.mark.parametrize(
        "args,digest",
        [
            (
                ["--subjects", "25", "--seed", "5"],
                "099dae65ad5cd4a1893dbf45dd318e12b3fa44282e2d862d218c61bc9c18b631",
            ),
            (
                ["--subjects", "1000"],
                "50ec83759529ed3a43705fcbcea698f01776da0dfbf315e51555c8843e056093",
            ),
            (
                ["--subjects", "300", "--seed", str(2**64 - 1)],
                "27331f95ce98b5719f4ab9a44c433db5d103fdd3c8b119a992242a4b2462b211",
            ),
            (
                ["--subjects", "1", "--seed", "0"],
                "ff1a51354b2693e7217f0df64bdb8df666cbc8211490e2d441908c6f6abe3f8a",
            ),
        ],
    )
    def test_simulate_bytes_pinned(self, tmp_path, args, digest):
        # Digests of the output written by the per-subject Generator loop
        # that RngStream.child_uniforms replaced.
        out = tmp_path / "cohort.csv"
        assert main(["simulate", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_drift_and_screening_commands(self, tmp_path, capsys):
        assert main(["drift", "--format", "json"]) == 0
        drift = json.loads(capsys.readouterr().out)
        assert all(sc["pass"] for sc in drift["scenarios"])
        assert main(["screening", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert "required_difference_onset" in text

    def test_true_centiles_csv(self, capsys):
        assert main(["true-centiles", "--step", "4"]) == 0
        lines = [
            l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")
        ]
        assert lines[0] == "week,tau,mmhg"
        assert len(lines) - 1 == 6 * 5

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
    def test_bad_true_centiles_step_exits_in_one_line(self, step):
        with pytest.raises(SystemExit) as exc:
            main(["true-centiles", "--step", step])
        message = str(exc.value)
        assert message.startswith("invalid --step: week_step must be finite and positive")
        assert "\n" not in message

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_reps": 7, "n_subjects": 80, "master_seed": 2}))
        cfg = build_config(str(cfg_file), seed=11, reps=None, subjects=None, workers=None)
        assert cfg.n_reps == 7
        assert cfg.n_subjects == 80
        assert cfg.master_seed == 11  # flag beats file

    def test_config_file_nested_sections(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "model": {"rho": 0.4},
                    "schedule": {"attendance_prob": 0.9},
                    "spline": {"n_basis": 6},
                    "methods": ["MVN"],
                }
            )
        )
        cfg = build_config(str(cfg_file))
        assert cfg.model.rho == 0.4
        assert cfg.schedule.attendance_prob == 0.9
        assert cfg.spline.n_basis == 6
        assert cfg.methods == ("MVN",)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["c0", "c2", "c3", "sigma"])
    def test_config_file_non_finite_model_rejected(self, tmp_path, field, value):
        # JSON admits NaN and Infinity; they must fail here, not as failed fits.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"model": {field: value}}))
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build_config(str(cfg_file))

    @pytest.mark.parametrize("window", [[16.0, math.inf], [-math.inf, 36.0]])
    def test_config_file_non_finite_window_rejected(self, tmp_path, window):
        # JSON admits Infinity; the visit windows are fixed, so no file sets one.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"schedule": {"windows": [window]}}))
        with pytest.raises(SystemExit, match=r"unknown config schedule keys: \['windows'\]"):
            build_config(str(cfg_file))

    def test_schedule_windows_are_not_a_config_key(self, tmp_path):
        # Moved windows made cohorts the truth does not describe, or a
        # design that failed in every replication. Even the study's own
        # windows, which the metadata echoes, are refused in one line.
        cfg_file = tmp_path / "cfg.json"
        windows = [list(w) for w in VisitSchedule.windows]
        cfg_file.write_text(json.dumps({"schedule": {"windows": windows}}))
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--config", str(cfg_file), "--reps", "1"])
        assert str(exc.value) == "unknown config schedule keys: ['windows']"

    def test_config_file_fractional_seed_rejected(self, tmp_path):
        # It would otherwise write the rows of seed 1 under an echo of 1.5.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"master_seed": 1.5}))
        with pytest.raises(SystemExit, match="^invalid config: master_seed must be an integer"):
            main(["table1", "--config", str(cfg_file), "--reps", "1", "--subjects", "50"])

    @pytest.mark.parametrize(
        "raw,args,message",
        [
            ({}, ["--seed", "-1"], "master_seed must be an unsigned 64-bit integer, got -1"),
            ({"model": {"c0": math.nan}}, [], "c0 must be finite"),
            ({"n_reps": 0}, [], "n_reps and n_subjects must be positive"),
            ({"spline": {"n_basis": 6.0}}, [], "spline n_basis must be an integer, got 6.0"),
            ({"spline": {"degree": True, "n_basis": 2}}, [], "spline degree must be an integer"),
            ({"methods": []}, [], "methods must be nonempty"),
            # A number setting takes an int or a float: a string used to end
            # in a TypeError traceback, and true ran as 1.0 but echoed true.
            (
                {"schedule": {"attendance_prob": "0.9"}}, [],
                "attendance_prob must be a number, got '0.9'",
            ),
            ({"model": {"rho": "0.5"}}, [], "rho must be a number, got '0.5'"),
            (
                {"schedule": {"attendance_prob": True}}, [],
                "attendance_prob must be a number, got True",
            ),
            ({"model": {"sigma": None}}, [], "sigma must be a number, got None"),
            # A string sequence used to iterate over its characters.
            ({"methods": "QR"}, [], "methods must be a list or a tuple, got 'QR'"),
            # A list method used to end in a TypeError traceback.
            ({"methods": [["QR"]]}, [], "methods entry must be a string, got ['QR']"),
        ],
        ids=[
            "negative-seed", "non-finite-c0", "zero-reps", "float-n-basis", "bool-degree",
            "no-methods", "string-attendance", "string-rho", "bool-attendance", "none-sigma",
            "string-methods", "list-method",
        ],
    )
    def test_invalid_config_value_exits_in_one_line(self, tmp_path, raw, args, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--config", str(cfg_file), *args])
        assert str(exc.value).startswith(f"invalid config: {message}")
        assert "\n" not in str(exc.value)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_repz": 3}))
        with pytest.raises(SystemExit, match=r"unknown config keys: \['n_repz'\]"):
            build_config(str(cfg_file))

    def test_qr_pair_mode_is_not_a_config_key(self, tmp_path):
        # The metadata echoes the mode, but it is fixed, so a file cannot set it.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"qr_pair_mode": "successive"}))
        message = r"unknown config keys: \['qr_pair_mode'\]"
        with pytest.raises(SystemExit, match=message):
            build_config(str(cfg_file))
        with pytest.raises(SystemExit, match=message):
            main(["drift", "--config", str(cfg_file)])

    @pytest.mark.parametrize(
        "section,key",
        [
            ("model", "rhoo"), ("model", "window"), ("schedule", "window"), ("spline", "knots"),
            ("spline", "boundary"), ("spline", "interior_knots"),
        ],
    )
    def test_unknown_nested_config_key_rejected(self, tmp_path, section, key):
        # The spline basis spans the study window. A boundary short of the
        # last visit used to drop every replication with a visit beyond it.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({section: {key: 0.4}}))
        message = rf"unknown config {section} keys: \['{key}'\]"
        with pytest.raises(SystemExit, match=message):
            build_config(str(cfg_file))
        with pytest.raises(SystemExit, match=message):
            main(["drift", "--config", str(cfg_file)])

    @pytest.mark.parametrize(
        "raw,what",
        [([1], "config"), ({"model": 3}, "config model"), ({"spline": [5]}, "config spline")],
    )
    def test_config_sections_must_be_objects(self, tmp_path, raw, what):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(raw))
        with pytest.raises(SystemExit, match=f"^{what} must be a JSON object"):
            build_config(str(cfg_file))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command", ["simulate", "table1", "table2", "drift", "screening", "true-centiles"]
    )
    def test_metadata_is_run_metadata(self, capsys, command, fmt):
        args = ["--reps", "2", "--subjects", "120", "--seed", "9", "--format", fmt]
        assert main([command, *args]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            metadata = json.loads(out)["metadata"]
        else:
            lines = [l[2:] for l in out.splitlines() if l.startswith("# ")]
            metadata = {k: json.loads(v) for k, v in (l.split(": ", 1) for l in lines)}
        cfg = build_config(seed=9, reps=2, subjects=120)
        assert metadata == {"command": command, **run_metadata(cfg)}

    def test_simulate_json_rows_match_cohort(self, capsys):
        assert main(["simulate", "--subjects", "7", "--seed", "11", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        cfg = build_config(seed=11, subjects=7)
        cohort = generate_cohort(cfg.model, cfg.schedule, 7, RngStream(11).child(0))
        assert len(rows) == cohort.times.size
        for row in rows:
            i, j = row["subject_id"], row["interval_index"]
            assert row["time_weeks"] == cohort.times[i, j]
            assert row["value_mmhg"] == cohort.values[i, j]
            assert row["observed"] == int(cohort.observed[i, j])
        assert [(r["subject_id"], r["interval_index"]) for r in rows] == [
            (i, j) for i in range(7) for j in range(cohort.times.shape[1])
        ]

    def test_simulate_csv_roundtrip(self, capsys):
        assert main(["simulate", "--subjects", "3", "--seed", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "subject_id,interval_index,time_weeks,value_mmhg,observed"
        body = [l.split(",") for l in lines[header_at + 1 :]]
        cfg = build_config(seed=8, subjects=3)
        cohort = generate_cohort(cfg.model, cfg.schedule, 3, RngStream(8).child(0))
        assert len(body) == 3 * cohort.times.shape[1]
        for k, (i, j, t, v, seen) in enumerate(body):
            assert (int(i), int(j)) == divmod(k, cohort.times.shape[1])
            assert float(t) == cohort.times[int(i), int(j)]
            assert float(v) == cohort.values[int(i), int(j)]
            assert seen == str(int(cohort.observed[int(i), int(j)]))


class TestHalfSplitConsistency:
    def test_sd_halves_agree(self, tiny_run):
        # mechanics check at small scale; the full-scale version runs in the
        # acceptance suite
        marg, _ = tiny_run
        for key, values in marg.replicates.items():
            half = values.size // 2
            s1, s2 = np.std(values[:half], ddof=1), np.std(values[half:], ddof=1)
            pooled = np.std(values, ddof=1)
            se = pooled * math.sqrt(1.0 / (2.0 * (half - 1)) + 1.0 / (2.0 * (half - 1)))
            assert abs(s1 - s2) <= 6.0 * se + 1e-12

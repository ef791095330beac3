"""Replication orchestration for the simulation study.

Runs repeated cohorts, fits marginal and conditional charts by every
requested method, and aggregates centile estimates into mean/SD summaries.
Replication r consumes the random stream at path [r], so results are
bit-identical however the replications are scheduled across workers, and
fits consume only the cohort, never the stream. Also emits the analytic
side products: true percentile curves and drift-scenario conditional
ranks.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from functools import partial
from typing import ClassVar

import numpy as np

from . import __version__
from .cohort import VisitSchedule, generate_cohort
from .errors import ExperimentError, FitError
from .lms import (
    fit_ar1_z,
    fit_lms,
    lms_centile,
    lms_conditional_centile,
    zscore_pairs,
)
from .model import (
    GA_WINDOW,
    LognormalAR1Model,
    PercentilePath,
    drift_conditional_ranks,
    marginal_percentile,
)
from .mvn import fit_mvn, mvn_conditional_centile, mvn_marginal_centile
from .numerics import PRNG_NAME, RngStream, _checked_index
from .quantreg import (
    count_quantile_crossings,
    fit_conditional_qr,
    fit_marginal_qr,
    predict_centile,
)
from .splines import SplineSpec, design_matrix

__all__ = [
    "ExperimentConfig",
    "SummaryRow",
    "ReplicationSummary",
    "run_marginal_experiment",
    "run_conditional_experiment",
    "run_both_experiments",
    "run_metadata",
    "emit_true_centiles",
    "run_drift_report",
    "DRIFT_SCENARIOS",
]

_METHODS = ("QR", "LMS", "MVN")
# Fit counters each replication records and a study sums into its diagnostics.
_COUNTERS = (
    "qr_subgradient_violations", "qr_lp_fallbacks", "qr_ipm_steps", "qr_pivots",
    "qr_pfn_fallbacks", "lms_newton_steps", "mvn_brent_evals",
)

# What a fit raises on a cohort it cannot fit. Anything else is a bug and
# propagates instead of counting against the failed-fit budget.
_FIT_FAILURES = (FitError, ValueError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class ExperimentConfig:
    """Design of one replication study; defaults reproduce the headline study.

    The evaluation cells are those of the paper's Tables 1 and 2 and are
    fixed: the tau levels, the marginal weeks, and the conditional week
    given the prior week along each named path (name, marginal rank).
    """

    n_reps: int = 500
    n_subjects: int = 1000
    master_seed: int = 20260809
    tau_grid: ClassVar[tuple[float, ...]] = (0.03, 0.10, 0.50, 0.90, 0.97)
    eval_weeks_marginal: ClassVar[tuple[float, ...]] = (20.0, 24.0, 28.0, 32.0)
    eval_week_conditional: ClassVar[float] = 26.0
    prior_week: ClassVar[float] = 22.0
    paths: ClassVar[tuple[tuple[str, float], ...]] = (("A", 0.03), ("B", 0.97))
    methods: tuple[str, ...] = _METHODS
    # QR conditions on every consecutive pair of observed visits, whatever
    # the gap; LMS and MVN use adjacent intervals only.
    qr_pair_mode: ClassVar[str] = "successive"
    workers: int = 1
    model: LognormalAR1Model = LognormalAR1Model()
    schedule: VisitSchedule = VisitSchedule()
    spline: SplineSpec = SplineSpec()

    def __post_init__(self):
        # A string would iterate over its characters, and a list method is
        # unhashable.
        if not isinstance(self.methods, (list, tuple)):
            raise ValueError(f"methods must be a list or a tuple, got {self.methods!r}")
        for method in self.methods:
            if not isinstance(method, str):
                raise ValueError(f"methods entry must be a string, got {method!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        # A fractional count or seed would be truncated, or fail mid-run.
        for name in ("n_reps", "n_subjects", "workers", "master_seed"):
            object.__setattr__(self, name, _checked_index(getattr(self, name), name))
        if self.n_reps < 1 or self.n_subjects < 1:
            raise ValueError("n_reps and n_subjects must be positive")
        # RngStream would reject it only in the first replication.
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed}"
            )
        # No methods would write empty tables, and a repeat would merge rows.
        if not self.methods:
            raise ValueError("methods must be nonempty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"duplicate methods in {self.methods!r}")
        unknown = set(self.methods) - set(_METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; choose from {_METHODS}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def prior_values(self) -> dict[str, float]:
        """Prior-week measurement for each named path (exact percentile value)."""
        return {
            name: marginal_percentile(self.model, self.prior_week, rank)
            for name, rank in self.paths
        }

    def describe(self) -> dict:
        """JSON-able echo of the design: every field, nested sections too,
        with tuples as lists. ``workers`` is left out, since it does not
        affect results, and the fixed evaluation cells and ``qr_pair_mode``
        are added; paths echo as a name -> rank map, the schedule section
        also holds its fixed windows, and the spline section its full knot
        vector."""
        echo = _as_lists(asdict(self))
        del echo["workers"]
        for name in (
            "tau_grid", "eval_weeks_marginal", "eval_week_conditional", "prior_week",
            "qr_pair_mode",
        ):
            echo[name] = _as_lists(getattr(self, name))
        echo["paths"] = dict(self.paths)
        echo["schedule"]["windows"] = _as_lists(self.schedule.windows)
        echo["spline"]["knots"] = list(self.spline.knots)
        return echo


def _as_lists(value):
    """``value`` with every tuple, at any depth, made a list, as JSON reads it."""
    if isinstance(value, dict):
        return {key: _as_lists(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


@dataclass(frozen=True)
class SummaryRow:
    """Mean and SD of one centile estimate across replications; the first
    four fields are the row's key."""

    method: str
    week: float
    tau: float
    path: str  # "" for marginal rows
    mean_mmhg: float
    sd_mmhg: float
    n_reps: int


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregated experiment output plus failures and diagnostics.

    ``replicates`` holds the per-replication estimates behind each row when
    the experiment is run with keep_replicates=True; it is analysis-side
    only and never serialized.
    """

    rows: tuple[SummaryRow, ...]
    failures: tuple[dict, ...] = ()
    diagnostics: dict = field(default_factory=dict)
    replicates: dict = field(default_factory=dict, repr=False)

    def to_payload(self) -> dict:
        return {
            "rows": [asdict(r) for r in self.rows],
            "failures": list(self.failures),
            "diagnostics": self.diagnostics,
        }


def run_metadata(cfg: ExperimentConfig) -> dict:
    """Run metadata shared by every CLI output: design, PRNG, knots and version."""
    return {
        "config": cfg.describe(),
        "prng": PRNG_NAME,
        "knots": list(cfg.spline.knots),
        "version": __version__,
    }


def _grid_rows(cfg: ExperimentConfig, marginal: bool, conditional: bool) -> list:
    """(week, path) of each row of a method's cell grid: the marginal weeks,
    then the paths at the conditional week. The grid has one column per tau."""
    rows = [(week, "") for week in cfg.eval_weeks_marginal] if marginal else []
    if conditional:
        rows += [(cfg.eval_week_conditional, name) for name, _ in cfg.paths]
    return rows


def _replication(cfg: ExperimentConfig, marginal: bool, conditional: bool, rep: int):
    """Fit every requested method on one simulated cohort.

    Returns the centile estimates keyed by their summary row (method, week,
    tau, path), plus failures and diagnostics. Each method fills its cell
    grid (see _grid_rows) with one call per fit, and QR fits each family's
    whole tau grid in one call; a failed method is recorded and contributes
    no cells or counters of the family that failed. The spline basis of the
    observed times is built once and shared by every fit; the pair fits
    gather its rows.
    """
    stream = RngStream(cfg.master_seed).child(rep)
    cohort = generate_cohort(cfg.model, cfg.schedule, cfg.n_subjects, stream)
    t_obs, y_obs = cohort.observed_points()
    basis = design_matrix(cfg.spline, t_obs)
    weeks = np.array(cfg.eval_weeks_marginal)
    taus = np.array(cfg.tau_grid)
    week_p, week_c = cfg.prior_week, cfg.eval_week_conditional
    y_prev = np.array(list(cfg.prior_values().values()))

    cells: dict = {}
    failures: list[tuple[str, str]] = []
    diag = dict.fromkeys(_COUNTERS, 0)

    pairs_adj = pairs_succ = None
    if conditional:
        pairs_adj = cohort.pair_set(max_gap=1)
        pairs_succ = cohort.pair_set(max_gap=None)
        diag["n_pairs_successive"] = len(pairs_succ)
        diag["n_pairs_adjacent"] = len(pairs_adj)

    def qr_audited(fits):
        for fit in fits:
            diag["qr_subgradient_violations"] += not fit.subgradient_ok
            diag["qr_lp_fallbacks"] += fit.solver == "lp"
            diag["qr_ipm_steps"] += fit.ipm_steps
            diag["qr_pivots"] += fit.pivots
            diag["qr_pfn_fallbacks"] += fit.pfn_fallback
        return fits

    def qr_grid():
        blocks = []
        if marginal:
            fits = fit_marginal_qr(t_obs, y_obs, cfg.tau_grid, cfg.spline, basis=basis)
            blocks.append(predict_centile(qr_audited(fits), weeks))
            diag["qr_crossing_grid_points"] = count_quantile_crossings(fits)
        if conditional:
            fits = fit_conditional_qr(pairs_succ, cfg.tau_grid, cfg.spline, basis=basis)
            blocks.append(
                predict_centile(qr_audited(fits), week_c, y_prev=y_prev, dt=week_c - week_p)
            )
        return blocks

    def lms_grid():
        fit = fit_lms(t_obs, y_obs, cfg.spline, basis=basis)
        diag["lms_newton_steps"] = fit.newton_steps
        blocks = [lms_centile(fit, weeks, taus[:, None]).T] if marginal else []
        if conditional:
            rho_hat = fit_ar1_z(*zscore_pairs(fit, pairs_adj, basis=basis))
            diag["lms_rho_hat"] = rho_hat
            blocks.append(lms_conditional_centile(
                fit, rho_hat, week_p, y_prev[:, None], week_c, taus
            ))
        return blocks

    def mvn_grid():
        fit = fit_mvn(cohort, cfg.spline, basis=basis)
        diag["mvn_rho_hat"] = fit.rho_hat
        diag["mvn_sigma_hat"] = fit.sigma_hat
        diag["mvn_brent_evals"] = fit.brent_evals
        blocks = [mvn_marginal_centile(fit, weeks, taus[:, None]).T] if marginal else []
        if conditional:
            blocks.append(mvn_conditional_centile(fit, week_p, y_prev[:, None], week_c, taus))
        return blocks

    evaluate = {"QR": qr_grid, "LMS": lms_grid, "MVN": mvn_grid}
    grid_rows = _grid_rows(cfg, marginal, conditional)
    # The fixed order keeps the failure list independent of cfg.methods' order.
    for method in _METHODS:
        if method not in cfg.methods:
            continue
        try:
            grid = np.vstack(evaluate[method]())
        except _FIT_FAILURES as exc:
            failures.append((method, f"{type(exc).__name__}: {exc}"))
            continue
        for (week, path), values in zip(grid_rows, grid.tolist()):
            for tau, value in zip(cfg.tau_grid, values):
                cells[(method, week, tau, path)] = value

    return {"cells": cells, "failures": failures, "diag": diag}


def _run(cfg: ExperimentConfig, marginal: bool, conditional: bool, keep_replicates=False):
    replicate = partial(_replication, cfg, marginal, conditional)
    # The pool forks every worker at the first submit, so it gets no more
    # workers than there are replications.
    workers = min(cfg.workers, cfg.n_reps)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(replicate, range(cfg.n_reps), chunksize=1))
    else:
        results = [replicate(rep) for rep in range(cfg.n_reps)]

    failures = tuple(
        {"rep": rep, "method": method, "error": msg}
        for rep, res in enumerate(results)
        for method, msg in res["failures"]
    )
    failed_reps = {f["rep"] for f in failures}
    if len(failed_reps) > 0.02 * cfg.n_reps:
        raise ExperimentError(
            f"{len(failed_reps)} of {cfg.n_reps} replications failed fits "
            f"(> 2% budget); first failure: {failures[0]}"
        )

    diagnostics = {key: int(sum(res["diag"][key] for res in results)) for key in _COUNTERS}
    diagnostics["n_failed_replications"] = len(failed_reps)
    # Every other recorded value is averaged over the replications that have it.
    for key in sorted({key for res in results for key in res["diag"]} - set(_COUNTERS)):
        vals = [res["diag"][key] for res in results if key in res["diag"]]
        diagnostics[f"{key}_mean"] = float(np.mean(vals))

    def summarize(grid_rows) -> ReplicationSummary:
        rows = []
        replicates = {}
        keys = (
            (method, week, tau, path)
            for method in cfg.methods
            for week, path in grid_rows
            for tau in cfg.tau_grid
        )
        for key in keys:
            values = np.array([res["cells"][key] for res in results if key in res["cells"]])
            if values.size == 0:
                continue
            if keep_replicates:
                replicates[key] = values
            sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
            rows.append(SummaryRow(*key, float(values.mean()), sd, int(values.size)))
        return ReplicationSummary(
            rows=tuple(rows),
            failures=failures,
            diagnostics=diagnostics,
            replicates=replicates,
        )

    return (
        summarize(_grid_rows(cfg, marginal, False)),
        summarize(_grid_rows(cfg, False, conditional)),
    )


def run_marginal_experiment(cfg: ExperimentConfig) -> ReplicationSummary:
    """Replicate marginal chart fits and summarize centiles at the evaluation
    weeks; a replication whose fit errors is excluded and reported, and more
    than 2% failed replications aborts the experiment."""
    return _run(cfg, marginal=True, conditional=False)[0]


def run_conditional_experiment(cfg: ExperimentConfig) -> ReplicationSummary:
    """Replicate conditional chart fits and summarize centiles at the
    conditional evaluation week for each prior path."""
    return _run(cfg, marginal=False, conditional=True)[1]


def run_both_experiments(
    cfg: ExperimentConfig, keep_replicates: bool = False
) -> tuple[ReplicationSummary, ReplicationSummary]:
    """Marginal and conditional summaries from one pass over the cohorts
    (each cohort is generated and the LMS/MVN models fitted once)."""
    return _run(cfg, marginal=True, conditional=True, keep_replicates=keep_replicates)


def emit_true_centiles(
    model: LognormalAR1Model, tau_grid, week_step: float
) -> list[tuple[float, float, float]]:
    """Rows (week, tau, mmHg) of exact percentile curves over the study window."""
    if not (np.isfinite(week_step) and week_step > 0.0):
        raise ValueError(f"week_step must be finite and positive, got {week_step!r}")
    lo, hi = GA_WINDOW
    weeks = np.arange(lo, hi + 1e-9, week_step)
    return [
        (float(t), float(tau), float(marginal_percentile(model, t, tau)))
        for t in weeks
        for tau in tau_grid
    ]


DRIFT_SCENARIOS = {
    "C": PercentilePath(times=(18.0, 22.0, 26.0, 30.0), marginal_ranks=(0.60, 0.70, 0.80, 0.90)),
    "D": PercentilePath(
        times=(18.0, 22.0, 26.0, 30.0, 34.0), marginal_ranks=(0.50, 0.50, 0.80, 0.80, 0.80)
    ),
}

# Published conditional ranks the drift scenarios should land on.
_DRIFT_REFERENCE = {"C": (0.68, 0.74, 0.83), "D": (0.50, 0.85, 0.66, 0.66)}
_DRIFT_TOL = 0.005


def run_drift_report(model: LognormalAR1Model) -> dict:
    """Conditional ranks of the drift and jump scenarios, with pass flags
    against their reference values at tolerance 0.005."""
    scenarios = []
    for name, path in DRIFT_SCENARIOS.items():
        ranks = drift_conditional_ranks(model, path)
        reference = _DRIFT_REFERENCE[name]
        scenarios.append(
            {
                "scenario": name,
                "weeks": list(path.times[1:]),
                "marginal_ranks": list(path.marginal_ranks),
                "conditional_ranks": [round(float(r), 6) for r in ranks],
                "reference_ranks": list(reference),
                "tolerance": _DRIFT_TOL,
                "pass": bool(
                    np.all(np.abs(np.asarray(ranks) - np.asarray(reference)) <= _DRIFT_TOL)
                ),
            }
        )
    return {"scenarios": scenarios}

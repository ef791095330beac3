"""Command-line interface.

Subcommands: simulate, table1, table2, drift, screening, true-centiles.
All outputs are flat files (CSV with '#' metadata header lines, or JSON
with a metadata object) and are byte-identical across runs and worker
counts for the same seed and design.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import __version__
from .cohort import VisitSchedule, generate_cohort
from .experiment import (
    ExperimentConfig,
    emit_true_centiles,
    run_conditional_experiment,
    run_drift_report,
    run_marginal_experiment,
    run_metadata,
    run_screening_report,
)
from .model import LognormalAR1Model
from .numerics import RngStream
from .splines import SplineSpec

__all__ = ["main", "build_config"]

_CONFIG_KEYS = {
    "n_reps",
    "n_subjects",
    "master_seed",
    "tau_grid",
    "eval_weeks_marginal",
    "eval_week_conditional",
    "prior_week",
    "paths",
    "methods",
    "qr_pair_mode",
    "workers",
    "model",
    "schedule",
    "spline",
}


def build_config(
    config_file: str | None = None,
    seed: int | None = None,
    reps: int | None = None,
    subjects: int | None = None,
    workers: int | None = None,
) -> ExperimentConfig:
    """Experiment config from defaults, then a JSON file, then explicit flags."""
    values: dict = {}
    if config_file:
        with open(config_file, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    if "model" in values:
        values["model"] = LognormalAR1Model(**values["model"])
    if "schedule" in values:
        sched = dict(values["schedule"])
        if "windows" in sched:
            sched["windows"] = tuple(tuple(w) for w in sched["windows"])
        values["schedule"] = VisitSchedule(**sched)
    if "spline" in values:
        values["spline"] = SplineSpec(**values["spline"])
    if "tau_grid" in values:
        values["tau_grid"] = tuple(values["tau_grid"])
    if "eval_weeks_marginal" in values:
        values["eval_weeks_marginal"] = tuple(values["eval_weeks_marginal"])
    if "paths" in values:
        paths = values["paths"]
        values["paths"] = tuple(
            paths.items() if isinstance(paths, dict) else (tuple(p) for p in paths)
        )
    if "methods" in values:
        values["methods"] = tuple(values["methods"])
    if seed is not None:
        values["master_seed"] = seed
    if reps is not None:
        values["n_reps"] = reps
    if subjects is not None:
        values["n_subjects"] = subjects
    if workers is not None:
        values["workers"] = workers
    return ExperimentConfig(**values)


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_metadata_lines(fh, metadata: dict) -> None:
    for key in sorted(metadata):
        fh.write(f"# {key}: {json.dumps(metadata[key], sort_keys=True)}\n")


def _emit(out_path: str | None, fmt: str, payload: dict, csv_rows, csv_fields) -> None:
    """Write a payload as JSON, or its rows as CSV under a metadata header."""
    fh, close = _open_out(out_path)
    try:
        if fmt == "json":
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        else:
            _write_metadata_lines(fh, payload["metadata"])
            fh.write(",".join(csv_fields) + "\n")
            for row in csv_rows:
                fh.write(",".join(_csv_cell(row[f]) for f in csv_fields) + "\n")
    finally:
        if close:
            fh.close()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _summary_metadata(cfg: ExperimentConfig, command: str) -> dict:
    return {"command": command, **run_metadata(cfg)}


def _cmd_simulate(args) -> int:
    cfg = build_config(args.config, args.seed, args.reps, args.subjects, args.workers)
    stream = RngStream(cfg.master_seed).child(0)
    cohort = generate_cohort(cfg.model, cfg.schedule, cfg.n_subjects, stream)
    fh, close = _open_out(args.out)
    try:
        metadata = _summary_metadata(cfg, "simulate")
        cohort.to_csv(
            fh,
            metadata={k: json.dumps(v, sort_keys=True) for k, v in sorted(metadata.items())},
        )
    finally:
        if close:
            fh.close()
    return 0


def _run_table(args, runner, command: str) -> int:
    cfg = build_config(args.config, args.seed, args.reps, args.subjects, args.workers)
    summary = runner(cfg)
    payload = summary.to_payload()
    payload["metadata"] = dict(payload["metadata"], command=command)
    rows = [asdict(r) for r in summary.rows]
    fields = ["method", "week", "tau", "path", "mean_mmhg", "sd_mmhg", "n_reps"]
    _emit(args.out, args.format, payload, rows, fields)
    return 0


def _cmd_table1(args) -> int:
    return _run_table(args, run_marginal_experiment, "table1")


def _cmd_table2(args) -> int:
    return _run_table(args, run_conditional_experiment, "table2")


def _cmd_drift(args) -> int:
    cfg = build_config(args.config, args.seed, args.reps, args.subjects, args.workers)
    report = run_drift_report(cfg.model)
    payload = {"metadata": _summary_metadata(cfg, "drift"), **report}
    rows = [
        {
            "scenario": sc["scenario"],
            "week": week,
            "conditional_rank": rank,
            "reference_rank": ref,
            "pass": sc["pass"],
        }
        for sc in report["scenarios"]
        for week, rank, ref in zip(
            sc["weeks"], sc["conditional_ranks"], sc["reference_ranks"]
        )
    ]
    fields = ["scenario", "week", "conditional_rank", "reference_rank", "pass"]
    _emit(args.out, args.format, payload, rows, fields)
    return 0


def _cmd_screening(args) -> int:
    cfg = build_config(args.config, args.seed, args.reps, args.subjects, args.workers)
    report = run_screening_report(cfg.model)
    payload = {"metadata": _summary_metadata(cfg, "screening"), **report}
    rows = [
        {
            "quantity": chk["quantity"],
            "computed": chk["computed"],
            "reference": chk["reference"],
            "tolerance": chk["tolerance"],
            "pass": chk["pass"],
        }
        for chk in report["checks"]
    ]
    fields = ["quantity", "computed", "reference", "tolerance", "pass"]
    _emit(args.out, args.format, payload, rows, fields)
    return 0


def _cmd_true_centiles(args) -> int:
    cfg = build_config(args.config, args.seed, args.reps, args.subjects, args.workers)
    data = emit_true_centiles(cfg.model, cfg.tau_grid, week_step=args.step)
    payload = {
        "metadata": _summary_metadata(cfg, "true-centiles"),
        "rows": [{"week": t, "tau": tau, "mmhg": v} for t, tau, v in data],
    }
    _emit(args.out, args.format, payload, payload["rows"], ["week", "tau", "mmhg"])
    return 0


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master RNG seed (u64)")
    common.add_argument("--reps", type=int, default=None, help="number of replications")
    common.add_argument("--subjects", type=int, default=None, help="cohort size")
    common.add_argument("--workers", type=int, default=None, help="parallel workers")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--config", default=None, help="JSON config file")

    parser = argparse.ArgumentParser(
        prog="centilebench",
        description="Simulate blood-pressure cohorts and evaluate centile charts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", parents=[common], help="emit one cohort as CSV").set_defaults(
        func=_cmd_simulate
    )
    sub.add_parser(
        "table1", parents=[common], help="marginal centile SDs across replications"
    ).set_defaults(func=_cmd_table1)
    sub.add_parser(
        "table2", parents=[common], help="conditional centile means and SDs"
    ).set_defaults(func=_cmd_table2)
    sub.add_parser(
        "drift", parents=[common], help="conditional ranks of drifting paths"
    ).set_defaults(func=_cmd_drift)
    sub.add_parser(
        "screening", parents=[common], help="screening-accuracy headline numbers"
    ).set_defaults(func=_cmd_screening)
    tc = sub.add_parser(
        "true-centiles", parents=[common], help="exact percentile curves"
    )
    tc.add_argument("--step", type=float, default=0.5, help="week step for the grid")
    tc.set_defaults(func=_cmd_true_centiles)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

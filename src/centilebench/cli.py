"""Command-line interface.

Subcommands: simulate, table1, table2, drift, screening, true-centiles.
Each builds its output body from one config; the run metadata is added
once and one emitter writes every subcommand as a flat file (CSV with '#'
metadata header lines, or JSON with a metadata object). Outputs are
byte-identical across runs and worker counts for the same seed and design.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from . import __version__
from .cohort import VisitSchedule, generate_cohort
from .experiment import (
    ExperimentConfig,
    SummaryRow,
    emit_true_centiles,
    run_conditional_experiment,
    run_drift_report,
    run_marginal_experiment,
    run_metadata,
)
from .model import LognormalAR1Model
from .numerics import RngStream
from .screening import run_screening_report
from .splines import SplineSpec

__all__ = ["main", "build_config"]

_SECTIONS = {"model": LognormalAR1Model, "schedule": VisitSchedule, "spline": SplineSpec}


def _checked(cls, raw: dict, what: str) -> dict:
    """``raw`` if it is a JSON object whose every key names a field of the
    dataclass ``cls``."""
    if not isinstance(raw, dict):
        raise SystemExit(f"{what} must be a JSON object, got {raw!r}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise SystemExit(f"unknown {what} keys: {sorted(unknown)}")
    return raw


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
            values = _checked(ExperimentConfig, json.load(fh), "config")
    for key, cls in _SECTIONS.items():
        if key in values:
            values[key] = cls(**_checked(cls, values[key], f"config {key}"))
    flags = {"master_seed": seed, "n_reps": reps, "n_subjects": subjects, "workers": workers}
    values.update((key, flag) for key, flag in flags.items() if flag is not None)
    return ExperimentConfig(**values)


def _emit(out_path: str | None, fmt: str, payload: dict, csv_rows, csv_fields) -> None:
    """Write a payload as JSON, or its rows as CSV under a metadata header."""
    to_stdout = out_path is None or out_path == "-"
    with (
        contextlib.nullcontext(sys.stdout)
        if to_stdout
        else open(out_path, "w", encoding="utf-8", newline="")
    ) as fh:
        if fmt == "json":
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        else:
            metadata = payload["metadata"]
            for key in sorted(metadata):
                fh.write(f"# {key}: {json.dumps(metadata[key], sort_keys=True)}\n")
            fh.write(",".join(csv_fields) + "\n")
            for row in csv_rows:
                fh.write(",".join(_csv_cell(row[f]) for f in csv_fields) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


# Each subcommand maps (cfg, args) to (payload body, CSV rows, CSV fields).


def _simulate(cfg: ExperimentConfig, args):
    stream = RngStream(cfg.master_seed).child(0)
    cohort = generate_cohort(cfg.model, cfg.schedule, cfg.n_subjects, stream)
    rows = [
        {
            "subject_id": i,
            "interval_index": j,
            "time_weeks": t,
            "value_mmhg": v,
            "observed": int(seen),
        }
        for i, (times, values, observed) in enumerate(
            zip(cohort.times.tolist(), cohort.values.tolist(), cohort.observed.tolist())
        )
        for j, (t, v, seen) in enumerate(zip(times, values, observed))
    ]
    fields = ["subject_id", "interval_index", "time_weeks", "value_mmhg", "observed"]
    return {"rows": rows}, rows, fields


def _table(runner):
    def run(cfg: ExperimentConfig, args):
        payload = runner(cfg).to_payload()
        return payload, payload["rows"], [f.name for f in dataclasses.fields(SummaryRow)]

    return run


def _drift(cfg: ExperimentConfig, args):
    report = run_drift_report(cfg.model)
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
    return report, rows, ["scenario", "week", "conditional_rank", "reference_rank", "pass"]


def _screening(cfg: ExperimentConfig, args):
    report = run_screening_report(cfg.model)
    return report, report["checks"], ["quantity", "computed", "reference", "tolerance", "pass"]


def _true_centiles(cfg: ExperimentConfig, args):
    try:
        data = emit_true_centiles(cfg.model, cfg.tau_grid, week_step=args.step)
    except ValueError as exc:
        raise SystemExit(f"invalid --step: {exc}") from None
    rows = [{"week": t, "tau": tau, "mmhg": v} for t, tau, v in data]
    return {"rows": rows}, rows, ["week", "tau", "mmhg"]


_COMMANDS = {
    "simulate": (_simulate, "one simulated cohort"),
    "table1": (_table(run_marginal_experiment), "marginal centile SDs across replications"),
    "table2": (_table(run_conditional_experiment), "conditional centile means and SDs"),
    "drift": (_drift, "conditional ranks of drifting paths"),
    "screening": (_screening, "screening-accuracy headline numbers"),
    "true-centiles": (_true_centiles, "exact percentile curves"),
}


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
    commands = {
        name: sub.add_parser(name, parents=[common], help=help_text)
        for name, (_, help_text) in _COMMANDS.items()
    }
    commands["true-centiles"].add_argument(
        "--step", type=float, default=0.5, help="week step for the grid"
    )

    args = parser.parse_args(argv)
    try:
        cfg = build_config(args.config, args.seed, args.reps, args.subjects, args.workers)
    except ValueError as exc:
        # An invalid value ends the run in one line, as an unknown key does.
        raise SystemExit(f"invalid config: {exc}") from None
    payload, rows, csv_fields = _COMMANDS[args.command][0](cfg, args)
    payload["metadata"] = {"command": args.command, **run_metadata(cfg)}
    _emit(args.out, args.format, payload, rows, csv_fields)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

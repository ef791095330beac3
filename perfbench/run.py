"""Replication-study benchmark for centilebench.

Run from the root of a checkout:

    python3 perfbench/run.py --workload headline --seed 1 --seconds 45 --trace 0

The program is imported from ./src; nothing is installed or built. A run
with --trace 0 measures the end-to-end metrics:

    setup_s      median wall time of a fresh interpreter that imports the
                 package with numpy and scipy and builds the ExperimentConfig
    study_s      median wall time of experiment.run_both_experiments
    cpu_s        median user + system CPU of the study process and its pool
                 workers over one study
    peak_rss_mb  peak resident memory of the study process or of its largest
                 pool worker

The studies run in a process of their own (study.py), repeated on the
workload's design for about --seconds. A run with --trace 1 instead
alternates, in this process, one untraced study and one replay of its
replications through the public functions of each module (replay.py),
timing each call; it prints the per-layer metrics and writes the spans to
perfbench/out/.

Every run checks the outputs: all table cells present with the right
replication count and within a stated bound of the exact percentiles,
repeated studies identical, and a replay (one replication untraced, all of
them traced) whose every fit passes the oracles of oracles.py and whose
estimates equal the study's. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The benchmark
sets no BLAS or OpenMP thread variable: it runs the program as a user would.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 20260809

# The paper's study design at three scales. A study lasts about 1.5 s
# (headline), 10 s (large-cohort) or 1 to 7 s (small-cohorts-pool) on a
# 2-CPU machine, so a 45 s run holds several. workers=0 stands for one
# worker per available CPU.
WORKLOADS = {
    # QR ~50%, LMS ~29%, MVN ~17% of the fit time; the pool is bypassed.
    "headline": {"n_subjects": 1000, "n_reps": 2, "workers": 1},
    # Short tasks: per-fit fixed costs and the process pool dominate. Not in
    # BENCHMARK.json: each pool worker runs a full OpenBLAS thread pool, and
    # the oversubscribed CPUs make one study take anywhere from 0.8 s to 7 s,
    # too unsteady for a bound (see README.md). Run it by hand.
    "small-cohorts-pool": {"n_subjects": 200, "n_reps": 4, "workers": 0},
    # The exact QR linear programs dominate (~75%); LMS barely shows.
    "large-cohort": {"n_subjects": 5000, "n_reps": 2, "workers": 1},
}

SETUP_PROBES = 5

# Truth bound for a cell mean: BIAS + Z * SD_REF * sqrt(1000 / n_subjects)
# / sqrt(n_reps). SD_REF is an upper bound on the per-replication SD of any
# cell of the method at 1000 subjects (the published Table 1/2 SDs reach
# 0.91 for QR and LMS and 0.36 for MVN). LMS and MVN nest the generating
# model, so only a small-sample allowance is added; conditional QR carries
# the bias the paper reports (up to +0.7 mmHg at 1000 subjects, about 1.4
# at 200 subjects).
TRUTH_Z = 6.0
SD_REF = {"QR": 1.0, "LMS": 1.0, "MVN": 0.4}
BIAS = {"QR-conditional": 1.5}
BIAS_DEFAULT = 0.1

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

def locate_program(root: str):
    """Import the package from the checkout's src/, or exit with an error."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "centilebench", "__init__.py")):
        sys.exit(f"perfbench: no src/centilebench under {root}; run from a checkout root")
    sys.path.insert(0, src)
    import centilebench

    if not os.path.realpath(centilebench.__file__).startswith(os.path.realpath(src)):
        sys.exit(f"perfbench: centilebench imported from {centilebench.__file__}, not {src}")


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def design_of(workload: str, seed: int) -> dict:
    design = dict(WORKLOADS[workload], master_seed=seed)
    if design["workers"] == 0:
        design["workers"] = len(os.sched_getaffinity(0))
    return design


def setup_seconds(root: str, design: dict) -> list[float]:
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), json.dumps(design)]
    subprocess.run(cmd, cwd=root, check=True)  # untimed: leaves bytecode caches warm
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_studies(root: str, design: dict, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "study.py"), json.dumps(design), str(seconds)]
    # A session of its own, so that a timeout also ends the pool workers.
    proc = subprocess.Popen(
        cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: study process timed out")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        sys.exit(f"perfbench: study process exited with {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["replicates"] = {tuple(k): v for k, v in out["replicates"]}
    return out


def expected_cells(cfg) -> list[tuple]:
    marginal = [
        (m, w, tau, "") for m in cfg.methods for w in cfg.eval_weeks_marginal for tau in cfg.tau_grid
    ]
    conditional = [
        (m, cfg.eval_week_conditional, tau, name)
        for m in cfg.methods for name, _ in cfg.paths for tau in cfg.tau_grid
    ]
    return marginal + conditional


def failed_reps(failures) -> dict[str, set]:
    out: dict[str, set] = {}
    for f in failures:
        out.setdefault(f["method"], set()).add(f["rep"])
    return out


def check_study(cfg, study) -> list[str]:
    """Cells present, replication counts, cell means against the exact
    percentiles, repeated studies identical, zero QR audit violations."""
    errs = []
    first = study["studies"][0]
    if any(s["rows"] != first["rows"] or s["failures"] != first["failures"] for s in study["studies"][1:]):
        errs.append("experiment: repeated studies of one design differ")
    failed = failed_reps(first["failures"])
    rows = {tuple(r[:4]): r for r in first["rows"]}
    expected = expected_cells(cfg)
    if len(rows) != len(first["rows"]) or set(rows) - set(expected):
        errs.append("experiment: summary holds duplicate or unexpected cells")
    ranks = dict(cfg.paths)
    for key in expected:
        method, week, tau, path = key
        row = rows.get(key)
        if row is None:
            errs.append(f"experiment: cell {key} missing from the summary")
            continue
        n = cfg.n_reps - len(failed.get(method, ()))
        if row[6] != n:
            errs.append(f"experiment: cell {key} has n_reps={row[6]}, expected {n}")
            continue
        if path:
            truth = oracles.true_conditional(cfg.model, cfg.prior_week, ranks[path], week, tau)
        else:
            truth = oracles.true_marginal(cfg.model, week, tau)
        kind = "conditional" if path else "marginal"
        bound = BIAS.get(f"{method}-{kind}", BIAS_DEFAULT) + TRUTH_Z * SD_REF[method] * math.sqrt(
            1000.0 / cfg.n_subjects
        ) / math.sqrt(n)
        if abs(row[4] - truth) > bound:
            errs.append(
                f"experiment: cell {key} mean {row[4]:.3f} is {row[4] - truth:+.3f} from the "
                f"exact {truth:.3f} (bound {bound:.3f})"
            )
    if study["diagnostics"].get("qr_subgradient_violations") != 0:
        errs.append("quantreg: the study reports subgradient violations")
    return errs


def compare_replay(cfg, study, rep: int, result) -> list[str]:
    """The replayed replication must fail exactly where the study failed and
    give every estimate the study kept for it, to 1e-9 relative."""
    failures = study["studies"][0]["failures"]
    errs = []
    want = sorted(f["method"] for f in failures if f["rep"] == rep)
    got = sorted(m for m, _ in result["failures"])
    if want != got:
        errs.append(f"experiment: rep {rep} failed {got} in the replay but {want} in the study: {result['failures']}")
    failed = failed_reps(failures)
    for kind, cells in (("marginal", result["marginal"]), ("conditional", result["conditional"])):
        for (method, a, tau), value in cells.items():
            key = (method, a, tau, "") if kind == "marginal" else (method, cfg.eval_week_conditional, tau, a)
            kept = study["replicates"].get(key)
            if kept is not None:
                kept = kept[rep - sum(r < rep for r in failed.get(method, ()))]
            if kept is None or not oracles.close(value, kept):
                errs.append(f"experiment: rep {rep} cell {key} replays to {value!r}, study kept {kept!r}")
    return errs


def compare_aggregate(cfg, study, results) -> list[str]:
    """Means and SDs over the replayed replications equal the summary rows."""
    errs = []
    for row in study["studies"][0]["rows"]:
        method, week, tau, path = row[:4]
        values = [
            r["marginal"].get((method, week, tau)) if not path else r["conditional"].get((method, path, tau))
            for r in results
        ]
        values = [v for v in values if v is not None]
        sd = statistics.stdev(values) if len(values) > 1 else 0.0
        if len(values) != row[6] or not (
            oracles.close(statistics.fmean(values), row[4]) and oracles.close(sd, row[5])
        ):
            errs.append(f"experiment: replayed cell {tuple(row[:4])} differs from the summary")
    return errs


def percentile(values, q: float, min_beyond: int = 10) -> float:
    """q-th percentile, only where at least `min_beyond` samples lie above it."""
    if len(values) * (1.0 - q / 100.0) < min_beyond:
        raise ValueError(f"{len(values)} samples leave fewer than {min_beyond} beyond p{q:g}")
    return float(statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1])


def layer_metrics(spans, counts, design: dict, study_s: float) -> dict:
    """Per-layer metrics from the spans of the traced replay rounds and the
    median untraced study time of the same design."""
    from replay import PROBES

    calls: dict[str, list[float]] = {}
    per_rep: dict[str, dict] = {}
    for rnd, rep, name, parent, t0, t1 in spans:
        ms = (t1 - t0) / 1e6
        calls.setdefault(name, []).append(ms)
        sums = per_rep.setdefault(name, {})
        sums[rnd, rep] = sums.get((rnd, rep), 0.0) + ms
    per_rep = {name: list(sums.values()) for name, sums in per_rep.items()}
    reps = len(calls["experiment.replication"])
    layer_ms = sum(
        sum(v) for name, v in calls.items() if name not in PROBES and name != "experiment.replication"
    )
    serial_ms = design["workers"] * study_s * 1e3 * reps / design["n_reps"]
    med = statistics.median
    metrics = {
        "cohort.generate_ms": (med(calls["cohort.generate"]), "ms"),
        "cohort.pairs_adjacent_ms": (med(calls["cohort.pairs_adjacent"]), "ms"),
        "cohort.pairs_successive_ms": (med(calls["cohort.pairs_successive"]), "ms"),
        "cohort.observations": (med(c["observations"] for c in counts), "count"),
        "cohort.pairs_adjacent": (med(c["pairs_adjacent"] for c in counts), "count"),
        "cohort.pairs_successive": (med(c["pairs_successive"] for c in counts), "count"),
        "splines.design_row_us": (med(calls["splines.design_row"]) * 1e3, "us"),
        "splines.design_row_us.p90": (percentile(calls["splines.design_row"], 90) * 1e3, "us"),
        "splines.design_obs_ms": (med(calls["splines.design_obs"]), "ms"),
        "quantreg.marginal_fit_ms": (med(calls["quantreg.fit_marginal"]), "ms"),
        "quantreg.conditional_fit_ms": (med(calls["quantreg.fit_conditional"]), "ms"),
        "quantreg.predict_us": (med(calls["quantreg.predict"]) * 1e3, "us"),
        "quantreg.predict_us.p75": (percentile(calls["quantreg.predict"], 75) * 1e3, "us"),
        "quantreg.crossings_ms": (med(calls["quantreg.crossings"]), "ms"),
        "quantreg.subgradient_violations": (sum(c["qr_subgradient_violations"] for c in counts), "count"),
        "lms.fit_ms": (med(calls["lms.fit"]), "ms"),
        "lms.newton_decrement": (
            med(c["lms_newton_decrement"] for c in counts if c["lms_newton_decrement"] is not None), "nat"
        ),
        "lms.centile_ms": (med(per_rep["lms.centile"]), "ms"),
        "lms.condition_ms": (med(per_rep["lms.condition"]), "ms"),
        "mvn.fit_ms": (med(calls["mvn.fit"]), "ms"),
        "mvn.centile_ms": (med(per_rep["mvn.centile"]), "ms"),
        "experiment.layer_ms_per_rep": (layer_ms / reps, "ms"),
        "experiment.overhead_ms_per_rep": ((serial_ms - layer_ms) / reps, "ms"),
        "experiment.pool_efficiency": (layer_ms / serial_ms, "ratio"),
    }
    return {k: (float(v), u) for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    locate_program(root)
    from centilebench.experiment import ExperimentConfig

    import replay as rp
    import study as st

    machine = machine_record()
    design = design_of(args.workload, args.seed)
    cfg = ExperimentConfig(**design)
    print("machine: " + json.dumps(machine, sort_keys=True))
    print("design: " + json.dumps(design, sort_keys=True))
    sys.stdout.flush()

    tracer = rp.Tracer()
    if args.trace:
        # Rounds of one untraced study and one traced replay of its
        # replications, in this process: alternating the two exposes them
        # to the same machine conditions.
        reps = range(cfg.n_reps)
        rounds = st.repeat(
            args.seconds, lambda: (st.one_study(cfg), rp.replay_calls(cfg, reps, tracer))
        )
        setup = []
        study = dict(rounds[0][0], studies=[s for s, _ in rounds])
        outputs = rounds[0][1]
    else:
        setup = setup_seconds(root, design)
        study = run_studies(root, design, args.seconds)
        reps = [args.seed % cfg.n_reps]
        outputs = rp.replay_calls(cfg, reps, tracer)
    errs = check_study(cfg, study) + rp.check_basis_grid(cfg.spline)
    results = rp.check_replay(cfg, outputs)
    for rep, res in zip(reps, results):
        errs += res["errors"] + compare_replay(cfg, study, rep, res)
    if args.trace:
        errs += compare_aggregate(cfg, study, results)

    studies = study["studies"]
    if args.trace:
        metrics = layer_metrics(
            tracer.spans, [r["counts"] for r in results], design,
            statistics.median(s["study_s"] for s in studies),
        )
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "study_s": (statistics.median(s["study_s"] for s in studies), "s"),
            "cpu_s": (statistics.median(s["cpu_s"] for s in studies), "s"),
            "peak_rss_mb": (max(study["peak_rss_parent_mb"], study["peak_rss_worker_mb"]), "MB"),
        }
    attempted = len(studies) * cfg.n_reps * len(cfg.methods)
    failed = sum(len(s["failures"]) for s in studies)

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "machine": machine, "design": design, "seconds": args.seconds, "setup_s": setup,
        "studies": [{k: s[k] for k in ("study_s", "cpu_s")} for s in studies],
        "peak_rss_parent_mb": study.get("peak_rss_parent_mb"),
        "peak_rss_worker_mb": study.get("peak_rss_worker_mb"),
        "metrics": metrics, "errors": errs,
    }
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        spans = [
            {"round": k, "rep": r, "name": n, "parent": p, "start_ns": a, "end_ns": b}
            for k, r, n, p, a, b in tracer.spans
        ]
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"design": design, "spans": spans}, fh)

    for msg in errs:
        print("CHECK FAILED: " + msg, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not errs,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not errs else 1


if __name__ == "__main__":
    sys.exit(main())

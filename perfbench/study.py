"""Untraced study runs, in a process of their own.

Usage: python3 perfbench/study.py '<ExperimentConfig keywords as JSON>' SECONDS

Imports the package from ./src, then calls
`experiment.run_both_experiments` on the design again and again for about
SECONDS (always at least once). Each study records its wall time and the
CPU time of this process and its pool workers. The process has no other children, so its peak resident memory and
that of its reaped children are the parent's and the largest pool worker's.
Prints one JSON line: the timings, the peaks, every study's table rows and
the first study's per-replication estimates.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from centilebench.experiment import ExperimentConfig, run_both_experiments  # noqa: E402


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def rows_of(summary) -> list:
    return [
        [r.method, r.week, r.tau, r.path, r.mean_mmhg, r.sd_mmhg, r.n_reps]
        for r in summary.rows
    ]


def one_study(cfg) -> dict:
    """One call of run_both_experiments: its wall and CPU time and outputs."""
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    marg, cond = run_both_experiments(cfg, keep_replicates=True)
    t1 = time.perf_counter()
    c1 = cpu_seconds()
    return {
        "study_s": t1 - t0,
        "cpu_s": c1 - c0,
        "rows": rows_of(marg) + rows_of(cond),
        "failures": list(marg.failures),
        "diagnostics": marg.diagnostics,
        "replicates": {**marg.replicates, **cond.replicates},
    }


def repeat(seconds: float, fn) -> list:
    """Call fn at least once, and again while the next call is expected to
    end within `seconds` of the first."""
    out = []
    start = time.perf_counter()
    last = 0.0
    while not out or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        out.append(fn())
        last = time.perf_counter() - t0
    return out


def main() -> None:
    cfg = ExperimentConfig(**json.loads(sys.argv[1]))
    studies = repeat(float(sys.argv[2]), lambda: one_study(cfg))
    first = studies[0]
    kib = 1024.0
    out = {
        "studies": [
            {k: s[k] for k in ("study_s", "cpu_s", "rows", "failures")} for s in studies
        ],
        "peak_rss_parent_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib,
        "peak_rss_worker_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kib,
        "diagnostics": first["diagnostics"],
        "replicates": [[list(k), [float(v) for v in vals]] for k, vals in first["replicates"].items()],
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()

import numpy as np
import pytest

from centilebench.cohort import Cohort, VisitSchedule, generate_cohort
from centilebench.model import LognormalAR1Model
from centilebench.numerics import RngStream
from centilebench.splines import SplineSpec

# Fixed seed for the shared truth-recovery cohort; estimator recovery bounds
# in the tests are frozen against this draw.
RECOVERY_SEED = 404


@pytest.fixture(scope="session")
def model():
    return LognormalAR1Model()


@pytest.fixture(scope="session")
def schedule():
    return VisitSchedule()


@pytest.fixture(scope="session")
def spec5():
    return SplineSpec()


@pytest.fixture(scope="session")
def recovery_cohort(model, schedule):
    """One 1000-subject cohort reused by the estimator recovery tests."""
    return generate_cohort(model, schedule, 1000, RngStream(RECOVERY_SEED).child(0))


@pytest.fixture(scope="session")
def big_cohort(model, schedule):
    """100k-subject cohort for the distributional checks on generation."""
    return generate_cohort(model, schedule, 100_000, RngStream(987).child(0))


def true_log_mean(t):
    """Independent evaluation of the log-scale mean polynomial."""
    s = np.asarray(t, dtype=float) / 10.0
    return 4.247 - 0.019 * s**2 + 0.006 * s**3


def many_visit_cohort(model, n_visits, n_subjects, seed, attendance_prob=0.8):
    """A cohort built by hand with ``n_visits`` equal windows over the study
    window, where the study has five: one uniform time per window, the AR(1)
    stepped once per window, and an attendance coin per visit."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(16.0, 36.0, n_visits + 1)
    times = edges[:-1] + np.diff(edges) * rng.random((n_subjects, n_visits))
    innov = rng.standard_normal((n_subjects, n_visits))
    z = np.empty_like(innov)
    z[:, 0] = innov[:, 0]
    for j in range(1, n_visits):
        z[:, j] = model.rho * z[:, j - 1] + np.sqrt(1.0 - model.rho**2) * innov[:, j]
    values = np.exp(true_log_mean(times) + model.sigma * z)
    observed = rng.random((n_subjects, n_visits)) < attendance_prob
    return Cohort(times=times, values=values, observed=observed)


def summary_cell(summary, method, week, tau, path=""):
    """The row of a ReplicationSummary with this key, tau matched to 1e-12."""
    for row in summary.rows:
        if (
            row.method == method
            and row.week == week
            and abs(row.tau - tau) < 1e-12
            and row.path == path
        ):
            return row
    raise KeyError(f"no summary cell ({method}, {week}, {tau}, {path!r})")

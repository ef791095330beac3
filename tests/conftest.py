import numpy as np
import pytest

from centilebench.cohort import VisitSchedule, generate_cohort
from centilebench.model import LognormalAR1Model
from centilebench.numerics import RngStream
from centilebench.splines import SplineSpec

# Fixed seed for the shared truth-recovery cohort; estimator recovery bounds
# in the tests are frozen against this draw.
RECOVERY_SEED = 404

# Ten 2-week visit windows over the default span: weeks 22 and 26 are two
# intervals apart, 22 and 24 adjacent.
TWO_WEEK_SCHEDULE = VisitSchedule(
    windows=tuple((16.0 + 2 * k, 18.0 + 2 * k) for k in range(10))
)


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

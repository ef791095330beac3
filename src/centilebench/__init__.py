"""Workbench for longitudinal blood-pressure reference centiles.

Simulates antenatal blood-pressure cohorts under a lognormal AR(1) process,
fits marginal and conditional centile charts by quantile regression, the
LMS (Box-Cox) method and Gaussian maximum likelihood, and evaluates the
charts analytically as screening tools.
"""

__version__ = "0.1.0"

from .model import LognormalAR1Model, PercentilePath
from .cohort import VisitSchedule, Cohort, generate_cohort
from .splines import SplineSpec
from .numerics import RngStream
from .errors import FitError, ExperimentError

__all__ = [
    "LognormalAR1Model",
    "PercentilePath",
    "VisitSchedule",
    "Cohort",
    "generate_cohort",
    "SplineSpec",
    "RngStream",
    "FitError",
    "ExperimentError",
    "__version__",
]

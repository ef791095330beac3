"""The analytic truth: lognormal AR(1) blood-pressure process.

Log blood pressure at gestational age t weeks is normal with mean
mu(t) = c0 + c2*(t/10)^2 + c3*(t/10)^3 and constant standard deviation
sigma; standardized values in adjacent visit intervals follow a first-order
autoregression with correlation rho. ``VisitSchedule`` owns the visit
intervals, the study's five four-week windows over weeks 16-36, and the one
adjacency check: the truth layer, the cohort generator and the fitted
conditional centiles all read those windows. Everything else here is exact
closed-form math: marginal and conditional percentiles, and the conditional
ranks traced by drifting or jumping subject paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .numerics import _checked_real, std_normal_cdf, std_normal_quantile

__all__ = [
    "GA_WINDOW",
    "VisitSchedule",
    "LognormalAR1Model",
    "ConditionalParams",
    "PercentilePath",
    "log_mean",
    "marginal_percentile",
    "conditional_params",
    "conditional_percentile",
    "drift_conditional_ranks",
]

# Gestational-age study window (weeks): the truth is defined on it.
GA_WINDOW = (16.0, 36.0)


@dataclass(frozen=True)
class VisitSchedule:
    """The study's visit schedule: five four-week windows (half-open week
    intervals) over the study window, and the attendance probability, the
    one setting."""

    attendance_prob: float = 0.8
    windows: ClassVar[tuple[tuple[float, float], ...]] = tuple(
        (lo, lo + 4.0) for lo in (16.0, 20.0, 24.0, 28.0, 32.0)
    )
    n_intervals: ClassVar[int] = len(windows)

    def __post_init__(self):
        prob = _checked_real(self.attendance_prob, "attendance_prob")
        object.__setattr__(self, "attendance_prob", prob)
        if not 0.0 < self.attendance_prob <= 1.0:
            raise ValueError(
                f"attendance_prob must lie in (0, 1], got {self.attendance_prob!r}"
            )

    @classmethod
    def interval_index(cls, t):
        """0-based index of the window containing gestational age t.

        The last window is closed on the right so the study window's upper
        endpoint maps to the last visit; times outside the study window, and
        NaN, raise ValueError.
        """
        arr = _check_window(t)
        idx = np.searchsorted([lo for lo, _ in cls.windows], arr, side="right") - 1
        return int(idx) if arr.ndim == 0 else idx

    @classmethod
    def check_adjacent(cls, t_prev: float, t_cur: float) -> None:
        """Raise ValueError unless t_cur lies in the window right after
        t_prev's: the AR(1) links adjacent intervals only."""
        gap = cls.interval_index(t_cur) - cls.interval_index(t_prev)
        if gap != 1:
            raise ValueError(
                f"times {t_prev!r} and {t_cur!r} are {gap} visit intervals apart; "
                "conditional centiles are defined for adjacent intervals only"
            )


@dataclass(frozen=True)
class LognormalAR1Model:
    """Parameters of the generating process; defaults are the study model,
    which is defined on the study window ``GA_WINDOW``."""

    c0: float = 4.247
    c2: float = -0.019
    c3: float = 0.006
    sigma: float = 0.1
    rho: float = 0.6

    def __post_init__(self):
        for name in ("c0", "c2", "c3", "sigma", "rho"):
            object.__setattr__(self, name, _checked_real(getattr(self, name), name))
        for name in ("c0", "c2", "c3", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not abs(self.rho) < 1.0:
            raise ValueError(f"rho must lie strictly in (-1, 1), got {self.rho!r}")

    @property
    def sigma_cond(self) -> float:
        """Conditional log-scale SD for adjacent intervals: sigma*sqrt(1-rho^2)."""
        return self.sigma * math.sqrt(1.0 - self.rho * self.rho)


@dataclass(frozen=True)
class ConditionalParams:
    """Log-scale parameters of the distribution given the previous value."""

    mu_cond: float
    sigma_cond: float

    def __post_init__(self):
        if not self.sigma_cond > 0.0:
            raise ValueError("sigma_cond must be positive")


@dataclass(frozen=True)
class PercentilePath:
    """A subject trajectory given as marginal percentile ranks per visit."""

    times: tuple[float, ...]
    marginal_ranks: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(
            self, "marginal_ranks", tuple(float(r) for r in self.marginal_ranks)
        )
        if len(self.times) != len(self.marginal_ranks):
            raise ValueError("times and marginal_ranks must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if any(not 0.0 < r < 1.0 for r in self.marginal_ranks):
            raise ValueError("marginal ranks must lie strictly in (0, 1)")


def _check_window(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    lo, hi = GA_WINDOW
    # Written so that NaN, which compares false both ways, fails the test.
    if not np.all((arr >= lo) & (arr <= hi)):
        raise ValueError(
            f"gestational age {t!r} is not finite or lies outside the study "
            f"window [{lo}, {hi}]"
        )
    return arr


def log_mean(model: LognormalAR1Model, t):
    """Log-scale mean mu(t) = c0 + c2*(t/10)^2 + c3*(t/10)^3."""
    arr = _check_window(t)
    s = arr / 10.0
    out = model.c0 + model.c2 * s * s + model.c3 * s * s * s
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def marginal_percentile(model: LognormalAR1Model, t, tau: float):
    """Marginal tau-percentile in mmHg: exp(mu(t) + quantile(tau)*sigma)."""
    z = std_normal_quantile(tau)
    out = np.exp(log_mean(model, t) + z * model.sigma)
    return float(out) if np.isscalar(out) or np.ndim(out) == 0 else out


def conditional_params(
    model: LognormalAR1Model, t_prev: float, t_cur: float, y_prev: float
) -> ConditionalParams:
    """Log-scale parameters at t_cur given the adjacent-interval value y_prev."""
    VisitSchedule.check_adjacent(t_prev, t_cur)
    if not y_prev > 0.0:
        raise ValueError(f"previous blood pressure must be positive, got {y_prev!r}")
    mu_cond = log_mean(model, t_cur) + model.rho * (
        math.log(y_prev) - log_mean(model, t_prev)
    )
    return ConditionalParams(mu_cond=mu_cond, sigma_cond=model.sigma_cond)


def conditional_percentile(
    model: LognormalAR1Model, t_prev: float, t_cur: float, y_prev: float, tau
):
    """Conditional tau-percentile in mmHg at t_cur given y_prev at t_prev."""
    params = conditional_params(model, t_prev, t_cur, y_prev)
    z = std_normal_quantile(tau)
    out = np.exp(params.mu_cond + z * params.sigma_cond)
    return float(out) if np.ndim(out) == 0 else out


def drift_conditional_ranks(model: LognormalAR1Model, path: PercentilePath):
    """Conditional percentile ranks along a path of marginal ranks.

    For visits j >= 2 the rank is Phi((z_j - rho*z_{j-1}) / sqrt(1 - rho^2))
    with z_j the standard normal quantile of the j-th marginal rank; it
    depends only on the standardized path and rho, not on the mean curve.
    Times must lie in consecutive intervals of the visit schedule.
    """
    if len(path.times) < 2:
        raise ValueError("path needs at least two visits")
    for t_prev, t_cur in zip(path.times, path.times[1:]):
        VisitSchedule.check_adjacent(t_prev, t_cur)
    z = std_normal_quantile(np.array(path.marginal_ranks))
    denom = math.sqrt(1.0 - model.rho * model.rho)
    return std_normal_cdf((z[1:] - model.rho * z[:-1]) / denom)

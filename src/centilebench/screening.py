"""Diagnostic accuracy of conditional centile charts as screens.

A subject screens positive when their conditional percentile rank exceeds
the specificity centile x. Two disease scenarios have closed-form
sensitivity when the diseased group's log mean is shifted by ln(1+d):

    onset at the screened visit:
        Phi( ln(1+d) / (sigma * sqrt(1 - rho^2)) - Phi^-1(x) )
    constant shift at every visit:
        Phi( ln(1+d) * sqrt(1-rho) / (sigma * sqrt(1+rho)) - Phi^-1(x) )

Both invert exactly for the mean difference d required to hit target
sensitivity and specificity. A Monte Carlo evaluator simulates both arms
under the true process (charts are taken as exact) and supports repeated
screening, where flagging on any visit trades specificity for sensitivity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import LognormalAR1Model, VisitSchedule, log_mean
from .numerics import RngStream, draw_normal, std_normal_cdf, std_normal_quantile

__all__ = [
    "ShiftMode",
    "ScreeningConfig",
    "ScreeningResult",
    "sensitivity_closed_form",
    "required_difference",
    "absolute_shift_report",
    "monte_carlo_screen",
]


class ShiftMode(enum.Enum):
    """How the diseased group's mean deviates from the normal group's."""

    ONSET_AT_SCREEN = "OnsetAtScreen"
    CONSTANT_SHIFT = "ConstantShift"


@dataclass(frozen=True)
class ScreeningConfig:
    """One closed-form screening scenario."""

    d: float
    sigma: float
    rho: float
    specificity: float
    mode: ShiftMode

    def __post_init__(self):
        if self.d < 0.0:
            raise ValueError(f"fractional mean difference d must be >= 0, got {self.d!r}")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if not abs(self.rho) < 1.0:
            raise ValueError("rho must lie strictly in (-1, 1)")
        if not 0.0 < self.specificity < 1.0:
            raise ValueError("specificity must lie strictly in (0, 1)")


@dataclass(frozen=True)
class ScreeningResult:
    """Empirical screening accuracy from a simulated pair of arms."""

    sensitivity: float
    specificity: float
    n_diseased: int
    n_normal: int
    ci_halfwidth: float


def _scale_factor(sigma: float, rho: float, mode: ShiftMode) -> float:
    if mode is ShiftMode.ONSET_AT_SCREEN:
        return sigma * math.sqrt(1.0 - rho * rho)
    return sigma * math.sqrt((1.0 + rho) / (1.0 - rho))


def sensitivity_closed_form(cfg: ScreeningConfig) -> float:
    """Sensitivity of a single conditional-centile screen at the configured
    specificity, under the scenario selected by the mode."""
    shift = math.log1p(cfg.d) / _scale_factor(cfg.sigma, cfg.rho, cfg.mode)
    return std_normal_cdf(shift - std_normal_quantile(cfg.specificity))


def required_difference(
    target_sens: float, target_spec: float, sigma: float, rho: float, mode: ShiftMode
) -> float:
    """Fractional mean difference d achieving the target accuracy; exact
    inverse of sensitivity_closed_form."""
    for name, p in (("sensitivity", target_sens), ("specificity", target_spec)):
        if not 0.0 < p < 1.0:
            raise ValueError(f"target {name} must lie strictly in (0, 1), got {p!r}")
    k = _scale_factor(sigma, rho, mode)
    return math.expm1(
        k * (std_normal_quantile(target_sens) + std_normal_quantile(target_spec))
    )


def absolute_shift_report(
    model: LognormalAR1Model, t: float, d: float
) -> tuple[float, float]:
    """Translate a fractional mean difference at age t into absolute units.

    Returns (difference in mmHg, difference in cross-sectional SD units),
    using the lognormal mean exp(mu + sigma^2/2) and its SD.
    """
    if d < 0.0:
        raise ValueError(f"d must be >= 0, got {d!r}")
    mean_t = math.exp(log_mean(model, t) + model.sigma ** 2 / 2.0)
    sd_t = mean_t * math.sqrt(math.expm1(model.sigma ** 2))
    abs_diff = d * mean_t
    return abs_diff, abs_diff / sd_t


def monte_carlo_screen(
    model: LognormalAR1Model,
    d: float,
    mode: ShiftMode,
    screen_weeks,
    x: float,
    n_per_arm: int,
    stream: RngStream,
) -> ScreeningResult:
    """Simulate a screening study and report empirical accuracy.

    ``screen_weeks`` lists the 1-based visit numbers at which the
    conditional chart is consulted; each must have a preceding visit, so
    valid entries are whole numbers from 2 to the ``VisitSchedule``'s
    number of visit intervals (5). A subject screens positive if the
    true-model conditional rank exceeds x at any screened visit. The diseased arm's log mean is shifted by ln(1+d) at
    every visit for the constant-shift mode, and from the first screened
    visit onward for the onset mode. Arms use the child streams 0 and 1 of
    ``stream``; results are deterministic given the descriptor.
    """
    if d < 0.0:
        raise ValueError(f"d must be >= 0, got {d!r}")
    if not 0.0 < x < 1.0:
        raise ValueError(f"specificity centile x must lie strictly in (0, 1), got {x!r}")
    if n_per_arm < 1000:
        raise ValueError(f"n_per_arm must be at least 1000, got {n_per_arm!r}")
    n_intervals = VisitSchedule.n_intervals
    if not all(float(w).is_integer() for w in screen_weeks):
        raise ValueError(f"screen visits must be whole numbers, got {screen_weeks!r}")
    screens = sorted(int(w) for w in screen_weeks)
    if not screens:
        raise ValueError("need at least one screen visit")
    if any(s < 2 or s > n_intervals for s in screens):
        raise ValueError(
            f"screen visits must lie in 2..{n_intervals} (each screen conditions "
            f"on the previous visit), got {screen_weeks!r}"
        )

    rho = model.rho
    carry = math.sqrt(1.0 - rho * rho)
    delta = math.log1p(d) / model.sigma
    onset_interval = screens[0] - 1  # 0-based interval of the first screen

    def positive_fraction(arm: int, diseased: bool) -> float:
        innov = draw_normal(stream.child(arm), (n_per_arm, n_intervals))
        z = np.empty_like(innov)
        z[:, 0] = innov[:, 0]
        for j in range(1, n_intervals):
            z[:, j] = rho * z[:, j - 1] + carry * innov[:, j]
        if diseased:
            if mode is ShiftMode.CONSTANT_SHIFT:
                z = z + delta
            else:
                z[:, onset_interval:] += delta
        flagged = np.zeros(n_per_arm, dtype=bool)
        threshold = std_normal_quantile(x)
        for s in screens:
            j = s - 1
            cond_score = (z[:, j] - rho * z[:, j - 1]) / carry
            flagged |= cond_score > threshold
        return float(np.mean(flagged))

    spec_emp = 1.0 - positive_fraction(0, diseased=False)
    sens_emp = positive_fraction(1, diseased=True)
    halfwidth = 1.96 * max(
        math.sqrt(max(sens_emp * (1.0 - sens_emp), 1e-12) / n_per_arm),
        math.sqrt(max(spec_emp * (1.0 - spec_emp), 1e-12) / n_per_arm),
    )
    return ScreeningResult(
        sensitivity=sens_emp,
        specificity=spec_emp,
        n_diseased=n_per_arm,
        n_normal=n_per_arm,
        ci_halfwidth=halfwidth,
    )

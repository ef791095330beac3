"""Diagnostic accuracy of conditional centile charts as screens.

A subject screens positive when their conditional percentile rank exceeds
the specificity centile x. Two disease scenarios have closed-form
sensitivity when the diseased group's log mean is shifted by ln(1+d):

    onset at the screened visit:
        Phi( ln(1+d) / (sigma * sqrt(1 - rho^2)) - Phi^-1(x) )
    constant shift at every visit:
        Phi( ln(1+d) * sqrt(1-rho) / (sigma * sqrt(1+rho)) - Phi^-1(x) )

Both invert exactly for the mean difference d required to hit target
sensitivity and specificity. The screening report gives that d for 90/90
accuracy under both scenarios, its size in mmHg and SD units at week 26,
and pass flags against the reference values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .model import LognormalAR1Model, log_mean
from .numerics import std_normal_cdf, std_normal_quantile

__all__ = [
    "ShiftMode",
    "ScreeningConfig",
    "sensitivity_closed_form",
    "required_difference",
    "absolute_shift_report",
    "run_screening_report",
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
        if not 0.0 <= self.d < math.inf:
            raise ValueError(
                f"fractional mean difference d must be >= 0 and finite, got {self.d!r}"
            )
        if not 0.0 < self.specificity < 1.0:
            raise ValueError("specificity must lie strictly in (0, 1)")


def _scale_factor(sigma: float, rho: float, mode: ShiftMode) -> float:
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if not abs(rho) < 1.0:
        raise ValueError("rho must lie strictly in (-1, 1)")
    if mode is ShiftMode.ONSET_AT_SCREEN:
        return sigma * math.sqrt(1.0 - rho * rho)
    if mode is ShiftMode.CONSTANT_SHIFT:
        return sigma * math.sqrt((1.0 + rho) / (1.0 - rho))
    raise ValueError(f"mode must be a ShiftMode, got {mode!r}")


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
    if not 0.0 <= d < math.inf:
        raise ValueError(f"d must be >= 0 and finite, got {d!r}")
    mean_t = math.exp(log_mean(model, t) + model.sigma ** 2 / 2.0)
    sd_t = mean_t * math.sqrt(math.expm1(model.sigma ** 2))
    abs_diff = d * mean_t
    return abs_diff, abs_diff / sd_t


_SCREENING_TARGET = 0.9
_SCREENING_WEEK = 26.0
# Headline screening checks: quantity, mode, computed-value key, reference,
# tolerance.
_SCREENING_CHECKS = (
    ("required_difference_onset", ShiftMode.ONSET_AT_SCREEN, "d", 0.2276, 0.001),
    ("abs_diff_mmhg_onset", ShiftMode.ONSET_AT_SCREEN, "abs_diff_mmhg", 15.6, 0.1),
    ("sd_units_onset", ShiftMode.ONSET_AT_SCREEN, "sd_units", 2.3, 0.05),
    ("required_difference_constant", ShiftMode.CONSTANT_SHIFT, "d", 0.6696, 0.002),
)


def run_screening_report(model: LognormalAR1Model) -> dict:
    """Required mean differences for 90/90 accuracy and their absolute-scale
    translations, with pass flags against the reference values."""
    entries = {}
    for mode in ShiftMode:
        d = required_difference(
            _SCREENING_TARGET, _SCREENING_TARGET, model.sigma, model.rho, mode
        )
        sens = sensitivity_closed_form(
            ScreeningConfig(
                d=d, sigma=model.sigma, rho=model.rho,
                specificity=_SCREENING_TARGET, mode=mode,
            )
        )
        abs_diff, sd_units = absolute_shift_report(model, _SCREENING_WEEK, d)
        entries[mode] = {
            "mode": mode.value,
            "d": d,
            "sigma": model.sigma,
            "rho": model.rho,
            "specificity": _SCREENING_TARGET,
            "sensitivity": sens,
            "abs_diff_mmhg": abs_diff,
            "sd_units": sd_units,
        }
    checks = [
        {
            "quantity": quantity,
            "computed": entries[mode][key],
            "reference": reference,
            "tolerance": tolerance,
            "pass": bool(abs(entries[mode][key] - reference) <= tolerance),
        }
        for quantity, mode, key, reference, tolerance in _SCREENING_CHECKS
    ]
    return {"entries": list(entries.values()), "checks": checks}

"""LMS (Box-Cox) centile estimation.

The measurement distribution at age t is summarized by a skewness power
L(t), median M(t) and coefficient of variation S(t), each a spline in age;
an observation maps to its z-score

    z = ((y / M)^L - 1) / (L * S)      (log form as L -> 0)

and the three curves are estimated jointly by unpenalized maximum
likelihood. M and S are fitted through log links so they stay positive; L
is fitted directly with its coefficients boxed to [-3, 3]. Conditional
centiles chain a first-order autoregression of lag-1 z-scores through the
inverse transform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .cohort import PairSet, VisitSchedule
from .errors import FitError
from .numerics import std_normal_quantile
from .splines import SplineSpec, design_matrix

__all__ = [
    "LMSFit",
    "fit_lms",
    "lms_zscore",
    "lms_centile",
    "lms_conditional_centile",
    "zscore_pairs",
    "fit_ar1_z",
]

# Below this |L| the Box-Cox transform switches to its log-form limit.
_L_EPS = 1e-4

_L_BOUND = 3.0
_LNM_BOUNDS = (0.0, 10.0)
_LNS_BOUNDS = (np.log(1e-4), np.log(2.0))


@dataclass(frozen=True)
class LMSFit:
    """Fitted L/M/S spline coefficients; M and S are stored on the log scale."""

    spec: SplineSpec
    l_coefs: tuple[float, ...]
    m_coefs: tuple[float, ...]  # coefficients of ln M(t)
    s_coefs: tuple[float, ...]  # coefficients of ln S(t)

    def curves_at(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L, M, S) evaluated at the given ages."""
        basis = design_matrix(self.spec, t)
        return (
            basis @ np.asarray(self.l_coefs),
            np.exp(basis @ np.asarray(self.m_coefs)),
            np.exp(basis @ np.asarray(self.s_coefs)),
        )

    def to_dict(self, rho_hat: float | None = None) -> dict:
        out = {
            "knots": list(self.spec.knots),
            "l_coefs": list(self.l_coefs),
            "m_coefs": list(self.m_coefs),
            "s_coefs": list(self.s_coefs),
        }
        if rho_hat is not None:
            out["rho_hat"] = rho_hat
        return out

    def to_json(self, rho_hat: float | None = None) -> str:
        return json.dumps(self.to_dict(rho_hat), sort_keys=True)


def _boxcox_z(L, S, u):
    """z-scores from log-ratios u = ln(y/M), elementwise in L."""
    big = np.abs(L) > _L_EPS
    l_safe = np.where(big, L, 1.0)
    return np.where(big, np.expm1(L * u) / (l_safe * S), u / S)


def _nll_and_grad(x, basis, ln_y):
    k = basis.shape[1]
    L = basis @ x[:k]
    ln_m = basis @ x[k : 2 * k]
    ln_s = basis @ x[2 * k :]
    S = np.exp(ln_s)
    u = ln_y - ln_m

    big = np.abs(L) > _L_EPS
    l_safe = np.where(big, L, 1.0)
    w = np.exp(L * u)
    z = np.where(big, (w - 1.0) / (l_safe * S), u / S)

    ll = L * u - ln_s - 0.5 * z * z
    d_l = np.where(
        big,
        u - z * (u * w / (l_safe * S) - z / l_safe),
        u - u ** 3 / (2.0 * S * S),
    )
    d_lnm = np.where(big, z * w / S - L, z / S - L)
    d_lns = z * z - 1.0

    grad = np.concatenate([basis.T @ d_l, basis.T @ d_lnm, basis.T @ d_lns])
    return -np.sum(ll), -grad


def fit_lms(times, values, spec: SplineSpec) -> LMSFit:
    """Maximize the Box-Cox normal likelihood over the L/M/S coefficients.

    Starts from L identically zero, the least-squares log-median curve, and
    a constant S equal to the SD of the log residuals, then runs bounded
    L-BFGS-B with analytic gradients. The relative log-likelihood change at
    termination is below 1e-9; non-convergence raises FitError with the
    optimizer's diagnostics.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size != y.size:
        raise ValueError("times and values must have equal length")
    if t.size < 3 * spec.n_basis:
        raise ValueError(
            f"need at least 3*n_basis={3 * spec.n_basis} observations, got {t.size}"
        )
    if np.any(y <= 0.0):
        raise ValueError("all measurements must be positive")

    basis = design_matrix(spec, t)
    ln_y = np.log(y)
    m0, *_ = np.linalg.lstsq(basis, ln_y, rcond=None)
    m0 = np.clip(m0, *_LNM_BOUNDS)
    s0 = np.clip(np.log(max(float(np.std(ln_y - basis @ m0)), 1e-3)), *_LNS_BOUNDS)
    k = spec.n_basis
    x0 = np.concatenate([np.zeros(k), m0, np.full(k, s0)])
    bounds = (
        [(-_L_BOUND, _L_BOUND)] * k
        + [_LNM_BOUNDS] * k
        + [_LNS_BOUNDS] * k
    )
    options = {"maxiter": 2000, "ftol": 1e-9, "gtol": 1e-7}

    def run(start):
        return minimize(
            _nll_and_grad, start, args=(basis, ln_y), jac=True,
            method="L-BFGS-B", bounds=bounds, options=options,
        )

    res = run(x0)
    if not res.success:
        # A failed line search near the optimum reports an abnormal stop;
        # restart with fresh curvature memory and accept if no further
        # relative improvement is available (the convergence rule itself).
        retry = run(res.x)
        improvement = (res.fun - retry.fun) / max(abs(res.fun), abs(retry.fun), 1.0)
        if not retry.success and improvement > 1e-9:
            raise FitError(
                f"LMS likelihood maximization did not converge after "
                f"{res.nit}+{retry.nit} iterations: {retry.message}; "
                f"best nll {retry.fun:.6f}"
            )
        res = retry if retry.fun <= res.fun else res
    return LMSFit(
        spec=spec,
        l_coefs=tuple(res.x[:k]),
        m_coefs=tuple(res.x[k : 2 * k]),
        s_coefs=tuple(res.x[2 * k :]),
    )


def lms_zscore(fit: LMSFit, t, y):
    """z-score of measurement y at age t under the fitted L/M/S curves."""
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0.0):
        raise ValueError("measurements must be positive")
    L, M, S = fit.curves_at(np.atleast_1d(t))
    out = _boxcox_z(L, S, np.log(y_arr / M))
    return float(out[0]) if np.ndim(t) == 0 and np.ndim(y) == 0 else out


def _from_zscore(L: float, M: float, S: float, z: float) -> float:
    """Inverse Box-Cox transform of a z-score; exact inverse of the forward map."""
    if abs(L) > _L_EPS:
        arg = 1.0 + L * S * z
        if arg <= 0.0:
            raise ValueError(
                f"z-score {z:.4f} is outside the Box-Cox domain at L={L:.4f}, "
                f"S={S:.4f} (1 + L*S*z = {arg:.4g} <= 0)"
            )
        return float(M * arg ** (1.0 / L))
    return float(M * np.exp(S * z))


def lms_centile(fit: LMSFit, t: float, tau: float) -> float:
    """Marginal tau-centile: the inverse transform of the normal quantile."""
    L, M, S = fit.curves_at(t)
    return _from_zscore(float(L[0]), float(M[0]), float(S[0]), std_normal_quantile(tau))


def lms_conditional_centile(
    fit: LMSFit,
    rho_hat: float,
    t_prev: float,
    y_prev: float,
    t_cur: float,
    tau: float,
    *,
    schedule: VisitSchedule = VisitSchedule(),
) -> float:
    """Conditional tau-centile at t_cur given y_prev in the interval before.

    The previous value is scored, shrunk by rho_hat, combined with the
    standard normal quantile at the conditional scale sqrt(1 - rho_hat^2),
    and mapped back through the inverse transform at t_cur. Adjacency is
    judged on ``schedule``, the one rho_hat was estimated over.
    """
    if not abs(rho_hat) < 1.0:
        raise ValueError(f"rho_hat must lie strictly in (-1, 1), got {rho_hat!r}")
    if schedule.interval_index(t_cur) - schedule.interval_index(t_prev) != 1:
        raise ValueError(
            f"times {t_prev!r} and {t_cur!r} are not in adjacent visit intervals"
        )
    z_prev = lms_zscore(fit, t_prev, y_prev)
    z_cond = rho_hat * z_prev + std_normal_quantile(tau) * np.sqrt(
        1.0 - rho_hat * rho_hat
    )
    L, M, S = fit.curves_at(t_cur)
    return _from_zscore(float(L[0]), float(M[0]), float(S[0]), float(z_cond))


def zscore_pairs(fit: LMSFit, pairs: PairSet) -> tuple[np.ndarray, np.ndarray]:
    """z-scores of the earlier and later measurements of each lag-1 pair.

    The autoregression is defined for adjacent intervals, so pairs spanning
    a missed visit are rejected.
    """
    if len(pairs) and np.any(pairs.gap != 1):
        raise ValueError(
            "z-score pairs must be exactly one visit interval apart; "
            "build them with pair_set(max_gap=1)"
        )
    return (
        lms_zscore(fit, pairs.t_prev, pairs.y_prev),
        lms_zscore(fit, pairs.t_cur, pairs.y_cur),
    )


def fit_ar1_z(z_prev, z_cur) -> float:
    """Lag-1 autocorrelation of z-scores: the Pearson correlation, clamped.

    Requires at least 10 pairs and nonzero variance in both coordinates.
    """
    zp = np.asarray(z_prev, dtype=float)
    zc = np.asarray(z_cur, dtype=float)
    if zp.size != zc.size:
        raise ValueError("z_prev and z_cur must have equal length")
    if zp.size < 10:
        raise ValueError(f"need at least 10 z-score pairs, got {zp.size}")
    sd_p = np.std(zp)
    sd_c = np.std(zc)
    if sd_p == 0.0 or sd_c == 0.0:
        raise ValueError("z-score pairs have zero variance in one coordinate")
    rho = float(np.mean((zp - zp.mean()) * (zc - zc.mean())) / (sd_p * sd_c))
    return float(np.clip(rho, -0.999, 0.999))

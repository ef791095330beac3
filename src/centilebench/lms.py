"""LMS (Box-Cox) centile estimation.

The measurement distribution at age t is summarized by a skewness power
L(t), median M(t) and coefficient of variation S(t), each a spline in age;
an observation maps to its z-score

    z = ((y / M)^L - 1) / (L * S) = u * E(L * u) / S,    u = ln(y / M),

with E(x) = expm1(x) / x and E(0) = 1, so the transform and its
derivatives are smooth through L = 0. The three curves are estimated
jointly by unpenalized maximum likelihood. M and S are fitted through log
links so they stay positive; L is fitted directly with its coefficients
boxed to [-3, 3]. The likelihood is maximized by Newton's method with the
analytic Hessian, as Cole & Green (1992) fit LMS curves by Newton-type
scoring, with the box handled by projection (Bertsekas 1982). Conditional
centiles chain a first-order autoregression of lag-1 z-scores through the
inverse transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import PairSet, VisitSchedule
from .errors import FitError
from .numerics import std_normal_quantile
from .splines import SplineSpec, _checked_basis, design_matrix, spline_values

__all__ = [
    "LMSFit",
    "fit_lms",
    "lms_zscore",
    "lms_centile",
    "lms_conditional_centile",
    "zscore_pairs",
    "fit_ar1_z",
]

_L_BOUND = 3.0
_LNM_BOUNDS = (0.0, 10.0)
_LNS_BOUNDS = (np.log(1e-4), np.log(2.0))

# Below this |x| the derivatives of E(x) are summed as Taylor series, whose
# closed forms lose digits to cancellation near 0.
_SERIES_CUTOFF = 1e-2
_SERIES_TERMS = 8

# Newton stops once the predicted gain of a step (the Newton decrement
# g'H^-1 g / 2) is at most this fraction of max(|nll|, 1).
_DECREMENT_RTOL = 1e-10
_MAX_NEWTON_STEPS = 50
_MAX_HALVINGS = 60
_ARMIJO = 1e-4


@dataclass(frozen=True)
class LMSFit:
    """Fitted L/M/S spline coefficients; M and S are stored on the log scale.

    ``newton_steps`` counts the Newton steps the fit took; it is a solver
    diagnostic and not part of the serialized fit.
    """

    spec: SplineSpec
    l_coefs: tuple[float, ...]
    m_coefs: tuple[float, ...]  # coefficients of ln M(t)
    s_coefs: tuple[float, ...]  # coefficients of ln S(t)
    newton_steps: int = 0

    def curves_at(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L, M, S) evaluated at the given ages."""
        return self._curves_on(design_matrix(self.spec, t))

    def _curves_on(self, basis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L, M, S) at the ages whose basis rows are ``basis``."""
        return (
            basis @ np.asarray(self.l_coefs),
            np.exp(basis @ np.asarray(self.m_coefs)),
            np.exp(basis @ np.asarray(self.s_coefs)),
        )


def _expm1_ratio(x):
    """E(x) = expm1(x) / x elementwise, with E(0) = 1; accurate for every x."""
    zero = x == 0.0
    return np.where(zero, 1.0, np.expm1(x) / np.where(zero, 1.0, x))


def _expm1_ratio_derivs(x):
    """E(x) and its first two derivatives, E' = (e^x - E) / x and
    E'' = (e^x - 2E') / x, elementwise, and e^x.

    Below _SERIES_CUTOFF the derivatives come from the Taylor series
    E^(j)(x) = sum_m x^m / (m! (m + j + 1)), which is exact to rounding there.
    """
    e0 = _expm1_ratio(x)
    small = np.abs(x) < _SERIES_CUTOFF
    xs = np.where(small, 1.0, x)
    ex = np.exp(x)
    e1 = (ex - e0) / xs
    e2 = (ex - 2.0 * e1) / xs
    if np.any(small):
        xm = x[small]
        s1 = np.zeros_like(xm)
        s2 = np.zeros_like(xm)
        for m in reversed(range(_SERIES_TERMS)):
            m_fact = math.factorial(m)
            s1 = s1 * xm + 1.0 / (m_fact * (m + 2))
            s2 = s2 * xm + 1.0 / (m_fact * (m + 3))
        e1[small] = s1
        e2[small] = s2
    return e0, e1, e2, ex


def _boxcox_z(L, S, u):
    """z-scores from log-ratios u = ln(y/M), elementwise in L."""
    return u * _expm1_ratio(L * u) / S


def _curves(x, basis):
    """L, ln M and ln S at the basis rows for the stacked coefficients x."""
    eta = basis @ x.reshape(3, -1).T
    return eta[:, 0], eta[:, 1], eta[:, 2]


def _nll(x, basis, ln_y) -> float:
    """Negative Box-Cox log-likelihood, up to a constant that depends on y."""
    L, ln_m, ln_s = _curves(x, basis)
    u = ln_y - ln_m
    with np.errstate(over="ignore", invalid="ignore"):
        z = _boxcox_z(L, np.exp(ln_s), u)
        return float(-np.sum(L * u - ln_s - 0.5 * z * z))


def _basis_products(basis):
    """Row (i, j) is the elementwise product of basis columns i <= j, in
    np.triu_indices order."""
    rows, cols = np.triu_indices(basis.shape[1])
    basis_t = np.ascontiguousarray(basis.T)
    return basis_t[rows] * basis_t[cols]


def _nll_grad_hess(x, basis, ln_y, products):
    """Negative log-likelihood with its gradient and Hessian in x.

    ``products`` is _basis_products(basis).

    Per observation, with w = e^(Lu), the z-derivatives are
    z_L = u^2 E'(Lu)/S, z_lnM = -w/S, z_lnS = -z and
    z_LL = u^3 E''(Lu)/S, z_L,lnM = -u w/S, z_lnM,lnM = L w/S,
    z_lnM,lnS = w/S, z_L,lnS = -z_L, z_lnS,lnS = z. The per-observation
    nll is -L u + ln S + z^2/2, so its second derivatives are
    z_a z_b + z z_ab, plus 1 in (L, ln M) from -L u. Each Hessian block is
    B' diag(h) B.
    """
    k = basis.shape[1]
    L, ln_m, ln_s = _curves(x, basis)
    u = ln_y - ln_m
    inv_s = np.exp(-ln_s)
    lu = L * u
    e0, e1, e2, w = _expm1_ratio_derivs(lu)
    z = u * e0 * inv_s
    z_l = u * u * e1 * inv_s
    z_m = -w * inv_s

    nll = float(-np.sum(lu - ln_s - 0.5 * z * z))
    grad = (basis.T @ np.column_stack([z * z_l - u, z * z_m + L, 1.0 - z * z])).T.ravel()

    # The six distinct blocks B' diag(h_ab) B in one product.
    h = np.column_stack([
        z_l * z_l + z * (u * u * u * e2 * inv_s),  # (L, L)
        z_l * z_m + 1.0 - z * u * w * inv_s,  # (L, ln M)
        -2.0 * z * z_l,  # (L, ln S)
        z_m * z_m + z * L * w * inv_s,  # (ln M, ln M)
        -2.0 * z * z_m,  # (ln M, ln S)
        2.0 * z * z,  # (ln S, ln S)
    ])
    rows, cols = np.triu_indices(k)
    sym = np.empty((k, k, 6))
    sym[rows, cols] = sym[cols, rows] = products @ h
    hess = np.empty((3 * k, 3 * k))
    for n, (a, b) in enumerate(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))):
        hess[a * k : (a + 1) * k, b * k : (b + 1) * k] = sym[:, :, n]
        hess[b * k : (b + 1) * k, a * k : (a + 1) * k] = sym[:, :, n]
    return nll, grad, hess


def _newton_direction(hess, grad):
    """Solve hess d = -grad, shifting hess by a multiple of the identity
    (Levenberg) until it is positive definite."""
    shift = 0.0
    eye = np.eye(grad.size)
    scale = max(float(np.max(np.abs(np.diag(hess)), initial=0.0)), 1.0)
    while True:
        shifted = hess + shift * eye
        try:
            np.linalg.cholesky(shifted)
            return -np.linalg.solve(shifted, grad)
        except np.linalg.LinAlgError:
            shift = max(10.0 * shift, 1e-10 * scale)


def _coefficient_box(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the stacked L, ln M and ln S coefficients."""
    lower = np.repeat([-_L_BOUND, _LNM_BOUNDS[0], _LNS_BOUNDS[0]], k)
    upper = np.repeat([_L_BOUND, _LNM_BOUNDS[1], _LNS_BOUNDS[1]], k)
    return lower, upper


def _projected_newton(x, lower, upper, basis, ln_y):
    """Minimize the nll over the box [lower, upper] from the feasible x.

    Each step holds fixed the coefficients at a bound whose gradient points
    out of the box, takes the Newton step on the others (also holding any
    at a bound that the step would push out), and backtracks along the
    projected path until the Armijo condition holds. Returns the minimizer
    and the number of steps taken.
    """
    products = _basis_products(basis)
    for step in range(_MAX_NEWTON_STEPS + 1):
        nll, grad, hess = _nll_grad_hess(x, basis, ln_y, products)
        at_lo = x <= lower
        at_hi = x >= upper
        held = (at_lo & (grad > 0.0)) | (at_hi & (grad < 0.0))
        while True:
            free = ~held
            d = np.zeros_like(x)
            d[free] = _newton_direction(hess[np.ix_(free, free)], grad[free])
            outward = free & ((at_lo & (d < 0.0)) | (at_hi & (d > 0.0)))
            if not outward.any():
                break
            held |= outward
        decrement = -0.5 * float(grad @ d)
        if decrement <= _DECREMENT_RTOL * max(abs(nll), 1.0):
            return x, step
        if step == _MAX_NEWTON_STEPS:
            break
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(x + alpha * d, lower, upper)
            if _nll(trial, basis, ln_y) <= nll + _ARMIJO * float(grad @ (trial - x)):
                break
            alpha *= 0.5
        else:
            raise FitError(
                f"LMS Newton line search failed at step {step}: no decrease "
                f"along the projected path (nll {nll:.6f}, decrement {decrement:.3g})"
            )
        x = trial
    raise FitError(
        f"LMS likelihood maximization did not converge in {_MAX_NEWTON_STEPS} "
        f"Newton steps: nll {nll:.6f}, Newton decrement {decrement:.3g}"
    )


def fit_lms(times, values, spec: SplineSpec, basis=None) -> LMSFit:
    """Maximize the Box-Cox normal likelihood over the L/M/S coefficients.

    Starts from L identically zero, the least-squares log-median curve, and
    a constant S equal to the SD of the log residuals, then runs a damped
    projected Newton method with the analytic Hessian inside the coefficient
    box. It stops when the Newton decrement on the free coefficients is at
    most 1e-10 of max(|nll|, 1); a line search that cannot decrease the
    likelihood, or no convergence within 50 steps, raises FitError.
    ``basis``, when given, is design_matrix(spec, times) built by the
    caller, and is used instead of a new build.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size != y.size:
        raise ValueError("times and values must have equal length")
    if t.size < 3 * spec.n_basis:
        raise ValueError(
            f"need at least 3*n_basis={3 * spec.n_basis} observations, got {t.size}"
        )
    if not np.all(np.isfinite(y) & (y > 0.0)):
        raise ValueError("all measurements must be positive and finite")

    basis = design_matrix(spec, t) if basis is None else _checked_basis(spec, basis, t.size)
    ln_y = np.log(y)
    m0, *_ = np.linalg.lstsq(basis, ln_y, rcond=None)
    m0 = np.clip(m0, *_LNM_BOUNDS)
    s0 = np.clip(np.log(max(float(np.std(ln_y - basis @ m0)), 1e-3)), *_LNS_BOUNDS)
    k = spec.n_basis
    x0 = np.concatenate([np.zeros(k), m0, np.full(k, s0)])
    x, steps = _projected_newton(x0, *_coefficient_box(k), basis, ln_y)
    return LMSFit(
        spec=spec,
        l_coefs=tuple(x[:k]),
        m_coefs=tuple(x[k : 2 * k]),
        s_coefs=tuple(x[2 * k :]),
        newton_steps=steps,
    )


def lms_zscore(fit: LMSFit, t, y):
    """z-score of measurement y at age t under the fitted L/M/S curves."""
    y_arr = _measurements(y)
    out = _zscore_on(fit, design_matrix(fit.spec, np.atleast_1d(t)), y_arr)
    return float(out[0]) if np.ndim(t) == 0 and np.ndim(y) == 0 else out


def _measurements(y) -> np.ndarray:
    """y as a float array, checked positive and finite."""
    y_arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y_arr) & (y_arr > 0.0)):
        raise ValueError("measurements must be positive and finite")
    return y_arr


def _zscore_on(fit: LMSFit, basis, y_arr):
    """z-scores of the measurements y_arr at the ages whose basis rows are
    ``basis``."""
    L, M, S = fit._curves_on(basis)
    return _boxcox_z(L, S, np.log(y_arr / M))


def _from_zscore(L: float, M: float, S: float, z: float) -> float:
    """Inverse Box-Cox transform of a z-score; exact inverse of the forward map.

    With x = L S z the log-ratio is u = S z log1p(x) / x, smooth through L = 0.
    """
    x = L * S * z
    if 1.0 + x <= 0.0:
        raise ValueError(
            f"z-score {z:.4f} is outside the Box-Cox domain at L={L:.4f}, "
            f"S={S:.4f} (1 + L*S*z = {1.0 + x:.4g} <= 0)"
        )
    ratio = math.log1p(x) / x if x != 0.0 else 1.0
    return float(M * math.exp(S * z * ratio))


def lms_centile(fit: LMSFit, t, tau):
    """Marginal tau-centile: the inverse transform of the normal quantile.

    t broadcasts against tau, and scalars give a float. The curves come from
    spline_values, and the inverse runs per cell in ``math``, whose log1p and
    exp numpy does not match: every element has the bits of its scalar call.
    """
    t, z = np.broadcast_arrays(np.asarray(t, dtype=float), std_normal_quantile(tau))
    L, ln_m, ln_s = spline_values(fit.spec, t.ravel(), fit.l_coefs, fit.m_coefs, fit.s_coefs)
    M, S = np.exp([ln_m, ln_s]).tolist()
    cells = zip(L.tolist(), M, S, z.ravel().tolist())
    out = np.array([_from_zscore(*cell) for cell in cells]).reshape(t.shape)
    return float(out) if out.ndim == 0 else out


def lms_conditional_centile(
    fit: LMSFit,
    rho_hat: float,
    t_prev: float,
    y_prev,
    t_cur: float,
    tau,
):
    """Conditional tau-centile at t_cur given y_prev in the interval before.

    The previous value is scored, shrunk by rho_hat, combined with the
    standard normal quantile at the conditional scale sqrt(1 - rho_hat^2),
    and mapped back through the inverse transform at t_cur. y_prev
    broadcasts against tau, and scalars give a float; each element has the
    bits of its scalar call.
    """
    if not abs(rho_hat) < 1.0:
        raise ValueError(f"rho_hat must lie strictly in (-1, 1), got {rho_hat!r}")
    VisitSchedule.check_adjacent(t_prev, t_cur)
    z_prev = lms_zscore(fit, t_prev, y_prev)
    z_cond = rho_hat * z_prev + std_normal_quantile(tau) * np.sqrt(
        1.0 - rho_hat * rho_hat
    )
    L, M, S = (float(c[0]) for c in fit.curves_at(t_cur))
    out = np.array([_from_zscore(L, M, S, z) for z in np.ravel(z_cond).tolist()])
    out = out.reshape(np.shape(z_cond))
    return float(out) if out.ndim == 0 else out


def zscore_pairs(fit: LMSFit, pairs: PairSet, basis=None) -> tuple[np.ndarray, np.ndarray]:
    """z-scores of the earlier and later measurements of each lag-1 pair.

    The autoregression is defined for adjacent intervals, so pairs spanning
    a missed visit are rejected. ``basis``, when given, is design_matrix on
    the cohort's observed times (``Cohort.observed_points`` order), built by
    the caller; each end's rows are gathered from it at ``pairs.pos_prev``
    and ``pairs.pos_cur`` instead of building the basis of the pair times.
    """
    if len(pairs) and np.any(pairs.gap != 1):
        raise ValueError(
            "z-score pairs must be exactly one visit interval apart; "
            "build them with pair_set(max_gap=1)"
        )
    if basis is None:
        return (
            lms_zscore(fit, pairs.t_prev, pairs.y_prev),
            lms_zscore(fit, pairs.t_cur, pairs.y_cur),
        )
    basis = _checked_basis(fit.spec, basis, pairs.n_observed)
    return (
        _zscore_on(fit, basis[pairs.pos_prev], _measurements(pairs.y_prev)),
        _zscore_on(fit, basis[pairs.pos_cur], _measurements(pairs.y_cur)),
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

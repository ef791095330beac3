"""Gaussian maximum likelihood on log measurements.

Per-subject vectors of observed log values are jointly normal with mean
B(t) . beta and covariance sigma^2 * rho^|j-k| over visit-interval indices,
so a missed visit simply raises the power on rho. The mean coefficients
are profiled out by generalized least squares and sigma has a closed form
given rho, leaving a one-dimensional profile likelihood that is maximized
by Brent's bounded search. Centiles come from back-transforming normal quantiles
to the measurement scale.

The data enter the profile only through per-pattern cross moments, one set
for each attendance pattern, built once per fit from the basis of the
observed times, which a replication builds once and shares with the other
fits. Each pattern's moments are flat two-index einsums over its subjects'
basis rows, reshaped to the pattern's (visit, visit, basis, basis) layout;
they have the bits of the four-index einsums. The patterns of each size
are then stacked, so that an evaluation of the profile costs one batched
inverse, one batched log-determinant and three batched contractions per
pattern size, however many patterns there are (up to 31 over the study's
five visits). The pattern contributions are summed in order of first
appearance, so every evaluation has the bits of a per-pattern running sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cohort import Cohort, VisitSchedule
from .errors import FitError
from .numerics import std_normal_quantile
from .splines import SplineSpec, _checked_basis, design_matrix, spline_values

__all__ = [
    "MVNFit",
    "fit_mvn",
    "mvn_marginal_centile",
    "mvn_conditional_centile",
]

_RHO_BOUNDS = (-0.995, 0.995)
_RHO_XATOL = 1e-7


@dataclass(frozen=True)
class MVNFit:
    """Fitted mean-curve coefficients (log scale) and covariance parameters.

    rho_hat is the correlation between adjacent visit intervals.
    ``brent_evals`` counts the profile-likelihood evaluations of the search
    for rho_hat.
    """

    spec: SplineSpec
    mean_coefs: tuple[float, ...]
    sigma_hat: float
    rho_hat: float
    loglik: float = float("nan")
    brent_evals: int = 0

    def __post_init__(self):
        if not self.sigma_hat > 0.0:
            raise ValueError("sigma_hat must be positive")
        if not abs(self.rho_hat) < 1.0:
            raise ValueError("rho_hat must lie strictly in (-1, 1)")

    def mean_at(self, t) -> np.ndarray:
        """Log-scale mean at the given times, from spline_values: an element
        has the bits of a call at that time alone."""
        return spline_values(self.spec, t, self.mean_coefs)[0]


def _pattern_moments(cohort: Cohort, spec: SplineSpec, center: float, obs_basis=None):
    """Group subjects by missingness pattern and accumulate cross moments.

    For each pattern the per-rho GLS pieces reduce to contractions of the
    inverse correlation matrix with fixed tensors, so the optimizer never
    revisits the data. ``obs_basis`` is the basis of every observed time,
    in ``Cohort.observed_points`` order, as fit_mvn receives it; when None
    it is built here, and otherwise its shape is checked.

    With F a pattern's (subjects, visits x basis) rows, sxx is the einsum
    F'F and sxy the einsum F'ys, each reshaped and transposed to the four-
    and three-index layouts and made contiguous. numpy's C einsum sums each
    element over the subjects in the same order as the four-index forms
    "nka,nlb->klab" and "nka,nl->kla", so the bits are theirs, and
    _profile's einsums then run over the same memory layout (a strided
    view changes their bits). Patterns are kept in order of first
    appearance, which fixes the order _profile sums them in; the
    all-missing pattern is skipped.
    """
    observed = cohort.observed
    logs = np.log(cohort.values) - center
    if obs_basis is None:
        obs_basis = design_matrix(spec, cohort.times[observed])
    else:
        obs_basis = _checked_basis(spec, obs_basis, int(np.count_nonzero(observed)))
    n_basis = spec.n_basis
    basis = np.zeros(observed.shape + (n_basis,))
    basis[observed] = obs_basis
    # Each pattern's integer code, one bit per visit in an int64; one stable
    # sort lists every group's subjects in order, and a group's first
    # subject is its first appearance.
    if observed.shape[1] > 64:
        raise ValueError(f"MVN fits at most 64 visits per subject, got {observed.shape[1]}")
    codes = observed @ (1 << np.arange(observed.shape[1]))
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    bounds = np.append(starts, order.size)
    groups = []
    n_obs = 0
    for g in np.argsort(order[starts], kind="stable"):
        idx = order[bounds[g] : bounds[g + 1]]
        k = np.flatnonzero(observed[idx[0]])
        if k.size == 0:
            continue
        flat = basis[np.ix_(idx, k)].reshape(idx.size, k.size * n_basis)
        ys = logs[np.ix_(idx, k)]
        sxx = np.einsum("nm,nq->mq", flat, flat).reshape(k.size, n_basis, k.size, n_basis)
        sxy = np.einsum("nm,nl->ml", flat, ys).reshape(k.size, n_basis, k.size)
        groups.append(
            {
                "gaps": np.abs(np.subtract.outer(k, k)).astype(float),
                "count": len(idx),
                "sxx": np.ascontiguousarray(sxx.transpose(0, 2, 1, 3)),
                "sxy": np.ascontiguousarray(sxy.transpose(0, 2, 1)),
                "syy": np.einsum("nk,nl->kl", ys, ys),
            }
        )
        n_obs += ys.size
    return groups, n_obs


def _stack_patterns(groups) -> list:
    """The patterns of each size stacked for _profile, once per fit.

    Each entry holds the first-appearance positions of its patterns and
    their gaps, counts and moments stacked along a leading axis.
    """
    positions = {}
    for pos, g in enumerate(groups):
        positions.setdefault(g["gaps"].shape[0], []).append(pos)
    return [
        {
            "positions": np.array(pos),
            "counts": np.array([groups[i]["count"] for i in pos], dtype=float),
            **{
                name: np.stack([groups[i][name] for i in pos])
                for name in ("gaps", "sxx", "sxy", "syy")
            },
        }
        for pos in positions.values()
    ]


def _profile(rho: float, stacks, n_obs: int, n_basis: int):
    """Profile log-likelihood at rho with GLS beta and closed-form sigma,
    from the stacked patterns of _stack_patterns.

    Each pattern's contribution to the GLS matrix, the GLS vector, the log
    determinant and the weighted sum of squares fills one row of ``parts``.
    The rows are summed over the leading axis, which adds them one after
    another in first-appearance order from zero, as a running sum over the
    patterns would; a one-dimensional sum would be pairwise.
    """
    pp = n_basis * n_basis
    parts = np.empty((sum(s["positions"].size for s in stacks), pp + n_basis + 2))
    for s in stacks:
        pos = s["positions"]
        corr = rho ** s["gaps"]
        w = np.linalg.inv(corr)
        parts[pos, :pp] = np.einsum("gkl,gklab->gab", w, s["sxx"]).reshape(pos.size, pp)
        parts[pos, pp:-2] = np.einsum("gkl,gkla->ga", w, s["sxy"])
        parts[pos, -2] = s["counts"] * np.linalg.slogdet(corr)[1]
        parts[pos, -1] = np.einsum("gkl,gkl->g", w, s["syy"])
    total = np.add.reduce(parts, axis=0, initial=0.0)
    a_mat = total[:pp].reshape(n_basis, n_basis)
    c_vec = total[pp:-2]
    log_det, syy = total[-2], total[-1]
    beta = np.linalg.solve(a_mat, c_vec)
    quad = syy - 2.0 * c_vec @ beta + beta @ a_mat @ beta
    sigma2 = quad / n_obs
    ll = -0.5 * (n_obs * math.log(2.0 * math.pi * sigma2) + log_det + n_obs)
    return ll, beta, math.sqrt(sigma2)


def _minimize_bounded(func, lower: float, upper: float, xatol: float, maxfun: int = 500):
    """Brent's minimization of a scalar function on [lower, upper].

    The arithmetic of scipy.optimize.minimize_scalar(method="bounded")
    (scipy's _minimize_scalar_bounded), step for step, so the minimizer and
    the evaluation count are the same. Returns (x, f(x), evaluations, status)
    with status 0 on convergence, 1 when maxfun evaluations were used and 2
    when x or f(x) is NaN.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lower, upper
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = np.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    status = 0
    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for a parabolic fit.
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Is the parabola acceptable?
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1

        if golden:  # a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            status = 1
            break

    if np.isnan(xf) or np.isnan(fx) or np.isnan(fu):
        status = 2
    return xf, fx, num, status


def fit_mvn(cohort: Cohort, spec: SplineSpec, basis=None) -> MVNFit:
    """Maximum likelihood fit of (beta, sigma, rho); empty subjects are skipped.

    ``basis``, when given, is design_matrix on the cohort's observed times
    (``Cohort.observed_points`` order), built by the caller, and is used
    instead of a new build.
    """
    center = float(np.log(cohort.values[cohort.observed]).mean())
    groups, n_obs = _pattern_moments(cohort, spec, center, basis)
    if not groups:
        raise ValueError("cohort has no observed measurements")
    if n_obs < spec.n_basis + 2:
        raise ValueError(f"too few observed measurements ({n_obs}) to fit")

    stacks = _stack_patterns(groups)
    rho, _, nfev, status = _minimize_bounded(
        lambda rho: -_profile(rho, stacks, n_obs, spec.n_basis)[0],
        *_RHO_BOUNDS,
        xatol=_RHO_XATOL,
    )
    if status != 0:
        reason = "NaN encountered" if status == 2 else "evaluation limit reached"
        raise FitError(f"profile-likelihood search failed after {nfev} evaluations: {reason}")
    rho = float(rho)
    ll, beta, sigma = _profile(rho, stacks, n_obs, spec.n_basis)
    # Undo the centering of the log values: the basis sums to one, so the
    # offset moves entirely into the mean coefficients.
    return MVNFit(
        spec=spec,
        mean_coefs=tuple(beta + center),
        sigma_hat=sigma,
        rho_hat=rho,
        loglik=float(ll),
        brent_evals=nfev,
    )


def mvn_marginal_centile(fit: MVNFit, t, tau):
    """Marginal tau-centile in mmHg: exp(mean(t) + quantile(tau) * sigma).
    t broadcasts against tau, and scalars give a float."""
    t, q = np.broadcast_arrays(np.asarray(t, dtype=float), std_normal_quantile(tau))
    out = np.exp(fit.mean_at(t.ravel()).reshape(t.shape) + q * fit.sigma_hat)
    return float(out) if out.ndim == 0 else out


def mvn_conditional_centile(fit: MVNFit, t_prev: float, y_prev, t_cur: float, tau):
    """Conditional tau-centile at t_cur given y_prev in the interval before.

    y_prev broadcasts against tau, and scalars give a float; ``math`` takes
    the log of y_prev, so each element has the bits of its scalar call.
    """
    prev = np.asarray(y_prev, dtype=float)
    if not np.all(np.isfinite(prev) & (prev > 0.0)):
        raise ValueError(f"previous measurement must be positive and finite, got {y_prev!r}")
    VisitSchedule.check_adjacent(t_prev, t_cur)
    y_prev, q = np.broadcast_arrays(prev, std_normal_quantile(tau))
    log_prev = np.array([math.log(y) for y in y_prev.ravel().tolist()]).reshape(y_prev.shape)
    mean_cur, mean_prev = fit.mean_at([t_cur, t_prev])
    mu_cond = mean_cur + fit.rho_hat * (log_prev - mean_prev)
    scale = fit.sigma_hat * math.sqrt(1.0 - fit.rho_hat * fit.rho_hat)
    out = np.exp(mu_cond + q * scale)
    return float(out) if out.ndim == 0 else out

"""Independent oracles for the replication-study benchmark.

Nothing here imports the package: every truth, basis, audit and likelihood
is recomputed from the model parameters, the knot vector and the data, so a
fault planted in the package cannot hide in a shared helper. The check_*
functions return a list of failure messages, empty when the check passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import BSpline
from scipy.special import ndtri

# Relative tolerance for values the package and an oracle compute by
# different arithmetic (basis rows, centile back-transforms, likelihoods).
REL_TOL = 1e-9
# The program switches the Box-Cox transform to its log-form limit where
# |L| < 1e-4, which moves z-scores by up to |L u| / 2, about 5e-6 relative;
# values that pass through the transform are compared at this tolerance.
LMS_REL_TOL = 1e-5
# A basis value is a partition-of-unity entry in [0, 1]: absolute tolerance.
BASIS_ABS_TOL = 1e-12
# Residuals this close to zero, relative to max |y|, count as interpolated.
QR_ZERO_REL_TOL = 1e-7
# Largest log-likelihood gain (nats) a Newton step may still promise at an
# LMS fit. The program stops L-BFGS-B on a relative change per iteration:
# that leaves 1000-subject fits up to 0.14 nats short of the optimum (60
# fits sampled) and 5000-subject fits up to 0.1, while a fit stopped at a
# relative change of 1e-4 is 1.4 to 5 nats short. On 200-subject cohorts
# the program's own fits reach 1.75 nats (300 sampled), mostly along the
# poorly determined L curve, so there this check can flag a program fit.
LMS_NEWTON_DECREMENT_TOL = 1.0
# Largest distance of the MVN rho estimate from the vertex of the profile.
MVN_RHO_TOL = 1e-5
# Half-width, in standard errors, of the statistical checks on a cohort.
COHORT_Z = 6.0


def log_mean(model, t):
    """mu(t) = c0 + c2 (t/10)^2 + c3 (t/10)^3, evaluated here from scratch."""
    s = np.asarray(t, dtype=float) / 10.0
    return model.c0 + model.c2 * s * s + model.c3 * s * s * s


def true_marginal(model, week: float, tau: float) -> float:
    return float(np.exp(log_mean(model, week) + ndtri(tau) * model.sigma))


def true_conditional(model, prior_week, prior_rank, week, tau) -> float:
    """Exact conditional percentile at `week` given the prior-week value at
    marginal rank `prior_rank` one visit interval earlier."""
    z_prev = ndtri(prior_rank)
    mu = log_mean(model, week) + model.rho * model.sigma * z_prev
    scale = model.sigma * math.sqrt(1.0 - model.rho * model.rho)
    return float(np.exp(mu + ndtri(tau) * scale))


def basis(knots, degree: int, times) -> np.ndarray:
    """Dense B-spline design matrix from scipy, on the package's knot vector."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    return BSpline.design_matrix(t, np.asarray(knots, dtype=float), degree).toarray()


def close(a, b, rel=REL_TOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b)))
    )


# --- cohort -----------------------------------------------------------------


def check_cohort(cohort, model, windows, attendance_prob) -> list[str]:
    """Properties every simulated cohort must have: visit times inside their
    windows, attendance near its probability, and latent log values that are
    N(mu(t), sigma^2) with lag-1 correlation rho across intervals. Subjects
    are independent, so each statistic is averaged per subject first and
    tested against the spread of those averages."""
    errs = []
    lows = np.array([w[0] for w in windows])
    highs = np.array([w[1] for w in windows])
    t = cohort.times
    if t.shape[1] != len(windows) or np.any(t < lows) or np.any(t >= highs):
        errs.append("cohort: a visit time lies outside its window")
    z = (np.log(cohort.values) - log_mean(model, t)) / model.sigma
    stats = {
        "attendance": (cohort.observed.mean(axis=1), attendance_prob),
        "standardized log mean": (z.mean(axis=1), 0.0),
        "standardized log variance": ((z * z).mean(axis=1), 1.0),
        "lag-1 correlation": ((z[:, 1:] * z[:, :-1]).mean(axis=1), model.rho),
    }
    for what, (per_subject, want) in stats.items():
        se = per_subject.std(ddof=1) / math.sqrt(per_subject.size)
        if abs(per_subject.mean() - want) > COHORT_Z * se:
            errs.append(f"cohort: {what} {per_subject.mean():.4f} is not {want}")
    return errs


def expected_pairs(observed: np.ndarray, max_gap):
    """(subject, earlier interval, later interval) of consecutive observed
    visits, built by a running 'last observed interval' scan."""
    n, k = observed.shape
    last = np.full(n, -1)
    subj, ia, ib = [], [], []
    for j in range(k):
        take = observed[:, j] & (last >= 0)
        if max_gap is not None:
            take &= (j - last) <= max_gap
        rows = np.nonzero(take)[0]
        subj.append(rows)
        ia.append(last[rows])
        ib.append(np.full(rows.size, j))
        last = np.where(observed[:, j], j, last)
    subj = np.concatenate(subj)
    ia = np.concatenate(ia)
    ib = np.concatenate(ib)
    order = np.lexsort((ib, subj))
    return subj[order], ia[order], ib[order]


def check_pairs(cohort, pairs, max_gap) -> list[str]:
    subj, ia, ib = expected_pairs(cohort.observed, max_gap)
    got = (pairs.subject_id, pairs.idx_prev, pairs.idx_cur)
    if any(g.shape != e.shape or np.any(g != e) for g, e in zip(got, (subj, ia, ib))):
        return [f"cohort: pair_set(max_gap={max_gap}) pairs differ from the scan"]
    vals = (
        cohort.times[subj, ia], cohort.values[subj, ia],
        cohort.times[subj, ib], cohort.values[subj, ib],
    )
    got = (pairs.t_prev, pairs.y_prev, pairs.t_cur, pairs.y_cur)
    if any(np.any(g != e) for g, e in zip(got, vals)):
        return [f"cohort: pair_set(max_gap={max_gap}) values differ from the cohort"]
    return []


# --- quantile regression ----------------------------------------------------


def qr_design(knots, degree, t, y_prev=None, gap=None) -> np.ndarray:
    x = basis(knots, degree, t)
    if y_prev is None:
        return x
    return np.column_stack([x, y_prev, y_prev * gap])


def qr_audit(X, y, coefs, tau) -> tuple[int, int, bool]:
    """Residual-sign counts and the subgradient condition
    n_neg <= tau*n and n_pos <= (1 - tau)*n, from the coefficients."""
    resid = y - X @ np.asarray(coefs, dtype=float)
    tol = QR_ZERO_REL_TOL * max(1.0, float(np.max(np.abs(y))))
    n_neg = int(np.sum(resid < -tol))
    n_pos = int(np.sum(resid > tol))
    n = y.size
    return n_neg, n_pos, n_neg <= tau * n + 1e-9 and n_pos <= (1 - tau) * n + 1e-9


def qr_directional_ok(X, y, coefs, tau) -> bool:
    """The check loss may not decrease along any coordinate direction:
    its one-sided derivative along +e_j and -e_j is nonnegative."""
    resid = y - X @ np.asarray(coefs, dtype=float)
    tol = QR_ZERO_REL_TOL * max(1.0, float(np.max(np.abs(y))))
    zero = np.abs(resid) <= tol
    psi = np.where(resid > 0, tau, tau - 1.0)
    slope = -(psi[~zero] @ X[~zero])  # derivative of the nonzero part
    xz = X[zero]
    for sign in (1.0, -1.0):
        # At a zero residual, moving by sign*e_j changes r_i by -sign*x_ij.
        dr = -sign * xz
        kink = np.where(dr > 0, tau * dr, (tau - 1.0) * dr).sum(axis=0)
        deriv = sign * slope + kink
        scale = np.abs(X).sum(axis=0)
        if np.any(deriv < -1e-9 * scale):
            return False
    return True


# --- LMS --------------------------------------------------------------------


def boxcox_nll(coefs, B, y) -> float:
    """Negative log-likelihood of y under the Box-Cox normal (L, M, S) curves
    with L, ln M and ln S linear in the basis B. Accepts complex coefficients
    so that derivatives can be taken by complex step."""
    k = B.shape[1]
    L = B @ coefs[:k]
    ln_m = B @ coefs[k : 2 * k]
    ln_s = B @ coefs[2 * k :]
    ln_y = np.log(y)
    u = ln_y - ln_m
    small = np.abs(L.real) < 1e-8
    l_safe = np.where(small, 1.0, L)
    z = np.where(small, u / np.exp(ln_s) * (1 + 0.5 * L * u), np.expm1(L * u) / (l_safe * np.exp(ln_s)))
    log_f = (L - 1.0) * ln_y - L * ln_m - ln_s - 0.5 * z * z - 0.5 * math.log(2 * math.pi)
    return -np.sum(log_f)


def boxcox_grad(coefs, B, y, h=1e-20) -> np.ndarray:
    x = np.asarray(coefs, dtype=complex)
    g = np.empty(x.size)
    for j in range(x.size):
        xp = x.copy()
        xp[j] += 1j * h
        g[j] = boxcox_nll(xp, B, y).imag / h
    return g


def lms_stationarity(coefs, B, y) -> tuple[float, float]:
    """Newton decrement g' H^-1 g / 2 (the log-likelihood a Newton step would
    still gain) and the smallest Hessian eigenvalue, at the coefficients."""
    x = np.asarray(coefs, dtype=float)
    g = boxcox_grad(x, B, y)
    h = 1e-5
    H = np.empty((x.size, x.size))
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        H[:, j] = (boxcox_grad(x + step, B, y) - boxcox_grad(x - step, B, y)) / (2 * h)
    H = 0.5 * (H + H.T)
    eig = np.linalg.eigvalsh(H)
    if eig[0] <= 0.0:
        return float("inf"), float(eig[0])
    return float(0.5 * g @ np.linalg.solve(H, g)), float(eig[0])


def lms_truth_coefs(model, knots, degree) -> np.ndarray:
    """Coefficients of the generating model in the LMS parametrisation:
    L = 0, ln M = mu(t) (a cubic, hence in the cubic spline span), ln S
    constant. Found by interpolating mu at as many points as basis functions."""
    k = len(knots) - degree - 1
    t = np.linspace(knots[0], knots[-1], k)
    m = np.linalg.solve(basis(knots, degree, t), log_mean(model, t))
    # Constant ln S: the basis sums to one, so equal coefficients.
    return np.concatenate([np.zeros(k), m, np.full(k, math.log(model.sigma))])


def boxcox_centile(L, M, S, z) -> float:
    if abs(L) < 1e-12:
        return float(M * math.exp(S * z))
    return float(M * (1.0 + L * S * z) ** (1.0 / L))


def boxcox_z(L, M, S, y):
    L = np.asarray(L, dtype=float)
    u = np.log(np.asarray(y, dtype=float) / M)
    small = np.abs(L) < 1e-8
    return np.where(small, u / S, np.expm1(L * u) / (np.where(small, 1.0, L) * S))


# --- MVN --------------------------------------------------------------------


def _patterns(observed):
    """Distinct attendance patterns and, for each, the subjects that have it."""
    keys, inverse = np.unique(observed, axis=0, return_inverse=True)
    inverse = np.ravel(inverse)
    for p, key in enumerate(keys):
        idx = np.nonzero(key)[0]
        if idx.size:
            yield idx, np.nonzero(inverse == p)[0]


def mvn_loglik(cohort, knots, degree, mean_coefs, sigma, rho) -> float:
    """Sum over subjects of the log density of their observed log values
    under N(B(t) beta, sigma^2 rho^|j-k|), by Cholesky per pattern."""
    beta = np.asarray(mean_coefs, dtype=float)
    total = 0.0
    for idx, subjects in _patterns(cohort.observed):
        m = idx.size
        cov = sigma**2 * rho ** np.abs(np.subtract.outer(idx, idx)).astype(float)
        chol = np.linalg.cholesky(cov)
        t = cohort.times[np.ix_(subjects, idx)]
        mean = (basis(knots, degree, t.ravel()) @ beta).reshape(t.shape)
        resid = np.log(cohort.values[np.ix_(subjects, idx)]) - mean
        w = np.linalg.solve(chol, resid.T)
        total += -0.5 * (
            subjects.size * (m * math.log(2 * math.pi) + 2 * np.sum(np.log(np.diag(chol))))
            + np.sum(w * w)
        )
    return float(total)


def mvn_profile(cohort, knots, degree, rho):
    """GLS mean coefficients, ML sigma and log-likelihood at a given rho."""
    parts = []
    for idx, subjects in _patterns(cohort.observed):
        corr = rho ** np.abs(np.subtract.outer(idx, idx)).astype(float)
        w = np.linalg.inv(corr)
        t = cohort.times[np.ix_(subjects, idx)]
        X = basis(knots, degree, t.ravel()).reshape(t.shape + (-1,))
        Y = np.log(cohort.values[np.ix_(subjects, idx)])
        parts.append((w, X, Y, np.linalg.slogdet(corr)[1]))
    p = parts[0][1].shape[-1]
    A = np.zeros((p, p))
    c = np.zeros(p)
    for w, X, Y, _ in parts:
        A += np.einsum("nka,kl,nlb->ab", X, w, X)
        c += np.einsum("nka,kl,nl->a", X, w, Y)
    beta = np.linalg.solve(A, c)
    quad = 0.0
    n_obs = 0
    log_det = 0.0
    for w, X, Y, ld in parts:
        r = Y - X @ beta
        quad += np.einsum("nk,kl,nl->", r, w, r)
        n_obs += r.size
        log_det += r.shape[0] * ld
    sigma2 = quad / n_obs
    ll = -0.5 * (n_obs * math.log(2 * math.pi * sigma2) + log_det + n_obs)
    return beta, math.sqrt(sigma2), float(ll)


def mvn_rho_vertex(cohort, knots, degree, rho, h=1e-4) -> float:
    """Vertex of the parabola through the profile log-likelihood at
    rho - h, rho and rho + h: the profile maximiser to O(h^2)."""
    lo, mid, hi = (mvn_profile(cohort, knots, degree, r)[2] for r in (rho - h, rho, rho + h))
    curv = lo - 2 * mid + hi
    if curv >= 0.0:
        return float("inf")
    return rho - h * (hi - lo) / (2 * curv)

"""Centile estimation by quantile regression.

Marginal charts regress the measurement on the spline basis alone; the
conditional chart adds a linear adjustment for the previous measurement
whose slope may vary with the time gap:

    y_j ~ B(t_j) . c + (beta0 + beta1 * (t_j - t_{j-1})) * y_{j-1}

Each fitter takes one quantile level tau or a grid of them, builds and
checks one design for the grid, and fits every level on it by minimizing
the check loss at that level. The minimization is the classic linear
program, in its bounded dual form

    max  y'd   s.t.  X'd = 0,   tau - 1 <= d_i <= tau

whose equality multipliers are, up to sign, the coefficients. It is solved
by exact simplex pivots (Barrodale & Roberts 1974; Koenker & d'Orey 1987):
from the vertex through p rows near a shifted least-squares fit, each pivot
follows the steepest descending edge to the row where the check loss stops
falling. A 1000-subject fit takes about 9 O(n) pivots on the marginal design
and 17 on the conditional one (13.4 on average over the 500 x 1000 study's
5000 fits). A vertex whose every edge ascends strictly is the only
minimizer. It is accepted only with an exact optimality certificate: every
other residual is nonzero beyond its rounding error, so its sign is known,
the basis multipliers lie in [tau - 1, tau], and the residual sign counts
pass the subgradient audit. The rounding bound is taken in two stages: a
cheap bound from one n x p product clears nearly every residual, and only
the rows it leaves get the exact bound, so the certificate decides as the
exact bound on every row would. Any other ending (a flat edge, as at the
median of an even count, a singular basis, the pivot cap, a refused
certificate) leaves the fit to the HiGHS simplex on the same LP, re-solved
on the primal if its answer fails the audit; a primal answer that fails it
too raises FitError. Either way the solution is vertex-exact, and each fit
records which path produced it. The setup that does not depend on tau (the
contiguous X', the least-squares fit that each start shifts, the
preprocessing's subsample, its least-squares fit and the band, and the |X|
and max|y| of the certificate's bounds) is built once per design and shared
by the grid.

Designs of at least _PFN_MIN_ROWS rows first try the preprocessing step of
Portnoy & Koenker (1997), as in Koenker's ``rq.fit.pfn``. The least-squares
fit of a stride subsample of about ((p+1) n)^(2/3) rows, shifted to its tau
order statistic as every start is, places a band around the fit. The rows
inside the band are kept, and the rows below and above it are each replaced
by one "glob" row holding their sums of x and y. The pivots solve that
reduced problem from the same shifted fit, and its vertex must pass the
certificate on the full data, so it is the vertex that pivots on the full
design would give. (On the reduced design the globs' large |y| would widen
the certificate's zero band, and most fits would be refused.) When the
certificate refuses it, the globbed rows on the wrong side of it leave their
globs and the reduced problem is solved again. When no vertex passes, the
pivots run on the full design, then the LP. Below the threshold the
subsample and the band cost more than the smaller problem saves. Above it
the reduced problems are the cheaper: on the QR grids of 10 000 and 20 000
subjects, cold pivots on the full design took 1.14 and 1.34 times as long
as the preprocessing did with an interior point, which the reduced
problems' pivots beat in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cohort import PairSet
from .errors import FitError
from .splines import SplineSpec, _checked_basis, design_matrix, spline_values

__all__ = [
    "QuantileFit",
    "fit_marginal_qr",
    "fit_conditional_qr",
    "predict_centile",
    "count_quantile_crossings",
]

# Residuals within this relative tolerance of zero count as interpolated
# when auditing subgradient optimality.
_ZERO_REL_TOL = 1e-7

# A vertex basis this ill-conditioned is left to the LP; basis multipliers may
# overshoot [tau - 1, tau] by this much from rounding alone.
_VERTEX_MAX_COND = 1e10
_DUAL_SLACK = 1e-9
# A residual evaluated in floating point carries at most about p+1 rounding
# errors of its terms' size; this many ulps per column leaves a margin.
_RESID_EVAL_ULPS = 4
# The certificate's cheap rounding bound is raised by this factor before it
# clears a residual, far beyond the bound's own rounding of a few ulps.
_CLEAR_MARGIN = 1.0 + 1e-9
# Portnoy-Koenker preprocessing runs on designs with at least this many rows;
# below it the subsample fit and the band cost more than the smaller problem
# saves. The kept share of the subsample size, the most wrongly globbed
# rows (as a share of the kept count) before the subsample is doubled, and
# the fix-up rounds are rq.fit.pfn's defaults.
_PFN_MIN_ROWS = 8000
_PFN_KEEP = 0.8
_PFN_MAX_WRONG = 0.1
_PFN_FIXUPS = 3
# The simplex pivots (_pivot_vertex) take at most this many on one problem
# (1000-subject designs take at most 33, the reduced problems of 5000-subject
# ones at most 35), from a start basis whose every row keeps this share of
# its norm once the rows before it are projected out, sorting this many of
# the smallest breakpoints per pivot before sorting more.
_PIVOT_MAX = 100
_START_INDEPENDENCE = 1e-6
_PIVOT_SEARCH = 32
# Week spacing of the grid on which count_quantile_crossings compares curves.
_CROSSING_STEP = 0.5


@dataclass(frozen=True)
class QuantileFit:
    """A fitted quantile model with residual-sign diagnostics.

    Marginal fits have beta0 = beta1 = 0 by construction. ``n_neg`` and
    ``n_pos`` count strictly negative/positive residuals at the solution;
    subgradient optimality requires n_neg <= tau*n and n_pos <= (1-tau)*n.
    ``solver`` names the path that produced the coefficients: "pivot" for
    the simplex pivots on the full design, "pfn" for the pivots on the
    preprocessed problem, each with a vertex certified on the full data,
    "lp" for the HiGHS fallback. ``pivots`` counts the simplex pivots of
    every run, also those of a run that declined and left the fit to the
    next path.
    """

    tau: float
    spec: SplineSpec
    spline_coefs: tuple[float, ...]
    beta0: float = 0.0
    beta1: float = 0.0
    conditional: bool = False
    n_obs: int = 0
    n_neg: int = 0
    n_pos: int = 0
    solver: str = "pivot"
    pivots: int = 0

    @property
    def pfn_fallback(self) -> bool:
        """The preprocessing ran but gave no certified vertex, so that
        another path produced the fit."""
        return self.n_obs >= _PFN_MIN_ROWS and self.solver != "pfn"

    @property
    def subgradient_ok(self) -> bool:
        return _signs_balanced((self.n_neg, self.n_pos), self.n_obs, self.tau)


def _check_finite(**arrays) -> None:
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite; got NaN or infinite entries")


def _check_design(X: np.ndarray, what: str) -> None:
    rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        raise ValueError(
            f"{what} design matrix is rank deficient: rank {rank} < "
            f"{X.shape[1]} columns; spread the observation times or reduce n_basis"
        )


class _Design:
    """A check-loss design (X, y) with the tau-independent setup of its
    pivots and certificates, built on first use and shared by every tau of
    a grid.

    ``XT`` is a contiguous p x n copy of X, which makes the pivots' products
    over every row fast BLAS calls. ``abs_X`` = |X| and ``max_abs_y`` =
    max|y| are the parts of the certificate's bounds (_unclear_rows,
    _zero_tol) that do not depend on the vertex, formed once however many
    certificates the grid runs. ``least_squares`` is the fit that each
    tau's start shifts (_shifted_start), or None when X'X is not positive
    definite, so that a singular design is factored once for the whole
    grid. ``subsample(m)`` is the preprocessing's stride subsample, as a
    design whose shifted least-squares fit places the band, and the band
    itself (_preprocessed_vertex). ``start``, when given, is the start
    coefficients in place of the shifted least-squares fit: a reduced
    problem starts from its subsample's.
    ``sign_counts`` holds the sign counts (_sign_counts) that certificates
    took, by the vertex's bits, so that no fit counts them again.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, start=None):
        self.X = X
        self.y = y
        self.start = start
        self._subsamples = {}
        self.sign_counts = {}

    @cached_property
    def XT(self) -> np.ndarray:
        return np.ascontiguousarray(self.X.T)

    @cached_property
    def abs_X(self) -> np.ndarray:
        return np.abs(self.X)

    @cached_property
    def max_abs_y(self) -> float:
        """max|y|, 0 for an empty y."""
        return float(np.max(np.abs(self.y), initial=0.0))

    @cached_property
    def Xy(self) -> np.ndarray:
        """Rows of [X y]: each glob's sums are then one matrix-vector product.
        A dot product over all n rows would wake a second BLAS thread."""
        return np.column_stack([self.X, self.y])

    @cached_property
    def least_squares(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The least-squares coefficients of y and of the constant, as the
        columns of one p x 2 array, and the residuals of the first, sorted,
        so that every tau's start reads its order statistic off them; None
        when X'X is not positive definite."""
        XT, y = self.XT, self.y
        try:
            chol = np.linalg.cholesky(XT @ XT.T)
        except np.linalg.LinAlgError:
            return None
        # Solve (L L') ls = X'[y 1] with the lower Cholesky factor L.
        rhs = XT @ np.column_stack([y, np.ones(y.size)])
        ls = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        return ls, np.sort(y - ls[:, 0] @ XT)

    def subsample(self, m: int) -> tuple[_Design, np.ndarray]:
        """The m rows taken at an even stride, as a design, and every row's
        band ||L^-1 x_i|| = sqrt(x_i' (X_s'X_s)^-1 x_i), X_s the subsample.
        The subsample's least-squares fit is then computed once for a grid."""
        if m not in self._subsamples:
            rows = np.linspace(0, self.y.size - 1, m).astype(int)
            X_s = self.X[rows]
            band = np.sqrt(np.sum((self.X @ np.linalg.inv(X_s.T @ X_s)) * self.X, axis=1))
            self._subsamples[m] = (_Design(X_s, self.y[rows]), band)
        return self._subsamples[m]


def _order_statistics(values: np.ndarray, levels) -> np.ndarray:
    """The order statistics of values at the lower ends of numpy's linear
    quantiles at levels: partitions instead of np.quantile's sort and
    interpolation. One partition per distinct rank, from the highest down,
    each of the part below the rank before, since numpy's partition at
    several ranks at once is several times slower than that."""
    ranks = [int(q * (values.size - 1)) for q in levels]
    part = values.copy()
    end = part.size
    for rank in sorted(set(ranks), reverse=True):
        part[:end].partition(rank)
        end = rank
    return part[ranks]


def _shifted_start(design: _Design, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Start coefficients and residuals: the design's ``start``, or else the
    least-squares fit shifted by an order statistic of its residuals at
    tau, so that a tau share of them is negative whenever the design spans
    the constant. At tau near 0 or 1 this start sits far closer to the
    optimum than the least-squares fit itself. The order statistic is read
    off the design's sorted residuals, one sort for every level of a grid.
    Raises LinAlgError when that fit is needed and X'X is not positive
    definite."""
    if design.start is not None:
        beta = np.array(design.start, dtype=float)
    elif design.least_squares is None:
        raise np.linalg.LinAlgError("X'X is not positive definite")
    else:
        ls, ordered = design.least_squares
        # The rank is the lower end of numpy's linear quantile, as in
        # _order_statistics.
        beta = ls[:, 0] + ordered[int(tau * (ordered.size - 1))] * ls[:, 1]
    return beta, design.y - beta @ design.XT


def _certified_vertex(design: _Design, beta: np.ndarray, tau: float, unique=False, basis=None):
    """The vertex of the design (X, y) through the p smallest residuals at
    beta, if provably optimal.

    The basis h interpolates to within _ZERO_REL_TOL; every other residual
    must be nonzero beyond its rounding error (_residual_rounding, on the
    rows that the cheaper _unclear_rows leaves), so that its sign is known,
    and the basis multipliers v solving
    X_h'v = -X_N'psi_tau(r_N) must lie in [tau - 1, tau]. Then zero lies in
    the subdifferential of the check loss, so the vertex is an exact
    minimizer. A non-basis residual inside the audit's zero band but beyond
    rounding (1e-6 mmHg, say) is an ordinary residual of known sign; only a
    degenerate vertex, with more than p residuals within rounding of zero,
    is left to the LP. With ``unique``, v must lie inside [tau - 1, tau] by
    more than _DUAL_SLACK instead of within it: every edge then ascends
    strictly, so the vertex is the only minimizer. ``basis``, when given,
    is p sorted rows with beta = solve(X_h, y_h): when they are strictly the
    p smallest residuals at beta, they are the basis found without them, so
    beta and its residuals are the vertex's; otherwise they are ignored.
    Returns None when any condition fails. The sign counts it takes are kept
    by the design (_Design.sign_counts).
    """
    X, y = design.X, design.y
    p = X.shape[1]
    resid = y - X @ beta
    size = np.abs(resid)
    given = basis is not None and np.count_nonzero(size <= size[basis].max()) == p
    h = basis if given else np.sort(size.argpartition(p - 1)[:p])
    X_h = X[h]
    try:
        inv_h = np.linalg.inv(X_h)
    except np.linalg.LinAlgError:
        return None
    # The 1-norm condition number, from the inverse already in hand, each
    # norm by numpy's own formula for norm(A, 1).
    if np.abs(X_h).sum(axis=0).max() * np.abs(inv_h).sum(axis=0).max() > _VERTEX_MAX_COND:
        return None
    vertex = beta if given else np.linalg.solve(X_h, y[h])
    if not given:
        resid = y - X @ vertex
    if (np.abs(resid[h]) > _zero_tol(design)).any():
        return None
    basis_terms = np.abs(resid[h]) + _evaluation_rounding(X_h, y[h], vertex)
    unclear = _unclear_rows(design, vertex, resid, inv_h, basis_terms)
    unclear[h] = False
    rows = unclear.nonzero()[0]
    if rows.size:
        # Row i of coords holds x_i' X_h^{-1}: row i of X in the basis rows'
        # coordinates, needed only on the rows the first bound left.
        coords = X[rows] @ inv_h
        rounding = _residual_rounding(X[rows], y[rows], vertex, coords, basis_terms)
        if (np.abs(resid[rows]) <= rounding).any():
            return None
    psi = np.where(resid < 0.0, tau - 1.0, tau)
    psi[h] = 0.0
    v = -((psi @ X) @ inv_h)
    if unique:
        if not (np.minimum(v - (tau - 1.0), tau - v) > _DUAL_SLACK).all():
            return None
    elif (v < tau - 1.0 - _DUAL_SLACK).any() or (v > tau + _DUAL_SLACK).any():
        return None
    counts = design.sign_counts[vertex.tobytes()] = _sign_counts(design, resid)
    if not _signs_balanced(counts, y.size, tau):
        return None
    return vertex


def _evaluation_rounding(X, y, vertex) -> np.ndarray:
    """Bound on the rounding of each computed residual y_i - x_i . vertex:
    _RESID_EVAL_ULPS * p units in the last place of |y_i| + |x_i| . |vertex|."""
    p = X.shape[1]
    return _RESID_EVAL_ULPS * p * np.finfo(float).eps * (np.abs(y) + np.abs(X) @ np.abs(vertex))


def _residual_rounding(X, y, vertex, coords, basis_terms) -> np.ndarray:
    """Bound on |computed - exact| residual at the exact vertex through the
    basis h, for the rows (X, y) whose basis coordinates are coords.

    The exact vertex differs from the computed one by X_h^{-1} rho, rho
    being the exact basis residuals, so the exact residual i is
    r_i - coords_i . rho. Each computed residual is within
    _evaluation_rounding of its exact value, so |rho| is at most
    ``basis_terms``: the computed basis residuals' sizes plus their bounds.
    """
    return _evaluation_rounding(X, y, vertex) + np.abs(coords) @ basis_terms


def _unclear_rows(design: _Design, vertex, resid, inv_h, basis_terms) -> np.ndarray:
    """Rows of the design whose residual the cheap rounding bound does not
    clear.

    Since |x_i' X_h^{-1}| <= |x_i|' |X_h^{-1}| elementwise, the bound of
    _residual_rounding is at most c max|y| + |x_i|' (c |vertex| +
    |X_h^{-1}| basis_terms), c its ulps factor: one n x p product, with no
    n x p coordinates. That is raised by _CLEAR_MARGIN against its own
    rounding, so every row it clears the exact bound clears too, and the
    certificate decides as if every row took the exact bound.
    """
    ulps = _RESID_EVAL_ULPS * design.X.shape[1] * np.finfo(float).eps
    per_column = ulps * np.abs(vertex) + np.abs(inv_h) @ basis_terms
    bound = design.abs_X @ (per_column * _CLEAR_MARGIN)
    bound += ulps * _CLEAR_MARGIN * design.max_abs_y
    return np.abs(resid) <= bound


def _preprocessed_vertex(design: _Design, tau: float):
    """Certified vertex of the Portnoy-Koenker preprocessed problem, or None,
    and the simplex pivots spent on it.

    The preprocessing of Portnoy & Koenker (1997), as in Koenker's
    ``rq.fit.pfn``, with a stride subsample so that fits stay deterministic:

    1. Take m = ((p+1) n)^(2/3) rows at an even stride, and shift their
       least-squares fit to their tau order statistic (_shifted_start).
    2. Scale each residual by its band ||L^-1 x_i||, L the Cholesky factor
       of the subsample's X'X, and keep the _PFN_KEEP * m rows whose scaled
       residuals lie nearest the tau-quantile of them all.
    3. Replace the rows below that range by one pseudo-row (their sums of x
       and y), and the rows above it by another: the natural globs.
    4. Solve the reduced problem by the pivots, starting from that shifted
       fit. If no globbed row has a residual of the wrong sign, its optimum
       is the full problem's. Otherwise move the wrong rows out of their
       globs and solve again, at most _PFN_FIXUPS times, or double m when
       more than _PFN_MAX_WRONG of the kept count are wrong.

    The subsample, its least-squares fit and its band do not depend on
    tau, so a grid shares them (_Design.subsample). The answer is accepted
    only through _certified_vertex on the full data, which each reduced
    problem's pivots call on their final vertex (_pivot_vertex). A reduced
    problem whose pivots decline, a refused optimum with no wrongly globbed
    row, and a singular subsample end the preprocessing with None.
    """
    X, y, Xy = design.X, design.y, design.Xy
    n, p = X.shape
    m = round(((p + 1) * n) ** (2.0 / 3.0))
    pivots = 0
    while m < n:
        try:
            sub, band = design.subsample(m)
            start = _shifted_start(sub, tau)[0]
        except np.linalg.LinAlgError:
            return None, pivots
        scaled = (y - X @ start) / band
        kept = _PFN_KEEP * m
        lo, hi = _order_statistics(
            scaled,
            [max(1.0 / n, tau - kept / (2.0 * n)), min(tau + kept / (2.0 * n), (n - 1.0) / n)],
        )
        below = scaled < lo
        above = scaled > hi
        for fixups in range(_PFN_FIXUPS + 1):
            mid = ~(below | above)
            reduced = np.vstack([Xy[mid]] + [glob @ Xy for glob in (below, above) if glob.any()])
            vertex, k, beta = _pivot_vertex(
                _Design(reduced[:, :p], reduced[:, p], start=start), tau, certify_on=design
            )
            pivots += k
            if vertex is not None or beta is None:
                return vertex, pivots
            resid = y - X @ beta
            wrong = (below & (resid > 0.0)) | (above & (resid < 0.0))
            n_wrong = np.count_nonzero(wrong)
            if n_wrong == 0:
                return None, pivots
            if n_wrong > _PFN_MAX_WRONG * kept:
                break
            if fixups == _PFN_FIXUPS:
                return None, pivots
            below &= ~wrong
            above &= ~wrong
        m *= 2
    return None, pivots


def _pivot_vertex(design: _Design, tau: float, certify_on: _Design | None = None):
    """The check-loss minimizer by exact simplex pivots from vertex to
    vertex, if certified, else None; the pivot count; and the descent's
    final vertex, certified or not, or None when the descent declined.

    An edge descent in the manner of Barrodale & Roberts (1974), as in
    Koenker & d'Orey (1987). A vertex is the fit through p rows, the basis
    h. Its multipliers v = -(psi'X) X_h^-1, psi the sign weights of the
    other rows (the certificate's own formula), give the slope of every
    edge: moving basis row j's residual up costs tau - v_j, down
    v_j - (tau - 1). The steepest descending edge is followed to the
    breakpoint where its slope, which rises by |fall_i| at each row i it
    crosses (fall_i the rate at which that residual moves along the edge),
    turns nonnegative; that row enters the basis in j's place.
    The slope search visits the breakpoints in order by a partial
    selection, and X_h^-1 and psi'X are updated, not rebuilt. The edges are
    priced in Python floats (_steepest_edge).

    The start is the basis of p independent rows with the smallest
    residuals at _shifted_start's fit. The descent stops when every edge
    ascends by more than _DUAL_SLACK; then the optimum is unique. The vertex
    is solved on the sorted basis. It is certified on the design with that
    strictness (_certified_vertex), which takes the basis so as not to find
    and solve it again; or, for a reduced problem, on ``certify_on``, the
    full design, through that design's own p smallest residuals. Every
    other ending (a singular basis or least-squares fit, a non-finite
    value, an edge too flat to call, no breakpoint, _PIVOT_MAX pivots)
    declines, with None for both vertices.
    """
    X, y, XT = design.X, design.y, design.XT
    pivots = 0
    try:
        _, resid = _shifted_start(design, tau)
        h = _independent_rows(X, resid)
        if h is None:
            return None, pivots, None
        inv_h = np.linalg.inv(X[h])
    except np.linalg.LinAlgError:
        return None, pivots, None
    resid = y - (inv_h @ y[h]) @ XT
    psi = np.where(resid < 0.0, tau - 1.0, tau)
    psi[h] = 0.0
    # g = psi'X over the non-basis rows, so that v = -g X_h^-1.
    g = psi @ X
    while True:
        v = (g @ inv_h).tolist()
        j, slope = _steepest_edge(v, tau)
        if slope > _DUAL_SLACK:
            break
        # A flat edge leaves the optimum not unique; NaN lands here too.
        if not slope < -_DUAL_SLACK or pivots == _PIVOT_MAX:
            return None, pivots, None
        pivots += 1
        # Moving residual h[j] up (sign 1) or down, residual i falls at
        # fall[i] per unit of step, and reaches zero at step 1 / near[i].
        sign = 1.0 if tau + v[j] < 1.0 - tau - v[j] else -1.0
        fall = (-sign * inv_h[:, j]) @ XT
        near = fall / resid
        near[h] = -np.inf
        i, order = _slope_breakpoint(near, fall, -slope)
        if i is None:
            return None, pivots, None
        k = order[i]
        resid_k, fall_k = float(resid[k]), float(fall[k])
        # Rows crossed on the way change sign; k enters, and h[j] leaves
        # with the sign it moved to.
        if i:
            g -= np.sign(fall[order[:i]]) @ X[order[:i]]
        g += (tau if sign > 0.0 else tau - 1.0) * X[h[j]]
        g -= (tau - 1.0 if resid_k < 0.0 else tau) * X[k]
        resid -= (resid_k / fall_k) * fall
        # Replace row j of X_h by x_k: a rank-one update of its inverse.
        coords = X[k] @ inv_h
        column = inv_h[:, j] / coords[j]
        inv_h -= column[:, None] * coords
        inv_h[:, j] = column
        h[j] = k
    # Solved on the sorted basis, as the certificate solves, beta is its vertex.
    h.sort()
    try:
        beta = np.linalg.solve(X[h], y[h])
    except np.linalg.LinAlgError:
        return None, pivots, None
    if not np.isfinite(beta).all():
        return None, pivots, None
    if certify_on is None:
        return _certified_vertex(design, beta, tau, unique=True, basis=h), pivots, beta
    return _certified_vertex(certify_on, beta, tau), pivots, beta


def _steepest_edge(v: list, tau: float) -> tuple[int, float]:
    """The first steepest edge j, as argmin finds it, and its slope, for
    v = (psi'X) X_h^-1 in Python floats (the basis multipliers negated):
    moving basis row j's residual up costs tau + v_j, down 1 - tau - v_j.
    These are numpy's operations on p values, at a fraction of the calls.
    The slope is NaN when any v_j is."""
    slopes = [min(tau + x, 1.0 - tau - x) for x in v]
    if any(map(math.isnan, slopes)):
        return 0, math.nan
    slope = min(slopes)
    return slopes.index(slope), slope


def _independent_rows(X: np.ndarray, resid: np.ndarray):
    """Indices of p linearly independent rows of X, taken greedily in order
    of |resid|: each row must keep more than _START_INDEPENDENCE of its norm
    once the rows taken before it are projected out. None when no p rows
    qualify."""
    p = X.shape[1]
    size = np.abs(resid)
    rows = []
    basis = np.empty((p, p))
    # The 4p smallest first; only if they fall short, every row in order.
    m = min(size.size, 4 * p)
    while True:
        order = size.argpartition(m - 1)[:m]
        for i in order[size[order].argsort()].tolist():
            x = X[i]
            q = basis[: len(rows)]
            r = x - (q @ x) @ q
            norm = math.sqrt(r @ r)
            if norm > _START_INDEPENDENCE * math.sqrt(x @ x):
                basis[len(rows)] = r / norm
                rows.append(i)
                if len(rows) == p:
                    return np.array(rows)
        if m == size.size:
            return None
        m = size.size


def _slope_breakpoint(near: np.ndarray, fall: np.ndarray, need: float):
    """The position, in ``order``, of the row whose breakpoint lifts the
    edge's slope by ``need``, and ``order``: the rows by decreasing
    ``near``, the inverse step at which each reaches zero, up to and past
    that row. (None, None) when every breakpoint together lifts it less.

    Rows with near > 0 are crossed in order, each lifting the slope by
    |fall|. Only the nearest few are sorted, more only when those do not
    suffice. The lift is summed in Python floats, in order, with the bits
    of np.cumsum; a NaN ends the sum at its row, as in np.searchsorted."""
    n = near.size
    m = min(n, _PIVOT_SEARCH)
    while True:
        order = near.argpartition(n - m)[n - m :] if m < n else np.arange(n)
        order = order[near[order].argsort()[::-1]]
        lift = 0.0
        for i, f in enumerate(fall[order].tolist()):
            lift += abs(f)
            if not lift < need:
                return (i, order) if near[order[i]] > 0.0 else (None, None)
        if m == n or not near[order[-1]] > 0.0:
            return None, None
        m = min(n, 4 * m)


def _solve_check_loss(design: _Design, tau: float) -> tuple[np.ndarray, str, int]:
    """Exact check-loss minimizer, the path that produced it and its pivot
    count.

    "pfn": designs of at least _PFN_MIN_ROWS rows first try the
    Portnoy-Koenker preprocessed problem (_preprocessed_vertex), whose
    vertex is certified on the full data. "pivot": the simplex pivots on
    the full design (_pivot_vertex), whose vertex is certified as the only
    minimizer; they run first below the threshold, and above it whenever
    the preprocessing gives no vertex. "lp": the HiGHS LP
    (_solve_check_loss_lp), whenever the pivots give no certified vertex.
    The pivot count covers every pivot taken, declined or not.
    """
    pivots = 0
    with np.errstate(all="ignore"):
        if design.y.size >= _PFN_MIN_ROWS:
            vertex, pivots = _preprocessed_vertex(design, tau)
            if vertex is not None:
                return vertex, "pfn", pivots
        vertex, full_pivots, _ = _pivot_vertex(design, tau)
    pivots += full_pivots
    if vertex is not None:
        return vertex, "pivot", pivots
    return _solve_check_loss_lp(design.X, design.y, tau), "lp", pivots


def _solve_check_loss_lp(X: np.ndarray, y: np.ndarray, tau: float) -> np.ndarray:
    """Exact check-loss minimizer via the dual LP, with primal fallback.
    Either answer must pass the subgradient audit (_sign_counts_ok); when
    the primal's fails it too, FitError is raised.

    scipy.optimize and scipy.sparse are imported here, on the rare path
    that needs them, so a study that never falls back does not load them.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    res = linprog(
        -y,
        A_eq=sp.csr_matrix(X.T),
        b_eq=np.zeros(X.shape[1]),
        bounds=(tau - 1.0, tau),
        method="highs",
    )
    if res.status == 0 and res.eqlin is not None:
        beta = -np.asarray(res.eqlin.marginals, dtype=float)
        if _sign_counts_ok(X, y, beta, tau):
            return beta
    # Rare degenerate case: solve the primal split-residual form outright.
    n, p = X.shape
    c = np.concatenate([np.zeros(p), tau * np.ones(n), (1.0 - tau) * np.ones(n)])
    eye = sp.identity(n, format="csr")
    a_eq = sp.hstack([sp.csr_matrix(X), eye, -eye], format="csr")
    res = linprog(
        c,
        A_eq=a_eq,
        b_eq=y,
        bounds=[(None, None)] * p + [(0, None)] * (2 * n),
        method="highs-ds",
    )
    if res.status != 0:
        raise FitError(
            f"check-loss LP failed at tau={tau}: status {res.status} "
            f"({res.message}) after {res.nit} iterations"
        )
    beta = np.asarray(res.x[:p], dtype=float)
    if not _sign_counts_ok(X, y, beta, tau):
        raise FitError(f"check-loss LP at tau={tau}: the primal answer fails the subgradient audit")
    return beta


def _zero_tol(design: _Design) -> float:
    """Residuals of the design at most this large in magnitude count as zero."""
    return _ZERO_REL_TOL * max(1.0, design.max_abs_y)


def _sign_counts(design: _Design, resid: np.ndarray) -> tuple[int, int]:
    """Residuals of the design below -tol and above tol (_zero_tol)."""
    tol = _zero_tol(design)
    return int(np.count_nonzero(resid < -tol)), int(np.count_nonzero(resid > tol))


def _signs_balanced(counts: tuple[int, int], n: int, tau: float) -> bool:
    """The subgradient audit: at most tau n negative and (1 - tau) n
    positive residuals."""
    n_neg, n_pos = counts
    return n_neg <= tau * n + 1e-9 and n_pos <= (1.0 - tau) * n + 1e-9


def _sign_counts_ok(X, y, beta, tau) -> bool:
    return _signs_balanced(_sign_counts(_Design(X, y), y - X @ beta), y.size, tau)


def _tau_levels(tau) -> tuple:
    """The levels of a scalar tau or a tau sequence, each checked."""
    levels = (tau,) if np.ndim(tau) == 0 else tuple(tau)
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError(f"tau must lie strictly in (0, 1), got {level!r}")
    return levels


def _fit_levels(X, y, levels, spec: SplineSpec, conditional: bool) -> tuple:
    """One QuantileFit per tau level on the checked design X, in order."""
    k = spec.n_basis
    design = _Design(X, y)
    fits = []
    for tau in levels:
        beta, solver, pivots = _solve_check_loss(design, tau)
        # A certified vertex's counts were taken by its certificate.
        counts = design.sign_counts.get(beta.tobytes())
        n_neg, n_pos = counts or _sign_counts(design, y - X @ beta)
        fits.append(QuantileFit(
            tau=tau,
            spec=spec,
            spline_coefs=tuple(beta[:k]),
            beta0=float(beta[k]) if conditional else 0.0,
            beta1=float(beta[k + 1]) if conditional else 0.0,
            conditional=conditional,
            n_obs=y.size,
            n_neg=n_neg,
            n_pos=n_pos,
            solver=solver,
            pivots=pivots,
        ))
    return tuple(fits)


def fit_marginal_qr(times, values, tau, spec: SplineSpec, basis=None):
    """Fit a marginal centile curve B(t) . c at each quantile level of tau:
    a QuantileFit for a scalar, a tuple of them in order for a sequence. The
    design is built and checked once for all levels. ``basis``, when given,
    is design_matrix(spec, times) built by the caller, and is used as the
    design instead of a new build."""
    levels = _tau_levels(tau)
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size != y.size:
        raise ValueError("times and values must have equal length")
    if t.size < spec.n_basis + 1:
        raise ValueError(
            f"need at least n_basis+1={spec.n_basis + 1} observations, got {t.size}"
        )
    _check_finite(times=t, values=y)
    X = design_matrix(spec, t) if basis is None else _checked_basis(spec, basis, t.size)
    _check_design(X, "marginal")
    fits = _fit_levels(X, y, levels, spec, conditional=False)
    return fits[0] if np.ndim(tau) == 0 else fits


def fit_conditional_qr(pairs: PairSet, tau, spec: SplineSpec, basis=None):
    """Fit the lag-adjusted conditional model on measurement pairs.

    The regressors are the spline basis at the later time, the earlier
    value, and the earlier value times the time gap. tau is a level or a
    sequence of levels, as in fit_marginal_qr. ``basis``, when given, is
    design_matrix on the cohort's observed times (``Cohort.observed_points``
    order), built by the caller; the spline block gathers its rows at
    ``pairs.pos_cur`` instead of building the basis of the later times.
    """
    levels = _tau_levels(tau)
    if len(pairs) < spec.n_basis + 3:
        raise ValueError(
            f"need at least n_basis+3={spec.n_basis + 3} pairs, got {len(pairs)}"
        )
    _check_finite(
        t_prev=pairs.t_prev, y_prev=pairs.y_prev, t_cur=pairs.t_cur, y_cur=pairs.y_cur
    )
    if basis is None:
        basis = design_matrix(spec, pairs.t_cur)
    else:
        basis = _checked_basis(spec, basis, pairs.n_observed)[pairs.pos_cur]
    # Only the spline block must be well determined by the data spread; the
    # history columns may be collinear (constant prior, constant gap), in
    # which case the optimum is non-unique and any vertex solution is
    # accepted.
    _check_design(basis, "conditional spline")
    X = np.column_stack(
        [basis, pairs.y_prev, pairs.y_prev * (pairs.t_cur - pairs.t_prev)]
    )
    fits = _fit_levels(X, pairs.y_cur, levels, spec, conditional=True)
    return fits[0] if np.ndim(tau) == 0 else fits


def predict_centile(fit, t, y_prev=None, dt=None):
    """Evaluate the fitted centile: B(t) . c plus the history adjustment.

    ``fit`` is a QuantileFit, or a sequence of fits on one spline basis, as
    fit_marginal_qr and fit_conditional_qr return for a tau sequence.
    Conditional fits require both y_prev and dt, and both must be finite;
    marginal fits accept neither. Arguments broadcast, and for one fit
    scalars give a float; a sequence adds a last axis over its fits. The
    curves come from one spline_values call, so the basis of t is built
    once for all the fits, and every element has the bits of its own scalar
    call.
    """
    fits = (fit,) if isinstance(fit, QuantileFit) else tuple(fit)
    spec, conditional = fits[0].spec, fits[0].conditional
    if any(f.spec != spec or f.conditional != conditional for f in fits):
        raise ValueError("fits must share one spline basis and one model")
    if conditional:
        if y_prev is None or dt is None:
            raise ValueError("conditional fit requires y_prev and dt")
        if not (np.all(np.isfinite(y_prev)) and np.all(np.isfinite(dt))):
            raise ValueError(f"y_prev and dt must be finite, got {y_prev!r} and {dt!r}")
    elif y_prev is not None or dt is not None:
        raise ValueError("marginal fit takes no y_prev or dt")
    curves = spline_values(spec, np.ravel(t), *(f.spline_coefs for f in fits))
    out = [curve.reshape(np.shape(t)) for curve in curves]
    if conditional:
        dt, y_prev = np.asarray(dt, dtype=float), np.asarray(y_prev, dtype=float)
        out = [base + (f.beta0 + f.beta1 * dt) * y_prev for f, base in zip(fits, out)]
    if isinstance(fit, QuantileFit):
        return float(out[0]) if out[0].ndim == 0 else out[0]
    return np.stack(out, axis=-1)


def count_quantile_crossings(fits) -> int:
    """Number of grid points where fitted curves violate quantile ordering.

    Curves fitted separately per tau may cross; this reports how often,
    over the spline boundary every _CROSSING_STEP weeks, rather than hiding
    it. The fits must share one spline basis, which is evaluated once.
    """
    fits = sorted(fits, key=lambda f: f.tau)
    if len(fits) < 2:
        return 0
    spec = fits[0].spec
    if any(f.spec != spec for f in fits):
        raise ValueError("fits must share one spline basis")
    grid = np.arange(spec.boundary[0], spec.boundary[1] + 1e-9, _CROSSING_STEP)
    basis = design_matrix(spec, grid)
    curves = np.stack([basis @ np.asarray(f.spline_coefs) for f in fits])
    return int(np.sum(np.any(np.diff(curves, axis=0) < 0.0, axis=0)))

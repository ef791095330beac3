"""Clamped cubic B-spline basis over the study window.

All three estimators express their smooth age terms in this basis. It spans
gestational weeks 16 to 36, the study window, and its knot vector is open
uniform: boundary knots repeated degree+1 times and the remaining interior
knots spread evenly (for the default five cubic basis functions that is a
single interior knot at the window midpoint, week 26). The upper boundary is
included, so measurements at the right endpoint evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .model import GA_WINDOW
from .numerics import _checked_index

__all__ = ["SplineSpec", "design_matrix", "spline_values"]


@dataclass(frozen=True)
class SplineSpec:
    """B-spline basis of ``n_basis`` functions of degree ``degree`` over the
    study window, with its n_basis - degree - 1 interior knots equally spaced
    strictly inside it."""

    degree: int = 3
    n_basis: int = 5
    boundary: ClassVar[tuple[float, float]] = GA_WINDOW

    def __post_init__(self):
        # A float size would fail inside np.linspace, and True would fit at
        # degree 1.
        for name in ("degree", "n_basis"):
            value = _checked_index(getattr(self, name), f"spline {name}")
            object.__setattr__(self, name, value)
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.n_basis < self.degree + 1:
            raise ValueError(
                f"n_basis={self.n_basis} needs at least degree+1={self.degree + 1} "
                "basis functions"
            )

    @cached_property
    def knots(self) -> tuple[float, ...]:
        """Full knot vector with boundary knots at multiplicity degree+1."""
        lo, hi = self.boundary
        n_interior = self.n_basis - self.degree - 1
        interior = tuple(np.linspace(lo, hi, n_interior + 2)[1:-1])
        return (lo,) * (self.degree + 1) + interior + (hi,) * (self.degree + 1)


def design_matrix(spec: SplineSpec, times) -> np.ndarray:
    """Basis matrix with one row per time, by Cox-de Boor recursion.

    Rows are nonnegative, sum to one, and have at most degree+1 nonzero
    entries. Times outside the boundary, and NaN times, raise ValueError.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim == 0:
        t = t[np.newaxis]
    lo, hi = spec.boundary
    # min and max propagate NaN, and NaN fails both comparisons.
    if t.size and not (t.min() >= lo and t.max() <= hi):
        raise ValueError(
            f"times not finite or outside the spline boundary [{lo}, {hi}]: "
            f"min={t.min()}, max={t.max()}"
        )
    knots = np.asarray(spec.knots)
    n_spans = len(knots) - 1

    # The recursion runs on an (n_spans, n) array, so that each basis
    # function is one contiguous row, and is transposed once at the end.
    # Degree-0 seed: indicator of the half-open knot span, except the last
    # nonempty span which also owns the upper boundary.
    last_nonempty = max(j for j in range(n_spans) if knots[j] < knots[j + 1])
    basis = np.zeros((n_spans, t.size))
    for j in range(n_spans):
        if j == last_nonempty:
            basis[j] = (knots[j] <= t) & (t <= knots[j + 1])
        else:
            basis[j] = (knots[j] <= t) & (t < knots[j + 1])

    for d in range(1, spec.degree + 1):
        nxt = np.zeros((n_spans - d, t.size))
        for j in range(n_spans - d):
            den_left = knots[j + d] - knots[j]
            den_right = knots[j + d + 1] - knots[j + 1]
            # Adding into the zero row, not assigning, turns a -0.0 term into
            # +0.0, as a sum from zero does.
            if den_left > 0.0:
                nxt[j] += (t - knots[j]) / den_left * basis[j]
            if den_right > 0.0:
                nxt[j] += (knots[j + d + 1] - t) / den_right * basis[j + 1]
        basis = nxt

    return np.ascontiguousarray(basis[: spec.n_basis].T)


def _checked_basis(spec: SplineSpec, basis, n_rows: int) -> np.ndarray:
    """``basis``, a design_matrix built once by the caller and shared by
    several fits, as a C-ordered float array; a shape other than
    (n_rows, n_basis) raises ValueError. A row of design_matrix does not
    depend on the other rows, so its rows, gathered or not, have the bits of
    rows built alone."""
    basis = np.ascontiguousarray(basis, dtype=float)
    if basis.shape != (n_rows, spec.n_basis):
        raise ValueError(
            f"basis must have shape {(n_rows, spec.n_basis)} (one row per observed "
            f"time, n_basis columns), got {basis.shape}"
        )
    return basis


def spline_values(spec: SplineSpec, times, *coefs) -> np.ndarray:
    """Each coefficient vector's spline at the times: row k holds coefs[k]'s.

    The basis is built once, but each of its rows is multiplied by a
    coefficient vector on its own, since a multi-row product may sum in a
    different order and round differently: every value has the bits of a
    call at that time alone.
    """
    basis = design_matrix(spec, times)
    return np.array([[row @ c for row in basis] for c in map(np.asarray, coefs)])

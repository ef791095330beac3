"""Simulated antenatal cohorts.

Each subject is scheduled for one visit in each of the study's five
four-week windows (``VisitSchedule``, defined in ``model``, which owns the
visit intervals; re-exported here).
Visit times are uniform within the window, log measurements follow the
AR(1) process, and attendance is an independent coin per visit. The latent
value is kept for every slot (missingness is a mask), so oracle tests can
compare observed subsets against the full process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LognormalAR1Model, VisitSchedule, log_mean
from .numerics import RngStream, std_normal_quantile, _MIN_UNIFORM

__all__ = ["VisitSchedule", "Cohort", "PairSet", "generate_cohort"]


@dataclass(frozen=True)
class PairSet:
    """Vectorized pairs of earlier/later observed measurements per subject.

    ``pos_prev`` and ``pos_cur`` are the positions of each pair's ends among
    the cohort's ``n_observed`` observed measurements, in
    ``Cohort.observed_points`` order, so that the rows of a basis built once
    on those times serve the pairs too.
    """

    subject_id: np.ndarray
    idx_prev: np.ndarray  # interval index of the earlier measurement
    idx_cur: np.ndarray
    t_prev: np.ndarray
    y_prev: np.ndarray
    t_cur: np.ndarray
    y_cur: np.ndarray
    pos_prev: np.ndarray
    pos_cur: np.ndarray
    n_observed: int

    @property
    def gap(self) -> np.ndarray:
        """Interval-index difference, >= 1; 1 means adjacent intervals."""
        return self.idx_cur - self.idx_prev

    def __len__(self) -> int:
        return self.t_prev.size


@dataclass(frozen=True)
class Cohort:
    """A simulated cohort: per-subject times, latent values and attendance."""

    times: np.ndarray  # (n_subjects, n_intervals)
    values: np.ndarray  # (n_subjects, n_intervals), mmHg
    observed: np.ndarray  # (n_subjects, n_intervals), bool

    def observed_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and values of observed measurements only."""
        mask = self.observed
        return self.times[mask], self.values[mask]

    def pair_set(self, max_gap: int | None = 1) -> PairSet:
        """Pairs of successive observed measurements on the same subject.

        With ``max_gap=1`` only pairs in adjacent intervals qualify and
        pairs spanning a missed visit are dropped; with ``max_gap=None``
        every consecutive pair of observed visits qualifies, whatever the
        gap.
        """
        subj, slot = np.nonzero(self.observed)
        keep = subj[1:] == subj[:-1]
        if max_gap is not None:
            keep &= np.diff(slot) <= max_gap
        pos = np.flatnonzero(keep)
        subj, ia, ib = subj[:-1][keep], slot[:-1][keep], slot[1:][keep]
        return PairSet(
            subject_id=subj,
            idx_prev=ia,
            idx_cur=ib,
            t_prev=self.times[subj, ia],
            y_prev=self.values[subj, ia],
            t_cur=self.times[subj, ib],
            y_cur=self.values[subj, ib],
            pos_prev=pos,
            pos_cur=pos + 1,
            n_observed=slot.size,
        )


def generate_cohort(
    model: LognormalAR1Model,
    schedule: VisitSchedule,
    n_subjects: int,
    stream: RngStream,
) -> Cohort:
    """Simulate a cohort; bit-identical for identical streams.

    Subject i consumes the child stream ``stream.child(i)`` and draws
    3 * n_intervals uniforms: visit times, attendance coins, then the
    innovations of the latent AR(1) via the inverse normal CDF. Every
    subject's stream is expanded in one vectorised pass
    (``RngStream.child_uniforms``), bit-identical to drawing from
    ``stream.child(i).generator()`` subject by subject. The latent
    start is stationary, so every marginal is exactly N(mu(t), sigma^2) on
    the log scale, and missingness is a mask applied afterwards.
    """
    if n_subjects < 1:
        raise ValueError("n_subjects must be at least 1")
    k = schedule.n_intervals
    uniforms = stream.child_uniforms(n_subjects, 3 * k)

    lows = np.array([w[0] for w in schedule.windows])
    widths = np.array([w[1] - w[0] for w in schedule.windows])
    times = lows + widths * uniforms[:, :k]
    observed = uniforms[:, k : 2 * k] < schedule.attendance_prob

    innov = std_normal_quantile(np.maximum(uniforms[:, 2 * k :], _MIN_UNIFORM))
    z = np.empty((n_subjects, k))
    z[:, 0] = innov[:, 0]
    carry = np.sqrt(1.0 - model.rho * model.rho)
    for j in range(1, k):
        z[:, j] = model.rho * z[:, j - 1] + carry * innov[:, j]
    values = np.exp(log_mean(model, times) + model.sigma * z)

    return Cohort(times=times, values=values, observed=observed)

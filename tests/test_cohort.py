import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import kstest

from centilebench.cohort import Cohort, VisitSchedule, generate_cohort
from centilebench.lms import LMSFit, lms_conditional_centile
from centilebench.model import (
    GA_WINDOW,
    LognormalAR1Model,
    PercentilePath,
    conditional_params,
    drift_conditional_ranks,
    marginal_percentile,
)
from centilebench.mvn import MVNFit, mvn_conditional_centile
from centilebench.numerics import RngStream
from centilebench.splines import SplineSpec, design_matrix

from conftest import true_log_mean


def make_cohort(observed_rows):
    """Hand-built cohort with given attendance masks and simple times/values."""
    observed = np.asarray(observed_rows, dtype=bool)
    n, k = observed.shape
    times = np.tile([18.0, 22.0, 26.0, 30.0, 34.0][:k], (n, 1))
    values = np.full((n, k), 70.0) + np.arange(k)
    return Cohort(times=times, values=values, observed=observed)


def scan_pairs(cohort, max_gap):
    """Reference pair builder: a per-subject scan of the attendance mask,
    counting the observed measurements before each pair's earlier end."""
    subj, ia, ib, pos = [], [], [], []
    seen = 0
    for i in range(cohort.times.shape[0]):
        idx = np.nonzero(cohort.observed[i])[0]
        for n, (a, b) in enumerate(zip(idx[:-1], idx[1:])):
            if max_gap is not None and b - a > max_gap:
                continue
            subj.append(i)
            ia.append(int(a))
            ib.append(int(b))
            pos.append(seen + n)
        seen += idx.size
    subj = np.asarray(subj, dtype=int)
    ia = np.asarray(ia, dtype=int)
    ib = np.asarray(ib, dtype=int)
    pos = np.asarray(pos, dtype=int)
    empty = not len(subj)
    return {
        "subject_id": subj,
        "idx_prev": ia,
        "idx_cur": ib,
        "pos_prev": pos,
        "pos_cur": pos + 1,
        "t_prev": np.empty(0) if empty else cohort.times[subj, ia],
        "y_prev": np.empty(0) if empty else cohort.values[subj, ia],
        "t_cur": np.empty(0) if empty else cohort.times[subj, ib],
        "y_cur": np.empty(0) if empty else cohort.values[subj, ib],
    }


class TestVisitSchedule:
    def test_defaults(self, schedule):
        assert schedule.windows[0] == (16.0, 20.0)
        assert schedule.windows[-1] == (32.0, 36.0)
        assert schedule.n_intervals == 5
        assert schedule.attendance_prob == 0.8

    def test_windows_are_fixed(self):
        # The study's five four-week windows over the study window; the
        # attendance probability is the one setting.
        assert [f.name for f in dataclasses.fields(VisitSchedule)] == ["attendance_prob"]
        assert VisitSchedule.windows == (
            (16.0, 20.0), (20.0, 24.0), (24.0, 28.0), (28.0, 32.0), (32.0, 36.0)
        )
        assert VisitSchedule(attendance_prob=0.5).windows is VisitSchedule.windows
        assert (VisitSchedule.windows[0][0], VisitSchedule.windows[-1][1]) == GA_WINDOW
        with pytest.raises(TypeError):
            VisitSchedule(windows=((16.0, 36.0),))

    def test_attendance_domain(self):
        with pytest.raises(ValueError):
            VisitSchedule(attendance_prob=0.0)
        VisitSchedule(attendance_prob=1.0)  # closed at one

    def test_interval_index_default_is_four_week_grid(self, schedule):
        grid = np.concatenate([np.linspace(16.0, 36.0, 401), [20.0 - 1e-12, 36.0]])
        expected = np.minimum(np.floor((grid - 16.0) / 4.0), 4).astype(int)
        assert np.array_equal(schedule.interval_index(grid), expected)
        assert schedule.interval_index(36.0) == 4
        assert isinstance(schedule.interval_index(22.0), int)

    def test_interval_index_follows_windows(self):
        # Each window is half-open, except the last, which holds week 36.
        for j, (lo, hi) in enumerate(VisitSchedule.windows):
            assert VisitSchedule.interval_index(lo) == j
            assert VisitSchedule.interval_index(np.nextafter(hi, lo)) == j
        assert list(VisitSchedule.interval_index([16.0, 18.0, 22.0, 24.0, 26.0, 36.0])) == [
            0, 0, 1, 2, 2, 4
        ]

    @pytest.mark.parametrize("t", [15.9, 36.1, math.nan, math.inf])
    def test_interval_index_rejects_outside_span(self, schedule, t):
        with pytest.raises(ValueError, match="finite"):
            schedule.interval_index(t)


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


def _study_times():
    """Window edges, points just below them, and any time in the study window."""
    edges = sorted({t for w in VisitSchedule.windows for t in w})
    below = [t - 1e-12 for t in edges[1:]]
    return st.one_of(st.sampled_from(edges + below), st.floats(*GA_WINDOW))


def _fitted_layers(t_prev, t_cur):
    """Calls of the fitted conditional centiles on one pair of times."""
    flat = (math.log(70.0),) * 5
    lms = LMSFit(SplineSpec(), (0.0,) * 5, flat, (math.log(0.1),) * 5)
    mvn = MVNFit(SplineSpec(), flat, sigma_hat=0.1, rho_hat=0.6)
    return {
        "lms": lambda: lms_conditional_centile(lms, 0.6, t_prev, 64.0, t_cur, 0.5),
        "mvn": lambda: mvn_conditional_centile(mvn, t_prev, 64.0, t_cur, 0.5),
    }


class TestAdjacencyHasOneOwner:
    """Every layer that conditions on the previous visit accepts exactly the
    pairs of times the schedule's adjacency check accepts."""

    @settings(max_examples=150, deadline=None)
    @given(t_prev=_study_times(), t_cur=_study_times())
    @example(t_prev=16.0, t_cur=20.0)
    @example(t_prev=20.0 - 1e-12, t_cur=20.0)
    @example(t_prev=20.0 - 1e-12, t_cur=24.0)
    @example(t_prev=20.0, t_cur=24.0 - 1e-12)
    @example(t_prev=32.0, t_cur=36.0)
    @example(t_prev=28.0, t_cur=36.0)
    @example(t_prev=20.0, t_cur=20.0)
    @example(t_prev=26.0, t_cur=22.0)
    def test_default_schedule(self, t_prev, t_cur):
        expected = _accepts(lambda: VisitSchedule.check_adjacent(t_prev, t_cur))
        model = LognormalAR1Model()
        layers = _fitted_layers(t_prev, t_cur)
        layers["truth"] = lambda: conditional_params(model, t_prev, t_cur, 64.0)
        layers["drift"] = lambda: drift_conditional_ranks(
            model, PercentilePath((t_prev, t_cur), (0.5, 0.6))
        )
        for name, call in layers.items():
            assert _accepts(call) == expected, name

    @pytest.mark.parametrize(
        "t_prev,t_cur,adjacent", [(18.0, 26.0, False), (22.0, 26.0, True), (22.0, 24.0, True)]
    )
    def test_fixed_windows(self, t_prev, t_cur, adjacent):
        assert _accepts(lambda: VisitSchedule.check_adjacent(t_prev, t_cur)) == adjacent
        for name, call in _fitted_layers(t_prev, t_cur).items():
            assert _accepts(call) == adjacent, name

    def test_message(self):
        with pytest.raises(ValueError, match="2 visit intervals apart.*adjacent intervals"):
            VisitSchedule().check_adjacent(18.0, 26.0)
        with pytest.raises(ValueError, match="study window"):
            VisitSchedule().check_adjacent(12.0, 18.0)


class TestGenerateCohort:
    def test_regeneration_bit_identical(self, model, schedule):
        stream = RngStream(99).child(3)
        a = generate_cohort(model, schedule, 200, stream)
        b = generate_cohort(model, schedule, 200, stream)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.observed, b.observed)

    def test_times_inside_windows(self, model, schedule):
        cohort = generate_cohort(model, schedule, 500, RngStream(11).child(0))
        for j, (lo, hi) in enumerate(schedule.windows):
            assert np.all((cohort.times[:, j] >= lo) & (cohort.times[:, j] < hi))

    def test_observed_fraction(self, big_cohort):
        frac = big_cohort.observed.mean(axis=0)
        assert np.all(np.abs(frac - 0.8) < 0.004)

    def test_median_of_third_window(self, big_cohort, model):
        mask = big_cohort.observed[:, 2]
        vals = big_cohort.values[mask, 2]
        assert abs(np.median(vals) - marginal_percentile(model, 26.0, 0.5)) < 0.3

    def test_latent_lag1_correlation(self, big_cohort, model):
        z = (np.log(big_cohort.values) - true_log_mean(big_cohort.times)) / model.sigma
        corr = np.corrcoef(z[:, :-1].ravel(), z[:, 1:].ravel())[0, 1]
        n = big_cohort.times.shape[0]
        assert abs(corr - model.rho) < 3.0 * (1 - model.rho**2) / math.sqrt(n)

    def test_marginal_z_scores_are_standard_normal(self, big_cohort, model):
        for j in range(big_cohort.times.shape[1]):
            mask = big_cohort.observed[:, j]
            z = (
                np.log(big_cohort.values[mask, j])
                - true_log_mean(big_cohort.times[mask, j])
            ) / model.sigma
            stat = kstest(z, "norm").statistic
            assert stat < 1.63 / math.sqrt(z.size)  # 1% level

    def test_independent_when_rho_zero(self):
        indep = LognormalAR1Model(rho=0.0)
        sched = VisitSchedule(attendance_prob=1.0)
        cohort = generate_cohort(indep, sched, 20_000, RngStream(3).child(0))
        logs = np.log(cohort.values)
        corr = np.corrcoef(logs[:, :-1].ravel(), logs[:, 1:].ravel())[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(cohort.times.shape[0])

    def test_rejects_bad_sizes(self, model, schedule):
        with pytest.raises(ValueError):
            generate_cohort(model, schedule, 0, RngStream(1))

    @pytest.mark.parametrize(
        "seed,rep,n_subjects,full_attendance",
        [
            (20260809, 0, 1000, False),
            (20260809, 499, 1, False),
            (2**64 - 1, 2**33, 37, False),
            (404, 0, 250, True),
            (0, 3, 1, True),
        ],
    )
    def test_matches_per_subject_generators(
        self, model, schedule, monkeypatch, seed, rep, n_subjects, full_attendance
    ):
        # The per-subject Generator is the oracle for the vectorised pass.
        sched = VisitSchedule(attendance_prob=1.0) if full_attendance else schedule
        stream = RngStream(seed).child(rep)
        fast = generate_cohort(model, sched, n_subjects, stream)
        monkeypatch.setattr(
            RngStream,
            "child_uniforms",
            lambda self, n, size: np.stack(
                [self.child(i).generator().random(size) for i in range(n)]
            ),
        )
        slow = generate_cohort(model, sched, n_subjects, stream)
        for name in ("times", "values", "observed"):
            got, want = getattr(fast, name), getattr(slow, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name


class TestPairs:
    def test_lag1_enumeration(self):
        cohort = make_cohort([[True, True, True, False, False]])
        pairs = cohort.pair_set(max_gap=1)
        assert list(zip(pairs.idx_prev, pairs.idx_cur)) == [(0, 1), (1, 2)]
        assert list(pairs.subject_id) == [0, 0]

    def test_gap_excluded(self):
        cohort = make_cohort([[True, False, True, False, False]])
        assert len(cohort.pair_set(max_gap=1)) == 0

    def test_full_attendance_count(self):
        cohort = make_cohort(np.ones((7, 5), dtype=bool))
        assert len(cohort.pair_set(max_gap=1)) == 4 * 7

    def test_successive_pairs_keep_gaps(self):
        cohort = make_cohort([[True, False, True, False, True]])
        pairs = cohort.pair_set(max_gap=None)
        assert list(pairs.gap) == [2, 2]
        assert list(pairs.idx_prev) == [0, 2]

    def test_pair_values_line_up(self):
        cohort = make_cohort([[True, True, False, False, False]])
        pairs = cohort.pair_set(max_gap=1)
        assert pairs.t_prev[0] == 18.0 and pairs.t_cur[0] == 22.0
        assert pairs.y_prev[0] == 70.0 and pairs.y_cur[0] == 71.0

    def test_empty_cohort_pairs(self):
        cohort = make_cohort(np.zeros((3, 5), dtype=bool))
        assert len(cohort.pair_set(max_gap=None)) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        mask=st.integers(0, 12).flatmap(
            lambda n: arrays(bool, (n, 5), elements=st.booleans())
        )
    )
    @example(mask=np.zeros((0, 5), dtype=bool))
    @example(mask=np.zeros((4, 5), dtype=bool))
    @example(mask=np.eye(5, dtype=bool))
    @example(mask=np.ones((3, 5), dtype=bool))
    def test_matches_per_subject_scan(self, mask):
        cohort = make_cohort(mask)
        # distinct times and values per subject, so a misaligned row shows
        step = np.arange(mask.shape[0])[:, None]
        cohort = replace(
            cohort, times=cohort.times + step / 100.0, values=cohort.values + step
        )
        for max_gap in (1, None):
            pairs = cohort.pair_set(max_gap=max_gap)
            assert pairs.n_observed == np.count_nonzero(mask)
            for name, want in scan_pairs(cohort, max_gap).items():
                got = getattr(pairs, name)
                assert got.dtype == want.dtype, name
                assert got.shape == want.shape, name
                assert np.array_equal(got, want), name

    @pytest.mark.parametrize(
        "spec",
        [SplineSpec(), SplineSpec(degree=2), SplineSpec(n_basis=7)],
        ids=["cubic-5", "quadratic-5", "cubic-7"],
    )
    def test_gathered_rows_are_the_rows_built_alone(self, model, spec):
        # A basis row does not depend on the other rows, so the rows of the
        # observed basis at a pair's positions have the bits of the basis
        # built on the pair's times.
        cohort = generate_cohort(model, VisitSchedule(), 1000, RngStream(12).child(0))
        basis = design_matrix(spec, cohort.observed_points()[0])
        for max_gap in (1, None):
            pairs = cohort.pair_set(max_gap=max_gap)
            for pos, times in ((pairs.pos_prev, pairs.t_prev), (pairs.pos_cur, pairs.t_cur)):
                gathered = basis[pos]
                built = design_matrix(spec, times)
                assert gathered.flags.c_contiguous
                assert gathered.shape == built.shape
                assert gathered.tobytes() == built.tobytes()


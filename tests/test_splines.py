import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from centilebench.model import GA_WINDOW
from centilebench.splines import SplineSpec, design_matrix, spline_values


class TestSplineSpec:
    def test_default_knots(self, spec5):
        assert spec5.knots == (16.0,) * 4 + (26.0,) + (36.0,) * 4

    def test_interior_count_derived(self):
        spec = SplineSpec(n_basis=7)
        assert spec.knots[4:-4] == (21.0, 26.0, 31.0)
        # The metadata prints the knots, so they keep np.linspace's bits.
        assert SplineSpec(n_basis=6).knots[4:-4] == (22.666666666666668, 29.333333333333336)

    def test_n_basis_floor(self):
        with pytest.raises(ValueError):
            SplineSpec(n_basis=3)

    def test_basis_spans_the_study_window(self):
        # Degree and size are the only settings; the boundary is the window.
        assert [f.name for f in dataclasses.fields(SplineSpec)] == ["degree", "n_basis"]
        assert SplineSpec().boundary == SplineSpec(degree=2, n_basis=6).boundary == GA_WINDOW
        for key, value in (("boundary", (16.0, 30.0)), ("interior_knots", (24.0,))):
            with pytest.raises(TypeError, match=key):
                SplineSpec(**{key: value})

    @pytest.mark.parametrize("field", ["degree", "n_basis"])
    def test_settings_must_be_integers(self, field):
        # A float size used to fail inside np.linspace, and True fitted at
        # degree 1 and echoed as true.
        for bad in (6.0, 2.5, True, "6"):
            with pytest.raises(ValueError, match=f"^spline {field} must be an integer"):
                SplineSpec(**{field: bad})
        value = getattr(SplineSpec(**{field: np.int64(4)}), field)
        assert value == 4 and type(value) is int


class TestBasisRow:
    def test_partition_of_unity(self, spec5):
        rng = np.random.default_rng(31)
        t = 16.0 + 20.0 * rng.random(10_000)
        rows = design_matrix(spec5, t)
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12
        assert rows.min() >= 0.0

    def test_clamped_left_end(self, spec5):
        assert np.allclose(design_matrix(spec5, [16.0])[0], [1, 0, 0, 0, 0], atol=1e-15)

    def test_clamped_right_end(self, spec5):
        assert np.allclose(design_matrix(spec5, [36.0])[0], [0, 0, 0, 0, 1], atol=1e-15)

    def test_local_support(self, spec5):
        rng = np.random.default_rng(7)
        t = 16.0 + 20.0 * rng.random(500)
        rows = design_matrix(spec5, t)
        assert int(np.max(np.sum(rows > 0.0, axis=1))) <= spec5.degree + 1

    def test_out_of_range(self, spec5):
        with pytest.raises(ValueError):
            design_matrix(spec5, [36.5])
        with pytest.raises(ValueError):
            design_matrix(spec5, [20.0, 15.0])

    def test_matches_scipy_bspline(self, spec5):
        rng = np.random.default_rng(5)
        t = 16.0 + (36.0 - 16.0 - 1e-9) * rng.random(400)
        ours = design_matrix(spec5, t)
        knots = np.asarray(spec5.knots)
        for i in range(spec5.n_basis):
            coef = np.zeros(spec5.n_basis)
            coef[i] = 1.0
            ref = BSpline(knots, coef, spec5.degree, extrapolate=False)(t)
            assert np.max(np.abs(ours[:, i] - ref)) <= 1e-10


class TestDesignMatrix:
    def test_empty(self, spec5):
        assert design_matrix(spec5, []).shape == (0, 5)

    def test_duplicate_rows(self, spec5):
        rows = design_matrix(spec5, [24.0, 24.0])
        assert np.array_equal(rows[0], rows[1])

    def test_full_rank_for_spread_times(self, spec5):
        mat = design_matrix(spec5, [17.0, 22.0, 26.0, 30.0, 35.0])
        assert np.linalg.matrix_rank(mat) == 5

    def test_constant_function_representable(self, spec5):
        rng = np.random.default_rng(13)
        t = 16.0 + 20.0 * rng.random(300)
        values = design_matrix(spec5, t) @ np.full(5, 2.75)
        assert np.max(np.abs(values - 2.75)) <= 1e-12

    def test_cubic_in_span(self, spec5):
        # a global cubic lies in the clamped-cubic space with one interior knot
        t = np.linspace(16.0, 36.0, 201)
        target = 1.0 - 0.2 * t + 0.03 * t**2 - 0.0004 * t**3
        coefs, *_ = np.linalg.lstsq(design_matrix(spec5, t), target, rcond=None)
        assert np.max(np.abs(design_matrix(spec5, t) @ coefs - target)) <= 1e-9

    def test_intercept_only_spec(self):
        spec = SplineSpec(degree=0, n_basis=1)
        rows = design_matrix(spec, [16.0, 25.3, 36.0])
        assert np.array_equal(rows, np.ones((3, 1)))


def column_loop_design_matrix(spec, times):
    """The basis built column by column in an (n, n_spans) array: the
    oracle for design_matrix's row-major recursion, which must give the
    same bits."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    knots = np.asarray(spec.knots)
    n_spans = len(knots) - 1
    last_nonempty = max(j for j in range(n_spans) if knots[j] < knots[j + 1])
    basis = np.zeros((t.size, n_spans))
    for j in range(n_spans):
        if j == last_nonempty:
            basis[:, j] = (knots[j] <= t) & (t <= knots[j + 1])
        else:
            basis[:, j] = (knots[j] <= t) & (t < knots[j + 1])
    for d in range(1, spec.degree + 1):
        nxt = np.zeros((t.size, n_spans - d))
        for j in range(n_spans - d):
            den_left = knots[j + d] - knots[j]
            den_right = knots[j + d + 1] - knots[j + 1]
            term = np.zeros(t.size)
            if den_left > 0.0:
                term += (t - knots[j]) / den_left * basis[:, j]
            if den_right > 0.0:
                term += (knots[j + d + 1] - t) / den_right * basis[:, j + 1]
            nxt[:, j] = term
        basis = nxt
    return basis[:, : spec.n_basis]


_ORACLE_SPECS = [
    SplineSpec(),
    SplineSpec(n_basis=7),
    SplineSpec(degree=0, n_basis=1),
    SplineSpec(degree=1, n_basis=4),
    SplineSpec(degree=2, n_basis=6),
]


class TestColumnLoopOracle:
    @given(
        spec=st.sampled_from(_ORACLE_SPECS),
        random_times=st.lists(st.floats(16.0, 36.0), max_size=40),
        at_knots=st.integers(0, 3),
    )
    def test_same_bits_shape_and_layout(self, spec, random_times, at_knots):
        # Times at every knot (both boundaries among them), repeated, and
        # random times in between.
        t = np.array(list(spec.knots) * at_knots + random_times, dtype=float)
        got = design_matrix(spec, t)
        want = column_loop_design_matrix(spec, t)
        assert got.shape == want.shape == (t.size, spec.n_basis)
        assert got.flags.c_contiguous
        assert [x.hex() for x in got.ravel()] == [x.hex() for x in want.ravel()]

    def test_large_cohort_sized_basis(self, spec5):
        t = np.random.default_rng(17).uniform(16.0, 36.0, 20_086)
        got = design_matrix(spec5, t)
        assert got.flags.c_contiguous
        assert [x.hex() for x in got.ravel()] == [
            x.hex() for x in column_loop_design_matrix(spec5, t).ravel()
        ]


class TestSplineValues:
    @given(
        spec=st.sampled_from(_ORACLE_SPECS),
        random_times=st.lists(st.floats(16.0, 36.0), max_size=20),
        seed=st.integers(0, 2**32 - 1),
        n_curves=st.integers(1, 3),
    )
    def test_each_value_has_the_bits_of_its_time_alone(
        self, spec, random_times, seed, n_curves
    ):
        # Times at every knot (both boundaries among them) and at random.
        t = np.array(list(spec.knots) + random_times)
        coefs = np.random.default_rng(seed).normal(4.0, 1.0, (n_curves, spec.n_basis))
        got = spline_values(spec, t, *(tuple(c) for c in coefs))
        assert got.shape == (n_curves, t.size)
        want = [[design_matrix(spec, x)[0] @ c for x in t] for c in coefs]
        assert [[v.hex() for v in row] for row in got.tolist()] == [
            [float(v).hex() for v in row] for row in want
        ]


class TestNonFiniteTimes:
    @given(
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        good=st.lists(st.floats(16.0, 36.0), max_size=6),
        pos=st.integers(0, 6),
    )
    def test_rejected(self, spec5, bad, good, pos):
        with pytest.raises(ValueError, match="finite"):
            design_matrix(spec5, good[:pos] + [bad] + good[pos:])
        with pytest.raises(ValueError, match="finite"):
            design_matrix(spec5, bad)

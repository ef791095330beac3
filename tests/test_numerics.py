import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centilebench.numerics import RngStream, std_normal_cdf, std_normal_quantile

from conftest import normal_draws

mpmath.mp.dps = 40


def mp_cdf(z: float) -> float:
    """High-precision normal CDF oracle via mpmath's erfc."""
    return float(0.5 * mpmath.erfc(-mpmath.mpf(z) / mpmath.sqrt(2)))


def mp_quantile(p: float) -> float:
    """Quantile oracle: bisection on the mpmath CDF."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mp_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStdNormalCdf:
    def test_at_zero(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("z,expected", [(1.2816, 0.9000), (-1.8808, 0.0300)])
    def test_named_points(self, z, expected):
        assert std_normal_cdf(z) == pytest.approx(mp_cdf(z), abs=1e-13)
        assert std_normal_cdf(z) == pytest.approx(expected, abs=1e-4)

    def test_against_oracle_grid(self):
        for z in np.linspace(-8.0, 8.0, 161):
            assert abs(std_normal_cdf(float(z)) - mp_cdf(float(z))) <= 1e-12

    def test_symmetry(self):
        z = np.linspace(-8.0, 8.0, 401)
        assert np.max(np.abs(std_normal_cdf(-z) - (1.0 - std_normal_cdf(z)))) <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError):
            std_normal_cdf(bad)

    def test_array_input(self):
        out = std_normal_cdf(np.array([0.0, 1.0]))
        assert out.shape == (2,)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_upper_tail_value(self):
        assert std_normal_quantile(0.97) == pytest.approx(mp_quantile(0.97), abs=1e-9)
        assert std_normal_quantile(0.97) == pytest.approx(1.8808, abs=1e-4)

    def test_antisymmetry(self):
        assert std_normal_quantile(0.03) == pytest.approx(
            -std_normal_quantile(0.97), abs=1e-12
        )

    def test_cdf_of_quantile_contract(self):
        for p in [1e-9, 1e-4, 0.03, 0.25, 0.5, 0.75, 0.9, 0.97, 1 - 1e-4, 1 - 1e-9]:
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) <= 1e-9

    def test_round_trip(self):
        z = np.linspace(-6.0, 6.0, 2401)
        back = std_normal_quantile(std_normal_cdf(z))
        assert np.max(np.abs(back - z)) <= 1e-8

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)

    def test_rejects_bad_array_element(self):
        with pytest.raises(ValueError):
            std_normal_quantile(np.array([0.4, 1.0]))


class TestRngStream:
    def test_replay_is_identical(self):
        stream = RngStream(12345, (3, 7))
        assert np.array_equal(stream.generator().random(50), stream.generator().random(50))
        assert np.array_equal(normal_draws(stream, 50), normal_draws(stream, 50))

    def test_child_extends_path(self):
        stream = RngStream(1).child(2).child(5, 9)
        assert stream.path == (2, 5, 9)

    def test_distinct_paths_differ(self):
        a = RngStream(1, (0,)).generator().random(10)
        b = RngStream(1, (1,)).generator().random(10)
        assert not np.array_equal(a, b)

    def test_seed_must_be_u64(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RngStream(1.5),
            lambda: RngStream(1.0),
            lambda: RngStream(1, (0, 2.5)),
            lambda: RngStream(1).child(3.0),
        ],
    )
    def test_non_integral_seed_or_path_rejected(self, build):
        # int() would truncate them into another stream.
        with pytest.raises(ValueError, match="must be integers"):
            build()

    def test_numpy_integers_accepted(self):
        stream = RngStream(np.uint64(5), (np.int64(2),))
        assert stream == RngStream(5, (2,))
        want = RngStream(5, (2,)).generator().random(4)
        assert np.array_equal(stream.generator().random(4), want)

    def test_uniform_mean(self):
        u = RngStream(2024, (0,)).generator().random(1_000_000)
        assert abs(u.mean() - 0.5) < 0.002

    def test_normal_variance(self):
        z = normal_draws(RngStream(2024, (1,)), 1_000_000)
        assert abs(z.var() - 1.0) < 0.01

    def test_cross_stream_independence(self):
        n = 100_000
        a = RngStream(77, (0,)).generator().random(n)
        b = RngStream(77, (1,)).generator().random(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n)

    def test_normals_are_inverse_cdf_of_uniforms(self):
        stream = RngStream(5, (4,))
        u = stream.generator().random(100)
        z = normal_draws(stream, 100)
        assert np.allclose(z, std_normal_quantile(np.maximum(u, 2.0**-55)), atol=0)


def oracle_child_uniforms(stream: RngStream, n: int, size: int) -> np.ndarray:
    """The per-child loop that RngStream.child_uniforms replaces."""
    return np.stack([stream.child(i).generator().random(size) for i in range(n)])


class TestChildUniforms:
    """The vectorised expansion against numpy's per-child Generator."""

    @given(
        seed=st.integers(0, 2**64 - 1),
        path=st.lists(st.integers(0, 2**64 - 1), max_size=3),
        n=st.integers(1, 40),
        size=st.integers(0, 20),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_child_generator(self, seed, path, n, size):
        stream = RngStream(seed, tuple(path))
        got = stream.child_uniforms(n, size)
        want = oracle_child_uniforms(stream, n, size)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "seed,path,n",
        [
            (20260809, (0,), 5000),
            (1, (3,), 1000),
            (2**40 + 5, (7,), 300),
            (2**64 - 1, (2**33,), 50),
            (0, (0,), 10),
            (0, (), 1),
        ],
    )
    def test_pinned_cases(self, seed, path, n):
        stream = RngStream(seed, path)
        got = stream.child_uniforms(n, 15)
        assert got.tobytes() == oracle_child_uniforms(stream, n, 15).tobytes()

    def test_empty_block(self):
        assert RngStream(3).child_uniforms(0, 15).shape == (0, 15)
        assert RngStream(3).child_uniforms(4, 0).shape == (4, 0)

    def test_negative_path_entry_raises_like_seed_sequence(self):
        # Refused where the descriptor is built, not at the first draw.
        with pytest.raises(ValueError) as numpys:
            np.random.SeedSequence(7, spawn_key=(2, -1, 0))
        for build in (lambda: RngStream(7, (2, -1)), lambda: RngStream(7, (2,)).child(-1)):
            with pytest.raises(ValueError, match="non-negative") as ours:
                build()
            assert str(ours.value) == str(numpys.value)

    @pytest.mark.parametrize("n", [-1, 2**32 + 1, 2**40])
    def test_child_index_out_of_range_raises(self, n):
        # Indices above 2**32 - 1 take two SeedSequence words; they are refused
        # before anything is allocated rather than hashed as one word.
        with pytest.raises(ValueError, match="n must lie"):
            RngStream(7, (2,)).child_uniforms(n, 5)

    def test_negative_size_raises(self):
        with pytest.raises(ValueError, match="size"):
            RngStream(7).child_uniforms(3, -1)

"""Tests for the block-size distributions: ranges, moments, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    NormalBlocks,
    PowerLawBlocks,
    UniformBlocks,
    WindowedUniformBlocks,
    block_size_matrix,
    distribution_by_name,
)

ALL_DISTS = [
    UniformBlocks(256),
    WindowedUniformBlocks(256, 50),
    NormalBlocks(256),
    PowerLawBlocks(256, base=0.99),
    PowerLawBlocks(256, base=0.999),
]


class TestRanges:
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.describe())
    def test_samples_within_bounds(self, dist, rng):
        x = dist.sample(rng, 20000)
        assert x.min() >= 0
        assert x.max() <= dist.max_block
        assert x.dtype == np.int64

    def test_windowed_lower_bound(self, rng):
        d = WindowedUniformBlocks(1000, 30)  # sizes in [700, 1000]
        x = d.sample(rng, 5000)
        assert x.min() >= 700

    def test_windowed_r100_is_full_range(self, rng):
        d = WindowedUniformBlocks(100, 100)
        assert d.low == 0
        x = d.sample(rng, 5000)
        assert x.min() < 10

    def test_zero_max_block(self, rng):
        for cls in (UniformBlocks, NormalBlocks):
            d = cls(0)
            assert (d.sample(rng, 100) == 0).all()
            assert d.mean == 0.0


class TestMoments:
    @pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.describe())
    def test_sampled_moments_match_reported(self, dist):
        rng = np.random.default_rng(7)
        x = dist.sample(rng, 200_000).astype(np.float64)
        assert x.mean() == pytest.approx(dist.mean, rel=0.03, abs=0.6)
        assert x.var() == pytest.approx(dist.variance, rel=0.06, abs=1.0)

    def test_uniform_exact_moments(self):
        d = UniformBlocks(100)
        assert d.mean == 50.0
        assert d.variance == pytest.approx((101 ** 2 - 1) / 12)

    def test_normal_centered_at_half(self):
        d = NormalBlocks(600)
        assert d.mean == pytest.approx(300.0, abs=1.0)
        # sigma = N/6, negligible clipping
        assert math.sqrt(d.variance) == pytest.approx(100.0, rel=0.02)

    def test_power_law_mean_below_uniform(self):
        # The paper: power-law 0.99 carries far less total load.
        n = 2048
        assert PowerLawBlocks(n, 0.99).mean < 0.2 * UniformBlocks(n).mean
        # and 0.999 sits between 0.99 and uniform
        assert PowerLawBlocks(n, 0.99).mean < PowerLawBlocks(n, 0.999).mean \
            < UniformBlocks(n).mean

    def test_tabulated_pmf_normalized(self):
        for d in (NormalBlocks(128), PowerLawBlocks(128, 0.99)):
            assert d._pmf.sum() == pytest.approx(1.0)
            assert (d._pmf >= 0).all()


class TestDeterminism:
    def test_same_seed_same_matrix(self):
        d = UniformBlocks(64)
        a = block_size_matrix(d, 16, seed=3)
        b = block_size_matrix(d, 16, seed=3)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        d = UniformBlocks(64)
        assert not np.array_equal(block_size_matrix(d, 16, seed=3),
                                  block_size_matrix(d, 16, seed=4))

    @pytest.mark.parametrize("dist,expect", [
        (PowerLawBlocks(32), [25, 25, 15, 8, 1, 11, 12, 1, 1, 32, 20, 6]),
        (PowerLawBlocks(1024, base=0.999),
         [725, 729, 401, 202, 35, 282, 303, 29, 31, 1023, 541, 162]),
        (NormalBlocks(100), [64, 65, 51, 41, 23, 45, 46, 22, 22, 100, 57, 38]),
    ], ids=lambda v: v.describe() if hasattr(v, "describe") else "")
    def test_tabulated_samples_pinned(self, dist, expect):
        # Inverse-CDF draws come back as int64; dtype and draws are
        # pinned to the values the first version produced.
        got = dist.sample(np.random.default_rng(5), 12)
        assert got.dtype == np.int64
        assert got.tolist() == expect

    def test_matrix_shape(self):
        m = block_size_matrix(UniformBlocks(8), 5, seed=0)
        assert m.shape == (5, 5)

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            block_size_matrix(UniformBlocks(8), 0)


class TestValidationAndFactory:
    def test_negative_max_block(self):
        with pytest.raises(ValueError):
            UniformBlocks(-1)

    def test_windowed_bad_r(self):
        with pytest.raises(ValueError):
            WindowedUniformBlocks(64, 101)

    def test_power_law_bad_base(self):
        with pytest.raises(ValueError):
            PowerLawBlocks(64, base=1.5)
        with pytest.raises(ValueError):
            PowerLawBlocks(64, base=0.0)

    def test_factory(self):
        d = distribution_by_name("power_law", 128, base=0.99)
        assert isinstance(d, PowerLawBlocks)
        d2 = distribution_by_name("windowed_uniform", 128, r_percent=20)
        assert isinstance(d2, WindowedUniformBlocks)
        with pytest.raises(KeyError):
            distribution_by_name("zipf", 128)

    def test_describe_strings(self):
        for d in ALL_DISTS:
            text = d.describe()
            assert str(d.max_block) in text


class TestProperties:
    @given(n=st.integers(0, 4096), seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_uniform_bounds_property(self, n, seed):
        d = UniformBlocks(n)
        x = d.sample(np.random.default_rng(seed), 500)
        assert x.min() >= 0 and x.max() <= n

    @given(n=st.integers(1, 2048), r=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_windowed_mean_formula(self, n, r):
        d = WindowedUniformBlocks(n, r)
        assert d.mean == pytest.approx((d.low + n) / 2)
        assert 0 <= d.low <= n


class _Uniforms:
    """Stands in for a Generator: hands out the given uniforms in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)
        self.pos = 0

    def random(self, out):
        out[:] = self.u[self.pos:self.pos + len(out)]
        self.pos += len(out)
        return out


TABULATED = [PowerLawBlocks(32), PowerLawBlocks(2048), NormalBlocks(256),
             NormalBlocks(7)]


class TestBucketedSampler:
    """The bucket table is a shortcut through ``searchsorted``: every draw
    must be the one the plain inverse-cdf search gives."""

    @pytest.mark.parametrize("p", [1, 33, 1000])
    @pytest.mark.parametrize("dist", TABULATED, ids=lambda d: d.describe())
    def test_matrix_matches_searchsorted(self, dist, p):
        for seed in range(3):
            u = np.random.default_rng(seed).random(p * p)
            expect = np.searchsorted(dist._cdf, u, side="right")
            got = block_size_matrix(dist, p, seed=seed)
            assert got.dtype == np.int64
            assert np.array_equal(got, expect.reshape(p, p))

    @pytest.mark.parametrize("dist", TABULATED + [NormalBlocks(0)],
                             ids=lambda d: d.describe())
    def test_cdf_and_bucket_edges(self, dist):
        edges = np.arange(1 << 14) / (1 << 14)
        cdf = dist._cdf[dist._cdf < 1.0]
        u = np.concatenate([edges, np.nextafter(edges, 1.0),
                            np.nextafter(edges, 0.0), cdf,
                            np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                            [np.nextafter(1.0, 0.0)]])
        u = u[(u >= 0.0) & (u < 1.0)]
        got = dist.sample(_Uniforms(u), len(u))
        assert np.array_equal(got, np.searchsorted(dist._cdf, u,
                                                   side="right"))

    def test_draws_chunk_by_chunk(self):
        # The output is the only P^2 array: uniforms are drawn a chunk at
        # a time (a one-shot draw plus searchsorted peaks at twice this).
        import tracemalloc
        dist = PowerLawBlocks(32)
        tracemalloc.start()
        try:
            sizes = block_size_matrix(dist, 2048, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * sizes.nbytes

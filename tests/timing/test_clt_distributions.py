"""CLT-mode consistency across all the paper's distributions.

The base parity suite (test_parity.py) covers the uniform distribution;
Figs. 8/10/13 run windowed-uniform, normal, and power-law workloads
through the CLT path, so its moment handling must be right for those too.
"""

import numpy as np
import pytest

from repro.simmpi import THETA
from repro.timing import predict_alltoallv
from repro.timing.nonuniform import _serial_moments
from repro.workloads import (
    NormalBlocks,
    PowerLawBlocks,
    UniformBlocks,
    WindowedUniformBlocks,
)

DISTS = [
    UniformBlocks(256),
    WindowedUniformBlocks(256, 40),
    NormalBlocks(256),
    PowerLawBlocks(256, base=0.99),
    PowerLawBlocks(1024, base=0.999),
]


class TestCLTAcrossDistributions:
    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.describe())
    @pytest.mark.parametrize("algorithm", ["two_phase_bruck",
                                           "padded_bruck", "spread_out"])
    def test_clt_tracks_exact(self, dist, algorithm):
        p = 512
        exact = np.median([
            predict_alltoallv(algorithm, THETA, p, dist, seed=s,
                              mode="exact").elapsed for s in range(3)])
        clt = np.median([
            predict_alltoallv(algorithm, THETA, p, dist, seed=s,
                              mode="clt").elapsed for s in range(3)])
        assert clt == pytest.approx(exact, rel=0.12), dist.describe()

    def test_padded_max_order_statistic(self):
        # Padded Bruck's cost is driven by the global max block; the CLT
        # mode's order-statistic sample must land near the true max.
        dist = NormalBlocks(512)
        p = 512
        exact = predict_alltoallv("padded_bruck", THETA, p, dist, seed=0,
                                  mode="exact").elapsed
        clt = predict_alltoallv("padded_bruck", THETA, p, dist, seed=0,
                                mode="clt").elapsed
        assert clt == pytest.approx(exact, rel=0.15)


class TestSerialMoments:
    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.describe())
    def test_moments_match_sampling(self, dist):
        p = 1024
        mean, var = _serial_moments(THETA, dist, p)
        rng = np.random.default_rng(11)
        x = dist.sample(rng, 100_000)
        beta = THETA.beta_eff(p)
        rate = np.where(x <= THETA.eager_threshold,
                        THETA.eager_factor, 1.0) * beta
        s = rate * x
        assert mean == pytest.approx(s.mean(), rel=0.03)
        assert var == pytest.approx(s.var(), rel=0.08, abs=1e-18)

    def test_windowed_mixed_regime_keeps_its_window(self):
        # Past the eager threshold without a tabulated pmf, the moments
        # come from a sample — which must be drawn from the window, not
        # from the full [0, N] range.
        windowed = WindowedUniformBlocks(16384, 10)
        assert windowed.low > THETA.eager_threshold
        got = _serial_moments(THETA, windowed, 256)
        full = _serial_moments(THETA, UniformBlocks(16384), 256)
        assert got[0] > 1.3 * full[0]
        x = windowed.sample(np.random.default_rng(3), 100_000)
        direct = THETA.beta_eff(256) * (
            THETA.eager_factor * THETA.eager_threshold
            + (x - THETA.eager_threshold))
        assert got[0] == pytest.approx(direct.mean(), rel=0.01)
        assert got[1] == pytest.approx(direct.var(), rel=0.08)

    def test_all_eager_shortcut(self):
        # Uniform without a tabulated pmf and max_block below threshold
        # uses the closed-form branch.
        dist = UniformBlocks(100)
        mean, var = _serial_moments(THETA, dist, 64)
        scale = THETA.beta_eff(64) * THETA.eager_factor
        assert mean == pytest.approx(scale * dist.mean)
        assert var == pytest.approx(scale ** 2 * dist.variance)

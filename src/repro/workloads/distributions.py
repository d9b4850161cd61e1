"""Block-size distributions for the paper's microbenchmarks (§4.1, §4.3).

Every rank in a non-uniform all-to-all owns ``P`` data blocks whose sizes
are drawn from a distribution parameterized by the *maximum block size*
``N``:

* :class:`UniformBlocks` — the paper's default: continuous uniform on
  ``[0, N]`` (average ``N/2``), discretized to whole bytes.
* :class:`WindowedUniformBlocks` — the sensitivity-analysis variant
  (§4.2): uniform on ``[(100-r)% of N, N]``; ``r = 100`` recovers
  :class:`UniformBlocks`.
* :class:`NormalBlocks` — Gaussian windowed to ``±3σ`` (§4.3): mean
  ``N/2``, ``σ = N/6``, clipped to ``[0, N]``.
* :class:`PowerLawBlocks` — the paper's "power-law (exponential)"
  distributions with exponent bases 0.99 / 0.999 (§4.3): probability
  ``∝ base**x`` on ``x ∈ [0, N]``, so small blocks dominate and the mean
  sits far below ``N/2``.

Each distribution reports exact ``mean``/``variance`` of its discretized
form; :mod:`repro.timing` uses them for the CLT approximation of per-step
byte sums at very large ``P`` (documented in DESIGN.md), and tests check
the sampled moments against them.

All sampling is deterministic given a seed.  :func:`block_size_matrix`
materializes the full ``P × P`` size matrix (entry ``[s, d]`` = bytes rank
``s`` sends to rank ``d``) for functional runs; for analytic runs at 32K
ranks use the distributions' moments instead — the matrix would need
gigabytes.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

__all__ = [
    "BlockSizeDistribution",
    "UniformBlocks",
    "WindowedUniformBlocks",
    "NormalBlocks",
    "PowerLawBlocks",
    "block_size_matrix",
    "distribution_by_name",
]


class BlockSizeDistribution:
    """Base class: a distribution over integer block sizes in ``[0, N]``."""

    #: Human-readable identifier used by benchmarks and reports.
    name: str = "abstract"

    def __init__(self, max_block: int) -> None:
        if max_block < 0:
            raise ValueError(f"max_block must be non-negative, got {max_block}")
        self.max_block = int(max_block)

    # -- interface ------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` block sizes as an int64 array."""
        raise NotImplementedError

    @property
    def mean(self) -> float:
        raise NotImplementedError

    @property
    def variance(self) -> float:
        raise NotImplementedError

    # -- common helpers --------------------------------------------------
    def describe(self) -> str:
        return (f"{self.name}(N={self.max_block}, mean={self.mean:.1f}, "
                f"std={math.sqrt(self.variance):.1f})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


class UniformBlocks(BlockSizeDistribution):
    """Discrete uniform on ``{0, 1, ..., N}`` — the paper's §4.1 workload."""

    name = "uniform"

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(0, self.max_block + 1, size=size, dtype=np.int64)

    @property
    def mean(self) -> float:
        return self.max_block / 2.0

    @property
    def variance(self) -> float:
        span = self.max_block + 1
        return (span * span - 1) / 12.0


class WindowedUniformBlocks(BlockSizeDistribution):
    """Uniform on ``{floor((100-r)% N), ..., N}`` (§4.2 sensitivity).

    The paper labels configurations ``(100-r)-r``; e.g. ``r = 50`` draws
    sizes from ``[N/2, N]``.  ``r = 100`` is the full-range uniform.
    """

    name = "windowed_uniform"

    def __init__(self, max_block: int, r_percent: float) -> None:
        super().__init__(max_block)
        if not 0 <= r_percent <= 100:
            raise ValueError(f"r_percent must be in [0, 100], got {r_percent}")
        self.r_percent = float(r_percent)
        self.low = int(math.floor(max_block * (100.0 - r_percent) / 100.0))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(self.low, self.max_block + 1, size=size,
                            dtype=np.int64)

    @property
    def mean(self) -> float:
        return (self.low + self.max_block) / 2.0

    @property
    def variance(self) -> float:
        span = self.max_block - self.low + 1
        return (span * span - 1) / 12.0

    def describe(self) -> str:
        lo_pct = 100.0 - self.r_percent
        return (f"{self.name}(N={self.max_block}, window "
                f"{lo_pct:.0f}-{self.r_percent:.0f}, mean={self.mean:.1f})")


_BUCKETS = 1 << 14         # equal-width uniform buckets of the sampler
_SAMPLE_CHUNK = 1 << 16    # uniforms drawn per chunk


class _TabulatedDistribution(BlockSizeDistribution):
    """Helper base: explicit pmf over {0..N}; exact moments; fast sampling."""

    def __init__(self, max_block: int) -> None:
        super().__init__(max_block)
        pmf = self._build_pmf()
        total = pmf.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError(f"degenerate pmf for {self.name} (N={max_block})")
        self._pmf = pmf / total
        self._cdf = np.cumsum(self._pmf)
        # Bucket b covers u in [b/B, (b+1)/B).  With no cdf edge inside it,
        # every such u has the same searchsorted answer (its left edge's);
        # buckets with an edge are marked -1 and searched per draw.
        edges = np.arange(_BUCKETS + 1) / _BUCKETS
        first = np.searchsorted(self._cdf, edges[:-1], side="right")
        last = np.searchsorted(self._cdf, edges[1:], side="left")
        self._bucket = np.where(first == last, first, -1)
        support = np.arange(self.max_block + 1, dtype=np.float64)
        self._mean = float((support * self._pmf).sum())
        self._var = float(((support - self._mean) ** 2 * self._pmf).sum())

    def _build_pmf(self) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-cdf draws (``searchsorted(cdf, u, side="right")``),
        resolved through the bucket table and drawn a chunk at a time
        straight into the output; chunked ``rng.random`` continues the
        one-shot stream, so the draws are the same."""
        out = np.empty(size, dtype=np.int64)
        u = np.empty(min(size, _SAMPLE_CHUNK))
        for lo in range(0, size, _SAMPLE_CHUNK):
            part = u[:min(_SAMPLE_CHUNK, size - lo)]
            dst = out[lo:lo + len(part)]
            rng.random(out=part)
            # u * 2^14 is exact, so truncation is the true bucket index.
            idx = (part * _BUCKETS).astype(np.intp)
            np.take(self._bucket, idx, out=dst, mode="clip")
            miss = np.flatnonzero(dst < 0)
            dst[miss] = np.searchsorted(self._cdf, part[miss], side="right")
        return out

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._var


class NormalBlocks(_TabulatedDistribution):
    """Gaussian block sizes windowed to ``±3σ`` (§4.3).

    Mean ``N/2`` and ``σ = N/6`` put the whole ``±3σ`` window exactly on
    ``[0, N]``; the residual 0.27% tail mass is clipped into the endpoints,
    matching the paper's description of "a window on this distribution".
    """

    name = "normal"

    def _build_pmf(self) -> np.ndarray:
        n = self.max_block
        if n == 0:
            return np.ones(1)
        mu, sigma = n / 2.0, n / 6.0
        edges = np.arange(-0.5, n + 1.0, 1.0)
        cdf = _normal_cdf((edges - mu) / sigma)
        pmf = np.diff(cdf)
        pmf[0] += cdf[0]            # clip left tail into 0
        pmf[-1] += 1.0 - cdf[-1]    # clip right tail into N
        return pmf


class PowerLawBlocks(_TabulatedDistribution):
    """The paper's "power-law (exponential)" sizes: ``pmf(x) ∝ base**x``.

    ``base = 0.99`` concentrates mass near zero (light total load);
    ``base = 0.999`` spreads further (heavier).  Fig. 10 uses both.
    """

    name = "power_law"

    def __init__(self, max_block: int, base: float = 0.99) -> None:
        if not 0 < base < 1:
            raise ValueError(f"base must be in (0, 1), got {base}")
        self.base = float(base)
        super().__init__(max_block)

    def _build_pmf(self) -> np.ndarray:
        x = np.arange(self.max_block + 1, dtype=np.float64)
        return np.power(self.base, x)

    def describe(self) -> str:
        return (f"{self.name}(N={self.max_block}, base={self.base}, "
                f"mean={self.mean:.1f})")


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF via erf (vectorized, no SciPy dependency)."""
    return 0.5 * (1.0 + _erf_vec(z / math.sqrt(2.0)))


_erf_vec = np.vectorize(math.erf, otypes=[np.float64])


def block_size_matrix(dist: BlockSizeDistribution, nprocs: int,
                      seed: int = 0) -> np.ndarray:
    """Materialize the ``P × P`` block-size matrix ``sizes[src, dst]``.

    Row ``s`` is the ``sendcounts`` of rank ``s``; column ``d`` is the
    ``recvcounts`` of rank ``d``.  Deterministic in ``seed``.
    """
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    rng = np.random.default_rng(seed)
    return dist.sample(rng, nprocs * nprocs).reshape(nprocs, nprocs)


def distribution_by_name(name: str, max_block: int,
                         **kwargs: float) -> BlockSizeDistribution:
    """Factory used by benchmark CLIs: ``uniform``, ``windowed_uniform``,
    ``normal``, ``power_law`` (with optional ``base=`` / ``r_percent=``)."""
    factories: Dict[str, type] = {
        UniformBlocks.name: UniformBlocks,
        WindowedUniformBlocks.name: WindowedUniformBlocks,
        NormalBlocks.name: NormalBlocks,
        PowerLawBlocks.name: PowerLawBlocks,
    }
    try:
        cls = factories[name]
    except KeyError:
        raise KeyError(
            f"unknown distribution {name!r}; known: {sorted(factories)}"
        ) from None
    return cls(max_block, **kwargs)

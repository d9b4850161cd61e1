"""Analytic timing of the non-uniform algorithms at arbitrary scale.

Two evaluation modes:

* **exact** — materializes the full ``P×P`` block-size matrix and replays
  every cost the functional implementation charges, in program order,
  vectorized over ranks.  Bit-identical to ``run_spmd`` + the functional
  algorithm (asserted by integration tests); practical to ``P ≈ 4096``.
* **clt** — for the paper's 8K–32K sweeps: per-step per-rank byte totals
  are sampled from their exact aggregate distributions (a sum of ``m ≈ P/2``
  iid block sizes → Normal by the CLT; non-zero block counts → Binomial;
  the global max block → the ``P²``-sample max order statistic via inverse
  CDF).  The clock recurrence itself is unchanged.  Documented
  approximations: cross-step size correlations (a block keeps its size
  across hops) are ignored, and spread-out's completion maximum only
  examines the send offsets that can possibly win (offsets whose head
  start exceeds the largest possible wire time cannot).

Both modes share :mod:`repro.timing.engine`'s primitives, whose constants
are pinned to the functional simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..core.common import BlockSizeState, bruck_substeps
from ..core.registry import get_algorithm
from ..simmpi.machine import ROT_INDEX_COST_PER_PROC, MachineProfile
from ..workloads.distributions import BlockSizeDistribution
from .engine import (
    bruck_step,
    copy_time_blocks,
    copy_time_vec,
    dissemination_allreduce_cost,
    head_latency_vec,
    serial_time_vec,
)

__all__ = ["TimingResult", "predict_alltoallv", "NONUNIFORM_PREDICTABLE",
           "EXACT_LIMIT"]

#: Largest P that ``mode="auto"`` evaluates exactly (a P x P matrix).
EXACT_LIMIT = 2048

_PRICE_ELEMS = 1 << 16  # spread-out arrivals priced per chunk of offsets
_META_ENTRY_BYTES = 4.0

NONUNIFORM_PREDICTABLE = (
    "two_phase_bruck", "padded_bruck", "padded_alltoall", "spread_out",
    "vendor",
)


@dataclass(frozen=True)
class TimingResult:
    """Predicted simulated makespan of one alltoallv invocation."""

    algorithm: str
    nprocs: int
    elapsed: float  # seconds, max over ranks
    mode: str       # "exact" | "clt"
    max_block: int  # the distribution's N parameter


def predict_alltoallv(algorithm: str, machine: MachineProfile, nprocs: int,
                      dist: BlockSizeDistribution, *, seed: int = 0,
                      mode: str = "auto", exact_limit: int = EXACT_LIMIT,
                      radix: int = 2,
                      sizes: Optional[np.ndarray] = None) -> TimingResult:
    """Predict the simulated time of ``algorithm`` on a random workload.

    Parameters
    ----------
    algorithm:
        One of ``two_phase_bruck``, ``padded_bruck``, ``padded_alltoall``,
        ``spread_out``, or ``vendor`` (alias of ``spread_out``, as vendor
        ``MPI_Alltoallv`` is spread-out based).
    dist:
        Block-size distribution; sizes are drawn iid per (src, dst) pair.
    mode:
        ``"exact"``, ``"clt"``, or ``"auto"`` (exact up to ``exact_limit``
        ranks, CLT beyond).
    radix:
        Bruck digit base; values other than 2 are accepted only for the
        radix-capable kernels (``two_phase_bruck``, ``padded_bruck``).
    sizes:
        Exact mode only: the ``(P, P)`` matrix to evaluate, in place of
        the draw ``dist.sample(default_rng(seed), P * P)`` — for callers
        that compare several algorithms on one draw.  Ignored by CLT
        mode, which never materializes a matrix.
    """
    # Resolve through the central registry so unknown names fail the same
    # way as the dispatchers do; vendor MPI_Alltoallv is spread-out based.
    algo = get_algorithm(algorithm, kind="nonuniform")
    name = algo.name
    if name == "vendor":
        name = "spread_out"
    if name not in ("two_phase_bruck", "padded_bruck",
                    "padded_alltoall", "spread_out"):
        raise KeyError(
            f"no analytic predictor for {algorithm!r}; "
            f"predictable: {NONUNIFORM_PREDICTABLE}"
        )
    if radix != 2 and not algo.supports_radix:
        raise ValueError(
            f"algorithm {name!r} does not support radix {radix}")
    algorithm = name
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if mode == "auto":
        mode = "exact" if nprocs <= exact_limit else "clt"
    if mode not in ("exact", "clt"):
        raise ValueError(f"mode must be exact/clt/auto, got {mode!r}")

    # Every entry of both tables takes ``radix``; the kernels without a
    # radix dial were refused anything but 2 above and ignore it.
    rng = np.random.default_rng(seed)
    if mode == "clt":
        elapsed = _CLT[algorithm](machine, nprocs, dist, rng, radix)
    else:
        if sizes is None:
            sizes = dist.sample(rng, nprocs * nprocs).reshape(nprocs, nprocs)
        else:
            sizes = np.asarray(sizes)
            if sizes.shape != (nprocs, nprocs) \
                    or not np.issubdtype(sizes.dtype, np.integer):
                raise ValueError(
                    f"sizes must be an integer ({nprocs}, {nprocs}) "
                    f"matrix, got {sizes.dtype} {sizes.shape}")
            if sizes.min(initial=0) < 0:
                raise ValueError("sizes entries must be >= 0")
        elapsed = _EXACT[algorithm](machine, sizes, radix)
    return TimingResult(algorithm, nprocs, float(elapsed), mode,
                        dist.max_block)


# ----------------------------------------------------------------------
# exact mode
# ----------------------------------------------------------------------

def _two_phase_exact(machine: MachineProfile, sizes: np.ndarray,
                     radix: int = 2) -> float:
    p = sizes.shape[0]
    clocks = np.zeros(p)
    clocks = dissemination_allreduce_cost(clocks, machine, p)
    clocks = clocks + p * ROT_INDEX_COST_PER_PROC
    if int(sizes.max(initial=0)) == 0:
        return float(clocks.max())
    state = BlockSizeState.from_matrix(sizes)
    clocks = clocks + copy_time_vec(machine, state.rows[0])  # self block
    for sub in bruck_substeps(p, radix):
        # metadata exchange
        clocks = bruck_step(clocks, machine, p, sub.jump,
                            _META_ENTRY_BYTES * len(sub.distances))
        # Integer column sums over the moving rows: per-rank bytes and
        # non-empty block count (order-free, so exact in any layout),
        # widened from the state's narrow dtype before they add — into
        # uint32 wherever it cannot overflow (``sum_dtype``).  A count
        # never exceeds P, so a uint32 accumulator holds it; it is about
        # twice as fast as count_nonzero's intp one.
        moving = state.read(sub.distances)
        bytes_out = moving.sum(axis=0, dtype=state.sum_dtype(
            len(sub.distances))).astype(np.float64)
        nz_out = (moving != 0).sum(axis=0, dtype=np.uint32).astype(np.float64)
        clocks = clocks + copy_time_blocks(machine, nz_out, bytes_out)  # pack
        clocks = bruck_step(clocks, machine, p, sub.jump, bytes_out)
        # unpack what the rank `jump` above packed: the same roll the
        # state makes
        clocks = clocks + copy_time_blocks(machine,
                                           np.roll(nz_out, -sub.jump),
                                           np.roll(bytes_out, -sub.jump))
        state.roll(sub.distances, sub.jump, moving)
    return float(clocks.max())


def _padded_common_exact(machine: MachineProfile,
                         sizes: np.ndarray) -> tuple:
    """Shared pad phase: allreduce + per-block padding copies."""
    p = sizes.shape[0]
    clocks = np.zeros(p)
    clocks = dissemination_allreduce_cost(clocks, machine, p)
    max_n = int(sizes.max(initial=0))
    if max_n == 0:
        return clocks, 0
    row_nz = (sizes > 0).sum(axis=1).astype(np.float64)
    row_sum = sizes.sum(axis=1).astype(np.float64)
    clocks = clocks + copy_time_blocks(machine, row_nz, row_sum)
    return clocks, max_n


def _padded_scan_exact(machine: MachineProfile, sizes: np.ndarray,
                       clocks: np.ndarray) -> np.ndarray:
    col_nz = (sizes > 0).sum(axis=0).astype(np.float64)
    col_sum = sizes.sum(axis=0).astype(np.float64)
    return clocks + copy_time_blocks(machine, col_nz, col_sum)


def _uniform_zero_rotation_clocks(machine: MachineProfile, p: int,
                                  block_n: int, clocks: np.ndarray,
                                  radix: int = 2) -> np.ndarray:
    """Clock effect of zero-rotation Bruck over uniform blocks (vectorized
    because the entering clocks may already differ across ranks)."""
    clocks = clocks + p * ROT_INDEX_COST_PER_PROC
    clocks = clocks + machine.copy_time(block_n)  # self block
    for sub in bruck_substeps(p, radix):
        m = len(sub.distances)
        batch = machine.copy_time_blocks(m, m * block_n)
        clocks = clocks + batch
        clocks = bruck_step(clocks, machine, p, sub.jump,
                            float(m * block_n))
        clocks = clocks + batch
    return clocks


def _padded_bruck_exact(machine: MachineProfile, sizes: np.ndarray,
                        radix: int = 2) -> float:
    p = sizes.shape[0]
    clocks, max_n = _padded_common_exact(machine, sizes)
    if max_n == 0:
        return float(clocks.max())
    clocks = _uniform_zero_rotation_clocks(machine, p, max_n, clocks, radix)
    clocks = _padded_scan_exact(machine, sizes, clocks)
    return float(clocks.max())


def _vendor_alltoall_clocks(machine: MachineProfile, p: int, block_n: int,
                            clocks: np.ndarray) -> np.ndarray:
    """Clock effect of the builtin (spread-out) uniform alltoall.

    The P-1 incoming messages are retired in posting order (offset 1 …
    P-1); each serializes at the receiver per the simulator's receive
    rule.
    """
    clocks = clocks + machine.copy_time(block_n)
    base = clocks + (p - 1) * machine.o_recv
    if p == 1:
        return base
    head = machine.head_latency(block_n)
    st = machine.serial_time(block_n, p)
    sender_base = np.concatenate([base, base])  # [p - off:][r] = base[r - off]
    c = base + (p - 1) * machine.o_send  # all sends posted
    for off in range(1, p):
        c = np.maximum(c, sender_base[p - off:2 * p - off]
                       + off * machine.o_send + head) + st
    return c


def _padded_alltoall_exact(machine: MachineProfile, sizes: np.ndarray,
                           radix: int = 2) -> float:
    p = sizes.shape[0]
    clocks, max_n = _padded_common_exact(machine, sizes)
    if max_n == 0:
        return float(clocks.max())
    clocks = _vendor_alltoall_clocks(machine, p, max_n, clocks)
    clocks = _padded_scan_exact(machine, sizes, clocks)
    return float(clocks.max())


def _spread_out_exact(machine: MachineProfile, sizes: np.ndarray,
                      radix: int = 2) -> float:
    p = sizes.shape[0]
    # Spread-out delivers every block in one jump, so the state never
    # rolls; built from the transpose it is indexed by receiver:
    # arriving[off, r] = bytes rank r receives from rank r - off.
    arriving = BlockSizeState.from_matrix(sizes.T).rows
    clocks = np.zeros(p)
    clocks = clocks + copy_time_vec(machine, arriving[0])  # self block
    if p == 1:
        return float(clocks.max())
    base = clocks + (p - 1) * machine.o_recv
    # Row p - off of the windows is base[r - off]: the sender's base.
    senders = sliding_window_view(np.concatenate([base, base]), p)
    c = base + (p - 1) * machine.o_send
    # Arriving sizes are priced a chunk of offsets at a time; the
    # receive recurrence still retires them one offset after another.
    width = max(1, _PRICE_ELEMS // p)
    for lo in range(1, p, width):
        offs = np.arange(lo, min(lo + width, p))
        nb = arriving[lo:lo + len(offs)]
        ready = senders[p - offs] + (offs * machine.o_send)[:, None] \
            + head_latency_vec(machine, nb)
        for a, serial in zip(ready, serial_time_vec(machine, nb, p)):
            np.maximum(c, a, out=c)
            c += serial
    return float(c.max())


_EXACT = {
    "two_phase_bruck": _two_phase_exact,
    "padded_bruck": _padded_bruck_exact,
    "padded_alltoall": _padded_alltoall_exact,
    "spread_out": _spread_out_exact,
}


# ----------------------------------------------------------------------
# CLT mode
# ----------------------------------------------------------------------

def _prob_zero(dist: BlockSizeDistribution) -> float:
    """P(block size == 0) — needed for the Binomial non-zero-block count."""
    pmf = getattr(dist, "_pmf", None)
    if pmf is not None:
        return float(pmf[0])
    low = getattr(dist, "low", 0)
    if low > 0:
        return 0.0
    return 1.0 / (dist.max_block + 1)  # discrete uniform on {0..N}


def _sample_sums(rng: np.random.Generator, count: int, m: int,
                 dist: BlockSizeDistribution) -> np.ndarray:
    """Sample ``count`` sums of ``m`` iid block sizes (CLT, clipped)."""
    if m == 0:
        return np.zeros(count)
    mu, var = dist.mean, dist.variance
    sums = rng.normal(m * mu, math.sqrt(max(m * var, 0.0)), size=count)
    return np.clip(sums, 0.0, float(m * dist.max_block))


def _sample_max_block(rng: np.random.Generator, dist: BlockSizeDistribution,
                      count: int) -> int:
    """Max order statistic of ``count`` iid draws via inverse CDF."""
    if dist.max_block == 0:
        return 0
    u = rng.random() ** (1.0 / count)
    cdf = getattr(dist, "_cdf", None)
    if cdf is not None:
        return int(np.searchsorted(cdf, u, side="right"))
    low = getattr(dist, "low", 0)
    span = dist.max_block - low + 1
    return int(low + min(span - 1, math.floor(u * span)))


def _two_phase_clt(machine: MachineProfile, p: int,
                   dist: BlockSizeDistribution,
                   rng: np.random.Generator, radix: int = 2) -> float:
    clocks = np.zeros(p)
    clocks = dissemination_allreduce_cost(clocks, machine, p)
    clocks = clocks + p * ROT_INDEX_COST_PER_PROC
    if dist.max_block == 0:
        return float(clocks.max())
    clocks = clocks + copy_time_vec(machine, dist.sample(rng, p))
    q_nz = 1.0 - _prob_zero(dist)
    for sub in bruck_substeps(p, radix):
        m = len(sub.distances)
        clocks = bruck_step(clocks, machine, p, sub.jump,
                            _META_ENTRY_BYTES * m)
        bytes_out = _sample_sums(rng, p, m, dist)
        nz_out = rng.binomial(m, q_nz, size=p).astype(np.float64)
        clocks = clocks + copy_time_blocks(machine, nz_out, bytes_out)
        clocks = bruck_step(clocks, machine, p, sub.jump, bytes_out)
        clocks = clocks + copy_time_blocks(machine,
                                           np.roll(nz_out, -sub.jump),
                                           np.roll(bytes_out, -sub.jump))
    return float(clocks.max())


def _padded_phases_clt(machine: MachineProfile, p: int,
                       dist: BlockSizeDistribution,
                       rng: np.random.Generator) -> tuple:
    clocks = np.zeros(p)
    clocks = dissemination_allreduce_cost(clocks, machine, p)
    max_n = _sample_max_block(rng, dist, p * p)
    if max_n == 0:
        return clocks, 0
    q_nz = 1.0 - _prob_zero(dist)
    row_nz = rng.binomial(p, q_nz, size=p).astype(np.float64)
    row_sum = _sample_sums(rng, p, p, dist)
    clocks = clocks + copy_time_blocks(machine, row_nz, row_sum)
    return clocks, max_n


def _padded_scan_clt(machine: MachineProfile, p: int,
                     dist: BlockSizeDistribution, rng: np.random.Generator,
                     clocks: np.ndarray) -> np.ndarray:
    q_nz = 1.0 - _prob_zero(dist)
    col_nz = rng.binomial(p, q_nz, size=p).astype(np.float64)
    col_sum = _sample_sums(rng, p, p, dist)
    return clocks + copy_time_blocks(machine, col_nz, col_sum)


def _padded_bruck_clt(machine: MachineProfile, p: int,
                      dist: BlockSizeDistribution,
                      rng: np.random.Generator, radix: int = 2) -> float:
    clocks, max_n = _padded_phases_clt(machine, p, dist, rng)
    if max_n == 0:
        return float(clocks.max())
    clocks = _uniform_zero_rotation_clocks(machine, p, max_n, clocks, radix)
    clocks = _padded_scan_clt(machine, p, dist, rng, clocks)
    return float(clocks.max())


def _padded_alltoall_clt(machine: MachineProfile, p: int,
                         dist: BlockSizeDistribution,
                         rng: np.random.Generator, radix: int = 2) -> float:
    clocks, max_n = _padded_phases_clt(machine, p, dist, rng)
    if max_n == 0:
        return float(clocks.max())
    # Spread-out exchange over uniform blocks.  The waitall chain
    # c_j = max(c_{j-1}, base_src + j*o_send + head) + serial is linear in
    # j inside the max, so only the endpoints (j = 1, j = P-1) and the
    # all-sends-posted start can attain the fixpoint.  Entering clocks
    # differ only by per-rank pad costs, so we take the sender base from
    # the true neighbour ranks (approximation documented in the module
    # docstring).
    clocks = clocks + machine.copy_time(max_n)
    base = clocks + (p - 1) * machine.o_recv
    if p > 1:
        head = machine.head_latency(max_n)
        st = machine.serial_time(max_n, p)
        c0 = base + (p - 1) * machine.o_send
        cand1 = np.roll(base, 1) + machine.o_send + head + (p - 1) * st
        cand2 = np.roll(base, -1) + (p - 1) * machine.o_send + head + st
        clocks = np.maximum.reduce([c0 + (p - 1) * st, cand1, cand2])
    else:
        clocks = base
    clocks = _padded_scan_clt(machine, p, dist, rng, clocks)
    return float(clocks.max())


def _serial_moments(machine: MachineProfile, dist: BlockSizeDistribution,
                    p: int) -> tuple:
    """Mean and variance of one message's serial (transfer) time."""
    beta = machine.beta_eff(p)
    thr = machine.eager_threshold
    ef = machine.eager_factor
    pmf = getattr(dist, "_pmf", None)
    if pmf is not None:
        x = np.arange(dist.max_block + 1, dtype=np.float64)
        eager = np.minimum(x, thr)
        s = beta * (ef * eager + (x - eager))
        mean = float((s * pmf).sum())
        var = float(((s - mean) ** 2 * pmf).sum())
        return mean, var
    if dist.max_block <= thr:
        # Every block is on the eager path, where the piecewise charge is
        # the pure linear form beta * ef * n.
        scale = beta * ef
        return scale * dist.mean, scale * scale * dist.variance
    # Mixed regime without a tabulated pmf: fall back to a small sample.
    sample = dist.sample(np.random.default_rng(0), 4096)
    eager = np.minimum(sample, thr).astype(np.float64)
    s = beta * (ef * eager + (sample - eager))
    return float(s.mean()), float(s.var())


def _spread_out_clt(machine: MachineProfile, p: int,
                    dist: BlockSizeDistribution,
                    rng: np.random.Generator, radix: int = 2) -> float:
    clocks = np.zeros(p)
    clocks = clocks + copy_time_vec(machine, dist.sample(rng, p))
    if p == 1:
        return float(clocks.max())
    base = clocks + (p - 1) * machine.o_recv
    # The waitall chain's fixpoint is attained near an endpoint of
    #   a_j + sum_{i>=j} serial_i,  a_j = base + j*o_send + head.
    # The serial tail sums are sampled via the CLT from the per-message
    # serial-time moments.
    s_mean, s_var = _serial_moments(machine, dist, p)
    total_serial = np.clip(
        rng.normal((p - 1) * s_mean, math.sqrt(max((p - 1) * s_var, 0.0)),
                   size=p),
        0.0, None)
    head = float(head_latency_vec(machine, dist.mean))
    c0 = base + (p - 1) * machine.o_send
    cand_first = np.roll(base, 1) + machine.o_send + head + total_serial
    last_serial = serial_time_vec(machine, dist.sample(rng, p), p)
    cand_last = np.roll(base, -1) + (p - 1) * machine.o_send + head \
        + last_serial
    best = np.maximum.reduce([c0 + total_serial, cand_first, cand_last])
    return float(best.max())


_CLT = {
    "two_phase_bruck": _two_phase_clt,
    "padded_bruck": _padded_bruck_clt,
    "padded_alltoall": _padded_alltoall_clt,
    "spread_out": _spread_out_clt,
}

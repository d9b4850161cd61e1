"""Memory tripwires of the tensor backend's L = P two-phase evaluator.

Counted, not timed, so they bite on any host.  A ``charge_copies`` batch
costs each lane two integer reductions of the moving rows — a block count
and a byte sum — so a substep holds one cache-sized piece of those rows
and no per-copy float seconds.  The distance-major state it reads is built
one band of ranks at a time, so the build holds the state plus one band.
"""

import tracemalloc

from repro.core.common import BlockSizeState
from repro.simmpi import THETA, ExecutionConfig, TensorAlltoallv, run_spmd
from repro.workloads import block_size_matrix, distribution_by_name


def test_state_build_holds_one_band_beside_the_state():
    """At P = 2048 (``uint8`` rows, 4 MiB) the build peaks at ~5.5 MiB: the
    state plus one ``[band | band]`` buffer of 256 x 4096 entries.
    Narrowing the whole matrix before reading its diagonals holds a
    second P x P copy (8 MiB) and trips this."""
    sizes = block_size_matrix(distribution_by_name("power_law", 32), 2048,
                              seed=7)
    for given in (sizes, sizes.T):
        tracemalloc.start()
        try:
            rows = BlockSizeState.from_matrix(given).rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.dtype == "uint8"
        assert peak <= 1.5 * rows.nbytes, \
            f"peak {peak / 2 ** 20:.2f} MiB for {rows.nbytes / 2 ** 20} MiB"


def test_two_phase_lanes_hold_no_per_copy_seconds():
    """~2.1 MiB at P = 1024: the narrow distance-major state plus a piece
    of it.  Keeping every copy's seconds of a substep — a (P/2) x P
    float64 block, 4 MiB — puts the peak at ~5.2 MiB and trips this."""
    nprocs = 1024
    sizes = block_size_matrix(distribution_by_name("power_law", 32),
                              nprocs, seed=7)
    config = ExecutionConfig(backend="tensor", machine=THETA, trace=False,
                             wire="phantom")
    tracemalloc.start()
    try:
        result = run_spmd(TensorAlltoallv("two_phase_bruck", sizes), nprocs,
                          config=config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert min(result.clocks) > 0
    assert peak <= 3.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

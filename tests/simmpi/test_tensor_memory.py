"""Memory tripwires of the tensor backend's L = P two-phase evaluator.

Counted, not timed, so they bite on any host.  A ``charge_copies`` batch
costs each lane two integer reductions of the moving rows — a block count
and a byte sum — so a substep holds one cache-sized piece of those rows
and no per-copy float seconds.
"""

import tracemalloc

from repro.simmpi import THETA, ExecutionConfig, TensorAlltoallv, run_spmd
from repro.workloads import block_size_matrix, distribution_by_name


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

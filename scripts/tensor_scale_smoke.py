"""Paper-scale smoke: every registered algorithm at P=32768 on the
tensor backend, under one wall-clock budget.

The source paper's largest configurations run at 32K ranks; this script
proves the vectorized backend covers that scale for the full algorithm
registry (uniform and non-uniform) inside a CI budget.  Non-uniform
algorithms run with constant per-pair sizes — the only form that needs
no 32K x 32K byte matrix — which the equivalence matrix separately pins
bit-identical to the coop backend at small P.

One cell runs the other way — one lane per rank over a real size matrix:
power-law two-phase Bruck at P=4096, its clocks first checked against
the coop backend at P=256 on the same distribution — so the L=P lanes
path is exercised at scale outside the host benchmark too.  Its
`tracemalloc` peak stays under 28 MiB (~19 MiB measured): the 16 MiB
`uint8` distance-major state is built one band of ranks at a time, with
no second narrowed P x P copy beside it (that copy put the peak at 32
MiB), and a copy batch is two integer reductions per lane, so no (P/2) x
P float64 block of per-copy seconds is held (64 MiB there).  A second
check cell pins the leader-based `grouped` kernel to coop on a ragged
layout (P=250 in groups of 8: 31 full groups and one of 2) over a
power-law matrix, and its 32K-rank run must keep O(n_groups) state: a
`tracemalloc` peak under 16 MiB (one dense n_groups x n_groups float64
array alone is 128 MiB there).

Usage: PYTHONPATH=src python scripts/tensor_scale_smoke.py [P] [budget_s]
"""

import sys
import time
import tracemalloc

from repro.core.registry import list_algorithms
from repro.simmpi import ExecutionConfig, THETA, run_spmd
from repro.simmpi.tensor import TensorAlltoall, TensorAlltoallv
from repro.workloads import PowerLawBlocks, block_size_matrix

LANES_P, LANES_CHECK_P, LANES_PEAK_MIB = 4096, 256, 28
GROUPED_CHECK_P, GROUPED_PEAK_MIB = 250, 16


def lanes_cell(config: ExecutionConfig) -> None:
    """Power-law two-phase Bruck with one lane per rank at ``LANES_P``,
    after pinning the same spec to the coop backend where coop can go."""
    dist = PowerLawBlocks(32)
    check = TensorAlltoallv("two_phase_bruck",
                            block_size_matrix(dist, LANES_CHECK_P, seed=11))
    coop = run_spmd(check, LANES_CHECK_P,
                    config=config.replace(backend="coop"))
    assert run_spmd(check, LANES_CHECK_P, config=config).clocks \
        == coop.clocks, "tensor L=P clocks differ from coop's"
    lanes = TensorAlltoallv("two_phase_bruck",
                            block_size_matrix(dist, LANES_P, seed=11))
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        res = run_spmd(lanes, LANES_P, config=config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    wall = time.perf_counter() - t0
    assert min(res.clocks) > 0 and len(res.clocks) == LANES_P
    assert peak < LANES_PEAK_MIB * 2 ** 20, \
        f"lanes at P={LANES_P} peaked at {peak / 2 ** 20:.1f} MiB"
    print(f"{'lanes/two_phase_bruck P=%d' % LANES_P:32s} {wall:7.2f}s "
          f"host wall  {max(res.clocks) * 1e3:12.4f} simulated ms  "
          f"{res.total_messages:>12} messages  {peak / 2 ** 20:.1f} MiB "
          f"traced peak (ceiling {LANES_PEAK_MIB})")


def grouped_cell(config: ExecutionConfig, nprocs: int, block: int) -> None:
    """`grouped` against coop on a ragged power-law cell, then its
    constant-size run at ``nprocs`` under a memory ceiling."""
    check = TensorAlltoallv(
        "grouped", block_size_matrix(PowerLawBlocks(32), GROUPED_CHECK_P,
                                     seed=11), 8)
    coop = run_spmd(check, GROUPED_CHECK_P,
                    config=config.replace(backend="coop"))
    assert run_spmd(check, GROUPED_CHECK_P, config=config).clocks \
        == coop.clocks, "tensor grouped clocks differ from coop's"
    tracemalloc.start()
    try:
        res = run_spmd(TensorAlltoallv("grouped", block), nprocs,
                       config=config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert min(res.clocks) > 0 and len(res.clocks) == nprocs
    assert peak < GROUPED_PEAK_MIB * 2 ** 20, \
        f"grouped at P={nprocs} peaked at {peak / 2 ** 20:.1f} MiB"
    print(f"{'grouped check P=%d + peak' % GROUPED_CHECK_P:32s} "
          f"{peak / 2 ** 20:7.1f} MiB traced peak at P={nprocs} "
          f"(ceiling {GROUPED_PEAK_MIB})")


def main(nprocs: int = 32768, wall_budget: float = 300.0) -> int:
    config = ExecutionConfig(machine=THETA, trace=False, backend="tensor",
                             wire="phantom")
    block = 64
    specs = [(f"uniform/{name}", TensorAlltoall(name, block))
             for name in list_algorithms("uniform")]
    specs += [(f"nonuniform/{name}", TensorAlltoallv(name, block))
              for name in list_algorithms("nonuniform")]

    start = time.perf_counter()
    lanes_cell(config)
    grouped_cell(config, nprocs, block)
    for label, spec in specs:
        t0 = time.perf_counter()
        res = run_spmd(spec, nprocs, config=config)
        wall = time.perf_counter() - t0
        clock = max(res.clocks)
        assert clock > 0 and len(res.clocks) == nprocs
        assert res.total_messages > 0
        print(f"{label:32s} {wall:7.2f}s host wall  "
              f"{clock * 1e3:12.4f} simulated ms  "
              f"{res.total_messages:>12} messages")
    total = time.perf_counter() - start
    print(f"\n{len(specs)} algorithms at P={nprocs} + the two check cells: "
          f"{total:.1f}s host wall (budget {wall_budget:.0f}s)")
    if total >= wall_budget:
        print(f"FAIL: exceeded the {wall_budget:.0f}s wall budget")
        return 1
    return 0


if __name__ == "__main__":
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 32768
    budget = float(sys.argv[2]) if len(sys.argv) > 2 else 300.0
    sys.exit(main(p, budget))

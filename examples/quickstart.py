#!/usr/bin/env python
"""Quickstart: run a non-uniform all-to-all on the simulated cluster.

Launches a 16-rank SPMD job on the Theta machine profile, performs the
same random alltoallv with the vendor implementation (spread-out, what
``MPI_Alltoallv`` does) and with the paper's two-phase Bruck, verifies the
bytes delivered are identical, and prints the simulated times.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import THETA, ExecutionConfig, alltoallv, run_spmd
from repro.workloads import UniformBlocks, block_size_matrix, build_vargs, verify_recv

NPROCS = 64
MAX_BLOCK = 32  # bytes; latency-bound regime where Bruck wins at this P

# One global block-size matrix: sizes[s, d] bytes from rank s to rank d.
sizes = block_size_matrix(UniformBlocks(MAX_BLOCK), NPROCS, seed=42)


def exchange(comm, algorithm):
    """The SPMD body: one alltoallv with the chosen algorithm."""
    args = build_vargs(comm.rank, sizes)
    start = comm.clock
    alltoallv(comm, *args.as_tuple(), algorithm=algorithm)
    verify_recv(comm.rank, sizes, args.recvbuf)  # byte-exact delivery
    return comm.clock - start


def main():
    print(f"simulated machine: {THETA.name}  "
          f"(alpha={THETA.alpha * 1e6:.1f}us, "
          f"{1 / THETA.beta / 1e6:.0f} MB/s per rank)")
    print(f"ranks: {NPROCS}, max block: {MAX_BLOCK} B, "
          f"average block: {MAX_BLOCK / 2:.0f} B\n")

    times = {}
    for algorithm in ("vendor", "two_phase_bruck", "padded_bruck"):
        result = run_spmd(exchange, NPROCS,
                          config=ExecutionConfig(machine=THETA),
                          args=(algorithm,))
        times[algorithm] = max(result.returns)  # slowest rank's comm time
        print(f"{algorithm:>18}: {times[algorithm] * 1e6:9.1f} us "
              f"({result.total_messages} messages, "
              f"{result.total_bytes} bytes on the wire)")

    gain = 1 - times["two_phase_bruck"] / times["vendor"]
    print(f"\ntwo-phase Bruck is {gain * 100:.1f}% faster than the vendor "
          f"alltoallv at this (P, N) — exactly the regime the paper targets.")


if __name__ == "__main__":
    main()

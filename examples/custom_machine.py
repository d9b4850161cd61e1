#!/usr/bin/env python
"""Model your own machine and find where Bruck pays off on it.

Defines a custom :class:`MachineProfile` (a fat-node cluster with fast
cores but a heavily shared NIC), verifies the functional simulator and the
analytic engine agree on it, then sweeps the two-phase-vs-vendor crossover
— the workflow a vendor would use to decide when their ``MPI_Alltoallv``
should switch to a Bruck-style algorithm.

Run:  python examples/custom_machine.py
"""

import numpy as np

from repro import (ExecutionConfig, MachineProfile, alltoallv,
                   predict_alltoallv, run_spmd)
from repro.workloads import UniformBlocks, block_size_matrix, build_vargs

MY_CLUSTER = MachineProfile(
    name="my-fat-node-cluster",
    alpha=2.0e-6,          # low-latency fabric
    beta=2.0e-8,           # ...but 128 ranks share each NIC
    o_send=1.0e-6,         # fast cores
    o_recv=1.0e-6,
    eager_threshold=4096,
    eager_factor=6.0,      # small messages are very inefficient here
    congestion_procs=8000.0,
)


def main():
    print(f"profile: {MY_CLUSTER.name}")
    print(f"  per-rank streaming bandwidth: "
          f"{1 / MY_CLUSTER.beta / 1e6:.0f} MB/s")
    print(f"  eager path (< {MY_CLUSTER.eager_threshold} B): "
          f"{1 / (MY_CLUSTER.beta * MY_CLUSTER.eager_factor) / 1e6:.0f} MB/s")

    # 1. Sanity: functional simulator == analytic engine on this profile.
    p, max_n, seed = 16, 128, 7
    dist = UniformBlocks(max_n)
    sizes = block_size_matrix(dist, p, seed=seed)

    def prog(comm):
        args = build_vargs(comm.rank, sizes)
        alltoallv(comm, *args.as_tuple(), algorithm="two_phase_bruck")
    functional = run_spmd(prog, p,
                          config=ExecutionConfig(machine=MY_CLUSTER)).elapsed
    analytic = predict_alltoallv("two_phase_bruck", MY_CLUSTER, p, dist,
                                 seed=seed, mode="exact").elapsed
    print(f"\nengine agreement at P={p}: functional "
          f"{functional * 1e6:.3f} us vs analytic {analytic * 1e6:.3f} us")
    assert np.isclose(functional, analytic, rtol=1e-9)

    # 2. Where does two-phase Bruck win on this machine?
    print(f"\n{'P':>7} | two-phase beats vendor up to N =")
    for procs in (256, 1024, 4096, 16384):
        best = 0
        for n in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
            d = UniformBlocks(n)
            tp = predict_alltoallv("two_phase_bruck", MY_CLUSTER, procs,
                                   d, seed=1).elapsed
            vendor = predict_alltoallv("vendor", MY_CLUSTER, procs, d,
                                       seed=1).elapsed
            if tp < vendor:
                best = n
        print(f"{procs:>7} | {best}")
    print("\nSwap `MY_CLUSTER` for your own measured constants to size the "
          "switch-over for a real system.")


if __name__ == "__main__":
    main()

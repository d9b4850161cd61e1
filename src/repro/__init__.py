"""repro — reproduction of "Optimizing the Bruck Algorithm for Non-uniform
All-to-all Communication" (Fan et al., HPDC '22).

Layers (see README.md / DESIGN.md):

* :mod:`repro.simmpi` — deterministic simulated MPI runtime (cooperative
  per-rank SPMD, LogGP-style cost model, machine profiles).
* :mod:`repro.core` — the paper's algorithms: six uniform Bruck variants,
  padded Bruck, two-phase Bruck, baselines, the Eq. (1)-(3) cost model and
  the Fig. 9 empirical selector.
* :mod:`repro.timing` — analytic timing engine (bit-exact vs. the
  simulator at small P; CLT-scaled to 32K ranks).
* :mod:`repro.workloads` — the paper's block-size distributions.
* :mod:`repro.bpra` / :mod:`repro.apps` — balanced parallel relational
  algebra and the two applications (transitive closure, kCFA).
* :mod:`repro.bench` — per-figure benchmark drivers and reporting.

Quick start::

    import numpy as np
    from repro import ExecutionConfig, run_spmd, alltoallv, THETA

    def program(comm):
        p, r = comm.size, comm.rank
        sendcounts = np.arange(1, p + 1, dtype=np.int64) * (r + 1)
        sdispls = np.concatenate([[0], np.cumsum(sendcounts)[:-1]])
        sendbuf = np.zeros(int(sendcounts.sum()), dtype=np.uint8)
        recvcounts = np.array([(j + 1) * (r + 1) for j in range(p)],
                              dtype=np.int64)  # what each peer sends us
        ...
        alltoallv(comm, sendbuf, sendcounts, sdispls,
                  recvbuf, recvcounts, rdispls,
                  algorithm="two_phase_bruck")

    run_spmd(program, nprocs=16, config=ExecutionConfig(machine=THETA))
"""

from .core import (
    PerformanceModel,
    alltoall,
    alltoallv,
    basic_bruck,
    crossover_block_size,
    modified_bruck,
    padded_alltoall,
    padded_bruck,
    padded_beats_two_phase,
    padded_bruck_time,
    spread_out,
    spread_out_v,
    two_phase_bruck,
    two_phase_bruck_time,
    zero_rotation_bruck,
)
from .simmpi import (
    CORI,
    LOCAL,
    PROFILES,
    STAMPEDE2,
    THETA,
    Communicator,
    ExecutionConfig,
    MachineProfile,
    SPMDResult,
    get_profile,
    run_spmd,
)
from .timing import predict_alltoallv, predict_uniform

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "run_spmd",
    "ExecutionConfig",
    "SPMDResult",
    "Communicator",
    "MachineProfile",
    "get_profile",
    "PROFILES",
    "THETA",
    "CORI",
    "STAMPEDE2",
    "LOCAL",
    "alltoall",
    "alltoallv",
    "basic_bruck",
    "modified_bruck",
    "zero_rotation_bruck",
    "spread_out",
    "padded_bruck",
    "padded_alltoall",
    "two_phase_bruck",
    "spread_out_v",
    "PerformanceModel",
    "padded_bruck_time",
    "two_phase_bruck_time",
    "padded_beats_two_phase",
    "crossover_block_size",
    "predict_alltoallv",
    "predict_uniform",
]

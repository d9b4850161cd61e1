"""Iteration runner: repeat an experiment and summarize like the paper.

All of the paper's microbenchmarks run "for a minimum of 20 iterations" and
report median ± MAD.  In this reproduction an iteration re-runs the
experiment with a fresh workload seed (the simulated clock is deterministic
per seed, so re-running the same seed would produce zero spread — the
randomness that matters is the drawn block-size matrix, exactly as on a real
machine where the workload generator is reseeded per iteration).
"""

from __future__ import annotations

from typing import Callable, List

from ..stats import Summary, summarize

__all__ = ["run_iterations", "run_functional_iterations",
           "DEFAULT_ITERATIONS"]

#: The paper's iteration count.  Benchmark drivers default lower for
#: wall-clock friendliness and accept an override.
DEFAULT_ITERATIONS = 20


def run_iterations(experiment: Callable[[int], float], iterations: int,
                   base_seed: int = 0) -> Summary:
    """Run ``experiment(seed)`` for ``iterations`` distinct seeds.

    ``experiment`` returns a simulated time in seconds; the result is the
    paper's median ± MAD summary.
    """
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    values: List[float] = [
        experiment(base_seed + i) for i in range(iterations)
    ]
    return summarize(values)


def run_functional_iterations(algorithm: str, nprocs: int, dist,
                              iterations: int = 3, *, machine=None,
                              base_seed: int = 0, backend: str = "coop",
                              wire: str = "phantom", **kwargs) -> Summary:
    """Iterated *functional* (simulator) runs of one registered non-uniform
    algorithm; returns the median ± MAD of the simulated makespan.

    Defaults are tuned for timing sweeps: the cooperative backend (scales
    to thousands of ranks) and the **phantom** wire mode (size-only
    envelopes — the simulated clocks are bit-identical to bytes mode, see
    ``DESIGN.md``, but the host moves no payload bytes, so large-P
    iteration loops run dramatically faster and memory-flat).  Pass
    ``wire="bytes"`` when the run should also byte-verify delivery.

    ``backend="tensor"`` evaluates each iteration on the vectorized
    whole-fabric engine (phantom wire required) — same clocks, tens of
    thousands of ranks.
    """
    from ..core.registry import get_algorithm
    from ..simmpi import ExecutionConfig, THETA, run_spmd
    from ..simmpi.tensor import TensorAlltoallv
    from ..workloads import block_size_matrix, build_vargs

    machine = THETA if machine is None else machine
    config = ExecutionConfig(machine=machine, trace=False, backend=backend,
                             wire=wire)

    if backend == "tensor":
        def experiment(seed: int) -> float:
            sizes = block_size_matrix(dist, nprocs, seed=seed)
            result = run_spmd(TensorAlltoallv(algorithm, sizes, **kwargs),
                              nprocs, config=config)
            return max(result.clocks)

        return run_iterations(experiment, iterations, base_seed=base_seed)

    fn = get_algorithm(algorithm, kind="nonuniform").fn
    fill = wire == "bytes"

    def experiment(seed: int) -> float:
        sizes = block_size_matrix(dist, nprocs, seed=seed)

        def prog(comm):
            vargs = build_vargs(comm.rank, sizes, fill=fill)
            start = comm.clock
            fn(comm, *vargs.as_tuple(), **kwargs)
            return comm.clock - start

        result = run_spmd(prog, nprocs, config=config)
        return max(result.returns)

    return run_iterations(experiment, iterations, base_seed=base_seed)

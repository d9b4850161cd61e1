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

__all__ = ["run_iterations", "DEFAULT_ITERATIONS"]

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

"""Empirical performance model and algorithm selector (paper §4.1, Fig. 9).

The paper runs data-scaling sweeps, finds — for each process count ``P`` —
the block-size threshold ``N*`` where two-phase Bruck stops beating the
vendor ``MPI_Alltoallv``, plots the ``(N*, P)`` frontier, and adds a second
polyline separating padded Bruck's niche.  The resulting chart answers
"with ``P = 350`` and ``N = 800``, which algorithm should I call?"

:class:`PerformanceModel` reproduces that artifact programmatically:

* :meth:`PerformanceModel.fit` runs the same sweeps with the analytic
  timing engine (or accepts precomputed measurements) and extracts the two
  crossover frontiers;
* :meth:`PerformanceModel.recommend` interpolates the frontiers in
  log-log space to answer the paper's question for arbitrary ``(P, N)``.

The fitted frontiers are also what the Fig. 9 benchmark prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..simmpi.machine import THETA, MachineProfile
from ..workloads.distributions import UniformBlocks, block_size_matrix
from .cost_model import crossover_block_size
from .registry import get_algorithm

# The three contenders of the Fig. 9 chart, resolved through the central
# registry so a rename there fails loudly here.
def _contenders() -> Tuple[str, str, str]:
    return (get_algorithm("two_phase_bruck", kind="nonuniform").name,
            get_algorithm("padded_bruck", kind="nonuniform").name,
            get_algorithm("vendor", kind="nonuniform").name)

__all__ = ["CrossoverPoint", "PerformanceModel"]

DEFAULT_PROCS = (128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
DEFAULT_BLOCKS = (16, 32, 64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class CrossoverPoint:
    """One fitted frontier point: at ``nprocs``, the algorithm on the left
    wins for block sizes up to ``max_block`` (0 = never wins)."""

    nprocs: int
    max_block: int


@dataclass
class PerformanceModel:
    """The Fig. 9 empirical model: two frontiers over the (N, P) plane.

    ``two_phase_frontier[i]`` — largest N where two-phase Bruck beats the
    vendor alltoallv at that P; ``padded_frontier[i]`` — largest N where
    padded Bruck additionally beats two-phase Bruck.
    """

    machine: MachineProfile
    two_phase_frontier: List[CrossoverPoint] = field(default_factory=list)
    padded_frontier: List[CrossoverPoint] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, machine: MachineProfile = THETA,
            procs: Sequence[int] = DEFAULT_PROCS,
            blocks: Sequence[int] = DEFAULT_BLOCKS,
            seed: int = 0) -> "PerformanceModel":
        """Run data-scaling sweeps and extract both crossover frontiers.

        Uses the analytic timing engine (exact mode through 2048 ranks,
        CLT beyond), mirroring how the paper derives Fig. 9 from Fig. 6.
        """
        from .. import timing  # local import: avoid cycle

        contenders = _contenders()
        model = cls(machine=machine)
        for p in procs:
            largest_tp = 0
            largest_padded = 0
            for n in sorted(blocks):
                dist = UniformBlocks(n)
                # The contenders race on one draw: exact mode would sample
                # this very matrix from ``seed`` once per call.
                sizes = (block_size_matrix(dist, p, seed=seed)
                         if p <= timing.EXACT_LIMIT else None)
                tp, padded, vendor = (
                    timing.predict_alltoallv(name, machine, p, dist,
                                             seed=seed, sizes=sizes).elapsed
                    for name in contenders)
                if tp < vendor:
                    largest_tp = n
                if padded < tp and padded < vendor:
                    largest_padded = n
            model.two_phase_frontier.append(CrossoverPoint(p, largest_tp))
            model.padded_frontier.append(CrossoverPoint(p, largest_padded))
        return model

    @classmethod
    def from_measurements(
        cls, machine: MachineProfile,
        measurements: Dict[Tuple[int, int], Dict[str, float]],
    ) -> "PerformanceModel":
        """Build the model from external timings.

        ``measurements[(nprocs, max_block)]`` maps algorithm name →
        seconds; must include ``two_phase_bruck``, ``padded_bruck`` and
        ``vendor``.  Lets users fit the model to their own cluster's
        numbers, which is exactly the workflow the paper proposes for
        vendors.
        """
        model = cls(machine=machine)
        by_p: Dict[int, List[Tuple[int, Dict[str, float]]]] = {}
        for (p, n), times in measurements.items():
            by_p.setdefault(p, []).append((n, times))
        # Compare through the same registry-resolved names the missing-key
        # check uses — a registry rename must not silently split the two.
        tp_name, padded_name, vendor_name = _contenders()
        required = {tp_name, padded_name, vendor_name}
        for p in sorted(by_p):
            largest_tp = 0
            largest_padded = 0
            for n, times in sorted(by_p[p]):
                missing = required - set(times)
                if missing:
                    raise ValueError(
                        f"measurement ({p}, {n}) missing algorithms: "
                        f"{sorted(missing)}"
                    )
                if times[tp_name] < times[vendor_name]:
                    largest_tp = n
                if times[padded_name] < times[tp_name] \
                        and times[padded_name] < times[vendor_name]:
                    largest_padded = n
            model.two_phase_frontier.append(CrossoverPoint(p, largest_tp))
            model.padded_frontier.append(CrossoverPoint(p, largest_padded))
        return model

    # ------------------------------------------------------------------
    def _frontier_at(self, frontier: List[CrossoverPoint],
                     nprocs: int) -> float:
        """Log-log interpolate a frontier's N* at an arbitrary P."""
        if not frontier:
            raise ValueError("model has not been fitted")
        pts = sorted(frontier, key=lambda c: c.nprocs)
        if nprocs <= pts[0].nprocs:
            return float(pts[0].max_block)
        if nprocs >= pts[-1].nprocs:
            return float(pts[-1].max_block)
        for lo, hi in zip(pts, pts[1:]):
            if lo.nprocs <= nprocs <= hi.nprocs:
                if lo.max_block == 0 or hi.max_block == 0:
                    # Linear blend into a dead frontier.
                    f = (nprocs - lo.nprocs) / (hi.nprocs - lo.nprocs)
                    return (1 - f) * lo.max_block + f * hi.max_block
                f = (math.log2(nprocs) - math.log2(lo.nprocs)) / (
                    math.log2(hi.nprocs) - math.log2(lo.nprocs))
                return 2.0 ** ((1 - f) * math.log2(lo.max_block)
                               + f * math.log2(hi.max_block))
        raise AssertionError("unreachable")

    def two_phase_threshold(self, nprocs: int) -> float:
        """Largest N (interpolated) where two-phase Bruck beats vendor."""
        return self._frontier_at(self.two_phase_frontier, nprocs)

    def padded_threshold(self, nprocs: int) -> float:
        """Largest N (interpolated) where padded Bruck is the best choice."""
        return self._frontier_at(self.padded_frontier, nprocs)

    def recommend(self, nprocs: int, max_block: int) -> str:
        """Answer the paper's question: which algorithm for ``(P, N)``?

        Returns ``"padded_bruck"``, ``"two_phase_bruck"`` or ``"vendor"``.
        The theoretical Eq. (3) predicate breaks the padded/two-phase tie
        when the empirical padded frontier is silent.
        """
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        if max_block < 0:
            raise ValueError(f"max_block must be non-negative, got {max_block}")
        if max_block > self.two_phase_threshold(nprocs):
            return "vendor"
        if max_block <= self.padded_threshold(nprocs):
            return "padded_bruck"
        # Eq. (3) as a tie-breaker for very small N outside the fitted grid.
        if max_block < 8 and crossover_block_size(nprocs, self.machine) \
                > max_block:
            return "padded_bruck"
        return "two_phase_bruck"

    def recommend_radix(self, nprocs: int,
                        max_block: int) -> Tuple[str, int]:
        """:meth:`recommend` plus the analytically best radix for it.

        Returns ``(algorithm, radix)``.  The frontier interpolation picks
        the algorithm exactly as :meth:`recommend` does; for a
        radix-capable winner the closed-form
        :func:`~repro.core.cost_model.best_radix` then picks the digit
        base, else radix 2.  This is also the auto-tuner's cold-start
        answer (:class:`repro.core.tuner.AutoTuner`).
        """
        from .cost_model import best_radix  # local import: avoid cycle

        algorithm = self.recommend(nprocs, max_block)
        if not get_algorithm(algorithm, kind="nonuniform").supports_radix:
            return algorithm, 2
        return algorithm, best_radix(nprocs, max_block, self.machine,
                                     algorithm=algorithm)

    def describe(self) -> str:
        """Human-readable frontier table (the Fig. 9 chart as text)."""
        lines = [f"Empirical performance model ({self.machine.name}):",
                 f"{'P':>8}  {'two-phase wins to N=':>22}  "
                 f"{'padded wins to N=':>18}"]
        for tp, pd in zip(self.two_phase_frontier, self.padded_frontier):
            lines.append(f"{tp.nprocs:>8}  {tp.max_block:>22}  "
                         f"{pd.max_block:>18}")
        return "\n".join(lines)

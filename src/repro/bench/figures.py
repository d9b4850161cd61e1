"""Per-figure experiment drivers for the paper's microbenchmark evaluation.

One function per figure (Figs. 2, 6, 7, 8, 9, 10, 13); each returns plain
data structures that ``benchmarks/figures.py`` renders with
:mod:`repro.bench.reporting` and that the test suite asserts the paper's
qualitative shapes on.  The application figures (11, 12) live with the
applications in :mod:`repro.apps`.

All microbenchmark timings come from :mod:`repro.timing`: uniform
predictions are tensor runs, bit-identical to coop, and non-uniform ones
agree with the functional simulator to 1e-12 relative
(``tests/timing/test_parity.py``).  Non-uniform timings are evaluated
over ``iterations`` distinct workload seeds and summarized as median ±
MAD, exactly the paper's protocol (§4: "minimum of 20 iterations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.selector import PerformanceModel
from ..simmpi.machine import CORI, STAMPEDE2, THETA, MachineProfile
from ..stats import Summary
from ..timing import predict_alltoallv, predict_uniform
from ..workloads.distributions import (
    BlockSizeDistribution,
    NormalBlocks,
    PowerLawBlocks,
    UniformBlocks,
    WindowedUniformBlocks,
)
from .runner import run_iterations

__all__ = [
    "FigureData",
    "UNIFORM_VARIANTS",
    "NONUNIFORM_SCHEMES",
    "fig2a_uniform_variants",
    "fig2b_phase_breakdown",
    "fig6_data_scaling",
    "fig7_weak_scaling",
    "fig8_sensitivity",
    "fig9_performance_model",
    "fig10_distributions",
    "fig13_other_machines",
]

#: Fig. 2's six variants, in the paper's naming.
UNIFORM_VARIANTS = (
    "basic_bruck",
    "basic_bruck_dt",
    "modified_bruck",
    "modified_bruck_dt",
    "zero_copy_bruck_dt",
    "zero_rotation_bruck",
)

#: Fig. 6's five schemes.  ``vendor_alltoallv`` is the stand-in for Cray's
#: MPI_Alltoallv; in this reproduction it is structurally identical to the
#: explicit spread-out implementation (the paper states vendor alltoallv is
#: spread-out based), so the two lines coincide.
NONUNIFORM_SCHEMES = (
    "padded_bruck",
    "two_phase_bruck",
    "padded_alltoall",
    "spread_out",
    "vendor_alltoallv",
)

_SCHEME_TO_ALGO = {
    "padded_bruck": "padded_bruck",
    "two_phase_bruck": "two_phase_bruck",
    "padded_alltoall": "padded_alltoall",
    "spread_out": "spread_out",
    "vendor_alltoallv": "vendor",
}


@dataclass
class FigureData:
    """One reproduced plot: named series over a shared x axis."""

    title: str
    x_header: str
    xs: List
    series: Dict[str, Dict]
    notes: str = ""

    def winner(self, x) -> str:
        """Name of the fastest series at ``x``."""
        best_name, best = None, None
        for name, pts in self.series.items():
            v = pts.get(x)
            if v is None:
                continue
            t = v.median if isinstance(v, Summary) else float(v)
            if best is None or t < best:
                best_name, best = name, t
        if best_name is None:
            raise KeyError(f"no data at x={x!r}")
        return best_name


def _predict_summary(algorithm: str, machine: MachineProfile, nprocs: int,
                     dist: BlockSizeDistribution, iterations: int,
                     base_seed: int) -> Summary:
    return run_iterations(
        lambda seed: predict_alltoallv(algorithm, machine, nprocs, dist,
                                       seed=seed).elapsed,
        iterations, base_seed)


# ----------------------------------------------------------------------
# Fig. 2 — uniform variants
# ----------------------------------------------------------------------

def fig2a_uniform_variants(machine: MachineProfile = THETA,
                           procs: Sequence[int] = (256, 512, 1024, 2048, 4096),
                           block_nbytes: int = 32) -> FigureData:
    """Fig. 2a: total time of the six uniform Bruck variants, N = 32 B."""
    series: Dict[str, Dict] = {name: {} for name in UNIFORM_VARIANTS}
    for name in UNIFORM_VARIANTS:
        for p in procs:
            series[name][p] = predict_uniform(name, machine, p,
                                              block_nbytes).total
    return FigureData(
        title=f"Fig. 2a: uniform Bruck variants, N={block_nbytes} B "
              f"({machine.name})",
        x_header="P", xs=list(procs), series=series,
        notes="Uniform exchanges are deterministic (no workload seed), so "
              "single predictions replace median-of-iterations.",
    )


def fig2b_phase_breakdown(machine: MachineProfile = THETA,
                          procs: Sequence[int] = (256, 1024, 4096),
                          block_nbytes: int = 32,
                          ) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Fig. 2b: per-phase time of the three explicit-memcpy variants.

    Returns ``{P: {variant: {phase: seconds}}}`` with phases
    ``initial_rotation`` / ``communication`` / ``final_rotation`` /
    ``index_setup``.
    """
    variants = ("basic_bruck", "modified_bruck", "zero_rotation_bruck")
    out: Dict[int, Dict[str, Dict[str, float]]] = {}
    for p in procs:
        out[p] = {}
        for name in variants:
            t = predict_uniform(name, machine, p, block_nbytes)
            out[p][name] = {
                "initial_rotation": t.initial_rotation,
                "communication": t.communication,
                "final_rotation": t.final_rotation,
                "index_setup": t.index_setup,
            }
    return out


# ----------------------------------------------------------------------
# Fig. 6 — data scaling
# ----------------------------------------------------------------------

def fig6_data_scaling(machine: MachineProfile = THETA,
                      procs: Sequence[int] = (128, 512, 1024, 4096, 8192,
                                              32768),
                      blocks: Sequence[int] = (16, 32, 64, 128, 256, 512,
                                               1024, 2048),
                      iterations: int = 5,
                      base_seed: int = 0) -> Dict[int, FigureData]:
    """Fig. 6: all five schemes over block size, one panel per P."""
    out: Dict[int, FigureData] = {}
    for p in procs:
        series: Dict[str, Dict] = {name: {} for name in NONUNIFORM_SCHEMES}
        for n in blocks:
            dist = UniformBlocks(n)
            for name in NONUNIFORM_SCHEMES:
                series[name][n] = _predict_summary(
                    _SCHEME_TO_ALGO[name], machine, p, dist, iterations,
                    base_seed)
        out[p] = FigureData(
            title=f"Fig. 6: data scaling at P={p} ({machine.name}, "
                  f"uniform block sizes)",
            x_header="N (bytes)", xs=list(blocks), series=series,
            notes="vendor_alltoallv and spread_out coincide structurally "
                  "in this reproduction (vendor alltoallv is spread-out "
                  "based).",
        )
    return out


# ----------------------------------------------------------------------
# Fig. 7 — weak scaling
# ----------------------------------------------------------------------

def fig7_weak_scaling(machine: MachineProfile = THETA,
                      block_nbytes: int = 64,
                      procs: Sequence[int] = (128, 512, 1024, 4096, 8192,
                                              16384, 32768),
                      iterations: int = 5,
                      base_seed: int = 0) -> FigureData:
    """Fig. 7: fixed max block size, growing process count."""
    dist = UniformBlocks(block_nbytes)
    series: Dict[str, Dict] = {name: {} for name in NONUNIFORM_SCHEMES}
    for p in procs:
        for name in NONUNIFORM_SCHEMES:
            series[name][p] = _predict_summary(
                _SCHEME_TO_ALGO[name], machine, p, dist, iterations,
                base_seed)
    return FigureData(
        title=f"Fig. 7: weak scaling at N={block_nbytes} B ({machine.name})",
        x_header="P", xs=list(procs), series=series,
    )


# ----------------------------------------------------------------------
# Fig. 8 — sensitivity analysis
# ----------------------------------------------------------------------

def fig8_sensitivity(machine: MachineProfile = THETA,
                     nprocs: int = 4096,
                     blocks: Sequence[int] = (16, 64, 256, 512, 1024),
                     r_values: Sequence[int] = (100, 80, 60, 40, 20),
                     iterations: int = 3,
                     base_seed: int = 0,
                     ) -> Dict[Tuple[int, int], Dict[str, Summary]]:
    """Fig. 8: windowed-uniform workloads ``(100-r)%..100% of N``.

    Returns ``{(N, r): {scheme: Summary}}`` for the three schemes the
    figure compares (vendor, two-phase, padded).
    """
    schemes = ("vendor_alltoallv", "two_phase_bruck", "padded_bruck")
    out: Dict[Tuple[int, int], Dict[str, Summary]] = {}
    for n in blocks:
        for r in r_values:
            dist = WindowedUniformBlocks(n, r)
            out[(n, r)] = {
                name: _predict_summary(_SCHEME_TO_ALGO[name], machine,
                                       nprocs, dist, iterations, base_seed)
                for name in schemes
            }
    return out


# ----------------------------------------------------------------------
# Fig. 9 — empirical performance model
# ----------------------------------------------------------------------

def fig9_performance_model(machine: MachineProfile = THETA,
                           procs: Sequence[int] = (128, 256, 512, 1024,
                                                   2048, 4096, 8192, 16384,
                                                   32768),
                           blocks: Sequence[int] = (16, 32, 64, 128, 256,
                                                    512, 1024, 2048),
                           seed: int = 0) -> PerformanceModel:
    """Fig. 9: fit the crossover frontiers from data-scaling sweeps."""
    return PerformanceModel.fit(machine, procs=procs, blocks=blocks,
                                seed=seed)


# ----------------------------------------------------------------------
# Fig. 10 — power-law and normal distributions
# ----------------------------------------------------------------------

def fig10_distributions(machine: MachineProfile = THETA,
                        procs: Sequence[int] = (4096, 8192),
                        blocks: Sequence[int] = (16, 64, 256, 1024, 2048),
                        iterations: int = 3,
                        base_seed: int = 0,
                        ) -> Dict[Tuple[str, int], FigureData]:
    """Fig. 10: the two power-law distributions and the windowed normal.

    Returns ``{(distribution_label, P): FigureData}``.
    """
    schemes = ("padded_bruck", "two_phase_bruck", "vendor_alltoallv")
    dist_makers = {
        "power_law_0.99": lambda n: PowerLawBlocks(n, base=0.99),
        "power_law_0.999": lambda n: PowerLawBlocks(n, base=0.999),
        "normal": NormalBlocks,
    }
    out: Dict[Tuple[str, int], FigureData] = {}
    for label, make in dist_makers.items():
        for p in procs:
            series: Dict[str, Dict] = {name: {} for name in schemes}
            for n in blocks:
                dist = make(n)
                for name in schemes:
                    series[name][n] = _predict_summary(
                        _SCHEME_TO_ALGO[name], machine, p, dist, iterations,
                        base_seed)
            out[(label, p)] = FigureData(
                title=f"Fig. 10: {label} distribution at P={p} "
                      f"({machine.name})",
                x_header="N (bytes)", xs=list(blocks), series=series,
            )
    return out


# ----------------------------------------------------------------------
# Fig. 13 — generality across machines
# ----------------------------------------------------------------------

def fig13_other_machines(machines: Sequence[MachineProfile] = (CORI,
                                                               STAMPEDE2),
                         block_nbytes: int = 64,
                         procs: Sequence[int] = (128, 512, 2048, 8192,
                                                 32768),
                         iterations: int = 3,
                         base_seed: int = 0) -> Dict[str, FigureData]:
    """Fig. 13: weak scaling with normal-distributed sizes on Cori and
    Stampede2 profiles."""
    schemes = ("padded_bruck", "two_phase_bruck", "vendor_alltoallv")
    dist = NormalBlocks(block_nbytes)
    out: Dict[str, FigureData] = {}
    for machine in machines:
        series: Dict[str, Dict] = {name: {} for name in schemes}
        for p in procs:
            for name in schemes:
                series[name][p] = _predict_summary(
                    _SCHEME_TO_ALGO[name], machine, p, dist, iterations,
                    base_seed)
        out[machine.name] = FigureData(
            title=f"Fig. 13: weak scaling, normal dist, N={block_nbytes} B "
                  f"({machine.name})",
            x_header="P", xs=list(procs), series=series,
        )
    return out

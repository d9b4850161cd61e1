"""The paper's primary contribution: Bruck-family all-to-all algorithms.

* :mod:`repro.core.uniform` — every uniform variant of Fig. 2 plus
  zero-rotation Bruck (ours) and the spread-out baseline.
* :mod:`repro.core.nonuniform` — padded Bruck and two-phase Bruck
  (``MPI_Alltoallv`` signature), plus the spread-out / padded-alltoall
  baselines.
* :mod:`repro.core.cost_model` — the paper's Eqs. (1)-(3).
* :mod:`repro.core.selector` — the Fig. 9 empirical model / advisor.
* :mod:`repro.core.tuner` — the ledger-driven algorithm/radix auto-tuner.
"""

from .common import (
    block_moved_before,
    bruck_substeps,
    num_steps,
    radix_num_steps,
    rotation_index_array,
    send_block_distances,
    total_forwarded_blocks,
    total_send_blocks_per_step,
)
from .cost_model import (
    DEFAULT_RADICES,
    LinearCostParams,
    best_radix,
    crossover_block_size,
    padded_beats_two_phase,
    padded_bruck_time,
    radix_cost,
    spread_out_time,
    two_phase_bruck_time,
)
from .nonuniform import (
    alltoallv,
    padded_alltoall,
    padded_bruck,
    spread_out_v,
    two_phase_bruck,
)
from .registry import (
    Algorithm,
    get_algorithm,
    list_algorithms,
    radix_algorithms,
    register_algorithm,
)
from .selector import CrossoverPoint, PerformanceModel
from .tuner import AutoTuner, TunerDecision, block_band
from .uniform import (
    alltoall,
    basic_bruck,
    basic_bruck_dt,
    modified_bruck,
    modified_bruck_dt,
    spread_out,
    zero_copy_bruck_dt,
    zero_rotation_bruck,
)

__all__ = [
    "Algorithm",
    "get_algorithm",
    "list_algorithms",
    "register_algorithm",
    "num_steps",
    "send_block_distances",
    "block_moved_before",
    "rotation_index_array",
    "total_send_blocks_per_step",
    "alltoall",
    "basic_bruck",
    "basic_bruck_dt",
    "modified_bruck",
    "modified_bruck_dt",
    "zero_copy_bruck_dt",
    "zero_rotation_bruck",
    "spread_out",
    "alltoallv",
    "padded_bruck",
    "padded_alltoall",
    "two_phase_bruck",
    "spread_out_v",
    "LinearCostParams",
    "padded_bruck_time",
    "two_phase_bruck_time",
    "spread_out_time",
    "padded_beats_two_phase",
    "crossover_block_size",
    "radix_cost",
    "best_radix",
    "DEFAULT_RADICES",
    "bruck_substeps",
    "radix_num_steps",
    "total_forwarded_blocks",
    "radix_algorithms",
    "PerformanceModel",
    "CrossoverPoint",
    "AutoTuner",
    "TunerDecision",
    "block_band",
]

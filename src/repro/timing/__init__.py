"""Analytic timing engine: the paper's figures at up to 32K simulated ranks.

``predict_uniform`` covers the Fig. 2 variants; ``predict_alltoallv``
covers the non-uniform algorithms of Figs. 6-10/13.  Both share the cost
constants of :mod:`repro.simmpi` and agree with it to 1e-12 relative at
small ``P`` (exact mode; ``tests/timing/test_parity.py``).
"""

from .engine import (
    bruck_step,
    copy_time_blocks,
    copy_time_vec,
    datatype_time_vec,
    dissemination_allreduce_cost,
    sendrecv_rounds,
    wire_time_vec,
)
from .nonuniform import (EXACT_LIMIT, NONUNIFORM_PREDICTABLE, TimingResult,
                         predict_alltoallv)
from .uniform import UNIFORM_PREDICTORS, UniformTiming, predict_uniform

__all__ = [
    "predict_uniform",
    "UniformTiming",
    "UNIFORM_PREDICTORS",
    "predict_alltoallv",
    "TimingResult",
    "NONUNIFORM_PREDICTABLE",
    "EXACT_LIMIT",
    "wire_time_vec",
    "copy_time_vec",
    "copy_time_blocks",
    "datatype_time_vec",
    "bruck_step",
    "sendrecv_rounds",
    "dissemination_allreduce_cost",
]

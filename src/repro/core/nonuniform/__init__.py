"""Non-uniform all-to-all algorithms (paper Section 3).

All implementations share the ``MPI_Alltoallv`` signature::

    fn(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls,
       *, tag_base=0)

with byte counts/displacements over flat byte buffers.  Use
:func:`alltoallv` to dispatch by name; ``"vendor"`` is the stand-in for the
vendor-optimized ``MPI_Alltoallv`` the paper benchmarks against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ...simmpi.communicator import Communicator
from ..registry import get_algorithm, register_algorithm
from .grouped import grouped_alltoallv
from .locality import locality_padded_bruck, locality_two_phase_bruck
from .padded import padded_alltoall, padded_bruck
from .sloav import sloav_alltoallv
from .spread_out_v import spread_out_v
from .twophase import two_phase_bruck

__all__ = [
    "padded_bruck",
    "padded_alltoall",
    "two_phase_bruck",
    "spread_out_v",
    "sloav_alltoallv",
    "grouped_alltoallv",
    "locality_padded_bruck",
    "locality_two_phase_bruck",
    "alltoallv",
]

AlltoallvFn = Callable[..., None]

for _name, _fn, _desc, _radix in (
    ("padded_bruck", padded_bruck,
     "pad blocks to the global max, run uniform Bruck, compact", True),
    ("padded_alltoall", padded_alltoall,
     "pad blocks to the global max, run the builtin alltoall, compact",
     False),
    ("two_phase_bruck", two_phase_bruck,
     "the paper's two-phase Bruck (metadata exchange + packed payloads)",
     True),
    ("spread_out", spread_out_v,
     "pairwise Isend/Irecv spread-out baseline (alltoallv)", False),
    ("sloav", sloav_alltoallv,
     "send-layout-optimized alltoallv variant", False),
    ("grouped", grouped_alltoallv,
     "group-wise staged alltoallv variant", False),
    ("locality_padded_bruck", locality_padded_bruck,
     "node-aware padded Bruck: intra-node gather, inter-node Bruck "
     "over ppn^2-aggregated super-blocks, intra-node scatter", False),
    ("locality_two_phase_bruck", locality_two_phase_bruck,
     "node-aware two-phase Bruck: true-size super-blobs with coupled "
     "metadata over the inter-node tier", False),
):
    register_algorithm(_name, "nonuniform", _fn, _desc,
                       supports_radix=_radix)


def alltoallv(comm: Communicator, sendbuf: np.ndarray,
              sendcounts: Sequence[int], sdispls: Sequence[int],
              recvbuf: np.ndarray, recvcounts: Sequence[int],
              rdispls: Sequence[int], *,
              algorithm: str = "two_phase_bruck", tag_base: int = 0,
              radix: int = 2) -> None:
    """Non-uniform all-to-all dispatching on ``algorithm`` name.

    Names resolve through :mod:`repro.core.registry`; ``"vendor"`` is the
    stand-in for the vendor-optimized ``MPI_Alltoallv``.  ``radix`` other
    than 2 requires a radix-capable algorithm
    (``Algorithm.supports_radix``).
    """
    algo = get_algorithm(algorithm, kind="nonuniform")
    if radix != 2:
        if not algo.supports_radix:
            raise ValueError(
                f"algorithm {algo.name!r} does not support radix "
                f"{radix}; radix-capable nonuniform algorithms accept "
                f"radix=")
        algo.fn(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts,
                rdispls, tag_base=tag_base, radix=radix)
    else:
        algo.fn(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts,
                rdispls, tag_base=tag_base)

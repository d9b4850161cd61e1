"""Zero-Rotation Bruck — the paper's own uniform variant (§2.1).

A synthesis of two tricks:

* from **modified Bruck**: reversed communication direction so the final
  rotation disappears;
* from **SLOAV**: a *rotation index array* ``I[j] = (2p - j) % P`` so the
  initial rotation disappears too — blocks are addressed through ``I``
  instead of being physically shuffled.  Building ``I`` costs O(P) versus
  the O(P·n) of a physical rotation, and ``I`` is cacheable.

The receive buffer doubles as the working buffer: a block that has already
been exchanged at an earlier step lives at its slot in ``R``; a block that
has not yet moved still sits in the *original* send buffer at index
``I[slot]``.  Whether a block has moved is a pure function of its distance
index and the current step (``distance`` has a set bit below ``k``), so no
status bookkeeping is needed — this becomes an explicit ``status`` array
only in the non-uniform two-phase algorithm where sizes change en route.
"""

from __future__ import annotations

import numpy as np

from ...simmpi.communicator import Communicator
from ...simmpi.machine import ROT_INDEX_COST_PER_PROC
from ..common import (
    bruck_substeps,
    radix_block_moved_before,
    rotation_index_array,
    validate_uniform_args,
)
from .basic import PHASE_COMM

__all__ = ["zero_rotation_bruck"]

PHASE_INDEX = "index_setup"


def zero_rotation_bruck(comm: Communicator, sendbuf: np.ndarray,
                        recvbuf: np.ndarray, block_nbytes: int, *,
                        tag_base: int = 0, radix: int = 2) -> None:
    """Uniform all-to-all with neither rotation phase (explicit memcpy).

    ``radix`` selects the base-``r`` digit schedule (``ceil(log_r P)``
    steps, ``r - 1`` messages each); radix 2 is the unchanged default.
    """
    p, rank = comm.size, comm.rank
    sview, rview, n = validate_uniform_args(sendbuf, recvbuf, block_nbytes, p)
    if n == 0:
        return
    smat = sview[: p * n].reshape(p, n)
    rmat = rview[: p * n].reshape(p, n)

    with comm.phase(PHASE_INDEX):
        rot = rotation_index_array(rank, p)  # I[j] = (2p - j) % P
        # O(P) integer work instead of O(P*n) copying; charge it honestly.
        comm.charge_compute(p * ROT_INDEX_COST_PER_PROC)

    # Self block goes straight to its final slot.
    if comm.payload_enabled:
        rmat[rank] = smat[rank]
    comm.charge_copy(n)

    with comm.phase(PHASE_COMM):
        subs = bruck_substeps(p, radix)
        max_m = max((len(s.distances) for s in subs), default=0)
        staging = np.empty(max_m * n, dtype=np.uint8)
        for sub in subs:
            dist = sub.distances
            m = len(dist)
            slots = (dist + rank) % p
            moved = radix_block_moved_before(dist, sub.step, radix)
            dst = (rank - sub.jump) % p
            src_rank = (rank + sub.jump) % p
            stage = np.empty((m, n), dtype=np.uint8)
            # Moved blocks live in R at their slot; unmoved blocks are
            # still the caller's original data, addressed through I.
            if comm.payload_enabled:
                if moved.any():
                    stage[moved] = rmat[slots[moved]]
                if (~moved).any():
                    stage[~moved] = smat[rot[slots[~moved]]]
            comm.charge_copies(np.full(m, n, dtype=np.int64))
            sreq = comm.isend(stage.reshape(-1), dst, tag=tag_base + sub.index)
            rbuf = staging[: m * n]
            rreq = comm.irecv(rbuf, src_rank, tag=tag_base + sub.index)
            sreq.wait()
            rreq.wait()
            if comm.payload_enabled:
                rmat[slots] = rbuf.reshape(m, n)
            comm.charge_copies(np.full(m, n, dtype=np.int64))

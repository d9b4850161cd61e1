"""Modified Bruck algorithm (Träff et al. [39]; paper §2.1, Fig. 1b).

Eliminates basic Bruck's final rotation by reversing the communication
direction and adjusting the initial rotation:

1. **Initial rotation** — ``R[j] = S[(2p - j) % P]``.  The block rank ``p``
   must deliver to ``d`` sits at slot ``(p + i) % P`` where
   ``i = (p - d) % P`` is its travel distance (now in the *negative*
   direction).
2. **log2(P) steps** — in step ``k``, send to ``(p - 2^k) % P`` the slots
   ``(i + p) % P`` for every distance ``i`` with bit ``k`` set; receive the
   same distance set from ``(p + 2^k) % P``.  The slot of a block is always
   ``(i + current_rank) % P``, so on its destination ``d = s - i`` it sits
   at slot ``(i + d) % P = s`` — the receive buffer's final layout.  No
   final rotation.
"""

from __future__ import annotations

import numpy as np

from ...simmpi.communicator import Communicator
from ...simmpi.datatype import IndexedBlocks
from ..common import bruck_substeps, validate_uniform_args
from .basic import PHASE_COMM, PHASE_ROTATE_IN

__all__ = ["modified_bruck", "modified_bruck_dt"]


def modified_bruck(comm: Communicator, sendbuf: np.ndarray,
                   recvbuf: np.ndarray, block_nbytes: int, *,
                   use_datatypes: bool = False, tag_base: int = 0,
                   radix: int = 2) -> None:
    """Uniform all-to-all via modified Bruck (no final rotation).

    ``radix`` generalizes the exchange to base-``r`` digits: ``ceil(log_r
    P)`` steps of up to ``r - 1`` messages each.  Radix 2 (the default)
    runs the identical substep schedule as before.
    """
    p, rank = comm.size, comm.rank
    sview, rview, n = validate_uniform_args(sendbuf, recvbuf, block_nbytes, p)
    if n == 0:
        return
    smat = sview[: p * n].reshape(p, n)
    rmat = rview[: p * n].reshape(p, n)

    with comm.phase(PHASE_ROTATE_IN):
        src = (2 * rank - np.arange(p)) % p
        if comm.payload_enabled:
            rmat[:] = smat[src]
        comm.charge_copies(np.full(p, n, dtype=np.int64))

    with comm.phase(PHASE_COMM):
        subs = bruck_substeps(p, radix)
        max_m = max((len(s.distances) for s in subs), default=0)
        staging = np.empty(max_m * n, dtype=np.uint8)
        for sub in subs:
            dist = sub.distances
            m = len(dist)
            slots = (dist + rank) % p
            dst = (rank - sub.jump) % p
            src_rank = (rank + sub.jump) % p
            tag = tag_base + sub.index
            rbuf = staging[: m * n]
            if use_datatypes:
                blocks = IndexedBlocks([(int(j) * n, n) for j in slots])
                payload = comm.pack(rview, blocks)
                sreq = comm.isend(payload, dst, tag=tag)
                rreq = comm.irecv(rbuf, src_rank, tag=tag)
                sreq.wait()
                rreq.wait()
                comm.unpack(rview, blocks, rbuf)
            else:
                if comm.payload_enabled:
                    stage = rmat[slots].reshape(-1)
                else:
                    stage = np.empty(m * n, dtype=np.uint8)
                comm.charge_copies(np.full(m, n, dtype=np.int64))
                sreq = comm.isend(stage, dst, tag=tag)
                rreq = comm.irecv(rbuf, src_rank, tag=tag)
                sreq.wait()
                rreq.wait()
                if comm.payload_enabled:
                    rmat[slots] = rbuf.reshape(m, n)
                comm.charge_copies(np.full(m, n, dtype=np.int64))


def modified_bruck_dt(comm: Communicator, sendbuf: np.ndarray,
                      recvbuf: np.ndarray, block_nbytes: int, *,
                      tag_base: int = 0, radix: int = 2) -> None:
    """ModifiedBruck-dt: the derived-datatype build of :func:`modified_bruck`."""
    modified_bruck(comm, sendbuf, recvbuf, block_nbytes, use_datatypes=True,
                   tag_base=tag_base, radix=radix)

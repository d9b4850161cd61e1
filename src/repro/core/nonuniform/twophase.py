"""Two-phase Bruck — the paper's flagship non-uniform all-to-all
(§3.2, Algorithm 1, Figs. 3–5).

Extending Bruck to variable block sizes poses two problems: (a) a rank
does not know how many bytes it will receive at each of the ``log2 P``
steps, and (b) intermediate blocks can outgrow the slots of the send or
receive buffer.  Two-phase Bruck solves (a) with a **coupled metadata
exchange** — each step first sends the sizes of the blocks about to move
(one 4-byte integer each), so the partner can post an exact-size receive —
and (b) with a **monolithic working buffer** ``W`` of ``P × N`` bytes
(``N`` = global max block size, found with one allreduce), where slot ``j``
of ``W`` parks any in-transit block at working slot ``j``.

The communication structure is zero-rotation Bruck's: the rotation index
array ``I[j] = (2p - j) % P`` replaces the initial rotation; the reversed
send direction removes the final rotation; blocks received for the last
time are deposited *directly* at their ``rdispls`` position in the receive
buffer (no final scan).  A block's ``status`` flag says whether its current
bytes live in the caller's send buffer (never moved) or in ``W``; its
current size is tracked in a working copy of ``sendcounts`` keyed, like
``status``, by the original block index ``I[slot]`` — Algorithm 1's exact
bookkeeping.

Per step the algorithm pays **two** latencies (metadata + data) but moves
only the true bytes; versus padded Bruck's one latency but ``N``-padded
bytes — Eq. (1)–(3)'s trade.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...simmpi.communicator import Communicator
from ...simmpi.datatype import gather_index
from ...simmpi.machine import ROT_INDEX_COST_PER_PROC
from ..common import (
    as_byte_view,
    bruck_substeps,
    checked_counts_displs,
    checked_wire_counts,
    rotation_index_array,
)

__all__ = ["two_phase_bruck"]

PHASE_SETUP = "setup"
PHASE_META = "metadata_exchange"
PHASE_DATA = "data_exchange"

_META_DTYPE = np.int32  # the paper's model charges 4 bytes per size entry
_META_MAX = np.iinfo(_META_DTYPE).max


def two_phase_bruck(comm: Communicator, sendbuf: np.ndarray,
                    sendcounts: Sequence[int], sdispls: Sequence[int],
                    recvbuf: np.ndarray, recvcounts: Sequence[int],
                    rdispls: Sequence[int], *, tag_base: int = 0,
                    radix: int = 2) -> None:
    """Non-uniform all-to-all via coupled metadata/data Bruck exchange.

    Same contract as ``MPI_Alltoallv`` over ``MPI_BYTE``: counts and
    displacements in bytes, flat byte buffers.  ``radix`` selects the
    base-``r`` digit schedule — each substep still pays the coupled
    metadata + data latency pair, so higher radix trades fewer rounds
    (``ceil(log_r P)``) for ``r - 1`` message pairs per round.
    """
    p, rank = comm.size, comm.rank
    raw_max = int(np.asarray(sendcounts, dtype=np.int64).max(initial=0))
    if raw_max > _META_MAX:
        raise ValueError(
            f"block sizes above {_META_MAX} bytes overflow the 4-byte "
            f"metadata entries (got {raw_max})"
        )
    sview = as_byte_view(sendbuf, "sendbuf")
    rview = as_byte_view(recvbuf, "recvbuf")
    scounts, sdis = checked_counts_displs(sendcounts, sdispls, p,
                                          sview.nbytes, "send")
    rcounts, rdis = checked_counts_displs(recvcounts, rdispls, p,
                                          rview.nbytes, "recv")

    with comm.phase(PHASE_SETUP):
        # Algorithm 1 lines 1-5: global max block size, working buffer W,
        # rotation index array I.
        local_max = int(scounts.max()) if p else 0
        max_n = int(comm.allreduce(local_max, op="max"))
        checked_wire_counts(comm, "two_phase_bruck", max_n,
                            extent=p * max_n)
        rot = rotation_index_array(rank, p)          # I[j] = (2p - j) % P
        comm.charge_compute(p * ROT_INDEX_COST_PER_PROC)
        if max_n == 0:
            return
        work = np.empty(p * max_n, dtype=np.uint8)   # monolithic buffer W
        # Working size of the block currently at slot j, keyed by the
        # original block index I[j] (Algorithm 1 keeps it in sendcounts).
        cur_counts = scounts.copy()
        # status[b] == True: the block keyed b has moved and lives in W.
        status = np.zeros(p, dtype=bool)

    # Self block: delivered locally, never enters the exchange.
    n_self = int(scounts[rank])
    if n_self:
        if comm.payload_enabled:
            rview[rdis[rank]:rdis[rank] + n_self] = \
                sview[sdis[rank]:sdis[rank] + n_self]
        comm.charge_copy(n_self)

    for sub in bruck_substeps(p, radix):
        dist = sub.distances                         # lines 8-10
        m = len(dist)
        slots = (dist + rank) % p                    # sd[] slot indices
        keys = rot[slots]                            # I[sd[i]]
        send_rank = (rank - sub.jump) % p            # line 14
        recv_rank = (rank + sub.jump) % p            # line 15
        meta_tag = tag_base + 2 * sub.index
        data_tag = tag_base + 2 * sub.index + 1

        with comm.phase(PHASE_META):
            # Lines 11-13, 16: exchange the sizes of the moving blocks.
            # Control plane: the receiver reads these sizes to post its
            # exact-size data receive, so they carry real bytes even in
            # phantom wire mode.
            meta_out = cur_counts[keys].astype(_META_DTYPE)
            meta_in = np.empty(m, dtype=_META_DTYPE)
            comm.sendrecv(meta_out, send_rank, meta_tag,
                          meta_in, recv_rank, meta_tag,
                          control=True)

        with comm.phase(PHASE_DATA):
            # Lines 17-24: gather the moving blocks into one message,
            # drawing from W (moved before) or the send buffer (fresh).
            # The gather is two committed-index fancy-indexing calls (one
            # per source buffer) instead of a per-block Python loop; the
            # per-block copies are charged in the same order as before.
            counts_out = meta_out.astype(np.int64)
            out_total = int(counts_out.sum())
            stage = np.empty(out_total, dtype=np.uint8)
            if comm.payload_enabled and out_total:
                out_starts = np.cumsum(counts_out) - counts_out
                moved = status[keys]
                src_offs = np.where(moved, slots * max_n, sdis[keys])
                for grp, src in ((moved, work), (~moved, sview)):
                    if grp.any():
                        stage[gather_index(out_starts[grp], counts_out[grp])] = \
                            src[gather_index(src_offs[grp], counts_out[grp])]
            comm.charge_copies(counts_out)
            sreq = comm.isend(stage, send_rank, data_tag)
            counts_in = checked_wire_counts(comm, "two_phase_bruck", meta_in)
            in_total = int(counts_in.sum())
            incoming = np.empty(in_total, dtype=np.uint8)
            rreq = comm.irecv(incoming, recv_rank, data_tag)
            sreq.wait()
            rreq.wait()
            # Lines 25-33: scatter; finished blocks (no set bit above k in
            # their distance) go straight to their final rdispls position,
            # in-transit blocks park in W at their slot.
            finished = dist < radix ** (sub.step + 1)      # line 26
            mismatch = finished & (counts_in != rcounts[slots])
            if mismatch.any():
                a = int(np.argmax(mismatch))
                raise ValueError(
                    f"rank {rank}: block from source {int(slots[a])} arrived "
                    f"with {int(counts_in[a])} bytes but recvcounts promises "
                    f"{int(rcounts[slots[a]])} (mismatched counts "
                    f"between sender and receiver)"
                )
            if comm.payload_enabled and in_total:
                in_starts = np.cumsum(counts_in) - counts_in
                # Final layout: the block at slot j comes from source j,
                # so rdispls is indexed by the slot.
                dst_offs = np.where(finished, rdis[slots], slots * max_n)
                for grp, dst in ((finished, rview), (~finished, work)):
                    if grp.any():
                        dst[gather_index(dst_offs[grp], counts_in[grp])] = \
                            incoming[gather_index(in_starts[grp], counts_in[grp])]
            comm.charge_copies(counts_in)
            status[keys] = True                      # line 31
            cur_counts[keys] = counts_in             # line 32

"""Padded Bruck — non-uniform all-to-all by reduction to the uniform case
(paper §3.1).

Three phases:

1. **Pad** — an ``MPI_Allreduce(max)`` finds the global maximum block size
   ``N`` over all P×P blocks; every rank copies its P blocks into a
   ``P × N`` uniform buffer (unused tail bytes are simply never read).
2. **Uniform exchange** — zero-rotation Bruck over the padded buffer (the
   paper builds both non-uniform algorithms on its zero-rotation variant).
3. **Scan** — each received N-sized block is trimmed to its true
   ``recvcounts`` size and copied to its ``rdispls`` position.

The exchange moves ``log2(P) * (P+1)/2 * N`` bytes per rank — roughly
*twice* the two-phase algorithm's volume when block sizes are uniformly
distributed in ``[0, N]`` (average ``N/2``) — but it needs only *one*
message per step instead of two.  Hence Eq. (3): padded wins only when the
extra bytes cost less than the saved per-step latency, i.e. for very small
``N`` and ``P``.

``padded_alltoall`` is the paper's control variant: identical pad and scan
phases, but the uniform exchange is the *vendor* alltoall (spread-out)
instead of Bruck — isolating how much of the win comes from Bruck itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...simmpi.communicator import Communicator
from ...simmpi.datatype import gather_index
from ..common import (as_byte_view, checked_counts_displs,
                      checked_wire_counts)
from ..uniform.zero_rotation import zero_rotation_bruck

__all__ = ["padded_bruck", "padded_alltoall"]

PHASE_PAD = "padding"
PHASE_SCAN = "scan"


def _pad_exchange_scan(comm: Communicator, sendbuf: np.ndarray,
                       sendcounts: Sequence[int], sdispls: Sequence[int],
                       recvbuf: np.ndarray, recvcounts: Sequence[int],
                       rdispls: Sequence[int], *, use_vendor_alltoall: bool,
                       tag_base: int, radix: int = 2) -> None:
    p, rank = comm.size, comm.rank
    sview = as_byte_view(sendbuf, "sendbuf")
    rview = as_byte_view(recvbuf, "recvbuf")
    scounts, sdis = checked_counts_displs(sendcounts, sdispls, p,
                                          sview.nbytes, "send")
    rcounts, rdis = checked_counts_displs(recvcounts, rdispls, p,
                                          rview.nbytes, "recv")

    with comm.phase(PHASE_PAD):
        local_max = int(scounts.max()) if p else 0
        max_n = int(comm.allreduce(local_max, op="max"))
        checked_wire_counts(comm, "padded_alltoall" if use_vendor_alltoall
                            else "padded_bruck", max_n, extent=p * max_n)
        if max_n == 0:
            return
        row_offs = np.arange(p, dtype=np.int64) * max_n
        # One committed-index gather replaces the per-block padding loop;
        # the per-block copies are charged in the same order.  Phantom mode
        # skips the writes (and the zero fill) but keeps the charges.
        if comm.payload_enabled:
            padded_send = np.zeros(p * max_n, dtype=np.uint8)
            nz = scounts > 0
            if nz.any():
                padded_send[gather_index(row_offs[nz], scounts[nz])] = \
                    sview[gather_index(sdis[nz], scounts[nz])]
        else:
            padded_send = np.empty(p * max_n, dtype=np.uint8)
        comm.charge_copies(scounts)
        padded_recv = np.empty(p * max_n, dtype=np.uint8)

    if use_vendor_alltoall:
        comm.alltoall(padded_send, padded_recv, max_n)
    else:
        zero_rotation_bruck(comm, padded_send, padded_recv, max_n,
                            tag_base=tag_base, radix=radix)

    with comm.phase(PHASE_SCAN):
        if comm.payload_enabled:
            nz = rcounts > 0
            if nz.any():
                rview[gather_index(rdis[nz], rcounts[nz])] = \
                    padded_recv[gather_index(row_offs[nz], rcounts[nz])]
        comm.charge_copies(rcounts)


def padded_bruck(comm: Communicator, sendbuf: np.ndarray,
                 sendcounts: Sequence[int], sdispls: Sequence[int],
                 recvbuf: np.ndarray, recvcounts: Sequence[int],
                 rdispls: Sequence[int], *, tag_base: int = 0,
                 radix: int = 2) -> None:
    """Non-uniform all-to-all via pad → zero-rotation Bruck → scan.

    ``radix`` is forwarded to the uniform zero-rotation exchange; the pad
    and scan phases are radix-independent.
    """
    _pad_exchange_scan(comm, sendbuf, sendcounts, sdispls, recvbuf,
                       recvcounts, rdispls, use_vendor_alltoall=False,
                       tag_base=tag_base, radix=radix)


def padded_alltoall(comm: Communicator, sendbuf: np.ndarray,
                    sendcounts: Sequence[int], sdispls: Sequence[int],
                    recvbuf: np.ndarray, recvcounts: Sequence[int],
                    rdispls: Sequence[int], *, tag_base: int = 0) -> None:
    """Control variant: pad → vendor (spread-out) alltoall → scan."""
    _pad_exchange_scan(comm, sendbuf, sendcounts, sdispls, recvbuf,
                       recvcounts, rdispls, use_vendor_alltoall=True,
                       tag_base=tag_base)

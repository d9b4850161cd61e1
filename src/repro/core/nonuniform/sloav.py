"""SLOAV — the prior log-time non-uniform all-to-all (Xu et al. [44]),
reimplemented from the paper's §6.1 description.

SLOAV pioneered the coupled metadata/data Bruck exchange that two-phase
Bruck refines.  The paper identifies four inefficiencies, all of which
this implementation reproduces faithfully so the improvement of two-phase
Bruck over SLOAV is measurable (the ``sloav_comparison`` and
``sloav_phase_overheads`` entries of ``benchmarks/figures.py``):

1. **Metadata management** — SLOAV couples the block-size array and the
   data blocks into one combined buffer per step: an extra pack on the
   send side and an unpack on the receive side, plus a tiny header
   message carrying the combined buffer's size so the receiver can post
   an exact receive.  (Two-phase sends the size array *as* the first
   message — no pack/unpack.)
2. **Buffer management** — intermediate blocks park in a growable
   temporary buffer addressed through a pointer array; growth reallocates
   and moves everything stored so far.  (Two-phase pre-allocates one
   monolithic ``P × N`` buffer.)
3. **Rotation overhead** — SLOAV skips the *initial* rotation (it
   introduced the rotation index array) but keeps basic Bruck's
   orientation, so a physical **final rotation** remains.
4. **Scan overhead** — a final scan copies every block from the
   temporary/send buffers into the receive buffer.  (Two-phase deposits
   finished blocks at their final ``rdispls`` position on arrival.)

Correctness contract is identical to ``MPI_Alltoallv``.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ...simmpi.communicator import Communicator
from ...simmpi.machine import ROT_INDEX_COST_PER_PROC
from ..common import (
    as_byte_view,
    checked_counts_displs,
    checked_wire_counts,
    num_steps,
    send_block_distances,
)

__all__ = ["sloav_alltoallv"]

PHASE_SETUP = "setup"
PHASE_COMM = "communication"
PHASE_ROTATE_OUT = "final_rotation"
PHASE_SCAN = "scan"

_META_DTYPE = np.int32
_META_MAX = np.iinfo(_META_DTYPE).max
_INITIAL_TEMP_CAPACITY = 4096


class _GrowableTemp:
    """SLOAV's temporary block store: pointer array over a growable heap.

    Every capacity growth reallocates and moves the live bytes — the
    §6.1(2) overhead — charged to the owning rank's simulated clock.
    """

    def __init__(self, comm: Communicator, nslots: int) -> None:
        self._comm = comm
        self._blocks: Dict[int, np.ndarray] = {}   # the pointer array
        self._capacity = _INITIAL_TEMP_CAPACITY
        self._stored = 0

    def store(self, slot: int, data: np.ndarray) -> None:
        old = self._blocks.get(slot)
        self._stored += data.nbytes - (old.nbytes if old is not None else 0)
        while self._stored > self._capacity:
            # realloc: move everything currently held
            self._comm.charge_copy(self._stored - (data.nbytes if old is None
                                                   else 0))
            self._capacity *= 2
        self._blocks[slot] = data.copy()
        self._comm.charge_copy(data.nbytes)

    def load(self, slot: int) -> np.ndarray:
        return self._blocks[slot]

    def __contains__(self, slot: int) -> bool:
        return slot in self._blocks


def sloav_alltoallv(comm: Communicator, sendbuf: np.ndarray,
                    sendcounts: Sequence[int], sdispls: Sequence[int],
                    recvbuf: np.ndarray, recvcounts: Sequence[int],
                    rdispls: Sequence[int], *, tag_base: int = 0) -> None:
    """Non-uniform all-to-all via the SLOAV algorithm (basic-Bruck
    orientation, coupled combined-buffer exchange, final rotation + scan).
    """
    p, rank = comm.size, comm.rank
    raw_max = int(np.asarray(sendcounts, dtype=np.int64).max(initial=0))
    if raw_max > _META_MAX:
        raise ValueError(
            f"block sizes above {_META_MAX} bytes overflow SLOAV's 4-byte "
            f"size entries (got {raw_max})"
        )
    sview = as_byte_view(sendbuf, "sendbuf")
    rview = as_byte_view(recvbuf, "recvbuf")
    scounts, sdis = checked_counts_displs(sendcounts, sdispls, p,
                                          sview.nbytes, "send")
    rcounts, rdis = checked_counts_displs(recvcounts, rdispls, p,
                                          rview.nbytes, "recv")

    with comm.phase(PHASE_SETUP):
        # Rotation index array (SLOAV's contribution): in basic-Bruck
        # orientation, working slot j initially holds the caller's block
        # destined to (rank + j) % P.
        rot = (rank + np.arange(p, dtype=np.int64)) % p
        comm.charge_compute(p * ROT_INDEX_COST_PER_PROC)
        temp = _GrowableTemp(comm, p)
        cur_counts = scounts.copy()   # size of the block at slot j, keyed
        # by the original destination index rot[j]

    with comm.phase(PHASE_COMM):
        header_out = np.empty(1, dtype=_META_DTYPE)
        for k in range(num_steps(p)):
            dist = send_block_distances(k, p)   # slots: basic => slot == i
            if not dist:
                continue
            m = len(dist)
            dst = (rank + (1 << k)) % p
            src_rank = (rank - (1 << k)) % p
            keys = [int(rot[j]) for j in dist]
            meta_out = np.asarray([cur_counts[b] for b in keys],
                                  dtype=_META_DTYPE)
            # Combined buffer: [size array | packed data blocks].
            data_total = int(meta_out.sum())
            combined = np.empty(4 * m + data_total, dtype=np.uint8)
            combined[:4 * m] = meta_out.view(np.uint8)
            comm.charge_copy(4 * m)             # §6.1(1): meta packed in
            pos = 4 * m
            for a, j in enumerate(dist):
                cnt = int(meta_out[a])
                if cnt:
                    if j in temp:
                        combined[pos:pos + cnt] = temp.load(j)[:cnt]
                    else:
                        off = int(sdis[keys[a]])
                        combined[pos:pos + cnt] = sview[off:off + cnt]
                pos += cnt
            comm.charge_copies(meta_out)
            # Header message: the combined buffer's size.  Both messages
            # are control plane — SLOAV couples the size array *into* the
            # data message (the §6.1(1) flaw), so the receiver must read
            # the combined buffer's contents to unpack it.  SLOAV therefore
            # moves real bytes even in phantom wire mode; its clocks match
            # trivially.
            header_out[0] = combined.nbytes
            header_in = np.empty(1, dtype=_META_DTYPE)
            comm.sendrecv(header_out, dst, tag_base + 2 * k,
                          header_in, src_rank, tag_base + 2 * k,
                          control=True)
            checked_wire_counts(comm, "sloav", header_in)
            incoming = np.empty(int(header_in[0]), dtype=np.uint8)
            comm.sendrecv(combined, dst, tag_base + 2 * k + 1,
                          incoming, src_rank, tag_base + 2 * k + 1,
                          control=True)
            # Unpack: separate meta from data (§6.1(1) again), then park
            # every received block in the temp store — SLOAV defers final
            # placement to the scan.  The size array must account for the
            # combined buffer to the byte, or a poisoned entry would park
            # a short block.
            meta_in = incoming[:4 * m].copy().view(_META_DTYPE)
            checked_wire_counts(comm, "sloav", meta_in,
                                extent=4 * m + int(meta_in.sum()),
                                carried=incoming.nbytes)
            comm.charge_copy(4 * m)
            pos = 4 * m
            for a, j in enumerate(dist):
                cnt = int(meta_in[a])
                temp.store(j, incoming[pos:pos + cnt])
                pos += cnt
                cur_counts[keys[a]] = cnt

    with comm.phase(PHASE_ROTATE_OUT):
        # Physical final rotation: slot j holds the block from source
        # (rank - j) % P; rotate the pointer array into source order.
        rotated: Dict[int, np.ndarray] = {}
        for j in range(1, p):
            if j in temp:
                rotated[(rank - j) % p] = temp.load(j)
        comm.charge_copies([block.nbytes for block in rotated.values()])

    with comm.phase(PHASE_SCAN):
        # Final scan: copy every block from temp/send into the receive
        # buffer at its rdispls position.
        n_self = int(scounts[rank])
        if n_self:
            rview[rdis[rank]:rdis[rank] + n_self] = \
                sview[sdis[rank]:sdis[rank] + n_self]
            comm.charge_copy(n_self)
        for src in range(p):
            if src == rank:
                continue
            cnt = int(rcounts[src])
            if cnt != (rotated[src].nbytes if src in rotated else 0):
                raise ValueError(
                    f"rank {rank}: block from source {src} arrived with "
                    f"{rotated[src].nbytes if src in rotated else 0} bytes "
                    f"but recvcounts promises {cnt}"
                )
            if cnt:
                rview[rdis[src]:rdis[src] + cnt] = rotated[src]
        comm.charge_copies(np.delete(rcounts, rank))

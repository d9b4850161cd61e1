"""Grouped (leader-based) non-uniform all-to-all — the §6 related work.

Jackson & Booth's *planned AlltoAllv* and Plummer & Refson's LPAR-custom
alltoallv (paper §6) reduce network congestion by restricting the
inter-node exchange to one **leader** rank per group: members funnel
their data to the leader (the intra-node ``MPI_Gatherv`` step), leaders
run the all-to-all among themselves over *aggregated* messages, and
results are scattered back (``MPI_Scatterv``).

The trade: ``P/g`` participants instead of ``P`` and ``g²``-times larger
leader messages (better per-byte efficiency on the eager-penalized
fabric), against two extra full-volume hops (member→leader and
leader→member).  The paper notes these schemes suit *fixed, repeated*
loads on shared-memory clusters; the ``grouped_related_work`` figure
(``benchmarks/figures.py``) shows where that trade wins and loses
against two-phase Bruck under this simulator's cost model.

Implementation notes: group ``i`` is ranks ``[i*g, (i+1)*g)`` (the last
group may be smaller), the leader is the lowest rank.  Phase 2 sends, per
leader pair, a count header followed by the aggregated payload laid out
source-major then destination — the deterministic order both sides derive
independently.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ...simmpi.communicator import Communicator
from ..common import as_byte_view, checked_counts_displs

__all__ = ["grouped_alltoallv"]

PHASE_GATHER = "gather_to_leader"
PHASE_LEADERS = "leader_exchange"
PHASE_SCATTER = "scatter_from_leader"

_TAG_UP_COUNTS = 0
_TAG_UP_DATA = 1
_TAG_LL_COUNTS = 2
_TAG_LL_DATA = 3
_TAG_DOWN_DATA = 4


def _group_of(rank: int, group_size: int) -> int:
    return rank // group_size


def _leader_of(rank: int, group_size: int) -> int:
    return (rank // group_size) * group_size


def _members(group: int, group_size: int, nprocs: int) -> List[int]:
    lo = group * group_size
    return list(range(lo, min(lo + group_size, nprocs)))


def grouped_alltoallv(comm: Communicator, sendbuf: np.ndarray,
                      sendcounts: Sequence[int], sdispls: Sequence[int],
                      recvbuf: np.ndarray, recvcounts: Sequence[int],
                      rdispls: Sequence[int], *, group_size: int = 8,
                      tag_base: int = 0) -> None:
    """Non-uniform all-to-all through per-group leader ranks.

    ``group_size`` is the emulated "node" width (the paper's schemes group
    by shared-memory node); every rank must pass the same value.
    """
    p, rank = comm.size, comm.rank
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    sview = as_byte_view(sendbuf, "sendbuf")
    rview = as_byte_view(recvbuf, "recvbuf")
    scounts, sdis = checked_counts_displs(sendcounts, sdispls, p,
                                          sview.nbytes, "send")
    rcounts, rdis = checked_counts_displs(recvcounts, rdispls, p,
                                          rview.nbytes, "recv")
    # The gather step forwards each member's buffer prefix wholesale, so
    # this scheme requires the canonical packed send layout (displs =
    # prefix sums) — the layout every BPRA-style producer uses anyway.
    canonical = np.zeros(p, dtype=np.int64)
    if p > 1:
        np.cumsum(scounts[:-1], out=canonical[1:])
    if not np.array_equal(sdis, canonical):
        raise ValueError(
            "grouped_alltoallv requires the canonical packed send layout "
            "(sdispls must be the prefix sums of sendcounts)")

    g = min(group_size, p)
    my_group = _group_of(rank, g)
    leader = _leader_of(rank, g)
    n_groups = (p + g - 1) // g
    is_leader = rank == leader
    my_members = _members(my_group, g, p)

    t = tag_base

    # ------------------------------------------------------------------
    # Phase 1: members funnel counts + data to their leader.
    # ------------------------------------------------------------------
    with comm.phase(PHASE_GATHER):
        if not is_leader:
            # The count vector is control plane (the leader reads it to
            # size buffers and route blocks); the data funnel is not.
            comm.send(scounts, leader, t + _TAG_UP_COUNTS, control=True)
            comm.send(sview[: int(scounts.sum())], leader, t + _TAG_UP_DATA)
        group_counts: Dict[int, np.ndarray] = {}
        group_data: Dict[int, np.ndarray] = {}
        group_displs: Dict[int, np.ndarray] = {}
        if is_leader:
            group_counts[rank] = scounts
            group_displs[rank] = sdis
            group_data[rank] = sview
            for member in my_members:
                if member == rank:
                    continue
                mcounts = np.empty(p, dtype=np.int64)
                comm.recv(mcounts, member, t + _TAG_UP_COUNTS)
                mbuf = np.empty(int(_extent(mcounts, member)), dtype=np.uint8)
                comm.recv(mbuf, member, t + _TAG_UP_DATA)
                group_counts[member] = mcounts
                group_displs[member] = None  # filled below
                group_data[member] = mbuf
            # Displacements for received member buffers: the member sent
            # its buffer prefix as-is, so offsets are the member's own
            # sdispls — which the leader cannot see.  The contract for
            # this scheme therefore requires the *canonical packed
            # layout* (displs = prefix sums), which ``checked`` verified
            # for our own buffer and members are trusted to use.
            for member in my_members:
                if member == rank or group_counts[member] is None:
                    continue
                c = group_counts[member]
                d = np.zeros(p, dtype=np.int64)
                if p > 1:
                    np.cumsum(c[:-1], out=d[1:])
                group_displs[member] = d

    # ------------------------------------------------------------------
    # Phase 2: leaders exchange aggregated blocks (counts then data).
    # ------------------------------------------------------------------
    with comm.phase(PHASE_LEADERS):
        incoming_by_pair: Dict[tuple, np.ndarray] = {}
        if is_leader:
            reqs = []
            # Post count headers + aggregated data to every other leader.
            out_counts: Dict[int, np.ndarray] = {}
            out_blobs: Dict[int, np.ndarray] = {}
            for og in range(n_groups):
                other_leader = og * g
                if og == my_group:
                    continue
                dsts = _members(og, g, p)
                cnts = np.asarray(
                    [group_counts[src][d] for src in my_members
                     for d in dsts], dtype=np.int64)
                blob = np.empty(int(cnts.sum()), dtype=np.uint8)
                pos = 0
                for src in my_members:
                    sd = group_displs[src]
                    buf = group_data[src]
                    for d in dsts:
                        c = int(group_counts[src][d])
                        if c:
                            if comm.payload_enabled:
                                off = int(sd[d])
                                blob[pos:pos + c] = buf[off:off + c]
                            comm.charge_copy(c)
                        pos += c
                out_counts[other_leader] = cnts
                out_blobs[other_leader] = blob
            for other_leader in out_counts:
                reqs.append(comm.isend(out_counts[other_leader],
                                       other_leader, t + _TAG_LL_COUNTS,
                                       control=True))
                reqs.append(comm.isend(out_blobs[other_leader],
                                       other_leader, t + _TAG_LL_DATA))
            # Receive from every other leader.
            for og in range(n_groups):
                other_leader = og * g
                if og == my_group:
                    continue
                srcs = _members(og, g, p)
                cnts = np.empty(len(srcs) * len(my_members), dtype=np.int64)
                comm.recv(cnts, other_leader, t + _TAG_LL_COUNTS)
                blob = np.empty(int(cnts.sum()), dtype=np.uint8)
                comm.recv(blob, other_leader, t + _TAG_LL_DATA)
                pos = 0
                idx = 0
                for src in srcs:
                    for d in my_members:
                        c = int(cnts[idx])
                        incoming_by_pair[(src, d)] = blob[pos:pos + c]
                        pos += c
                        idx += 1
            comm.waitall(reqs)

    # ------------------------------------------------------------------
    # Phase 3: leaders deliver, members receive and place.
    # ------------------------------------------------------------------
    with comm.phase(PHASE_SCATTER):
        if is_leader:
            for member in my_members:
                # Source-ascending concatenation of everything destined
                # to `member`.  Phantom mode skips the concatenation but
                # still sizes the blob (from the real count headers) and
                # charges the same per-block copies.
                parts = []
                total = 0
                for src in range(p):
                    if _group_of(src, g) == my_group:
                        c = int(group_counts[src][member])
                        if c:
                            if comm.payload_enabled:
                                off = int(group_displs[src][member])
                                parts.append(group_data[src][off:off + c])
                            comm.charge_copy(c)
                        total += c
                    else:
                        part = incoming_by_pair.get((src, member))
                        if part is not None:
                            if comm.payload_enabled:
                                parts.append(part)
                            total += part.nbytes
                if comm.payload_enabled:
                    blob = (np.concatenate(parts) if parts
                            else np.empty(0, dtype=np.uint8))
                else:
                    blob = np.empty(total, dtype=np.uint8)
                if member == rank:
                    _place(comm, rview, rcounts, rdis, blob, p)
                else:
                    comm.send(blob, member, t + _TAG_DOWN_DATA)
        else:
            blob = np.empty(int(rcounts.sum()), dtype=np.uint8)
            comm.recv(blob, leader, t + _TAG_DOWN_DATA)
            _place(comm, rview, rcounts, rdis, blob, p)


def _extent(counts: np.ndarray, member: int) -> int:
    """Bytes of a member's canonical packed send buffer."""
    return int(counts.sum())


def _place(comm: Communicator, rview: np.ndarray, rcounts: np.ndarray,
           rdis: np.ndarray, blob: np.ndarray, p: int) -> None:
    """Scatter a source-ascending blob into the receive buffer."""
    pos = 0
    for src in range(p):
        c = int(rcounts[src])
        if c:
            if comm.payload_enabled:
                rview[rdis[src]:rdis[src] + c] = blob[pos:pos + c]
            comm.charge_copy(c)
        pos += c

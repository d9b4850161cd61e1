"""Locality-aware Bruck variants for the two-level hierarchical machine
model (see ``repro.simmpi.machine``).

Both algorithms elect the lowest rank of every node as its **leader**
(``machine.ppn`` consecutive ranks per node) and restrict the expensive
inter-node exchange to leaders:

1. **node gather** — members funnel their send data to the leader over
   the cheap intra-node tier;
2. **inter-node Bruck** — leaders run a Bruck exchange among themselves
   over *node-aggregated* super-blocks, paying the inter-node α/β and the
   per-link congestion only ``P/ppn`` wide;
3. **node scatter** — leaders deliver each member's received column over
   the intra-node tier.

``locality_padded_bruck`` aggregates ``ppn² · N``-padded super-blocks and
runs zero-rotation Bruck over nodes (one message per step);
``locality_two_phase_bruck`` keeps true sizes and runs the coupled
metadata/data exchange over nodes (two messages per step, no padding).

On the flat machine (``ppn <= 1``) both delegate verbatim to their flat
counterparts — same messages, same charges, same clocks — so every
existing flat benchmark and equivalence result is unchanged.

Like ``grouped_alltoallv``, the two-phase variant forwards each member's
buffer prefix wholesale and therefore requires the canonical packed send
layout (``sdispls`` = prefix sums of ``sendcounts``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...simmpi.communicator import Communicator
from ...simmpi.datatype import gather_index
from ...simmpi.machine import ROT_INDEX_COST_PER_PROC
from ..common import (
    as_byte_view,
    block_moved_before,
    checked_counts_displs,
    checked_wire_counts,
    num_steps,
    rotation_index_array,
    send_block_distances,
)
from .grouped import _place
from .padded import PHASE_PAD, PHASE_SCAN, padded_bruck
from .twophase import _META_DTYPE, _META_MAX, two_phase_bruck

__all__ = ["locality_padded_bruck", "locality_two_phase_bruck"]

PHASE_NODE_GATHER = "node_gather"
PHASE_INTER = "inter_bruck"
PHASE_NODE_SCATTER = "node_scatter"
PHASE_SETUP = "setup"
PHASE_META = "metadata_exchange"
PHASE_DATA = "data_exchange"


def _node_shape(comm: Communicator, p: int):
    """(ppn, node count, my node, my leader, my node's size)."""
    ppn = min(int(comm.machine.ppn), p)
    nn = (p + ppn - 1) // ppn
    g = comm.rank // ppn
    leader = g * ppn
    lsize = min(leader + ppn, p) - leader
    return ppn, nn, g, leader, lsize


def _node_size(h: int, ppn: int, p: int) -> int:
    return min((h + 1) * ppn, p) - h * ppn


# ======================================================================
# padded variant
# ======================================================================

def locality_padded_bruck(comm: Communicator, sendbuf: np.ndarray,
                          sendcounts: Sequence[int], sdispls: Sequence[int],
                          recvbuf: np.ndarray, recvcounts: Sequence[int],
                          rdispls: Sequence[int], *,
                          tag_base: int = 0) -> None:
    """Node-aware padded Bruck: pad → gather → inter-node zero-rotation
    Bruck over ``ppn²·N`` super-blocks → scatter → scan.

    The super-block for destination node ``h`` is a ``ppn × ppn`` grid of
    ``N``-padded blocks — entry ``(j, i)`` is source member ``j``'s block
    for ``h``'s member ``i`` — so the inter-node exchange is uniform and
    reuses zero-rotation Bruck's slot/rotation machinery over nodes.
    """
    p, rank = comm.size, comm.rank
    ppn, nn, g, leader, lsize = _node_shape(comm, p)
    if ppn <= 1:
        return padded_bruck(comm, sendbuf, sendcounts, sdispls, recvbuf,
                            recvcounts, rdispls, tag_base=tag_base)
    sview = as_byte_view(sendbuf, "sendbuf")
    rview = as_byte_view(recvbuf, "recvbuf")
    scounts, sdis = checked_counts_displs(sendcounts, sdispls, p,
                                          sview.nbytes, "send")
    rcounts, rdis = checked_counts_displs(recvcounts, rdispls, p,
                                          rview.nbytes, "recv")
    is_leader = rank == leader
    K = num_steps(nn)
    t_up = tag_base
    t_step = tag_base + 1          # inter step k uses t_step + k
    t_down = tag_base + 1 + K

    # -- pad (identical to flat padded Bruck) ---------------------------
    with comm.phase(PHASE_PAD):
        local_max = int(scounts.max()) if p else 0
        max_n = int(comm.allreduce(local_max, op="max"))
        checked_wire_counts(comm, "locality_padded_bruck", max_n,
                            extent=p * max_n)
        if max_n == 0:
            return
        row_offs = np.arange(p, dtype=np.int64) * max_n
        if comm.payload_enabled:
            padded = np.zeros(p * max_n, dtype=np.uint8)
            nz = scounts > 0
            if nz.any():
                padded[gather_index(row_offs[nz], scounts[nz])] = \
                    sview[gather_index(sdis[nz], scounts[nz])]
        else:
            padded = np.empty(p * max_n, dtype=np.uint8)
        comm.charge_copies(scounts)

    # -- members funnel their padded rows to the leader -----------------
    with comm.phase(PHASE_NODE_GATHER):
        if not is_leader:
            comm.send(padded, leader, t_up)
            rows = None
        else:
            rows = [padded]
            for j in range(1, lsize):
                mbuf = np.empty(p * max_n, dtype=np.uint8)
                comm.recv(mbuf, leader + j, t_up)
                rows.append(mbuf)

    # -- leaders: zero-rotation Bruck over node super-blocks ------------
    padded_recv = None
    if is_leader:
        super_n = ppn * ppn * max_n
        with comm.phase(PHASE_INTER):
            # Super-block layout: entry (j, i) at offset (j*ppn + i)*N.
            # A member row's blocks for node h are contiguous, so each
            # (h, j) pair is one hsize·N copy.
            node_send = np.empty((nn, super_n), dtype=np.uint8)
            build = []
            for h in range(nn):
                hn = _node_size(h, ppn, p) * max_n
                src_off = h * ppn * max_n
                for j in range(lsize):
                    if comm.payload_enabled:
                        dst_off = j * ppn * max_n
                        node_send[h, dst_off:dst_off + hn] = \
                            rows[j][src_off:src_off + hn]
                    build.append(hn)
            comm.charge_copies(build)
            rot = rotation_index_array(g, nn)
            comm.charge_compute(nn * ROT_INDEX_COST_PER_PROC)
            node_recv = np.empty((nn, super_n), dtype=np.uint8)
            if comm.payload_enabled:
                node_recv[g] = node_send[g]
            comm.charge_copy(super_n)
            staging = np.empty(((nn + 1) // 2) * super_n, dtype=np.uint8)
            for k in range(K):
                dist = send_block_distances(k, nn)
                if not dist:
                    continue
                m = len(dist)
                slots = (np.asarray(dist, dtype=np.int64) + g) % nn
                moved = np.asarray(
                    [block_moved_before(i, k) for i in dist], dtype=bool)
                dst = ((g - (1 << k)) % nn) * ppn
                src_rank = ((g + (1 << k)) % nn) * ppn
                stage = np.empty((m, super_n), dtype=np.uint8)
                if comm.payload_enabled:
                    if moved.any():
                        stage[moved] = node_recv[slots[moved]]
                    if (~moved).any():
                        stage[~moved] = node_send[rot[slots[~moved]]]
                comm.charge_copies(np.full(m, super_n, dtype=np.int64))
                sreq = comm.isend(stage.reshape(-1), dst, tag=t_step + k)
                rbuf = staging[: m * super_n]
                rreq = comm.irecv(rbuf, src_rank, tag=t_step + k)
                sreq.wait()
                rreq.wait()
                if comm.payload_enabled:
                    node_recv[slots] = rbuf.reshape(m, super_n)
                comm.charge_copies(np.full(m, super_n, dtype=np.int64))

        # -- leaders deliver per-member columns -------------------------
        with comm.phase(PHASE_NODE_SCATTER):
            for i in range(lsize):
                col = np.empty(p * max_n, dtype=np.uint8)
                if comm.payload_enabled:
                    for s in range(p):
                        h, j = divmod(s, ppn)
                        off = (j * ppn + i) * max_n
                        col[s * max_n:(s + 1) * max_n] = \
                            node_recv[h, off:off + max_n]
                comm.charge_copies(np.full(p, max_n, dtype=np.int64))
                if i == 0:
                    padded_recv = col
                else:
                    comm.send(col, leader + i, t_down)
    else:
        with comm.phase(PHASE_NODE_SCATTER):
            padded_recv = np.empty(p * max_n, dtype=np.uint8)
            comm.recv(padded_recv, leader, t_down)

    # -- scan (identical to flat padded Bruck) --------------------------
    with comm.phase(PHASE_SCAN):
        if comm.payload_enabled:
            nz = rcounts > 0
            if nz.any():
                rview[gather_index(rdis[nz], rcounts[nz])] = \
                    padded_recv[gather_index(row_offs[nz], rcounts[nz])]
        comm.charge_copies(rcounts)


# ======================================================================
# two-phase variant
# ======================================================================

def locality_two_phase_bruck(comm: Communicator, sendbuf: np.ndarray,
                             sendcounts: Sequence[int],
                             sdispls: Sequence[int],
                             recvbuf: np.ndarray,
                             recvcounts: Sequence[int],
                             rdispls: Sequence[int], *,
                             tag_base: int = 0) -> None:
    """Node-aware two-phase Bruck: gather true bytes → inter-node coupled
    metadata/data Bruck over packed super-blobs → scatter.

    The moving unit is a whole node-to-node super-blob; its metadata is
    the ``ppn × ppn`` inner size table (origin member × destination
    member, 4 bytes per entry) from which the receiver derives both the
    exact data-receive size and, at the end, every block's scatter
    offset.  Requires the canonical packed send layout.
    """
    p, rank = comm.size, comm.rank
    ppn, nn, g, leader, lsize = _node_shape(comm, p)
    if ppn <= 1:
        return two_phase_bruck(comm, sendbuf, sendcounts, sdispls, recvbuf,
                               recvcounts, rdispls, tag_base=tag_base)
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
    canonical = np.zeros(p, dtype=np.int64)
    if p > 1:
        np.cumsum(scounts[:-1], out=canonical[1:])
    if not np.array_equal(sdis, canonical):
        raise ValueError(
            "locality_two_phase_bruck requires the canonical packed send "
            "layout (sdispls must be the prefix sums of sendcounts)")

    is_leader = rank == leader
    K = num_steps(nn)
    t_up_c = tag_base
    t_up_d = tag_base + 1
    t_meta = tag_base + 2          # step k uses t_meta + 2k
    t_data = tag_base + 3          # step k uses t_data + 2k
    t_down = tag_base + 2 + 2 * K

    # -- members funnel counts + packed rows to the leader --------------
    with comm.phase(PHASE_NODE_GATHER):
        if not is_leader:
            comm.send(scounts, leader, t_up_c, control=True)
            comm.send(sview[: int(scounts.sum())], leader, t_up_d)
            gcounts = gdata = gdis = None
        else:
            gcounts = [scounts]
            gdata = [sview]
            gdis = [sdis]
            for j in range(1, lsize):
                mcounts = np.empty(p, dtype=np.int64)
                comm.recv(mcounts, leader + j, t_up_c)
                checked_wire_counts(comm, "locality_two_phase_bruck",
                                    mcounts)
                mbuf = np.empty(int(mcounts.sum()), dtype=np.uint8)
                comm.recv(mbuf, leader + j, t_up_d)
                d = np.zeros(p, dtype=np.int64)
                if p > 1:
                    np.cumsum(mcounts[:-1], out=d[1:])
                gcounts.append(mcounts)
                gdata.append(mbuf)
                gdis.append(d)

    fin_blob = {}
    fin_table = {}
    if is_leader:
        with comm.phase(PHASE_SETUP):
            rot = rotation_index_array(g, nn)
            comm.charge_compute(nn * ROT_INDEX_COST_PER_PROC)
            # cur_table[h, j, i]: bytes from my member j to node h's
            # member i, for the super-blob currently keyed by node h
            # (Algorithm 1's working sendcounts, lifted to node level).
            cur_table = np.zeros((nn, ppn, ppn), dtype=np.int64)
            for j in range(lsize):
                c = gcounts[j]
                for h in range(nn):
                    hsz = _node_size(h, ppn, p)
                    cur_table[h, j, :hsz] = c[h * ppn:h * ppn + hsz]
            status = np.zeros(nn, dtype=bool)
            store = {}                     # slot -> parked in-transit blob

        for k in range(K):
            dist = send_block_distances(k, nn)
            if not dist:
                continue
            m = len(dist)
            dist_arr = np.asarray(dist, dtype=np.int64)
            slots = (dist_arr + g) % nn
            keys = rot[slots]
            send_rank = ((g - (1 << k)) % nn) * ppn
            recv_rank = ((g + (1 << k)) % nn) * ppn

            with comm.phase(PHASE_META):
                meta_out = cur_table[keys].astype(_META_DTYPE)
                meta_in = np.empty((m, ppn, ppn), dtype=_META_DTYPE)
                comm.sendrecv(meta_out.reshape(-1), send_rank,
                              t_meta + 2 * k, meta_in.reshape(-1),
                              recv_rank, t_meta + 2 * k, control=True)

            with comm.phase(PHASE_DATA):
                totals_out = cur_table[keys].sum(axis=(1, 2))
                out_total = int(totals_out.sum())
                stage = np.empty(out_total, dtype=np.uint8)
                pack = []
                pos = 0
                for a in range(m):
                    key = int(keys[a])
                    slot = int(slots[a])
                    if status[key]:
                        # Parked blob: forwarded as one unit.
                        blob = store.pop(slot)
                        tot = int(totals_out[a])
                        if comm.payload_enabled:
                            stage[pos:pos + tot] = blob
                        pack.append(tot)
                        pos += tot
                    else:
                        # Fresh: one contiguous segment per member (the
                        # canonical layout keeps a node's blocks adjacent).
                        hsz = _node_size(key, ppn, p)
                        for j in range(lsize):
                            seg = int(gcounts[j][key * ppn:
                                                 key * ppn + hsz].sum())
                            if comm.payload_enabled and seg:
                                off = int(gdis[j][key * ppn])
                                stage[pos:pos + seg] = \
                                    gdata[j][off:off + seg]
                            pack.append(seg)
                            pos += seg
                comm.charge_copies(pack)
                sreq = comm.isend(stage, send_rank, t_data + 2 * k)
                tables_in = checked_wire_counts(
                    comm, "locality_two_phase_bruck", meta_in)
                totals_in = tables_in.sum(axis=(1, 2))
                in_total = int(totals_in.sum())
                incoming = np.empty(in_total, dtype=np.uint8)
                rreq = comm.irecv(incoming, recv_rank, t_data + 2 * k)
                sreq.wait()
                rreq.wait()
                finished = dist_arr < (1 << (k + 1))
                comm.charge_copies(totals_in)
                pos = 0
                for a in range(m):
                    tot = int(totals_in[a])
                    slot = int(slots[a])
                    if comm.payload_enabled:
                        parked = incoming[pos:pos + tot].copy()
                    else:
                        parked = np.empty(tot, dtype=np.uint8)
                    if finished[a]:
                        # Super-blob from origin node `slot`, destined to
                        # my node.  Validate the slice addressed to me.
                        hsz = _node_size(slot, ppn, p)
                        exp = rcounts[slot * ppn:slot * ppn + hsz]
                        got = tables_in[a][:hsz, 0]
                        if (got != exp).any():
                            b = int(np.argmax(got != exp))
                            raise ValueError(
                                f"rank {rank}: block from source "
                                f"{slot * ppn + b} arrived with "
                                f"{int(got[b])} bytes but recvcounts "
                                f"promises {int(exp[b])} (mismatched "
                                f"counts between sender and receiver)")
                        fin_blob[slot] = parked
                        fin_table[slot] = tables_in[a]
                    else:
                        store[slot] = parked
                    pos += tot
                status[keys] = True
                cur_table[keys] = tables_in

    # -- leaders deliver; members receive and place ---------------------
    with comm.phase(PHASE_NODE_SCATTER):
        if is_leader:
            for i in range(lsize):
                parts = []
                sizes = []
                for s in range(p):
                    h, j = divmod(s, ppn)
                    if h == g:
                        c = int(gcounts[j][leader + i])
                        if c and comm.payload_enabled:
                            off = int(gdis[j][leader + i])
                            parts.append(gdata[j][off:off + c])
                    else:
                        tbl = fin_table[h]
                        c = int(tbl[j, i])
                        if c and comm.payload_enabled:
                            # Blob layout is (origin member, dest member)
                            # row-major, zero-size entries contributing
                            # nothing.
                            off = int(tbl.ravel()[:j * ppn + i].sum())
                            parts.append(fin_blob[h][off:off + c])
                    sizes.append(c)
                comm.charge_copies(sizes)
                total = sum(sizes)
                if comm.payload_enabled:
                    blob = (np.concatenate(parts) if parts
                            else np.empty(0, dtype=np.uint8))
                else:
                    blob = np.empty(total, dtype=np.uint8)
                if i == 0:
                    _place(comm, rview, rcounts, rdis, blob)
                else:
                    comm.send(blob, leader + i, t_down)
        else:
            blob = np.empty(int(rcounts.sum()), dtype=np.uint8)
            comm.recv(blob, leader, t_down)
            _place(comm, rview, rcounts, rdis, blob)

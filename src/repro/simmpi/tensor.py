"""The vectorized whole-fabric "tensor" backend (``backend="tensor"``).

The coop backend drives ``P`` rank programs; its cost is
O(P × program length) in *host* work, which tops out around a few thousand
ranks.  This backend evaluates a whole communication step as NumPy arrays
over all ``P`` ranks at once — per-rank clocks, message charges, LogGP
costs and fault decisions advance as ``(L,)`` lane vectors — reaching the
paper's 32K-rank configurations in seconds.

The engine reuses :mod:`repro.timing.engine`'s ``*_vec`` cost helpers (the
same expressions the analytic model is pinned to) and replays every charge
the functional kernels make, in per-rank program order, with the same IEEE
arithmetic:

* a ``charge_copies`` batch is one clock advance per lane,
  ``copy_time_blocks(nz, total)`` from two integer reductions of its
  counts, exactly as the communicator charges it (DESIGN.md §5.4);
* sequential single charges fold in program order, and zero-byte charges
  contribute ``+0.0`` (IEEE: ``c + 0.0 == c``), matching the kernels'
  ``if nbytes:`` guards without branching;
* receive completion is the simulator's one rule:
  ``clock = max(clock, depart + head_latency(n)) + serial_time(n, P)``.

Because of this the equivalence tests assert **bit-identical** per-rank
clocks, message counts and byte totals against the coop backend.

Lanes: ``L = 1`` ("lockstep") when every rank provably performs the same
charge sequence — constant block sizes, no fault plan, a lane-symmetric
algorithm — in which case one lane stands for all ``P`` ranks and even the
32K-rank evaluations cost milliseconds.  Otherwise ``L = P``.

What the backend can simulate: every registered alltoall(v) algorithm in
:mod:`repro.core.registry`, on the phantom wire, with ``delay``/``jitter``
fault rules and stragglers.  What it cannot: user programs with
payload-dependent control flow (it never materializes payloads), event
traces, crashes/drops/duplicates/reorder, or the reliability transport —
:func:`run_tensor` rejects those up front with a ``ValueError``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .communicator import MAX_USER_TAG
from .config import ExecutionConfig
from .faults import FaultInjector
from .machine import ROT_INDEX_COST_PER_PROC
from .metrics import (Histogram, RunMetrics, max_overlap,
                      max_overlap_by_group)
from .network import Envelope

__all__ = ["TensorProgram", "TensorAlltoall", "TensorAlltoallv",
           "run_tensor"]

_INTERNAL_TAG_STRIDE = 8   # mirrors communicator._INTERNAL_TAG_STRIDE
_FOLD_CHUNK = 512          # accumulate block width for per-lane folds
#: Rows of a substep are read, counted and rolled this many bytes of
#: state at a time — ``_PIECE_BYTES // (rows.itemsize * L)`` rows, so a
#: narrow state moves in proportionally taller pieces — and the passes
#: stay in cache at large L.
_PIECE_BYTES = 1 << 18

#: Node-aware kernels whose leader/member programs diverge whenever the
#: machine has more than one rank per node.
_LOCALITY_ALGORITHMS = ("locality_padded_bruck", "locality_two_phase_bruck")


# ======================================================================
# vectorized metrics accumulation
# ======================================================================

#: Power-of-two bucket edges: ``searchsorted(_P2, v, 'left')`` equals the
#: scalar registry's ``(v - 1).bit_length() if v > 0 else 0``.
_P2_TABLE = 1 << np.arange(63, dtype=np.int64)


class _TensorMetrics:
    """Lane-vector metrics accumulation for the tensor engine.

    Produces the same :class:`~repro.simmpi.metrics.RunMetrics` snapshot
    shape (and, at matching P, the same bits) as the coop
    registry.  Two storage regimes mirror the engine's lane regimes:

    * ``L == 1`` (lockstep): every exchange contributes one **pattern
      event** ``(offset, tag, depart, landing)`` standing for ``P``
      identical messages, one per link ``(r, (r + offset) % P)``.  The
      per-link table expands offsets at snapshot time, so memory is
      O(steps + distinct_offsets × P) — practical at 32K ranks for the
      log-step Bruck family, not for the P² links of spread-out fanouts.
    * ``L == P``: columnar ``(src, dst, tag, nbytes, depart, landing)``
      chunks, grouped with one sort at snapshot time.

    Wait totals accumulate per lane in program order — the identical
    float additions each coop rank performs — and are combined with
    ``math.fsum`` exactly like the registry.  Attribution bucket vectors
    (overhead / transmit / congestion / fault / wait) feed the
    critical-path engine; they are advisory sums, made exact against the
    makespan by residual normalization in ``critical_path``.
    """

    def __init__(self, p: int, L: int) -> None:
        self.p = p
        self.L = L
        self.hist_counts = np.zeros(64, dtype=np.int64)
        self.hist_total = 0
        self.hist_n = 0
        self.max_nbytes = 0
        if L == 1:
            #: off -> [messages, nbytes] totals per link of that offset.
            self.pat_link: Dict[int, List[int]] = {}
            self.pat_events: List[Tuple[int, int, float, float]] = []
        else:
            self.ex_src: List[np.ndarray] = []
            self.ex_dst: List[np.ndarray] = []
            self.ex_tag: List[np.ndarray] = []
            self.ex_nbytes: List[np.ndarray] = []
            self.ex_start: List[np.ndarray] = []
            self.ex_end: List[np.ndarray] = []
        self.step_tot: Dict[int, List[int]] = {}
        self.step_qw_max: Dict[int, float] = {}
        self.qw_total = np.zeros(L)
        self.qw_max = np.zeros(L)
        self.rw_total = np.zeros(L)
        self.rw_max = np.zeros(L)
        self.phase_totals: Dict[str, np.ndarray] = {}
        self.coll_totals: Dict[str, np.ndarray] = {}
        self.fault_counts: Dict[str, int] = {}
        self.delay_by_rank = np.zeros(p)
        # Attribution raw buckets (per lane) + the coarse step log
        # (tag, phase, end clock, slowest rank) for the critical path.
        self.attr_overhead = np.zeros(L)
        self.attr_transmit = np.zeros(L)
        self.attr_congestion = np.zeros(L)
        self.attr_fault = np.zeros(L)
        self.attr_wait = np.zeros(L)
        self.step_log: List[Tuple[int, Optional[str], float, int]] = []

    # -- per-event hooks -------------------------------------------------
    def _hist_const(self, nbytes: int, count: int) -> None:
        b = int(np.searchsorted(_P2_TABLE, nbytes, side="left"))
        self.hist_counts[b] += count
        self.hist_total += nbytes * count
        self.hist_n += count
        if nbytes > self.max_nbytes:
            self.max_nbytes = nbytes

    def _hist_vec(self, nb: np.ndarray) -> None:
        buckets = np.searchsorted(_P2_TABLE, nb, side="left")
        np.add.at(self.hist_counts, buckets, 1)
        self.hist_total += int(nb.sum())
        self.hist_n += len(nb)
        mx = int(nb.max()) if len(nb) else 0
        if mx > self.max_nbytes:
            self.max_nbytes = mx

    def _note_step(self, tag: int, messages: int, nbytes: int) -> None:
        tot = self.step_tot.get(tag)
        if tot is None:
            tot = self.step_tot[tag] = [0, 0]
        tot[0] += messages
        tot[1] += nbytes

    def _note_waits(self, tag: int, qw: np.ndarray, rw: np.ndarray,
                    sel=None) -> None:
        if sel is None:
            self.qw_total += qw
            np.maximum(self.qw_max, qw, out=self.qw_max)
            self.rw_total += rw
            np.maximum(self.rw_max, rw, out=self.rw_max)
        else:
            self.qw_total[sel] += qw
            self.qw_max[sel] = np.maximum(self.qw_max[sel], qw)
            self.rw_total[sel] += rw
            self.rw_max[sel] = np.maximum(self.rw_max[sel], rw)
        top = float(qw.max()) if len(qw) else 0.0
        if top > self.step_qw_max.get(tag, 0.0):
            self.step_qw_max[tag] = top

    def on_fault(self, kind: str, delay: float, rank: int) -> None:
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if delay:
            self.delay_by_rank[rank] += delay

    def on_exchange_complete(self, eng: "_Engine", dst_off: int, tag: int,
                             nbytes, departs: np.ndarray, head: np.ndarray,
                             serial: np.ndarray, intra) -> None:
        """One all-lanes exchange completion (``_Engine.complete``)."""
        clocks = eng.clocks
        qw = np.maximum(0.0, clocks - head)
        rw = np.maximum(0.0, head - clocks)
        self._note_waits(tag, qw, rw)
        landing = np.maximum(clocks, head)
        nb = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), (self.L,))
        if self.L == 1:
            off = dst_off % self.p
            n0 = int(nb[0])
            lk = self.pat_link.get(off)
            if lk is None:
                lk = self.pat_link[off] = [0, 0]
            lk[0] += 1
            lk[1] += n0
            dep = np.asarray(departs, dtype=np.float64).reshape(-1)
            self.pat_events.append((off, tag, float(dep[0]),
                                    float(landing[0])))
            self._note_step(tag, self.p, self.p * n0)
            self._hist_const(n0, self.p)
        else:
            src = (eng.lane - dst_off) % self.p
            self.ex_src.append(src)
            self.ex_dst.append(eng.lane.copy())
            self.ex_tag.append(np.full(self.L, tag, dtype=np.int64))
            self.ex_nbytes.append(np.asarray(nb, dtype=np.int64).copy())
            self.ex_start.append(
                np.broadcast_to(np.asarray(departs, dtype=np.float64),
                                (self.L,)).copy())
            self.ex_end.append(landing)
            self._note_step(tag, self.L, int(nb.sum()))
            self._hist_vec(nb)
        self._attr_serial(eng, nb, serial, intra, rw)

    def on_subset_complete(self, eng: "_Engine", sel: np.ndarray, src,
                           tag: int, nbytes, departs, head: np.ndarray,
                           serial, intra) -> None:
        """A lane-subset completion (``_Engine.recv_from``)."""
        clocks = eng.clocks[sel]
        qw = np.maximum(0.0, clocks - head)
        rw = np.maximum(0.0, head - clocks)
        self._note_waits(tag, qw, rw, sel=sel)
        landing = np.maximum(clocks, head)
        k = len(sel)
        nb = np.broadcast_to(np.asarray(nbytes, dtype=np.int64), (k,))
        srcb = np.broadcast_to(np.asarray(src, dtype=np.int64), (k,))
        self.ex_src.append(srcb.copy())
        self.ex_dst.append(np.asarray(sel, dtype=np.int64).copy())
        self.ex_tag.append(np.full(k, tag, dtype=np.int64))
        self.ex_nbytes.append(nb.copy())
        self.ex_start.append(
            np.broadcast_to(np.asarray(departs, dtype=np.float64),
                            (k,)).copy())
        self.ex_end.append(landing)
        self._note_step(tag, k, int(nb.sum()))
        self._hist_vec(nb)
        uncong = eng.timing.serial_time_vec(eng.machine, nbytes, 1, intra)
        self.attr_transmit[sel] += uncong
        self.attr_congestion[sel] += serial - uncong
        self.attr_fault[sel] += serial * eng.straggle[sel] - serial
        self.attr_wait[sel] += rw

    def _attr_serial(self, eng: "_Engine", nb, serial, intra,
                     rw: np.ndarray) -> None:
        uncong = eng.timing.serial_time_vec(eng.machine, nb, 1, intra)
        self.attr_transmit += uncong
        self.attr_congestion += serial - uncong
        self.attr_fault += serial * eng.straggle - serial
        self.attr_wait += rw

    def on_step_end(self, eng: "_Engine", tag: int) -> None:
        clocks = eng.clocks
        rank = 0 if self.L == 1 else int(np.argmax(clocks))
        self.step_log.append((tag, eng.current_phase,
                              float(clocks[rank] if self.L > 1
                                    else clocks[0]), rank))

    def on_phase_end(self, totals: Dict[str, np.ndarray], name: str,
                     start: np.ndarray, end: np.ndarray) -> None:
        # Same left-to-right float ops as MetricsTrace.phase_end:
        # (total + end) - start, per lane.
        totals[name] = totals.get(name, 0.0) + end - start

    # -- snapshot ---------------------------------------------------------
    def snapshot(self, eng: "_Engine") -> RunMetrics:
        p = self.p
        hist = Histogram("message_nbytes")
        hist.add_bucket_counts(self.hist_counts, self.hist_total,
                               self.max_nbytes, self.hist_n)
        per_link: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        if self.L == 1:
            if self.pat_events:
                offs = np.array([e[0] for e in self.pat_events],
                                dtype=np.int64)
                tags = np.array([e[1] for e in self.pat_events],
                                dtype=np.int64)
                starts = np.array([e[2] for e in self.pat_events])
                ends = np.array([e[3] for e in self.pat_events])
                w = np.full(len(offs), p, dtype=np.int64)
                global_max = max_overlap(starts, ends, w)
                off_max = max_overlap_by_group(offs, starts, ends)
                tag_max = max_overlap_by_group(tags, starts, ends, w)
            else:
                global_max, off_max, tag_max = 0, {}, {}
            for off, (mcnt, mbytes) in self.pat_link.items():
                mif = off_max.get(off, 0)
                for r in range(p):
                    per_link[(r, (r + off) % p)] = (mcnt, mbytes, mif)
        else:
            if self.ex_src:
                src = np.concatenate(self.ex_src)
                dst = np.concatenate(self.ex_dst)
                tags = np.concatenate(self.ex_tag)
                nb = np.concatenate(self.ex_nbytes)
                starts = np.concatenate(self.ex_start)
                ends = np.concatenate(self.ex_end)
                gid = src * p + dst
                global_max = max_overlap(starts, ends)
                link_max = max_overlap_by_group(gid, starts, ends)
                tag_max = max_overlap_by_group(tags, starts, ends)
                order = np.argsort(gid, kind="stable")
                gs = gid[order]
                bounds = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
                counts = np.diff(np.r_[bounds, len(gs)])
                link_bytes = np.add.reduceat(nb[order], bounds)
                for g, c, b in zip(gs[bounds], counts, link_bytes):
                    g = int(g)
                    per_link[(g // p, g % p)] = (int(c), int(b),
                                                 link_max[g])
            else:
                global_max, tag_max = 0, {}
        per_step = {
            tag: (m, b, tag_max.get(tag, 0),
                  self.step_qw_max.get(tag, 0.0))
            for tag, (m, b) in self.step_tot.items()
        }
        rep = p if self.L == 1 else 1
        return RunMetrics(
            nprocs=p,
            total_messages=eng.total_messages,
            total_bytes=eng.total_bytes,
            message_size_buckets=hist.buckets(),
            max_message_nbytes=hist.max_value,
            max_in_flight=global_max,
            per_link=per_link,
            per_step=per_step,
            queue_wait_total=math.fsum(
                [float(v) for v in self.qw_total] * rep),
            queue_wait_max=float(self.qw_max.max()),
            recv_wait_total=math.fsum(
                [float(v) for v in self.rw_total] * rep),
            recv_wait_max=float(self.rw_max.max()),
            phase_times={name: float(np.max(v))
                         for name, v in self.phase_totals.items()},
            collective_times={name: float(np.max(v))
                              for name, v in self.coll_totals.items()},
            fault_counts=dict(self.fault_counts),
            injected_delay_total=math.fsum(
                float(v) for v in self.delay_by_rank),
        )

    def attribution(self, eng: "_Engine") -> Dict[str, List[float]]:
        """Per-rank raw attribution bucket sums for ``critical_path``."""
        rep = self.p if self.L == 1 else 1

        def expand(vec: np.ndarray) -> List[float]:
            return [float(v) for v in vec] * rep

        return {
            "overhead": expand(self.attr_overhead),
            "transmit": expand(self.attr_transmit),
            "congestion": expand(self.attr_congestion),
            "fault_delay": expand(self.attr_fault),
            "queue_wait": expand(self.attr_wait),
            "injected_delay": [float(v) for v in self.delay_by_rank],
            "step_log": list(self.step_log),
        }


# ======================================================================
# the lane engine
# ======================================================================

class _Engine:
    """Per-rank clocks and charge accounting as ``(L,)`` lane vectors.

    ``L == 1``: every rank performs the identical charge sequence, one
    lane stands for all of them (accounting is scaled by ``P``).
    ``L == P``: one lane per rank — required whenever sizes, stragglers or
    fault decisions differ across ranks.
    """

    def __init__(self, nprocs: int, machine,
                 injector: Optional[FaultInjector], lockstep: bool) -> None:
        self.p = int(nprocs)
        self.machine = machine
        self.injector = injector
        # Resolved once per run, not per charge.  Deferred to here because
        # repro.timing's package __init__ pulls in modules that read
        # repro.simmpi attributes, so a module-level import would cycle.
        from ..core import common
        from ..timing import engine as timing
        self.timing = timing
        self.common = common
        self.L = 1 if lockstep else self.p
        self.lane = np.arange(self.L, dtype=np.int64)
        self.clocks = np.zeros(self.L, dtype=np.float64)
        if injector is not None:
            straggle = np.array([injector.straggle_factor(r)
                                 for r in range(self.p)], dtype=np.float64)
        else:
            straggle = np.ones(self.L, dtype=np.float64)
        self.straggle = straggle
        # The per-op CPU overheads with the straggler multiplier folded in
        # (the scalar simulator computes ``o * straggle`` afresh each op;
        # the product is the same float either way).
        self._o_send = machine.o_send * straggle
        self._o_recv = machine.o_recv * straggle
        self._o_send_intra = machine.o_send_intra * straggle
        self._o_recv_intra = machine.o_recv_intra * straggle
        # Tier structure of the two-level hierarchy: with every pair on
        # one tier (flat model, or a single-node job) lockstep lanes stay
        # sound; otherwise per-(lane, peer) masks select the tier.
        self._tier_uniform = machine.ppn <= 1 or machine.ppn >= self.p
        self._all_intra = machine.ppn > 1 and machine.ppn >= self.p
        self.total_messages = 0
        self.total_bytes = 0
        self._coll_seq = 0
        self._phases: List[str] = []
        #: Attached by ``run_tensor`` when ``config.metrics_on``.
        self.metrics: Optional[_TensorMetrics] = None

    # -- phases / tags --------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        self._phases.append(name)
        mt = self.metrics
        start = self.clocks.copy() if mt is not None else None
        try:
            yield
        finally:
            self._phases.pop()
            if mt is not None:
                mt.on_phase_end(mt.phase_totals, name, start, self.clocks)

    @contextmanager
    def collective(self, name: str) -> Iterator[None]:
        """Time an internal collective (does not enter the phase stack,
        matching ``Communicator._collective``)."""
        mt = self.metrics
        start = self.clocks.copy() if mt is not None else None
        try:
            yield
        finally:
            if mt is not None:
                mt.on_phase_end(mt.coll_totals, name, start, self.clocks)

    @property
    def current_phase(self) -> Optional[str]:
        return self._phases[-1] if self._phases else None

    def collective_tag(self) -> int:
        """Reserve the next internal collective tag block (same allocation
        sequence as ``Communicator._next_coll_tags``)."""
        tag = MAX_USER_TAG + self._coll_seq * _INTERNAL_TAG_STRIDE
        self._coll_seq += 1
        return tag

    # -- tier selection (two-level hierarchy) ---------------------------
    def _intra_pair(self, src, dst):
        """``machine.is_intra`` vectorized over rank arrays; the scalar
        ``False`` on the flat model (so flat-path arithmetic is untouched)."""
        m = self.machine
        if m.ppn <= 1:
            return False
        return (np.asarray(src) // m.ppn) == (np.asarray(dst) // m.ppn)

    def intra_to_off(self, dst_off: int):
        """Tier of each lane's send to ``(lane + dst_off) % P``: a scalar
        bool when every pair shares one tier, else an ``(L,)`` mask (which
        requires one lane per rank — enforced by ``lockstep_ok``)."""
        m = self.machine
        if m.ppn <= 1:
            return False
        if m.ppn >= self.p:
            return True
        return ((self.lane // m.ppn)
                == (((self.lane + dst_off) % self.p) // m.ppn))

    def _o_send_sel(self, intra):
        if intra is False:
            return self._o_send
        if intra is True:
            return self._o_send_intra
        return np.where(intra, self._o_send_intra, self._o_send)

    def _o_recv_sel(self, intra):
        if intra is False:
            return self._o_recv
        if intra is True:
            return self._o_recv_intra
        return np.where(intra, self._o_recv_intra, self._o_recv)

    # -- local charges --------------------------------------------------
    def charge_compute(self, seconds: float) -> None:
        self.clocks = self.clocks + seconds

    def compute_at(self, sel: np.ndarray, seconds: float) -> None:
        """``charge_compute`` on a lane subset (e.g. leaders only)."""
        self.clocks[sel] = self.clocks[sel] + seconds

    def charge_copy(self, nbytes) -> None:
        """One ``charge_copy`` per lane; zero/negative sizes are free."""
        self.clocks = self.clocks + self.timing.copy_time_vec(self.machine,
                                                              nbytes)

    def charge_datatype(self, nblocks, nbytes) -> None:
        """One datatype pack/unpack charge per lane."""
        self.clocks = self.clocks + self.timing.datatype_time_vec(
            self.machine, nblocks, nbytes)

    def charge_copies(self, counts, axis: int = -1) -> None:
        """One ``Communicator.charge_copies`` batch per lane.

        ``counts`` is a shared 1-D sequence (same for every lane) or a
        per-lane matrix whose batches run along ``axis``; non-positive
        entries are skipped.
        """
        self.clocks = self.clocks + self._batch_time(counts, axis)

    def _batch_time(self, counts, axis: int = -1) -> np.ndarray:
        """``copy_time_blocks`` of each batch of ``counts`` over its
        positive entries: their number and their int64 sum."""
        arr = np.asarray(counts, dtype=np.int64)
        if arr.size and arr.min() < 0:
            arr = np.maximum(arr, 0)
        return self.machine.copy_time_blocks(
            (arr != 0).sum(axis=axis, dtype=np.int64), arr.sum(axis=axis))

    # -- message posting / completion -----------------------------------
    def _account(self, nbytes, messages: int) -> None:
        nb = np.asarray(nbytes)
        self.total_messages += messages
        if nb.ndim == 0:
            self.total_bytes += messages * int(nb)
        else:
            # one entry per lane; a single lane stands for all P ranks
            self.total_bytes += int(nb.sum()) * (self.p // self.L)

    def _delayed(self, src, dst, nbytes, tag, departs) -> np.ndarray:
        """Run one envelope per departure through the fault engine, in
        order (delay rules shift the departure the receiver sees; the
        sender clock is not affected, exactly as in
        ``Communicator._post_envelope``).  ``src``/``dst``/``nbytes``/
        ``tag`` are scalars or arrays aligned with ``departs``."""
        out = np.array(departs, dtype=np.float64)
        cols = [np.broadcast_to(np.asarray(v), out.shape).tolist()
                for v in (src, dst, tag, nbytes)]
        phase, mt = self.current_phase, self.metrics
        for i, (s, d, t, nb) in enumerate(zip(*cols)):
            env = Envelope(s, d, t, None, float(out[i]), nb)
            _, records = self.injector.on_post(env, phase)
            if records and mt is not None:
                for rec in records:
                    mt.on_fault(rec.kind, rec.delay, rec.src)
            out[i] = env.depart
        return out

    def post(self, dst_off: int, nbytes, tag: int) -> np.ndarray:
        """Every rank posts one isend to ``(rank + dst_off) % P``.

        Returns the per-lane departure clocks the *receivers* will see.
        """
        o = self._o_send_sel(self.intra_to_off(dst_off))
        self.clocks = self.clocks + o
        if self.metrics is not None:
            self.metrics.attr_overhead += o
        self._account(nbytes, self.p)
        if self.injector is not None:
            return self._delayed(self.lane, (self.lane + dst_off) % self.p,
                                 nbytes, tag, self.clocks)
        return self.clocks.copy()

    def recv_post(self, intra=False) -> None:
        """Every rank posts one irecv (the o_recv charge, on the tier its
        source selects)."""
        o = self._o_recv_sel(intra)
        self.clocks = self.clocks + o
        if self.metrics is not None:
            self.metrics.attr_overhead += o

    def complete(self, departs, nbytes, intra=False, tag=None,
                 dst_off=None) -> None:
        """Land one message per lane: the simulator's receive rule.

        ``tag``/``dst_off`` (when given) record the completion in the
        attached metrics store; they never change the clock arithmetic.
        """
        eng = self.timing
        head = np.asarray(departs) + eng.head_latency_vec(self.machine,
                                                          nbytes, intra)
        serial = eng.serial_time_vec(self.machine, nbytes, self.p, intra)
        mt = self.metrics
        if mt is not None and tag is not None:
            mt.on_exchange_complete(self, dst_off, tag, nbytes, departs,
                                    head, serial, intra)
        self.clocks = np.maximum(self.clocks, head) + serial * self.straggle
        if mt is not None and tag is not None:
            mt.on_step_end(self, tag)

    def from_src(self, values, dst_off: int):
        """Re-index per-sender values to the receiver lane for an exchange
        where rank ``r`` sends to ``(r + dst_off) % P`` — the receiver's
        partner is ``(r - dst_off) % P``.  Lockstep lanes pass through."""
        v = np.asarray(values)
        if self.L == 1 or v.ndim == 0:
            return v
        return v[(self.lane - dst_off) % self.p]

    def exchange(self, dst_off: int, nbytes, tag: int) -> None:
        """One ``sendrecv``: isend → irecv → completion, all lanes."""
        departs = self.post(dst_off, nbytes, tag)
        intra = self.intra_to_off(dst_off)
        # Receiver r's partner is (r - dst_off) % P, whose *send* mask
        # entry describes exactly that pair — so the receive-side tier is
        # the send mask re-indexed to the receiver lane.
        intra_r = intra if isinstance(intra, bool) \
            else self.from_src(intra, dst_off)
        self.recv_post(intra_r)
        self.complete(self.from_src(departs, dst_off),
                      self.from_src(nbytes, dst_off), intra_r,
                      tag=tag, dst_off=dst_off)

    # -- collectives ----------------------------------------------------
    def allreduce_rounds(self) -> None:
        """Clock effect of a dissemination allreduce of one float64 (the
        ``max``/``min`` path every kernel uses): ``ceil(log2 P)`` pairwise
        8-byte control exchanges."""
        with self.collective("allreduce"):
            if self.p == 1:
                return
            tag = self.collective_tag()
            k = 1
            while k < self.p:
                self.exchange(k, 8, tag)
                k <<= 1

    def fanout(self, cols, tag: int) -> None:
        """The spread-out exchange: every rank posts ``P-1`` irecvs, then
        ``P-1`` isends (ascending offset), then completes the receives in
        posted order.  ``cols`` is a scalar (uniform) or an ``(L, P-1)``
        matrix with ``cols[r, off-1]`` = bytes rank ``r`` sends to
        ``(r + off) % P``.
        """
        p, L = self.p, self.L
        if p == 1:
            return
        cols = np.asarray(cols)
        self._account(cols, p * (p - 1))
        tiers = self._fanout_tiers()
        if tiers is None:
            recv_mask = None
            o_send_mat = np.broadcast_to(
                self._o_send_sel(self._all_intra)[:, None], (L, p - 1))
            o_recv_mat = np.broadcast_to(
                self._o_recv_sel(self._all_intra)[:, None], (L, p - 1))
        else:
            send_mask, recv_mask = tiers
            o_send_mat = np.where(send_mask, self._o_send_intra[:, None],
                                  self._o_send[:, None])
            o_recv_mat = np.where(recv_mask, self._o_recv_intra[:, None],
                                  self._o_recv[:, None])
        # All irecvs first: p-1 sequential o_recv charges per lane.
        self.clocks = _fold(self.clocks, o_recv_mat)
        # All isends: capture each post's departure.
        if self.injector is None:
            block = np.concatenate([self.clocks[:, None], o_send_mat],
                                   axis=1)
            acc = np.add.accumulate(block, axis=1)
            departs = acc[:, 1:]
            self.clocks = acc[:, -1].copy()
        else:
            departs = np.empty((L, p - 1), dtype=np.float64)
            colsb = (None if cols.ndim == 0
                     else np.broadcast_to(cols, (L, p - 1)))
            for off in range(1, p):
                self.clocks = self.clocks + o_send_mat[:, off - 1]
                nb = cols if cols.ndim == 0 else colsb[:, off - 1]
                departs[:, off - 1] = self._delayed(
                    self.lane, (self.lane + off) % p, nb, tag, self.clocks)
        mt = self.metrics
        if mt is not None:
            mt.attr_overhead += (o_recv_mat.sum(axis=1)
                                 + o_send_mat.sum(axis=1))
        # Completions in posted (offset-ascending) order; rank r's off-th
        # receive is from src = (r - off) % P, which was src's off-th send.
        if L == 1 and self.injector is None and cols.ndim == 0:
            # Scalar fast path: pure-float replay of the completion loop
            # (identical IEEE ops; keeps 32K-rank fanouts in milliseconds).
            # Only reachable on a uniform tier (lockstep implies it).
            m = self.machine
            n = int(cols)
            head_l = m.head_latency(n, self._all_intra)
            serial = m.serial_time(n, p, self._all_intra)
            c = float(self.clocks[0])
            row = departs[0]
            if mt is None:
                for off in range(1, p):
                    arrive = float(row[off - 1]) + head_l
                    if c < arrive:
                        c = arrive
                    c = c + serial
            else:
                c = self._fanout_fast_metrics(mt, row, tag, n, c,
                                              head_l, serial)
            self.clocks = np.array([c])
            if mt is not None:
                mt.on_step_end(self, tag)
            return
        for off in range(1, p):
            src = (self.lane - off) % p
            d = departs[:, off - 1] if L == 1 else departs[src, off - 1]
            if cols.ndim == 0:
                nb = cols
            else:
                nb = cols[:, off - 1] if L == 1 else cols[src, off - 1]
            tier = self._all_intra if recv_mask is None \
                else recv_mask[:, off - 1]
            self.complete(d, nb, tier, tag=tag, dst_off=off)

    def _fanout_fast_metrics(self, mt: "_TensorMetrics", row: np.ndarray,
                             tag: int, n: int, c: float, head_l: float,
                             serial: float) -> float:
        """The fanout fast path's completion loop with inline pure-float
        metric accumulation — the same IEEE ops as the vector path (the
        lockstep lane's straggle factor is exactly 1.0)."""
        p = self.p
        m = self.machine
        qwt = float(mt.qw_total[0])
        qwm = float(mt.qw_max[0])
        rwt = float(mt.rw_total[0])
        rwm = float(mt.rw_max[0])
        sqw = mt.step_qw_max.get(tag, 0.0)
        rw_sum = 0.0
        events = mt.pat_events
        for off in range(1, p):
            dep = float(row[off - 1])
            arrive = dep + head_l
            qw = max(0.0, c - arrive)
            rw = max(0.0, arrive - c)
            qwt = qwt + qw
            if qw > qwm:
                qwm = qw
            if qw > sqw:
                sqw = qw
            rwt = rwt + rw
            if rw > rwm:
                rwm = rw
            rw_sum += rw
            lk = mt.pat_link.get(off)
            if lk is None:
                lk = mt.pat_link[off] = [0, 0]
            lk[0] += 1
            lk[1] += n
            if c < arrive:
                c = arrive
            events.append((off, tag, dep, c))
            c = c + serial
        mt.qw_total[0] = qwt
        mt.qw_max[0] = qwm
        mt.rw_total[0] = rwt
        mt.rw_max[0] = rwm
        if sqw > 0.0:
            mt.step_qw_max[tag] = sqw
        mt._note_step(tag, p * (p - 1), p * (p - 1) * n)
        mt._hist_const(n, p * (p - 1))
        uncong = m.serial_time(n, 1, self._all_intra)
        mt.attr_transmit += (p - 1) * uncong
        mt.attr_congestion += (p - 1) * (serial - uncong)
        mt.attr_wait += rw_sum
        return c

    def _fanout_tiers(self):
        """``(send, recv)`` tier masks of shape ``(L, p-1)`` for a
        spread-out fanout — ``send[l, off-1]`` covers ``l -> (l+off)%P``
        and ``recv[l, off-1]`` covers ``(l-off)%P -> l`` — or ``None``
        when every pair shares one tier."""
        if self._tier_uniform:
            return None
        ppn = self.machine.ppn
        offs = np.arange(1, self.p, dtype=np.int64)
        node = self.lane[:, None] // ppn
        send = node == (((self.lane[:, None] + offs[None, :]) % self.p)
                        // ppn)
        recv = node == (((self.lane[:, None] - offs[None, :]) % self.p)
                        // ppn)
        return send, recv

    # -- lane-subset operations (leader/member asymmetric algorithms) ---
    def post_at(self, sel: np.ndarray, dst, nbytes, tag: int) -> np.ndarray:
        """Lanes ``sel`` each post one isend to ``dst``; returns their
        departure clocks (aligned with ``sel``)."""
        intra = self._intra_pair(sel, dst)
        o = self._o_send[sel] if intra is False \
            else np.where(intra, self._o_send_intra[sel], self._o_send[sel])
        self.clocks[sel] = self.clocks[sel] + o
        mt = self.metrics
        if mt is not None:
            mt.attr_overhead[sel] += o
        nb = np.asarray(nbytes)
        self.total_messages += len(sel)
        self.total_bytes += (len(sel) * int(nb) if nb.ndim == 0
                             else int(nb.sum()))
        if self.injector is not None:
            return self._delayed(sel, dst, nb, tag, self.clocks[sel])
        return self.clocks[sel].copy()

    def recv_from(self, sel: np.ndarray, src, departs, nbytes,
                  tag: int) -> None:
        """Lanes ``sel`` each receive one message from ``src`` (scalar or
        aligned array), whose tier prices it: the irecv's ``o_recv``, then
        the completion rule."""
        intra = self._intra_pair(src, sel)
        o = self._o_recv[sel] if intra is False \
            else np.where(intra, self._o_recv_intra[sel], self._o_recv[sel])
        self.clocks[sel] = self.clocks[sel] + o
        eng = self.timing
        head = np.asarray(departs) + eng.head_latency_vec(self.machine,
                                                          nbytes, intra)
        serial = eng.serial_time_vec(self.machine, nbytes, self.p, intra)
        mt = self.metrics
        if mt is not None:
            mt.attr_overhead[sel] += o
            mt.on_subset_complete(self, sel, src, tag, nbytes, departs,
                                  head, serial, intra)
        self.clocks[sel] = np.maximum(self.clocks[sel], head) \
            + serial * self.straggle[sel]
        if mt is not None:
            mt.on_step_end(self, tag)

    def copies_at(self, sel: np.ndarray, counts: np.ndarray) -> None:
        """``charge_copies`` on a lane subset: ``counts[i]`` is the batch
        of lane ``sel[i]``."""
        self.clocks[sel] = self.clocks[sel] + self._batch_time(counts)

    def const_copies_at(self, sel: np.ndarray, value: int,
                        counts) -> None:
        """``charge_copies`` of ``counts[i]`` copies of ``value`` bytes on
        lane ``sel[i]``."""
        if value > 0:
            self.blocks_at(sel, counts, np.multiply(counts, value))

    def blocks_at(self, sel: np.ndarray, nblocks, nbytes) -> None:
        """A batch of ``nblocks[i]`` copies moving ``nbytes[i]`` bytes on
        lane ``sel[i]``."""
        self.clocks[sel] = self.clocks[sel] \
            + self.machine.copy_time_blocks(nblocks, nbytes)

    # -- results --------------------------------------------------------
    def final_clocks(self) -> List[float]:
        if self.L == self.p:
            return [float(c) for c in self.clocks]
        return [float(self.clocks[0])] * self.p


def _fold(clocks: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Left-fold ``times`` rows onto ``clocks`` with the same sequential
    float additions as a ``+=`` loop.  ``times`` has one row (shared) or
    one row per lane.  Many lanes take one in-place add per column; a
    single lane runs ``np.add.accumulate`` along its row, chunked to bound
    memory."""
    L = len(clocks)
    if L > 1:
        c = clocks.copy()
        for col in times.T:
            c += col
        return c
    k = times.shape[1]
    c = clocks
    for s in range(0, k, _FOLD_CHUNK):
        width = min(_FOLD_CHUNK, k - s)
        chunk = np.broadcast_to(times[:, s:s + width], (L, width))
        block = np.concatenate([c[:, None], chunk], axis=1)
        c = np.add.accumulate(block, axis=1)[:, -1]
    return c


# ======================================================================
# block-size views
# ======================================================================

class _SizeView:
    """Uniform access to constant or per-pair block sizes.

    ``mat[i, j]`` is the bytes rank ``i`` sends to rank ``j`` (the
    ``block_size_matrix`` convention: ``sendcounts = mat[rank]``,
    ``recvcounts = mat[:, rank]``).
    """

    def __init__(self, sizes, p: int) -> None:
        self.p = p
        if isinstance(sizes, (int, np.integer)):
            if sizes < 0:
                raise ValueError(f"block size must be >= 0, got {sizes}")
            self.is_const = True
            self.const = int(sizes)
            self.mat = None
        else:
            mat = np.ascontiguousarray(np.asarray(sizes, dtype=np.int64))
            if mat.shape != (p, p):
                raise ValueError(
                    f"size matrix must have shape ({p}, {p}), "
                    f"got {mat.shape}")
            if (mat < 0).any():
                raise ValueError("size matrix entries must be >= 0")
            self.is_const = False
            self.const = None
            self.mat = mat

    def max(self) -> int:
        return self.const if self.is_const else int(self.mat.max(initial=0))

    def row(self):
        """Per-rank sendcounts: shared ``(p,)`` or per-lane ``(p, p)``."""
        if self.is_const:
            return np.full(self.p, self.const, dtype=np.int64)
        return self.mat

    def self_block(self):
        if self.is_const:
            return self.const
        return np.diagonal(self.mat).copy()

    def row_sum(self):
        return (self.const * self.p if self.is_const
                else self.mat.sum(axis=1))

    def col_sum(self):
        return (self.const * self.p if self.is_const
                else self.mat.sum(axis=0))

    def row_matrix(self, L: int) -> np.ndarray:
        """Mutable ``(L, p)`` working copy of each lane's sendcounts."""
        if self.is_const:
            return np.full((L, self.p), self.const, dtype=np.int64)
        return self.mat.copy()

    def col_matrix(self, L: int) -> np.ndarray:
        if self.is_const:
            return np.full((L, self.p), self.const, dtype=np.int64)
        return np.ascontiguousarray(self.mat.T)

    def by_distance(self, L: int):
        """The sizes as a distance-major :class:`BlockSizeState` with
        ``L`` lanes (constant sizes need only as many lanes as the engine
        runs)."""
        from ..core.common import BlockSizeState
        if self.is_const:
            return BlockSizeState.uniform(self.p, self.const, L)
        return BlockSizeState.from_matrix(self.mat)

    def fanout_cols(self, lane: np.ndarray):
        """Spread-out send sizes: scalar, or ``(L, p-1)`` with column
        ``off-1`` = bytes sent to ``(rank + off) % p``."""
        if self.is_const:
            return self.const
        offs = np.arange(1, self.p, dtype=np.int64)
        return self.mat[lane[:, None], (lane[:, None] + offs[None, :])
                        % self.p]


# ======================================================================
# algorithm evaluators (one per registered kernel)
# ======================================================================

def _eval_bruck(eng: _Engine, n: int, *, sign: int, use_dt: bool,
                final_rotation: bool, tag_base: int = 0,
                radix: int = 2) -> None:
    """basic/modified Bruck, memcpy or datatype build."""
    p = eng.p
    if n == 0:
        return
    common = eng.common
    with eng.phase("initial_rotation"):
        eng.charge_copies(np.full(p, n, dtype=np.int64))
    with eng.phase("communication"):
        for sub in common.bruck_substeps(p, radix):
            m = len(sub.distances)
            if use_dt:
                eng.charge_datatype(m, m * n)
            else:
                eng.charge_copies(np.full(m, n, dtype=np.int64))
            eng.exchange(sign * sub.jump, m * n, tag_base + sub.index)
            if use_dt:
                eng.charge_datatype(m, m * n)
            else:
                eng.charge_copies(np.full(m, n, dtype=np.int64))
    if final_rotation:
        with eng.phase("final_rotation"):
            eng.charge_copy(p * n)
            eng.charge_copies(np.full(p, n, dtype=np.int64))


def _eval_zero_rotation(eng: _Engine, n: int, *, tag_base: int = 0,
                        radix: int = 2) -> None:
    p = eng.p
    if n == 0:
        return
    common = eng.common
    with eng.phase("index_setup"):
        eng.charge_compute(p * ROT_INDEX_COST_PER_PROC)
    eng.charge_copy(n)
    with eng.phase("communication"):
        for sub in common.bruck_substeps(p, radix):
            m = len(sub.distances)
            eng.charge_copies(np.full(m, n, dtype=np.int64))
            eng.exchange(-sub.jump, m * n, tag_base + sub.index)
            eng.charge_copies(np.full(m, n, dtype=np.int64))


def _odd_parity_count(values: np.ndarray) -> int:
    """How many of the non-negative ``values`` have an odd number of set
    bits.  A xor-fold leaves each value's parity in its lowest bit
    (``np.bitwise_count`` would need NumPy 2); ``values`` is consumed."""
    width = int(values.max(initial=0)).bit_length()
    shift = 1
    while shift < width:
        values ^= values >> shift
        shift <<= 1
    return int(np.count_nonzero(values & 1))


def _eval_zero_copy(eng: _Engine, n: int, *, tag_base: int = 0) -> None:
    p = eng.p
    if n == 0:
        return
    common = eng.common
    with eng.phase("initial_rotation"):
        eng.charge_copies(np.full(p, n, dtype=np.int64))
    with eng.phase("communication"):
        for sub in common.bruck_substeps(p, 2):
            k, m = sub.step, len(sub.distances)
            # Remaining-hop parity split: mr blocks travel R→T, mt T→R.
            mr = _odd_parity_count(sub.distances >> (k + 1))
            mt = m - mr
            if mr:
                eng.charge_datatype(mr, mr * n)   # pack from R
            if mt:
                eng.charge_datatype(mt, mt * n)   # pack from T
            eng.exchange(-(1 << k), m * n, tag_base + k)
            if mt:
                eng.charge_datatype(mt, mt * n)   # unpack into R
            if mr:
                eng.charge_datatype(mr, mr * n)   # unpack into T
    # no final rotation (modified orientation)


def _eval_spread_out(eng: _Engine, n: int, *, tag_base: int = 0) -> None:
    if n == 0:
        return
    with eng.phase("communication"):
        eng.charge_copy(n)
        eng.fanout(n, tag_base)


def _eval_vendor_alltoall(eng: _Engine, n: int) -> None:
    with eng.collective("alltoall"):
        tag = eng.collective_tag()
        eng.charge_copy(n)
        eng.fanout(n, tag)


def _eval_padded(eng: _Engine, sv: _SizeView, *, vendor: bool,
                 tag_base: int = 0, radix: int = 2) -> None:
    with eng.phase("padding"):
        eng.allreduce_rounds()
        max_n = sv.max()
        if max_n == 0:
            return
        eng.charge_copies(sv.row())
    if vendor:
        _eval_vendor_alltoall(eng, max_n)
    else:
        _eval_zero_rotation(eng, max_n, tag_base=tag_base, radix=radix)
    with eng.phase("scan"):
        eng.charge_copies(sv.row(), axis=0)      # column r: rank r's recvs


def _eval_two_phase(eng: _Engine, sv: _SizeView, *, tag_base: int = 0,
                    radix: int = 2) -> None:
    p, L = eng.p, eng.L
    common = eng.common
    with eng.phase("setup"):
        eng.allreduce_rounds()
        eng.charge_compute(p * ROT_INDEX_COST_PER_PROC)
        if sv.max() == 0:
            return
    state = sv.by_distance(L)
    eng.charge_copy(state.rows[0])              # distance 0: the self block
    subs = common.bruck_substeps(p, radix)
    # Scratch for one cache-sized piece of a substep's moving rows,
    # allocated once per run.
    widest = max((len(sub.distances) for sub in subs), default=0)
    piece = max(1, _PIECE_BYTES // (state.rows.itemsize * L))
    counts = np.empty((min(piece, widest), L), dtype=state.rows.dtype)
    for sub in subs:
        m = len(sub.distances)
        acc = state.sum_dtype(m)
        with eng.phase("metadata_exchange"):
            eng.exchange(-sub.jump, 4 * m, tag_base + 2 * sub.index)
        with eng.phase("data_exchange"):
            # Read, count and roll the moving rows piece by piece (nothing
            # reads the state again before the next substep): per lane,
            # the pack batch's block count and bytes.
            nz_out = np.zeros(L, dtype=np.int64)
            out_total = np.zeros(L, dtype=np.int64)
            for lo in range(0, m, piece):
                dist = sub.distances[lo:lo + piece]
                moving = state.read(dist, out=counts[:len(dist)])
                out_total += moving.sum(axis=0, dtype=acc)
                nz_out += (moving != 0).sum(axis=0, dtype=np.uint32)
                state.roll(dist, sub.jump, moving)
            pack = eng.machine.copy_time_blocks(nz_out, out_total)
            eng.clocks = eng.clocks + pack
            eng.exchange(-sub.jump, out_total,
                         tag_base + 2 * sub.index + 1)
            # Unpack: what each rank received is what the rank `jump`
            # above it packed.
            eng.clocks = eng.clocks + np.roll(pack, -sub.jump)


def _eval_sloav(eng: _Engine, sv: _SizeView, *, tag_base: int = 0) -> None:
    p, L = eng.p, eng.L
    with eng.phase("setup"):
        eng.charge_compute(p * ROT_INDEX_COST_PER_PROC)
    cur = sv.row_matrix(L)           # block size at slot j's original dest
    temp_sizes = np.zeros((L, p), dtype=np.int64)
    stored = np.zeros(L, dtype=np.int64)
    capacity = np.full(L, 4096, dtype=np.int64)
    store = _sloav_store_scalar if L == 1 else _sloav_store_vector
    with eng.phase("communication"):
        for sub in eng.common.bruck_substeps(p):
            k, d = sub.step, sub.distances
            m = len(d)
            keys = (eng.lane[:, None] + d[None, :]) % p   # rot[j], slot j=i
            meta_out = np.take_along_axis(cur, keys, axis=1)
            data_total = meta_out.sum(axis=1)
            eng.charge_copy(4 * m)                    # meta into combined
            eng.charge_copies(meta_out)               # per-block pack
            eng.exchange(1 << k, 4, tag_base + 2 * k)             # header
            eng.exchange(1 << k, 4 * m + data_total,
                         tag_base + 2 * k + 1)                    # combined
            eng.charge_copy(4 * m)                    # meta out of combined
            meta_in = eng.from_src(meta_out, 1 << k)
            store(eng, sub, meta_in, temp_sizes, stored, capacity)
            np.put_along_axis(cur, keys, meta_in, axis=1)
    with eng.phase("final_rotation"):
        # Every slot 1..p-1 was stored at least once; rotate in slot order.
        eng.charge_copies(temp_sizes[:, 1:])
    with eng.phase("scan"):
        eng.charge_copy(sv.self_block())
        rc = sv.col_matrix(L)
        rc[eng.lane, eng.lane] = 0        # the self entry is skipped
        eng.charge_copies(rc)


def _sloav_store_scalar(eng: _Engine, sub, meta_in,
                        temp_sizes, stored, capacity) -> None:
    """Lockstep replay of ``_GrowableTemp.store`` over one step's blocks:
    one sequential fold of their copy times (zero-size blocks add
    ``+0.0``), each regrowth copy inserted before the block whose arrival
    pushed the running ``stored`` total past the capacity — a power of
    two, doubled until the total fits."""
    dist, cnt = sub.distances, meta_in[0]
    running = int(stored[0]) + np.cumsum(cnt - temp_sizes[0, dist])
    # log2 of the capacity in force before the first and after each block
    level = np.maximum.accumulate(np.concatenate((
        [int(capacity[0]).bit_length() - 1],
        np.searchsorted(_P2_TABLE, running, side="left"))))
    ups = np.diff(level)
    at = np.repeat(np.flatnonzero(ups), ups[ups > 0])
    # Regrowing copies what the buffer already holds: not a block on its
    # first visit (no lower bit set in its distance).
    held = running[at] - np.where(dist[at] & ((1 << sub.step) - 1),
                                  0, cnt[at])
    copy_time = eng.timing.copy_time_vec
    seconds = np.insert(copy_time(eng.machine, cnt), at,
                        copy_time(eng.machine, held))
    eng.clocks = np.add.accumulate(
        np.concatenate((eng.clocks, seconds)))[-1:]
    temp_sizes[0, dist] = cnt
    stored[0] = running[-1]
    capacity[0] = 1 << int(level[-1])


def _sloav_store_vector(eng: _Engine, sub, meta_in,
                        temp_sizes, stored, capacity) -> None:
    low_mask = (1 << sub.step) - 1
    for a, j in enumerate(sub.distances.tolist()):
        cnt = meta_in[:, a]
        first = (j & low_mask) == 0
        stored += cnt - temp_sizes[:, j]
        fresh = cnt if first else np.zeros_like(cnt)
        while True:
            mask = stored > capacity
            if not mask.any():
                break
            eng.charge_copy(np.where(mask, stored - fresh, 0))
            capacity[mask] *= 2
        eng.charge_copy(cnt)
        temp_sizes[:, j] = cnt


def _eval_spread_out_v(eng: _Engine, sv: _SizeView, *,
                       tag_base: int = 0) -> None:
    eng.charge_copy(sv.self_block())
    eng.fanout(sv.fanout_cols(eng.lane), tag_base)


def _eval_vendor_alltoallv(eng: _Engine, sv: _SizeView) -> None:
    with eng.collective("alltoallv"):
        tag = eng.collective_tag()
        eng.charge_copy(sv.self_block())
        eng.fanout(sv.fanout_cols(eng.lane), tag)


def _node_layout(eng: _Engine, width: int):
    """Leader/member geometry for groups of ``width`` consecutive ranks
    (the last may be smaller), each led by its lowest rank: ``(width, n,
    leads, lsize, lead, members)`` with ``leads``/``lsize`` per group and
    ``lead`` per lane."""
    p = eng.p
    width = min(int(width), p)
    n = (p + width - 1) // width
    leads = np.arange(n, dtype=np.int64) * width
    lsize = np.minimum(leads + width, p) - leads
    lead = (eng.lane // width) * width
    members = eng.lane[eng.lane != lead]
    return width, n, leads, lsize, lead, members


def _gather_to_leaders(eng: _Engine, layout, messages) -> None:
    """Every member posts each ``(nbytes, tag)`` of ``messages`` to its
    leader; the leaders then drain their members in ascending order, each
    member's messages in posted order.  ``nbytes`` is one size or a
    per-rank vector."""
    width, _, leads, lsize, lead, members = layout
    posted = []
    for nbytes, tag in messages:
        nb = np.broadcast_to(np.asarray(nbytes), (eng.p,))
        departs = np.zeros(eng.p, dtype=np.float64)
        departs[members] = eng.post_at(members, lead[members],
                                       nb[members], tag)
        posted.append((departs, nb, tag))
    for j in range(1, width):
        sel = leads[lsize > j]
        mem = sel + j
        for departs, nb, tag in posted:
            eng.recv_from(sel, mem, departs[mem], nb[mem], tag)


def _scatter_from_leaders(eng: _Engine, layout, nbytes, tag: int,
                          build) -> None:
    """Leaders serve their group slot by slot (ascending):
    ``build(sel, mem, j)`` charges what leaders ``sel`` do locally for
    the ranks ``mem`` in slot ``j`` — slot 0 is the leader itself — and
    every other slot's blob (``nbytes``: one size or a per-rank vector)
    is then sent; the members receive once every leader has posted."""
    width, _, leads, lsize, lead, members = layout
    nb = np.broadcast_to(np.asarray(nbytes), (eng.p,))
    departs = np.zeros(eng.p, dtype=np.float64)
    for j in range(width):
        sel = leads[lsize > j]
        mem = sel + j
        build(sel, mem, j)
        if j:
            departs[mem] = eng.post_at(sel, mem, nb[mem], tag)
    if members.size:
        eng.recv_from(members, lead[members], departs[members],
                      nb[members], tag)


def _eval_grouped(eng: _Engine, sv: _SizeView, *, group_size: int = 8,
                  tag_base: int = 0) -> None:
    """Leader-based grouped alltoallv.  Leaders and members run different
    programs, so this always evaluates with ``L == P`` lanes."""
    p = eng.p
    if eng.L != p:
        raise ValueError("grouped evaluation requires one lane per rank")
    layout = _node_layout(eng, group_size)
    g, n_groups, _, gsize, _, members = layout

    with eng.phase("gather_to_leader"):     # counts, then data
        _gather_to_leaders(eng, layout, [(8 * p, tag_base),
                                         (sv.row_sum(), tag_base + 1)])
    with eng.phase("leader_exchange"):
        if n_groups > 1:
            _leader_exchange(eng, sv, layout, tag_base + 2)

    def place(ranks):
        """A rank scatters its blob: one copy per source, ascending."""
        if sv.is_const:
            eng.const_copies_at(ranks, sv.const, p)
        else:
            eng.copies_at(ranks, np.ascontiguousarray(sv.mat[:, ranks].T))

    def build(sel, mem, j):
        """Blob build: one copy per own-group source block (ascending);
        the leader's own slice is placed directly, with no send."""
        own = gsize[sel // g]
        if sv.is_const:
            eng.const_copies_at(sel, sv.const, own)
        else:
            ok = np.arange(g)[None, :] < own[:, None]
            own_idx = np.where(ok, sel[:, None] + np.arange(g)[None, :], 0)
            eng.copies_at(sel, sv.mat[own_idx, mem[:, None]] * ok)
        if j == 0:
            place(sel)

    with eng.phase("scatter_from_leader"):
        _scatter_from_leaders(eng, layout, sv.col_sum(), tag_base + 4, build)
        if members.size:
            place(members)


def _leader_exchange(eng: _Engine, sv: _SizeView, layout, tag: int) -> None:
    """Phase 2 of the grouped scheme: every leader builds, then posts, a
    count header (``tag``) and a blob (``tag + 1``) per other group,
    ascending, then receives in the same order.  Evaluated sender-major
    over the ``n`` leader clocks alone (DESIGN.md §5.5): a leader's posts
    are one running sum, so the departures a source's receivers see are
    recomputed when the receive loop reaches that source, never stored
    per pair; consecutive sources with equal inputs share the result."""
    g, n, leads, gsize, _, _ = layout
    p, m, tm = eng.p, eng.machine, eng.timing
    mt, injector = eng.metrics, eng.injector
    gi = np.arange(n)
    pairs = p * p - int((gsize * gsize).sum())  # rank pairs across groups
    # A leader's blob builds are one batch: its group's rows outside its
    # own group's columns.
    if sv.is_const:
        eng.const_copies_at(leads, sv.const, gsize * (p - gsize))
        blob_rows = None
        blob_total = sv.const * pairs
    else:
        # blocks[i, :, og, :] is group i's block for group og; a ragged
        # last group's padding is empty.
        mat = sv.mat if n * g == p else np.pad(sv.mat, (0, n * g - p))
        blocks = mat.reshape(n, g, n, g)
        blob_rows = blocks.sum(axis=(1, 3))
        nz = (blocks != 0).sum(axis=(1, 3))
        blob_rows[gi, gi] = nz[gi, gi] = 0
        eng.blocks_at(leads, nz.sum(axis=1), blob_rows.sum(axis=1))
        blob_total = int(blob_rows.sum())
        del mat, blocks
    eng.total_messages += 2 * n * (n - 1)
    eng.total_bytes += 8 * pairs + blob_total

    # The leaders on one node are consecutive groups [lo, hi); a leader
    # alone on its node (always, on the flat machine) gets (0, 0).
    node = leads // m.ppn if m.ppn > 1 else gi
    lo = np.searchsorted(node, node, "left")
    hi = np.searchsorted(node, node, "right")
    near = np.where((hi - lo > 1)[:, None], np.stack([lo, hi], 1),
                    0).tolist()
    tx = [(o, o_intra, *ab) for o, o_intra, ab in zip(
        eng._o_send[leads].tolist(), eng._o_send_intra[leads].tolist(), near)]
    o_rx, o_rx_intra = eng._o_recv[leads], eng._o_recv_intra[leads]
    straggle = eng.straggle[leads]
    seq = np.empty(2 * n - 1, dtype=np.float64)

    @lru_cache(maxsize=1)
    def post_chain(first, o, o_intra, a, b):
        """Running sums of ``first`` then one leader's send overheads in
        posting order (header, blob per destination): the left-to-right
        additions of its ``+=`` chain.  ``[a, b)`` counts the leader, so
        among its destinations the neighbours are ``[a, b - 1)``."""
        seq[0] = first
        seq[1:] = o
        if b:
            seq[1 + 2 * a:2 * b - 1] = o_intra
        return np.add.accumulate(seq)

    @lru_cache(maxsize=1)
    def landing(gs, a, b, row):
        """What one source's receivers see, by receiving group (its own
        entry is unused): tier mask, ``o_recv``, and per message kind the
        bytes, head latency, serial and straggle-scaled serial time."""
        intra = (gi >= a) & (gi < b)
        kinds = []
        for nb in (8 * gs * gsize,
                   sv.const * gs * gsize if row is None else blob_rows[row]):
            serial = tm.serial_time_vec(m, nb, p, intra)
            kinds.append((nb, tm.head_latency_vec(m, nb, intra), serial,
                          serial * straggle))
        return intra, np.where(intra, o_rx_intra, o_rx), kinds

    start = eng.clocks[leads].tolist()
    c = np.array([post_chain(first, *tx[i])[-1]
                  for i, first in enumerate(start)])
    if mt is not None:
        mt.attr_overhead[leads] = [
            post_chain(first, *tx[i])[-1]
            for i, first in enumerate(mt.attr_overhead[leads].tolist())]
        eng.clocks[leads] = c       # the step log reads every lane
    arrive = np.zeros(n, dtype=np.float64)
    for og in range(n):
        posts = post_chain(start[og], *tx[og])[1:]
        intra, rx, kinds = landing(int(gsize[og]), *near[og],
                                   None if sv.is_const else og)
        if mt is not None or injector is not None:
            others = gi[gi != og]
            sel = leads[others]
        if injector is not None:
            posts = eng._delayed(
                leads[og], np.repeat(sel, 2),
                np.stack([nb[others] for nb, *_ in kinds], 1).ravel(),
                np.tile([tag, tag + 1], n - 1), posts)
        own = c[og]
        for k, (nb, head, serial, scaled) in enumerate(kinds):
            departs = posts[k::2]                 # by destination, no og
            c += rx
            np.add(departs[:og], head[:og], out=arrive[:og])
            np.add(departs[og:], head[og + 1:], out=arrive[og + 1:])
            if mt is not None:
                mt.attr_overhead[sel] += rx[others]
                eng.clocks[sel] = c[others]
                mt.on_subset_complete(
                    eng, sel, leads[og], tag + k, nb[others], departs,
                    arrive[others], serial[others], intra[others])
            np.maximum(c, arrive, out=c)
            c += scaled
            if mt is not None:
                eng.clocks[sel] = c[others]
                mt.on_step_end(eng, tag + k)
        c[og] = own                               # a leader skips itself
    eng.clocks[leads] = c


def _eval_locality_padded(eng: _Engine, sv: _SizeView, *,
                          tag_base: int = 0) -> None:
    """Node-aware padded Bruck (``core.nonuniform.locality``): on the
    flat machine this is exactly ``_eval_padded``; otherwise leaders and
    members run different programs (one lane per rank)."""
    p = eng.p
    if min(int(eng.machine.ppn), p) <= 1:
        return _eval_padded(eng, sv, vendor=False, tag_base=tag_base)
    if eng.L != p:
        raise ValueError(
            "locality evaluation requires one lane per rank")
    common = eng.common
    layout = _node_layout(eng, eng.machine.ppn)
    ppn, nn, leads, lsize, _, _ = layout
    K = common.num_steps(nn)
    t_up = tag_base
    t_step = tag_base + 1
    t_down = tag_base + 1 + K

    with eng.phase("padding"):
        eng.allreduce_rounds()
        max_n = sv.max()
        if max_n == 0:
            return
        eng.charge_copies(sv.row())

    with eng.phase("node_gather"):
        _gather_to_leaders(eng, layout, [(p * max_n, t_up)])

    super_n = ppn * ppn * max_n
    with eng.phase("inter_bruck"):
        # Super-block build: one hsize·N copy per (destination node h,
        # member) pair, P·N bytes per member.
        eng.blocks_at(leads, lsize * nn, lsize * p * max_n)
        eng.compute_at(leads, nn * ROT_INDEX_COST_PER_PROC)
        eng.const_copies_at(leads, super_n, 1)             # self super-block
        node_i = np.arange(nn, dtype=np.int64)
        for k in range(K):
            dist = common.send_block_distances(k, nn)
            if not dist:
                continue
            m = len(dist)
            dstL = ((node_i - (1 << k)) % nn) * ppn
            src_i = (node_i + (1 << k)) % nn
            srcL = src_i * ppn
            eng.const_copies_at(leads, super_n, m)
            D = eng.post_at(leads, dstL, m * super_n, t_step + k)
            eng.recv_from(leads, srcL, D[src_i], m * super_n, t_step + k)
            eng.const_copies_at(leads, super_n, m)

    with eng.phase("node_scatter"):
        # Every slot's padded blob is P copies of max_n; slot 0 keeps it.
        _scatter_from_leaders(
            eng, layout, p * max_n, t_down,
            lambda sel, mem, j: eng.const_copies_at(sel, max_n, p))

    with eng.phase("scan"):
        eng.charge_copies(sv.row(), axis=0)      # column r: rank r's recvs


def _eval_locality_two_phase(eng: _Engine, sv: _SizeView, *,
                             tag_base: int = 0) -> None:
    """Node-aware two-phase Bruck (``core.nonuniform.locality``)."""
    p = eng.p
    if min(int(eng.machine.ppn), p) <= 1:
        return _eval_two_phase(eng, sv, tag_base=tag_base)
    if eng.L != p:
        raise ValueError(
            "locality evaluation requires one lane per rank")
    common = eng.common
    layout = _node_layout(eng, eng.machine.ppn)
    ppn, nn, leads, lsize, _, members = layout
    K = common.num_steps(nn)
    t_up_c = tag_base
    t_up_d = tag_base + 1
    t_meta = tag_base + 2
    t_data = tag_base + 3
    t_down = tag_base + 2 + 2 * K
    S = (sv.mat if sv.mat is not None
         else np.full((p, p), sv.const, dtype=np.int64))

    with eng.phase("node_gather"):          # counts, then data
        _gather_to_leaders(eng, layout, [(8 * p, t_up_c),
                                         (S.sum(axis=1), t_up_d)])

    with eng.phase("setup"):
        eng.compute_at(leads, nn * ROT_INDEX_COST_PER_PROC)

    # Node-aggregated working sizes, exactly `cur` of _eval_two_phase
    # lifted to node granularity: curN[g, h] = current bytes of the
    # super-blob keyed h held at node g's leader.
    curN = np.add.reduceat(
        np.add.reduceat(S, leads, axis=0), leads, axis=1)
    # SEG[s, h]: bytes rank s sends into node h (one contiguous segment
    # of its packed row under the canonical layout).
    SEG = np.add.reduceat(S, leads, axis=1)
    member_rows = leads[:, None] + np.arange(ppn)[None, :]  # (nn, ppn)
    member_ok = np.arange(ppn)[None, :] < lsize[:, None]
    member_rows = np.where(member_ok, member_rows, 0)
    node_i = np.arange(nn, dtype=np.int64)
    for k in range(K):
        dist = common.send_block_distances(k, nn)
        if not dist:
            continue
        m = len(dist)
        d = np.asarray(dist, dtype=np.int64)
        keys = (node_i[:, None] - d[None, :]) % nn
        dstL = ((node_i - (1 << k)) % nn) * ppn
        src_i = (node_i + (1 << k)) % nn
        srcL = src_i * ppn
        with eng.phase("metadata_exchange"):
            Dm = eng.post_at(leads, dstL, 4 * ppn * ppn * m,
                             t_meta + 2 * k)
            eng.recv_from(leads, srcL, Dm[src_i], 4 * ppn * ppn * m,
                          t_meta + 2 * k)
        with eng.phase("data_exchange"):
            counts_out = np.take_along_axis(curN, keys, axis=1)
            # Pack charges, slot-ascending: a parked blob forwards as one
            # copy of its current total; a fresh one as one segment per
            # member (whether a super-blob has moved is a pure function
            # of its node distance and the step, identical on every
            # leader).
            pack = []
            for a in range(m):
                if common.block_moved_before(int(d[a]), k):
                    pack.append(counts_out[:, a:a + 1])
                else:
                    segs = SEG[member_rows, keys[:, a:a + 1]] * member_ok
                    pack.append(segs)
            eng.copies_at(leads, np.concatenate(pack, axis=1))
            out_total = counts_out.sum(axis=1)
            Dd = eng.post_at(leads, dstL, out_total, t_data + 2 * k)
            eng.recv_from(leads, srcL, Dd[src_i], out_total[src_i],
                          t_data + 2 * k)
            counts_in = counts_out[src_i]
            eng.copies_at(leads, counts_in)
            np.put_along_axis(curN, keys, counts_in, axis=1)

    def build(sel, mem, j):
        col = np.ascontiguousarray(S[:, mem].T)
        eng.copies_at(sel, col)                    # blob build
        if j == 0:
            eng.copies_at(sel, col)                # place own column

    with eng.phase("node_scatter"):
        _scatter_from_leaders(eng, layout, S.sum(axis=0), t_down, build)
        if members.size:
            eng.copies_at(members, np.ascontiguousarray(S[:, members].T))


# ======================================================================
# program specs
# ======================================================================

class TensorProgram:
    """A declarative SPMD program the tensor backend can evaluate.

    The tensor backend cannot run arbitrary rank functions (it never
    executes per-rank Python), so ``run_spmd(..., backend="tensor")``
    takes one of these spec objects instead.  A spec is *also* callable as
    a normal rank program — ``fn(comm)`` runs the real registered kernel —
    so the identical object drives the coop backend in
    equivalence tests.
    """

    kind: str = ""
    algorithm: str = ""

    def lockstep_ok(self, machine, nprocs: int) -> bool:
        """Whether one lane can stand for all ranks: requires an
        identical charge sequence on every rank, which on the hierarchical
        model additionally requires every pair to share one tier."""
        raise NotImplementedError

    def evaluate(self, eng: _Engine) -> None:
        raise NotImplementedError

    def __call__(self, comm) -> None:
        raise NotImplementedError


class TensorAlltoall(TensorProgram):
    """Uniform alltoall spec: ``algorithm`` over ``block_nbytes`` blocks."""

    kind = "uniform"

    _EVALS = {
        "basic_bruck": dict(sign=+1, use_dt=False, final_rotation=True),
        "basic_bruck_dt": dict(sign=+1, use_dt=True, final_rotation=True),
        "modified_bruck": dict(sign=-1, use_dt=False, final_rotation=False),
        "modified_bruck_dt": dict(sign=-1, use_dt=True,
                                  final_rotation=False),
    }

    def __init__(self, algorithm: str, block_nbytes: int, *,
                 radix: int = 2) -> None:
        from ..core.registry import get_algorithm
        algo = get_algorithm(algorithm, "uniform")  # KeyError if unknown
        if block_nbytes < 0:
            raise ValueError(
                f"block_nbytes must be >= 0, got {block_nbytes}")
        if radix != 2 and not algo.supports_radix:
            raise ValueError(
                f"algorithm {algorithm!r} does not support radix {radix}")
        self.algorithm = algorithm
        self.block_nbytes = int(block_nbytes)
        self.radix = int(radix)

    @property
    def max_block(self) -> int:
        """The workload's block size — the ledger/tuner N label."""
        return self.block_nbytes

    def lockstep_ok(self, machine, nprocs: int) -> bool:
        return machine.ppn <= 1 or machine.ppn >= nprocs

    def evaluate(self, eng: _Engine) -> None:
        n = self.block_nbytes
        if self.algorithm in self._EVALS:
            _eval_bruck(eng, n, radix=self.radix,
                        **self._EVALS[self.algorithm])
        elif self.algorithm == "zero_rotation_bruck":
            _eval_zero_rotation(eng, n, radix=self.radix)
        elif self.algorithm == "zero_copy_bruck_dt":
            _eval_zero_copy(eng, n)
        elif self.algorithm == "spread_out":
            _eval_spread_out(eng, n)
        elif self.algorithm == "vendor":
            _eval_vendor_alltoall(eng, n)
        else:  # pragma: no cover - registry and this table move together
            raise KeyError(
                f"no tensor evaluator for uniform algorithm "
                f"{self.algorithm!r}")

    def __call__(self, comm) -> None:
        from ..core.uniform import alltoall
        p = comm.size
        n = self.block_nbytes
        send = np.zeros(p * n, dtype=np.uint8)
        recv = np.zeros(p * n, dtype=np.uint8)
        alltoall(comm, send, recv, n, algorithm=self.algorithm,
                 radix=self.radix)

    def __repr__(self) -> str:
        extra = f", radix={self.radix}" if self.radix != 2 else ""
        return (f"TensorAlltoall({self.algorithm!r}, "
                f"block_nbytes={self.block_nbytes}{extra})")


class TensorAlltoallv(TensorProgram):
    """Non-uniform alltoallv spec.

    ``sizes`` is either one int (every pair exchanges that many bytes —
    the form that scales to 32K ranks, since no P×P matrix exists) or a
    ``(P, P)`` matrix with ``sizes[i, j]`` = bytes rank ``i`` sends to
    rank ``j``.
    """

    kind = "nonuniform"

    def __init__(self, algorithm: str, sizes,
                 group_size: int = 8, *, radix: int = 2) -> None:
        from ..core.registry import get_algorithm
        algo = get_algorithm(algorithm, "nonuniform")
        if radix != 2 and not algo.supports_radix:
            raise ValueError(
                f"algorithm {algorithm!r} does not support radix {radix}")
        if group_size < 1:      # the kernel's check, before any rank runs
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.algorithm = algorithm
        self.sizes = sizes
        self.group_size = int(group_size)
        self.radix = int(radix)

    @property
    def max_block(self) -> int:
        """The workload's max block size — the ledger/tuner N label."""
        if isinstance(self.sizes, (int, np.integer)):
            return int(self.sizes)
        return int(np.asarray(self.sizes).max(initial=0))

    def lockstep_ok(self, machine, nprocs: int) -> bool:
        if not isinstance(self.sizes, (int, np.integer)):
            return False
        if self.algorithm == "grouped":
            return False
        if machine.ppn > 1 and self.algorithm in _LOCALITY_ALGORITHMS:
            return False   # leader/member asymmetric once nodes exist
        return machine.ppn <= 1 or machine.ppn >= nprocs

    def evaluate(self, eng: _Engine) -> None:
        sv = _SizeView(self.sizes, eng.p)
        if self.algorithm == "padded_bruck":
            _eval_padded(eng, sv, vendor=False, radix=self.radix)
        elif self.algorithm == "padded_alltoall":
            _eval_padded(eng, sv, vendor=True)
        elif self.algorithm == "two_phase_bruck":
            _eval_two_phase(eng, sv, radix=self.radix)
        elif self.algorithm == "sloav":
            _eval_sloav(eng, sv)
        elif self.algorithm == "spread_out":
            _eval_spread_out_v(eng, sv)
        elif self.algorithm == "grouped":
            _eval_grouped(eng, sv, group_size=self.group_size)
        elif self.algorithm == "locality_padded_bruck":
            _eval_locality_padded(eng, sv)
        elif self.algorithm == "locality_two_phase_bruck":
            _eval_locality_two_phase(eng, sv)
        elif self.algorithm == "vendor":
            _eval_vendor_alltoallv(eng, sv)
        else:  # pragma: no cover - registry and this table move together
            raise KeyError(
                f"no tensor evaluator for nonuniform algorithm "
                f"{self.algorithm!r}")

    def size_matrix(self, p: int) -> np.ndarray:
        if isinstance(self.sizes, (int, np.integer)):
            return np.full((p, p), int(self.sizes), dtype=np.int64)
        return np.asarray(self.sizes, dtype=np.int64)

    def __call__(self, comm) -> None:
        from ..core.registry import get_algorithm
        from ..workloads import build_vargs
        mat = self.size_matrix(comm.size)
        args = build_vargs(comm.rank, mat)
        kwargs = ({"group_size": self.group_size}
                  if self.algorithm == "grouped" else {})
        algo = get_algorithm(self.algorithm, "nonuniform")
        if self.radix != 2:
            kwargs["radix"] = self.radix
        algo.fn(comm, *args.as_tuple(), **kwargs)

    def __repr__(self) -> str:
        shape = (self.sizes if isinstance(self.sizes, (int, np.integer))
                 else f"matrix{np.asarray(self.sizes).shape}")
        extra = f", radix={self.radix}" if self.radix != 2 else ""
        return f"TensorAlltoallv({self.algorithm!r}, sizes={shape}{extra})"


# ======================================================================
# the backend entry point
# ======================================================================

def run_tensor(fn, nprocs: int, config: ExecutionConfig, *,
               args: Sequence = (), rank_args=None):
    """Execute a :class:`TensorProgram` on the vectorized backend.

    Called by ``run_spmd`` when ``config.backend == "tensor"``.  Produces
    an :class:`~repro.simmpi.executor.SPMDResult` whose per-rank clocks
    and message/byte totals are bit-identical to the coop backend
    on the phantom wire.
    """
    from .executor import SPMDResult

    if not isinstance(fn, TensorProgram):
        raise ValueError(
            f"backend='tensor' requires a TensorProgram spec "
            f"(TensorAlltoall / TensorAlltoallv), got {fn!r}")
    if args or rank_args is not None:
        raise ValueError(
            "backend='tensor' does not support args/rank_args: the "
            "TensorProgram spec carries all inputs")
    if config.wire != "phantom":
        raise ValueError(
            "backend='tensor' requires wire='phantom' (it never "
            "materializes payload bytes)")
    if config.events_on:
        raise ValueError(
            "backend='tensor' does not record per-event traces; "
            "use trace=False or trace='metrics'")
    if config.reliability is not None:
        raise ValueError(
            "backend='tensor' does not support the reliability transport")
    if config.on_fault != "fail-fast":
        raise ValueError(
            f"backend='tensor' supports on_fault='fail-fast' only, "
            f"got {config.on_fault!r}")

    plan = config.fault_plan
    injector: Optional[FaultInjector] = None
    if plan is not None and not plan.empty:
        if plan.crashes:
            raise ValueError(
                "backend='tensor' does not support crash rules")
        unsupported = sorted({r.kind for r in plan.rules} - {"delay"})
        if unsupported:
            raise ValueError(
                f"backend='tensor' supports 'delay' fault rules and "
                f"stragglers only; plan has {unsupported}")
        injector = FaultInjector(plan, seed=config.fault_seed)

    lockstep = injector is None and fn.lockstep_ok(config.machine, nprocs)
    eng = _Engine(nprocs, config.machine, injector, lockstep)
    if config.metrics_on:
        eng.metrics = _TensorMetrics(eng.p, eng.L)
    fn.evaluate(eng)

    metrics = None
    attribution = None
    if eng.metrics is not None:
        metrics = eng.metrics.snapshot(eng)
        attribution = eng.metrics.attribution(eng)

    return SPMDResult(
        nprocs=nprocs,
        machine=config.machine,
        returns=[None] * nprocs,
        clocks=eng.final_clocks(),
        traces=None,
        total_messages=eng.total_messages,
        total_bytes=eng.total_bytes,
        metrics=metrics,
        wire=config.wire,
        config=config,
        raw_attribution=attribution,
    )

"""Counters/histograms registry for the simulated runtime.

The :class:`MetricsRegistry` is the aggregate observability channel of an
SPMD run: while :mod:`repro.simmpi.tracing` records *per-event* logs, the
registry keeps cheap running aggregates —

* message and byte totals, plus a power-of-two **message-size histogram**;
* per-link ``(src, dst)`` traffic and the **maximum number of in-flight
  messages** per link and globally (the congestion signal the paper's
  Fig. 8 sensitivity study reasons about);
* per-step (per-tag) message/byte/in-flight/queue-wait aggregates — the
  Bruck algorithms use one tag per exchange step, so this is the per-step
  congestion table;
* simulated **queue-wait** time: how long retired messages sat delivered
  in their channel before the receiver got to them, and how long receivers
  idled waiting for the wire.

Every aggregate is a pure function of *simulated* timestamps, never of
host scheduling.  A message is **in flight** over the simulated interval
``[depart, landing_start]`` — from the instant its first byte leaves the
sender (post-fault-injection departure) until the receiver begins landing
it (``landing_start = max(receiver clock, head arrival)``).  The maxima
are computed at snapshot time by a sweep over those intervals, with the
pinned tie-break that at equal timestamps a departure counts before a
landing (touching intervals overlap, so every message registers a depth
of at least one).  Because the simulated timestamps are bit-identical
across the coop and tensor backends and under every schedule, so are the
metrics — counting posts and deliveries as host events would make them
depend on the order in which ranks run.

Wait totals are accumulated per receiving rank (each rank appends its own
receives in program order) and combined at snapshot time
with :func:`math.fsum`, which is correctly rounded and therefore
independent of rank order.

The :class:`~repro.simmpi.network.Network` feeds the registry from
``post``; each rank's communicator feeds its per-receive records through
:meth:`MetricsRegistry.on_retire`.
When metrics are disabled the network holds ``None`` and pays a single
``is not None`` branch per message — near-zero overhead.

After a run the executor freezes the registry into a :class:`RunMetrics`
snapshot exposed as ``SPMDResult.metrics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RunMetrics",
    "max_overlap",
    "max_overlap_by_group",
]


class Counter:
    """A named monotonically-increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """Power-of-two bucketed histogram of non-negative integer samples.

    Bucket ``i >= 1`` holds samples in ``[2**(i-1) + 1, 2**i]``; bucket 0
    holds samples in ``[0, 1]``.  Powers of two match how message sizes
    cluster around the eager/rendezvous protocol tiers.
    """

    __slots__ = ("name", "_counts", "count", "total", "max_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.max_value = 0

    def add(self, value: int) -> None:
        bucket = int(value - 1).bit_length() if value > 0 else 0
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    def add_bucket_counts(self, counts: Sequence[int], total: int,
                          max_value: int, n: int) -> None:
        """Bulk-merge pre-bucketed samples (the tensor backend's path).

        ``counts[i]`` is the number of samples in bucket ``i`` — the same
        bucketing rule as :meth:`add` (``(v - 1).bit_length()``).
        """
        for b, c in enumerate(counts):
            if c:
                self._counts[b] = self._counts.get(b, 0) + int(c)
        self.count += int(n)
        self.total += int(total)
        if max_value > self.max_value:
            self.max_value = int(max_value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[int, int, int]]:
        """Sorted ``(low, high, count)`` rows for every non-empty bucket."""
        rows = []
        for b in sorted(self._counts):
            low = 0 if b == 0 else (1 << (b - 1)) + 1
            high = 1 if b == 0 else 1 << b
            rows.append((low, high, self._counts[b]))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count}, sum={self.total})"


def max_overlap(starts: np.ndarray, ends: np.ndarray,
                weights: Optional[np.ndarray] = None) -> int:
    """Maximum number of simultaneously-open ``[start, end]`` intervals.

    Tie-break: at equal timestamps an interval *opening* is processed
    before an interval *closing*, so touching intervals overlap and every
    non-empty input yields at least ``min(weights)``.  ``weights`` lets a
    single interval stand for many identical messages (the tensor
    backend's lockstep pattern events).
    """
    n = len(starts)
    if n == 0:
        return 0
    if weights is None:
        deltas = np.ones(2 * n, dtype=np.int64)
        deltas[n:] = -1
    else:
        w = np.asarray(weights, dtype=np.int64)
        deltas = np.concatenate([w, -w])
    times = np.concatenate([np.asarray(starts, dtype=np.float64),
                            np.asarray(ends, dtype=np.float64)])
    closing = np.zeros(2 * n, dtype=np.int8)
    closing[n:] = 1
    order = np.lexsort((closing, times))
    return int(np.cumsum(deltas[order]).max())


def max_overlap_by_group(gids: np.ndarray, starts: np.ndarray,
                         ends: np.ndarray,
                         weights: Optional[np.ndarray] = None,
                         ) -> Dict[int, int]:
    """:func:`max_overlap` computed independently per integer group id.

    Returns ``{gid: max_overlap}`` for every group present.  One sort over
    all events; within each group the running depth is the global running
    sum minus the sum at the group's boundary.
    """
    n = len(starts)
    if n == 0:
        return {}
    gids = np.asarray(gids, dtype=np.int64)
    if weights is None:
        deltas = np.ones(2 * n, dtype=np.int64)
        deltas[n:] = -1
    else:
        w = np.asarray(weights, dtype=np.int64)
        deltas = np.concatenate([w, -w])
    times = np.concatenate([np.asarray(starts, dtype=np.float64),
                            np.asarray(ends, dtype=np.float64)])
    closing = np.zeros(2 * n, dtype=np.int8)
    closing[n:] = 1
    g2 = np.concatenate([gids, gids])
    order = np.lexsort((closing, times, g2))
    g_sorted = g2[order]
    cum = np.cumsum(deltas[order])
    bounds = np.flatnonzero(np.r_[True, g_sorted[1:] != g_sorted[:-1]])
    base = np.zeros(len(bounds), dtype=np.int64)
    base[1:] = cum[bounds[1:] - 1]
    lengths = np.diff(np.r_[bounds, len(cum)])
    depth = cum - np.repeat(base, lengths)
    gmax = np.maximum.reduceat(depth, bounds)
    return {int(g): int(m) for g, m in zip(g_sorted[bounds], gmax)}


class MetricsRegistry:
    """Live aggregates of one SPMD run.

    Exactly one rank runs at any instant, so no hook takes a lock:
    :meth:`on_post` and :meth:`on_fault` run on the network's post path,
    :meth:`on_retire` on the receiving rank, which only touches its own
    per-rank stores.
    """

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self.messages = Counter("messages")
        self.wire_bytes = Counter("wire_bytes")
        self.message_sizes = Histogram("message_nbytes")
        #: Per-link / per-step byte+message totals (in-flight maxima are
        #: derived from the flight intervals at snapshot time).
        self.per_link: Dict[Tuple[int, int], List[int]] = {}
        self.per_step: Dict[int, List[int]] = {}
        # Per-receiving-rank stores: each rank appends only to its own
        # slot, in program order, so no lock is needed and totals are
        # deterministic.
        self._flights: List[List[Tuple[int, int, int, float, float]]] = [
            [] for _ in range(nprocs)]
        self._qw_total = [0.0] * nprocs
        self._qw_max = [0.0] * nprocs
        self._rw_total = [0.0] * nprocs
        self._rw_max = [0.0] * nprocs
        self._step_qw_max: List[Dict[int, float]] = [
            {} for _ in range(nprocs)]
        #: Injected-fault aggregates (chaos runs): counts per fault kind
        #: and, per posting rank, the simulated delay added to departures.
        self.fault_counts: Dict[str, int] = {}
        self._delay_by_rank = [0.0] * nprocs

    # -- network-side hook ------------------------------------------------
    def on_post(self, src: int, dst: int, tag: int, nbytes: int) -> None:
        """One message entered its channel."""
        self.messages.add()
        self.wire_bytes.add(nbytes)
        self.message_sizes.add(nbytes)
        link = self.per_link.get((src, dst))
        if link is None:
            link = self.per_link[(src, dst)] = [0, 0]
        link[0] += 1
        link[1] += nbytes
        step = self.per_step.get(tag)
        if step is None:
            step = self.per_step[tag] = [0, 0]
        step[0] += 1
        step[1] += nbytes

    # -- fault-engine hook (network post path or the receiving rank) -----
    def on_fault(self, kind: str, delay: float = 0.0,
                 rank: Optional[int] = None) -> None:
        """Count one injected fault / reliability action.

        ``rank`` is the posting rank whose message the delay was added to;
        per-rank delay accumulation keeps ``injected_delay_total``
        independent of host scheduling (each rank's faults occur in its
        own program order; :func:`math.fsum` combines ranks at snapshot).
        """
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if delay:
            self._delay_by_rank[rank if rank is not None else 0] += delay

    # -- communicator-side hook (called by the receiving rank) ----------
    def on_retire(self, src: int, dst: int, tag: int,
                  depart: float, head: float, clock: float) -> None:
        """Account one completed receive on rank ``dst``.

        ``depart`` is the message's simulated departure (post-fault),
        ``head`` the simulated arrival of its first byte, and ``clock``
        the receiver's simulated clock when it retired the message.  The
        wait decomposition — ``queue_wait = max(0, clock - head)`` (the
        message sat arrived-but-unretired) versus ``recv_wait = max(0,
        head - clock)`` (the receiver idled for the wire); exactly one is
        non-zero — and the flight interval ``[depart, max(clock, head)]``
        are derived here.  Only rank ``dst`` touches rank ``dst``'s slots.
        """
        queue_wait = max(0.0, clock - head)
        recv_wait = max(0.0, head - clock)
        self._qw_total[dst] += queue_wait
        if queue_wait > self._qw_max[dst]:
            self._qw_max[dst] = queue_wait
        self._rw_total[dst] += recv_wait
        if recv_wait > self._rw_max[dst]:
            self._rw_max[dst] = recv_wait
        step_max = self._step_qw_max[dst]
        if queue_wait > step_max.get(tag, 0.0):
            step_max[tag] = queue_wait
        landing = clock if clock > head else head
        self._flights[dst].append((src, dst, tag, depart, landing))

    # -- snapshot ---------------------------------------------------------
    def snapshot(self, phase_times: Optional[Dict[str, float]] = None,
                 collective_times: Optional[Dict[str, float]] = None,
                 ) -> "RunMetrics":
        """Freeze the registry into an immutable-by-convention snapshot."""
        events = [ev for per_rank in self._flights for ev in per_rank]
        p = self.nprocs
        if events:
            arr = np.asarray(events, dtype=np.float64)
            srcs = arr[:, 0].astype(np.int64)
            dsts = arr[:, 1].astype(np.int64)
            tags = arr[:, 2].astype(np.int64)
            starts = arr[:, 3]
            ends = arr[:, 4]
            global_max = max_overlap(starts, ends)
            link_max = max_overlap_by_group(srcs * p + dsts, starts, ends)
            step_max = max_overlap_by_group(tags, starts, ends)
        else:
            global_max = 0
            link_max = {}
            step_max = {}
        per_link = {
            (src, dst): (m, b, link_max.get(src * p + dst, 0))
            for (src, dst), (m, b) in self.per_link.items()
        }
        step_qw: Dict[int, float] = {}
        for per_rank in self._step_qw_max:
            for tag, qw in per_rank.items():
                if qw > step_qw.get(tag, 0.0):
                    step_qw[tag] = qw
        per_step = {
            tag: (m, b, step_max.get(tag, 0), step_qw.get(tag, 0.0))
            for tag, (m, b) in self.per_step.items()
        }
        return RunMetrics(
            nprocs=self.nprocs,
            total_messages=self.messages.value,
            total_bytes=self.wire_bytes.value,
            message_size_buckets=self.message_sizes.buckets(),
            max_message_nbytes=self.message_sizes.max_value,
            max_in_flight=global_max,
            per_link=per_link,
            per_step=per_step,
            queue_wait_total=math.fsum(self._qw_total),
            queue_wait_max=max(self._qw_max),
            recv_wait_total=math.fsum(self._rw_total),
            recv_wait_max=max(self._rw_max),
            phase_times=dict(phase_times or {}),
            collective_times=dict(collective_times or {}),
            fault_counts=dict(self.fault_counts),
            injected_delay_total=math.fsum(self._delay_by_rank),
        )


@dataclass
class RunMetrics:
    """Frozen aggregates of one SPMD run (``SPMDResult.metrics``).

    ``per_link`` values are ``(messages, nbytes, max_in_flight)`` tuples;
    ``per_step`` values are ``(messages, nbytes, max_in_flight,
    queue_wait_max)``; ``phase_times`` is the max-over-ranks table (the
    bulk-synchronous bound: everyone waits for the slowest rank).  All
    fields are pure functions of simulated time, so snapshots are
    bit-identical across backends and host schedules.
    """

    nprocs: int
    total_messages: int
    total_bytes: int
    message_size_buckets: List[Tuple[int, int, int]]
    max_message_nbytes: int
    max_in_flight: int
    per_link: Dict[Tuple[int, int], Tuple[int, int, int]]
    per_step: Dict[int, Tuple[int, int, int, float]]
    queue_wait_total: float
    queue_wait_max: float
    recv_wait_total: float
    recv_wait_max: float
    phase_times: Dict[str, float] = field(default_factory=dict)
    collective_times: Dict[str, float] = field(default_factory=dict)
    #: Injected-fault counts per kind (empty for clean-fabric runs) and
    #: the total simulated delay the fault engine added to departures.
    fault_counts: Dict[str, int] = field(default_factory=dict)
    injected_delay_total: float = 0.0

    @property
    def total_faults(self) -> int:
        """Total injected faults / reliability actions of every kind."""
        return sum(self.fault_counts.values())

    @property
    def max_in_flight_per_link(self) -> int:
        """Largest concurrent queue depth observed on any single link."""
        if not self.per_link:
            return 0
        return max(stats[2] for stats in self.per_link.values())

    def busiest_links(self, limit: int = 5) -> List[Tuple[Tuple[int, int],
                                                          Tuple[int, int, int]]]:
        """The ``limit`` links carrying the most bytes, descending.

        Deterministic tie-break: links are ranked by ``(-nbytes, (src,
        dst))`` — equal-byte links appear in ascending ``(src, dst)``
        order, so the table is stable across runs and backends.
        """
        ranked = sorted(self.per_link.items(),
                        key=lambda kv: (-kv[1][1], kv[0]))
        return ranked[:limit]

    def step_table(self) -> List[Tuple[int, int, int, int, float]]:
        """Per-step rows ``(tag, messages, nbytes, max_in_flight,
        queue_wait_max)``, ordered by tag (the algorithms' step order)."""
        return [(tag,) + self.per_step[tag] for tag in sorted(self.per_step)]

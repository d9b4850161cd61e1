"""Critical-path extraction and makespan attribution for SPMD runs.

Two questions matter when a simulated all-to-all is slower than the
model says it should be: *which chain of messages actually bounded the
makespan* (the critical path through the happens-before DAG), and *what
each rank's clock was spent on* (attribution).  This module answers both
from data the run already recorded:

* With **event traces** (``trace=True`` / ``"events"``) the message DAG
  is explicit: the i-th receive on a ``(src, dst, tag)`` channel
  happens-after the i-th send on it (per-channel FIFO delivery).
  :func:`analyze` walks that DAG backwards from the slowest rank's final
  event, hopping to the sender whenever a landing was bound by arrival
  rather than by local readiness.
* On the **tensor backend** (``trace="metrics"``) there are no per-event
  traces; the lane engine instead logs one coarse record per
  communication step and exact per-rank bucket sums, which yield a
  step-granular path and the same attribution table.

Attribution buckets per rank (they sum *exactly* to the rank's final
clock — see :func:`_exact_residual`):

``overhead``
    CPU injection/reception charges (``o_send``/``o_recv``, with the
    straggler multiplier folded in).
``transmit``
    Uncongested serialization — ``serial_time(n, 1)`` per received
    message: the time the bytes would need on an idle fabric.
``congestion``
    The concurrency surcharge ``serial_time(n, P) - serial_time(n, 1)``
    the machine model levies on each landing.
``fault_delay``
    The straggler multiplier's surcharge on serialization.  Injected
    departure *delays* are reported separately
    (:attr:`CriticalPathResult.injected_delay`): a delayed departure
    costs the receiver waiting time, so its clock effect already shows
    up in ``queue_wait`` — charging it here as well would double-count.
``queue_wait``
    Idle time waiting for messages to arrive.
``compute``
    Everything else — copies, datatype packing, and explicit compute
    charges — obtained as the exact residual of the other buckets
    against the rank's clock, so the decomposition is conserving by
    construction.

The event-trace decomposition derives ``queue_wait`` from timeline gaps
(idle = clock minus the union of evented busy intervals minus the
un-evented ``o_recv`` charges), so tiny explicit compute charges that
fall inside a pre-landing gap can be counted as waiting; the tensor
path records every bucket directly in the engine and has no such
smearing.  Both decompositions are exact in *sum* on every rank.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .tracing import RecvEvent, SendEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .executor import SPMDResult

__all__ = ["BUCKETS", "PathSegment", "RankAttribution",
           "CriticalPathResult", "analyze"]

#: Attribution bucket names, in report order.
BUCKETS = ("compute", "overhead", "transmit", "congestion", "queue_wait",
           "fault_delay")

#: Relative tolerance for "was this landing bound by arrival or by local
#: readiness" comparisons on the event-trace walk.  Purely a tie-break
#: for float-equal timestamps; never used in the attribution arithmetic.
_EPS = 1e-12


@dataclass(frozen=True)
class PathSegment:
    """One hop of the critical path: an interval on one rank's clock."""

    rank: int
    kind: str       # "send" | "recv" | "copy" | "datatype" | "step" | "local"
    start: float
    end: float
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class RankAttribution:
    """One rank's makespan, decomposed into the six buckets.

    ``compute + overhead + transmit + congestion + queue_wait +
    fault_delay == makespan`` exactly (``math.fsum``, not approximately).
    """

    rank: int
    makespan: float
    compute: float
    overhead: float
    transmit: float
    congestion: float
    queue_wait: float
    fault_delay: float

    def buckets(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in BUCKETS}

    def total(self) -> float:
        """Exact sum of the buckets — equals :attr:`makespan`."""
        return math.fsum(getattr(self, name) for name in BUCKETS)


@dataclass
class CriticalPathResult:
    """Outcome of :func:`analyze`: the path plus per-rank attribution."""

    nprocs: int
    #: The run's simulated makespan; equals ``path[-1].end`` exactly.
    elapsed: float
    per_rank: List[RankAttribution]
    #: Chronological happens-before chain ending at ``elapsed``.
    path: List[PathSegment]
    #: "events" (trace-DAG walk) or "steps" (tensor coarse step log).
    granularity: str = "events"
    #: Total injected departure delay (informational; see module docs).
    injected_delay: float = 0.0

    def bucket_totals(self) -> Dict[str, float]:
        """Per-bucket sums over all ranks (``math.fsum``)."""
        return {name: math.fsum(getattr(a, name) for a in self.per_rank)
                for name in BUCKETS}

    def slowest(self) -> RankAttribution:
        return max(self.per_rank, key=lambda a: (a.makespan, -a.rank))

    def path_ranks(self) -> List[int]:
        """Distinct ranks on the path, in order of first appearance."""
        seen: List[int] = []
        for seg in self.path:
            if seg.rank not in seen:
                seen.append(seg.rank)
        return seen

    def format(self, limit: int = 12) -> str:
        """Human-readable attribution + path report."""
        lines: List[str] = []
        slow = self.slowest()
        lines.append(
            f"critical path: {len(self.path)} segment(s) across "
            f"{len(self.path_ranks())} rank(s), ending on rank "
            f"{slow.rank} at {self.elapsed * 1e3:.4f} ms "
            f"({self.granularity} granularity)")
        totals = self.bucket_totals()
        denom = math.fsum(totals.values()) or 1.0
        lines.append("makespan attribution (summed over ranks, ms):")
        width = max(len(n) for n in BUCKETS)
        for name in BUCKETS:
            t = totals[name]
            lines.append(f"  {name:>{width}}: {t * 1e3:12.4f}  "
                         f"({100.0 * t / denom:5.1f}%)")
        if self.injected_delay:
            lines.append(
                f"  (+ {self.injected_delay * 1e3:.4f} ms injected "
                f"departure delay, surfacing as queue_wait downstream)")
        lines.append(f"slowest rank {slow.rank} breakdown (ms): " + ", ".join(
            f"{name}={getattr(slow, name) * 1e3:.4f}" for name in BUCKETS))
        shown = self.path if len(self.path) <= limit else self.path[-limit:]
        if shown is not self.path:
            lines.append(f"  ({len(self.path) - limit} earlier path "
                         f"segments elided)")
        for seg in shown:
            lines.append(
                f"  rank {seg.rank:>5} {seg.kind:>9} "
                f"[{seg.start * 1e3:12.4f}, {seg.end * 1e3:12.4f}] ms"
                + (f"  {seg.detail}" if seg.detail else ""))
        return "\n".join(lines)


def _exact_residual(makespan: float, parts: List[float]) -> float:
    """The float ``c`` with ``fsum(parts + [c]) == makespan`` exactly.

    Iterative refinement: each step adds the exact remaining defect
    (``fsum`` is correctly rounded), which shrinks below one ulp within a
    few iterations.  ``c += d`` itself rounds, so the loop can oscillate
    between two neighbours one ulp apart; the tail walks ``c`` ulp by
    ulp to close the last bit (``fsum(parts + [c])`` is monotone in
    ``c``, and ``|c| <= |makespan|`` guarantees a representable hit).
    """
    c = makespan - math.fsum(parts)
    for _ in range(64):
        d = makespan - math.fsum(parts + [c])
        if d == 0.0:
            return c
        c += d
    for _ in range(8):
        d = makespan - math.fsum(parts + [c])
        if d == 0.0:
            break
        c = math.nextafter(c, math.inf if d > 0.0 else -math.inf)
    return c


def _close_buckets(makespan: float, overhead: float, transmit: float,
                   congestion: float, queue_wait: float,
                   fault_delay: float) -> Tuple[float, float]:
    """``(compute, queue_wait)`` closing the decomposition exactly.

    ``compute`` is the exact residual of the other five buckets against
    the makespan.  When float dust drives it a hair negative (the gap
    analysis and the bucket charges round independently), the dust is
    folded into ``queue_wait`` instead so every reported bucket stays
    non-negative while the sum stays exact.
    """
    parts = [overhead, transmit, congestion, queue_wait, fault_delay]
    compute = _exact_residual(makespan, parts)
    if compute < 0.0:
        queue_wait = _exact_residual(
            makespan, [overhead, transmit, congestion, fault_delay])
        compute = 0.0
    return compute, queue_wait


def analyze(result: "SPMDResult") -> CriticalPathResult:
    """Extract the critical path and attribution for one SPMD run."""
    if result.traces is not None:
        return _from_events(result)
    if result.raw_attribution is not None:
        return _from_tensor(result)
    raise ValueError(
        "critical-path analysis needs event traces (trace=True or "
        "trace='events') or tensor-backend metrics (backend='tensor' "
        "with trace='metrics'); this run recorded neither")


# ----------------------------------------------------------------------
# event-trace mode (coop backend)
# ----------------------------------------------------------------------

def _straggle_factors(result: "SPMDResult") -> List[float]:
    cfg = result.config
    plan = cfg.fault_plan if cfg is not None else None
    if plan is None:
        return [1.0] * result.nprocs
    return [plan.straggle_factor(r) for r in range(result.nprocs)]


def _seq_sum(values: np.ndarray) -> float:
    """Left-to-right float sum: the adds of a ``total += v`` loop, in that
    order (``np.sum`` is pairwise and rounds differently)."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _busy_columns(tr) -> Tuple[np.ndarray, np.ndarray]:
    """``(start, end)`` of one rank's clock-advancing events, program order
    within sends, then receives, then copies, then datatype ops."""
    _, copy_start, copy_end = tr.copy_columns()
    before, after = tr.sends + tr.recvs, tr.datatype_ops
    return (np.concatenate(([e.start for e in before], copy_start,
                            [e.start for e in after])),
            np.concatenate(([e.end for e in before], copy_end,
                            [e.end for e in after])))


def _busy_length(start: np.ndarray, end: np.ndarray) -> float:
    """Total length of the union of the ``[start, end]`` intervals.

    In ``(start, end)`` order a merged interval opens wherever a start
    exceeds every end before it.  The merged lengths are folded left to
    right (:func:`_seq_sum`): ``queue_wait`` is derived from this sum and
    must not move by an ulp with how the intervals are stored.
    """
    if start.size == 0:
        return 0.0
    order = np.lexsort((end, start))
    s, reach = start[order], np.maximum.accumulate(end[order])
    opens = np.flatnonzero(s[1:] > reach[:-1]) + 1
    first = np.concatenate(([0], opens))
    last = np.concatenate((opens - 1, [s.size - 1]))
    return _seq_sum(reach[last] - s[first])


def _from_events(result: "SPMDResult") -> CriticalPathResult:
    # Deferred: repro.timing's package __init__ reads repro.simmpi.
    from ..timing.engine import serial_time_vec
    machine = result.machine
    p = result.nprocs
    straggle = _straggle_factors(result)
    injected = 0.0
    per_rank: List[RankAttribution] = []
    n_busy = 0

    for rank, tr in enumerate(result.traces):
        injected += math.fsum(e.detail and _parse_delay(e.detail) or 0.0
                              for e in tr.faults if e.kind == "delay")
        makespan = result.clocks[rank]
        s = straggle[rank]
        start, end = _busy_columns(tr)
        n_busy += start.size
        # Per-receive charges, evaluated over the rank's receive columns
        # and summed in program order.
        recvs = slice(len(tr.sends), len(tr.sends) + len(tr.recvs))
        src, dst, nbytes = np.array(
            [(e.src, e.dst, e.nbytes) for e in tr.recvs],
            dtype=np.int64).reshape(-1, 3).T
        # is_intra is plain integer arithmetic, so it maps over columns.
        intra = np.broadcast_to(machine.is_intra(src, dst), nbytes.shape)
        o_recv_total = _seq_sum(
            np.where(intra, machine.o_recv_intra, machine.o_recv) * s)
        serial = serial_time_vec(machine, nbytes, p, intra)
        uncong = serial_time_vec(machine, nbytes, 1, intra)
        transmit = _seq_sum(uncong)
        congestion = _seq_sum(serial - uncong)
        # On a clean rank duration == serial exactly; only straggler
        # ranks pay a serialization surcharge (the difference would
        # otherwise accumulate float dust).
        fault_delay = 0.0 if s == 1.0 else _seq_sum(
            (end[recvs] - start[recvs]) - serial)
        overhead = math.fsum(e.duration for e in tr.sends) + o_recv_total
        # Idle time = clock minus the union of evented busy intervals;
        # the un-evented o_recv charges live in those gaps too.
        queue_wait = max(0.0, makespan - _busy_length(start, end)
                         - o_recv_total)
        compute, queue_wait = _close_buckets(
            makespan, overhead, transmit, congestion, queue_wait,
            fault_delay)
        per_rank.append(RankAttribution(
            rank=rank, makespan=makespan, compute=compute,
            overhead=overhead, transmit=transmit, congestion=congestion,
            queue_wait=queue_wait, fault_delay=fault_delay))

    path = _walk_event_dag(result, guard=n_busy + p + 1)
    return CriticalPathResult(nprocs=p, elapsed=result.elapsed,
                              per_rank=per_rank, path=path,
                              granularity="events",
                              injected_delay=injected)


def _parse_delay(detail: str) -> float:
    """Injected delay from a FaultEvent detail like ``"+3.2e-05s"``."""
    try:
        return float(detail.lstrip("+").rstrip("s"))
    except ValueError:
        return 0.0


class _Timeline:
    """One rank's busy events in stable ``(end, start)`` order (ties keep
    the :func:`_busy_columns` order), as plain lists to ``bisect`` and
    index.  Built only for the ranks the walk visits."""

    def __init__(self, tr) -> None:
        start, end = _busy_columns(tr)
        order = np.lexsort((start, end))
        self.starts: List[float] = start[order].tolist()
        self.ends: List[float] = end[order].tolist()
        # A typed event per position, or a copy's byte count.
        items = [*tr.sends, *tr.recvs, *tr.copy_columns()[0].tolist(),
                 *tr.datatype_ops]
        self.items = [items[i] for i in order.tolist()]
        self._trace = tr

    def latest(self, t: float) -> int:
        """Position of the latest event with ``end <= t`` (tolerating
        float dust above), or -1."""
        return bisect_right(self.ends, t + _EPS * max(1.0, t)) - 1

    @cached_property
    def recv_seq(self) -> Dict[int, int]:
        """``id(receive)`` -> its index on its ``(src, dst, tag)`` channel,
        in program order (the network delivers each channel FIFO)."""
        seen: Dict[Tuple[int, int, int], int] = {}
        table: Dict[int, int] = {}
        for e in self._trace.recvs:
            chan = (e.src, e.dst, e.tag)
            table[id(e)] = seen[chan] = seen.get(chan, -1) + 1
        return table

    @cached_property
    def sends_on(self) -> Dict[Tuple[int, int, int], List[SendEvent]]:
        """This rank's sends per ``(src, dst, tag)`` channel, in order."""
        table: Dict[Tuple[int, int, int], List[SendEvent]] = {}
        for e in self._trace.sends:
            table.setdefault((e.src, e.dst, e.tag), []).append(e)
        return table


def _segment(rank: int, ev, start: float, end: float) -> PathSegment:
    """The path segment of one :class:`_Timeline` item."""
    if isinstance(ev, SendEvent):
        kind, detail = "send", f"-> {ev.dst} tag={ev.tag} {ev.nbytes}B"
    elif isinstance(ev, RecvEvent):
        kind, detail = "recv", f"<- {ev.src} tag={ev.tag} {ev.nbytes}B"
    elif isinstance(ev, int):
        kind, detail = "copy", f"{ev}B"
    else:
        kind, detail = "datatype", f"{ev.nbytes}B"
    return PathSegment(rank, kind, start, end, detail)


def _walk_event_dag(result: "SPMDResult", guard: int) -> List[PathSegment]:
    """Backward walk from the slowest rank's final clock.

    At each step, the latest event ending at (or before) the cursor is
    the binding constraint.  A receive whose landing began *after* the
    rank's previous activity ended was arrival-bound: the walk hops to
    the matching send on the source rank (the i-th receive on a channel
    matches the i-th send — per-channel FIFO).  Everything else is
    locally bound and the walk steps to the event's start.
    """
    timelines: Dict[int, _Timeline] = {}

    def timeline(r: int) -> _Timeline:
        if r not in timelines:
            timelines[r] = _Timeline(result.traces[r])
        return timelines[r]

    rank = max(range(result.nprocs), key=lambda r: (result.clocks[r], -r))
    t = result.clocks[rank]
    segments: List[PathSegment] = []
    tl = timeline(rank)
    if t > 0.0 and (not tl.ends or tl.ends[-1] < t):
        # The final charge was un-evented (o_recv / compute): close the
        # gap so the path provably ends at the run's makespan.
        start = tl.ends[-1] if tl.ends else 0.0
        segments.append(PathSegment(rank, "local", start, t))
        t = start
    for _ in range(guard):
        if t <= 0.0:
            break
        pos = tl.latest(t)
        if pos < 0:
            segments.append(PathSegment(rank, "local", 0.0, t))
            break
        ev, start, end = tl.items[pos], tl.starts[pos], tl.ends[pos]
        if end < t - _EPS * max(1.0, t):
            # Gap between the cursor and the last event: un-evented
            # charges (o_recv, explicit compute) on this rank.
            segments.append(PathSegment(rank, "local", end, t))
        segments.append(_segment(rank, ev, start, end))
        t = start
        if isinstance(ev, RecvEvent):
            prev = tl.latest(start)
            prev_end = tl.ends[prev] if prev >= 0 else 0.0
            if start > prev_end + _EPS * max(1.0, start):
                # Arrival-bound landing: hop to the matching send.
                sends = timeline(ev.src).sends_on.get(
                    (ev.src, ev.dst, ev.tag), [])
                seq = tl.recv_seq[id(ev)]
                if seq < len(sends):
                    rank, t, tl = ev.src, sends[seq].end, timeline(ev.src)
    segments.reverse()
    return segments


# ----------------------------------------------------------------------
# tensor-backend mode (coarse step log)
# ----------------------------------------------------------------------

def _from_tensor(result: "SPMDResult") -> CriticalPathResult:
    raw = result.raw_attribution
    p = result.nprocs
    per_rank: List[RankAttribution] = []
    for rank in range(p):
        makespan = result.clocks[rank]
        parts = [raw["overhead"][rank], raw["transmit"][rank],
                 raw["congestion"][rank], raw["queue_wait"][rank],
                 raw["fault_delay"][rank]]
        compute, queue_wait = _close_buckets(makespan, parts[0], parts[1],
                                             parts[2], parts[3], parts[4])
        per_rank.append(RankAttribution(
            rank=rank, makespan=makespan, compute=compute,
            overhead=parts[0], transmit=parts[1], congestion=parts[2],
            queue_wait=queue_wait, fault_delay=parts[4]))

    path: List[PathSegment] = []
    prev_end = 0.0
    for tag, phase, end, rank in raw.get("step_log", ()):
        if end < prev_end:
            continue  # lane subsets can finish out of global order
        detail = f"tag={tag}" + (f" phase={phase}" if phase else "")
        path.append(PathSegment(rank, "step", prev_end, end, detail))
        prev_end = end
    elapsed = result.elapsed
    if elapsed > prev_end or not path:
        tail_rank = max(range(p), key=lambda r: (result.clocks[r], -r))
        path.append(PathSegment(tail_rank, "local", prev_end, elapsed))
    return CriticalPathResult(
        nprocs=p, elapsed=elapsed, per_rank=per_rank, path=path,
        granularity="steps",
        injected_delay=math.fsum(raw.get("injected_delay", ())))

"""Structured event tracing for the simulated MPI runtime.

Every communicator owns a tracer implementing :class:`TraceBase`.  The
default :class:`RankTrace` records the structural events of an algorithm
run as **typed events** — messages sent/received (with sizes, simulated
timestamps, and durations), local copies, datatype pack/unpack operations,
named phases (e.g. ``"initial rotation"`` / ``"comm"`` / ``"final
rotation"``, which the paper's Fig. 2b breaks down), and collective
invocations.

Traces serve four purposes in this repository:

1. **Cross-validation** — tests assert each kernel's message sequence
   (:meth:`RankTrace.messages`) against its substep pattern.
2. **Phase breakdowns** — the Fig. 2b benchmark reports per-phase times
   straight from phase events.
3. **Timeline export** — :mod:`repro.simmpi.trace_export` renders traces
   to the Chrome ``chrome://tracing`` / Perfetto JSON format.
4. **Debugging** — a mis-routed block shows up immediately as an
   unexpected ``(src, dst, tag, nbytes)`` tuple.

Every event carries its simulated ``start`` and ``end`` timestamps (and a
derived ``duration``), so exporters can draw slices without re-deriving
cost-model internals.  Events are deterministic: simulated clocks depend
only on the communication structure, never on OS scheduling.

Copies are the one kind :class:`RankTrace` stores as columns rather than
objects (DESIGN.md 5.1.1); a ``charge_copies`` batch is one copy event
carrying its block count and byte total.

The tracer API is the abstract base :class:`TraceBase`; besides
:class:`RankTrace` the runtime ships :class:`NullTrace` (tracing disabled)
and :class:`MetricsTrace` (aggregate counters only, no per-event storage —
used by ``run_spmd(..., trace="metrics")``).  Third-party tracers plug in
by subclassing :class:`TraceBase`.
"""

from __future__ import annotations

import abc
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "SendEvent",
    "RecvEvent",
    "CopyEvent",
    "DatatypeEvent",
    "PhaseEvent",
    "CollectiveEvent",
    "FaultEvent",
    "TraceBase",
    "RankTrace",
    "NullTrace",
    "MetricsTrace",
]


@dataclass(frozen=True)
class SendEvent:
    """One message leaving this rank."""

    src: int
    dst: int
    tag: int
    nbytes: int
    depart: float  # simulated clock at which the message entered the wire
    begin: Optional[float] = None  # clock when the send was posted

    @property
    def start(self) -> float:
        """Simulated clock when the send was posted (injection start)."""
        return self.depart if self.begin is None else self.begin

    @property
    def end(self) -> float:
        return self.depart

    @property
    def duration(self) -> float:
        """Injection overhead charged to the sender (``o_send``)."""
        return self.end - self.start


@dataclass(frozen=True)
class RecvEvent:
    """One message retired by this rank."""

    src: int
    dst: int
    tag: int
    nbytes: int
    complete: float  # simulated clock after the receive completed
    begin: Optional[float] = None  # clock when the transfer started landing

    @property
    def start(self) -> float:
        """Simulated clock at which the message started landing."""
        return self.complete if self.begin is None else self.begin

    @property
    def end(self) -> float:
        return self.complete

    @property
    def duration(self) -> float:
        """Receiver occupancy while landing the payload (serial time)."""
        return self.end - self.start


@dataclass(frozen=True)
class CopyEvent:
    """One explicit local memory copy, or a batch of ``nblocks`` copies
    moving ``nbytes`` bytes in all, charged as one clock advance."""

    nbytes: int
    clock: float  # simulated clock after the copy
    begin: Optional[float] = None
    nblocks: int = 1

    @property
    def start(self) -> float:
        return self.clock if self.begin is None else self.begin

    @property
    def end(self) -> float:
        return self.clock

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class DatatypeEvent:
    """One datatype-engine pack or unpack."""

    kind: str  # "pack" | "unpack"
    nblocks: int
    nbytes: int
    clock: float  # simulated clock after the operation
    begin: Optional[float] = None

    @property
    def start(self) -> float:
        return self.clock if self.begin is None else self.begin

    @property
    def end(self) -> float:
        return self.clock

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PhaseEvent:
    """A named interval of simulated time on one rank."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CollectiveEvent:
    """One collective invocation (barrier/bcast/allreduce/…) on one rank."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or reliability action observed by this rank.

    ``kind`` is one of the injection kinds (``drop``, ``delay``,
    ``duplicate``, ``reorder``, ``retry``, ``lost``, ``crash``) or a
    receiver-side reliability action (``dup_suppressed``, ``stashed``,
    ``dead_recv``).  ``clock`` is the *simulated* time the event takes
    effect; senders record faults injected on their posts, receivers
    record suppression/degrade events on their receives — so per-rank
    fault sequences are deterministic, like every other trace channel.
    """

    kind: str
    src: int
    dst: int
    tag: int
    nbytes: int
    clock: float
    detail: str = ""

    @property
    def start(self) -> float:
        return self.clock

    @property
    def end(self) -> float:
        return self.clock

    @property
    def duration(self) -> float:
        return 0.0


class TraceBase(abc.ABC):
    """Abstract tracer interface the communicator drives.

    Subclass this to plug a custom tracer into ``run_spmd`` — every hook
    receives simulated-clock timestamps, and implementations must be cheap
    (they sit on the simulator's hot path); only the owning rank calls
    them, so no locking is required.
    """

    __slots__ = ("rank",)

    def __init__(self, rank: int) -> None:
        self.rank = rank

    # -- recording hooks (called by the communicator) -------------------
    @abc.abstractmethod
    def record_send(self, src: int, dst: int, tag: int, nbytes: int,
                    depart: float, begin: Optional[float] = None) -> None:
        """One message posted to the wire at simulated clock ``depart``."""

    @abc.abstractmethod
    def record_recv(self, src: int, dst: int, tag: int, nbytes: int,
                    complete: float, begin: Optional[float] = None) -> None:
        """One message retired at simulated clock ``complete``."""

    @abc.abstractmethod
    def record_copy(self, nbytes: int, clock: float,
                    begin: Optional[float] = None) -> None:
        """One explicit local copy finishing at simulated clock ``clock``."""

    def record_copy_blocks(self, nblocks: int, nbytes: int, clock: float,
                           begin: float) -> None:
        """A batch of ``nblocks`` copies moving ``nbytes`` bytes in all,
        charged as one clock advance over ``[begin, clock]``.  The default
        records it as one :meth:`record_copy`, so a tracer implementing
        only the abstract hooks still sees every byte copied."""
        self.record_copy(nbytes, clock, begin=begin)

    @abc.abstractmethod
    def record_datatype(self, kind: str, nblocks: int, nbytes: int,
                        clock: float, begin: Optional[float] = None) -> None:
        """One datatype-engine pack/unpack finishing at ``clock``."""

    def record_fault(self, kind: str, src: int, dst: int, tag: int,
                     nbytes: int, clock: float, detail: str = "") -> None:
        """One injected fault / reliability action at simulated ``clock``.

        Concrete (default no-op) rather than abstract so tracers written
        before the fault engine existed keep working unchanged.
        """

    @abc.abstractmethod
    def phase_begin(self, name: str, clock: float) -> None:
        """Open a named phase interval."""

    @abc.abstractmethod
    def phase_end(self, clock: float) -> None:
        """Close the innermost open phase interval."""

    @abc.abstractmethod
    def collective_begin(self, name: str, clock: float) -> None:
        """Open a collective-invocation interval."""

    @abc.abstractmethod
    def collective_end(self, clock: float) -> None:
        """Close the innermost open collective interval."""


class RankTrace(TraceBase):
    """Mutable per-rank event log.

    Only the owning rank appends to a :class:`RankTrace`, so no locking
    is needed.  Copies live in four typed columns (32 bytes per copy
    event), every other kind in a list of typed events.
    """

    __slots__ = ("sends", "recvs", "_copies", "datatype_ops", "phases",
                 "collectives", "faults", "_phase_stack", "_coll_stack")

    def __init__(self, rank: int) -> None:
        super().__init__(rank)
        self.sends: List[SendEvent] = []
        self.recvs: List[RecvEvent] = []
        # Columns: nbytes, start, end, nblocks.
        self._copies = array("q"), array("d"), array("d"), array("q")
        self.datatype_ops: List[DatatypeEvent] = []
        self.phases: List[PhaseEvent] = []
        self.collectives: List[CollectiveEvent] = []
        self.faults: List[FaultEvent] = []
        self._phase_stack: List[Tuple[str, float]] = []
        self._coll_stack: List[Tuple[str, float]] = []

    # -- recording hooks (called by the communicator) -------------------
    def record_send(self, src: int, dst: int, tag: int, nbytes: int,
                    depart: float, begin: Optional[float] = None) -> None:
        self.sends.append(SendEvent(src, dst, tag, nbytes, depart, begin))

    def record_recv(self, src: int, dst: int, tag: int, nbytes: int,
                    complete: float, begin: Optional[float] = None) -> None:
        self.recvs.append(RecvEvent(src, dst, tag, nbytes, complete, begin))

    def record_copy(self, nbytes: int, clock: float,
                    begin: Optional[float] = None) -> None:
        self.record_copy_blocks(1, nbytes, clock,
                                clock if begin is None else begin)

    def record_copy_blocks(self, nblocks: int, nbytes: int, clock: float,
                           begin: float) -> None:
        nbytes_col, start_col, end_col, nblocks_col = self._copies
        nbytes_col.append(nbytes)
        start_col.append(begin)
        end_col.append(clock)
        nblocks_col.append(nblocks)

    def record_datatype(self, kind: str, nblocks: int, nbytes: int,
                        clock: float, begin: Optional[float] = None) -> None:
        self.datatype_ops.append(
            DatatypeEvent(kind, nblocks, nbytes, clock, begin))

    def record_fault(self, kind: str, src: int, dst: int, tag: int,
                     nbytes: int, clock: float, detail: str = "") -> None:
        self.faults.append(
            FaultEvent(kind, src, dst, tag, nbytes, clock, detail))

    def phase_begin(self, name: str, clock: float) -> None:
        self._phase_stack.append((name, clock))

    def phase_end(self, clock: float) -> None:
        name, start = self._phase_stack.pop()
        self.phases.append(PhaseEvent(name, start, clock))

    def collective_begin(self, name: str, clock: float) -> None:
        self._coll_stack.append((name, clock))

    def collective_end(self, clock: float) -> None:
        name, start = self._coll_stack.pop()
        self.collectives.append(CollectiveEvent(name, start, clock))

    # -- queries ---------------------------------------------------------
    def copy_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every copy event so far as ``(nbytes, start, end)`` arrays
        (int64, float64, float64), in program order.  Snapshots, not
        views."""
        return tuple(np.array(column) for column in self._copies[:3])

    @property
    def copies(self) -> List[CopyEvent]:
        """The copies as typed events, built from the columns per call."""
        return [CopyEvent(n, end, start, k)
                for n, start, end, k in zip(*self._copies)]

    @property
    def bytes_sent(self) -> int:
        return sum(e.nbytes for e in self.sends)

    @property
    def bytes_received(self) -> int:
        return sum(e.nbytes for e in self.recvs)

    @property
    def bytes_copied(self) -> int:
        return sum(self._copies[0])

    @property
    def copy_count(self) -> int:
        """Blocks copied: a batch counts each of its blocks."""
        return sum(self._copies[3])

    @property
    def message_count(self) -> int:
        return len(self.sends)

    def phase_times(self) -> Dict[str, float]:
        """Total simulated time per phase name (summed over occurrences)."""
        out: Dict[str, float] = {}
        for ph in self.phases:
            out[ph.name] = out.get(ph.name, 0.0) + ph.duration
        return out

    def collective_times(self) -> Dict[str, float]:
        """Total simulated time per collective name."""
        out: Dict[str, float] = {}
        for ev in self.collectives:
            out[ev.name] = out.get(ev.name, 0.0) + ev.duration
        return out

    def messages(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(dst, tag, nbytes)`` for each send, in program order."""
        for e in self.sends:
            yield (e.dst, e.tag, e.nbytes)

    def events(self) -> List:
        """Every typed event of this rank, ordered by end timestamp."""
        all_events: List = []
        all_events.extend(self.sends)
        all_events.extend(self.recvs)
        all_events.extend(self.copies)
        all_events.extend(self.datatype_ops)
        all_events.extend(self.phases)
        all_events.extend(self.collectives)
        all_events.extend(self.faults)
        all_events.sort(key=lambda e: (e.end, e.start))
        return all_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RankTrace(rank={self.rank}, sends={len(self.sends)}, "
                f"recvs={len(self.recvs)}, copies={len(self._copies[0])}, "
                f"phases={len(self.phases)})")


class NullTrace(TraceBase):
    """A do-nothing stand-in used when tracing is disabled.

    Keeps the communicator's hot path free of ``if trace is not None``
    branches: every hook exists and is a constant-time no-op.
    """

    __slots__ = ()

    def record_send(self, *args: object, **kwargs: object) -> None:
        pass

    def record_recv(self, *args: object, **kwargs: object) -> None:
        pass

    def record_copy(self, *args: object, **kwargs: object) -> None:
        pass

    def record_copy_blocks(self, *args: object, **kwargs: object) -> None:
        pass

    def record_datatype(self, *args: object, **kwargs: object) -> None:
        pass

    def phase_begin(self, *args: object, **kwargs: object) -> None:
        pass

    def phase_end(self, *args: object, **kwargs: object) -> None:
        pass

    def collective_begin(self, *args: object, **kwargs: object) -> None:
        pass

    def collective_end(self, *args: object, **kwargs: object) -> None:
        pass


class MetricsTrace(TraceBase):
    """Aggregate-only tracer: counters and phase totals, no event storage.

    Used by ``run_spmd(..., trace="metrics")`` for big sweeps where the
    per-event lists of :class:`RankTrace` would dominate memory, but phase
    breakdowns and per-rank totals are still wanted.
    """

    __slots__ = ("message_count", "bytes_sent", "recv_count",
                 "bytes_received", "copy_count", "bytes_copied",
                 "datatype_count", "datatype_bytes", "fault_counts",
                 "_phase_totals", "_coll_totals", "_phase_stack",
                 "_coll_stack")

    def __init__(self, rank: int) -> None:
        super().__init__(rank)
        self.message_count = 0
        self.bytes_sent = 0
        self.recv_count = 0
        self.bytes_received = 0
        self.copy_count = 0
        self.bytes_copied = 0
        self.datatype_count = 0
        self.datatype_bytes = 0
        self.fault_counts: Dict[str, int] = {}
        self._phase_totals: Dict[str, float] = {}
        self._coll_totals: Dict[str, float] = {}
        self._phase_stack: List[Tuple[str, float]] = []
        self._coll_stack: List[Tuple[str, float]] = []

    def record_send(self, src: int, dst: int, tag: int, nbytes: int,
                    depart: float, begin: Optional[float] = None) -> None:
        self.message_count += 1
        self.bytes_sent += nbytes

    def record_recv(self, src: int, dst: int, tag: int, nbytes: int,
                    complete: float, begin: Optional[float] = None) -> None:
        self.recv_count += 1
        self.bytes_received += nbytes

    def record_copy(self, nbytes: int, clock: float,
                    begin: Optional[float] = None) -> None:
        self.copy_count += 1
        self.bytes_copied += nbytes

    def record_copy_blocks(self, nblocks: int, nbytes: int, clock: float,
                           begin: float) -> None:
        self.copy_count += nblocks
        self.bytes_copied += nbytes

    def record_datatype(self, kind: str, nblocks: int, nbytes: int,
                        clock: float, begin: Optional[float] = None) -> None:
        self.datatype_count += 1
        self.datatype_bytes += nbytes

    def record_fault(self, kind: str, src: int, dst: int, tag: int,
                     nbytes: int, clock: float, detail: str = "") -> None:
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1

    def phase_begin(self, name: str, clock: float) -> None:
        self._phase_stack.append((name, clock))

    def phase_end(self, clock: float) -> None:
        name, start = self._phase_stack.pop()
        self._phase_totals[name] = (self._phase_totals.get(name, 0.0)
                                    + clock - start)

    def collective_begin(self, name: str, clock: float) -> None:
        self._coll_stack.append((name, clock))

    def collective_end(self, clock: float) -> None:
        name, start = self._coll_stack.pop()
        self._coll_totals[name] = (self._coll_totals.get(name, 0.0)
                                   + clock - start)

    def phase_times(self) -> Dict[str, float]:
        """Total simulated time per phase name (summed over occurrences)."""
        return dict(self._phase_totals)

    def collective_times(self) -> Dict[str, float]:
        """Total simulated time per collective name."""
        return dict(self._coll_totals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsTrace(rank={self.rank}, "
                f"sends={self.message_count}, recvs={self.recv_count})")

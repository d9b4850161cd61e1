"""In-process network fabric connecting simulated ranks.

The :class:`Network` is the one object shared by all ranks of a run.  It
implements MPI's matching semantics for the subset the paper's algorithms
need:

* messages are matched by exact ``(source, dest, tag)``;
* messages on the same ``(source, dest, tag)`` channel are delivered in FIFO
  order (MPI's non-overtaking guarantee);
* a receive on an empty channel suspends the rank until a matching message
  arrives.

Timing is **not** wall-clock: each message carries the sender's simulated
clock at departure, and the receiver computes the simulated arrival with the
machine profile's cost rules.  Because matching is by explicit source and
per-channel FIFO, the simulated clocks are deterministic regardless of the
order in which ranks run — re-running the same SPMD program yields
bit-identical timings.

The network also provides the failure path: when a rank dies, it calls
:meth:`Network.abort`, which wakes every blocked receiver with
:class:`RankFailedError` so the whole job tears down instead of hanging.
Symmetrically, a *send* posted after the job aborted raises
:class:`RankFailedError` immediately — survivors must not keep injecting
traffic (and inflating ``total_messages``) into a dead job.

Each fabric owns the :class:`~repro.simmpi.scheduler.CoopScheduler` that
runs its ranks.  Exactly one rank runs at any instant, so the channel
bookkeeping takes no locks: blocking is a scheduler yield, and a post wakes
only the one rank waiting on its channel.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from .errors import CommAbortedError, RankFailedError
from .machine import MachineProfile
from .metrics import MetricsRegistry
from .scheduler import CoopScheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .faults import FaultInjector

__all__ = ["Envelope", "Network", "WIRE_MODES"]

#: Channel key: ``(source, dest, tag)``.
ChannelKey = Tuple[int, int, int]

#: Payload transport modes.  ``"bytes"`` snapshots and delivers real data;
#: ``"phantom"`` carries only sizes for data-plane messages, so the
#: simulated clocks (a function of sizes alone) come out bit-identical
#: while the host moves no payload bytes.
WIRE_MODES = ("bytes", "phantom")


class Envelope:
    """One in-flight message.

    ``payload`` is an immutable ``bytes`` snapshot of the send buffer —
    snapshotting at post time gives correct MPI semantics even if the sender
    reuses its buffer immediately after ``Isend`` returns (the simulator
    behaves like an eager-protocol MPI for correctness purposes, while the
    *timing* still honours the rendezvous switch in the machine profile).

    In phantom wire mode, data-plane envelopes carry ``payload=None`` and
    an explicit ``nbytes``: every cost rule depends only on the size, so
    the clocks are unchanged while the snapshot/deposit/landing copies all
    disappear.  Control-plane envelopes (collective scalars, metadata size
    arrays, pickled objects) always carry real bytes — their contents steer
    algorithm control flow.

    The fault engine annotates envelopes through two optional slots:
    ``seq`` is the per-channel wire sequence number (assigned only when
    the reliability layer is on — receivers use it for duplicate
    suppression and in-order reassembly), and ``mark`` flags special
    envelopes: ``"dup"`` (an injected duplicate), ``"lost"`` (a tombstone
    for a message whose every retransmission was dropped — carries the
    simulated give-up deadline in ``depart``), ``"corrupt_lost"`` (a
    tombstone for a verified message whose every retransmission was
    tampered), or ``"dead"`` (a synthetic zero-byte stand-in for traffic
    from an excised rank in degrade mode).

    The verified transport (``reliability="verify"``) adds four more
    slots: ``auth`` (the ``(src, channel-seq)`` authentication tag),
    ``checksum`` (blake2b of the payload), ``declared`` (the size the
    sender stamped — phantom-mode tampering skews it away from
    ``nbytes``), and ``tampered`` (ground-truth flag set by the fault
    engine's corrupt rule; the transport never reads it, tests use it to
    check detection against truth).  All default to ``None``/``False``
    and stay that way on unverified fabrics.

    Slotted: at P=1024+ an all-to-all materializes hundreds of thousands of
    envelopes, and dropping the per-instance ``__dict__`` measurably cuts
    allocation time and memory.
    """

    __slots__ = ("src", "dst", "tag", "payload", "depart", "nbytes",
                 "seq", "mark", "auth", "checksum", "declared", "tampered")

    def __init__(self, src: int, dst: int, tag: int,
                 payload: Optional[bytes], depart: float,
                 nbytes: Optional[int] = None,
                 seq: Optional[int] = None,
                 mark: Optional[str] = None) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.depart = depart  # sender's clock when the message hit the wire
        if nbytes is None:
            if payload is None:
                raise ValueError("phantom envelopes need an explicit nbytes")
            nbytes = len(payload)
        self.nbytes = nbytes
        self.seq = seq
        self.mark = mark
        self.auth: Optional[int] = None
        self.checksum: Optional[int] = None
        self.declared: Optional[int] = None
        self.tampered = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "phantom" if self.payload is None else "bytes"
        extra = f", mark={self.mark}" if self.mark else ""
        return (f"Envelope(src={self.src}, dst={self.dst}, tag={self.tag}, "
                f"nbytes={self.nbytes}, {kind}, depart={self.depart:.6g}"
                f"{extra})")


class Network:
    """Shared mailbox fabric with deterministic simulated-time semantics."""

    def __init__(self, nprocs: int, machine: MachineProfile,
                 metrics: Optional[MetricsRegistry] = None,
                 wire: str = "bytes") -> None:
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        if wire not in WIRE_MODES:
            raise ValueError(f"wire must be one of {WIRE_MODES}, got {wire!r}")
        self.nprocs = nprocs
        self.machine = machine
        #: Payload transport mode; communicators read this once at creation.
        self.wire = wire
        self.payload_enabled = wire == "bytes"
        #: Optional aggregate-metrics sink; ``None`` keeps the hot path to
        #: a single branch per message.
        self.metrics = metrics
        #: The single-runner scheduler that suspends and wakes this
        #: fabric's ranks; the executor drives it with ``scheduler.run``.
        self.scheduler = CoopScheduler(nprocs)
        self._channels: Dict[ChannelKey, Deque[Envelope]] = {}
        self._aborted: Optional[RankFailedError] = None
        self._shutdown = False
        #: Optional fault engine; when attached, every posted envelope runs
        #: through it (see :meth:`_inject`).  ``None`` keeps the clean-fabric
        #: hot path to a single branch per message.
        self.injector: Optional["FaultInjector"] = None
        #: Ranks excised by degrade mode: ``rank -> simulated crash clock``.
        #: Receives matching a dead source return a synthetic zero-byte
        #: ``mark="dead"`` envelope instead of blocking forever.
        self._dead: Dict[int, float] = {}
        #: Senders tombstoned by receivers under ``on_fault="degrade"``
        #: when a verified-transport check failed: ``rank -> earliest
        #: simulated detection clock``.  Pure bookkeeping for the
        #: executor's ``degraded_ranks`` report — the excision itself is
        #: receiver-local (each receiver tombstones independently, in its
        #: own program order, which is what keeps degrade deterministic
        #: per rank).
        self._tombstoned: Dict[int, float] = {}
        # Statistics; handy for tests and sanity checks.
        self.total_messages = 0
        self.total_bytes = 0

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        """Raise if the job aborted or the fabric was torn down."""
        if self._aborted is not None:
            raise self._aborted
        if self._shutdown:
            raise CommAbortedError("network is shut down")

    def _deposit(self, env: Envelope) -> None:
        """Append ``env`` to its channel and wake that channel's waiter."""
        key = (env.src, env.dst, env.tag)
        self._channels.setdefault(key, deque()).append(env)
        self.scheduler.notify_key(key)
        if env.mark in ("lost", "corrupt_lost"):
            # Tombstones are bookkeeping, not traffic: they exist so the
            # receiver raises a typed error instead of hanging, and must
            # not inflate message/byte/in-flight statistics.
            return
        self.total_messages += 1
        self.total_bytes += env.nbytes
        if self.metrics is not None:
            self.metrics.on_post(env.src, env.dst, env.tag, env.nbytes)

    def _inject(self, env: Envelope,
                phase: Optional[str]) -> "Tuple[list, list]":
        """Run one posted envelope through the fault engine (if attached).

        Returns ``(envelopes, records)``: the envelopes to deposit (may be
        empty while a reorder holds the message back, or contain extras for
        duplicates / released reorder holds) and the
        :class:`~repro.simmpi.faults.FaultRecord` list describing what the
        engine did.  Deterministic: every decision is a pure function of
        ``(plan, seed)`` and the message's channel-sequence identity, never
        of host scheduling.
        """
        if self.injector is None:
            return [env], []
        envs, records = self.injector.on_post(env, phase)
        if records and self.metrics is not None:
            for rec in records:
                self.metrics.on_fault(rec.kind, rec.delay, rank=rec.src)
        return envs, records

    # ------------------------------------------------------------------
    def post(self, env: Envelope,
             phase: Optional[str] = None) -> "Optional[list]":
        """Deposit a message into its channel and wake its blocked receiver.

        When a fault injector is attached the envelope first runs through
        it — the deposit may be delayed, duplicated, replaced by a
        ``mark="lost"`` tombstone, or held for reordering.  Returns the
        list of :class:`~repro.simmpi.faults.FaultRecord` produced (``None``
        on the clean-fabric fast path) so the sending communicator can log
        them into its per-rank trace.

        Raises
        ------
        RankFailedError
            if the job already aborted — a survivor must not keep sending
            (successfully) into a dead job.
        CommAbortedError
            if the network was shut down.
        """
        self._check_open()
        if self.injector is None:
            self._deposit(env)
            return None
        envs, records = self._inject(env, phase)
        for e in envs:
            self._deposit(e)
        return records

    def collect(self, src: int, dst: int, tag: int) -> Envelope:
        """Block until the next message on ``(src, dst, tag)`` and pop it.

        Blocking suspends the calling rank in the scheduler; it runs again
        once a post lands on this channel (or the job aborts, shuts down or
        excises ``src``).  Simulated deadlines — reliability RTOs, crash
        times, retry-exhaustion give-ups — live inside envelopes and are
        resolved by the *communicator* when it lands the envelope, never
        here; a receive that can never be satisfied is caught exactly by
        the scheduler's deadlock proof.

        If ``src`` was excised by degrade mode (:meth:`mark_dead`) and its
        channel is empty, a synthetic zero-byte ``mark="dead"`` envelope is
        returned immediately — survivors of a crashed rank observe an empty
        contribution instead of blocking forever.

        Raises
        ------
        RankFailedError
            if any rank aborted the job while we were blocked.
        CommAbortedError
            if the network was shut down.
        RuntimeError
            if the channel is empty outside a scheduler run.
        """
        key = (src, dst, tag)
        channels = self._channels
        while True:
            self._check_open()
            chan = channels.get(key)
            if chan:
                env = chan.popleft()
                if not chan:
                    del channels[key]
                return env
            if src in self._dead:
                return Envelope(src, dst, tag, b"",
                                depart=self._dead[src], nbytes=0,
                                mark="dead")
            self.scheduler.block_current(key)

    def probe(self, src: int, dst: int, tag: int) -> Optional[int]:
        """Return the size of the next matching message, or ``None``."""
        chan = self._channels.get((src, dst, tag))
        return chan[0].nbytes if chan else None

    # ------------------------------------------------------------------
    def head_time(self, env: Envelope) -> float:
        """Simulated clock at which ``env``'s first byte reaches the
        receiver (departure plus head latency, on the tier the message's
        endpoints select)."""
        return env.depart + self.machine.head_latency(
            env.nbytes, self.machine.is_intra(env.src, env.dst))

    def serial_time(self, env: Envelope) -> float:
        """Receiver occupancy while landing ``env``'s bytes.

        Receives serialize at the receiver: completion is
        ``max(receiver clock, head_time) + serial_time`` — back-to-back
        messages queue behind each other, which is how ingress bandwidth
        saturation in an all-to-all is modelled.  Intra-node messages use
        the shared-memory tier constants.
        """
        return self.machine.serial_time(
            env.nbytes, self.nprocs, self.machine.is_intra(env.src, env.dst))

    # ------------------------------------------------------------------
    def flush_sender(self, rank: int) -> None:
        """Deposit ``rank``'s outstanding reorder hold (fault engine).

        The executor calls this when a rank's program returns, so a
        reorder can never strand its held message past the end of the
        sender's program.
        """
        if self.injector is None:
            return
        env = self.injector.flush(rank)
        if env is not None:
            self._deposit(env)

    def mark_dead(self, rank: int, clock: float) -> None:
        """Excise a crashed rank (degrade mode): record its simulated crash
        clock and wake blocked receivers so waits on its channels resolve
        to synthetic ``mark="dead"`` envelopes."""
        self._dead.setdefault(rank, clock)
        self.scheduler.wake_all_blocked()

    @property
    def dead_ranks(self) -> Dict[int, float]:
        """Snapshot of excised ranks: ``rank -> simulated crash clock``."""
        return dict(self._dead)

    def report_tombstone(self, rank: int, clock: float) -> None:
        """Record that a receiver tombstoned ``rank`` (verified transport,
        degrade policy).  First report wins the clock; the executor folds
        these into ``SPMDResult.degraded_ranks``."""
        self._tombstoned.setdefault(rank, clock)

    @property
    def tombstoned_ranks(self) -> Dict[int, float]:
        """Snapshot of tombstoned senders: ``rank -> detection clock``."""
        return dict(self._tombstoned)

    def abort(self, failed_rank: int, exc: BaseException, *,
              clock: Optional[float] = None,
              phase: Optional[str] = None,
              step: Optional[int] = None) -> None:
        """Mark the job failed; wake every blocked receiver.

        Idempotent with first-writer-wins semantics: when several ranks
        fail, the first ``abort`` fixes the :class:`RankFailedError` every
        blocked operation will observe; later calls only re-wake.
        ``clock``/``phase``/``step`` describe the failing rank's position
        (simulated clock, algorithm phase, posted-op index) and ride along
        on the error for post-mortems.
        """
        if self._aborted is None:
            self._aborted = RankFailedError(
                failed_rank, exc, clock=clock, phase=phase, step=step)
        self.scheduler.wake_all_blocked()

    def shutdown(self) -> None:
        """Tear the fabric down (used by the executor after the run)."""
        self._shutdown = True
        self.scheduler.wake_all_blocked()

    def pending_summary(self) -> str:
        """Human-readable list of undelivered messages (for diagnostics)."""
        if not self._channels:
            return "no pending messages"
        lines = []
        for (src, dst, tag), chan in sorted(self._channels.items()):
            lines.append(
                f"  src={src} dst={dst} tag={tag}: {len(chan)} message(s), "
                f"{sum(e.nbytes for e in chan)} byte(s)"
            )
        return "pending messages:\n" + "\n".join(lines)

"""The per-rank communicator object for the simulated MPI runtime.

Each SPMD rank receives one :class:`Communicator`.  It exposes the MPI
subset the paper's algorithms are written against:

* point-to-point: :meth:`send` / :meth:`recv` / :meth:`isend` /
  :meth:`irecv` / :meth:`sendrecv` (byte-buffer based, NumPy arrays);
* object transport (pickled) for application-layer convenience:
  :meth:`send_obj` / :meth:`recv_obj`;
* collectives used as substrates: :meth:`barrier`, :meth:`bcast`,
  :meth:`allreduce`, :meth:`allgather`, and the *builtin* (spread-out)
  :meth:`alltoall` / :meth:`alltoallv`, which double as the "vendor
  MPI_Alltoallv" baseline in benchmarks;
* simulated-cost hooks used by algorithm implementations:
  :meth:`charge_copy`, :meth:`charge_compute`, :meth:`pack` /
  :meth:`unpack` (datatype engine), and the :meth:`phase` context manager
  for the Fig. 2b-style phase breakdowns.

Simulated time: ``comm.clock`` is this rank's simulated clock in seconds.
All clock updates are deterministic (see :mod:`repro.simmpi.network`), so a
collective's simulated duration is ``max over ranks of (clock_after -
clock_before)`` and is reproducible bit-for-bit.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Union)

import numpy as np

from .datatype import IndexedBlocks
from .errors import (InjectedCrashError, InvalidRankError, InvalidTagError,
                     MessageCorruptError, MessageLostError)
from .faults import auth_tag, payload_digest
from .machine import MachineProfile
from .network import ChannelKey, Envelope, Network
from .request import RecvRequest, Request, SendRequest, waitall
from .tracing import TraceBase

__all__ = ["Communicator", "MAX_USER_TAG"]

# User tags live in [0, MAX_USER_TAG); internal collective tags above it.
MAX_USER_TAG = 1 << 20
_INTERNAL_TAG_BASE = MAX_USER_TAG
_INTERNAL_TAG_STRIDE = 8  # sub-operation slots per collective invocation

Buffer = np.ndarray


class Communicator:
    """One rank's endpoint in the simulated job."""

    def __init__(self, network: Network, rank: int,
                 trace: TraceBase) -> None:
        if not 0 <= rank < network.nprocs:
            raise InvalidRankError(rank, network.nprocs)
        self._network = network
        self._rank = rank
        self._trace = trace
        self._clock = 0.0
        self._coll_seq = 0
        # Wire mode is fixed per job; cache the flag for the send hot path.
        self._payload_enabled = network.payload_enabled
        # Fault-engine state, resolved once: the straggler multiplier on
        # this rank's o/serialization charges, its crash rule (if any), and
        # the reliability transport config.  All None/1.0 on a clean fabric
        # so the hot paths pay only a multiply / an is-None branch.
        injector = network.injector
        self._straggle = (injector.straggle_factor(rank)
                          if injector is not None else 1.0)
        self._crash = (injector.crash_rule(rank)
                       if injector is not None else None)
        self._reliability = (injector.reliability
                             if injector is not None else None)
        # Verified-transport state: whether to stamp/check integrity on
        # this fabric, which policy a failed check follows, and the
        # receiver-local tombstones (senders this rank excised under
        # degrade after a failed check; local, so the decision is a pure
        # function of this rank's own receive order).
        self._verify = (self._reliability is not None
                        and self._reliability.verify)
        self._on_fault = (injector.on_fault
                          if injector is not None else "fail-fast")
        self._tombstoned: Dict[int, float] = {}
        self._op_index = 0
        self._phase_stack: List[str] = []
        # Reliability receive state: per-channel next-expected sequence
        # number and the out-of-order stash (in-order reassembly +
        # duplicate suppression).  Only this rank touches its own entries.
        self._rel_expected: Dict[ChannelKey, int] = {}
        self._rel_stash: Dict[ChannelKey, Dict[int, Envelope]] = {}
        # The scheduler reads this rank's clock to order its run queue.
        network.scheduler.bind_clock(rank, self)

    # -- identity -------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._network.nprocs

    @property
    def machine(self) -> MachineProfile:
        return self._network.machine

    @property
    def clock(self) -> float:
        """This rank's simulated clock, in seconds."""
        return self._clock

    @property
    def trace(self) -> TraceBase:
        return self._trace

    @property
    def wire(self) -> str:
        """The job's payload transport mode: ``"bytes"`` or ``"phantom"``."""
        return self._network.wire

    @property
    def payload_enabled(self) -> bool:
        """True when data-plane messages carry real bytes.

        Algorithm kernels branch on this to skip host-side data movement
        (staging copies, buffer fills) in phantom mode while charging the
        identical simulated costs.
        """
        return self._payload_enabled

    @property
    def op_index(self) -> int:
        """Count of point-to-point operations this rank has posted (sends
        plus receives, 1-based after the first).  Crash rules' ``step``
        indexes into this sequence."""
        return self._op_index

    @property
    def current_phase(self) -> Optional[str]:
        """Innermost open :meth:`phase` name, or ``None`` — fault rules
        with a ``phase`` matcher compare against this at post time."""
        return self._phase_stack[-1] if self._phase_stack else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Communicator(rank={self._rank}, size={self.size})"

    # -- validation helpers ----------------------------------------------
    def _check_peer(self, peer: int, what: str) -> int:
        peer = int(peer)
        if not 0 <= peer < self.size:
            raise InvalidRankError(peer, self.size, what)
        return peer

    @staticmethod
    def _check_tag(tag: int) -> int:
        tag = int(tag)
        if tag < 0:
            raise InvalidTagError(tag, "tags must be non-negative")
        if tag >= MAX_USER_TAG:
            raise InvalidTagError(tag, f"user tags must be below {MAX_USER_TAG}")
        return tag

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(self, buf: Buffer, dest: int, tag: int = 0, *,
              control: bool = False) -> SendRequest:
        """Post a nonblocking send of ``buf`` (an ndarray).

        ``control=True`` marks a control-plane message (block-size arrays,
        headers — anything the receiver *reads* to steer its own control
        flow): those carry real bytes even in phantom wire mode.  Plain
        data-plane sends carry only their size in phantom mode.
        """
        dest = self._check_peer(dest, "destination")
        tag = self._check_tag(tag)
        return self._isend_buffer(buf, dest, tag, control)

    def _isend_buffer(self, buf: Buffer, dest: int, tag: int,
                      control: bool = False) -> SendRequest:
        """Wire-mode-aware ndarray send (peer/tag already validated)."""
        if control or self._payload_enabled:
            payload = _payload_of(buf)
            return self._post_envelope(payload, len(payload), dest, tag)
        if not isinstance(buf, np.ndarray):
            raise TypeError(f"send buffer must be an ndarray, got {type(buf)}")
        return self._post_envelope(None, int(buf.nbytes), dest, tag)

    def _isend_raw(self, payload: bytes, dest: int, tag: int) -> SendRequest:
        """Send pre-serialized bytes; always carried, even in phantom mode
        (the object transport's contents are the message)."""
        return self._post_envelope(payload, len(payload), dest, tag)

    def _post_envelope(self, payload: Optional[bytes], nbytes: int,
                       dest: int, tag: int) -> SendRequest:
        self._bump_op()
        begin = self._clock
        self._clock += self._o_send_to(dest) * self._straggle
        if self._verify:
            # Stamping the checksum/auth tag is a hash pass over the
            # message: one copy_time(nbytes), before departure.
            self._clock += self.machine.copy_time(nbytes) * self._straggle
        depart = self._clock
        records = self._network.post(
            Envelope(self._rank, dest, tag, payload, depart, nbytes),
            phase=self.current_phase)
        if records:
            for rec in records:
                self._trace.record_fault(rec.kind, rec.src, rec.dst, rec.tag,
                                         rec.nbytes, rec.clock, rec.detail)
        self._trace.record_send(self._rank, dest, tag, nbytes, depart,
                                begin=begin)
        return SendRequest(self, depart, nbytes)

    def irecv(self, buf: Buffer, source: int, tag: int = 0) -> RecvRequest:
        """Post a nonblocking receive into ``buf`` (a contiguous ndarray)."""
        source = self._check_peer(source, "source")
        tag = self._check_tag(tag)
        return self._irecv_raw(buf, source, tag)

    def _irecv_raw(self, buf: Buffer, source: int, tag: int) -> RecvRequest:
        self._bump_op()
        self._clock += self._o_recv_from(source) * self._straggle
        return RecvRequest(self, source, tag, buf)

    def _o_send_to(self, dest: int) -> float:
        """Per-message injection overhead on the tier ``dest`` selects."""
        m = self.machine
        return m.o_send_intra if m.is_intra(self._rank, dest) else m.o_send

    def _o_recv_from(self, source: int) -> float:
        """Per-message retire overhead on the tier ``source`` selects."""
        m = self.machine
        return m.o_recv_intra if m.is_intra(source, self._rank) else m.o_recv

    def _bump_op(self) -> None:
        """Advance the posted-op counter; trip this rank's crash rule.

        Both triggers are pure functions of the rank's own program state
        (its op count / its simulated clock), so where a rank crashes is
        identical on every backend and every re-run.
        """
        self._op_index += 1
        c = self._crash
        if c is not None and (
                (c.step is not None and self._op_index >= c.step)
                or (c.time is not None and self._clock >= c.time)):
            raise InjectedCrashError(self._rank, self._clock, self._op_index)

    def send(self, buf: Buffer, dest: int, tag: int = 0, *,
             control: bool = False) -> None:
        """Blocking send (eager: completes locally)."""
        self.isend(buf, dest, tag, control=control).wait()

    def recv(self, buf: Buffer, source: int, tag: int = 0) -> int:
        """Blocking receive; returns the number of bytes received."""
        req = self.irecv(buf, source, tag)
        req.wait()
        assert req.received_nbytes is not None
        return req.received_nbytes

    def sendrecv(self, sendbuf: Buffer, dest: int, sendtag: int,
                 recvbuf: Buffer, source: int, recvtag: int, *,
                 control: bool = False) -> int:
        """Simultaneous send and receive (deadlock-free pairwise exchange)."""
        sreq = self.isend(sendbuf, dest, sendtag, control=control)
        rreq = self.irecv(recvbuf, source, recvtag)
        sreq.wait()
        rreq.wait()
        assert rreq.received_nbytes is not None
        return rreq.received_nbytes

    def waitall(self, requests: Sequence[Request]) -> None:
        waitall(requests)

    # Internal variants used by collectives: tags come from the reserved
    # internal space, so they bypass user-tag validation.  These carry the
    # collective's own state (barrier tokens, reduction accumulators,
    # allgather slices), which the receiver reads — control plane, so they
    # always transport real bytes regardless of wire mode.
    def _send_internal(self, buf: Buffer, dest: int, tag: int) -> None:
        self._isend_buffer(buf, dest, tag, control=True).wait()

    def _recv_internal(self, buf: Buffer, source: int, tag: int) -> int:
        req = self._irecv_raw(buf, source, tag)
        req.wait()
        assert req.received_nbytes is not None
        return req.received_nbytes

    def _sendrecv_internal(self, sendbuf: Buffer, dest: int, sendtag: int,
                           recvbuf: Buffer, source: int, recvtag: int) -> int:
        sreq = self._isend_buffer(sendbuf, dest, sendtag, control=True)
        rreq = self._irecv_raw(recvbuf, source, recvtag)
        sreq.wait()
        rreq.wait()
        assert rreq.received_nbytes is not None
        return rreq.received_nbytes

    def probe_nbytes(self, source: int, tag: int = 0) -> Optional[int]:
        """Size of the next matching pending message, if already posted."""
        return self._network.probe(self._check_peer(source, "source"),
                                   self._rank, self._check_tag(tag))

    # -- pickled-object transport (application convenience) -------------
    def send_obj(self, obj: Any, dest: int, tag: int = 0) -> None:
        dest = self._check_peer(dest, "destination")
        tag = self._check_tag(tag)
        self._isend_raw(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
                        dest, tag).wait()

    def recv_obj(self, source: int, tag: int = 0) -> Any:
        """Receive one pickled object; returns ``None`` if ``source`` was
        excised by degrade mode (its contribution reads as empty)."""
        source = self._check_peer(source, "source")
        tag = self._check_tag(tag)
        self._bump_op()
        self._clock += self._o_recv_from(source) * self._straggle
        env = self._collect(source, tag)
        if env.mark == "dead":
            self._complete_dead_recv(env)
            return None
        if env.mark == "lost":
            self._raise_lost(env)
        if env.mark == "corrupt_lost":
            self._raise_corrupt_exhausted(env)
        self._complete_recv(env)
        return pickle.loads(env.payload)

    # -- fault-aware receive plumbing ------------------------------------
    def _collect(self, source: int, tag: int) -> Envelope:
        """Fetch the next deliverable envelope on ``(source, rank, tag)``.

        On a clean fabric this is a straight ``Network.collect``.  Under
        the reliability transport it enforces in-order delivery by wire
        sequence number: later sequences are stashed until their
        predecessors land (reordered messages reassemble), and sequences
        below the expected one are suppressed as duplicates (each
        suppression is counted, costs nothing in simulated time, and never
        reaches the application).

        Under the ``verify`` tier every collected envelope is integrity-
        checked *before* it can influence this rank (auth tag first, then
        checksum — or declared-size in phantom mode); a failed check is
        handled per the ``on_fault`` policy (raise typed / discard and
        await the retransmission / tombstone the claimed sender) in
        :meth:`_on_verify_failure`.
        """
        net = self._network
        # Release our own outstanding reorder hold (if any) before
        # blocking: a held message may be exactly what the peer needs to
        # make progress toward satisfying this receive.  The trigger is a
        # program-order event of this rank, so it is identical under every
        # schedule and determinism is preserved.
        net.flush_sender(self._rank)
        if self._reliability is None:
            return net.collect(source, self._rank, tag)
        if self._verify and source in self._tombstoned:
            # This rank already excised the sender: every later receive
            # from it short-circuits to an empty contribution without
            # consuming (possibly genuine) channel traffic.
            return Envelope(source, self._rank, tag, b"",
                            depart=self._tombstoned[source], nbytes=0,
                            mark="dead")
        key = (source, self._rank, tag)
        stash = self._rel_stash.setdefault(key, {})
        while True:
            expected = self._rel_expected.get(key, 0)
            env = stash.pop(expected, None)
            if env is None:
                env = net.collect(source, self._rank, tag)
                if env.mark == "dead":
                    return env
                if self._verify:
                    verdict = self._verify_env(env)
                    if verdict is not None:
                        replacement = self._on_verify_failure(verdict, env)
                        if replacement is not None:
                            return replacement
                        continue
                if env.seq is None:
                    return env
                if env.seq < expected:
                    self._record_fault("dup_suppressed", env)
                    continue
                if env.seq > expected:
                    stash[env.seq] = env
                    continue
            self._rel_expected[key] = expected + 1
            return env

    def _record_fault(self, kind: str, env: Envelope,
                      detail: str = "") -> None:
        """Receiver-side fault event: into the rank trace and aggregates."""
        self._trace.record_fault(kind, env.src, env.dst, env.tag,
                                 env.nbytes, self._clock, detail)
        metrics = self._network.metrics
        if metrics is not None:
            metrics.on_fault(kind, rank=self._rank)

    def _complete_dead_recv(self, env: Envelope) -> None:
        """Land a synthetic envelope from an excised rank: no bytes, no
        landing cost — the receiver just cannot finish before it learned
        of the crash (``max`` against the crash clock)."""
        self._clock = max(self._clock, env.depart)
        self._record_fault("dead_recv", env)
        self._trace.record_recv(env.src, env.dst, env.tag, 0,
                                self._clock, begin=self._clock)

    def _raise_lost(self, env: Envelope) -> None:
        """A reliable message exhausted its retries: fail typed at the
        simulated give-up deadline."""
        self._clock = max(self._clock, env.depart)
        self._record_fault("lost_detected", env)
        raise MessageLostError(env.src, env.dst, env.tag, env.depart)

    def _raise_corrupt_exhausted(self, env: Envelope) -> None:
        """Every retransmission of a verified message arrived tampered:
        fail typed at the simulated give-up deadline."""
        self._clock = max(self._clock, env.depart)
        self._record_fault("corrupt_lost_detected", env)
        raise MessageCorruptError(env.src, env.dst, env.tag, env.depart,
                                  reason="exhausted")

    def _verify_env(self, env: Envelope) -> Optional[str]:
        """Integrity-check one collected envelope under the verify tier.

        Returns ``None`` when the envelope is genuine, ``"forged"`` when
        the authentication tag does not match its (src, channel-seq)
        identity — a spoofed envelope was never stamped by the sender's
        transport — and ``"corrupt"`` when the tag is good but the payload
        checksum (bytes mode) or declared size (phantom mode) disagrees
        with what landed.  Tombstone marks pass through untouched: they
        carry the failure verdict themselves.
        """
        if env.mark in ("lost", "corrupt_lost"):
            return None
        if env.auth is None or env.auth != auth_tag(env.src, env.dst,
                                                    env.tag, env.seq):
            return "forged"
        if env.payload is None:
            if env.declared != env.nbytes:
                return "corrupt"
        elif env.checksum is None or env.checksum != payload_digest(env.payload):
            return "corrupt"
        return None

    def _on_verify_failure(self, verdict: str,
                           env: Envelope) -> Optional[Envelope]:
        """Handle a failed integrity check per the ``on_fault`` policy.

        The receiver pays for the rejected envelope first — it landed on
        the wire and was hashed before the check could fail — so detection
        charges the normal serial landing plus one checksum pass.  Then:
        ``fail-fast`` raises :class:`MessageCorruptError`; ``retry``
        returns ``None`` (discard and keep collecting — the sender's
        retransmission dialogue is already in flight); ``degrade``
        tombstones the claimed sender and returns a synthetic dead
        envelope so the collective completes without it.
        """
        head = self._network.head_time(env)
        landing_start = max(self._clock, head)
        self._clock = (landing_start
                       + self._network.serial_time(env) * self._straggle
                       + self.machine.copy_time(env.nbytes) * self._straggle)
        kind = "forge_rejected" if verdict == "forged" else "corrupt_detected"
        self._record_fault(kind, env)
        if self._on_fault == "retry":
            return None
        if self._on_fault == "degrade":
            self._tombstoned.setdefault(env.src, self._clock)
            self._network.report_tombstone(env.src, self._clock)
            return Envelope(env.src, self._rank, env.tag, b"",
                            depart=self._clock, nbytes=0, mark="dead")
        raise MessageCorruptError(env.src, self._rank, env.tag,
                                  self._clock, reason=verdict)

    def _complete_recv(self, env: Envelope) -> None:
        """Land one delivered message on this rank's simulated clock.

        The one place the receive-side timing rule lives (both the object
        and the buffer transport): completion is
        ``max(clock, head arrival) + serial landing time``.  Stragglers pay
        their multiplier on the serial landing; the reliability transport
        adds one ``o_send`` for the ack injection.
        """
        head = self._network.head_time(env)
        landing_start = max(self._clock, head)
        metrics = self._network.metrics
        if metrics is not None:
            metrics.on_retire(env.src, self._rank, env.tag,
                              env.depart, head, self._clock)
        self._clock = (landing_start
                       + self._network.serial_time(env) * self._straggle)
        if self._verify:
            # One checksum pass over the landed bytes: the integrity
            # check is a memory-bandwidth-bound scan, costed like a copy.
            self._clock += self.machine.copy_time(env.nbytes) * self._straggle
        rel = self._reliability
        if rel is not None and rel.ack_overhead:
            self._clock += self._o_send_to(env.src) * self._straggle
        self._trace.record_recv(env.src, env.dst, env.tag, env.nbytes,
                                self._clock, begin=landing_start)

    # ------------------------------------------------------------------
    # simulated-cost hooks for algorithm implementations
    # ------------------------------------------------------------------
    def charge_compute(self, seconds: float) -> None:
        """Advance this rank's clock by an arbitrary local-compute cost."""
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self._clock += seconds

    def charge_copy(self, nbytes: int) -> None:
        """Charge one explicit contiguous memory copy of ``nbytes`` bytes."""
        if nbytes <= 0:
            return
        begin = self._clock
        self._clock += self.machine.copy_time(int(nbytes))
        self._trace.record_copy(int(nbytes), self._clock, begin=begin)

    def charge_copies(self, counts: Sequence[int]) -> None:
        """Charge a batch of copies, one per positive entry of ``counts``.

        The clock advances once, by ``copy_time_blocks(nz, total)`` over
        the ``nz`` positive entries and their byte ``total`` (DESIGN.md
        §5.4): the batch is priced by block count and volume, not as a
        chain of per-copy additions.  The tracer sees one copy event
        carrying both numbers.  Non-positive entries are skipped, exactly
        like ``charge_copy``; a batch of none is free.
        """
        arr = np.asarray(counts, dtype=np.int64)
        arr = arr[arr > 0]
        if arr.size == 0:
            return
        nblocks, nbytes = arr.size, int(arr.sum())
        begin = self._clock
        self._clock += self.machine.copy_time_blocks(nblocks, nbytes)
        self._trace.record_copy_blocks(nblocks, nbytes, self._clock, begin)

    def pack(self, buffer: Buffer, blocks: IndexedBlocks) -> np.ndarray:
        """Datatype-engine pack: gather ``blocks`` of ``buffer``, charging
        the derived-datatype cost (used by the ``-dt`` Bruck variants).

        In phantom wire mode the gather is skipped: the returned array has
        the right size for the subsequent (size-only) send but its contents
        are unspecified.
        """
        if self._payload_enabled:
            data = blocks.pack(buffer)
        else:
            data = np.empty(blocks.nbytes, dtype=np.uint8)
        begin = self._clock
        self._clock += self.machine.datatype_time(blocks.nblocks, blocks.nbytes)
        self._trace.record_datatype("pack", blocks.nblocks, blocks.nbytes,
                                    self._clock, begin=begin)
        return data

    def unpack(self, buffer: Buffer, blocks: IndexedBlocks,
               data: np.ndarray) -> None:
        """Datatype-engine unpack: scatter ``data`` into ``blocks``
        (skipped, but charged, in phantom wire mode)."""
        if self._payload_enabled:
            blocks.unpack(buffer, data)
        begin = self._clock
        self._clock += self.machine.datatype_time(blocks.nblocks, blocks.nbytes)
        self._trace.record_datatype("unpack", blocks.nblocks, blocks.nbytes,
                                    self._clock, begin=begin)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Record a named simulated-time interval (Fig. 2b breakdowns).

        The innermost open phase name is also the fault engine's ``phase``
        matcher input for messages this rank posts (see
        :attr:`current_phase`).
        """
        self._trace.phase_begin(name, self._clock)
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()
            self._trace.phase_end(self._clock)

    @contextmanager
    def _collective(self, name: str) -> Iterator[None]:
        """Record one collective invocation as a traced interval."""
        self._trace.collective_begin(name, self._clock)
        try:
            yield
        finally:
            self._trace.collective_end(self._clock)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _next_coll_tags(self) -> int:
        """Reserve a fresh internal tag block for one collective call.

        SPMD discipline (all ranks invoke collectives in the same order)
        guarantees every rank derives the same base tag for the same call.
        """
        base = _INTERNAL_TAG_BASE + self._coll_seq * _INTERNAL_TAG_STRIDE
        self._coll_seq += 1
        return base

    def barrier(self) -> None:
        """Dissemination barrier: ``ceil(log2 P)`` pairwise rounds."""
        with self._collective("barrier"):
            p, rank = self.size, self._rank
            if p == 1:
                return
            tag = self._next_coll_tags()
            token = np.zeros(1, dtype=np.uint8)
            scratch = np.zeros(1, dtype=np.uint8)
            k = 1
            while k < p:
                self._sendrecv_internal(token, (rank + k) % p, tag,
                                        scratch, (rank - k) % p, tag)
                k <<= 1

    def bcast(self, buf: Buffer, root: int = 0) -> None:
        """Binomial-tree broadcast of ``buf`` (in place on non-roots)."""
        with self._collective("bcast"):
            p = self.size
            root = self._check_peer(root, "root")
            if p == 1:
                return
            tag = self._next_coll_tags()
            # Rotate ranks so the tree is rooted at 0.
            vrank = (self._rank - root) % p
            mask = 1
            while mask < p:
                if vrank & mask:
                    src = ((vrank ^ mask) + root) % p
                    self._recv_internal(buf, src, tag)
                    break
                mask <<= 1
            mask >>= 1
            while mask > 0:
                if vrank + mask < p:
                    dst = ((vrank | mask) + root) % p
                    self._send_internal(buf, dst, tag)
                mask >>= 1

    def allreduce(self, value: Union[int, float], op: str = "max") -> Union[int, float]:
        """Allreduce of one scalar with ``op`` in {"max", "min", "sum"}.

        ``max``/``min`` use a dissemination exchange (idempotent ops are
        safe under the non-power-of-two double-counting of dissemination);
        ``sum`` uses recursive doubling over a power-of-two subgroup with
        pre/post folding of the remainder ranks.
        """
        if op in ("max", "min"):
            with self._collective("allreduce"):
                return self._allreduce_idempotent(
                    value, max if op == "max" else min)
        if op == "sum":
            with self._collective("allreduce"):
                return self._allreduce_sum(value)
        raise ValueError(f"unsupported allreduce op {op!r}")

    def _allreduce_idempotent(self, value: Union[int, float],
                              fold: Callable[[Any, Any], Any]) -> Union[int, float]:
        p, rank = self.size, self._rank
        if p == 1:
            return value
        tag = self._next_coll_tags()
        acc = np.array([value], dtype=np.float64)
        incoming = np.empty(1, dtype=np.float64)
        k = 1
        while k < p:
            self._sendrecv_internal(acc, (rank + k) % p, tag,
                                    incoming, (rank - k) % p, tag)
            acc[0] = fold(acc[0], incoming[0])
            k <<= 1
        result = acc[0]
        return int(result) if isinstance(value, (int, np.integer)) else float(result)

    def _allreduce_sum(self, value: Union[int, float]) -> Union[int, float]:
        p, rank = self.size, self._rank
        if p == 1:
            return value
        tag = self._next_coll_tags()
        pof2 = 1 << (p.bit_length() - 1)
        rem = p - pof2
        acc = np.array([value], dtype=np.float64)
        incoming = np.empty(1, dtype=np.float64)
        # Fold remainder ranks into the power-of-two group.
        if rank < 2 * rem:
            if rank % 2 == 1:          # odd ranks donate and sit out
                self._send_internal(acc, rank - 1, tag)
                newrank = -1
            else:                       # even ranks absorb a partner
                self._recv_internal(incoming, rank + 1, tag)
                acc[0] += incoming[0]
                newrank = rank // 2
        else:
            newrank = rank - rem
        if newrank >= 0:
            mask = 1
            while mask < pof2:
                partner_new = newrank ^ mask
                partner = (partner_new * 2 if partner_new < rem
                           else partner_new + rem)
                self._sendrecv_internal(acc, partner, tag + 1,
                                        incoming, partner, tag + 1)
                acc[0] += incoming[0]
                mask <<= 1
        # Hand results back to the sat-out ranks.
        if rank < 2 * rem:
            if rank % 2 == 1:
                self._recv_internal(acc, rank - 1, tag + 2)
            else:
                self._send_internal(acc, rank + 1, tag + 2)
        result = acc[0]
        return int(result) if isinstance(value, (int, np.integer)) else float(result)

    def allgather(self, value: np.ndarray) -> np.ndarray:
        """Allgather equal-size arrays via the ring algorithm.

        Returns an array of shape ``(size,) + value.shape``.
        """
        with self._collective("allgather"):
            p, rank = self.size, self._rank
            value = np.ascontiguousarray(value)
            out = np.empty((p,) + value.shape, dtype=value.dtype)
            out[rank] = value
            if p == 1:
                return out
            tag = self._next_coll_tags()
            right, left = (rank + 1) % p, (rank - 1) % p
            for step in range(p - 1):
                send_idx = (rank - step) % p
                recv_idx = (rank - step - 1) % p
                self._sendrecv_internal(out[send_idx], right, tag,
                                        out[recv_idx], left, tag)
            return out

    # -- builtin all-to-all (the spread-out "vendor" baseline) ----------
    def alltoall(self, sendbuf: Buffer, recvbuf: Buffer, block_nbytes: int) -> None:
        """Uniform all-to-all with the spread-out (pairwise Isend/Irecv)
        algorithm — the stand-in for the vendor ``MPI_Alltoall``.

        ``sendbuf``/``recvbuf`` are flat byte buffers of ``P * block_nbytes``.
        """
        with self._collective("alltoall"):
            p, rank = self.size, self._rank
            sview = _byte_view(sendbuf)
            rview = _byte_view(recvbuf)
            n = int(block_nbytes)
            if sview.nbytes < p * n or rview.nbytes < p * n:
                raise ValueError(
                    f"alltoall buffers need {p * n} bytes "
                    f"(send has {sview.nbytes}, recv has {rview.nbytes})"
                )
            tag = self._next_coll_tags()
            # Self block: local copy (charged in both wire modes).
            if self._payload_enabled:
                rview[rank * n:(rank + 1) * n] = sview[rank * n:(rank + 1) * n]
            self.charge_copy(n)
            reqs: List[Request] = []
            for off in range(1, p):
                src = (rank - off) % p
                reqs.append(self._irecv_raw(rview[src * n:(src + 1) * n],
                                            src, tag))
            for off in range(1, p):
                dst = (rank + off) % p
                reqs.append(self._isend_buffer(sview[dst * n:(dst + 1) * n],
                                               dst, tag))
            waitall(reqs)

    def alltoallv(self, sendbuf: Buffer, sendcounts: Sequence[int],
                  sdispls: Sequence[int], recvbuf: Buffer,
                  recvcounts: Sequence[int], rdispls: Sequence[int]) -> None:
        """Non-uniform all-to-all with the spread-out algorithm — the
        stand-in for the vendor ``MPI_Alltoallv`` (MPICH-style).

        All counts/displacements are in bytes over flat byte buffers.
        """
        with self._collective("alltoallv"):
            p, rank = self.size, self._rank
            sview = _byte_view(sendbuf)
            rview = _byte_view(recvbuf)
            sendcounts = np.asarray(sendcounts, dtype=np.int64)
            recvcounts = np.asarray(recvcounts, dtype=np.int64)
            sdispls = np.asarray(sdispls, dtype=np.int64)
            rdispls = np.asarray(rdispls, dtype=np.int64)
            for name, arr in (("sendcounts", sendcounts),
                              ("recvcounts", recvcounts),
                              ("sdispls", sdispls), ("rdispls", rdispls)):
                if len(arr) != p:
                    raise ValueError(
                        f"{name} must have length {p}, got {len(arr)}")
            # Counts/displs reaching past the buffers would silently produce
            # short slice views (truncated sends, partially-landed receives);
            # validate extents like the Bruck kernels do.  Imported lazily:
            # ``repro.core`` imports ``simmpi`` at module load.
            from ..core.common import checked_counts_displs
            checked_counts_displs(sendcounts, sdispls, p, sview.nbytes,
                                  "alltoallv send")
            checked_counts_displs(recvcounts, rdispls, p, rview.nbytes,
                                  "alltoallv recv")
            tag = self._next_coll_tags()
            # Self block (charged in both wire modes).
            n_self = int(sendcounts[rank])
            if n_self:
                if self._payload_enabled:
                    rview[rdispls[rank]:rdispls[rank] + n_self] = \
                        sview[sdispls[rank]:sdispls[rank] + n_self]
                self.charge_copy(n_self)
            reqs: List[Request] = []
            for off in range(1, p):
                src = (rank - off) % p
                cnt = int(recvcounts[src])
                reqs.append(self._irecv_raw(
                    rview[rdispls[src]:rdispls[src] + cnt], src, tag))
            for off in range(1, p):
                dst = (rank + off) % p
                cnt = int(sendcounts[dst])
                reqs.append(self._isend_buffer(
                    sview[sdispls[dst]:sdispls[dst] + cnt], dst, tag))
            waitall(reqs)


def _byte_view(buffer: Buffer) -> np.ndarray:
    if not isinstance(buffer, np.ndarray):
        raise TypeError(f"buffer must be an ndarray, got {type(buffer)}")
    if not buffer.flags.c_contiguous:
        raise ValueError("buffer must be C-contiguous")
    return buffer.reshape(-1).view(np.uint8)


def _payload_of(buf: Buffer) -> bytes:
    """Snapshot an ndarray (or slice view) as immutable bytes.

    ``tobytes()`` serializes in C order for any layout, so non-contiguous
    views are snapshotted in one pass — no ``ascontiguousarray`` staging
    copy first.
    """
    if not isinstance(buf, np.ndarray):
        raise TypeError(f"send buffer must be an ndarray, got {type(buf)}")
    return buf.tobytes()

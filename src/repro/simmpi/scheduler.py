"""Deterministic cooperative scheduler: the per-rank executor core.

Every rank program runs under one :class:`CoopScheduler`, owned by the
run's :class:`~repro.simmpi.network.Network`:

* Each rank is a **tasklet** — a suspended continuation of the rank's
  program.  CPython cannot suspend an arbitrary call stack from pure Python
  (that is what C extensions like ``greenlet`` exist for), so each tasklet
  carries its stack on a parked carrier thread with a tiny stack
  allocation; the thread is purely a continuation holder.  Carriers are
  raw ``_thread`` threads (no ``Thread`` start handshake), so they do not
  appear in :func:`threading.enumerate`.  **Exactly one tasklet (or the
  scheduler loop) runs at any instant.**  A parked carrier holds its own
  acquired lock and parks on ``acquire()``; the rank that blocks or
  finishes pops the next ``(clock, rank)`` itself and resumes it with one
  ``release()`` — one OS wake-up per switch, never any lock contention, and
  the network fast path takes no locks at all.  The loop thread only
  starts the run and wakes when every rank finished or none is runnable.
* The scheduler's run queue is ordered by **(simulated clock, rank id)**,
  so execution order is a pure function of the program's communication
  structure: re-running the same program replays the identical schedule.
* A rank that blocks on an empty channel yields back to the scheduler; the
  matching ``post`` makes it runnable again.  When the run queue is empty
  while unfinished ranks remain, *no* interleaving can make progress —
  that is an exact deadlock proof, and the scheduler raises
  :class:`~repro.simmpi.errors.DeadlockError` immediately, with the
  blocked-rank and pending-message dump.

The run-queue order is a host-time choice, not part of the model: all
timing arithmetic lives in :class:`~repro.simmpi.communicator.Communicator`
/ :class:`~repro.simmpi.request.RecvRequest` and depends only on envelope
departure times and each rank's own operation order.
``tests/simmpi/test_schedule_independence.py`` pins this by popping
runnable ranks in random order and checking every clock is unchanged.

Practical scale: thousands of ranks (CI exercises P=1024; P=4096 works).
Parked carrier threads cost one small stack each and are created lazily,
the first time a rank is scheduled.
"""

from __future__ import annotations

import _thread
import heapq
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from .errors import DeadlockError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .communicator import Communicator
    from .network import ChannelKey, Network

__all__ = ["CoopScheduler"]

#: Stack allocation for carrier threads.  They only ever hold a suspended
#: rank program (algorithm code + numpy calls, no deep recursion), so 2 MiB
#: is comfortable while letting thousands of ranks coexist.
_CARRIER_STACK_BYTES = 2 << 20


class _Tasklet:
    """One rank's suspended continuation.

    The carrier thread is started lazily on first schedule and exits when
    the rank's program returns or unwinds; in between it is parked on
    ``lock`` (held, so ``acquire()`` parks and ``release()`` resumes)
    whenever the rank is not the running one.
    """

    __slots__ = ("rank", "body", "lock", "started")

    def __init__(self, rank: int, body: Callable[[], None]) -> None:
        self.rank = rank
        self.body = body
        self.lock = _thread.allocate_lock()
        self.lock.acquire()
        self.started = False


class CoopScheduler:
    """Single-runner event loop driving one tasklet per rank.

    Usage (the executor does this)::

        network = Network(nprocs, machine)   # builds its own scheduler
        network.scheduler.run(network, worker)   # worker(rank) per rank

    ``run`` returns when every rank finished (normally or by unwinding
    with an exception the worker recorded), or raises
    :class:`DeadlockError` the moment no rank can make progress.
    """

    def __init__(self, nprocs: int) -> None:
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        self.nprocs = nprocs
        self._tasklets: List[_Tasklet] = []
        self._comms: Dict[int, "Communicator"] = {}
        # Min-heap of (simulated clock, rank) over runnable-but-suspended
        # ranks; the clock is the rank's clock when it last yielded.
        self._runnable: List[Tuple[float, int]] = []
        self._blocked: Dict["ChannelKey", Deque[int]] = {}
        self._blocked_clock: Dict[int, float] = {}
        self._unfinished = 0
        self._current: Optional[_Tasklet] = None
        # The loop thread parks on this (held) lock while ranks pass the
        # baton among themselves.
        self._loop_lock = _thread.allocate_lock()
        self._loop_lock.acquire()
        self._unwinding = False
        self._start_error: Optional[BaseException] = None
        self._running = False

    # ------------------------------------------------------------------
    # fabric-facing interface (called by the Network and the ranks'
    # Communicators, from the running tasklet or from the scheduler loop —
    # never concurrently)
    # ------------------------------------------------------------------
    def bind_clock(self, rank: int, comm: "Communicator") -> None:
        """Learn where ``rank``'s simulated clock lives."""
        self._comms[rank] = comm

    def block_current(self, key: "ChannelKey") -> None:
        """Suspend the running rank until ``notify_key(key)`` (or a global
        wake) reschedules it.  Returns once the rank runs again; the caller
        re-checks its channel/abort conditions in a loop."""
        t = self._current
        if t is None:
            raise RuntimeError(
                "network used outside a scheduler run"
            )
        comm = self._comms.get(t.rank)
        self._blocked_clock[t.rank] = comm.clock if comm is not None else 0.0
        self._blocked.setdefault(key, deque()).append(t.rank)
        # Hand the baton straight to the next runnable rank and park.
        self._handoff()
        t.lock.acquire()

    def notify_key(self, key: "ChannelKey") -> None:
        """A message landed on ``key``: make its oldest waiter runnable."""
        waiters = self._blocked.get(key)
        if waiters:
            rank = waiters.popleft()
            if not waiters:
                del self._blocked[key]
            heapq.heappush(self._runnable,
                           (self._blocked_clock.pop(rank), rank))

    def wake_all_blocked(self) -> None:
        """Abort/shutdown path: every blocked rank becomes runnable so it
        can observe the failure flag and unwind."""
        for waiters in self._blocked.values():
            for rank in waiters:
                heapq.heappush(self._runnable,
                               (self._blocked_clock.pop(rank), rank))
        self._blocked.clear()

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, network: "Network", worker: Callable[[int], None]) -> None:
        """Drive ``worker(rank)`` for every rank to completion."""
        if self._running:
            raise RuntimeError("scheduler is already running")
        self._running = True
        self._tasklets = [
            _Tasklet(rank, lambda rank=rank: worker(rank))
            for rank in range(self.nprocs)
        ]
        self._unfinished = self.nprocs
        self._runnable = [(0.0, rank) for rank in range(self.nprocs)]
        # Already sorted (equal clocks, ascending rank) — valid heap.
        self._unwinding = False
        self._start_error = None
        old_stack = self._set_carrier_stack_size()
        try:
            self._handoff()
            self._loop_lock.acquire()  # every rank finished, or none can run
            if self._start_error is not None:
                self._unwind(network, self._start_error)
            if self._unfinished:
                self._unwind(network, self._deadlock_error(network))
        finally:
            self._restore_stack_size(old_stack)
            self._running = False

    @staticmethod
    def _set_carrier_stack_size() -> Optional[int]:
        """Shrink the stack of subsequently created (carrier) threads.

        Returns the previous size for restoration, or ``None`` if the
        platform refuses (then carriers just use the default stack).
        """
        try:
            return threading.stack_size(_CARRIER_STACK_BYTES)
        except (ValueError, RuntimeError, OverflowError):  # pragma: no cover
            return None

    @staticmethod
    def _restore_stack_size(old: Optional[int]) -> None:
        if old is None:  # pragma: no cover - platform-dependent
            return
        try:
            threading.stack_size(old)
        except (ValueError, RuntimeError, OverflowError):  # pragma: no cover
            pass

    def _handoff(self) -> None:
        """Pass the baton: resume the next runnable rank, or wake the loop
        thread when every rank finished, none is runnable (the deadlock
        proof) or the run is being unwound."""
        if self._unfinished and self._runnable and not self._unwinding:
            _, rank = heapq.heappop(self._runnable)
            self._resume(self._tasklets[rank])
        else:
            self._current = None
            self._loop_lock.release()

    def _resume(self, t: _Tasklet) -> None:
        """Make ``t`` the running rank: start its carrier or unpark it."""
        self._current = t
        if t.started:
            t.lock.release()
            return
        try:
            _thread.start_new_thread(self._bootstrap, (t,))
        except BaseException as exc:  # noqa: BLE001 - re-raised by run()
            self._start_error = exc
            self._current = None
            self._loop_lock.release()

    def _bootstrap(self, t: _Tasklet) -> None:
        t.started = True
        try:
            t.body()
        finally:
            self._unfinished -= 1
            self._handoff()

    # ------------------------------------------------------------------
    # exact deadlock detection and teardown
    # ------------------------------------------------------------------
    def _deadlock_error(self, network: "Network") -> DeadlockError:
        """No runnable rank, unfinished ranks remain: provably stuck."""
        waits = []
        for (src, dst, tag), waiters in sorted(self._blocked.items()):
            for rank in waiters:
                waits.append(
                    f"rank {rank} waiting on src={src} tag={tag} "
                    f"at simulated clock {self._blocked_clock[rank]:.6g}"
                )
        return DeadlockError(
            f"SPMD run deadlocked ({self._unfinished} of {self.nprocs} "
            f"ranks blocked with no runnable peer):\n  "
            + ";\n  ".join(waits)
            + f"\n{network.pending_summary()}"
        )

    def _unwind(self, network: "Network", error: BaseException) -> None:
        """Tear the job down (shutdown flag + wake) so every started
        continuation unwinds and its carrier exits, then raise ``error``.

        Each unwinding rank hands control back here instead of to a peer,
        so the loop resumes them one at a time in (clock, rank) order.
        """
        self._unwinding = True
        network.shutdown()  # flags the fabric; wakes the blocked ranks
        while self._unfinished and self._runnable:
            _, rank = heapq.heappop(self._runnable)
            if self._tasklets[rank].started:
                self._resume(self._tasklets[rank])
                self._loop_lock.acquire()
        raise error


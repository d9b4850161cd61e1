"""Exception hierarchy for the simulated MPI runtime.

Every error raised by :mod:`repro.simmpi` derives from :class:`SimMPIError`
so applications can catch simulator failures distinctly from ordinary Python
errors.  The hierarchy mirrors the failure classes a real MPI library
surfaces: invalid arguments (``MPI_ERR_ARG``-style), truncation on receive
(``MPI_ERR_TRUNCATE``), and distributed-progress failures (deadlock, a peer
rank dying mid-collective).
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "SimMPIError",
    "InvalidRankError",
    "InvalidTagError",
    "TruncationError",
    "DeadlockError",
    "RankFailedError",
    "CommAbortedError",
    "InjectedCrashError",
    "MessageLostError",
    "MessageCorruptError",
    "WireCountError",
]


class SimMPIError(RuntimeError):
    """Base class for all simulated-MPI failures."""


class InvalidRankError(SimMPIError, ValueError):
    """A rank argument was outside ``[0, size)``."""

    def __init__(self, rank: int, size: int, what: str = "rank") -> None:
        super().__init__(f"invalid {what} {rank!r} for communicator of size {size}")
        self.rank = rank
        self.size = size


class InvalidTagError(SimMPIError, ValueError):
    """A tag argument was negative or collided with the reserved tag space."""

    def __init__(self, tag: int, reason: str) -> None:
        super().__init__(f"invalid tag {tag!r}: {reason}")
        self.tag = tag


class TruncationError(SimMPIError):
    """An incoming message was larger than the posted receive buffer."""

    def __init__(self, expected: int, actual: int, source: int, tag: int) -> None:
        super().__init__(
            f"message truncated: receive buffer holds {expected} bytes but "
            f"message from rank {source} (tag {tag}) carries {actual} bytes"
        )
        self.expected = expected
        self.actual = actual
        self.source = source
        self.tag = tag


class DeadlockError(SimMPIError):
    """The SPMD program can make no further progress.

    Raised by the executor (on the launching thread) the moment the
    scheduler proves it: unfinished ranks remain and none is runnable, so
    no interleaving can complete the run.  The message lists which ranks
    were blocked and on what, which is usually enough to spot a mismatched
    send/recv pair.
    """


class RankFailedError(SimMPIError):
    """A peer rank raised an exception, so this rank can never complete.

    When the executor knows them, the failing rank's *simulated* clock and
    its current algorithm step/phase ride along (``clock`` / ``phase`` /
    ``step``), so a post-mortem can localize the failure inside the
    algorithm without re-running with a trace file.  ``step`` counts the
    rank's posted point-to-point operations (sends + receives), matching
    :attr:`Communicator.op_index`.
    """

    def __init__(self, failed_rank: int, original: BaseException, *,
                 clock: Optional[float] = None,
                 phase: Optional[str] = None,
                 step: Optional[int] = None) -> None:
        where = ""
        if clock is not None:
            where += f" at simulated clock {clock:.6g}s"
        if phase is not None:
            where += f" in phase {phase!r}"
        if step is not None:
            where += f" (op {step})"
        super().__init__(
            f"rank {failed_rank} failed{where} with "
            f"{type(original).__name__}: {original}"
        )
        self.failed_rank = failed_rank
        self.original = original
        self.clock = clock
        self.phase = phase
        self.step = step


class CommAbortedError(SimMPIError):
    """The network was shut down while an operation was still blocked."""


class InjectedCrashError(SimMPIError):
    """A fault plan's crash rule killed this rank on purpose.

    Raised inside the rank program by the communicator when the rank hits
    its scheduled crash point.  Under ``on_fault="fail-fast"`` it tears
    the job down like any rank failure; under ``on_fault="degrade"`` the
    executor excises the rank instead and survivors complete a reduced
    collective.
    """

    def __init__(self, rank: int, clock: float, step: int,
                 reason: str = "fault plan") -> None:
        super().__init__(
            f"rank {rank} crashed by {reason} at simulated clock "
            f"{clock:.6g}s (op {step})"
        )
        self.rank = rank
        self.clock = clock
        self.step = step


class MessageLostError(SimMPIError):
    """A reliable message exhausted its retransmission budget.

    Raised on the *receiver* at the message's simulated retry-exhaustion
    deadline — the typed alternative to hanging on a message that will
    never arrive.
    """

    def __init__(self, source: int, dest: int, tag: int,
                 deadline: float) -> None:
        super().__init__(
            f"message from rank {source} to rank {dest} (tag {tag}) lost: "
            f"every retransmission dropped; gave up at simulated clock "
            f"{deadline:.6g}s"
        )
        self.source = source
        self.dest = dest
        self.tag = tag
        self.deadline = deadline


class MessageCorruptError(SimMPIError):
    """A verified-transport integrity check failed.

    Raised on the *receiver* under ``on_fault="fail-fast"`` the moment a
    delivered envelope fails its checksum/size check (``reason=
    "corrupt"``) or its authentication-tag check (``reason="forged"``),
    and under ``on_fault="retry"`` at the simulated deadline of a message
    whose every retransmission arrived tampered (``reason="exhausted"``).
    The typed alternative to silently accepting Byzantine bytes.
    """

    _DETAIL = {
        "corrupt": "payload checksum/size check failed",
        "forged": "authentication tag check failed (spoofed envelope)",
        "exhausted": "every retransmission arrived corrupted; gave up",
    }

    def __init__(self, source: int, dest: int, tag: int, clock: float,
                 reason: str = "corrupt") -> None:
        detail = self._DETAIL.get(reason, reason)
        super().__init__(
            f"message from rank {source} to rank {dest} (tag {tag}) "
            f"rejected by the verified transport at simulated clock "
            f"{clock:.6g}s: {detail}"
        )
        self.source = source
        self.dest = dest
        self.tag = tag
        self.clock = clock
        self.reason = reason


class WireCountError(SimMPIError, ValueError):
    """A count read off the wire, or the buffer extent it sets, is not a
    C ``int`` in ``[0, 2**31)`` — or, when the counts describe a message
    already received (``carried`` bytes), does not add up to it.  Raised
    before anything is allocated or parked, so poisoned metadata (tampered
    bytes delivered without the verify tier) ends here rather than in a
    multi-GiB allocation or a short block."""

    def __init__(self, rank: int, collective: str, what: str,
                 value: int, carried: Optional[int] = None) -> None:
        why = ("MPI counts must lie in [0, 2**31)" if carried is None
               else f"the message carried {carried} bytes")
        super().__init__(
            f"rank {rank}: {collective} read {what} {value} off the wire; "
            f"{why}"
        )
        self.rank = rank
        self.collective = collective
        self.what = what
        self.value = value
        self.carried = carried

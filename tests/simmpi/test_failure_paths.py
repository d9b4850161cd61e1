"""Regression tests for the executor/network timeout & abort fixes.

Each class pins one failure-path bug:

* the watchdog used a fresh full timeout per thread join, letting a hung
  job survive up to ``nprocs * timeout`` wall seconds;
* ``Network.collect`` restarted its timeout from zero on every wakeup, so
  steady traffic on *unrelated* channels deferred a receive timeout
  indefinitely;
* ``Network.post`` ignored the abort flag, so survivors of a rank failure
  kept sending successfully (inflating the message statistics) until
  their next receive.
"""

import threading
import time

import numpy as np
import pytest

from repro.simmpi import (
    DeadlockError,
    ExecutionConfig,
    FaultPlan,
    InjectedCrashError,
    LOCAL,
    SimMPIError,
    run_spmd,
)
from repro.simmpi.errors import CommAbortedError, RankFailedError
from repro.simmpi.network import Envelope, Network

# Every failure scenario must behave identically on both backends and
# both wire modes (including coop x phantom, where nothing real crosses
# the fabric and deadlock detection is exact).
BACKEND_WIRE = [("threads", "bytes"), ("threads", "phantom"),
                ("coop", "bytes"), ("coop", "phantom")]


class TestWatchdogSharedDeadline:
    def test_slow_job_declared_dead_within_one_budget(self):
        # Six ranks finishing 0.4s apart (wall): the job needs ~2s, the
        # watchdog allows 1s.  With a *shared* deadline the watchdog fires
        # at ~1s; the old fresh-timeout-per-join code saw every join
        # complete within its own fresh 1s and declared success.
        def prog(comm):
            time.sleep(0.4 * comm.rank)
        start = time.monotonic()
        with pytest.raises(DeadlockError, match="no progress within"):
            run_spmd(prog, 6, config=ExecutionConfig(timeout=1.0))
        # Budget (1s) + teardown joins for the still-sleeping ranks (~1s)
        # must stay far under the old-code success path (~2s + no error)
        # and the nprocs*timeout worst case (6s).
        assert time.monotonic() - start < 4.0

    def test_fast_job_unaffected(self):
        res = run_spmd(lambda comm: comm.rank, 6,
                       config=ExecutionConfig(timeout=30.0))
        assert res.returns == list(range(6))


class TestCollectAbsoluteDeadline:
    def test_timeout_fires_under_background_traffic(self):
        # A receiver waiting on (0, 1, 0) with a 0.25s budget while other
        # channels stay busy every 40ms: each post wakes the waiter, and
        # the old code restarted the full 0.25s wait every time — the
        # timeout never fired.  With an absolute deadline it fires on time.
        net = Network(4, LOCAL)
        stop = threading.Event()

        def background():
            while not stop.is_set():
                net.post(Envelope(2, 3, 9, b"noise", 0.0))
                time.sleep(0.04)

        t = threading.Thread(target=background, daemon=True)
        t.start()
        try:
            start = time.monotonic()
            with pytest.raises(CommAbortedError, match="timed out"):
                net.collect(0, 1, 0, host_timeout=0.25)
            assert time.monotonic() - start < 1.0
        finally:
            stop.set()
            t.join(timeout=5)

    def test_timeout_without_traffic_still_fires(self):
        net = Network(2, LOCAL)
        with pytest.raises(CommAbortedError, match="timed out"):
            net.collect(0, 1, 0, host_timeout=0.05)

    def test_present_message_beats_zero_budget(self):
        net = Network(2, LOCAL)
        net.post(Envelope(0, 1, 0, b"x", 0.0))
        assert net.collect(0, 1, 0, host_timeout=0.0).payload == b"x"


class TestPostAfterAbort:
    def test_post_raises_rank_failed(self):
        net = Network(4, LOCAL)
        net.abort(2, ValueError("boom"))
        with pytest.raises(RankFailedError, match="rank 2"):
            net.post(Envelope(0, 1, 0, b"x", 0.0))

    def test_statistics_not_inflated(self):
        net = Network(4, LOCAL)
        net.post(Envelope(0, 1, 0, b"before", 0.0))
        net.abort(2, ValueError("boom"))
        with pytest.raises(RankFailedError):
            net.post(Envelope(0, 1, 0, b"after", 0.0))
        assert net.total_messages == 1
        assert net.total_bytes == len(b"before")

    def test_abort_beats_shutdown_in_post(self):
        # Matches collect: the failure cause outranks the teardown notice.
        net = Network(2, LOCAL)
        net.abort(0, ValueError("boom"))
        net.shutdown()
        with pytest.raises(RankFailedError):
            net.post(Envelope(0, 1, 0, b"x", 0.0))


class TestRootCausePreference:
    @pytest.mark.parametrize("backend,wire", BACKEND_WIRE)
    def test_original_exception_beats_secondary_casualties(self, backend,
                                                           wire):
        # Rank 2 dies of ValueError; ranks 0 and 1 die *because of it*
        # (RankFailedError from their receives).  The lowest-rank rule
        # alone would report rank 0's secondary error — the root cause
        # must win regardless of rank order.
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("root cause")
            comm.recv(np.zeros(1, dtype=np.uint8), 2)
        with pytest.raises(ValueError, match=r"rank 2.*root cause"):
            run_spmd(prog, 3,
                     config=ExecutionConfig(backend=backend, wire=wire,
                                            timeout=30))

    @pytest.mark.parametrize("backend,wire", BACKEND_WIRE)
    def test_receive_from_silent_rank_is_typed(self, backend, wire):
        # A receive that can never be satisfied must end in a typed error
        # on every backend x wire cell: exact deadlock detection on coop,
        # a receive timeout or the watchdog on threads.  Never a hang.
        def prog(comm):
            if comm.rank == 1:
                comm.recv(np.zeros(1, dtype=np.uint8), 0)
        with pytest.raises(SimMPIError):
            run_spmd(prog, 2,
                     config=ExecutionConfig(backend=backend, wire=wire,
                                            timeout=1.0))


class TestAbortFirstWriterWins:
    def test_second_abort_is_ignored(self):
        # Network.abort is idempotent: the first failure wins; a later
        # abort (another casualty racing in) must not replace the stored
        # cause or its context.
        net = Network(4, LOCAL)
        net.abort(1, ValueError("first"), clock=1.5, phase="exchange",
                  step=7)
        net.abort(2, RuntimeError("second"), clock=9.9, phase="rotate",
                  step=99)
        with pytest.raises(RankFailedError, match="first") as ei:
            net.post(Envelope(0, 3, 0, b"x", 0.0))
        err = ei.value
        assert err.failed_rank == 1
        assert err.clock == 1.5
        assert err.phase == "exchange"
        assert err.step == 7
        assert "rank 2" not in str(err)

    def test_two_ranks_crash_same_step_reports_one_primary(self):
        # Two planned crashes at the same op index on the threads backend:
        # both workers race to abort, exactly one wins, and the job fails
        # with a single InjectedCrashError naming one crashed rank (the
        # executor prefers the lowest-rank primary deterministically).
        plan = FaultPlan.parse("crash:rank=1,step=3;crash:rank=2,step=3")

        def prog(comm):
            out = np.zeros(1, dtype=np.uint8)
            inp = np.zeros(1, dtype=np.uint8)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            for tag in range(4):
                comm.sendrecv(out, right, tag, inp, left, tag)

        with pytest.raises(InjectedCrashError, match="rank 1"):
            run_spmd(prog, 4,
                     config=ExecutionConfig(backend="threads", timeout=30,
                                            fault_plan=plan,
                                            on_fault="fail-fast"))

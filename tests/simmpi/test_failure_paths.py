"""Regression tests for the executor/network abort fixes.

* ``Network.post`` ignored the abort flag, so survivors of a rank failure
  kept sending successfully (inflating the message statistics) until
  their next receive;
* secondary casualties of a failure must never mask its root cause, and
  concurrent aborts resolve first-writer-wins.
"""

import numpy as np
import pytest

from repro.simmpi import (
    ExecutionConfig,
    FaultPlan,
    InjectedCrashError,
    LOCAL,
    SimMPIError,
    run_spmd,
)
from repro.simmpi.errors import RankFailedError
from repro.simmpi.network import Envelope, Network

# Every failure scenario must behave identically on both wire modes
# (including phantom, where nothing real crosses the fabric).
BACKEND_WIRE = [("coop", "bytes"), ("coop", "phantom")]


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
                     config=ExecutionConfig(backend=backend, wire=wire))

    @pytest.mark.parametrize("backend,wire", BACKEND_WIRE)
    def test_receive_from_silent_rank_is_typed(self, backend, wire):
        # A receive that can never be satisfied must end in a typed error
        # on every wire: exact deadlock detection, never a hang.
        def prog(comm):
            if comm.rank == 1:
                comm.recv(np.zeros(1, dtype=np.uint8), 0)
        with pytest.raises(SimMPIError):
            run_spmd(prog, 2,
                     config=ExecutionConfig(backend=backend, wire=wire))


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
        # Two planned crashes at the same op index: both ranks abort, the
        # first wins, and the job fails with a single InjectedCrashError
        # naming one crashed rank (the executor prefers the lowest-rank
        # primary deterministically).
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
                     config=ExecutionConfig(fault_plan=plan,
                                            on_fault="fail-fast"))

"""Tests for the cooperative scheduler backend (``backend="coop"``)."""

import _thread
import os
import sys
import time

import numpy as np
import pytest

from repro.core.nonuniform import alltoallv
from repro.simmpi import (
    BACKENDS,
    CoopScheduler,
    DeadlockError,
    ExecutionConfig,
    LOCAL,
    Network,
    THETA,
    run_spmd,
)
from repro.workloads import (block_size_matrix, build_vargs,
                             distribution_by_name, verify_recv)

COOP = ExecutionConfig(backend="coop")


def _barriers(comm):
    for _ in range(8):
        comm.barrier()


def _failing_rank(comm):
    if comm.rank == 2:
        raise ValueError("root cause")
    comm.recv(np.zeros(1, dtype=np.uint8), 2)


def _deadlock(comm):
    if comm.rank == 0:
        comm.recv(np.zeros(1, dtype=np.uint8), 1, tag=7)


def _flaky_start(monkeypatch, fail_at):
    """Make the ``fail_at``-th carrier start raise; returns the error."""
    real = _thread.start_new_thread
    error = RuntimeError("injected carrier start failure")
    calls = []

    def start(fn, args):
        calls.append(fn)
        if len(calls) == fail_at:
            raise error
        return real(fn, args)

    monkeypatch.setattr(_thread, "start_new_thread", start)
    return error


def _settled_carrier_count(baseline):
    """``_thread._count()`` once exiting carriers are gone (raw carriers
    are invisible to ``threading.active_count()``)."""
    deadline = time.monotonic() + 5.0
    while _thread._count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    return _thread._count()


class TestBasics:
    def test_backends_constant(self):
        assert BACKENDS == ("coop", "tensor")

    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run_spmd(lambda comm: None, 2,
                     config=ExecutionConfig(backend="fibers"))

    def test_returns_per_rank(self):
        res = run_spmd(lambda comm: comm.rank * 10, 5, config=COOP)
        assert res.returns == [0, 10, 20, 30, 40]

    def test_args_and_rank_args(self):
        res = run_spmd(lambda comm, x, y: x + y + comm.rank, 3,
                       args=(100, 20), config=COOP)
        assert res.returns == [120, 121, 122]
        res = run_spmd(lambda comm, mine: mine * 2, 3,
                       rank_args=[(1,), (2,), (3,)], config=COOP)
        assert res.returns == [2, 4, 6]

    def test_point_to_point_ring(self):
        def prog(comm):
            p, r = comm.size, comm.rank
            out = np.full(4, r, dtype=np.uint8)
            inc = np.zeros(4, dtype=np.uint8)
            comm.sendrecv(out, (r + 1) % p, 3, inc, (r - 1) % p, 3)
            return int(inc[0])
        res = run_spmd(prog, 8, config=COOP)
        assert res.returns == [(r - 1) % 8 for r in range(8)]

    def test_collectives(self):
        def prog(comm):
            comm.barrier()
            buf = np.array([42 if comm.rank == 1 else 0], dtype=np.int64)
            comm.bcast(buf, root=1)
            total = comm.allreduce(comm.rank, op="sum")
            gathered = comm.allgather(np.array([comm.rank], dtype=np.int64))
            return int(buf[0]), total, list(gathered.ravel())
        res = run_spmd(prog, 6, config=COOP)
        for val, total, gathered in res.returns:
            assert val == 42
            assert total == 15
            assert gathered == list(range(6))

    def test_object_transport(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send_obj({"payload": [1, 2, 3]}, 1)
                return None
            if comm.rank == 1:
                return comm.recv_obj(0)
        res = run_spmd(prog, 2, config=COOP)
        assert res.returns[1] == {"payload": [1, 2, 3]}

    def test_trace_modes(self):
        def prog(comm):
            with comm.phase("work"):
                comm.charge_compute(1.0 + comm.rank)
        res = run_spmd(prog, 3,
                       config=ExecutionConfig(backend="coop", trace=True))
        assert res.phase_times()["work"] == pytest.approx(3.0)
        res = run_spmd(prog, 3,
                       config=ExecutionConfig(backend="coop", trace="metrics"))
        assert res.traces is None
        assert res.metrics is not None


class TestDeterminism:
    def test_rerun_bit_identical(self):
        def prog(comm):
            p, r = comm.size, comm.rank
            send = np.full(p * 8, r, dtype=np.uint8)
            recv = np.zeros(p * 8, dtype=np.uint8)
            comm.alltoall(send, recv, 8)
            return comm.clock
        a = run_spmd(prog, 16,
                     config=ExecutionConfig(machine=THETA, backend="coop",
                                            trace=False))
        b = run_spmd(prog, 16,
                     config=ExecutionConfig(machine=THETA, backend="coop",
                                            trace=False))
        assert a.clocks == b.clocks
        assert a.total_messages == b.total_messages

    def test_forced_gil_switches_change_nothing(self):
        # A waker still runs between its hand-off (or raw carrier start)
        # and its own park; GIL switches forced into that window must not
        # change the schedule or leave a carrier behind.
        def prog(comm):
            p = comm.size
            recv = np.zeros(p * 8, dtype=np.uint8)
            comm.alltoall(np.full(p * 8, comm.rank, dtype=np.uint8), recv, 8)
            comm.barrier()
            assert list(recv[::8]) == list(range(p))
            return comm.clock
        cfg = ExecutionConfig(machine=THETA, backend="coop", trace=False)
        baseline = _thread._count()
        reference = run_spmd(prog, 32, config=cfg)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [run_spmd(prog, 32, config=cfg) for _ in range(3)]
        finally:
            sys.setswitchinterval(old)
        for res in runs:
            assert res.clocks == reference.clocks
            assert res.total_messages == reference.total_messages
        assert _settled_carrier_count(baseline) == baseline


def _pingpong(comm):
    buf = np.zeros(8, dtype=np.uint8)
    peer = 1 - comm.rank
    for _ in range(3):
        if comm.rank == 0:
            comm.send(buf, peer, 1)
            comm.recv(buf, peer, 2)
        else:
            comm.recv(buf, peer, 1)
            comm.send(buf, peer, 2)


_SIZES_13 = block_size_matrix(distribution_by_name("power_law", 32), 13,
                              seed=7)


def _two_phase_r3(comm):
    vargs = build_vargs(comm.rank, _SIZES_13)
    alltoallv(comm, *vargs.as_tuple(), algorithm="two_phase_bruck", radix=3)
    verify_recv(comm.rank, _SIZES_13, vargs.recvbuf)


def _objects(comm):
    if comm.rank == 0:
        comm.send_obj({"payload": [1, 2, 3]}, 1)
    elif comm.rank == 1:
        return comm.recv_obj(0)


# Ranks in the order the scheduler resumed them (carrier starts included),
# recorded from the scheduler that switched through a loop thread.  They
# pin the (clock, rank) pop order that the direct hand-off reproduces.
_GOLDEN_RESUME_ORDER = {
    "pingpong": (_pingpong, 2, None, [0, 1, 0, 1, 0, 1, 0]),
    "barriers": (_barriers, 8, None, [
        0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5,
        6, 0, 7, 1, 2, 3, 4, 0, 5, 2, 6, 7, 1, 2, 3, 4, 0, 5, 2, 6, 7, 1,
        2, 3, 4, 0, 5, 2, 6, 7, 1, 2, 3, 4, 0, 5, 2, 6, 7, 1, 2, 3, 4, 0,
        5, 2, 6, 7, 1, 2, 3, 4]),
    "two_phase_r3": (_two_phase_r3, 13, None, [
        0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 1, 2, 3, 4, 5, 6, 0,
        1, 7, 8, 9, 10, 11, 12, 7, 8, 9, 3, 0, 2, 11, 5, 10, 4, 6, 7, 1,
        9, 8, 12, 5, 3, 0, 10, 1, 4, 6, 7, 2, 5, 12, 0, 8, 4, 11, 5, 10,
        1, 8, 3, 2, 9, 5, 0, 12, 7, 6, 11, 0, 10, 1, 4, 5, 3, 10, 7, 11,
        12, 8, 1, 3, 12, 2, 9, 7, 3, 5, 0, 6]),
    "objects": (_objects, 2, None, [0, 1]),
    "failing_rank": (_failing_rank, 3, ValueError, [0, 1, 2, 0, 1]),
    "deadlock": (_deadlock, 4, DeadlockError, [0, 1, 2, 3, 0]),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_RESUME_ORDER))
def test_golden_resume_order(monkeypatch, case):
    fn, nprocs, raises, expected = _GOLDEN_RESUME_ORDER[case]
    resumed = []
    real = CoopScheduler._resume

    def record(self, t):
        resumed.append(t.rank)
        real(self, t)

    monkeypatch.setattr(CoopScheduler, "_resume", record)
    cfg = ExecutionConfig(machine=THETA, backend="coop", trace=False)
    if raises is None:
        run_spmd(fn, nprocs, config=cfg)
    else:
        with pytest.raises(raises):
            run_spmd(fn, nprocs, config=cfg)
    assert resumed == expected


class TestExactDeadlockDetection:
    def test_immediate_despite_huge_timeout(self):
        # The scheduler proves the deadlock the instant no rank can
        # progress — no wall-clock budget is ever waited out.
        def prog(comm):
            if comm.rank == 0:
                comm.recv(np.zeros(1, dtype=np.uint8), 1, tag=7)
        start = time.monotonic()
        with pytest.raises(DeadlockError) as exc_info:
            run_spmd(prog, 4, config=COOP)
        assert time.monotonic() - start < 5.0
        msg = str(exc_info.value)
        assert "rank 0 waiting on src=1 tag=7" in msg
        assert "no runnable peer" in msg

    def test_pending_messages_reported(self):
        # Rank 1 sends on the wrong tag; the dump must show the orphan.
        def prog(comm):
            if comm.rank == 1:
                comm.send(np.zeros(2, dtype=np.uint8), 0, tag=9)
            if comm.rank == 0:
                comm.recv(np.zeros(2, dtype=np.uint8), 1, tag=5)
        with pytest.raises(DeadlockError, match=r"src=1 dst=0 tag=9"):
            run_spmd(prog, 2, config=COOP)

    def test_carrier_threads_unwound(self, monkeypatch):
        baseline = _thread._count()
        run_spmd(_barriers, 8, config=COOP)
        assert _settled_carrier_count(baseline) == baseline
        with pytest.raises(ValueError, match="root cause"):
            run_spmd(_failing_rank, 3, config=COOP)
        assert _settled_carrier_count(baseline) == baseline
        with pytest.raises(DeadlockError):
            run_spmd(_deadlock, 8, config=COOP)
        assert _settled_carrier_count(baseline) == baseline
        error = _flaky_start(monkeypatch, 5)
        with pytest.raises(RuntimeError) as exc_info:
            run_spmd(_barriers, 8, config=COOP)
        assert exc_info.value is error
        assert _settled_carrier_count(baseline) == baseline


class TestCarrierStartFailure:
    # The 1st start runs on the loop thread, the 5th inside a carrier's
    # hand-off (rank 3 blocks in the barrier and starts rank 4).
    @pytest.mark.parametrize("fail_at", [1, 5])
    def test_root_cause_raised_and_started_carriers_unwound(
            self, monkeypatch, fail_at):
        baseline = _thread._count()
        error = _flaky_start(monkeypatch, fail_at)
        with pytest.raises(RuntimeError) as exc_info:
            run_spmd(_barriers, 8, config=COOP)
        assert exc_info.value is error  # not a spurious DeadlockError
        assert _settled_carrier_count(baseline) == baseline


class TestFailurePropagation:
    def test_exception_reraised_with_rank(self):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("kaboom")
        with pytest.raises(ValueError, match=r"rank 2.*kaboom"):
            run_spmd(prog, 4, config=COOP)

    def test_blocked_peers_released_and_root_cause_wins(self):
        # Rank 2 dies; ranks 0 and 1 are parked on receives from it.  The
        # abort must wake them, and the *original* ValueError (not their
        # secondary RankFailedError) must surface.
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("root cause")
            comm.recv(np.zeros(1, dtype=np.uint8), 2)
        with pytest.raises(ValueError, match=r"rank 2.*root cause"):
            run_spmd(prog, 3, config=COOP)

    def test_send_after_peer_failure_raises(self):
        # Rank 0 fails first (the scheduler runs it first); rank 1's later
        # send must be refused instead of silently counted.
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("down")
            comm.barrier()  # parks rank 1 until the abort wakes it
        with pytest.raises(ValueError, match="down"):
            run_spmd(prog, 2, config=COOP)


class TestScale:
    def test_p256_uniform_bruck(self):
        # Hundreds of ranks: one parked carrier each, quick to run.
        from repro.core.registry import get_algorithm
        fn = get_algorithm("zero_rotation_bruck", kind="uniform").fn
        p = 256

        def prog(comm):
            send = np.arange(p, dtype=np.uint8)
            recv = np.zeros(p, dtype=np.uint8)
            fn(comm, send, recv, 1)
            assert list(recv) == [comm.rank] * p
            return comm.clock
        res = run_spmd(prog, p,
                       config=ExecutionConfig(machine=THETA, backend="coop",
                                              trace=False))
        assert res.elapsed > 0

    @pytest.mark.skipif(not os.environ.get("REPRO_LARGE_P"),
                        reason="set REPRO_LARGE_P=1 for the P=1024 smoke")
    def test_p1024_nonuniform_alltoall(self):
        from repro.core.registry import get_algorithm
        from repro.workloads import (block_size_matrix, build_vargs,
                                     distribution_by_name, verify_recv)
        p = 1024
        sizes = block_size_matrix(distribution_by_name("power_law", 8), p,
                                  seed=0)
        fn = get_algorithm("two_phase_bruck", kind="nonuniform").fn

        def prog(comm):
            vargs = build_vargs(comm.rank, sizes)
            fn(comm, *vargs.as_tuple())
            verify_recv(comm.rank, sizes, vargs.recvbuf)
            return comm.clock
        res = run_spmd(prog, p,
                       config=ExecutionConfig(machine=THETA, backend="coop",
                                              trace="metrics"))
        assert res.metrics is not None
        assert res.elapsed > 0
        assert all(c > 0 for c in res.clocks)


class TestDirectSchedulerUse:
    def test_coop_network_outside_run_rejected(self):
        net = Network(2, LOCAL)
        with pytest.raises(RuntimeError, match="outside a scheduler run"):
            net.collect(0, 1, 0)

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            CoopScheduler(0)

"""Tests for the cooperative scheduler backend (``backend="coop"``)."""

import os
import threading
import time

import numpy as np
import pytest

from repro.simmpi import (
    BACKENDS,
    CoopNetwork,
    CoopScheduler,
    DeadlockError,
    ExecutionConfig,
    LOCAL,
    THETA,
    run_spmd,
)

COOP = ExecutionConfig(backend="coop")


class TestBasics:
    def test_backends_constant(self):
        assert BACKENDS == ("threads", "coop", "tensor")

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


class TestExactDeadlockDetection:
    def test_immediate_despite_huge_timeout(self):
        # The coop backend proves the deadlock the instant no rank can
        # progress — the wall-clock watchdog value must be irrelevant.
        def prog(comm):
            if comm.rank == 0:
                comm.recv(np.zeros(1, dtype=np.uint8), 1, tag=7)
        start = time.monotonic()
        with pytest.raises(DeadlockError) as exc_info:
            run_spmd(prog, 4,
                     config=ExecutionConfig(backend="coop", timeout=100000))
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

    def test_carrier_threads_unwound(self):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(np.zeros(1, dtype=np.uint8), 1, tag=7)
        before = threading.active_count()
        with pytest.raises(DeadlockError):
            run_spmd(prog, 8, config=COOP)
        deadline = time.monotonic() + 5.0
        while (threading.active_count() > before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() <= before


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
        # Well past the thread backend's comfort zone, quick under coop.
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
        sched = CoopScheduler(2)
        net = CoopNetwork(2, LOCAL, scheduler=sched)
        with pytest.raises(RuntimeError, match="outside a scheduler run"):
            net.collect(0, 1, 0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sized for"):
            CoopNetwork(4, LOCAL, scheduler=CoopScheduler(2))

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            CoopScheduler(0)

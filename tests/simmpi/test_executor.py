"""Tests for the SPMD launcher: results, failures, phase aggregation."""

import numpy as np
import pytest

from repro.simmpi import ExecutionConfig, LOCAL, RankFailedError, run_spmd


class TestBasics:
    def test_returns_per_rank(self):
        res = run_spmd(lambda comm: comm.rank * 10, 5)
        assert res.returns == [0, 10, 20, 30, 40]

    def test_args_shared(self):
        res = run_spmd(lambda comm, x, y: x + y + comm.rank, 3,
                       args=(100, 20))
        assert res.returns == [120, 121, 122]

    def test_rank_args(self):
        res = run_spmd(lambda comm, mine: mine * 2, 3,
                       rank_args=[(1,), (2,), (3,)])
        assert res.returns == [2, 4, 6]

    def test_rank_args_wrong_length(self):
        with pytest.raises(ValueError, match="one entry per rank"):
            run_spmd(lambda comm, x: x, 3, rank_args=[(1,)])

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            run_spmd(lambda comm: None, 0)

    def test_elapsed_is_max_clock(self):
        def prog(comm):
            comm.charge_compute(float(comm.rank))
        res = run_spmd(prog, 4)
        assert res.elapsed == pytest.approx(3.0)
        assert res.clocks == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_single_rank(self):
        res = run_spmd(lambda comm: comm.size, 1)
        assert res.returns == [1]
        assert res.elapsed == 0.0

    def test_trace_disabled(self):
        res = run_spmd(lambda comm: None, 2,
                       config=ExecutionConfig(trace=False))
        assert res.traces is None
        with pytest.raises(ValueError, match="trace=False"):
            res.phase_times()

    def test_message_statistics(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(10, dtype=np.uint8), 1)
            elif comm.rank == 1:
                comm.recv(np.zeros(10, dtype=np.uint8), 0)
        res = run_spmd(prog, 2)
        assert res.total_messages == 1
        assert res.total_bytes == 10


class TestFailurePropagation:
    def test_exception_reraised_with_rank(self):
        def prog(comm):
            if comm.rank == 2:
                raise ValueError("kaboom")
        with pytest.raises(ValueError, match=r"rank 2.*kaboom"):
            run_spmd(prog, 4)

    def test_peers_blocked_on_failed_rank_release(self):
        # Rank 1 dies; rank 0 is blocked receiving from it.  The run must
        # terminate with the original failure, not hang.
        def prog(comm):
            if comm.rank == 1:
                raise RuntimeError("dead")
            comm.recv(np.zeros(1, dtype=np.uint8), 1)
        with pytest.raises((RuntimeError, RankFailedError)):
            run_spmd(prog, 2)

    def test_lowest_rank_failure_reported_first(self):
        def prog(comm):
            raise RuntimeError(f"boom-{comm.rank}")
        with pytest.raises(RuntimeError, match="boom-0"):
            run_spmd(prog, 3)

    def test_exception_without_one_message_constructor_tagged(self):
        # numpy's _ArrayMemoryError takes (shape, dtype), not a message;
        # building one allocates nothing.
        try:
            from numpy._core._exceptions import _ArrayMemoryError
        except ImportError:  # numpy < 2
            from numpy.core._exceptions import _ArrayMemoryError

        def prog(comm):
            if comm.rank == 1:
                raise _ArrayMemoryError((1 << 40,), np.dtype(np.uint8))
        with pytest.raises(MemoryError, match=r"\[simulated rank 1\]") as ei:
            run_spmd(prog, 3)
        chain, exc = [], ei.value
        while exc is not None:
            chain.append(exc)
            exc = exc.__cause__ or exc.__context__
        assert not any(isinstance(e, TypeError) for e in chain)
        assert isinstance(chain[1], _ArrayMemoryError)


class TestPhaseAggregation:
    def test_phase_times_max_over_ranks(self):
        def prog(comm):
            with comm.phase("work"):
                comm.charge_compute(1.0 + comm.rank)
        res = run_spmd(prog, 3)
        assert res.phase_times()["work"] == pytest.approx(3.0)

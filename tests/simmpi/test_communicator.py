"""Tests for the per-rank communicator: point-to-point, collectives,
cost hooks, and clock determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import (
    LOCAL,
    THETA,
    ExecutionConfig,
    InvalidRankError,
    InvalidTagError,
    TruncationError,
    run_spmd,
)
from repro.simmpi.datatype import IndexedBlocks
from repro.simmpi.tensor import _Engine
from repro.timing.engine import copy_time_blocks

from ..conftest import SMALL_PROCS


class TestPointToPoint:
    def test_send_recv_bytes(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(10, dtype=np.int32), 1, tag=5)
            elif comm.rank == 1:
                buf = np.zeros(10, dtype=np.int32)
                n = comm.recv(buf, 0, tag=5)
                assert n == 40
                assert np.array_equal(buf, np.arange(10))
        run_spmd(prog, 2)

    def test_recv_shorter_message_leaves_tail(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.full(3, 9, dtype=np.uint8), 1)
            else:
                buf = np.full(8, 42, dtype=np.uint8)
                n = comm.recv(buf, 0)
                assert n == 3
                assert buf[:3].tolist() == [9, 9, 9]
                assert buf[3:].tolist() == [42] * 5
        run_spmd(prog, 2)

    def test_truncation_error(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100, dtype=np.uint8), 1)
            else:
                comm.recv(np.zeros(10, dtype=np.uint8), 0)
        with pytest.raises(TruncationError):
            run_spmd(prog, 2)

    def test_sendrecv_pairwise(self):
        def prog(comm):
            out = np.array([comm.rank], dtype=np.int64)
            incoming = np.zeros(1, dtype=np.int64)
            peer = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            comm.sendrecv(out, peer, 3, incoming, src, 3)
            assert incoming[0] == src
        run_spmd(prog, 5)

    def test_nonblocking_waitall(self):
        def prog(comm):
            p = comm.size
            reqs = []
            bufs = [np.zeros(1, dtype=np.int64) for _ in range(p)]
            for peer in range(p):
                if peer != comm.rank:
                    reqs.append(comm.irecv(bufs[peer], peer, tag=1))
            for peer in range(p):
                if peer != comm.rank:
                    reqs.append(comm.isend(
                        np.array([comm.rank * 100 + peer]), peer, tag=1))
            comm.waitall(reqs)
            for peer in range(p):
                if peer != comm.rank:
                    assert bufs[peer][0] == peer * 100 + comm.rank
        run_spmd(prog, 4)

    def test_wait_is_idempotent(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend(np.zeros(4, dtype=np.uint8), 1)
                req.wait()
                req.wait()
            else:
                buf = np.zeros(4, dtype=np.uint8)
                req = comm.irecv(buf, 0)
                req.wait()
                clock = comm.clock
                req.wait()  # second wait: no-op, no clock change
                assert comm.clock == clock
        run_spmd(prog, 2)

    def test_probe_nbytes(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(17, dtype=np.uint8), 1, tag=2)
                comm.barrier()
            else:
                comm.barrier()
                assert comm.probe_nbytes(0, tag=2) == 17
                assert comm.probe_nbytes(0, tag=9) is None
                comm.recv(np.zeros(17, dtype=np.uint8), 0, tag=2)
        run_spmd(prog, 2)


class TestValidation:
    def test_invalid_peer(self):
        def prog(comm):
            comm.send(np.zeros(1, dtype=np.uint8), 99)
        with pytest.raises(InvalidRankError):
            run_spmd(prog, 2)

    def test_negative_tag(self):
        def prog(comm):
            comm.isend(np.zeros(1, dtype=np.uint8), 0, tag=-1)
        with pytest.raises(InvalidTagError):
            run_spmd(prog, 2)

    def test_reserved_tag_space(self):
        from repro.simmpi import MAX_USER_TAG

        def prog(comm):
            comm.isend(np.zeros(1, dtype=np.uint8), 0, tag=MAX_USER_TAG)
        with pytest.raises(InvalidTagError):
            run_spmd(prog, 2)

    def test_non_contiguous_buffer_rejected(self):
        def prog(comm):
            arr = np.zeros((4, 4), dtype=np.uint8)[:, ::2]
            if comm.rank == 1:
                comm.irecv(arr, 0).wait()
            else:
                comm.send(np.zeros(8, dtype=np.uint8), 1)
        with pytest.raises(ValueError, match="contiguous"):
            run_spmd(prog, 2)


class TestObjectTransport:
    def test_pickled_roundtrip(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send_obj({"a": [1, 2, 3], "b": (4, 5)}, 1)
            elif comm.rank == 1:
                assert comm.recv_obj(0) == {"a": [1, 2, 3], "b": (4, 5)}
        run_spmd(prog, 2)


class TestCollectives:
    @pytest.mark.parametrize("p", SMALL_PROCS)
    def test_barrier_completes(self, p):
        run_spmd(lambda comm: comm.barrier(), p)

    @pytest.mark.parametrize("p", SMALL_PROCS)
    @pytest.mark.parametrize("root", [0, -1])
    def test_bcast(self, p, root):
        root_rank = (root % p)

        def prog(comm):
            buf = (np.arange(16, dtype=np.int64)
                   if comm.rank == root_rank else np.zeros(16, dtype=np.int64))
            comm.bcast(buf, root=root_rank)
            assert np.array_equal(buf, np.arange(16))
        run_spmd(prog, p)

    @pytest.mark.parametrize("p", SMALL_PROCS)
    @pytest.mark.parametrize("op,expect", [
        ("max", lambda p: p - 1),
        ("min", lambda p: 0),
        ("sum", lambda p: p * (p - 1) // 2),
    ])
    def test_allreduce(self, p, op, expect):
        def prog(comm):
            return comm.allreduce(comm.rank, op=op)
        res = run_spmd(prog, p)
        assert res.returns == [expect(p)] * p

    def test_allreduce_preserves_int_type(self):
        def prog(comm):
            v = comm.allreduce(comm.rank, op="max")
            assert isinstance(v, int)
            f = comm.allreduce(float(comm.rank), op="sum")
            assert isinstance(f, float)
        run_spmd(prog, 4)

    def test_allreduce_unknown_op(self):
        def prog(comm):
            comm.allreduce(1, op="prod")
        with pytest.raises(ValueError, match="op"):
            run_spmd(prog, 2)

    @pytest.mark.parametrize("p", SMALL_PROCS)
    def test_allgather(self, p):
        def prog(comm):
            got = comm.allgather(np.array([comm.rank, comm.rank * 2],
                                          dtype=np.int32))
            assert got.shape == (p, 2)
            for j in range(p):
                assert got[j].tolist() == [j, j * 2]
        run_spmd(prog, p)

    @pytest.mark.parametrize("p", SMALL_PROCS)
    def test_builtin_alltoall(self, p):
        n = 6

        def prog(comm):
            send = np.empty(p * n, dtype=np.uint8)
            for j in range(p):
                send[j * n:(j + 1) * n] = (comm.rank * 13 + j) % 256
            recv = np.zeros(p * n, dtype=np.uint8)
            comm.alltoall(send, recv, n)
            for j in range(p):
                assert (recv[j * n:(j + 1) * n]
                        == (j * 13 + comm.rank) % 256).all()
        run_spmd(prog, p)

    def test_builtin_alltoall_buffer_too_small(self):
        def prog(comm):
            comm.alltoall(np.zeros(2, dtype=np.uint8),
                          np.zeros(100, dtype=np.uint8), 4)
        with pytest.raises(ValueError, match="bytes"):
            run_spmd(prog, 3)

    def test_builtin_alltoallv_bad_counts_length(self):
        def prog(comm):
            comm.alltoallv(np.zeros(4, dtype=np.uint8), [1, 1, 1], [0, 1, 2],
                           np.zeros(4, dtype=np.uint8), [1, 1], [0, 1])
        with pytest.raises(ValueError, match="length"):
            run_spmd(prog, 2)


class TestCostHooks:
    def test_charge_compute_advances_clock(self):
        def prog(comm):
            before = comm.clock
            comm.charge_compute(1.5)
            assert comm.clock == pytest.approx(before + 1.5)
        run_spmd(prog, 1)

    def test_charge_compute_negative_rejected(self):
        def prog(comm):
            comm.charge_compute(-1.0)
        with pytest.raises(ValueError):
            run_spmd(prog, 1)

    def test_charge_copy_zero_free(self):
        def prog(comm):
            before = comm.clock
            comm.charge_copy(0)
            assert comm.clock == before
        run_spmd(prog, 1)

    def test_pack_unpack_roundtrip_and_charges(self, machine):
        def prog(comm):
            buf = np.arange(64, dtype=np.uint8)
            blocks = IndexedBlocks([(0, 8), (32, 8), (16, 4)])
            before = comm.clock
            packed = comm.pack(buf, blocks)
            assert comm.clock == pytest.approx(
                before + machine.datatype_time(3, 20))
            out = np.zeros(64, dtype=np.uint8)
            comm.unpack(out, blocks, packed)
            assert np.array_equal(out[0:8], buf[0:8])
            assert np.array_equal(out[32:40], buf[32:40])
            assert np.array_equal(out[16:20], buf[16:20])
        run_spmd(prog, 1, config=ExecutionConfig(machine=machine))

    def test_phase_records_intervals(self):
        def prog(comm):
            with comm.phase("alpha"):
                comm.charge_compute(1.0)
            with comm.phase("beta"):
                comm.charge_compute(2.0)
                with comm.phase("beta.inner"):
                    comm.charge_compute(0.5)
        res = run_spmd(prog, 1)
        times = res.traces[0].phase_times()
        assert times["alpha"] == pytest.approx(1.0)
        assert times["beta"] == pytest.approx(2.5)
        assert times["beta.inner"] == pytest.approx(0.5)


@given(counts=st.lists(st.integers(-2 ** 40, 2 ** 40) | st.just(0),
                       max_size=40),
       start=st.floats(0.0, 1.0), lanes=st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_one_batch_rule_in_both_engines(counts, start, lanes):
    """One ``charge_copies`` call advances a coop clock, and every tensor
    lane, by exactly ``copy_time_blocks(nz, bytes)`` over the positive
    entries — zeros, negatives and empty batches included."""
    arr = np.array(counts, dtype=np.int64)
    pos = arr[arr > 0]
    expected = start + copy_time_blocks(THETA, pos.size, pos.sum())

    def prog(comm):
        comm.charge_compute(start)
        comm.charge_copies(arr)
        return comm.clock

    coop = run_spmd(prog, 1, config=ExecutionConfig(machine=THETA))
    assert coop.returns[0] == expected

    eng = _Engine(lanes, THETA, None, lockstep=False)
    eng.clocks[:] = start
    eng.charge_copies(arr)                              # shared batch
    assert eng.clocks.tolist() == [float(expected)] * lanes
    # Per-lane batches: lane i charges the first i entries.
    rows = np.zeros((lanes, arr.size), dtype=np.int64)
    for i in range(lanes):
        rows[i, :i] = arr[:i]
    eng.clocks[:] = start
    eng.charge_copies(rows)
    assert eng.clocks.tolist() == [
        float(start + copy_time_blocks(THETA, (arr[:i] > 0).sum(),
                                       arr[:i][arr[:i] > 0].sum()))
        for i in range(lanes)]


class TestDeterminism:
    def test_clocks_reproducible_across_runs(self):
        def prog(comm):
            p = comm.size
            n = 16
            send = np.zeros(p * n, dtype=np.uint8)
            recv = np.zeros(p * n, dtype=np.uint8)
            comm.alltoall(send, recv, n)
            comm.allreduce(comm.rank, op="sum")
            comm.barrier()
        a = run_spmd(prog, 8, config=ExecutionConfig(machine=THETA))
        b = run_spmd(prog, 8, config=ExecutionConfig(machine=THETA))
        assert a.clocks == b.clocks

    def test_clock_independent_of_machine_for_structure(self):
        # Different profiles give different times but identical traffic.
        def prog(comm):
            send = np.zeros(comm.size * 4, dtype=np.uint8)
            recv = np.zeros(comm.size * 4, dtype=np.uint8)
            comm.alltoall(send, recv, 4)
        a = run_spmd(prog, 4, config=ExecutionConfig(machine=THETA))
        b = run_spmd(prog, 4, config=ExecutionConfig(machine=LOCAL))
        assert a.total_messages == b.total_messages
        assert a.total_bytes == b.total_bytes
        assert a.elapsed != b.elapsed

"""Correctness tests for the non-uniform all-to-all algorithms —
the paper's main contribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import bruck_substeps
from repro.core.nonuniform import alltoallv
from repro.core.registry import get_algorithm, list_algorithms
from repro.simmpi import (LOCAL, MAX_USER_TAG, THETA, ExecutionConfig,
                          run_spmd)
from repro.workloads import (
    NormalBlocks,
    PowerLawBlocks,
    UniformBlocks,
    block_size_matrix,
    build_vargs,
    verify_recv,
)

from ..conftest import SMALL_PROCS

ALGORITHMS = list_algorithms("nonuniform")
ON_LOCAL = ExecutionConfig(machine=LOCAL)


def vprog(algorithm, sizes, **kwargs):
    def prog(comm):
        args = build_vargs(comm.rank, sizes)
        alltoallv(comm, *args.as_tuple(), algorithm=algorithm, **kwargs)
        verify_recv(comm.rank, sizes, args.recvbuf)
        return True
    return prog


class TestCorrectness:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("p", SMALL_PROCS)
    def test_uniform_distribution_sizes(self, algorithm, p):
        sizes = block_size_matrix(UniformBlocks(32), p, seed=3)
        assert all(run_spmd(vprog(algorithm, sizes), p).returns)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_power_law_sizes(self, algorithm):
        sizes = block_size_matrix(PowerLawBlocks(128, base=0.95), 9, seed=1)
        run_spmd(vprog(algorithm, sizes), 9)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_normal_sizes(self, algorithm):
        sizes = block_size_matrix(NormalBlocks(96), 8, seed=2)
        run_spmd(vprog(algorithm, sizes), 8)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_zero_sizes(self, algorithm):
        sizes = np.zeros((5, 5), dtype=np.int64)
        res = run_spmd(vprog(algorithm, sizes), 5)
        if algorithm in ("padded_bruck", "two_phase_bruck"):
            # the allreduced max_n == 0 ends both before any exchange
            assert not [m for t in res.traces for m in t.messages()
                        if m[1] < MAX_USER_TAG]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_many_zero_blocks(self, algorithm):
        # Sparse pattern: only a few pairs exchange anything.
        sizes = np.zeros((7, 7), dtype=np.int64)
        sizes[0, 3] = 17
        sizes[3, 0] = 5
        sizes[6, 6] = 9   # self block only
        sizes[2, 4] = 1
        run_spmd(vprog(algorithm, sizes), 7)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_rank(self, algorithm):
        sizes = np.array([[13]], dtype=np.int64)
        run_spmd(vprog(algorithm, sizes), 1)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_extreme_imbalance(self, algorithm):
        # One giant block amid tiny ones: stresses the working buffer
        # sizing of two-phase Bruck and padding overhead of padded Bruck.
        p = 6
        sizes = np.ones((p, p), dtype=np.int64)
        sizes[1, 4] = 4096
        run_spmd(vprog(algorithm, sizes), p)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_asymmetric_sizes(self, algorithm):
        # sizes[s][d] != sizes[d][s]: directionality must be preserved.
        p = 5
        sizes = (np.arange(p)[:, None] * 10
                 + np.arange(p)[None, :] + 1).astype(np.int64)
        run_spmd(vprog(algorithm, sizes), p)

    def test_unknown_algorithm(self):
        def prog(comm):
            z = np.zeros(1, dtype=np.uint8)
            alltoallv(comm, z, [0, 0], [0, 0], z, [0, 0], [0, 0],
                      algorithm="bogus")
        with pytest.raises(KeyError, match="bogus"):
            run_spmd(prog, 2)

    @pytest.mark.parametrize("algorithm",
                             [n for n in ALGORITHMS if n != "vendor"])
    def test_sendbuf_not_modified(self, algorithm):
        sizes = block_size_matrix(UniformBlocks(16), 6, seed=4)

        def prog(comm):
            args = build_vargs(comm.rank, sizes)
            orig = args.sendbuf.copy()
            alltoallv(comm, *args.as_tuple(), algorithm=algorithm)
            assert np.array_equal(args.sendbuf, orig)
        run_spmd(prog, 6)

    @given(p=st.integers(2, 10), max_n=st.integers(0, 64),
           seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_two_phase_random_matrices(self, p, max_n, seed):
        sizes = block_size_matrix(UniformBlocks(max_n), p, seed=seed)
        run_spmd(vprog("two_phase_bruck", sizes), p)

    @given(p=st.integers(2, 10), max_n=st.integers(0, 64),
           seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_padded_random_matrices(self, p, max_n, seed):
        sizes = block_size_matrix(UniformBlocks(max_n), p, seed=seed)
        run_spmd(vprog("padded_bruck", sizes), p)


class TestTwoPhaseInternals:
    def test_metadata_overflow_guard(self):
        def prog(comm):
            sizes = np.full((2, 2), 2 ** 40, dtype=np.int64)
            counts = sizes[comm.rank].astype(np.int64)
            buf = np.zeros(4, dtype=np.uint8)  # never reached
            alltoallv(comm, buf, counts, [0, 0], buf, counts, [0, 0],
                      algorithm="two_phase_bruck")
        with pytest.raises(ValueError, match="metadata"):
            run_spmd(prog, 2)

    def test_mismatched_recvcounts_detected(self):
        # Receiver promises fewer bytes than the sender transmits.
        def prog(comm):
            p = comm.size
            sendcounts = np.full(p, 8, dtype=np.int64)
            sdispls = np.arange(p, dtype=np.int64) * 8
            sendbuf = np.zeros(8 * p, dtype=np.uint8)
            recvcounts = np.full(p, 8, dtype=np.int64)
            if comm.rank == 1:
                recvcounts[0] = 4  # lie about what rank 0 sends us
            rdispls = np.arange(p, dtype=np.int64) * 8
            recvbuf = np.zeros(8 * p, dtype=np.uint8)
            alltoallv(comm, sendbuf, sendcounts, sdispls, recvbuf,
                      recvcounts, rdispls, algorithm="two_phase_bruck")
        # The offending rank raises ValueError; peers may surface it as
        # RankFailedError.  Either way the cause must be named.
        from repro.simmpi import RankFailedError
        with pytest.raises((ValueError, RankFailedError), match="mismatch"):
            run_spmd(prog, 4)

    def test_two_messages_per_step(self):
        from repro.core.common import num_steps
        from repro.simmpi import MAX_USER_TAG
        p = 8
        sizes = block_size_matrix(UniformBlocks(32), p, seed=0)
        res = run_spmd(vprog("two_phase_bruck", sizes), p, config=ON_LOCAL)
        for trace in res.traces:
            # metadata + data per step (the 2*alpha*logP of Eq. 2);
            # internal-tag traffic (the setup allreduce) excluded.
            user = [e for e in trace.sends if e.tag < MAX_USER_TAG]
            assert len(user) == 2 * num_steps(p)

    def test_metadata_bytes_are_4_per_block(self):
        from repro.core.common import num_steps, send_block_distances
        from repro.simmpi import MAX_USER_TAG
        p = 8
        sizes = block_size_matrix(UniformBlocks(32), p, seed=0)
        res = run_spmd(vprog("two_phase_bruck", sizes), p, config=ON_LOCAL)
        for trace in res.traces:
            user = [e for e in trace.sends if e.tag < MAX_USER_TAG]
            for k in range(num_steps(p)):
                meta = user[2 * k]
                m = len(send_block_distances(k, p))
                assert meta.nbytes == 4 * m


class TestBruckFamilyWirePattern:
    FAMILY = ("padded_bruck", "two_phase_bruck", "locality_padded_bruck",
              "locality_two_phase_bruck")  # the last two at ppn=1: flat

    @pytest.mark.parametrize("p", [5, 13, 16])
    @pytest.mark.parametrize("algorithm, radix", [
        (name, r) for name in FAMILY for r in (2, 3, 4, 8)
        if r == 2 or get_algorithm(name, "nonuniform").supports_radix])
    def test_substep_peers_and_framing(self, algorithm, radix, p):
        # Substep (k, z) goes to the rank z * r**k below: padded as one
        # message of max_n per moving block, two-phase as a 4-byte-per-
        # block size array and then the data, both to that same peer.
        sizes = block_size_matrix(UniformBlocks(48), p, seed=3)
        max_n = int(sizes.max())
        res = run_spmd(vprog(algorithm, sizes, radix=radix), p,
                       config=ON_LOCAL)
        subs = bruck_substeps(p, radix)
        for trace in res.traces:
            user = [(dst, nbytes) for dst, tag, nbytes in trace.messages()
                    if tag < MAX_USER_TAG]
            peers = [(trace.rank - sub.jump) % p for sub in subs]
            moving = [len(sub.distances) for sub in subs]
            if "padded" in algorithm:
                assert user == [(d, m * max_n)
                                for d, m in zip(peers, moving)]
            else:
                assert user[0::2] == [(d, 4 * m)
                                      for d, m in zip(peers, moving)]
                assert [d for d, _ in user[1::2]] == peers


class TestPaddedInternals:
    def test_padded_message_sizes_use_global_max(self):
        from repro.core.common import num_steps, send_block_distances
        p = 8
        sizes = block_size_matrix(UniformBlocks(50), p, seed=0)
        max_n = int(sizes.max())
        res = run_spmd(vprog("padded_bruck", sizes), p, config=ON_LOCAL)
        from repro.simmpi import MAX_USER_TAG
        for trace in res.traces:
            # user-tag traffic only: one padded message per step
            data_sends = [e for e in trace.sends if e.tag < MAX_USER_TAG]
            assert len(data_sends) == num_steps(p)
            for k, e in enumerate(data_sends):
                m = len(send_block_distances(k, p))
                assert e.nbytes == m * max_n

    def test_padded_moves_more_bytes_than_two_phase(self):
        p = 8
        sizes = block_size_matrix(UniformBlocks(64), p, seed=1)
        padded = run_spmd(vprog("padded_bruck", sizes), p, config=ON_LOCAL)
        tp = run_spmd(vprog("two_phase_bruck", sizes), p, config=ON_LOCAL)
        assert padded.total_bytes > tp.total_bytes

    def test_padded_alltoall_uses_vendor_exchange(self):
        # padded_alltoall: pad phase + P-1 equal messages (spread-out),
        # not log(P) Bruck messages.
        p = 8
        sizes = block_size_matrix(UniformBlocks(32), p, seed=0)
        res = run_spmd(vprog("padded_alltoall", sizes), p, config=ON_LOCAL)
        max_n = int(sizes.max())
        for trace in res.traces:
            data_sends = [e for e in trace.sends if e.nbytes == max_n]
            assert len(data_sends) == p - 1
            assert all(e.nbytes == max_n for e in data_sends)


class TestSpreadOutInternals:
    def test_one_message_per_peer_with_true_sizes(self):
        p = 7
        sizes = block_size_matrix(UniformBlocks(40), p, seed=5)
        res = run_spmd(vprog("spread_out", sizes), p, config=ON_LOCAL)
        for trace in res.traces:
            r = trace.rank
            sent = {e.dst: e.nbytes for e in trace.sends}
            assert len(sent) == p - 1
            for dst, nbytes in sent.items():
                assert nbytes == sizes[r, dst]

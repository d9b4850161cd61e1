"""Tests for the grouped (leader-based) alltoallv — the §6 related work."""

import numpy as np
import pytest

from repro.core.nonuniform.grouped import grouped_alltoallv
from repro.simmpi import LOCAL, THETA, ExecutionConfig, run_spmd
from repro.workloads import UniformBlocks, block_size_matrix, build_vargs, verify_recv


def run(sizes, group_size, machine=LOCAL, trace=False):
    def prog(comm):
        args = build_vargs(comm.rank, sizes)
        grouped_alltoallv(comm, *args.as_tuple(), group_size=group_size)
        verify_recv(comm.rank, sizes, args.recvbuf)
    return run_spmd(prog, sizes.shape[0],
                    config=ExecutionConfig(machine=machine, trace=trace))


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 16])
    @pytest.mark.parametrize("g", [1, 2, 4, 8])
    def test_delivery(self, p, g):
        sizes = block_size_matrix(UniformBlocks(32), p, seed=p * 10 + g)
        run(sizes, g)

    def test_group_size_larger_than_p(self):
        sizes = block_size_matrix(UniformBlocks(16), 4, seed=1)
        run(sizes, 64)  # degenerates to a single group

    def test_group_size_one_is_pure_peer_exchange(self):
        sizes = block_size_matrix(UniformBlocks(16), 6, seed=2)
        run(sizes, 1)

    def test_zero_sizes(self):
        run(np.zeros((6, 6), dtype=np.int64), 2)

    def test_invalid_group_size(self):
        sizes = block_size_matrix(UniformBlocks(8), 2, seed=0)
        with pytest.raises(ValueError, match="group_size"):
            run(sizes, 0)

    def test_non_canonical_layout_rejected(self):
        def prog(comm):
            p = comm.size
            counts = np.full(p, 4, dtype=np.int64)
            displs = np.arange(p, dtype=np.int64) * 8  # gappy layout
            buf = np.zeros(8 * p, dtype=np.uint8)
            grouped_alltoallv(comm, buf, counts, displs, buf.copy(),
                              counts, np.arange(p, dtype=np.int64) * 4,
                              group_size=2)
        with pytest.raises(ValueError, match="canonical"):
            run_spmd(prog, 4)

    def test_registry_dispatch(self):
        from repro.core.nonuniform import alltoallv
        sizes = block_size_matrix(UniformBlocks(16), 8, seed=3)

        def prog(comm):
            args = build_vargs(comm.rank, sizes)
            alltoallv(comm, *args.as_tuple(), algorithm="grouped")
            verify_recv(comm.rank, sizes, args.recvbuf)
        run_spmd(prog, 8)


class TestStructure:
    def test_only_leaders_talk_across_groups(self):
        p, g = 16, 4
        sizes = block_size_matrix(UniformBlocks(24), p, seed=5)
        res = run(sizes, g, trace=True)
        for tr in res.traces:
            my_group = tr.rank // g
            is_leader = tr.rank % g == 0
            for e in tr.sends:
                dst_group = e.dst // g
                if dst_group != my_group:
                    assert is_leader, (
                        f"non-leader {tr.rank} sent cross-group to {e.dst}")
                    assert e.dst % g == 0, "cross-group target not a leader"

    def test_fewer_network_participants_than_spread_out(self):
        # Cross-group message count: (P/g)^2-ish pairs * 2 (counts+data)
        # versus spread-out's P*(P-1).
        p, g = 16, 4
        sizes = block_size_matrix(UniformBlocks(24), p, seed=5)
        res = run(sizes, g, trace=True)
        cross = sum(1 for tr in res.traces for e in tr.sends
                    if e.dst // g != tr.rank // g)
        n_groups = p // g
        assert cross == n_groups * (n_groups - 1) * 2

    def test_phases_recorded(self):
        sizes = block_size_matrix(UniformBlocks(24), 8, seed=6)
        res = run(sizes, 4, machine=THETA, trace=True)
        phases = res.phase_times()
        assert phases["gather_to_leader"] > 0
        assert phases["leader_exchange"] > 0
        assert phases["scatter_from_leader"] > 0

"""Metamorphic tests: every alltoall(v) implementation must deliver the
byte-identical receive buffer for the same inputs — they differ only in
*how* the bytes travel.

This catches subtle divergences (an off-by-one slot, a mis-rotated index)
even if each algorithm's own verification pattern were to mask it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nonuniform import alltoallv
from repro.core.registry import list_algorithms
from repro.core.uniform import alltoall
from repro.simmpi import LOCAL, ExecutionConfig, run_spmd
from repro.workloads import UniformBlocks, block_size_matrix, build_vargs


def gather_uniform_recv(algorithm, p, n, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=(p, p * n)).astype(np.uint8)

    def prog(comm):
        send = data[comm.rank].copy()
        recv = np.zeros(p * n, dtype=np.uint8)
        alltoall(comm, send, recv, n, algorithm=algorithm)
        return recv
    return run_spmd(prog, p,
                    config=ExecutionConfig(machine=LOCAL, trace=False)).returns


def gather_nonuniform_recv(algorithm, sizes, seed):
    p = sizes.shape[0]

    def prog(comm):
        # Per-rank RNG stream: thread scheduling must not affect payloads.
        local_rng = np.random.default_rng([seed, comm.rank])
        args = build_vargs(comm.rank, sizes)
        args.sendbuf[:] = local_rng.integers(
            0, 256, size=args.sendbuf.size).astype(np.uint8)
        alltoallv(comm, *args.as_tuple(), algorithm=algorithm)
        return args.recvbuf
    return run_spmd(prog, p,
                    config=ExecutionConfig(machine=LOCAL, trace=False)).returns


class TestUniformAgreement:
    @pytest.mark.parametrize("p", [4, 5, 8, 13])
    def test_all_variants_agree(self, p):
        n = 9
        reference = gather_uniform_recv("spread_out", p, n, seed=1)
        for algorithm in list_algorithms("uniform"):
            got = gather_uniform_recv(algorithm, p, n, seed=1)
            for r in range(p):
                assert np.array_equal(got[r], reference[r]), (algorithm, r)

    @given(p=st.integers(2, 9), n=st.integers(1, 24),
           seed=st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_zero_rotation_equals_basic(self, p, n, seed):
        a = gather_uniform_recv("zero_rotation_bruck", p, n, seed)
        b = gather_uniform_recv("basic_bruck", p, n, seed)
        for r in range(p):
            assert np.array_equal(a[r], b[r])


class TestNonuniformAgreement:
    @pytest.mark.parametrize("p", [4, 5, 8, 13])
    def test_all_algorithms_agree(self, p):
        sizes = block_size_matrix(UniformBlocks(40), p, seed=2)
        reference = gather_nonuniform_recv("spread_out", sizes, seed=3)
        for algorithm in list_algorithms("nonuniform"):
            got = gather_nonuniform_recv(algorithm, sizes, seed=3)
            for r in range(p):
                assert np.array_equal(got[r], reference[r]), (algorithm, r)

    @given(p=st.integers(2, 8), max_n=st.integers(0, 48),
           seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_two_phase_equals_sloav(self, p, max_n, seed):
        # The two coupled-metadata algorithms (opposite orientations,
        # different buffering) must agree byte-for-byte.
        sizes = block_size_matrix(UniformBlocks(max_n), p, seed=seed)
        a = gather_nonuniform_recv("two_phase_bruck", sizes, seed=seed)
        b = gather_nonuniform_recv("sloav", sizes, seed=seed)
        for r in range(p):
            assert np.array_equal(a[r], b[r])

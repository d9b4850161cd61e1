"""SLOAV-specific tests (generic correctness is covered by the registry
parametrization in test_nonuniform.py)."""

import numpy as np
import pytest

from repro.core.common import num_steps, send_block_distances
from repro.core.nonuniform import alltoallv
from repro.simmpi import (LOCAL, MAX_USER_TAG, THETA, ExecutionConfig,
                          run_spmd)
from repro.workloads import UniformBlocks, block_size_matrix, build_vargs, verify_recv


def vprog(sizes):
    def prog(comm):
        args = build_vargs(comm.rank, sizes)
        alltoallv(comm, *args.as_tuple(), algorithm="sloav")
        verify_recv(comm.rank, sizes, args.recvbuf)
    return prog


class TestSloavStructure:
    def test_two_messages_per_step_header_then_combined(self):
        p = 8
        sizes = block_size_matrix(UniformBlocks(32), p, seed=0)
        res = run_spmd(vprog(sizes), p, config=ExecutionConfig(machine=LOCAL))
        for trace in res.traces:
            user = [e for e in trace.sends if e.tag < MAX_USER_TAG]
            assert len(user) == 2 * num_steps(p)
            for k in range(num_steps(p)):
                header, combined = user[2 * k], user[2 * k + 1]
                assert header.nbytes == 4          # combined-size header
                # combined = 4 bytes/block of metadata + the data bytes
                assert combined.nbytes >= 4 * len(send_block_distances(k, p))
                # basic-Bruck orientation: step k sends 2**k ranks up
                assert combined.dst == header.dst == \
                    (trace.rank + (1 << k)) % p

    def test_no_allreduce_needed(self):
        # Unlike padded/two-phase, SLOAV never computes a global max:
        # no internal-tag (collective) traffic at all.
        p = 8
        sizes = block_size_matrix(UniformBlocks(32), p, seed=0)
        res = run_spmd(vprog(sizes), p, config=ExecutionConfig(machine=LOCAL))
        for trace in res.traces:
            assert all(e.tag < MAX_USER_TAG for e in trace.sends)

    def test_phases_present(self):
        sizes = block_size_matrix(UniformBlocks(64), 16, seed=1)
        res = run_spmd(vprog(sizes), 16, config=ExecutionConfig(machine=THETA))
        phases = res.phase_times()
        assert phases["final_rotation"] > 0
        assert phases["scan"] > 0
        assert phases["communication"] > 0

    def test_metadata_overflow_guard(self):
        def prog(comm):
            counts = np.full(2, 2 ** 40, dtype=np.int64)
            buf = np.zeros(4, dtype=np.uint8)
            alltoallv(comm, buf, counts, [0, 0], buf, counts, [0, 0],
                      algorithm="sloav")
        with pytest.raises(ValueError, match="4-byte"):
            run_spmd(prog, 2)

    def test_moves_same_wire_bytes_as_two_phase(self):
        # With *equal* block sizes both algorithms relay identical data
        # volume (their opposite orientations route different blocks, so
        # this only holds size-wise for constant sizes); SLOAV adds a
        # 4-byte header per step on top of the same 4-byte-per-block
        # metadata.
        p = 8
        sizes = np.full((p, p), 64, dtype=np.int64)

        def total_user_bytes(algorithm):
            def prog(comm):
                args = build_vargs(comm.rank, sizes)
                alltoallv(comm, *args.as_tuple(), algorithm=algorithm)
            res = run_spmd(prog, p, config=ExecutionConfig(machine=LOCAL))
            return sum(e.nbytes for t in res.traces for e in t.sends
                       if e.tag < MAX_USER_TAG)

        sloav = total_user_bytes("sloav")
        tp = total_user_bytes("two_phase_bruck")
        steps = num_steps(p)
        # SLOAV adds a 4-byte header per step per rank.
        assert sloav == tp + 4 * steps * p

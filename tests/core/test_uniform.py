"""Correctness and structure tests for every uniform all-to-all variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import (bruck_substeps, num_steps,
                               send_block_distances)
from repro.core.registry import get_algorithm, list_algorithms
from repro.core.uniform import alltoall
from repro.simmpi import LOCAL, THETA, ExecutionConfig, run_spmd

from ..conftest import SMALL_PROCS

ALGORITHMS = list_algorithms("uniform")
ON_LOCAL = ExecutionConfig(machine=LOCAL)
ON_THETA = ExecutionConfig(machine=THETA)
#: Which way each Bruck variant forwards: basic sends up, the rest down.
BRUCK_DIRECTION = {"basic_bruck": +1, "basic_bruck_dt": +1,
                   "modified_bruck": -1, "modified_bruck_dt": -1,
                   "zero_copy_bruck_dt": -1, "zero_rotation_bruck": -1}


def fill_pattern(rank, dest, n):
    return np.full(n, (rank * 31 + dest * 7 + 3) % 256, dtype=np.uint8)


def uniform_prog(algorithm, n, **kwargs):
    def prog(comm):
        p, r = comm.size, comm.rank
        send = np.concatenate([fill_pattern(r, j, n) for j in range(p)]) \
            if n else np.zeros(0, dtype=np.uint8)
        recv = np.zeros(p * n, dtype=np.uint8)
        alltoall(comm, send, recv, n, algorithm=algorithm, **kwargs)
        for j in range(p):
            expect = fill_pattern(j, r, n)
            got = recv[j * n:(j + 1) * n]
            assert np.array_equal(got, expect), (
                f"rank {r}: block from {j} wrong")
        return True
    return prog


class TestCorrectness:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("p", SMALL_PROCS)
    def test_delivery(self, algorithm, p):
        res = run_spmd(uniform_prog(algorithm, 5), p)
        assert all(res.returns)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_byte_blocks(self, algorithm):
        run_spmd(uniform_prog(algorithm, 1), 7)

    @pytest.mark.parametrize("algorithm",
                             [n for n in ALGORITHMS if n != "vendor"])
    def test_zero_byte_blocks_noop(self, algorithm):
        def prog(comm):
            recv = np.full(comm.size, 9, dtype=np.uint8)
            alltoall(comm, np.zeros(comm.size, dtype=np.uint8), recv, 0,
                     algorithm=algorithm)
            assert (recv == 9).all()  # untouched
        run_spmd(prog, 4)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_larger_blocks(self, algorithm):
        run_spmd(uniform_prog(algorithm, 257), 6)

    def test_unknown_algorithm(self):
        def prog(comm):
            alltoall(comm, np.zeros(4, dtype=np.uint8),
                     np.zeros(4, dtype=np.uint8), 1, algorithm="nope")
        with pytest.raises(KeyError, match="nope"):
            run_spmd(prog, 2)

    def test_sendbuf_not_modified(self):
        def prog(comm):
            p = comm.size
            send = np.arange(p * 4, dtype=np.uint8)
            orig = send.copy()
            recv = np.zeros(p * 4, dtype=np.uint8)
            alltoall(comm, send, recv, 4, algorithm="zero_rotation_bruck")
            assert np.array_equal(send, orig)
        run_spmd(prog, 5)

    @given(p=st.integers(2, 12), n=st.integers(1, 40),
           seed=st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_random_payload_roundtrip_zero_rotation(self, p, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=(p, p, n)).astype(np.uint8)

        def prog(comm):
            r = comm.rank
            send = data[r].reshape(-1).copy()
            recv = np.zeros(p * n, dtype=np.uint8)
            alltoall(comm, send, recv, n, algorithm="zero_rotation_bruck")
            assert np.array_equal(recv.reshape(p, n), data[:, r, :])
        run_spmd(prog, p)


class TestMessageStructure:
    """The traced message sequence must match the Bruck schedule."""

    @pytest.mark.parametrize("p", [4, 5, 8, 13])
    def test_bruck_message_counts(self, p):
        n = 8
        res = run_spmd(uniform_prog("zero_rotation_bruck", n), p,
                       config=ON_LOCAL)
        steps = num_steps(p)
        for trace in res.traces:
            # one message per step per rank
            assert trace.message_count == steps
            for k, event in enumerate(trace.sends):
                m = len(send_block_distances(k, p))
                assert event.nbytes == m * n
                assert event.dst == (trace.rank - (1 << k)) % p

    @pytest.mark.parametrize("p", [5, 13, 16])
    @pytest.mark.parametrize("algorithm, radix", [
        (name, r) for name in sorted(BRUCK_DIRECTION) for r in (2, 3, 4, 8)
        if r == 2 or get_algorithm(name, "uniform").supports_radix])
    def test_one_message_per_substep(self, algorithm, radix, p):
        # Every variant, every radix: substep (k, z) is one message of
        # its moving blocks to the rank a jump of z * r**k away.
        n = 16
        res = run_spmd(uniform_prog(algorithm, n, radix=radix), p,
                       config=ON_LOCAL)
        sign = BRUCK_DIRECTION[algorithm]
        for trace in res.traces:
            assert [(dst, nbytes) for dst, _, nbytes in trace.messages()] \
                == [((trace.rank + sign * sub.jump) % p,
                     len(sub.distances) * n)
                    for sub in bruck_substeps(p, radix)]

    @pytest.mark.parametrize("p", [4, 7, 8])
    def test_basic_bruck_sends_to_positive_direction(self, p):
        res = run_spmd(uniform_prog("basic_bruck", 4), p, config=ON_LOCAL)
        for trace in res.traces:
            for k, event in enumerate(trace.sends):
                assert event.dst == (trace.rank + (1 << k)) % p

    def test_spread_out_message_counts(self):
        p = 6
        res = run_spmd(uniform_prog("spread_out", 4), p, config=ON_LOCAL)
        for trace in res.traces:
            assert trace.message_count == p - 1
            assert all(e.nbytes == 4 for e in trace.sends)
            assert sorted(e.dst for e in trace.sends) == \
                sorted(q for q in range(p) if q != trace.rank)

    def test_total_bruck_volume_exceeds_spread_out(self):
        # Bruck trades bytes for latency: it must move more data.
        p, n = 16, 32
        bruck = run_spmd(uniform_prog("zero_rotation_bruck", n), p,
                         config=ON_LOCAL)
        so = run_spmd(uniform_prog("spread_out", n), p, config=ON_LOCAL)
        assert bruck.total_bytes > so.total_bytes
        assert bruck.total_messages < so.total_messages
        # ...by the paper's factor: ~log2(P)/2 times spread-out's volume.
        assert bruck.total_bytes / so.total_bytes == \
            pytest.approx(np.log2(p) / 2, rel=0.15)


class TestPhaseStructure:
    def test_basic_has_both_rotations(self):
        res = run_spmd(uniform_prog("basic_bruck", 8), 8, config=ON_THETA)
        phases = res.phase_times()
        assert phases["initial_rotation"] > 0
        assert phases["final_rotation"] > 0
        assert phases["communication"] > 0

    def test_modified_drops_final_rotation(self):
        res = run_spmd(uniform_prog("modified_bruck", 8), 8, config=ON_THETA)
        phases = res.phase_times()
        assert "final_rotation" not in phases
        assert phases["initial_rotation"] > 0

    def test_zero_rotation_drops_both(self):
        res = run_spmd(uniform_prog("zero_rotation_bruck", 8), 8,
                       config=ON_THETA)
        phases = res.phase_times()
        assert "initial_rotation" not in phases
        assert "final_rotation" not in phases
        assert phases["index_setup"] > 0

    def test_rotation_cost_ordering(self):
        # Fig. 2b: basic > modified > zero-rotation in non-comm overhead.
        n, p = 32, 16
        totals = {}
        for alg in ("basic_bruck", "modified_bruck", "zero_rotation_bruck"):
            res = run_spmd(uniform_prog(alg, n), p, config=ON_THETA)
            totals[alg] = res.elapsed
        assert totals["zero_rotation_bruck"] < totals["modified_bruck"] \
            < totals["basic_bruck"]


class TestDatatypeVariants:
    @pytest.mark.parametrize("pair", [
        ("basic_bruck", "basic_bruck_dt"),
        ("modified_bruck", "modified_bruck_dt"),
    ])
    def test_dt_slower_for_small_blocks(self, pair):
        # The paper's consistent observation at N = 32 B.
        plain, dt = pair
        p, n = 16, 32
        t_plain = run_spmd(uniform_prog(plain, n), p, config=ON_THETA).elapsed
        t_dt = run_spmd(uniform_prog(dt, n), p, config=ON_THETA).elapsed
        assert t_dt > t_plain

    def test_dt_variants_use_datatype_engine(self):
        res = run_spmd(uniform_prog("modified_bruck_dt", 16), 8,
                       config=ON_THETA)
        assert all(t.datatype_ops for t in res.traces)
        res_plain = run_spmd(uniform_prog("modified_bruck", 16), 8,
                             config=ON_THETA)
        assert all(not t.datatype_ops for t in res_plain.traces)

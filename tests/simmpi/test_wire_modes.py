"""Wire-mode semantics: phantom (size-only) transport vs the bytes wire.

The backend x wire clock matrix lives in ``test_backend_equivalence``;
this file pins the *behavioural* contract of each mode — what phantom
may skip (data movement), what it must keep (sizes, truncation checks,
probes, control-plane contents), and what the zero-copy bytes path must
still deliver exactly.
"""

import numpy as np
import pytest

from repro.simmpi import (
    WIRE_MODES,
    Envelope,
    ExecutionConfig,
    TruncationError,
    run_spmd,
)


class TestWireSelection:
    def test_wire_modes_tuple(self):
        assert WIRE_MODES == ("bytes", "phantom")

    def test_run_spmd_rejects_unknown_wire(self):
        with pytest.raises(ValueError, match="wire"):
            run_spmd(lambda comm: None, 2,
                     config=ExecutionConfig(wire="telepathy"))

    def test_result_records_wire(self):
        for wire in WIRE_MODES:
            result = run_spmd(lambda comm: None, 2,
                              config=ExecutionConfig(wire=wire))
            assert result.wire == wire

    def test_default_wire_is_bytes(self):
        result = run_spmd(lambda comm: None, 2)
        assert result.wire == "bytes"

        def prog(comm):
            assert comm.wire == "bytes"
            assert comm.payload_enabled
        run_spmd(prog, 2)


class TestEnvelope:
    def test_slots_no_dict(self):
        env = Envelope(0, 1, 0, b"abc", 0.0)
        assert not hasattr(env, "__dict__")
        with pytest.raises(AttributeError):
            env.extra = 1

    def test_nbytes_defaults_to_payload_length(self):
        assert Envelope(0, 1, 0, b"abcd", 0.0).nbytes == 4

    def test_phantom_envelope_needs_explicit_nbytes(self):
        with pytest.raises(ValueError, match="nbytes"):
            Envelope(0, 1, 0, None, 0.0)
        assert Envelope(0, 1, 0, None, 0.0, nbytes=7).nbytes == 7


class TestPhantomTransport:
    def test_recv_buffer_untouched_but_sized(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(10, dtype=np.int32), 1, tag=5)
            else:
                buf = np.full(10, -1, dtype=np.int32)
                n = comm.recv(buf, 0, tag=5)
                assert n == 40  # sizes flow
                assert buf.tolist() == [-1] * 10  # bytes do not
        run_spmd(prog, 2, config=ExecutionConfig(wire="phantom"))

    def test_truncation_still_enforced(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100, dtype=np.uint8), 1)
            else:
                comm.recv(np.zeros(10, dtype=np.uint8), 0)
        with pytest.raises(TruncationError):
            run_spmd(prog, 2, config=ExecutionConfig(wire="phantom"))

    def test_probe_nbytes_both_modes(self):
        for wire in WIRE_MODES:
            def prog(comm):
                if comm.rank == 0:
                    req = comm.isend(np.zeros(24, dtype=np.uint8), 1, tag=2)
                    comm.barrier()
                    req.wait()
                else:
                    comm.barrier()
                    assert comm.probe_nbytes(0, tag=2) == 24
                    comm.recv(np.zeros(24, dtype=np.uint8), 0, tag=2)
            run_spmd(prog, 2, config=ExecutionConfig(wire=wire))

    def test_control_plane_carries_real_bytes(self):
        """``control=True`` sends (and object transport) keep their
        contents even on the phantom wire — receivers steer on them."""
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.array([7, 8, 9], dtype=np.int64), 1, tag=1,
                          control=True)
                comm.send_obj({"counts": [3, 1]}, 1, tag=2)
            else:
                buf = np.zeros(3, dtype=np.int64)
                comm.recv(buf, 0, tag=1)
                assert buf.tolist() == [7, 8, 9]
                assert comm.recv_obj(0, tag=2) == {"counts": [3, 1]}
        run_spmd(prog, 2, config=ExecutionConfig(wire="phantom"))

    def test_phantom_send_requires_ndarray(self):
        """Size-only sends need a sized buffer; raw bytes objects are
        only legal on the control plane."""
        def prog(comm):
            if comm.rank == 0:
                comm.send(b"oops", 1)
            else:
                comm.recv(np.zeros(4, dtype=np.uint8), 0)
        with pytest.raises(TypeError):
            run_spmd(prog, 2, config=ExecutionConfig(wire="phantom"))

    def test_builtin_alltoallv_phantom_matches_bytes_clocks(self):
        counts = [[2, 5, 1], [3, 3, 3], [4, 0, 2]]

        def make_prog(fill):
            def prog(comm):
                scounts = counts[comm.rank]
                rcounts = [counts[src][comm.rank] for src in range(3)]
                sdis = np.concatenate(([0], np.cumsum(scounts)[:-1]))
                rdis = np.concatenate(([0], np.cumsum(rcounts)[:-1]))
                sbuf = np.full(int(sum(scounts)), comm.rank, dtype=np.uint8)
                rbuf = np.zeros(int(sum(rcounts)), dtype=np.uint8)
                comm.alltoallv(sbuf, scounts, sdis, rbuf, rcounts, rdis)
                if fill:
                    for src in range(3):
                        block = rbuf[rdis[src]:rdis[src] + rcounts[src]]
                        assert block.tolist() == [src] * rcounts[src]
                return comm.clock
            return prog

        ref = run_spmd(make_prog(True), 3,
                       config=ExecutionConfig(wire="bytes"))
        ph = run_spmd(make_prog(False), 3,
                      config=ExecutionConfig(wire="phantom"))
        assert ph.clocks == ref.clocks
        assert ph.total_bytes == ref.total_bytes


class TestBytesZeroCopy:
    def test_builtin_alltoall_delivers(self):
        def prog(comm):
            n = 4
            send = np.repeat(
                np.arange(comm.size, dtype=np.uint8) * 10 + comm.rank, n)
            recv = np.zeros(comm.size * n, dtype=np.uint8)
            comm.alltoall(send, recv, n)
            expect = np.repeat(
                np.full(comm.size, comm.rank * 10, dtype=np.uint8)
                + np.arange(comm.size, dtype=np.uint8), n)
            assert recv.tolist() == expect.tolist()
        run_spmd(prog, 4)

    def test_noncontiguous_send_view(self):
        """The single-pass snapshot must handle strided views."""
        def prog(comm):
            if comm.rank == 0:
                base = np.arange(20, dtype=np.uint8)
                comm.send(base[::2], 1)
            else:
                buf = np.zeros(10, dtype=np.uint8)
                assert comm.recv(buf, 0) == 10
                assert buf.tolist() == list(range(0, 20, 2))
        run_spmd(prog, 2)


class TestAlltoallvValidation:
    @staticmethod
    def _run(scounts, sdis, rcounts, rdis, sbytes=8, rbytes=8,
             wire="bytes"):
        def prog(comm):
            comm.alltoallv(np.zeros(sbytes, dtype=np.uint8), scounts, sdis,
                           np.zeros(rbytes, dtype=np.uint8), rcounts, rdis)
        run_spmd(prog, 2, config=ExecutionConfig(wire=wire))

    def test_send_extent_beyond_buffer(self):
        with pytest.raises(ValueError, match="exceeds buffer"):
            self._run([4, 5], [0, 4], [4, 4], [0, 4])

    def test_recv_extent_beyond_buffer(self):
        with pytest.raises(ValueError, match="exceeds buffer"):
            self._run([4, 4], [0, 4], [4, 4], [0, 8])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            self._run([-1, 4], [0, 4], [4, 4], [0, 4])

    def test_negative_displ_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            self._run([4, 4], [-1, 4], [4, 4], [0, 4])

    def test_extents_checked_on_phantom_wire_too(self):
        with pytest.raises(ValueError, match="exceeds buffer"):
            self._run([4, 5], [0, 4], [4, 4], [0, 4], wire="phantom")

    def test_valid_overlapping_send_extents_allowed(self):
        # MPI permits re-reading send bytes; only receive extents are
        # the caller's exclusive contract.
        self._run([8, 8], [0, 0], [8, 8], [0, 0], rbytes=16)

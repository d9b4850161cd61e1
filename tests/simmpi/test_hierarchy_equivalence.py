"""Hierarchical (ppn > 1) machine model: cost laws and equivalence.

Two groups of checks.  First, the eager-threshold piecewise fix: every
per-message cost primitive must be monotone non-decreasing in message
size for every named profile — the seed model charged the *whole*
message at the eager rate below the threshold, so an 8193-byte message
was cheaper than an 8192-byte one — and the vectorized timing-engine
forms must agree bit-for-bit with the scalar methods on either side of
the protocol switch.  Second, node-awareness: with ``ppn > 1`` the
backend x wire determinism matrix must stay bit-identical for every
registered algorithm — including the locality-aware Bruck variants whose
three-phase structure only activates on hierarchical machines — and
bytes-wire runs must still deliver byte-verified payloads.
"""

import numpy as np
import pytest

from repro.core.registry import get_algorithm, list_algorithms
from repro.simmpi import (
    ExecutionConfig,
    PROFILES,
    TensorAlltoallv,
    THETA,
    WIRE_MODES,
    run_spmd,
)
from repro.timing.engine import (
    head_latency_vec,
    serial_time_vec,
    wire_time_vec,
)
from repro.workloads import (
    block_size_matrix,
    build_vargs,
    distribution_by_name,
    verify_recv,
)

# ----------------------------------------------------------------------
# eager-threshold piecewise cost: monotone, and scalar == vectorized
# ----------------------------------------------------------------------

NPROCS_SWEEP = (2, 64, 1024)


def _threshold_sweep(machine):
    """Message sizes bracketing the protocol switch, plus the far tails."""
    thr = machine.eager_threshold
    sizes = sorted({0, 1, thr // 2, thr - 2, thr - 1, thr, thr + 1,
                    thr + 2, 2 * thr, 16 * thr})
    return [n for n in sizes if n >= 0]


class TestEagerMonotonic:
    @pytest.mark.parametrize("pname", sorted(PROFILES))
    @pytest.mark.parametrize("nprocs", NPROCS_SWEEP)
    @pytest.mark.parametrize("intra", [False, True])
    def test_costs_non_decreasing_in_nbytes(self, pname, nprocs, intra):
        m = PROFILES[pname].with_overrides(ppn=4) if intra else PROFILES[pname]
        sweep = _threshold_sweep(m)
        for fn in (lambda n: m.serial_time(n, nprocs, intra),
                   lambda n: m.wire_time(n, nprocs, intra),
                   lambda n: m.message_time(n, nprocs, intra)):
            costs = [fn(n) for n in sweep]
            for (na, ca), (nb, cb) in zip(zip(sweep, costs),
                                          zip(sweep[1:], costs[1:])):
                assert cb >= ca, (pname, nprocs, intra, na, nb)

    def test_theta_no_inversion_at_threshold(self):
        # The seed bug, pinned: one byte past the eager threshold must
        # never be cheaper than the threshold itself.
        for nprocs in NPROCS_SWEEP:
            assert THETA.serial_time(8193, nprocs) \
                >= THETA.serial_time(8192, nprocs)
            assert THETA.message_time(8193, nprocs) \
                >= THETA.message_time(8192, nprocs)

    @pytest.mark.parametrize("pname", sorted(PROFILES))
    @pytest.mark.parametrize("intra", [False, True])
    def test_scalar_matches_vectorized(self, pname, intra):
        m = PROFILES[pname].with_overrides(ppn=4)
        thr = m.eager_threshold
        nprocs = 64
        for n in (0, 1, thr - 1, thr, thr + 1, 8191, 8192, 8193, 4 * thr):
            assert float(serial_time_vec(m, n, nprocs, intra)) \
                == m.serial_time(n, nprocs, intra), (pname, n)
            assert float(head_latency_vec(m, n, intra)) \
                == m.head_latency(n, intra), (pname, n)
            assert float(wire_time_vec(m, n, nprocs, intra)) \
                == m.wire_time(n, nprocs, intra), (pname, n)

    def test_vectorized_per_lane_tier_selection(self):
        m = THETA.with_overrides(ppn=4)
        nbytes = np.array([100.0, 100.0, 20000.0, 20000.0])
        intra = np.array([True, False, True, False])
        got = serial_time_vec(m, nbytes, 64, intra)
        want = [m.serial_time(int(n), 64, bool(i))
                for n, i in zip(nbytes, intra)]
        assert got.tolist() == want


# ----------------------------------------------------------------------
# node-aware determinism matrix: every algorithm, ppn > 1
# ----------------------------------------------------------------------

MAX_BLOCK = 32
MATRIX = tuple(("coop", wire) for wire in WIRE_MODES)
#: (nprocs, ppn): even nodes, a partial last node, and a single node
#: (ppn >= p) — the three shapes of the rank -> node mapping.
SHAPES = ((16, 4), (13, 4), (5, 8))


def _run_hier(name, nprocs, ppn, backend, wire):
    machine = THETA.with_overrides(ppn=ppn)
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=11)
    fn = get_algorithm(name, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=comm.payload_enabled)
        fn(comm, *vargs.as_tuple())
        if comm.payload_enabled:
            verify_recv(comm.rank, sizes, vargs.recvbuf)
        return comm.clock

    return run_spmd(prog, nprocs,
                    config=ExecutionConfig(machine=machine, backend=backend,
                                           trace=False, wire=wire))


@pytest.mark.parametrize("nprocs,ppn", SHAPES)
@pytest.mark.parametrize("name", list_algorithms("nonuniform"))
def test_hierarchical_clocks_bit_identical(name, nprocs, ppn):
    ref_backend, ref_wire = MATRIX[0]
    ref = _run_hier(name, nprocs, ppn, ref_backend, ref_wire)
    for backend, wire in MATRIX[1:]:
        other = _run_hier(name, nprocs, ppn, backend, wire)
        cell = f"{backend}/{wire} vs {ref_backend}/{ref_wire}"
        assert other.clocks == ref.clocks, cell  # exact, not approx
        assert other.total_messages == ref.total_messages, cell
        assert other.total_bytes == ref.total_bytes, cell


@pytest.mark.parametrize("nprocs,ppn", SHAPES)
@pytest.mark.parametrize("name", list_algorithms("nonuniform"))
def test_tensor_hierarchical_clocks_bit_identical(name, nprocs, ppn):
    machine = THETA.with_overrides(ppn=ppn)
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=11)
    spec = TensorAlltoallv(name, sizes)
    base = dict(machine=machine, trace=False, wire="phantom")
    ref = run_spmd(spec, nprocs,
                   config=ExecutionConfig(backend="coop", **base))
    tens = run_spmd(spec, nprocs,
                    config=ExecutionConfig(backend="tensor", **base))
    assert tens.clocks == ref.clocks  # exact, not approx
    assert tens.total_messages == ref.total_messages
    assert tens.total_bytes == ref.total_bytes


@pytest.mark.parametrize(
    "name", ["locality_padded_bruck", "locality_two_phase_bruck"])
def test_locality_delegates_on_flat_machine(name):
    # ppn=1 (every named profile's default) must reproduce the flat
    # variant verbatim — clocks, message counts, and byte volumes.
    flat = {"locality_padded_bruck": "padded_bruck",
            "locality_two_phase_bruck": "two_phase_bruck"}[name]
    ref = _run_hier(flat, 16, 1, "coop", "phantom")
    got = _run_hier(name, 16, 1, "coop", "phantom")
    assert got.clocks == ref.clocks
    assert got.total_messages == ref.total_messages
    assert got.total_bytes == ref.total_bytes


@pytest.mark.parametrize(
    "name", ["locality_padded_bruck", "locality_two_phase_bruck"])
def test_locality_reduces_inter_node_traffic(name):
    """The point of the node-aware variants: with ppn > 1 they move
    strictly fewer *inter-node* messages than their flat equivalents
    (intra-node gather/scatter trades network messages for cheap local
    hops)."""
    flat = {"locality_padded_bruck": "padded_bruck",
            "locality_two_phase_bruck": "two_phase_bruck"}[name]
    nprocs, ppn = 16, 4
    machine = THETA.with_overrides(ppn=ppn)
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=11)

    def inter_messages(algo):
        fn = get_algorithm(algo, kind="nonuniform").fn

        def prog(comm):
            vargs = build_vargs(comm.rank, sizes, fill=False)
            fn(comm, *vargs.as_tuple())

        res = run_spmd(prog, nprocs,
                       config=ExecutionConfig(machine=machine, backend="coop",
                                              trace=True, wire="phantom"))
        return sum(1 for tr in res.traces for e in tr.sends
                   if e.src // ppn != e.dst // ppn)

    assert inter_messages(name) < inter_messages(flat)

"""Cross-backend x cross-wire clock equivalence, every algorithm.

The determinism contract says simulated clocks are a pure function of the
program's communication structure.  Two axes stress it independently:
the backends compute clocks completely differently (per-rank programs
under the cooperative scheduler vs. the vectorized whole-fabric tensor
engine), and the wire modes move completely different host-side data
(real payload bytes vs. size-only phantom envelopes).  Bit-identical
per-rank clocks across the matrix over every registered algorithm is a
sharp end-to-end check — any hidden dependence on payload contents or on
the engine would split it.  Dependence on the order in which ranks run is
checked by ``test_schedule_independence.py``.

Bytes-wire runs additionally byte-verify delivery (``verify_recv`` /
an exact permutation check), so the zero-copy send/landing/staging
paths are proven correct, not just fast.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import get_algorithm, list_algorithms
from repro.simmpi import (
    ExecutionConfig,
    TensorAlltoall,
    TensorAlltoallv,
    THETA,
    WIRE_MODES,
    run_spmd,
)
from repro.workloads import (
    block_size_matrix,
    build_vargs,
    distribution_by_name,
    verify_recv,
)

NPROCS = (4, 16, 64)
BLOCK = 16  # uniform per-pair block bytes
MAX_BLOCK = 32  # non-uniform distribution ceiling

#: Every per-rank (backend, wire) cell of the matrix; the first is the
#: reference.  The tensor backend joins below, on the phantom wire.
MATRIX = tuple(("coop", wire) for wire in WIRE_MODES)


def _run_uniform(name: str, nprocs: int, backend: str, wire: str):
    fn = get_algorithm(name, kind="uniform").fn

    def prog(comm):
        if comm.payload_enabled:
            rng = np.random.default_rng(1234 + comm.rank)
            send = rng.integers(0, 256, nprocs * BLOCK, dtype=np.uint8)
            recv = np.zeros(nprocs * BLOCK, dtype=np.uint8)
        else:
            send = np.empty(nprocs * BLOCK, dtype=np.uint8)
            recv = np.empty(nprocs * BLOCK, dtype=np.uint8)
        fn(comm, send, recv, BLOCK)
        if comm.payload_enabled:
            # Exact delivery check: block j of rank i's recv is block i
            # of rank j's (seeded, hence reconstructible) send buffer.
            for src in range(nprocs):
                theirs = np.random.default_rng(1234 + src).integers(
                    0, 256, nprocs * BLOCK, dtype=np.uint8)
                np.testing.assert_array_equal(
                    recv[src * BLOCK:(src + 1) * BLOCK],
                    theirs[comm.rank * BLOCK:(comm.rank + 1) * BLOCK])
        return comm.clock

    return run_spmd(prog, nprocs,
                    config=ExecutionConfig(machine=THETA, backend=backend,
                                           trace=False, wire=wire))


def _run_nonuniform(name: str, nprocs: int, backend: str, wire: str):
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=7)
    fn = get_algorithm(name, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=comm.payload_enabled)
        fn(comm, *vargs.as_tuple())
        if comm.payload_enabled:
            verify_recv(comm.rank, sizes, vargs.recvbuf)
        return comm.clock

    return run_spmd(prog, nprocs,
                    config=ExecutionConfig(machine=THETA, backend=backend,
                                           trace=False, wire=wire))


def _assert_matrix(run, name, nprocs):
    ref_backend, ref_wire = MATRIX[0]
    ref = run(name, nprocs, ref_backend, ref_wire)
    for backend, wire in MATRIX[1:]:
        other = run(name, nprocs, backend, wire)
        cell = f"{backend}/{wire} vs {ref_backend}/{ref_wire}"
        assert other.clocks == ref.clocks, cell  # exact, not approx
        assert other.total_messages == ref.total_messages, cell
        assert other.total_bytes == ref.total_bytes, cell


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("name", list_algorithms("uniform"))
def test_uniform_clocks_bit_identical(name, nprocs):
    _assert_matrix(_run_uniform, name, nprocs)


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("name", list_algorithms("nonuniform"))
def test_nonuniform_clocks_bit_identical(name, nprocs):
    _assert_matrix(_run_nonuniform, name, nprocs)


# ----------------------------------------------------------------------
# faulted cell: the determinism contract extends to injected faults
# ----------------------------------------------------------------------

FAULT_SPEC = ("drop:p=0.03;dup:p=0.08;delay:d=25us,jitter=10us,p=0.4;"
              "reorder:p=0.08;straggler:ranks=3,factor=2")


def _run_faulted(name: str, nprocs: int, backend: str, wire: str):
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=7)
    fn = get_algorithm(name, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=comm.payload_enabled)
        fn(comm, *vargs.as_tuple())
        if comm.payload_enabled:
            verify_recv(comm.rank, sizes, vargs.recvbuf)
        return comm.clock

    return run_spmd(prog, nprocs,
                    config=ExecutionConfig(machine=THETA, backend=backend,
                                           trace=True, wire=wire,
                                           fault_plan=FAULT_SPEC,
                                           fault_seed=23, on_fault="retry"))


def _fault_sequences(result):
    return [tuple((e.kind, e.src, e.dst, e.tag, e.nbytes, e.clock)
                  for e in tr.faults) for tr in result.traces]


# ----------------------------------------------------------------------
# tensor cells: the vectorized backend joins the matrix (phantom wire)
# ----------------------------------------------------------------------

def _assert_tensor_matches_coop(spec, nprocs, fault_plan=None):
    """A TensorProgram spec is also a runnable rank program: the same
    object drives the coop backend (executing the real registered kernel)
    and the tensor backend (evaluating the vectorized recurrence) — the
    clocks and wire statistics must agree bit for bit."""
    base = dict(machine=THETA, trace=False, wire="phantom",
                fault_plan=fault_plan, fault_seed=23)
    ref = run_spmd(spec, nprocs,
                   config=ExecutionConfig(backend="coop", **base))
    cfg = ExecutionConfig(backend="tensor", **base)
    tens = run_spmd(spec, nprocs, config=cfg)
    assert tens.clocks == ref.clocks  # exact, not approx
    assert tens.total_messages == ref.total_messages
    assert tens.total_bytes == ref.total_bytes
    assert tens.config is cfg


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("name", list_algorithms("uniform"))
def test_tensor_uniform_clocks_bit_identical(name, nprocs):
    _assert_tensor_matches_coop(TensorAlltoall(name, BLOCK), nprocs)


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("name", list_algorithms("nonuniform"))
def test_tensor_nonuniform_clocks_bit_identical(name, nprocs):
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=7)
    _assert_tensor_matches_coop(TensorAlltoallv(name, sizes), nprocs)


@pytest.mark.parametrize("name", list_algorithms("nonuniform"))
def test_tensor_nonuniform_const_sizes(name):
    # The constant-size form (no P x P matrix) takes the lockstep
    # single-lane path for most algorithms — same clocks either way.
    _assert_tensor_matches_coop(TensorAlltoallv(name, BLOCK), 16)


# ----------------------------------------------------------------------
# tensor metrics cells: trace="metrics" aggregates join the contract
# ----------------------------------------------------------------------

def _assert_tensor_metrics_match_coop(spec, nprocs, fault_plan=None,
                                      machine=THETA, trace="metrics"):
    """The vectorized metrics store must reproduce the scalar registry's
    RunMetrics snapshot *bit for bit* — every field, including float wait
    totals, in-flight maxima, and the phase/collective time tables.
    With ``trace=False`` only the clocks and wire totals exist."""
    base = dict(machine=machine, trace=trace, wire="phantom",
                fault_plan=fault_plan, fault_seed=23)
    ref = run_spmd(spec, nprocs,
                   config=ExecutionConfig(backend="coop", **base))
    tens = run_spmd(spec, nprocs,
                    config=ExecutionConfig(backend="tensor", **base))
    assert tens.clocks == ref.clocks  # metrics must not perturb the model
    assert tens.total_messages == ref.total_messages
    assert tens.total_bytes == ref.total_bytes
    if trace != "metrics":
        return
    assert tens.metrics is not None and ref.metrics is not None
    for f in dataclasses.fields(ref.metrics):
        assert getattr(tens.metrics, f.name) == \
            getattr(ref.metrics, f.name), f.name  # exact, not approx


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("name", list_algorithms("uniform"))
def test_tensor_uniform_metrics_bit_identical(name, nprocs):
    _assert_tensor_metrics_match_coop(TensorAlltoall(name, BLOCK), nprocs)


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("name", list_algorithms("nonuniform"))
def test_tensor_nonuniform_metrics_bit_identical(name, nprocs):
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=7)
    _assert_tensor_metrics_match_coop(TensorAlltoallv(name, sizes), nprocs)


def test_tensor_metrics_hierarchical_machine():
    # ppn>1 exercises the locality/grouped lane-subset completion paths.
    machine = THETA.with_overrides(ppn=4)
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              16, seed=7)
    for name in ("grouped", "locality_padded_bruck",
                 "locality_two_phase_bruck", "two_phase_bruck"):
        base = dict(machine=machine, trace="metrics", wire="phantom")
        spec = TensorAlltoallv(name, sizes)
        ref = run_spmd(spec, 16,
                       config=ExecutionConfig(backend="coop", **base))
        tens = run_spmd(spec, 16,
                        config=ExecutionConfig(backend="tensor", **base))
        for f in dataclasses.fields(ref.metrics):
            assert getattr(tens.metrics, f.name) == \
                getattr(ref.metrics, f.name), (name, f.name)


#: The fault-feature subset the tensor backend supports: delay/jitter
#: rules and stragglers (no crashes, drops, duplicates, or reordering).
TENSOR_FAULT_SPEC = "delay:d=30us,jitter=15us,p=0.6;straggler:ranks=2,factor=3"


@pytest.mark.parametrize("name", ["two_phase_bruck", "sloav"])
def test_tensor_faulted_cell(name):
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              16, seed=7)
    _assert_tensor_matches_coop(TensorAlltoallv(name, sizes), 16,
                                fault_plan=TENSOR_FAULT_SPEC)


@pytest.mark.parametrize("name", ["two_phase_bruck", "sloav"])
def test_tensor_faulted_metrics_cell(name):
    # Fault counts, injected-delay totals, and the wait aggregates the
    # delays produce must also match the scalar registry exactly.
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              16, seed=7)
    _assert_tensor_metrics_match_coop(TensorAlltoallv(name, sizes), 16,
                                      fault_plan=TENSOR_FAULT_SPEC)


@pytest.mark.parametrize(
    "name", ["locality_padded_bruck", "locality_two_phase_bruck"])
def test_tensor_locality_faulted_metrics_cell(name):
    # A ragged last node (18 = 4 x 4 + 2), delayed funnel and delivery
    # messages, a straggling member: the leader/member helper pair the
    # locality kernels share with `grouped`.
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              18, seed=7)
    _assert_tensor_metrics_match_coop(
        TensorAlltoallv(name, sizes), 18, fault_plan=TENSOR_FAULT_SPEC,
        machine=THETA.with_overrides(ppn=4))


def test_tensor_sloav_lockstep_regrowth():
    # Constant sizes take the single-lane store replay; 1500-byte blocks
    # outgrow the 4 KiB temporary buffer several times, on first visits
    # and on revisits.
    _assert_tensor_matches_coop(TensorAlltoallv("sloav", 1500), 24)


# ----------------------------------------------------------------------
# grouped: leaders and members run different programs, and the leader
# exchange is evaluated sender-major (DESIGN.md 5.5) — generated cells
# ----------------------------------------------------------------------

@given(nprocs=st.integers(2, 96),
       width=st.sampled_from([1, 2, 3, 8, "P", "P+5"]),
       ppn=st.sampled_from([1, 3, 4]),
       matrix_seed=st.none() | st.integers(0, 2 ** 16),
       trace=st.sampled_from([False, "metrics"]),
       fault_plan=st.sampled_from([None, TENSOR_FAULT_SPEC]))
@settings(max_examples=50, deadline=None)
def test_tensor_grouped_property(nprocs, width, ppn, matrix_seed, trace,
                                 fault_plan):
    """Ragged last group, a single group, g = 1 and g >= P are all
    reachable; so are leaders that share a node (g < ppn) and ones that
    never do."""
    if matrix_seed is None:
        sizes = BLOCK
    else:       # a drawn matrix, about a third of it zeros
        rng = np.random.default_rng(matrix_seed)
        sizes = rng.integers(0, MAX_BLOCK + 1, (nprocs, nprocs)) \
            * (rng.random((nprocs, nprocs)) < 0.65)
    group_size = {"P": nprocs, "P+5": nprocs + 5}.get(width, width)
    _assert_tensor_metrics_match_coop(
        TensorAlltoallv("grouped", sizes, group_size), nprocs,
        fault_plan=fault_plan, machine=THETA.with_overrides(ppn=ppn),
        trace=trace)


@pytest.mark.parametrize("group_size", [0, -3])
@pytest.mark.parametrize("backend", ["coop", "tensor"])
def test_grouped_rejects_bad_group_size_on_every_backend(backend,
                                                         group_size):
    # The tensor spec refuses at construction, before any lane runs, with
    # the message the functional kernel raises from its first rank.
    def run():
        if backend == "tensor":
            return TensorAlltoallv("grouped", BLOCK, group_size)
        sizes = np.full((4, 4), BLOCK, dtype=np.int64)
        fn = get_algorithm("grouped", kind="nonuniform").fn
        run_spmd(lambda comm: fn(comm, *build_vargs(comm.rank, sizes)
                                 .as_tuple(), group_size=group_size),
                 4, config=ExecutionConfig(backend="coop", machine=THETA,
                                           trace=False, wire="phantom"))

    with pytest.raises(ValueError, match=rf"group_size must be >= 1, "
                                         rf"got {group_size}"):
        run()


def test_tensor_grouped_memory_tripwire():
    """A deterministic stand-in for a timer: with constant sizes the
    leader exchange keeps O(n_groups) state — a handful of vectors over
    the 1 024 leaders and the P lanes, 1.6 MiB at its peak.  One dense
    n_groups x n_groups float64 temporary (a stored departure or size
    matrix) is 8 MiB on its own and trips this."""
    nprocs = 8192
    config = ExecutionConfig(backend="tensor", machine=THETA, trace=False,
                             wire="phantom")
    tracemalloc.start()
    try:
        result = run_spmd(TensorAlltoallv("grouped", 64), nprocs,
                          config=config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert min(result.clocks) > 0
    assert peak <= 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


# ----------------------------------------------------------------------
# L = P lanes over the distance-major state: the cells the lockstep
# collapse cannot cover — a real size matrix (zeros included), P not a
# power of two, radix > 2, more than one tier
# ----------------------------------------------------------------------

@pytest.mark.parametrize("ppn", [1, 4])
@pytest.mark.parametrize("radix", [2, 3])
@pytest.mark.parametrize("nprocs", [12, 100])
def test_tensor_lanes_two_phase_cells(nprocs, radix, ppn):
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=7)
    assert (sizes == 0).any()
    _assert_tensor_metrics_match_coop(
        TensorAlltoallv("two_phase_bruck", sizes, radix=radix), nprocs,
        machine=THETA.with_overrides(ppn=ppn))


def test_tensor_lanes_two_phase_faulted_cell():
    # Delays shift what each receiver sees and a straggler stretches one
    # lane's charges: the rolled unpack fold must land on the right lanes.
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              100, seed=7)
    _assert_tensor_metrics_match_coop(
        TensorAlltoallv("two_phase_bruck", sizes, radix=3), 100,
        fault_plan=TENSOR_FAULT_SPEC, machine=THETA.with_overrides(ppn=4))


def test_tensor_lanes_piece_size_is_invisible(monkeypatch):
    # The evaluator walks a substep's rows in cache-sized pieces; at test
    # sizes one piece holds a whole substep, so shrink it to 3 rows.
    import repro.simmpi.tensor as tensor

    nprocs = 100
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=7)
    spec = TensorAlltoallv("two_phase_bruck", sizes, radix=3)
    config = ExecutionConfig(backend="tensor", machine=THETA,
                             trace="metrics", wire="phantom")
    whole = run_spmd(spec, nprocs, config=config)
    monkeypatch.setattr(tensor, "_PIECE_BYTES", 3 * 8 * nprocs)
    pieces = run_spmd(spec, nprocs, config=config)
    assert pieces.clocks == whole.clocks
    assert pieces.metrics == whole.metrics


def test_tensor_lanes_memory_tripwire():
    """A deterministic stand-in for a timer: the L = P evaluator may hold
    the distance-major state (one P x P int64) plus one substep's copy
    seconds (a (P/2) x P block) — 1.6 matrices at its peak.  Per-step
    P x m temporaries (a gather through a key matrix, a ``where`` over
    the block, a lane-major fold) cost another matrix or two and trip
    this."""
    nprocs = 1024
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=7)
    spec = TensorAlltoallv("two_phase_bruck", sizes)
    config = ExecutionConfig(backend="tensor", machine=THETA, trace=False,
                             wire="phantom")
    tracemalloc.start()
    try:
        result = run_spmd(spec, nprocs, config=config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert min(result.clocks) > 0
    assert peak <= 3.0 * nprocs * nprocs * 8, \
        f"peak {peak / (nprocs * nprocs * 8):.2f} size matrices"


def test_tensor_rejects_unsupported_features():
    spec = TensorAlltoall("basic_bruck", BLOCK)
    with pytest.raises(ValueError, match="phantom"):
        run_spmd(spec, 4, config=ExecutionConfig(
            backend="tensor", machine=THETA, trace=False, wire="bytes"))
    with pytest.raises(ValueError, match="TensorProgram"):
        run_spmd(lambda comm: None, 4, config=ExecutionConfig(
            backend="tensor", machine=THETA, trace=False, wire="phantom"))
    with pytest.raises(ValueError, match="crash"):
        run_spmd(spec, 4, config=ExecutionConfig(
            backend="tensor", machine=THETA, trace=False, wire="phantom",
            fault_plan="crash:rank=1,step=3"))
    with pytest.raises(ValueError, match="delay"):
        run_spmd(spec, 4, config=ExecutionConfig(
            backend="tensor", machine=THETA, trace=False, wire="phantom",
            fault_plan="drop:p=0.5"))


@pytest.mark.parametrize("name", ["two_phase_bruck", "spread_out"])
def test_faulted_runs_bit_identical_across_matrix(name):
    """Fault injection is part of the determinism contract: for a fixed
    (plan, seed), every matrix cell must agree on per-rank clocks,
    wire statistics, fault counts, and the exact per-rank sequence of
    injected fault events — while the reliability layer still delivers
    byte-verified data on the bytes cells."""
    nprocs = 16
    ref_backend, ref_wire = MATRIX[0]
    ref = _run_faulted(name, nprocs, ref_backend, ref_wire)
    assert ref.metrics.total_faults > 0, "plan injected nothing"
    ref_faults = _fault_sequences(ref)
    for backend, wire in MATRIX[1:]:
        other = _run_faulted(name, nprocs, backend, wire)
        cell = f"{backend}/{wire} vs {ref_backend}/{ref_wire}"
        assert other.clocks == ref.clocks, cell
        assert other.total_messages == ref.total_messages, cell
        assert other.total_bytes == ref.total_bytes, cell
        assert other.metrics.fault_counts == ref.metrics.fault_counts, cell
        assert _fault_sequences(other) == ref_faults, cell


# ----------------------------------------------------------------------
# Byzantine cell: corrupt+forge under the verified transport
# ----------------------------------------------------------------------

BYZANTINE_FAULT_SPEC = ("corrupt:p=0.08;forge:p=0.05;dup:p=0.08;"
                        "delay:d=20us,jitter=10us,p=0.3")


def _run_byzantine_faulted(name: str, nprocs: int, backend: str, wire: str):
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=7)
    fn = get_algorithm(name, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=comm.payload_enabled)
        fn(comm, *vargs.as_tuple())
        if comm.payload_enabled:
            verify_recv(comm.rank, sizes, vargs.recvbuf)
        return comm.clock

    cfg = ExecutionConfig(machine=THETA, backend=backend, wire=wire,
                          trace=True, fault_plan=BYZANTINE_FAULT_SPEC,
                          fault_seed=23,
                          reliability="verify", on_fault="retry")
    return run_spmd(prog, nprocs, config=cfg)


@pytest.mark.parametrize("name", ["two_phase_bruck", "spread_out"])
def test_byzantine_faulted_runs_bit_identical_across_matrix(name):
    """The corrupt+forge cell of the determinism contract: tampered bits
    and spoofed envelopes are injected, detected, and retransmitted
    identically in every matrix cell — per-rank clocks, fault
    counts, and per-rank fault-event sequences all bit-identical, while
    the bytes cells additionally byte-verify the delivered data (the
    verified transport masked every injection)."""
    nprocs = 16
    ref_backend, ref_wire = MATRIX[0]
    ref = _run_byzantine_faulted(name, nprocs, ref_backend, ref_wire)
    counts = ref.metrics.fault_counts
    assert counts.get("corrupt", 0) > 0, "plan injected no corruption"
    assert counts.get("forge", 0) > 0, "plan injected no forgeries"
    assert counts.get("forge_rejected", 0) > 0, "no forgery was rejected"
    assert counts.get("corrupt_detected", 0) > 0, "no corruption detected"
    ref_faults = _fault_sequences(ref)
    for backend, wire in MATRIX[1:]:
        other = _run_byzantine_faulted(name, nprocs, backend, wire)
        cell = f"{backend}/{wire} vs {ref_backend}/{ref_wire}"
        assert other.clocks == ref.clocks, cell
        assert other.total_messages == ref.total_messages, cell
        assert other.total_bytes == ref.total_bytes, cell
        assert other.metrics.fault_counts == ref.metrics.fault_counts, cell
        assert _fault_sequences(other) == ref_faults, cell


# ----------------------------------------------------------------------
# radix cells: the r-ary digit schedule joins the full matrix
# ----------------------------------------------------------------------

from repro.core.nonuniform import alltoallv
from repro.core.registry import radix_algorithms
from repro.core.uniform import alltoall

RADICES = (2, 4, 8)
RADIX_NPROCS = (16, 17)  # a power of two and a ragged count


def _run_uniform_radix(name, nprocs, backend, wire, radix):
    def prog(comm):
        if comm.payload_enabled:
            rng = np.random.default_rng(1234 + comm.rank)
            send = rng.integers(0, 256, nprocs * BLOCK, dtype=np.uint8)
            recv = np.zeros(nprocs * BLOCK, dtype=np.uint8)
        else:
            send = np.empty(nprocs * BLOCK, dtype=np.uint8)
            recv = np.empty(nprocs * BLOCK, dtype=np.uint8)
        alltoall(comm, send, recv, BLOCK, algorithm=name, radix=radix)
        if comm.payload_enabled:
            for src in range(nprocs):
                theirs = np.random.default_rng(1234 + src).integers(
                    0, 256, nprocs * BLOCK, dtype=np.uint8)
                np.testing.assert_array_equal(
                    recv[src * BLOCK:(src + 1) * BLOCK],
                    theirs[comm.rank * BLOCK:(comm.rank + 1) * BLOCK])
        return comm.clock

    cfg = ExecutionConfig(machine=THETA, trace=False, backend=backend,
                          wire=wire)
    return run_spmd(prog, nprocs, config=cfg)


def _run_nonuniform_radix(name, nprocs, backend, wire, radix):
    sizes = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                              nprocs, seed=7)

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=comm.payload_enabled)
        alltoallv(comm, *vargs.as_tuple(), algorithm=name, radix=radix)
        if comm.payload_enabled:
            verify_recv(comm.rank, sizes, vargs.recvbuf)
        return comm.clock

    cfg = ExecutionConfig(machine=THETA, trace=False, backend=backend,
                          wire=wire)
    return run_spmd(prog, nprocs, config=cfg)


def _assert_radix_matrix(run, name, nprocs, radix):
    ref_backend, ref_wire = MATRIX[0]
    ref = run(name, nprocs, ref_backend, ref_wire, radix)
    for backend, wire in MATRIX[1:]:
        other = run(name, nprocs, backend, wire, radix)
        cell = f"r={radix} {backend}/{wire} vs {ref_backend}/{ref_wire}"
        assert other.clocks == ref.clocks, cell  # exact, not approx
        assert other.total_messages == ref.total_messages, cell
        assert other.total_bytes == ref.total_bytes, cell
    return ref


@pytest.mark.parametrize("radix", RADICES)
@pytest.mark.parametrize("nprocs", RADIX_NPROCS)
@pytest.mark.parametrize("name", radix_algorithms("uniform"))
def test_uniform_radix_clocks_bit_identical(name, nprocs, radix):
    ref = _assert_radix_matrix(_run_uniform_radix, name, nprocs, radix)
    if radix == 2:
        # radix=2 must be the *same integers* as the unparameterized path
        base = _run_uniform(name, nprocs, *MATRIX[0])
        assert ref.clocks == base.clocks
        assert ref.total_messages == base.total_messages
        assert ref.total_bytes == base.total_bytes


@pytest.mark.parametrize("radix", RADICES)
@pytest.mark.parametrize("nprocs", RADIX_NPROCS)
@pytest.mark.parametrize("name", radix_algorithms("nonuniform"))
def test_nonuniform_radix_clocks_bit_identical(name, nprocs, radix):
    ref = _assert_radix_matrix(_run_nonuniform_radix, name, nprocs, radix)
    if radix == 2:
        base = _run_nonuniform(name, nprocs, *MATRIX[0])
        assert ref.clocks == base.clocks
        assert ref.total_messages == base.total_messages
        assert ref.total_bytes == base.total_bytes


@pytest.mark.parametrize("radix", RADICES)
@pytest.mark.parametrize("name", radix_algorithms("uniform"))
def test_tensor_uniform_radix_cells(name, radix):
    for nprocs in RADIX_NPROCS:
        _assert_tensor_matches_coop(
            TensorAlltoall(name, BLOCK, radix=radix), nprocs)


@pytest.mark.parametrize("radix", RADICES)
@pytest.mark.parametrize("name", radix_algorithms("nonuniform"))
def test_tensor_nonuniform_radix_cells(name, radix):
    for nprocs in RADIX_NPROCS:
        sizes = block_size_matrix(
            distribution_by_name("power_law", MAX_BLOCK), nprocs, seed=7)
        _assert_tensor_matches_coop(
            TensorAlltoallv(name, sizes, radix=radix), nprocs)


def test_tensor_radix_two_spec_matches_unparameterized():
    cfg = ExecutionConfig(machine=THETA, trace=False, backend="tensor",
                          wire="phantom")
    for name in radix_algorithms("uniform"):
        a = run_spmd(TensorAlltoall(name, BLOCK), 16, config=cfg)
        b = run_spmd(TensorAlltoall(name, BLOCK, radix=2), 16, config=cfg)
        assert a.clocks == b.clocks and a.total_bytes == b.total_bytes


def test_radix_gating_everywhere():
    # Every entry point rejects radix != 2 for incapable algorithms
    # through the one registry flag.
    with pytest.raises(ValueError, match="radix"):
        TensorAlltoall("basic_bruck", BLOCK, radix=4)
    with pytest.raises(ValueError, match="radix"):
        TensorAlltoallv("sloav", 16, radix=4)

    def prog(comm):
        send = np.empty(4 * BLOCK, dtype=np.uint8)
        recv = np.empty(4 * BLOCK, dtype=np.uint8)
        alltoall(comm, send, recv, BLOCK, algorithm="basic_bruck", radix=4)

    cfg = ExecutionConfig(machine=THETA, trace=False, wire="phantom")
    with pytest.raises(ValueError, match="radix"):
        run_spmd(prog, 4, config=cfg)

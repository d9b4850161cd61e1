"""Critical-path extraction and makespan attribution.

The attribution contract is *conservation*: on every rank the six
buckets sum — ``math.fsum``-exactly, not approximately — to the rank's
final simulated clock, and the extracted path ends exactly at the run's
makespan.  Both hold on the event-trace walk (coop) and on the
tensor backend's coarse step-log mode, clean and faulted.
"""

import math

import pytest

from repro.simmpi import (
    BUCKETS,
    CriticalPathResult,
    ExecutionConfig,
    TensorAlltoall,
    TensorAlltoallv,
    THETA,
    run_spmd,
)
from repro.workloads import block_size_matrix, distribution_by_name

NPROCS = 16
FAULT_SPEC = "delay:d=30us,jitter=15us,p=0.6;straggler:ranks=2,factor=3"


def _run(backend, trace, fault_plan=None, nprocs=NPROCS,
         name="two_phase_bruck", machine=THETA):
    sizes = block_size_matrix(distribution_by_name("power_law", 32),
                              nprocs, seed=7)
    cfg = ExecutionConfig(backend=backend, machine=machine, trace=trace,
                          wire="phantom",
                          fault_plan=fault_plan, fault_seed=23)
    return run_spmd(TensorAlltoallv(name, sizes), nprocs, config=cfg)


def _check_invariants(result, cp):
    assert isinstance(cp, CriticalPathResult)
    assert cp.nprocs == result.nprocs
    assert len(cp.per_rank) == result.nprocs
    for attr in cp.per_rank:
        # The conservation law: buckets fsum exactly to the rank clock.
        assert attr.total() == attr.makespan
        assert attr.makespan == result.clocks[attr.rank]
        for name in BUCKETS:
            assert getattr(attr, name) >= 0.0, (attr.rank, name)
    # The path ends exactly at the run's simulated makespan and is
    # chronological.
    assert cp.path, "empty critical path"
    assert cp.path[-1].end == result.elapsed
    for prev, seg in zip(cp.path, cp.path[1:]):
        assert seg.start >= prev.start
        assert seg.end >= prev.end
        assert 0 <= seg.rank < result.nprocs


@pytest.mark.parametrize("backend,trace", [
    ("coop", "full"), ("coop", "events"), ("tensor", "metrics"),
])
def test_buckets_sum_to_makespan(backend, trace):
    result = _run(backend, trace)
    cp = result.critical_path()
    _check_invariants(result, cp)
    expected = "steps" if backend == "tensor" else "events"
    assert cp.granularity == expected


@pytest.mark.parametrize("backend,trace", [
    ("coop", "full"), ("tensor", "metrics"),
])
def test_faulted_attribution(backend, trace):
    result = _run(backend, trace, fault_plan=FAULT_SPEC)
    cp = result.critical_path()
    _check_invariants(result, cp)
    # The plan injects departure delays (reported separately) and a
    # 3x straggler surcharge on rank 2 (charged to fault_delay).
    assert cp.injected_delay > 0.0
    assert cp.per_rank[2].fault_delay > 0.0
    for attr in cp.per_rank:
        if attr.rank != 2:
            assert attr.fault_delay == 0.0  # clean ranks pay none


@pytest.mark.parametrize("ppn", [1, 4])
@pytest.mark.parametrize("fault_plan", [None, FAULT_SPEC])
def test_per_receive_buckets_equal_the_scalar_loop(ppn, fault_plan):
    """The per-receive charges are evaluated over columns; the scalar
    loop they replaced stays here as the reference — bitwise."""
    machine = THETA.with_overrides(ppn=ppn)
    result = _run("coop", "events", fault_plan=fault_plan, machine=machine)
    plan = result.config.fault_plan
    for attr, tr in zip(result.critical_path().per_rank, result.traces):
        s = plan.straggle_factor(tr.rank) if plan is not None else 1.0
        o_recv = transmit = congestion = fault_delay = 0.0
        for e in tr.recvs:
            intra = machine.is_intra(e.src, e.dst)
            o_recv += (machine.o_recv_intra if intra
                       else machine.o_recv) * s
            serial = machine.serial_time(e.nbytes, result.nprocs, intra)
            uncong = machine.serial_time(e.nbytes, 1, intra)
            transmit += uncong
            congestion += serial - uncong
            if s != 1.0:
                fault_delay += e.duration - serial
        overhead = math.fsum(e.duration for e in tr.sends) + o_recv
        got = (attr.overhead, attr.transmit, attr.congestion,
               attr.fault_delay)
        want = (overhead, transmit, congestion, fault_delay)
        assert [x.hex() for x in got] == [x.hex() for x in want], tr.rank


def test_bucket_totals_and_format():
    result = _run("coop", "full")
    cp = result.critical_path()
    totals = cp.bucket_totals()
    assert set(totals) == set(BUCKETS)
    assert math.fsum(totals.values()) == pytest.approx(
        math.fsum(result.clocks))
    text = cp.format()
    assert "critical path" in text
    assert "makespan attribution" in text
    for name in BUCKETS:
        assert name in text
    assert cp.slowest().makespan == result.elapsed
    assert set(cp.path_ranks()) <= set(range(result.nprocs))


def test_event_and_step_paths_agree_on_makespan():
    """Coop (event DAG) and tensor (step log) see the same endpoint."""
    ev = _run("coop", "full")
    st = _run("tensor", "metrics")
    assert ev.clocks == st.clocks
    cpe, cps = ev.critical_path(), st.critical_path()
    assert cpe.path[-1].end == cps.path[-1].end
    # transmit/congestion use the identical formula on both sides and
    # agree bit-for-bit; overhead is re-derived from event durations on
    # the coop side (one rounding per charge) so only ulp-close; wait
    # vs. compute may smear slightly between the event-gap and
    # engine-recorded decompositions.
    for a, b in zip(cpe.per_rank, cps.per_rank):
        assert a.transmit == b.transmit
        assert a.congestion == b.congestion
        assert a.overhead == pytest.approx(b.overhead, rel=1e-12)
        assert a.queue_wait + a.compute == pytest.approx(
            b.queue_wait + b.compute, rel=1e-9)


def test_uniform_alltoall_path():
    sizes_na = 16
    cfg = ExecutionConfig(backend="coop", machine=THETA, trace="full",
                          wire="phantom")
    result = run_spmd(TensorAlltoall("modified_bruck", sizes_na), 8,
                      config=cfg)
    cp = result.critical_path()
    _check_invariants(result, cp)
    # A clean run charges nothing to the fault bucket.
    assert cp.bucket_totals()["fault_delay"] == 0.0
    assert cp.injected_delay == 0.0


def test_analyze_requires_observability():
    result = _run("coop", False)
    with pytest.raises(ValueError, match="critical-path"):
        result.critical_path()
    # coop with metrics-only has no event traces and no tensor
    # attribution either.
    result = _run("coop", "metrics")
    with pytest.raises(ValueError, match="critical-path"):
        result.critical_path()


def test_chrome_trace_critical_path_track():
    result = _run("coop", "full", fault_plan=FAULT_SPEC)
    doc = result.export_chrome_trace(critical_path=True)
    events = doc["traceEvents"]
    names = {e["args"]["name"] for e in events
             if e.get("name") == "process_name"}
    assert "fabric" in names and "critical path" in names
    cp_slices = [e for e in events
                 if e.get("cat") == "critical" and e.get("ph") == "X"]
    cp = result.critical_path()
    assert len(cp_slices) == len(cp.path)
    counter = [e["args"]["messages"] for e in events if e.get("ph") == "C"]
    assert counter and counter[-1] == 0  # every message eventually lands
    # On a clean fabric the counter's peak equals the metrics sweep's
    # max_in_flight (delay faults shift departs after the send event is
    # recorded, so the faulted doc above only checks shape).
    clean = _run("coop", "full")
    cdoc = clean.export_chrome_trace()
    ctr = [e["args"]["messages"] for e in cdoc["traceEvents"]
           if e.get("ph") == "C"]
    assert max(ctr) == clean.metrics.max_in_flight
    assert ctr[-1] == 0
    # Without the flag the extra track is absent, fabric counter stays.
    doc2 = result.export_chrome_trace()
    names2 = {e["args"]["name"] for e in doc2["traceEvents"]
              if e.get("name") == "process_name"}
    assert "critical path" not in names2 and "fabric" in names2

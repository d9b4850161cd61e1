"""Tests for the aggregate metrics registry and the trace modes."""

import numpy as np
import pytest

from repro.simmpi import (
    LOCAL,
    Counter,
    ExecutionConfig,
    Histogram,
    MetricsRegistry,
    MetricsTrace,
    NullTrace,
    RankTrace,
    TraceBase,
    run_spmd,
)


class TestCounter:
    def test_add(self):
        c = Counter("messages")
        assert c.value == 0
        c.add()
        c.add(5)
        assert c.value == 6


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("sizes")
        for v in (0, 1, 2, 3, 4, 5, 1024):
            h.add(v)
        rows = {(low, high): count for low, high, count in h.buckets()}
        assert rows[(0, 1)] == 2       # 0 and 1
        assert rows[(2, 2)] == 1       # 2
        assert rows[(3, 4)] == 2       # 3, 4
        assert rows[(5, 8)] == 1       # 5
        assert rows[(513, 1024)] == 1  # 1024
        assert h.count == 7
        assert h.total == 1039
        assert h.max_value == 1024

    def test_bucket_edges_consistent(self):
        # Every sample must fall inside its reported bucket range.
        for v in range(0, 130):
            h = Histogram("x")
            h.add(v)
            ((low, high, count),) = h.buckets()
            assert count == 1
            assert low <= v <= high, v

    def test_mean_empty(self):
        assert Histogram("x").mean == 0.0


class TestMetricsRegistry:
    def test_in_flight_intervals(self):
        # In-flight depth is a pure function of simulated intervals
        # [depart, landing_start]: two overlapping messages on (0, 1) and
        # a disjoint one on (1, 0).
        reg = MetricsRegistry(nprocs=2)
        reg.on_post(0, 1, 7, 100)
        reg.on_post(0, 1, 7, 50)
        reg.on_post(1, 0, 7, 10)
        reg.on_retire(0, 1, 7, depart=0.0, head=1.0, clock=0.5)
        reg.on_retire(0, 1, 7, depart=0.5, head=1.5, clock=2.0)
        reg.on_retire(1, 0, 7, depart=5.0, head=6.0, clock=4.0)
        snap = reg.snapshot()
        assert snap.total_messages == 3
        assert snap.total_bytes == 160
        assert snap.max_in_flight == 2
        assert snap.per_link[(0, 1)] == (2, 150, 2)
        assert snap.per_link[(1, 0)] == (1, 10, 1)
        assert snap.per_step[7][:3] == (3, 160, 2)

    def test_touching_intervals_overlap(self):
        # Pinned tie-break: at equal timestamps a departure counts before
        # a landing, so back-to-back intervals register depth 2 and every
        # message registers at least depth 1.
        reg = MetricsRegistry(nprocs=2)
        reg.on_post(0, 1, 0, 8)
        reg.on_post(0, 1, 0, 8)
        reg.on_retire(0, 1, 0, depart=0.0, head=1.0, clock=0.0)
        reg.on_retire(0, 1, 0, depart=1.0, head=2.0, clock=0.0)
        assert reg.snapshot().max_in_flight == 2

    def test_retire_waits(self):
        reg = MetricsRegistry(nprocs=1)
        # Receiver busy until 1.5, message head arrived at 1.0: queued 0.5.
        reg.on_retire(0, 0, 3, depart=0.5, head=1.0, clock=1.5)
        # Receiver ready at 1.75, head arrives at 2.0: idled 0.25.
        reg.on_retire(0, 0, 3, depart=1.5, head=2.0, clock=1.75)
        snap = reg.snapshot()
        assert snap.queue_wait_total == 0.5
        assert snap.queue_wait_max == 0.5
        assert snap.recv_wait_total == 0.25
        assert snap.recv_wait_max == 0.25

    def test_step_queue_wait_max(self):
        reg = MetricsRegistry(nprocs=2)
        reg.on_post(0, 1, 9, 100)
        reg.on_post(1, 0, 9, 100)
        reg.on_retire(0, 1, 9, depart=0.0, head=1.0, clock=1.25)
        reg.on_retire(1, 0, 9, depart=0.0, head=1.0, clock=1.75)
        snap = reg.snapshot()
        assert snap.per_step[9][3] == 0.75
        assert snap.step_table() == [(9, 2, 200, 2, 0.75)]

    def test_busiest_links_and_step_table(self):
        reg = MetricsRegistry(nprocs=4)
        reg.on_post(0, 1, 2, 100)
        reg.on_post(2, 3, 1, 999)
        snap = reg.snapshot()
        assert snap.busiest_links(1)[0][0] == (2, 3)
        assert [row[0] for row in snap.step_table()] == [1, 2]

    def test_busiest_links_tie_break(self):
        # Equal-byte links are ranked by ascending (src, dst) — the
        # documented deterministic tie-break.
        reg = MetricsRegistry(nprocs=4)
        reg.on_post(3, 1, 0, 500)
        reg.on_post(0, 2, 0, 500)
        reg.on_post(1, 0, 0, 500)
        reg.on_post(2, 3, 0, 100)
        ranked = reg.snapshot().busiest_links(4)
        assert [link for link, _ in ranked] == \
            [(0, 2), (1, 0), (3, 1), (2, 3)]


def _pingpong(comm):
    buf = np.zeros(64, dtype=np.uint8)
    with comm.phase("exchange"):
        if comm.rank == 0:
            comm.send(buf, 1, tag=3)
            comm.recv(buf, 1, tag=4)
        else:
            comm.recv(buf, 0, tag=3)
            comm.send(buf, 0, tag=4)
    comm.barrier()
    return comm.rank


class TestTraceModes:
    def test_full_records_both(self):
        res = run_spmd(_pingpong, 2,
                       config=ExecutionConfig(machine=LOCAL, trace=True))
        assert res.traces is not None
        assert res.metrics is not None

    def test_events_only(self):
        res = run_spmd(_pingpong, 2,
                       config=ExecutionConfig(machine=LOCAL, trace="events"))
        assert res.traces is not None
        assert res.metrics is None

    def test_metrics_only(self):
        res = run_spmd(_pingpong, 2,
                       config=ExecutionConfig(machine=LOCAL, trace="metrics"))
        assert res.traces is None
        assert res.metrics is not None
        # Phase/collective tables still work, fed by the MetricsTrace.
        full = run_spmd(_pingpong, 2,
                        config=ExecutionConfig(machine=LOCAL, trace=True))
        assert res.phase_times() == pytest.approx(full.phase_times())
        assert res.collective_times() == \
            pytest.approx(full.collective_times())

    def test_off(self):
        res = run_spmd(_pingpong, 2,
                       config=ExecutionConfig(machine=LOCAL, trace=False))
        assert res.traces is None
        assert res.metrics is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            run_spmd(_pingpong, 2,
                     config=ExecutionConfig(machine=LOCAL, trace="everything"))

    def test_totals_agree_with_network(self):
        res = run_spmd(_pingpong, 2,
                       config=ExecutionConfig(machine=LOCAL, trace=True))
        assert res.metrics.total_messages == res.total_messages
        assert res.metrics.total_bytes == res.total_bytes

    def test_wait_decomposition_nonnegative(self):
        res = run_spmd(_pingpong, 2,
                       config=ExecutionConfig(machine=LOCAL, trace="metrics"))
        m = res.metrics
        assert m.queue_wait_total >= 0.0
        assert m.recv_wait_total >= 0.0
        assert m.queue_wait_max <= m.queue_wait_total + 1e-18
        assert m.recv_wait_max <= m.recv_wait_total + 1e-18

    def test_metrics_do_not_perturb_clocks(self):
        # The cost model must be identical with observability on and off.
        for mode in (False, "events", "metrics", True):
            res = run_spmd(_pingpong, 2,
                           config=ExecutionConfig(machine=LOCAL, trace=mode))
            assert res.clocks == \
                run_spmd(_pingpong, 2,
                         config=ExecutionConfig(machine=LOCAL,
                                                trace=True)).clocks


class TestTracerHierarchy:
    def test_abstract_base(self):
        with pytest.raises(TypeError):
            TraceBase(0)

    def test_concrete_tracers_are_tracebases(self):
        for cls in (RankTrace, NullTrace, MetricsTrace):
            assert issubclass(cls, TraceBase)

    def test_metrics_trace_counts(self):
        tr = MetricsTrace(0)
        tr.record_send(0, 1, 5, 100, 1.0, begin=0.5)
        tr.record_recv(1, 0, 5, 40, 2.0, begin=1.5)
        tr.record_copy(8, 3.0, begin=2.5)
        tr.record_datatype("pack", 4, 64, 4.0, begin=3.5)
        tr.phase_begin("p", 0.0)
        tr.phase_end(1.0)
        tr.collective_begin("barrier", 1.0)
        tr.collective_end(1.5)
        assert tr.message_count == 1
        assert tr.bytes_sent == 100
        assert tr.bytes_received == 40
        assert tr.bytes_copied == 8
        assert tr.phase_times() == {"p": 1.0}
        assert tr.collective_times() == {"barrier": 0.5}


class TestFaultPolicyMetrics:
    """Fault accounting (``fault_counts`` / ``injected_delay_total`` /
    degraded ranks) under all three failure policies.

    One seeded chaos family — message drops + departure delays + a 2x
    straggler on rank 1 — exercised under fail-fast (typed error, no
    metrics to check), retry (the reliability transport absorbs the
    drops and the counters record both the faults and the repair), and
    degrade (a crash variant: the dead rank is excised and its stranded
    receives are accounted as ``dead_recv``).  Both live backends must
    agree on every counter bit-for-bit.
    """

    NPROCS = 16
    DROP_PLAN = ("drop:p=0.08;delay:d=30us,jitter=10us,p=0.5;"
                 "straggler:ranks=1,factor=2")
    CRASH_PLAN = ("crash:rank=2,step=3;delay:d=30us,jitter=10us,p=0.5;"
                  "straggler:ranks=1,factor=2")

    def _run(self, backend, plan, policy, algorithm="two_phase_bruck"):
        from repro.core.registry import get_algorithm
        from repro.simmpi import THETA
        from repro.workloads import (block_size_matrix, build_vargs,
                                     distribution_by_name)

        sizes = block_size_matrix(distribution_by_name("power_law", 32),
                                  self.NPROCS, seed=7)
        fn = get_algorithm(algorithm, kind="nonuniform").fn

        def prog(comm):
            vargs = build_vargs(comm.rank, sizes, fill=False)
            fn(comm, *vargs.as_tuple())
            return comm.rank

        cfg = ExecutionConfig(backend=backend, machine=THETA,
                              trace="metrics", wire="phantom",
                              fault_plan=plan, fault_seed=17,
                              on_fault=policy)
        return run_spmd(prog, self.NPROCS, config=cfg)

    def test_fail_fast_drop_raises_typed(self):
        from repro.simmpi import SimMPIError
        with pytest.raises(SimMPIError):
            self._run("coop", self.DROP_PLAN, "fail-fast")

    def test_retry_records_faults_and_repair(self):
        result = self._run("coop", self.DROP_PLAN, "retry")
        m = result.metrics
        assert m is not None
        # The plan fired: drops were injected AND retransmitted (same
        # count — every lost message was repaired), and the delay clause
        # perturbed departures by a positive total.
        assert m.fault_counts["drop"] > 0
        assert m.fault_counts["retry"] >= m.fault_counts["drop"]
        assert m.fault_counts["delay"] > 0
        assert m.injected_delay_total > 0.0
        assert m.total_faults == sum(m.fault_counts.values())
        assert result.degraded_ranks == []

    def test_degrade_accounts_dead_rank(self):
        # spread_out is pairwise-direct, so survivors complete a shrunken
        # collective instead of starving on routed data.
        result = self._run("coop", self.CRASH_PLAN, "degrade",
                           algorithm="spread_out")
        m = result.metrics
        assert result.degraded_ranks == [2]
        assert result.returns[2] is None
        # Every survivor's receive from the dead rank is accounted.
        assert m.fault_counts["dead_recv"] == self.NPROCS - 1
        assert m.fault_counts["delay"] > 0
        assert m.injected_delay_total > 0.0
        # The dead rank's clock froze at its crash instant.
        assert result.clocks[2] < max(result.clocks)

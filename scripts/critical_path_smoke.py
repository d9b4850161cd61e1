"""Observability smoke: attribution conservation at CI scale.

Two tensor-backend runs and one event-level run under one wall budget:

* P=2048 with a seeded straggler+delay plan — the critical-path engine
  must decompose every rank's makespan into buckets that ``fsum``
  exactly to the rank's simulated clock, end the extracted path exactly
  at the run's makespan, and charge the straggler surcharge to the
  straggling ranks only;
* P=32768 lockstep (the paper's largest configuration) with
  ``trace="metrics"`` — the vectorized aggregates and the attribution
  must hold at full paper scale, where per-event tracing is impossible;
* P=1024 on coop x phantom with ``trace="events"`` — ten million copied
  blocks, one column row per copy batch: the event-DAG walk must
  conserve and end at the makespan, agree with the tensor backend's
  buckets on the same size matrix, and the traces must stay under
  512 MiB (they are ~1.3 GiB as one object per copied block).

Usage: PYTHONPATH=src python scripts/critical_path_smoke.py [budget_s]
"""

import math
import sys
import time
import tracemalloc

from repro.core.registry import get_algorithm
from repro.simmpi import ExecutionConfig, THETA, run_spmd
from repro.simmpi.tensor import TensorAlltoallv
from repro.workloads import PowerLawBlocks, block_size_matrix, build_vargs

ALGORITHM = "two_phase_bruck"
BLOCK = 64
PLAN = "delay:d=30us,jitter=15us,p=0.3;straggler:ranks=2:77,factor=3"
STRAGGLERS = (2, 77)
EVENT_TRACE_LIMIT = 512 * 2 ** 20   # bytes retained by the P=1024 traces


def assert_conserving(res, cp) -> None:
    assert len(cp.per_rank) == res.nprocs
    for attr in cp.per_rank:
        # The conservation law, exactly: buckets fsum to the rank clock.
        assert attr.total() == attr.makespan, (
            f"rank {attr.rank}: buckets fsum to {attr.total()!r}, "
            f"clock is {attr.makespan!r}")
        assert attr.makespan == res.clocks[attr.rank]
    assert cp.path[-1].end == res.elapsed, (
        f"path ends at {cp.path[-1].end!r}, makespan {res.elapsed!r}")


def check(nprocs: int, fault_plan) -> None:
    config = ExecutionConfig(machine=THETA, trace="metrics",
                             backend="tensor", wire="phantom",
                             fault_plan=fault_plan, fault_seed=29)
    t0 = time.perf_counter()
    res = run_spmd(TensorAlltoallv(ALGORITHM, BLOCK), nprocs, config=config)
    cp = res.critical_path()
    wall = time.perf_counter() - t0

    assert res.metrics is not None and res.metrics.total_messages > 0
    assert_conserving(res, cp)
    totals = cp.bucket_totals()
    assert math.fsum(totals.values()) > 0
    if fault_plan is not None:
        for r in STRAGGLERS:
            assert cp.per_rank[r].fault_delay > 0.0, r
        clean = [a.fault_delay for a in cp.per_rank
                 if a.rank not in STRAGGLERS]
        assert all(v == 0.0 for v in clean), "non-straggler paid surcharge"
        assert cp.injected_delay > 0.0
    else:
        assert totals["fault_delay"] == 0.0
    pct = {k: f"{100 * v / math.fsum(totals.values()):.1f}%"
           for k, v in totals.items()}
    print(f"P={nprocs:>6} {ALGORITHM} "
          f"({'faulted' if fault_plan else 'clean'}): {wall:6.2f}s host "
          f"wall, {res.elapsed * 1e3:10.4f} simulated ms, "
          f"{res.metrics.total_messages} messages, attribution {pct}")


def check_events(nprocs: int) -> None:
    sizes = block_size_matrix(PowerLawBlocks(32), nprocs, seed=7)
    kernel = get_algorithm(ALGORITHM, kind="nonuniform").fn

    def program(comm):
        kernel(comm, *build_vargs(comm.rank, sizes, fill=False).as_tuple())

    def run(prog, backend: str, trace: str):
        return run_spmd(prog, nprocs, config=ExecutionConfig(
            machine=THETA, trace=trace, backend=backend, wire="phantom"))

    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        res = run(program, "coop", "events")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cp = res.critical_path()
    wall = time.perf_counter() - t0

    assert cp.granularity == "events"
    assert_conserving(res, cp)
    assert retained < EVENT_TRACE_LIMIT, (
        f"event traces retain {retained / 2 ** 20:.0f} MiB")
    # Same matrix on the tensor backend: transmit/congestion share one
    # formula and agree bit for bit; overhead is re-derived from event
    # durations on the coop side, so only to rounding.
    steps = run(TensorAlltoallv(ALGORITHM, sizes), "tensor", "metrics")
    assert steps.clocks == res.clocks
    for ev, st in zip(cp.per_rank, steps.critical_path().per_rank):
        assert ev.transmit == st.transmit, ev.rank
        assert ev.congestion == st.congestion, ev.rank
        assert math.isclose(ev.overhead, st.overhead, rel_tol=1e-12), ev.rank
    copies = sum(len(tr.copy_columns()[0]) for tr in res.traces)
    blocks = sum(tr.copy_count for tr in res.traces)
    print(f"P={nprocs:>6} {ALGORITHM} (coop, events): {wall:6.2f}s host "
          f"wall, {res.elapsed * 1e3:10.4f} simulated ms, {blocks} copied "
          f"blocks in {copies} copy events, {retained / 2 ** 20:.0f} MiB, "
          f"path of "
          f"{len(cp.path)} segments over {len(cp.path_ranks())} ranks")


def main(wall_budget: float = 300.0) -> int:
    start = time.perf_counter()
    check(2048, PLAN)
    check(32768, None)
    check_events(1024)
    total = time.perf_counter() - start
    print(f"\ncritical-path smoke: {total:.1f}s host wall "
          f"(budget {wall_budget:.0f}s)")
    if total >= wall_budget:
        print(f"FAIL: exceeded the {wall_budget:.0f}s wall budget")
        return 1
    return 0


if __name__ == "__main__":
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 300.0
    sys.exit(main(budget))

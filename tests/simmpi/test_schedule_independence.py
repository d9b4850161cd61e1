"""Schedule independence: the run-queue order is not part of the model.

The scheduler resumes runnable ranks in ``(simulated clock, rank)`` order,
but that order only decides *host* execution: every simulated quantity
must be a pure function of the program.  These tests swap the scheduler's
``heapq`` for a shim that pops a *random* runnable rank, and check that
clocks, wire totals, per-rank fault events and the metrics snapshot are
bit-identical to the ordered run — while the pop order really differs.
"""

import heapq
import random
from functools import partial

import pytest

from repro.core.registry import get_algorithm, list_algorithms
from repro.simmpi import THETA, ExecutionConfig, run_spmd
from repro.simmpi import scheduler
from repro.workloads import (block_size_matrix, build_vargs,
                             distribution_by_name, verify_recv)

from ..workloads.test_byzantine import CHAOS_PLAN, _bracha_prog, _cfg
from .test_backend_equivalence import _run_faulted

NPROCS = 16
SEEDS = (1, 2, 3)


class _PopLog:
    """Stands in for :mod:`heapq` inside the scheduler and logs the rank
    of every pop.  With an ``rng`` it pops a uniformly random runnable
    entry instead of the smallest ``(clock, rank)``."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self, rng=None):
        self.rng = rng
        self.ranks = []

    def heappop(self, heap):
        if self.rng is None:
            item = heapq.heappop(heap)
        else:
            i = self.rng.randrange(len(heap))
            heap[i], heap[-1] = heap[-1], heap[i]
            item = heap.pop()
        self.ranks.append(item[1])
        return item


def _signature(result):
    faults = (None if result.traces is None
              else [tr.faults for tr in result.traces])
    return (result.clocks, result.total_messages, result.total_bytes,
            faults, result.metrics)


def _assert_schedule_independent(monkeypatch, run):
    def under(log):
        with monkeypatch.context() as patch:
            patch.setattr(scheduler, "heapq", log)
            return _signature(run())

    ordered = _PopLog()
    ref = under(ordered)
    assert ref[-1] is not None, "cell records no metrics"
    for seed in SEEDS:
        shuffled = _PopLog(random.Random(seed))
        assert under(shuffled) == ref, f"seed {seed}"
        assert shuffled.ranks != ordered.ranks, \
            f"seed {seed} replayed the ordered schedule"


@pytest.mark.parametrize("name", list_algorithms("nonuniform"))
def test_kernel_schedule_independent(monkeypatch, name):
    sizes = block_size_matrix(distribution_by_name("power_law", 32),
                              NPROCS, seed=7)
    fn = get_algorithm(name, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes)
        fn(comm, *vargs.as_tuple())
        verify_recv(comm.rank, sizes, vargs.recvbuf)
        return comm.clock

    cfg = ExecutionConfig(machine=THETA, trace="metrics", wire="bytes")
    _assert_schedule_independent(
        monkeypatch, lambda: run_spmd(prog, NPROCS, config=cfg))


def test_faulted_cell_schedule_independent(monkeypatch):
    _assert_schedule_independent(
        monkeypatch,
        lambda: _run_faulted("two_phase_bruck", NPROCS, "coop", "bytes"))


def test_bracha_under_chaos_schedule_independent(monkeypatch):
    prog = partial(_bracha_prog, broadcaster=0, f=2, byzantine=(1, 4),
                   strategy="forge")
    cfg = _cfg(trace="full", reliability="verify", on_fault="retry",
               fault_plan=CHAOS_PLAN, fault_seed=11)
    _assert_schedule_independent(
        monkeypatch, lambda: run_spmd(prog, NPROCS, config=cfg))

"""Copies are a column store: recording, attribution and export must not
depend on whether a copy arrived alone or as a batch.

``Communicator.charge_copies`` hands the tracer a whole batch as one copy
event with its block count and byte total
(``TraceBase.record_copy_blocks``); :class:`RankTrace` keeps copy events
in typed columns, and ``critical_path`` / ``chrome_trace`` read the
columns.  Everything here pins that path against the per-copy one.

The exported document does not keep one slice per copy: ``chrome_trace``
folds each contiguous run of a rank's copies (copy *i* starts exactly
where copy *i-1* ended) into one ``memory`` slice with
``args = {"copies": n, "bytes": total}``.  The tests below pin where the
runs split, that copies and bytes are conserved, that per rank the
``math.fsum`` of run durations is the fsum of copy durations, and that no
other event of the document depends on how the copies were recorded.
"""

import dataclasses
import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import get_algorithm, list_algorithms
from repro.simmpi import ExecutionConfig, THETA, chrome_trace, run_spmd
from repro.simmpi import executor as executor_module
from repro.simmpi.critical_path import _busy_length
from repro.simmpi.trace_export import _copy_run_slices, _slice
from repro.simmpi.tracing import CopyEvent, MetricsTrace, RankTrace, TraceBase
from repro.workloads import PowerLawBlocks, block_size_matrix, build_vargs

clock = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
nbytes = st.integers(min_value=1, max_value=2 ** 40)
single = st.tuples(nbytes, clock, st.none() | clock)
batch = st.tuples(st.integers(1, 2 ** 20), nbytes, clock, clock)


def _two_phase(nprocs, trace, name="two_phase_bruck", seed=3):
    sizes = block_size_matrix(PowerLawBlocks(32), nprocs, seed=seed)
    fn = get_algorithm(name, kind="nonuniform").fn

    def program(comm):
        fn(comm, *build_vargs(comm.rank, sizes, fill=False).as_tuple())

    return run_spmd(program, nprocs, config=ExecutionConfig(
        machine=THETA, trace=trace, backend="coop", wire="phantom"))


# -- (a) one store, however the copies arrive ---------------------------

@given(ops=st.lists(single | batch, max_size=12))
@settings(max_examples=200, deadline=None)
def test_batches_and_single_copies_record_identically(ops):
    by_hook, by_default = RankTrace(0), RankTrace(0)
    for op in ops:
        if len(op) == 3:
            for tr in (by_hook, by_default):
                tr.record_copy(op[0], op[1], begin=op[2])
        else:
            nblocks, n, end, begin = op
            by_hook.record_copy_blocks(nblocks, n, end, begin)
            # The TraceBase default: one record_copy of the batch's bytes.
            TraceBase.record_copy_blocks(by_default, nblocks, n, end, begin)
    # The default keeps everything but the block count.
    assert [dataclasses.replace(e, nblocks=1) for e in by_hook.events()] \
        == by_default.events()
    assert by_hook.bytes_copied == by_default.bytes_copied
    for ours, theirs in zip(by_hook.copy_columns(),
                            by_default.copy_columns()):
        assert ours.dtype == theirs.dtype
        assert ours.tolist() == theirs.tolist()
    assert len(by_hook.copies) == len(ops)
    assert all(type(e) is CopyEvent for e in by_hook.copies)
    assert [e.nblocks for e in by_hook.copies] == \
        [1 if len(op) == 3 else op[0] for op in ops]
    assert by_hook.copy_count == sum(e.nblocks for e in by_hook.copies)


def test_copy_without_begin_is_instantaneous():
    tr = RankTrace(0)
    tr.record_copy(8, 2.5)
    (ev,) = tr.copies
    assert (ev.nbytes, ev.start, ev.end, ev.duration) == (8, 2.5, 2.5, 0.0)


def test_metrics_trace_counts_a_batchs_blocks():
    tr = MetricsTrace(0)
    tr.record_copy(5, 1.0)
    tr.record_copy_blocks(2, 7, 3.0, 1.0)
    assert (tr.copy_count, tr.bytes_copied) == (3, 12)
    assert type(tr.bytes_copied) is int


# -- (b) the busy-interval union ------------------------------------------

def _union_length_reference(intervals):
    """The per-object loop ``critical_path`` used before the columns."""
    if not intervals:
        return 0.0
    ivs = sorted(intervals)
    total = 0.0
    cur_s, cur_e = ivs[0]
    for s, e in ivs[1:]:
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    return total + (cur_e - cur_s)


# A coarse grid makes duplicates, nesting and touching ends common; the
# free floats exercise the rounding of the fold.
grid = st.integers(0, 12).map(lambda k: k * 0.1)
interval = st.one_of(
    st.tuples(grid, grid).map(lambda ab: (min(ab), max(ab))),
    st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 3.0)).map(
        lambda sl: (sl[0], sl[0] + sl[1])))


@given(intervals=st.lists(interval, max_size=40))
@settings(max_examples=500, deadline=None)
def test_busy_length_is_bitwise_the_sequential_loop(intervals):
    start = np.array([s for s, _ in intervals], dtype=np.float64)
    end = np.array([e for _, e in intervals], dtype=np.float64)
    got = _busy_length(start, end)
    assert type(got) is float
    assert got.hex() == _union_length_reference(intervals).hex()


# -- (c) real runs: columns vs the same traces recorded copy by copy ------

def _replayed_per_copy(result):
    """``result`` with every rank's copies re-recorded one at a time."""
    traces = []
    for tr in result.traces:
        twin = RankTrace(tr.rank)
        for name in ("sends", "recvs", "datatype_ops", "phases",
                     "collectives", "faults"):
            setattr(twin, name, getattr(tr, name))
        for ev in tr.copies:
            twin.record_copy(ev.nbytes, ev.clock, begin=ev.begin)
        traces.append(twin)
    return dataclasses.replace(result, traces=traces)


def _is_copy_slice(ev):
    return ev["name"] == "copy" and ev.get("cat") == "memory"


def _assert_runs_fold_copies(slices, rank, nbytes, start, end):
    """``slices`` are ``rank``'s copies, one per contiguous run."""
    heads = [i for i in range(len(nbytes))
             if i == 0 or start[i] != end[i - 1]]
    stops = heads[1:] + [len(nbytes)]
    # _slice()'s arithmetic, its key order and ints as ints: the
    # serialised bytes depend on all three.
    assert json.dumps(slices) == json.dumps([
        _slice("copy", "memory", rank, float(start[a]), float(end[b - 1]),
               {"copies": b - a, "bytes": int(nbytes[a:b].sum())})
        for a, b in zip(heads, stops)])
    assert sum(ev["args"]["copies"] for ev in slices) == len(nbytes)
    assert sum(ev["args"]["bytes"] for ev in slices) == int(nbytes.sum())
    # Exact per rank, in simulated seconds: chained copies telescope.
    assert math.fsum(max(0.0, end[b - 1] - start[a])
                     for a, b in zip(heads, stops)) == \
        math.fsum(np.maximum(0.0, end - start).tolist())


@pytest.mark.parametrize("nprocs", [5, 16])
@pytest.mark.parametrize("name", list_algorithms("nonuniform"))
def test_document_and_path_equal_per_copy_replay(name, nprocs):
    result = _two_phase(nprocs, "full", name=name, seed=nprocs)
    replay = _replayed_per_copy(result)
    doc = chrome_trace(result, critical_path=True)
    assert doc == chrome_trace(replay, critical_path=True)
    ours, theirs = result.critical_path(), replay.critical_path()
    assert ours.per_rank == theirs.per_rank
    assert ours.path == theirs.path
    slices = [ev for ev in doc["traceEvents"] if _is_copy_slice(ev)]
    for tr in result.traces:
        _assert_runs_fold_copies([ev for ev in slices if ev["pid"] == tr.rank],
                                 tr.rank, *tr.copy_columns())
    assert sum(ev["args"]["bytes"] for ev in slices) == \
        sum(tr.bytes_copied for tr in result.traces)


# Copy columns as integer ticks of 2**-20 s, so every clock difference is
# exact; a zero gap chains a copy to the previous one, any other gap
# (backwards too) starts a new run.
copy_step = st.tuples(nbytes, st.just(0) | st.integers(-2 ** 10, 2 ** 20),
                      st.integers(0, 2 ** 10))


@given(steps=st.lists(copy_step, max_size=40))
@settings(max_examples=300, deadline=None)
def test_copy_runs_split_exactly_where_a_copy_does_not_chain(steps):
    counts, starts, ends = [], [], []
    clock = 2 ** 21
    for n, gap, length in steps:
        clock += gap
        counts.append(n)
        starts.append(clock)
        clock += length
        ends.append(clock)
    nbytes = np.array(counts, dtype=np.int64)
    start = np.array(starts, dtype=np.float64) * 2.0 ** -20
    end = np.array(ends, dtype=np.float64) * 2.0 ** -20
    _assert_runs_fold_copies(_copy_run_slices(7, nbytes, start, end),
                             7, nbytes, start, end)


# sha256 of each cell's document with its copy slices taken out, recorded
# while the exporter still wrote one slice per copy: the run slices
# changed nothing else (flows, counters, critical-path track, ordering).
# two_phase_bruck's was re-recorded when a charge_copies batch became one
# clock advance (its clocks moved in the last bits); vendor charges no
# batch and kept its digest.
NON_COPY_DOCUMENT_SHA256 = {
    "two_phase_bruck":
        "d05b1b3310ed72d159a43436ecb87f30fbb009e9efbad32458ea136c31157e78",
    "vendor":
        "c03a8b20bcba5d23c609e973609930f764d76f5ab547e707d72481d4ff0ced18",
}


@pytest.mark.parametrize("name", sorted(NON_COPY_DOCUMENT_SHA256))
def test_non_copy_events_unchanged_by_run_slices(name):
    doc = chrome_trace(_two_phase(16, "full", name=name, seed=16),
                       critical_path=True)
    doc["traceEvents"] = [ev for ev in doc["traceEvents"]
                          if not _is_copy_slice(ev)]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == \
        NON_COPY_DOCUMENT_SHA256[name]


# -- (d) tracers that predate record_copies -------------------------------

class _HooksOnlyTrace(TraceBase):
    """A third-party tracer: the abstract hooks and nothing else."""

    def __init__(self, rank):
        super().__init__(rank)
        self.seen = []

    def record_copy(self, nbytes, clock, begin=None):
        self.seen.append((nbytes, begin, clock))

    def record_send(self, *args, **kwargs):
        pass

    record_recv = record_datatype = record_send
    phase_begin = phase_end = record_send
    collective_begin = collective_end = record_send


def test_hooks_only_tracer_sees_every_copy(monkeypatch):
    reference = _two_phase(8, "events")
    monkeypatch.setattr(executor_module, "RankTrace", _HooksOnlyTrace)
    third_party = _two_phase(8, "events")
    assert third_party.clocks == reference.clocks
    for theirs, ours in zip(third_party.traces, reference.traces):
        assert theirs.seen
        assert theirs.seen == [(e.nbytes, e.begin, e.clock)
                               for e in ours.copies]
        assert all(type(n) is int and type(c) is float
                   for n, _, c in theirs.seen)


# -- memory tripwires --------------------------------------------------------

@pytest.fixture(scope="module")
def events_p256():
    """The P=256 events cell, recorded once under tracemalloc: the result
    and the bytes it retained."""
    gc.collect()
    tracemalloc.start()
    try:
        result = _two_phase(256, "events")
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained


def test_event_traces_retain_columns_not_objects(events_p256):
    """505 223 copies at P=256 in 4 345 copy events, ~3 MiB retained: one
    column entry per batch, not per block (~15 MiB as columns per block,
    ~65 MiB as one object per block).  Counted, not timed, so it bites on
    any host."""
    result, retained = events_p256
    assert retained <= 8 * 2 ** 20, f"{retained / 2 ** 20:.1f} MiB retained"
    assert sum(tr.copy_count for tr in result.traces) > 500_000
    assert sum(len(tr.copy_columns()[0]) for tr in result.traces) < 5_000


def test_document_scales_with_copy_runs_not_copies(events_p256):
    """The same cell's document: 4 345 run slices instead of 505 223 copy
    slices, ~20 MiB to build instead of ~265 MiB."""
    result, _ = events_p256
    gc.collect()
    tracemalloc.start()
    try:
        doc = chrome_trace(result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB peak"
    assert len(doc["traceEvents"]) <= 45_000

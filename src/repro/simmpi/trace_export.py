"""Render SPMD runs to the Chrome/Perfetto trace-event format and to
plain-text summaries.

``chrome://tracing`` and https://ui.perfetto.dev both load the JSON
*trace event format* (one object per event).  :func:`chrome_trace` turns
an :class:`~repro.simmpi.executor.SPMDResult` into that format:

* one track (process) per rank, named ``rank N``;
* complete-duration slices (``"ph": "X"``) for phases, collectives,
  sends (injection overhead), receives (landing/serialization time),
  contiguous copy runs (one slice per run, not per copy) and
  datatype-engine operations;
* **flow arrows** (``"ph": "s"`` / ``"ph": "f"``) connecting each send
  slice to the matching receive slice on the destination rank, so message
  routes are visible as arrows in the timeline;
* a **fabric counter track** (``"ph": "C"``) charting the number of
  in-flight messages over simulated time — the same quantity whose
  maximum :class:`~repro.simmpi.metrics.RunMetrics` reports as
  ``max_in_flight``;
* optionally (``critical_path=True``) a **critical path track**: the
  happens-before chain that bounded the makespan, rendered as its own
  pinned process with one slice per path segment and flow arrows at
  every cross-rank hop.

All timestamps are *simulated* microseconds — the exported timeline is
deterministic and bit-reproducible, like the simulation itself.

:func:`format_summary` renders the shared plain-text per-phase / per-step
accounting table used by ``SPMDResult.summary()``, the ``python -m repro
trace`` subcommand, and the benchmark harness.
"""

from __future__ import annotations

import gc
import json
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .executor import SPMDResult

__all__ = ["chrome_trace", "export_chrome_trace", "format_summary",
           "format_phase_table"]

_US = 1e6  # simulated seconds -> trace-event microseconds


def _slice(name: str, cat: str, pid: int, start: float, end: float,
           args: Optional[dict] = None) -> dict:
    ev = {"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": 0,
          "ts": start * _US, "dur": max(0.0, (end - start)) * _US}
    if args:
        ev["args"] = args
    return ev


def chrome_trace(result: "SPMDResult", critical_path: bool = False) -> dict:
    """Build the trace-event JSON document for one SPMD run.

    Requires event traces — run with ``trace=True`` or ``trace="events"``.
    With ``critical_path=True`` the document additionally carries a
    pinned "critical path" track computed by
    :meth:`~repro.simmpi.executor.SPMDResult.critical_path`.
    """
    if result.traces is None:
        raise ValueError(
            "chrome_trace needs per-event traces; re-run with trace=True "
            "or trace='events' (this run used trace=False or "
            "trace='metrics')"
        )
    # The document is an acyclic tree of fresh dicts: the cyclic collector
    # can free none of it, yet re-traverses it as it grows (most of the
    # build time at P >= 256).  Pause it, and leave it as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _build_document(result, critical_path)
    finally:
        if collecting:
            gc.enable()


def _build_document(result: "SPMDResult", critical_path: bool) -> dict:
    events: List[dict] = []
    for rank in range(result.nprocs):
        events.append({"name": "process_name", "ph": "M", "pid": rank,
                       "tid": 0, "args": {"name": f"rank {rank}"}})
        events.append({"name": "process_sort_index", "ph": "M", "pid": rank,
                       "tid": 0, "args": {"sort_index": rank}})

    # Flow-arrow ids: the i-th send on a (src, dst, tag) channel matches
    # the i-th receive on it (the network delivers per-channel FIFO).
    flow_ids: Dict[tuple, int] = {}

    def flow_id(src: int, dst: int, tag: int, seq: int) -> int:
        key = (src, dst, tag, seq)
        if key not in flow_ids:
            flow_ids[key] = len(flow_ids) + 1
        return flow_ids[key]

    for tr in result.traces:
        rank = tr.rank
        for ph in tr.phases:
            events.append(_slice(ph.name, "phase", rank, ph.start, ph.end))
        for coll in tr.collectives:
            events.append(_slice(coll.name, "collective", rank,
                                 coll.start, coll.end))
        send_seq: Dict[tuple, int] = {}
        for e in tr.sends:
            chan = (e.src, e.dst, e.tag)
            seq = send_seq.get(chan, 0)
            send_seq[chan] = seq + 1
            fid = flow_id(e.src, e.dst, e.tag, seq)
            events.append(_slice(f"send->{e.dst}", "comm", rank,
                                 e.start, e.end,
                                 {"dst": e.dst, "tag": e.tag,
                                  "nbytes": e.nbytes}))
            events.append({"name": "msg", "cat": "flow", "ph": "s",
                           "id": fid, "pid": rank, "tid": 0,
                           "ts": e.end * _US})
        recv_seq: Dict[tuple, int] = {}
        for e in tr.recvs:
            chan = (e.src, e.dst, e.tag)
            seq = recv_seq.get(chan, 0)
            recv_seq[chan] = seq + 1
            fid = flow_id(e.src, e.dst, e.tag, seq)
            events.append(_slice(f"recv<-{e.src}", "comm", rank,
                                 e.start, e.end,
                                 {"src": e.src, "tag": e.tag,
                                  "nbytes": e.nbytes}))
            events.append({"name": "msg", "cat": "flow", "ph": "f",
                           "bp": "e", "id": fid, "pid": rank, "tid": 0,
                           "ts": e.end * _US})
        for e in tr.faults:
            # Injected faults render as instant events ("ph": "i") pinned
            # to their simulated instant on the affected sender's track.
            events.append({"name": f"fault:{e.kind}", "cat": "fault",
                           "ph": "i", "s": "t", "pid": rank, "tid": 0,
                           "ts": e.clock * _US,
                           "args": {"src": e.src, "dst": e.dst,
                                    "tag": e.tag, "nbytes": e.nbytes,
                                    "detail": e.detail}})
        events.extend(_copy_run_slices(rank, *tr.copy_columns()))
        for e in tr.datatype_ops:
            events.append(_slice(f"dt_{e.kind}", "memory", rank,
                                 e.start, e.end,
                                 {"nblocks": e.nblocks, "nbytes": e.nbytes}))

    events.extend(_fabric_counter_events(result))
    if critical_path:
        events.extend(_critical_path_events(result))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "nprocs": result.nprocs,
            "machine": result.machine.name,
            "total_messages": result.total_messages,
            "total_bytes": result.total_bytes,
            "simulated_makespan_s": result.elapsed,
            "degraded_ranks": list(result.degraded_ranks),
        },
    }


def _copy_run_slices(rank: int, nbytes: np.ndarray, start: np.ndarray,
                     end: np.ndarray) -> List[dict]:
    """One ``memory`` slice per contiguous run of a rank's copies.

    Copy *i* joins the run of copy *i-1* iff it starts exactly where that
    one ended (``start[i] == end[i-1]``).  A run's slice spans its first
    copy's start to its last copy's end, with the scalar arithmetic of
    :func:`_slice`, and carries ``{"copies": n, "bytes": total}``.
    Per-copy detail stays in ``RankTrace.copy_columns()``.
    """
    n = len(nbytes)
    if not n:
        return []
    first = np.flatnonzero(np.concatenate(([True], start[1:] != end[:-1])))
    bounds = np.append(first, n)
    return [{"name": "copy", "cat": "memory", "ph": "X", "pid": rank,
             "tid": 0, "ts": ts, "dur": dur,
             "args": {"copies": copies, "bytes": total}}
            for ts, dur, copies, total in zip(
                (start[first] * _US).tolist(),
                (np.maximum(0.0, end[bounds[1:] - 1] - start[first])
                 * _US).tolist(),
                np.diff(bounds).tolist(),
                np.add.reduceat(nbytes, first).tolist())]


def _fabric_counter_events(result: "SPMDResult") -> List[dict]:
    """In-flight message counter samples on a synthetic "fabric" track.

    A message is in flight from its departure (send slice end) until its
    landing begins (receive slice start).  Ties resolve starts before
    ends — the same sweep convention the metrics registry uses, so on a
    clean fabric the counter's peak equals ``RunMetrics.max_in_flight``.
    (Under injected *delay* faults the counter opens at the scheduled
    departure — the send event predates fault injection — while the
    registry sweeps post-injection departs, so the peaks can differ.)
    """
    pid = result.nprocs  # first pid after the rank tracks
    deltas: List[tuple] = []
    for tr in result.traces:
        for e in tr.sends:
            deltas.append((e.end, 0, 1))
        for e in tr.recvs:
            deltas.append((e.start, 1, -1))
    deltas.sort()
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "fabric"}},
        {"name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
         "args": {"sort_index": pid}},
    ]
    level = 0
    i = 0
    while i < len(deltas):
        ts = deltas[i][0]
        while i < len(deltas) and deltas[i][0] == ts:
            level += deltas[i][2]
            i += 1
        events.append({"name": "in-flight", "ph": "C", "pid": pid,
                       "tid": 0, "ts": ts * _US,
                       "args": {"messages": level}})
    return events


def _critical_path_events(result: "SPMDResult") -> List[dict]:
    """The critical-path chain as a pinned track plus hop arrows."""
    cp = result.critical_path()
    pid = result.nprocs + 1  # after the rank tracks and the fabric track
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "critical path"}},
        {"name": "process_sort_index", "ph": "M", "pid": pid, "tid": 0,
         "args": {"sort_index": -1}},  # pin above the rank tracks
    ]
    prev_rank: Optional[int] = None
    for i, seg in enumerate(cp.path):
        name = f"rank {seg.rank}: {seg.kind}"
        args = {"rank": seg.rank, "kind": seg.kind}
        if seg.detail:
            args["detail"] = seg.detail
        events.append(_slice(name, "critical", pid, seg.start, seg.end,
                             args))
        if prev_rank is not None and seg.rank != prev_rank:
            # Arrow on the rank tracks marking the cross-rank hop.
            events.append({"name": "critical-hop", "cat": "critical",
                           "ph": "s", "id": 10_000_000 + i,
                           "pid": prev_rank, "tid": 0,
                           "ts": seg.start * _US})
            events.append({"name": "critical-hop", "cat": "critical",
                           "ph": "f", "bp": "e", "id": 10_000_000 + i,
                           "pid": seg.rank, "tid": 0,
                           "ts": seg.start * _US})
        prev_rank = seg.rank
    return events


def export_chrome_trace(result: "SPMDResult",
                        path: Optional[str] = None,
                        critical_path: bool = False) -> dict:
    """Render ``result`` to trace-event JSON; write it to ``path`` if given.

    The file loads directly in ``chrome://tracing`` or Perfetto
    (https://ui.perfetto.dev -> "Open trace file").
    """
    doc = chrome_trace(result, critical_path=critical_path)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            # dumps, not dump: dump(fh) takes the pure-Python chunked
            # encoder, ~2.6x slower for the same bytes.
            fh.write(json.dumps(doc, separators=(",", ":")))
    return doc


# ----------------------------------------------------------------------
# plain-text summaries
# ----------------------------------------------------------------------

def format_phase_table(phase_times: Mapping[str, float],
                       header: str = "phases (max over ranks, ms):") -> str:
    """Aligned per-phase table in milliseconds, ordered by time desc."""
    if not phase_times:
        return f"{header} none recorded"
    width = max(len(name) for name in phase_times)
    lines = [header]
    for name, t in sorted(phase_times.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:>{width}}: {t * 1e3:10.4f}")
    return "\n".join(lines)


def _step_table(metrics, limit: int = 16) -> List[str]:
    rows = metrics.step_table()
    lines = [f"{'step(tag)':>10} {'messages':>9} {'bytes':>12} "
             f"{'max in-flight':>14} {'max q-wait(ms)':>15}"]
    shown = rows
    if len(rows) > limit:
        shown = sorted(rows, key=lambda r: -r[2])[:limit]
        shown.sort(key=lambda r: r[0])
    for tag, msgs, nbytes, mif, qw in shown:
        lines.append(f"{tag:>10} {msgs:>9} {nbytes:>12} {mif:>14} "
                     f"{qw * 1e3:>15.4f}")
    if len(rows) > limit:
        lines.append(f"  ({len(rows) - limit} smaller steps elided)")
    return lines


def format_summary(result: "SPMDResult", title: str = "") -> str:
    """Shared per-phase / per-step accounting of one SPMD run.

    Works with whatever the run recorded: phase breakdowns come from event
    traces or the metrics phase table; congestion and queue-wait rows need
    ``result.metrics`` (``trace=True`` or ``trace="metrics"``).
    """
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"SPMD run: P={result.nprocs}, machine={result.machine.name}, "
        f"simulated makespan {result.elapsed * 1e3:.4f} ms")
    lines.append(f"wire traffic: {result.total_messages} messages, "
                 f"{result.total_bytes} bytes")
    if result.degraded_ranks:
        lines.append(
            f"DEGRADED run: rank(s) {result.degraded_ranks} excised by "
            f"injected crashes; survivors completed a shrunken collective")
    m = result.metrics
    if m is not None:
        lines.append(
            f"congestion: max in-flight {m.max_in_flight} globally, "
            f"{m.max_in_flight_per_link} on the busiest link")
        lines.append(
            f"receive waits: {m.queue_wait_total * 1e3:.4f} ms queued "
            f"(max {m.queue_wait_max * 1e3:.4f}), "
            f"{m.recv_wait_total * 1e3:.4f} ms idle "
            f"(max {m.recv_wait_max * 1e3:.4f})")
        if m.fault_counts:
            counts = ", ".join(f"{k}={v}" for k, v in
                               sorted(m.fault_counts.items()))
            lines.append(
                f"injected faults: {counts}; "
                f"+{m.injected_delay_total * 1e3:.4f} ms simulated delay")
    try:
        phases = result.phase_times()
    except ValueError:
        phases = {}
    if phases:
        lines.append(format_phase_table(phases))
    if m is not None and m.collective_times:
        lines.append(format_phase_table(
            m.collective_times, header="collectives (max over ranks, ms):"))
    if m is not None and m.per_step:
        lines.extend(_step_table(m))
    return "\n".join(lines)

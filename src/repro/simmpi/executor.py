"""SPMD launcher: run one Python function as ``P`` simulated MPI ranks.

``run_spmd(fn, nprocs)`` hands each rank a
:class:`~repro.simmpi.communicator.Communicator` and returns an
:class:`SPMDResult` with per-rank return values, per-rank simulated clocks,
and (optionally) per-rank event traces.

How a run executes — machine, backend, wire, trace mode, faults — is one
:class:`~repro.simmpi.config.ExecutionConfig`; every backend produces
bit-identical simulated clocks.

Failure semantics: if any rank raises, the network is aborted so blocked
peers wake with :class:`RankFailedError` (and further sends fail the same
way), and the *original* exception is re-raised on the calling thread with
the failing rank identified.  Deadlocks raise :class:`DeadlockError` with
a dump of pending messages the moment the scheduler proves no rank can
make progress (see :mod:`repro.simmpi.scheduler`).

Determinism: simulated clocks depend only on the program's communication
structure (see :mod:`repro.simmpi.network`), never on OS scheduling, so
``SPMDResult.elapsed`` values are reproducible across runs, machines, and
backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .communicator import Communicator
from .config import (BACKENDS, ON_FAULT_POLICIES, TRACE_MODES,
                     ExecutionConfig)
from .errors import (CommAbortedError, InjectedCrashError, RankFailedError,
                     SimMPIError)
from .faults import FaultInjector
from .machine import MachineProfile
from .metrics import MetricsRegistry, RunMetrics
from .network import WIRE_MODES, Network
from .tracing import MetricsTrace, NullTrace, RankTrace, TraceBase

__all__ = ["run_spmd", "SPMDResult", "ExecutionConfig", "TRACE_MODES",
           "BACKENDS", "WIRE_MODES", "ON_FAULT_POLICIES"]


@dataclass
class SPMDResult:
    """Outcome of one SPMD run."""

    nprocs: int
    machine: MachineProfile
    returns: List[Any]          # per-rank return value of ``fn``
    clocks: List[float]         # per-rank final simulated clock (seconds)
    traces: Optional[List[RankTrace]]
    total_messages: int
    total_bytes: int
    metrics: Optional[RunMetrics] = field(default=None)
    wire: str = "bytes"         # payload transport mode of the run
    #: Echo of the resolved :class:`ExecutionConfig` the run executed under.
    config: Optional[ExecutionConfig] = field(default=None)
    #: Ranks excised by ``on_fault="degrade"``: injected crashes that did
    #: not tear the job down (their ``returns`` entry is ``None`` and
    #: their ``clocks`` entry is the simulated crash time), plus senders
    #: tombstoned by the verified transport after a failed integrity
    #: check (those ranks ran to completion, so their ``returns``/
    #: ``clocks`` entries are real — but at least one receiver discarded
    #: their traffic, so the result is a flagged partial).  Empty for
    #: clean runs and for the fail-fast/retry policies.
    degraded_ranks: List[int] = field(default_factory=list)
    #: Tensor-backend only: raw per-rank attribution bucket sums
    #: (overhead/transmit/congestion/fault_delay/queue_wait) recorded by
    #: the lane engine, consumed by :meth:`critical_path`.  ``None`` on
    #: the coop backend (attribution is derived from event
    #: traces there) and when metrics were off.  The ``"step_log"`` key
    #: carries the engine's coarse per-step records for the path walk.
    raw_attribution: Optional[Dict[str, Any]] = field(default=None)

    @property
    def degraded(self) -> bool:
        """True when at least one rank was excised mid-run — the result is
        a verified *partial* (survivors completed a shrunken collective)."""
        return bool(self.degraded_ranks)

    @property
    def elapsed(self) -> float:
        """Simulated makespan: the slowest rank's clock."""
        return max(self.clocks) if self.clocks else 0.0

    def phase_times(self) -> Dict[str, float]:
        """Max-over-ranks simulated time per phase name.

        The max (not mean) matches how a phase bounds a bulk-synchronous
        program: everyone waits for the slowest rank.  Works from event
        traces when present, else from the metrics snapshot
        (``trace="metrics"``).
        """
        if self.traces is not None:
            out: Dict[str, float] = {}
            for tr in self.traces:
                for name, t in tr.phase_times().items():
                    out[name] = max(out.get(name, 0.0), t)
            return out
        if self.metrics is not None:
            return dict(self.metrics.phase_times)
        raise ValueError(
            "phase data unavailable: the run was executed with trace=False; "
            "re-run with trace=True, trace='events' or trace='metrics'"
        )

    def collective_times(self) -> Dict[str, float]:
        """Max-over-ranks simulated time per builtin-collective name."""
        if self.traces is not None:
            out: Dict[str, float] = {}
            for tr in self.traces:
                for name, t in tr.collective_times().items():
                    out[name] = max(out.get(name, 0.0), t)
            return out
        if self.metrics is not None:
            return dict(self.metrics.collective_times)
        raise ValueError(
            "collective data unavailable: the run was executed with "
            "trace=False; re-run with trace=True, trace='events' or "
            "trace='metrics'"
        )

    def export_chrome_trace(self, path: Optional[str] = None,
                            critical_path: bool = False) -> dict:
        """Render this run to Chrome/Perfetto trace-event JSON.

        Needs event traces (``trace=True`` or ``trace="events"``).  Writes
        the document to ``path`` when given; always returns it.  With
        ``critical_path=True`` the document gains a pinned track tracing
        the chain of events that bounded the makespan.
        """
        from .trace_export import export_chrome_trace
        return export_chrome_trace(self, path, critical_path=critical_path)

    def summary(self, title: str = "") -> str:
        """Plain-text per-phase / per-step accounting of this run."""
        from .trace_export import format_summary
        return format_summary(self, title)

    def critical_path(self) -> "CriticalPathResult":
        """Critical-path walk + per-rank makespan attribution.

        Needs event traces (``trace=True``/``"events"``) or, on the tensor
        backend, ``trace="metrics"`` (coarse per-step path from the lane
        engine's step log).  See :mod:`repro.simmpi.critical_path`.
        """
        from .critical_path import analyze
        return analyze(self)


def run_spmd(fn: Callable[..., Any], nprocs: int, *,
             config: Optional[ExecutionConfig] = None,
             args: Sequence[Any] = (),
             rank_args: Optional[Sequence[Sequence[Any]]] = None,
             ) -> SPMDResult:
    """Execute ``fn(comm, *args)`` on ``nprocs`` simulated ranks.

    Parameters
    ----------
    fn:
        The SPMD program.  Called as ``fn(comm, *args)`` — or, when
        ``rank_args`` is given, as ``fn(comm, *rank_args[rank])`` so each
        rank can receive its own inputs (e.g. its row of a block-size
        matrix).  Under ``backend="tensor"`` this must be a
        :class:`~repro.simmpi.tensor.TensorProgram` spec object.
    nprocs:
        Number of simulated ranks.  ``backend="coop"`` scales to
        thousands; ``backend="tensor"`` to the paper's 32K.
    config:
        The :class:`ExecutionConfig` describing how the run executes —
        machine, trace mode, backend, wire, faults; ``None`` means
        ``ExecutionConfig()``.

    Returns
    -------
    SPMDResult
    """
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if rank_args is not None and len(rank_args) != nprocs:
        raise ValueError(
            f"rank_args must have one entry per rank "
            f"({nprocs}), got {len(rank_args)}"
        )
    cfg = ExecutionConfig() if config is None else config
    if not isinstance(cfg, ExecutionConfig):
        raise ValueError(
            f"config must be an ExecutionConfig, got {config!r}")

    if cfg.backend == "tensor":
        from .tensor import run_tensor
        result = run_tensor(fn, nprocs, cfg, args=args, rank_args=rank_args)
        _maybe_append_ledger(result, fn)
        return result

    machine = cfg.machine
    wire = cfg.wire
    on_fault = cfg.on_fault
    events_on = cfg.events_on
    metrics_on = cfg.metrics_on

    registry = MetricsRegistry(nprocs) if metrics_on else None
    network = Network(nprocs, machine, metrics=registry, wire=wire)
    if cfg.faulted:
        # Attached before any Communicator exists: ranks resolve their
        # straggler/crash/reliability state from it at construction.
        network.injector = FaultInjector(cfg.fault_plan, seed=cfg.fault_seed,
                                         reliability=cfg.reliability,
                                         on_fault=cfg.on_fault)
    tracers: List[TraceBase]
    if events_on:
        tracers = [RankTrace(r) for r in range(nprocs)]
    elif metrics_on:
        tracers = [MetricsTrace(r) for r in range(nprocs)]
    else:
        tracers = [NullTrace(r) for r in range(nprocs)]
    traces: Optional[List[RankTrace]] = tracers if events_on else None
    returns: List[Any] = [None] * nprocs
    clocks: List[float] = [0.0] * nprocs
    failures: List[Tuple[int, BaseException]] = []
    degraded: List[int] = []

    def worker(rank: int) -> None:
        comm = Communicator(network, rank, tracers[rank])
        try:
            call_args = rank_args[rank] if rank_args is not None else args
            returns[rank] = fn(comm, *call_args)
            clocks[rank] = comm.clock
            network.flush_sender(rank)
        except InjectedCrashError as exc:
            if on_fault == "degrade":
                # The planned crash is not a job failure: excise the rank
                # (survivors read its traffic as empty) and keep going.
                degraded.append(rank)
                clocks[rank] = exc.clock
                network.mark_dead(rank, exc.clock)
                return
            failures.append((rank, exc))
            network.abort(rank, exc, clock=comm.clock,
                          phase=comm.current_phase, step=comm.op_index)
        except BaseException as exc:  # noqa: BLE001 - must propagate any failure
            failures.append((rank, exc))
            network.abort(rank, exc, clock=comm.clock,
                          phase=comm.current_phase, step=comm.op_index)

    network.scheduler.run(network, worker)  # DeadlockError propagates
    network.shutdown()
    _raise_first_failure(failures)

    metrics: Optional[RunMetrics] = None
    if registry is not None:
        phase_times: Dict[str, float] = {}
        coll_times: Dict[str, float] = {}
        for tr in tracers:
            for name, t in tr.phase_times().items():
                phase_times[name] = max(phase_times.get(name, 0.0), t)
            for name, t in tr.collective_times().items():
                coll_times[name] = max(coll_times.get(name, 0.0), t)
        metrics = registry.snapshot(phase_times=phase_times,
                                    collective_times=coll_times)

    result = SPMDResult(
        nprocs=nprocs,
        machine=machine,
        returns=returns,
        clocks=clocks,
        traces=traces,
        total_messages=network.total_messages,
        total_bytes=network.total_bytes,
        metrics=metrics,
        wire=wire,
        config=cfg,
        degraded_ranks=sorted(set(degraded) | set(network.tombstoned_ranks)),
    )
    _maybe_append_ledger(result, fn)
    return result


def _maybe_append_ledger(result: SPMDResult, fn: Callable) -> None:
    """Record the run into ``config.ledger`` when one is configured.

    Only metric-bearing runs are ledger-worthy (the record is built
    around the aggregates); ``trace="off"``/``"events"`` runs skip
    silently so a ledger-configured config stays usable for quick
    unobserved runs.  Workload labels come off the program object when
    it carries them — tensor specs have ``.algorithm``, and any rank
    closure can be stamped with ``algorithm``/``distribution``
    attributes (the CLI does).  Imported lazily — the ledger lives in
    the bench layer, which sits above simmpi.
    """
    cfg = result.config
    if cfg is None or cfg.ledger is None or result.metrics is None:
        return
    from repro.bench.ledger import append_run
    extra = {}
    for label in ("radix", "max_block"):
        value = getattr(fn, label, None)
        if value is not None:
            extra[label] = int(value)
    append_run(cfg.ledger, result,
               algorithm=getattr(fn, "algorithm", None),
               distribution=getattr(fn, "distribution", None),
               extra=extra or None)


def _raise_first_failure(failures: List[Tuple[int, BaseException]]) -> None:
    """Re-raise the root cause of a failed run, tagged with its rank.

    Secondary casualties — ranks that died of :class:`RankFailedError` or
    :class:`CommAbortedError` *because* a peer failed first — never mask
    the original exception; they are only reported when no primary failure
    exists.
    """
    if not failures:
        return
    primary = [f for f in failures
               if not isinstance(f[1], (RankFailedError, CommAbortedError))]
    pool = primary or failures
    rank, exc = min(pool, key=lambda f: f[0])
    if isinstance(exc, SimMPIError):
        raise exc
    # Rebuild from the nearest class that takes one message (numpy's
    # _ArrayMemoryError wants (shape, dtype): MemoryError); BaseException
    # always does.
    for cls in type(exc).__mro__:
        try:
            wrapped = cls(f"[simulated rank {rank}] {exc}")
        except Exception:
            continue
        raise wrapped from exc

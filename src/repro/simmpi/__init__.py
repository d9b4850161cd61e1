"""Simulated MPI substrate.

A deterministic, in-process stand-in for an MPI runtime: SPMD programs run
against a shared :class:`~repro.simmpi.network.Network` whose simulated
clocks follow a LogGP-style cost model parameterized by
:class:`~repro.simmpi.machine.MachineProfile`.  Two executor backends with
bit-identical simulated clocks: the cooperative scheduler (``backend=
"coop"``, the default; thousands of ranks, see :mod:`repro.simmpi.scheduler`)
runs the rank programs, and the vectorized engine (``backend="tensor"``, see
:mod:`repro.simmpi.tensor`) evaluates registered collectives whole-fabric.

Quick start::

    from repro.simmpi import ExecutionConfig, run_spmd, THETA

    def program(comm):
        comm.barrier()
        return comm.rank

    result = run_spmd(program, nprocs=8,
                      config=ExecutionConfig(machine=THETA))
    print(result.returns, result.elapsed)

See ``DESIGN.md`` §5 for the cost rules and calibration rationale.
"""

from .communicator import MAX_USER_TAG, Communicator
from .config import ExecutionConfig
from .critical_path import (
    BUCKETS,
    CriticalPathResult,
    PathSegment,
    RankAttribution,
    analyze as analyze_critical_path,
)
from .datatype import IndexedBlocks
from .errors import (
    CommAbortedError,
    DeadlockError,
    InjectedCrashError,
    InvalidRankError,
    InvalidTagError,
    MessageCorruptError,
    MessageLostError,
    RankFailedError,
    SimMPIError,
    TruncationError,
    WireCountError,
)
from .executor import (
    BACKENDS,
    ON_FAULT_POLICIES,
    TRACE_MODES,
    SPMDResult,
    run_spmd,
)
from .faults import (
    FAULT_KINDS,
    KNOWN_FAULT_CLAUSES,
    CrashRule,
    FaultInjector,
    FaultPlan,
    FaultRule,
    ReliabilityConfig,
    StragglerRule,
)
from .machine import (
    CORI,
    LOCAL,
    MACHINE_MODEL_VERSION,
    PROFILES,
    STAMPEDE2,
    THETA,
    MachineProfile,
    get_profile,
)
from .metrics import Counter, Histogram, MetricsRegistry, RunMetrics
from .network import WIRE_MODES, Envelope, Network
from .scheduler import CoopScheduler
from .request import RecvRequest, Request, SendRequest, waitall
from .tensor import TensorAlltoall, TensorAlltoallv
from .trace_export import (
    chrome_trace,
    export_chrome_trace,
    format_phase_table,
    format_summary,
)
from .tracing import (
    CollectiveEvent,
    CopyEvent,
    DatatypeEvent,
    FaultEvent,
    MetricsTrace,
    NullTrace,
    PhaseEvent,
    RankTrace,
    RecvEvent,
    SendEvent,
    TraceBase,
)

__all__ = [
    "Communicator",
    "MAX_USER_TAG",
    "IndexedBlocks",
    "SimMPIError",
    "InvalidRankError",
    "InvalidTagError",
    "TruncationError",
    "DeadlockError",
    "RankFailedError",
    "CommAbortedError",
    "InjectedCrashError",
    "MessageLostError",
    "MessageCorruptError",
    "WireCountError",
    "run_spmd",
    "SPMDResult",
    "ExecutionConfig",
    "TensorAlltoall",
    "TensorAlltoallv",
    "TRACE_MODES",
    "BACKENDS",
    "WIRE_MODES",
    "ON_FAULT_POLICIES",
    "FaultPlan",
    "FaultRule",
    "CrashRule",
    "StragglerRule",
    "ReliabilityConfig",
    "FaultInjector",
    "FAULT_KINDS",
    "KNOWN_FAULT_CLAUSES",
    "CoopScheduler",
    "MachineProfile",
    "get_profile",
    "PROFILES",
    "MACHINE_MODEL_VERSION",
    "THETA",
    "CORI",
    "STAMPEDE2",
    "LOCAL",
    "Network",
    "Envelope",
    "Request",
    "SendRequest",
    "RecvRequest",
    "waitall",
    "TraceBase",
    "RankTrace",
    "NullTrace",
    "MetricsTrace",
    "SendEvent",
    "RecvEvent",
    "CopyEvent",
    "DatatypeEvent",
    "PhaseEvent",
    "CollectiveEvent",
    "FaultEvent",
    "MetricsRegistry",
    "RunMetrics",
    "Counter",
    "Histogram",
    "BUCKETS",
    "CriticalPathResult",
    "PathSegment",
    "RankAttribution",
    "analyze_critical_path",
    "chrome_trace",
    "export_chrome_trace",
    "format_summary",
    "format_phase_table",
]

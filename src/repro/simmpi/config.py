"""The typed execution configuration for :func:`repro.simmpi.run_spmd`.

Everything about how a run executes — machine, trace, backend, wire,
fault plan, fault seed, failure policy, reliability — is one frozen,
validated value object:

* **validated at construction** — unknown backend/wire/on_fault/trace
  strings raise ``ValueError`` naming the valid set *before* any rank
  spawns, and the fault-plan / reliability spec strings are parsed here,
  so a typo fails at config build time, not deep inside a run;
* **normalized** — ``fault_plan`` and ``reliability`` are stored as their
  parsed object forms, and ``on_fault="retry"`` resolves the implied
  default :class:`~repro.simmpi.faults.ReliabilityConfig`, so the config
  echoed on :class:`~repro.simmpi.executor.SPMDResult` describes exactly
  what the run did;
* **hashable/frozen** — a config can key a result cache or be compared
  across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Union

from .faults import FaultPlan, ReliabilityConfig
from .machine import LOCAL, MachineProfile
from .network import WIRE_MODES

__all__ = [
    "ExecutionConfig",
    "BACKENDS",
    "ON_FAULT_POLICIES",
    "TRACE_MODES",
    "WIRE_MODES",
]

#: Accepted values of the ``backend`` parameter.  ``coop`` runs every rank
#: program under a clock-ordered cooperative scheduler
#: (:mod:`repro.simmpi.scheduler`), ``tensor`` the vectorized whole-fabric
#: engine (:mod:`repro.simmpi.tensor`).
BACKENDS = ("coop", "tensor")

#: Accepted values of the ``on_fault`` failure policy.
ON_FAULT_POLICIES = ("fail-fast", "retry", "degrade")

#: Accepted values of the ``trace`` parameter.  Booleans remain valid:
#: ``True`` maps to ``"full"`` (events + metrics) and ``False`` to ``"off"``.
TRACE_MODES = ("off", "events", "metrics", "full")


def _resolve_trace_mode(trace: Union[bool, str, None]) -> str:
    if trace is None or trace is False:
        return "off"
    if trace is True:
        return "full"
    if isinstance(trace, str) and trace in TRACE_MODES:
        return trace
    raise ValueError(
        f"trace must be a bool or one of {TRACE_MODES}, got {trace!r}"
    )


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything about *how* an SPMD run executes (not *what* it runs).

    Parameters
    ----------
    machine:
        Cost-model profile (default: the forgiving ``LOCAL`` profile).
    trace:
        Observability mode: ``True``/``"full"`` (per-rank event traces
        and aggregate metrics), ``"events"``, ``"metrics"``
        (``result.traces`` is ``None``), or ``False``/``None``/``"off"``
        (for big sweeps).  Stored normalized to one of
        :data:`TRACE_MODES`.
    backend:
        One of :data:`BACKENDS`.
    wire:
        One of :data:`WIRE_MODES`.  ``"bytes"`` moves real data;
        ``"phantom"`` sends only message *sizes*, so clocks are
        bit-identical (every cost rule is a function of size alone) but
        receive buffers are never written.
    fault_plan:
        A :class:`~repro.simmpi.faults.FaultPlan`, its ``--faults`` spec
        string (parsed here), or ``None`` for a clean fabric.
    fault_seed:
        Seed of the fault engine's per-message RNG.  Same ``(plan,
        seed)`` ⇒ bit-identical clocks, message counts and fault
        sequences on every backend and wire.
    on_fault:
        One of :data:`ON_FAULT_POLICIES`.  ``"fail-fast"``: an injected
        crash or unrecovered fault tears the job down with a typed
        error.  ``"retry"``: acked delivery with retransmission (resolves
        the implied default :class:`ReliabilityConfig` at construction);
        exhausted retries raise :class:`MessageLostError`.  ``"degrade"``:
        a crashed rank is excised, survivors read its contributions as
        empty, and the result lists it in ``degraded_ranks``.
    reliability:
        A :class:`ReliabilityConfig`, ``"retry"`` (the defaults),
        ``"verify"`` (the defaults plus end-to-end integrity checks),
        or ``"none"``/``None``.
    ledger:
        Path of a JSONL run ledger.  When set and the run records
        metrics (``trace="metrics"``/``"full"``), the executor appends
        one structured record per run — config fingerprint, machine
        model version, aggregates, attribution buckets — via
        :mod:`repro.bench.ledger`.  ``None`` (default) disables it.

    Examples
    --------
    >>> cfg = ExecutionConfig(machine=THETA, backend="coop",
    ...                       wire="phantom", trace=False)
    >>> result = run_spmd(prog, 1024, config=cfg)
    """

    machine: MachineProfile = LOCAL
    trace: str = "full"
    backend: str = "coop"
    wire: str = "bytes"
    fault_plan: Optional[FaultPlan] = None
    fault_seed: int = 0
    on_fault: str = "fail-fast"
    reliability: Optional[ReliabilityConfig] = field(default=None)
    ledger: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.machine, MachineProfile):
            raise ValueError(
                f"machine must be a MachineProfile, got {self.machine!r}")
        # Normalize the trace mode (bools and None are accepted inputs).
        object.__setattr__(self, "trace", _resolve_trace_mode(self.trace))
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.wire not in WIRE_MODES:
            raise ValueError(
                f"wire must be one of {WIRE_MODES}, got {self.wire!r}")
        if self.on_fault not in ON_FAULT_POLICIES:
            raise ValueError(
                f"on_fault must be one of {ON_FAULT_POLICIES}, "
                f"got {self.on_fault!r}")
        if isinstance(self.fault_plan, str):
            object.__setattr__(self, "fault_plan",
                               FaultPlan.parse(self.fault_plan))
        elif self.fault_plan is not None and \
                not isinstance(self.fault_plan, FaultPlan):
            raise ValueError(
                f"fault_plan must be a FaultPlan, a spec string or None, "
                f"got {self.fault_plan!r}")
        rel = self.reliability
        if isinstance(rel, str):
            if rel == "none":
                rel = None
            elif rel == "retry":
                rel = ReliabilityConfig()
            elif rel == "verify":
                rel = ReliabilityConfig(verify=True)
            else:
                raise ValueError(
                    f"reliability must be 'none', 'retry', 'verify' or a "
                    f"ReliabilityConfig, got {rel!r}")
        elif rel is not None and not isinstance(rel, ReliabilityConfig):
            raise ValueError(
                f"reliability must be 'none', 'retry', 'verify', a "
                f"ReliabilityConfig or None, got {rel!r}")
        if self.on_fault == "retry" and rel is None:
            rel = ReliabilityConfig()
        object.__setattr__(self, "reliability", rel)
        if self.ledger is not None and not isinstance(self.ledger, str):
            raise ValueError(
                f"ledger must be a path string or None, got {self.ledger!r}")

    # -- derived views ---------------------------------------------------
    @property
    def events_on(self) -> bool:
        return self.trace in ("full", "events")

    @property
    def metrics_on(self) -> bool:
        return self.trace in ("full", "metrics")

    @property
    def faulted(self) -> bool:
        """True when the fabric carries an injector (plan or reliability)."""
        return self.fault_plan is not None or self.reliability is not None

    def replace(self, **overrides) -> "ExecutionConfig":
        """Return a copy with selected fields replaced (re-validated)."""
        kwargs = {f.name: getattr(self, f.name) for f in fields(self)}
        kwargs.update(overrides)
        return ExecutionConfig(**kwargs)

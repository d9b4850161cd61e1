"""Analytic timing of the uniform Bruck variants (Fig. 2a/2b at any P).

Uniform all-to-all is perfectly symmetric: every rank executes identical
work against identical partners, so all simulated clocks advance in
lock-step and the per-rank recurrence collapses to a scalar recursion —
``arrival == own_depart + wire`` because the partner's depart equals ours.
That makes 32K-rank predictions O(log P) scalar work, while agreeing with
the functional simulator to 1e-12 relative at small P (asserted in
``tests/timing/test_parity.py``).

Each predictor returns a :class:`UniformTiming` with the same phase split
the functional implementations trace (Fig. 2b's breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..core.common import bruck_substeps
from ..core.registry import get_algorithm
from ..simmpi.machine import MachineProfile

__all__ = ["UniformTiming", "predict_uniform", "UNIFORM_PREDICTORS"]

_ROT_INDEX_COST_PER_PROC = 1.0e-9  # matches zero_rotation_bruck's charge


@dataclass
class UniformTiming:
    """Per-phase simulated times (seconds) of one uniform all-to-all."""

    algorithm: str
    nprocs: int
    block_nbytes: int
    initial_rotation: float = 0.0
    communication: float = 0.0
    final_rotation: float = 0.0
    index_setup: float = 0.0

    @property
    def total(self) -> float:
        return (self.initial_rotation + self.communication
                + self.final_rotation + self.index_setup)


def _exchange(machine: MachineProfile, nprocs: int, nbytes: int) -> float:
    """Scalar clock advance of one symmetric isend/irecv/wait exchange.

    All ranks are in lock-step, so the partner's depart equals our own and
    the receive rule collapses to
    ``o_send + max(o_recv, head_latency) + serial_time``.
    """
    return (machine.o_send
            + max(machine.o_recv, machine.head_latency(nbytes))
            + machine.serial_time(nbytes, nprocs))


def _steps(nprocs: int, radix: int = 2) -> List[List[int]]:
    # One distance list per communication round.  For radix 2 the substep
    # schedule is the classic one-round-per-bit list, integer-identical to
    # the old send_block_distances() loop, so predictions stay bit-exact.
    return [s.distances.tolist() for s in bruck_substeps(nprocs, radix)]


def _predict_basic(machine: MachineProfile, nprocs: int, n: int,
                   use_datatypes: bool) -> UniformTiming:
    t = UniformTiming("basic_bruck_dt" if use_datatypes else "basic_bruck",
                      nprocs, n)
    if n == 0:
        return t
    t.initial_rotation = nprocs * machine.copy_time(n)
    for dist in _steps(nprocs):
        m = len(dist)
        if not m:
            continue
        if use_datatypes:
            t.communication += 2 * machine.datatype_time(m, m * n)
        else:
            t.communication += 2 * m * machine.copy_time(n)
        t.communication += _exchange(machine, nprocs, m * n)
    t.final_rotation = (machine.copy_time(nprocs * n)
                        + nprocs * machine.copy_time(n))
    return t


def _predict_modified(machine: MachineProfile, nprocs: int, n: int,
                      use_datatypes: bool, radix: int = 2) -> UniformTiming:
    t = UniformTiming(
        "modified_bruck_dt" if use_datatypes else "modified_bruck", nprocs, n)
    if n == 0:
        return t
    t.initial_rotation = nprocs * machine.copy_time(n)
    for dist in _steps(nprocs, radix):
        m = len(dist)
        if not m:
            continue
        if use_datatypes:
            t.communication += 2 * machine.datatype_time(m, m * n)
        else:
            t.communication += 2 * m * machine.copy_time(n)
        t.communication += _exchange(machine, nprocs, m * n)
    return t


def _predict_zero_copy_dt(machine: MachineProfile, nprocs: int,
                          n: int) -> UniformTiming:
    t = UniformTiming("zero_copy_bruck_dt", nprocs, n)
    if n == 0:
        return t
    t.initial_rotation = nprocs * machine.copy_time(n)
    for k, dist in enumerate(_steps(nprocs)):
        m = len(dist)
        if not m:
            continue
        # The step's block set splits between the R and T buffers by
        # remaining-hop parity; sender packs each non-empty part with one
        # datatype operation, receiver unpacks symmetrically.
        m_r = sum(1 for i in dist if (int(i) >> (k + 1)).bit_count() % 2 == 1)
        m_t = m - m_r
        for part in (m_r, m_t):
            if part:
                t.communication += 2 * machine.datatype_time(part, part * n)
        t.communication += _exchange(machine, nprocs, m * n)
    return t


def _predict_zero_rotation(machine: MachineProfile, nprocs: int,
                           n: int, radix: int = 2) -> UniformTiming:
    t = UniformTiming("zero_rotation_bruck", nprocs, n)
    if n == 0:
        return t
    t.index_setup = nprocs * _ROT_INDEX_COST_PER_PROC
    t.communication += machine.copy_time(n)  # self block
    for dist in _steps(nprocs, radix):
        m = len(dist)
        if not m:
            continue
        t.communication += 2 * m * machine.copy_time(n)
        t.communication += _exchange(machine, nprocs, m * n)
    return t


def _predict_spread_out(machine: MachineProfile, nprocs: int,
                        n: int) -> UniformTiming:
    t = UniformTiming("spread_out", nprocs, n)
    if n == 0:
        return t
    if nprocs == 1:
        t.communication = machine.copy_time(n)
        return t
    # Self copy, P-1 receive posts, then P-1 sends; the P-1 incoming
    # messages serialize at the receiver.  The waitall chain
    #   c_j = max(c_{j-1}, base + j*o_send + head) + serial
    # is linear in j inside the max, so its fixpoint is attained at the
    # endpoints j = 1 or j = P-1 (or the all-sends-posted start c_0).
    p = nprocs
    base = machine.copy_time(n) + (p - 1) * machine.o_recv
    c0 = base + (p - 1) * machine.o_send
    head = machine.head_latency(n)
    st = machine.serial_time(n, p)
    t.communication = max(
        c0 + (p - 1) * st,
        base + machine.o_send + head + (p - 1) * st,
        base + (p - 1) * machine.o_send + head + st,
    )
    return t


UNIFORM_PREDICTORS: Dict[str, Callable[[MachineProfile, int, int], UniformTiming]] = {
    "basic_bruck": lambda m, p, n: _predict_basic(m, p, n, False),
    "basic_bruck_dt": lambda m, p, n: _predict_basic(m, p, n, True),
    "modified_bruck":
        lambda m, p, n, radix=2: _predict_modified(m, p, n, False, radix),
    "modified_bruck_dt":
        lambda m, p, n, radix=2: _predict_modified(m, p, n, True, radix),
    "zero_copy_bruck_dt": _predict_zero_copy_dt,
    "zero_rotation_bruck":
        lambda m, p, n, radix=2: _predict_zero_rotation(m, p, n, radix),
    "spread_out": _predict_spread_out,
    "vendor": _predict_spread_out,
}


def predict_uniform(algorithm: str, machine: MachineProfile, nprocs: int,
                    block_nbytes: int, *, radix: int = 2) -> UniformTiming:
    """Predicted simulated time of one uniform all-to-all.

    Matches ``run_spmd`` + the functional algorithm exactly (same cost
    constants, same recurrence) — validated by tests at small ``P``.
    ``radix`` other than 2 is accepted only for the radix-capable kernels
    (``Algorithm.supports_radix``) and models their substep schedule.
    """
    # Resolve through the central registry so unknown names fail the same
    # way as the dispatchers do.
    algo = get_algorithm(algorithm, kind="uniform")
    name = algo.name
    try:
        fn = UNIFORM_PREDICTORS[name]
    except KeyError:
        raise KeyError(
            f"no analytic predictor for uniform algorithm {algorithm!r}; "
            f"predictable: {sorted(UNIFORM_PREDICTORS)}"
        ) from None
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if radix != 2:
        if not algo.supports_radix:
            raise ValueError(
                f"algorithm {name!r} does not support radix {radix}")
        return fn(machine, nprocs, int(block_nbytes), radix=radix)
    return fn(machine, nprocs, int(block_nbytes))

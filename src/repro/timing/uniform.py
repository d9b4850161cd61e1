"""Timing of the uniform Bruck variants (Fig. 2a/2b at any P).

A prediction is one :class:`~repro.simmpi.tensor.TensorAlltoall` run on the
tensor backend, bit-identical to coop (``tests/timing/test_parity.py``), so
the kernels are described only in :mod:`repro.core.uniform` and the tensor
evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simmpi import ExecutionConfig, TensorAlltoall, run_spmd
from ..simmpi.machine import MachineProfile

__all__ = ["UniformTiming", "predict_uniform"]


@dataclass
class UniformTiming:
    """Per-phase simulated times (seconds) of one uniform all-to-all."""

    algorithm: str
    nprocs: int
    block_nbytes: int
    total: float
    initial_rotation: float = 0.0
    communication: float = 0.0
    final_rotation: float = 0.0
    index_setup: float = 0.0


def predict_uniform(algorithm: str, machine: MachineProfile, nprocs: int,
                    block_nbytes: int, *, radix: int = 2) -> UniformTiming:
    """Simulated time of one uniform all-to-all, split into Fig. 2b's phases.

    ``communication`` is ``total`` minus the three named phases, so it
    holds zero-rotation's self copy and all of ``vendor``'s collective.
    The ``trace="metrics"`` run keeps a P x P per-link table: spread-out
    and vendor take seconds from P = 2048 on and run out of memory at
    P = 32768, where the Bruck variants take well under a second.
    """
    result = run_spmd(
        TensorAlltoall(algorithm, block_nbytes, radix=radix), nprocs,
        config=ExecutionConfig(machine=machine, backend="tensor",
                               wire="phantom", trace="metrics"))
    phases = result.phase_times()
    named = {name: phases.get(name, 0.0)
             for name in ("initial_rotation", "final_rotation", "index_setup")}
    total = result.elapsed
    return UniformTiming(algorithm, nprocs, int(block_nbytes), total,
                         communication=total - sum(named.values()), **named)

"""Vectorized clock primitives for the analytic timing engine.

The cost rules of ``MachineProfile`` (DESIGN.md §5), written as NumPy
recurrences over per-rank clock arrays, so the paper's 32K-process sweeps
run in milliseconds.  Integration tests assert bit-equality with
:mod:`repro.simmpi` at small ``P`` (exact mode), which pins every constant
here to the functional simulator.

The receive rule everywhere is the simulator's::

    clock = max(clock, depart + head_latency(n)) + serial_time(n, P)

i.e. messages serialize at the receiver — an all-to-all's ingress
bandwidth is a real resource, not infinitely parallel.

Conventions: ``clocks`` is a float64 array of shape ``(P,)`` holding each
rank's simulated clock; byte counts may be scalars or per-rank arrays.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..simmpi.machine import MachineProfile

__all__ = [
    "head_latency_vec",
    "serial_time_vec",
    "wire_time_vec",
    "copy_time_vec",
    "copy_time_blocks",
    "datatype_time_vec",
    "sendrecv_rounds",
    "bruck_step",
    "dissemination_allreduce_cost",
]

ArrayLike = Union[float, np.ndarray]


def head_latency_vec(machine: MachineProfile, nbytes: ArrayLike,
                     intra: ArrayLike = False) -> ArrayLike:
    """Vectorized ``MachineProfile.head_latency``.

    ``intra`` may be a scalar bool or a boolean array broadcastable against
    ``nbytes`` (per-message tier selection in the hierarchical model).
    """
    nbytes = np.asarray(nbytes, dtype=np.float64)
    a = machine.alpha if intra is False \
        else np.where(intra, machine.alpha_intra, machine.alpha)
    return a * (1.0 + (nbytes > machine.eager_threshold))


def serial_time_vec(machine: MachineProfile, nbytes: ArrayLike,
                    nprocs: int, intra: ArrayLike = False) -> ArrayLike:
    """Vectorized ``MachineProfile.serial_time`` (piecewise eager tiering).

    The first ``eager_threshold`` bytes of every message pay the eager
    per-byte penalty; the remainder streams.  Uses the exact expression of
    the scalar method (same association order) so the two stay bit-equal.
    """
    nbytes = np.asarray(nbytes, dtype=np.float64)
    if intra is False:
        rate, factor = machine.beta_eff(nprocs), machine.eager_factor
    else:
        rate = np.where(intra, machine.beta_intra, machine.beta_eff(nprocs))
        factor = np.where(intra, machine.eager_factor_intra,
                          machine.eager_factor)
    eager = np.minimum(nbytes, machine.eager_threshold)
    return rate * (factor * eager + (nbytes - eager))


def wire_time_vec(machine: MachineProfile, nbytes: ArrayLike,
                  nprocs: int, intra: ArrayLike = False) -> ArrayLike:
    """Vectorized end-to-end time of one isolated message."""
    return head_latency_vec(machine, nbytes, intra) \
        + serial_time_vec(machine, nbytes, nprocs, intra)


def copy_time_vec(machine: MachineProfile, nbytes: ArrayLike) -> ArrayLike:
    """Vectorized single-copy cost; zero-byte copies cost nothing,
    mirroring ``Communicator.charge_copy``'s early return."""
    nbytes = np.asarray(nbytes, dtype=np.float64)
    return np.where(nbytes > 0, machine.kappa_mem + machine.gamma_mem * nbytes,
                    0.0)


def copy_time_blocks(machine: MachineProfile, nblocks: ArrayLike,
                     total_bytes: ArrayLike) -> ArrayLike:
    """Cost of ``nblocks`` separate copies totalling ``total_bytes`` bytes
    (per-copy setup ``kappa`` paid once per block):
    ``MachineProfile.copy_time_blocks``, the one batch-copy rule."""
    return machine.copy_time_blocks(np.asarray(nblocks, dtype=np.float64),
                                    np.asarray(total_bytes, dtype=np.float64))


def datatype_time_vec(machine: MachineProfile, nblocks: ArrayLike,
                      nbytes: ArrayLike) -> ArrayLike:
    """Vectorized ``MachineProfile.datatype_time``."""
    nblocks = np.asarray(nblocks, dtype=np.float64)
    nbytes = np.asarray(nbytes, dtype=np.float64)
    return np.where(nblocks > 0,
                    machine.dt_block * nblocks + machine.dt_byte * nbytes,
                    0.0)


def _exchange(clocks: np.ndarray, machine: MachineProfile, nprocs: int,
              src_offset: int, nbytes_out: ArrayLike) -> np.ndarray:
    """Shared isend → irecv → wait recurrence.

    Rank ``p`` receives the message sent by ``src = (p + src_offset) % P``,
    whose size is ``nbytes_out[src]``; the partner read is a roll, not a
    gather::

        depart[p] = clocks[p] + o_send
        posted[p] = depart[p] + o_recv
        clocks[p] = max(posted[p],
                        depart[src] + head(n_src)) + serial(n_src)
    """
    depart = clocks + machine.o_send
    n_src = np.asarray(nbytes_out, dtype=np.float64)
    if n_src.ndim:
        n_src = np.roll(n_src, -src_offset)
    head = np.roll(depart, -src_offset) + head_latency_vec(machine, n_src)
    return np.maximum(depart + machine.o_recv, head) \
        + serial_time_vec(machine, n_src, nprocs)


def bruck_step(clocks: np.ndarray, machine: MachineProfile, nprocs: int,
               send_offset: int, nbytes_out: ArrayLike) -> np.ndarray:
    """One exchange in Bruck orientation: rank ``p`` sends to
    ``(p - send_offset) % P`` and receives from ``(p + send_offset) % P``."""
    return _exchange(clocks, machine, nprocs, send_offset, nbytes_out)


def sendrecv_rounds(clocks: np.ndarray, machine: MachineProfile, nprocs: int,
                    send_offset: int, nbytes: float) -> np.ndarray:
    """One symmetric round in dissemination orientation: rank ``p`` sends
    to ``(p + send_offset) % P`` and receives from ``(p - send_offset) % P``
    (barrier / allreduce)."""
    return _exchange(clocks, machine, nprocs, -send_offset, nbytes)


def dissemination_allreduce_cost(clocks: np.ndarray, machine: MachineProfile,
                                 nprocs: int,
                                 payload_nbytes: float = 8.0) -> np.ndarray:
    """Clock effect of ``Communicator.allreduce(op="max"/"min")``:
    ``ceil(log2 P)`` dissemination rounds of an 8-byte scalar."""
    if nprocs == 1:
        return clocks.copy()
    out = clocks
    k = 1
    while k < nprocs:
        out = sendrecv_rounds(out, machine, nprocs, k, payload_nbytes)
        k <<= 1
    return out

"""Machine performance profiles for the simulated cluster.

A :class:`MachineProfile` carries every constant the simulator's clock model
needs.  The model is LogGP-flavoured (Alexandrov et al.) with two additions
the paper's evaluation makes necessary:

* an **eager/rendezvous protocol switch**: messages above
  ``eager_threshold`` bytes pay one extra round-trip latency, as real MPI
  implementations do;
* a **congestion factor** applied to the per-byte cost, growing linearly in
  the communicator size.  All-to-all traffic saturates shared network
  resources (NIC, router tiles, bisection links) as the job grows, which is
  the physical mechanism behind the paper's observation that the block-size
  range where Bruck wins *shrinks* with process count (Fig. 6/9): Bruck
  injects ``log2(P)/2`` times more bytes than spread-out, so a congestion
  penalty common to both algorithms erodes Bruck's latency advantage
  super-logarithmically.

Cost rules (all times in seconds, sizes in bytes; ``beta_c`` denotes the
congested per-byte cost ``beta * (1 + num_nodes/congestion_procs)``):

==============================  =============================================
event                           charge
==============================  =============================================
post a send (``Isend``)         sender clock += ``o_send``
post a receive (``Irecv``)      receiver clock += ``o_recv``
message head latency            ``alpha`` (eager), ``2*alpha`` (rendezvous,
                                i.e. *n* > ``eager_threshold``)
message transfer (serializes    ``beta_c * (eager_factor * min(n, T)``
at the receiver)                ``+ max(0, n - T))`` with
                                ``T = eager_threshold`` — the first ``T``
                                bytes of *every* message pay the eager
                                per-byte penalty; the remainder streams
receive completion              ``clock = max(clock, depart + head) + serial``
local copy of *n* bytes         ``kappa_mem + gamma_mem * n``
batch of *b* copies, *n* bytes  ``b * kappa_mem + gamma_mem * n`` (one
                                clock advance per ``charge_copies`` call)
datatype pack/unpack,           ``dt_block * b + dt_byte * n``
*b* blocks / *n* bytes
==============================  =============================================

**Two-level hierarchy.**  With ``ppn > 1`` ranks are grouped onto nodes
(``node_of(rank) = rank // ppn``).  Messages between ranks on the *same*
node use the intra-tier constants (``alpha_intra``, ``beta_intra``,
``o_send_intra``, ``o_recv_intra``, ``eager_factor_intra``) and pay **no**
network congestion; inter-node messages use the flat constants with
congestion charged per inter-node endpoint: ``1 + num_nodes/K`` instead of
``1 + P/K``.  The default ``ppn=1`` puts every rank on its own node, so
every message is inter-node and the model reduces bit-for-bit to the flat
LogGP model (``num_nodes == P``).

The named profiles are calibrated so the *relative* behaviour of the paper's
algorithms (orderings, win factors, crossover movement) reproduces the
published figures on Theta; they are not a cycle-accurate model of any
machine.  See ``DESIGN.md`` §5 and ``EXPERIMENTS.md`` for the calibration
story.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

#: Version of the cost model implemented by this module, printed in every
#: committed figure's header and stamped on every ledger record (the
#: tuner ignores records of another version).  Bumped when a change alters
#: what the model predicts at the printed precision of the committed
#: figures — a new term, a re-shaped charge — so stale files fail loudly.
#: A declared change that moves clocks only in their last bits (every
#: committed figure unchanged as printed, e.g. one copy charge per batch)
#: does not bump it; CHANGES.md lists each such change and the digests it
#: moves instead.
#: v2: piecewise eager tiering (monotone serial_time) + two-level hierarchy.
MACHINE_MODEL_VERSION = 2

__all__ = ["MachineProfile", "MACHINE_MODEL_VERSION",
           "ROT_INDEX_COST_PER_PROC", "THETA", "CORI", "STAMPEDE2", "LOCAL",
           "get_profile", "PROFILES"]

#: Compute charge (seconds) per entry of a rotation index array: the O(P)
#: integer setup that replaces an O(P*n) rotation copy.  Every kernel and
#: evaluator charges ``p * ROT_INDEX_COST_PER_PROC`` for a ``p``-entry
#: array.  A module constant, not a profile field: it is the same on every
#: machine.
ROT_INDEX_COST_PER_PROC = 1.0e-9

#: Default derivation ratios for intra-node constants when a profile does
#: not set them explicitly: shared-memory transports have ~10x lower
#: latency, ~4x higher bandwidth, and ~2x lower per-message CPU overhead
#: than the NIC path on the machines the paper calibrates against.
_INTRA_ALPHA_RATIO = 0.1
_INTRA_BETA_RATIO = 0.25
_INTRA_OVERHEAD_RATIO = 0.5


@dataclass(frozen=True)
class MachineProfile:
    """Immutable bundle of network / memory cost constants.

    Parameters
    ----------
    name:
        Human-readable identifier (``"theta"``, ``"cori"``, ...).
    alpha:
        Per-message wire latency in seconds.
    beta:
        Per-byte transfer cost in seconds (inverse of effective per-rank
        bandwidth in an uncongested network).
    o_send, o_recv:
        Per-message CPU overhead for injecting / retiring a message.  These
        are what make a linear-in-``P`` algorithm such as spread-out pay a
        latency cost proportional to ``P`` while Bruck pays ``log2 P``.
    gamma_mem:
        Per-byte cost of a local memory copy.
    kappa_mem:
        Fixed per-copy setup cost (function call, loop setup).
    dt_block:
        Per-block cost of the MPI derived-datatype engine (type map walk).
        Calibrated above the memcpy setup cost so datatype-based packing
        loses for small blocks, as both the paper (Fig. 2) and Träff et
        al. observed (crossover around a few hundred bytes per block).
    dt_byte:
        Per-byte cost of datatype-engine copying (slightly cheaper per byte
        than ``gamma_mem`` since it can stream).
    eager_threshold:
        Protocol switch point in bytes; larger messages pay ``alpha`` twice
        (rendezvous handshake), and the eager bandwidth penalty phases out
        above it.
    eager_factor:
        Effective-bandwidth penalty for eager-path bytes: the first
        ``eager_threshold`` bytes of every message cost
        ``eager_factor * beta`` per byte (header/packetization/extra-copy
        overheads that streaming transfers amortize).  This is the physical
        mechanism behind the paper's result: spread-out moves everything in
        small eager messages at poor effective bandwidth, while Bruck's
        aggregated messages stream — so Bruck can win despite moving
        ``log2(P)/2`` times more bytes.
    congestion_procs:
        Congestion scale ``K``: the effective per-byte cost grows as
        ``beta * (1 + num_nodes / K)`` (``num_nodes == P`` at the default
        ``ppn=1``).  Smaller ``K`` means a network whose all-to-all
        bandwidth saturates earlier.  Congestion is charged per inter-node
        link endpoint, so packing more ranks per node *reduces* the
        congestion multiplier — the physical point of node-aware
        aggregation.
    ppn:
        Ranks per node (the two-level hierarchy).  ``node_of(rank) =
        rank // ppn``; messages within a node use the intra-tier constants
        below.  The default ``1`` makes every message inter-node, which
        reproduces the flat model bit-for-bit.
    alpha_intra, beta_intra, o_send_intra, o_recv_intra, eager_factor_intra:
        Intra-node (shared-memory transport) analogues of ``alpha`` /
        ``beta`` / ``o_send`` / ``o_recv`` / ``eager_factor``.  ``None``
        (the default) derives them from the inter-node constants at
        construction time: latency /10, per-byte cost /4, CPU overheads /2,
        same eager factor (shared-memory transports also double-copy below
        the rendezvous switch).  Intra-node messages pay no network
        congestion.
    """

    name: str
    alpha: float
    beta: float
    o_send: float
    o_recv: float
    gamma_mem: float = 2.5e-10
    kappa_mem: float = 5.0e-8
    dt_block: float = 1.0e-7
    dt_byte: float = 1.5e-10
    eager_threshold: int = 8192
    eager_factor: float = 5.2
    congestion_procs: float = 1400.0
    ppn: int = 1
    alpha_intra: Optional[float] = None
    beta_intra: Optional[float] = None
    o_send_intra: Optional[float] = None
    o_recv_intra: Optional[float] = None
    eager_factor_intra: Optional[float] = None

    def __post_init__(self) -> None:
        for attr in ("alpha", "beta", "o_send", "o_recv", "gamma_mem",
                     "kappa_mem", "dt_block", "dt_byte"):
            value = getattr(self, attr)
            if value < 0:
                raise ValueError(f"{attr} must be non-negative, got {value}")
        if self.eager_threshold <= 0:
            raise ValueError("eager_threshold must be positive")
        if self.eager_factor < 1:
            raise ValueError("eager_factor must be >= 1")
        if self.congestion_procs <= 0:
            raise ValueError("congestion_procs must be positive")
        if int(self.ppn) < 1:
            raise ValueError(f"ppn must be >= 1, got {self.ppn}")
        object.__setattr__(self, "ppn", int(self.ppn))
        # Derive unset intra-tier constants from the inter-node ones.
        derived = (
            ("alpha_intra", self.alpha * _INTRA_ALPHA_RATIO),
            ("beta_intra", self.beta * _INTRA_BETA_RATIO),
            ("o_send_intra", self.o_send * _INTRA_OVERHEAD_RATIO),
            ("o_recv_intra", self.o_recv * _INTRA_OVERHEAD_RATIO),
            ("eager_factor_intra", self.eager_factor),
        )
        for attr, default in derived:
            if getattr(self, attr) is None:
                object.__setattr__(self, attr, default)
        for attr in ("alpha_intra", "beta_intra", "o_send_intra",
                     "o_recv_intra"):
            if getattr(self, attr) < 0:
                raise ValueError(
                    f"{attr} must be non-negative, got {getattr(self, attr)}")
        if self.eager_factor_intra < 1:
            raise ValueError("eager_factor_intra must be >= 1")

    # ------------------------------------------------------------------
    # hierarchy: the rank -> node mapping
    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """The node hosting ``rank`` (block placement: ``rank // ppn``)."""
        return rank // self.ppn

    def num_nodes(self, nprocs: int) -> int:
        """Nodes occupied by a job of ``nprocs`` ranks (``== nprocs`` at
        the default ``ppn=1``)."""
        return -(-nprocs // self.ppn)

    def is_intra(self, src: int, dst: int) -> bool:
        """Whether a ``src -> dst`` message stays within one node.

        At ``ppn=1`` this is always ``False`` — with one rank per node
        even a self-send is modelled on the NIC loopback path, preserving
        the flat model exactly.
        """
        return self.ppn > 1 and src // self.ppn == dst // self.ppn

    # ------------------------------------------------------------------
    # cost primitives — the single source of truth shared by the per-rank
    # simulator (repro.simmpi.network) and the analytic timing engine
    # (repro.timing).
    # ------------------------------------------------------------------
    def congestion(self, nprocs: int) -> float:
        """Multiplier on ``beta`` for a job of ``nprocs`` ranks.

        Charged per inter-node endpoint: ``1 + num_nodes / K``.  At the
        default ``ppn=1`` this is the flat ``1 + P / K``.
        """
        return 1.0 + self.num_nodes(nprocs) / self.congestion_procs

    def beta_eff(self, nprocs: int) -> float:
        """Effective per-byte cost under congestion at ``nprocs`` ranks."""
        return self.beta * self.congestion(nprocs)

    def head_latency(self, nbytes: int, intra: bool = False) -> float:
        """Latency until a message's first byte can land at the receiver:
        ``alpha`` (``alpha_intra`` within a node), doubled for
        rendezvous-protocol (large) messages."""
        a = self.alpha_intra if intra else self.alpha
        if nbytes > self.eager_threshold:
            return 2.0 * a
        return a

    def serial_time(self, nbytes: int, nprocs: int,
                    intra: bool = False) -> float:
        """Receiver-side transfer occupancy of one message.

        The receiver's NIC/CPU is busy for this long per message, so
        back-to-back receives serialize — which is how an all-to-all's
        ingress bandwidth is modelled.  The first ``eager_threshold``
        bytes of *every* message pay ``eager_factor``-times the streaming
        per-byte cost (extra copies, packetization, header overhead); the
        remainder streams at ``beta_eff``.  The piecewise form keeps
        per-message cost monotone non-decreasing in ``nbytes`` — real MPI
        pingpong curves show a slope change at the protocol switch, not a
        cost cliff.  Intra-node messages use the intra-tier constants and
        pay no network congestion.
        """
        if intra:
            rate = self.beta_intra
            factor = self.eager_factor_intra
        else:
            rate = self.beta_eff(nprocs)
            factor = self.eager_factor
        eager = min(nbytes, self.eager_threshold)
        return rate * (factor * eager + (nbytes - eager))

    def wire_time(self, nbytes: int, nprocs: int,
                  intra: bool = False) -> float:
        """End-to-end wire time of one isolated message (head + transfer)."""
        return self.head_latency(nbytes, intra) \
            + self.serial_time(nbytes, nprocs, intra)

    def copy_time(self, nbytes: int) -> float:
        """Time for one contiguous local copy of ``nbytes`` bytes."""
        if nbytes <= 0:
            return 0.0
        return self.kappa_mem + self.gamma_mem * nbytes

    def copy_time_blocks(self, nblocks, nbytes):
        """Time for a batch of ``nblocks`` copies moving ``nbytes`` bytes in
        all; the same bits for Python ints and NumPy arrays, and equal to
        ``copy_time(n)`` for one block of ``n > 0`` bytes."""
        return nblocks * self.kappa_mem + self.gamma_mem * nbytes

    def datatype_time(self, nblocks: int, nbytes: int) -> float:
        """Time for the datatype engine to pack/unpack ``nblocks`` blocks."""
        if nblocks <= 0:
            return 0.0
        return self.dt_block * nblocks + self.dt_byte * nbytes

    def message_time(self, nbytes: int, nprocs: int,
                     intra: bool = False) -> float:
        """End-to-end time of one message including both CPU overheads."""
        if intra:
            o = self.o_send_intra + self.o_recv_intra
        else:
            o = self.o_send + self.o_recv
        return o + self.wire_time(nbytes, nprocs, intra)

    def with_overrides(self, **kwargs: float) -> "MachineProfile":
        """Return a copy with selected constants replaced (for ablations).

        Note: the copy starts from this profile's *resolved* intra-tier
        constants, so overriding a base constant (e.g. ``alpha``) does not
        re-derive its intra analogue — pass both explicitly if the ablation
        should move them together.
        """
        return replace(self, **kwargs)

    # Convenience used in docs/examples: predicted uncongested bandwidth.
    @property
    def peak_bandwidth(self) -> float:
        """Uncongested per-rank bandwidth in bytes/second."""
        return math.inf if self.beta == 0 else 1.0 / self.beta


# ----------------------------------------------------------------------
# Named profiles.
#
# THETA is the primary calibration target (the paper's main machine):
# KNL cores are slow (high per-message CPU overhead), the Aries network has
# microsecond-scale latency, and the per-core share of node injection
# bandwidth is modest because 64 ranks share one NIC.
# ----------------------------------------------------------------------
# Constants fitted by repro.bench.calibrate against the paper's published
# Theta numbers under the piecewise eager model (crossover ladder matched
# exactly; total calibration error ~2.4 units).
THETA = MachineProfile(
    name="theta",
    alpha=4.0e-6,
    beta=6.86e-9,         # ~145 MB/s per-rank share (64 KNL ranks per NIC)
    o_send=6.0e-6,        # KNL per-message software overhead
    o_recv=6.0e-6,
    gamma_mem=4.0e-10,    # KNL DDR copy ~2.5 GB/s per core
    kappa_mem=8.0e-8,
    dt_block=1.6e-7,
    dt_byte=2.5e-10,
    eager_threshold=8192,
    eager_factor=5.0,
    congestion_procs=6000.0,
)

# Cori (Haswell/KNL, Aries): faster cores than Theta KNL, similar network.
CORI = MachineProfile(
    name="cori",
    alpha=3.0e-6,
    beta=6.5e-9,
    o_send=3.0e-6,
    o_recv=3.0e-6,
    gamma_mem=2.0e-10,
    kappa_mem=5.0e-8,
    dt_block=1.2e-7,
    dt_byte=2.0e-10,
    eager_threshold=8192,
    eager_factor=5.0,
    congestion_procs=16000.0,
)

# Stampede2 (SKX/KNL, Omni-Path): slightly higher latency fabric, strong
# per-core compute.
STAMPEDE2 = MachineProfile(
    name="stampede2",
    alpha=5.0e-6,
    beta=8.0e-9,
    o_send=4.0e-6,
    o_recv=4.0e-6,
    gamma_mem=2.2e-10,
    kappa_mem=5.0e-8,
    dt_block=1.3e-7,
    dt_byte=2.0e-10,
    eager_threshold=16384,
    eager_factor=4.0,
    congestion_procs=10000.0,
)

# A forgiving profile for unit tests and laptop examples: low constant
# costs so functional runs at tiny P still produce readable times.
LOCAL = MachineProfile(
    name="local",
    alpha=1.0e-6,
    beta=1.0e-9,
    o_send=5.0e-7,
    o_recv=5.0e-7,
    eager_factor=3.0,
    congestion_procs=16384.0,
)

PROFILES: Dict[str, MachineProfile] = {
    p.name: p for p in (THETA, CORI, STAMPEDE2, LOCAL)
}


def get_profile(name: str) -> MachineProfile:
    """Look up a named machine profile (case-insensitive).

    Raises
    ------
    KeyError
        with the list of known names if ``name`` is unknown.
    """
    key = name.lower()
    try:
        return PROFILES[key]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(f"unknown machine profile {name!r}; known: {known}") from None

"""Shared math and validation helpers for all Bruck-family algorithms.

The index arithmetic here is the substance of the paper's Section 2/3: which
blocks move in which communication step, and how slots map to sources and
destinations.  Centralizing it keeps the six uniform variants and the two
non-uniform algorithms from re-deriving (and re-bugging) the same bit
tricks, and lets the analytic predictors and the tensor evaluators read
the identical definitions.

Bruck index conventions used throughout (see DESIGN.md):

* ``num_steps(P) == ceil(log2 P)`` communication steps.
* In step ``k``, the *distance indices* ``i`` with bit ``k`` set move.  For
  the **basic** algorithm a block with distance ``i`` travels from source
  ``s`` to destination ``(s + i) % P``; for the **modified/zero-rotation**
  family it travels to ``(s - i) % P`` and sits at slot
  ``(i + current_rank) % P`` at every hop, so it lands at slot ``s`` on its
  destination with no final rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..simmpi.errors import WireCountError

__all__ = [
    "num_steps",
    "send_block_distances",
    "block_moved_before",
    "rotation_index_array",
    "as_byte_view",
    "checked_counts_displs",
    "checked_wire_counts",
    "validate_uniform_args",
    "total_send_blocks_per_step",
    "validate_radix",
    "radix_num_steps",
    "radix_send_block_distances",
    "radix_block_moved_before",
    "BruckSubstep",
    "bruck_substeps",
    "total_forwarded_blocks",
    "BlockSizeState",
]


def num_steps(nprocs: int) -> int:
    """Number of Bruck communication steps: ``ceil(log2 P)`` (0 for P=1)."""
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    return (nprocs - 1).bit_length()


def send_block_distances(step: int, nprocs: int) -> List[int]:
    """Distance indices moving in ``step``: all ``i in [1, P)`` with bit
    ``step`` of ``i`` set, ascending.

    Every step moves at most ``(P+1)//2`` blocks; the last step of a
    non-power-of-two ``P`` moves fewer (the paper calls this out
    explicitly).
    """
    if step < 0:
        raise ValueError(f"step must be non-negative, got {step}")
    bit = 1 << step
    return [i for i in range(bit, nprocs) if i & bit]


def block_moved_before(distance: int, step: int) -> bool:
    """Has the block with this distance index already been exchanged in a
    step before ``step``?

    True iff ``distance`` has a set bit below ``step``.  Used by
    zero-rotation Bruck to decide whether a block is drawn from the original
    send buffer or from the working/receive buffer — the functional
    equivalent of two-phase Bruck's explicit ``status`` array.
    """
    return (distance & ((1 << step) - 1)) != 0


def rotation_index_array(rank: int, nprocs: int) -> np.ndarray:
    """The paper's rotation index array ``I[j] = (2*rank - j) % P``.

    ``I[j]`` is the index (into the caller's original block order) of the
    block that *logically* sits at working slot ``j`` before any exchange.
    Creating ``I`` costs O(P), replacing the O(P*n) physical rotation.
    """
    j = np.arange(nprocs, dtype=np.int64)
    return (2 * rank - j) % nprocs


def total_send_blocks_per_step(nprocs: int) -> List[int]:
    """Blocks sent by each rank in every step (for models and tests)."""
    return [len(send_block_distances(k, nprocs)) for k in range(num_steps(nprocs))]


# ----------------------------------------------------------------------
# radix-r generalization
# ----------------------------------------------------------------------
#
# Radix r rewrites a distance index in base r instead of base 2: step ``k``
# handles digit position ``k``, with one substep per nonzero digit value
# ``z in [1, r)``.  The substep with digit ``z`` moves every distance ``i``
# whose ``k``-th base-r digit equals ``z`` a jump of ``z * r**k`` (negative
# direction for the modified/zero-rotation family).  ``ceil(log_r P)``
# steps of up to ``r - 1`` messages each replace ``ceil(log2 P)`` single-
# message steps — fewer rounds, more messages and forwarded volume per
# round, the trade the radix dial exposes.  Radix 2 reduces every formula
# here to the bit-trick originals (``(i // 2**k) % 2 == 1`` is "bit ``k``
# set"), so the radix-2 schedules stay integer-identical.


def validate_radix(radix: int) -> int:
    """Check a Bruck radix: an integer >= 2 (radix 2 is today's kernels)."""
    r = int(radix)
    if r != radix or r < 2:
        raise ValueError(f"radix must be an integer >= 2, got {radix!r}")
    return r


def radix_num_steps(nprocs: int, radix: int = 2) -> int:
    """Number of radix-``r`` Bruck steps: ``ceil(log_r P)`` (0 for P=1)."""
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    r = validate_radix(radix)
    if r == 2:
        return num_steps(nprocs)
    steps, span = 0, 1
    while span < nprocs:
        span *= r
        steps += 1
    return steps


def radix_send_block_distances(
    step: int, digit: int, nprocs: int, radix: int = 2
) -> List[int]:
    """Distances moving in substep (``step``, ``digit``): all ``i`` in
    ``[1, P)`` whose base-``radix`` digit at position ``step`` is ``digit``.

    Reduces to :func:`send_block_distances` for radix 2 (where the only
    nonzero digit value is 1).
    """
    if step < 0:
        raise ValueError(f"step must be non-negative, got {step}")
    r = validate_radix(radix)
    if not 1 <= digit < r:
        raise ValueError(f"digit must be in [1, {r}), got {digit}")
    if r == 2:
        return send_block_distances(step, nprocs)
    base = r ** step
    return [i for i in range(1, nprocs) if (i // base) % r == digit]


def radix_block_moved_before(distance: int, step: int, radix: int = 2) -> bool:
    """Has this distance index been exchanged in a step before ``step``?

    True iff ``distance`` has a nonzero base-``radix`` digit below position
    ``step`` — i.e. ``distance % radix**step != 0``.  Radix 2 reduces to
    :func:`block_moved_before` (a set bit below ``step``).  Elementwise on
    an int array of distances (a substep's ``distances``).
    """
    r = validate_radix(radix)
    if r == 2:
        return block_moved_before(distance, step)
    return distance % (r ** step) != 0


@dataclass(frozen=True, eq=False)
class BruckSubstep:
    """One communication round of a radix-``r`` Bruck exchange.

    ``index``
        Dense substep number ``step * (r-1) + (digit-1)`` — the tag offset
        (``tag_base + index`` for uniform kernels, ``tag_base + 2*index``
        and ``+ 2*index + 1`` for two-phase's metadata/data pair).  For
        radix 2 it equals ``step``, so tags match the unparameterized code.
    ``step`` / ``digit``
        Digit position ``k`` and digit value ``z`` of the distances moved.
    ``jump``
        Partner offset ``z * r**k``: the modified family sends to
        ``(rank - jump) % P`` and receives from ``(rank + jump) % P``.
    ``distances``
        The distance indices moving, ascending
        (:func:`radix_send_block_distances`), as a read-only int64 array
        shared by every caller of the memoised schedule.
    """

    index: int
    step: int
    digit: int
    jump: int
    distances: np.ndarray


def bruck_substeps(nprocs: int, radix: int = 2) -> Tuple[BruckSubstep, ...]:
    """The full substep schedule of a radix-``r`` Bruck exchange.

    Substeps whose distance set is empty (``digit * r**step >= P``) are
    omitted, mirroring the kernels' ``if not dist: continue``.  The digit
    test is :func:`radix_send_block_distances`'s, which for radix 2 is the
    bit test of :func:`send_block_distances`, so every integer (index,
    jump, distances) — and therefore every message, tag and clock charge
    downstream — is identical to the unparameterized path.

    The schedule is a pure function of ``(P, r)``: it is memoised and
    immutable, so ranks, evaluators and predictors share one tuple and
    never build a per-step index of their own.  Distances are int64
    arrays (2 MiB for the whole schedule at P = 32 768), not tuples of
    Python ints, and the cache is bounded.
    """
    return _bruck_schedule(int(nprocs), validate_radix(radix))


@lru_cache(maxsize=16)
def _bruck_schedule(nprocs: int, r: int) -> Tuple[BruckSubstep, ...]:
    distance = np.arange(1, nprocs, dtype=np.int64)
    subs: List[BruckSubstep] = []
    for k in range(radix_num_steps(nprocs, r)):
        digits = (distance // r ** k) % r
        for z in range(1, r):
            dist = distance[digits == z]
            if not len(dist):
                continue
            dist.setflags(write=False)
            subs.append(BruckSubstep(index=k * (r - 1) + (z - 1), step=k,
                                     digit=z, jump=z * r ** k,
                                     distances=dist))
    return tuple(subs)


def total_forwarded_blocks(nprocs: int, radix: int = 2) -> int:
    """Total blocks a rank sends across a whole radix-``r`` exchange.

    Equals the sum of nonzero base-``r`` digit counts over all distances —
    the exact volume multiplier behind the cost model's ``(P+1)/2``-per-
    step approximation (radix 2) and its ``(P+1)(r-1)/r`` generalization.
    """
    return sum(len(s.distances) for s in bruck_substeps(nprocs, radix))


#: Ranks per band of :meth:`BlockSizeState.from_matrix`, and the side of
#: the square tiles it copies out: a band's ``[band | band]`` buffer is
#: ``2 P`` entries per rank (1 MiB of ``uint8`` at P = 2048).
_STATE_BAND = 256


class BlockSizeState:
    """Who holds how many bytes, addressed by distance instead of by rank.

    ``rows[i, r]`` is the current size of the block with distance index
    ``i`` held by rank ``r`` — the block at working slot ``(i + r) % P``
    of the modified/zero-rotation family, bound for the rank ``i`` below
    its origin.  Before any exchange that is ``sizes[r, (r - i) % P]``:
    row ``i`` is the ``i``-th wrapped diagonal of the ``sizes[src, dst]``
    matrix, read once here.  This is the paper's zero-rotation idea
    applied to the simulator's own bookkeeping: blocks are never
    re-indexed by rank, and the one thing a communication round does to
    the state is :meth:`roll` — every rank hands the blocks at a
    substep's ``distances`` to the rank ``jump`` below it, so those rows
    shift by ``-jump`` and every other row stays put.

    The functional kernels track the same quantity per rank
    (``cur_counts`` in two-phase Bruck); the tensor evaluator and the
    exact predictor interpret the whole fabric through this one object,
    so neither derives source/destination indices of its own.  With a
    single lane (``rows`` of shape ``(P, 1)``, constant block sizes) every
    rank holds the same sizes and :meth:`roll` changes nothing.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows

    @classmethod
    def from_matrix(cls, sizes: np.ndarray) -> "BlockSizeState":
        """Distance-major copy of a ``(P, P)`` ``sizes[src, dst]`` matrix.

        Given the transpose instead, ``rows[i, r]`` is what rank ``r``
        *receives* from the rank ``i`` below it — the exchange seen from
        its destinations, where every block has already arrived.

        ``rows`` takes the narrowest unsigned dtype that holds the largest
        size (``uint8`` for N <= 255): readers widen before any arithmetic.

        Built ``_STATE_BAND`` ranks at a time: each band of ``sizes`` rows
        is narrowed once into a ``[band | band]`` buffer (laid out like
        ``sizes``, so a transposed input reads as fast), and rank
        ``r0 + t``'s column of ``rows`` is that buffer's row ``t`` read
        backwards from ``r0 + t + P`` — one skewed view for the band,
        copied out in square tiles.  Neither a ``P x 2P`` nor a narrowed
        ``P x P`` temporary exists.
        """
        p = sizes.shape[0]
        if sizes.shape != (p, p):
            raise ValueError(f"size matrix must be square, got {sizes.shape}")
        dtype = np.min_scalar_type(int(sizes.max(initial=0)))
        rows = np.empty((p, p), dtype=dtype)
        tile = _STATE_BAND
        width = min(tile, p)
        if abs(sizes.strides[0]) >= abs(sizes.strides[1]):
            buf = np.empty((width, 2 * p), dtype=dtype)
        else:
            buf = np.empty((2 * p, width), dtype=dtype).T
        for r0 in range(0, p, tile):
            band = buf[:p - r0]                 # the last band may be short
            band[:, :p] = sizes[r0:r0 + tile]
            band[:, p:] = band[:, :p]
            # wrapped[i, t] = band[t, r0 + t + P - i]
            #               = sizes[r0 + t, (r0 + t - i) % P]
            step_t, step_c = band.strides
            wrapped = as_strided(band[:, r0 + 1:], shape=(p, len(band)),
                                 strides=(step_c, step_t + step_c))[::-1]
            for i0 in range(0, p, tile):
                rows[i0:i0 + tile, r0:r0 + tile] = wrapped[i0:i0 + tile]
        return cls(rows)

    @classmethod
    def uniform(cls, nprocs: int, nbytes: int,
                lanes: int) -> "BlockSizeState":
        """Every block ``nbytes`` long; one lane can stand for all ranks."""
        return cls(np.full((nprocs, lanes), nbytes, dtype=np.int64))

    def sum_dtype(self, count: int) -> np.dtype:
        """Accumulator for a column sum of ``count`` rows: ``uint32`` while
        ``count`` times the dtype's maximum stays below ``2**32`` (so it
        cannot wrap, and it is about twice as fast as int64), else int64."""
        if (self.rows.dtype.kind == "u"
                and count * int(np.iinfo(self.rows.dtype).max) < 1 << 32):
            return np.dtype(np.uint32)
        return np.dtype(np.int64)

    def read(self, distances: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """The ``(m, L)`` sizes of the blocks at ``distances`` (a substep's,
        or a slice of them), one contiguous row read per distance (into
        ``out`` when given)."""
        # mode="clip" only skips NumPy's bounds-check buffering of `out`;
        # schedule distances are always in range.
        return np.take(self.rows, distances, axis=0, out=out, mode="clip")

    def roll(self, distances: np.ndarray, jump: int,
             moved: np.ndarray) -> None:
        """Apply one communication round to the blocks at ``distances``:
        their rows roll by ``-jump`` (rank ``r`` now holds what
        ``r + jump`` sent).  ``moved`` is their :meth:`read`."""
        lanes = self.rows.shape[1]
        jump %= lanes
        if jump == 0:
            return
        self.rows[distances, :lanes - jump] = moved[:, jump:]
        self.rows[distances, lanes - jump:] = moved[:, :jump]


# ----------------------------------------------------------------------
# buffer validation
# ----------------------------------------------------------------------

def as_byte_view(buffer: np.ndarray, name: str = "buffer") -> np.ndarray:
    """Flat uint8 view of a contiguous ndarray (zero-copy)."""
    if not isinstance(buffer, np.ndarray):
        raise TypeError(f"{name} must be a numpy ndarray, got {type(buffer)}")
    if not buffer.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    return buffer.reshape(-1).view(np.uint8)


def checked_counts_displs(
    counts: Sequence[int],
    displs: Sequence[int],
    nprocs: int,
    buf_nbytes: int,
    what: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate an alltoallv counts/displacements pair.

    Checks length, non-negativity, and that every ``[displ, displ+count)``
    extent fits in the buffer.  Overlap between extents is *not* rejected
    for send buffers (MPI allows reading the same bytes twice) — receive
    extents are the caller's contract, as in MPI.
    """
    counts = np.asarray(counts, dtype=np.int64)
    displs = np.asarray(displs, dtype=np.int64)
    if counts.shape != (nprocs,):
        raise ValueError(f"{what}counts must have shape ({nprocs},), got {counts.shape}")
    if displs.shape != (nprocs,):
        raise ValueError(f"{what}displs must have shape ({nprocs},), got {displs.shape}")
    if np.any(counts < 0):
        raise ValueError(f"{what}counts must be non-negative")
    if np.any(displs < 0):
        raise ValueError(f"{what}displs must be non-negative")
    if np.any(displs + counts > buf_nbytes):
        bad = int(np.argmax(displs + counts > buf_nbytes))
        raise ValueError(
            f"{what} block {bad} (displ {int(displs[bad])}, count "
            f"{int(counts[bad])}) exceeds buffer of {buf_nbytes} bytes"
        )
    return counts, displs


#: MPI's counts and displacements are C ``int``.
_MPI_INT_LIMIT = 1 << 31


def checked_wire_counts(comm, collective: str, counts,
                        extent: Optional[int] = None,
                        carried: Optional[int] = None) -> np.ndarray:
    """``counts`` read off the wire, as int64, once each of them and
    ``extent`` — the buffer they size (default: their sum) — is known to
    lie in MPI's ``int`` range and, when the counts describe a message
    already received, to equal the ``carried`` bytes; else a
    ``WireCountError``."""
    arr = np.asarray(counts, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= _MPI_INT_LIMIT):
        bad = (arr < 0) | (arr >= _MPI_INT_LIMIT)
        raise WireCountError(comm.rank, collective, "count",
                             int(arr.ravel()[np.argmax(bad.ravel())]))
    if extent is None:
        extent = int(arr.sum())      # below 2**63: every count is below 2**31
    if not 0 <= extent < _MPI_INT_LIMIT:
        raise WireCountError(comm.rank, collective, "buffer extent", extent)
    if carried is not None and extent != carried:
        raise WireCountError(comm.rank, collective, "buffer extent", extent,
                             carried=carried)
    return arr


def validate_uniform_args(
    sendbuf: np.ndarray, recvbuf: np.ndarray, block_nbytes: int, nprocs: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Validate uniform-alltoall buffers; returns byte views and block size."""
    n = int(block_nbytes)
    if n < 0:
        raise ValueError(f"block_nbytes must be non-negative, got {block_nbytes}")
    sview = as_byte_view(sendbuf, "sendbuf")
    rview = as_byte_view(recvbuf, "recvbuf")
    need = nprocs * n
    if sview.nbytes < need:
        raise ValueError(f"sendbuf needs {need} bytes, has {sview.nbytes}")
    if rview.nbytes < need:
        raise ValueError(f"recvbuf needs {need} bytes, has {rview.nbytes}")
    return sview, rview, n

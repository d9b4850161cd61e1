"""Central registry of the paper's all-to-all algorithms.

Every algorithm name used anywhere in the project — dispatchers, the
analytic timing engine, the selector, the CLI, the benchmarks — resolves
through this one table, so "which algorithms exist" has a single answer
and a typo fails the same way everywhere.

The registry is a *passive* store: implementation packages register
themselves when imported (see ``repro.core.uniform`` /
``repro.core.nonuniform``), and :func:`get_algorithm` /
:func:`list_algorithms` lazily import them on first use.  That keeps this
module import-cycle-free — it never imports implementation code at module
level.

``"vendor"`` is registered here directly for both kinds: it stands in for
the MPI library's own ``MPI_Alltoall(v)`` and routes to the communicator's
builtin (spread-out) collectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Algorithm",
    "KINDS",
    "register_algorithm",
    "get_algorithm",
    "list_algorithms",
    "radix_algorithms",
]

#: Valid algorithm kinds: uniform ``MPI_Alltoall``-style (equal blocks)
#: and non-uniform ``MPI_Alltoallv``-style (per-pair block sizes).
KINDS = ("uniform", "nonuniform")


@dataclass(frozen=True)
class Algorithm:
    """One registered all-to-all implementation.

    ``fn`` has the kind's dispatch signature::

        uniform:    fn(comm, sendbuf, recvbuf, block_nbytes, *, tag_base=0)
        nonuniform: fn(comm, sendbuf, sendcounts, sdispls,
                       recvbuf, recvcounts, rdispls, *, tag_base=0)

    ``supports_radix`` marks the Bruck-family kernels that additionally
    accept a ``radix=`` keyword (base-``r`` digit schedule); consumers —
    dispatchers, the timing engine, the tensor backend, the tuner — gate
    radix requests on this flag instead of keeping their own name lists.
    """

    name: str
    kind: str
    fn: Callable[..., None]
    description: str = ""
    supports_radix: bool = False


_REGISTRY: Dict[Tuple[str, str], Algorithm] = {}
_populated = False


def register_algorithm(name: str, kind: str, fn: Callable[..., None],
                       description: str = "", *,
                       supports_radix: bool = False) -> Algorithm:
    """Add one algorithm to the registry (idempotent per ``(kind, name)``).

    Re-registering an existing ``(kind, name)`` pair replaces it — that
    keeps module reloads harmless.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not name:
        raise ValueError("algorithm name must be non-empty")
    algo = Algorithm(name=name, kind=kind, fn=fn, description=description,
                     supports_radix=supports_radix)
    _REGISTRY[(kind, name)] = algo
    return algo


def _ensure_populated() -> None:
    """Import the implementation packages so they self-register."""
    global _populated
    if _populated:
        return
    _populated = True
    from . import nonuniform, uniform  # noqa: F401 - registration side effect


def get_algorithm(name: str, kind: Optional[str] = None) -> Algorithm:
    """Look ``name`` up, optionally restricted to one ``kind``.

    Raises ``KeyError`` (naming the unknown algorithm and listing the
    known ones) on a miss — the same failure mode every consumer sees.
    """
    _ensure_populated()
    kinds: Sequence[str]
    if kind is None:
        kinds = KINDS
    elif kind in KINDS:
        kinds = (kind,)
    else:
        raise ValueError(f"kind must be one of {KINDS} or None, got {kind!r}")
    for k in kinds:
        algo = _REGISTRY.get((k, name))
        if algo is not None:
            return algo
    what = f"{kind} algorithm" if kind is not None else "algorithm"
    known = ", ".join(list_algorithms(kind))
    raise KeyError(f"unknown {what} {name!r}; known: {known}")


def list_algorithms(kind: Optional[str] = None) -> List[str]:
    """Sorted names of every registered algorithm (of ``kind``, if given)."""
    _ensure_populated()
    if kind is not None and kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS} or None, got {kind!r}")
    names = {n for (k, n) in _REGISTRY if kind is None or k == kind}
    return sorted(names)


def radix_algorithms(kind: Optional[str] = None) -> List[str]:
    """Sorted names of the algorithms accepting a ``radix=`` keyword."""
    _ensure_populated()
    if kind is not None and kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS} or None, got {kind!r}")
    names = {n for (k, n), a in _REGISTRY.items()
             if a.supports_radix and (kind is None or k == kind)}
    return sorted(names)


# ----------------------------------------------------------------------
# The vendor stand-ins: the communicator's builtin (spread-out)
# collectives, mirroring a call into the MPI library itself.
# ----------------------------------------------------------------------

def _vendor_alltoall(comm, sendbuf, recvbuf, block_nbytes, *,
                     tag_base: int = 0) -> None:
    comm.alltoall(sendbuf, recvbuf, block_nbytes)


def _vendor_alltoallv(comm, sendbuf, sendcounts, sdispls, recvbuf,
                      recvcounts, rdispls, *, tag_base: int = 0) -> None:
    comm.alltoallv(sendbuf, sendcounts, sdispls, recvbuf, recvcounts,
                   rdispls)


register_algorithm(
    "vendor", "uniform", _vendor_alltoall,
    "the MPI library's own MPI_Alltoall (builtin spread-out)")
register_algorithm(
    "vendor", "nonuniform", _vendor_alltoallv,
    "the MPI library's own MPI_Alltoallv (builtin spread-out)")

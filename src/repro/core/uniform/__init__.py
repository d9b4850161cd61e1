"""Uniform all-to-all algorithms (paper Section 2).

The registry maps the paper's algorithm names to implementations sharing
one signature::

    fn(comm, sendbuf, recvbuf, block_nbytes, *, tag_base=0)

Use :func:`alltoall` to dispatch by name.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ...simmpi.communicator import Communicator
from ..registry import get_algorithm, register_algorithm
from .basic import basic_bruck, basic_bruck_dt
from .modified import modified_bruck, modified_bruck_dt
from .spread_out import spread_out
from .zero_rotation import zero_rotation_bruck
from .zerocopy import zero_copy_bruck_dt

__all__ = [
    "basic_bruck",
    "basic_bruck_dt",
    "modified_bruck",
    "modified_bruck_dt",
    "zero_copy_bruck_dt",
    "zero_rotation_bruck",
    "spread_out",
    "alltoall",
]

AlltoallFn = Callable[..., None]

for _name, _fn, _desc, _radix in (
    ("basic_bruck", basic_bruck, "Fig. 2 basic Bruck (explicit copies)",
     False),
    ("basic_bruck_dt", basic_bruck_dt, "basic Bruck, derived datatypes",
     False),
    ("modified_bruck", modified_bruck, "basic Bruck minus final rotation",
     True),
    ("modified_bruck_dt", modified_bruck_dt,
     "modified Bruck, derived datatypes", True),
    ("zero_copy_bruck_dt", zero_copy_bruck_dt,
     "zero-copy Bruck over two working buffers", False),
    ("zero_rotation_bruck", zero_rotation_bruck,
     "the paper's zero-rotation Bruck (index arithmetic, no rotations)",
     True),
    ("spread_out", spread_out, "pairwise Isend/Irecv spread-out baseline",
     False),
):
    register_algorithm(_name, "uniform", _fn, _desc, supports_radix=_radix)


def alltoall(comm: Communicator, sendbuf: np.ndarray, recvbuf: np.ndarray,
             block_nbytes: int, *, algorithm: str = "zero_rotation_bruck",
             tag_base: int = 0, radix: int = 2) -> None:
    """Uniform all-to-all dispatching on ``algorithm`` name.

    Names resolve through :mod:`repro.core.registry`; ``"vendor"`` routes
    to the communicator's builtin (spread-out) alltoall, mirroring a call
    to the MPI library's own ``MPI_Alltoall``.  ``radix`` other than 2
    requires a radix-capable algorithm (``Algorithm.supports_radix``).
    """
    algo = get_algorithm(algorithm, kind="uniform")
    if radix != 2:
        if not algo.supports_radix:
            raise ValueError(
                f"algorithm {algo.name!r} does not support radix "
                f"{radix}; radix-capable uniform algorithms accept radix=")
        algo.fn(comm, sendbuf, recvbuf, block_nbytes, tag_base=tag_base,
                radix=radix)
    else:
        algo.fn(comm, sendbuf, recvbuf, block_nbytes, tag_base=tag_base)

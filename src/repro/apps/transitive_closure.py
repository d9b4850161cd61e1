"""Parallel transitive closure over BPRA (paper §5.1, Fig. 11).

Semi-naive TC as iterated relational algebra:

* ``G(y, z)`` — the edge relation, hash-partitioned by source ``y``;
* ``T(x, y)`` — the accumulating path relation, partitioned by *target*
  ``y`` so each new path lands exactly where the edges it can extend live;
* each iteration joins the newest paths ``ΔT(x, y)`` with the local edges
  ``G(y, z)`` and routes the resulting candidates ``(x, z)`` to
  ``hash(z)`` — one non-uniform all-to-all per iteration, through the
  pluggable algorithm under study.

Local compute (join probes, inserts) is charged to the simulated clock so
strong-scaling totals behave like the paper's: compute shrinks with ``P``
while communication grows, which is what makes the Bruck swap matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..bpra.fixpoint import FixpointResult, IterationRecord, run_fixpoint
from ..bpra.relation import LocalRelation, hash_owner
from ..simmpi.communicator import Communicator
from ..simmpi.executor import ExecutionConfig, run_spmd
from ..simmpi.machine import LOCAL, MachineProfile

__all__ = ["TCResult", "transitive_closure_rank", "run_transitive_closure"]

Edge = Tuple[int, int]

# Per-operation local compute charges (seconds).  Roughly a hash probe /
# a set insert on the simulated machine; they make join work visible to
# the strong-scaling totals without dominating them.
_JOIN_PROBE_COST = 8.0e-8
_PRODUCE_COST = 6.0e-8


@dataclass
class TCResult:
    """Aggregated outcome of a distributed TC run."""

    nprocs: int
    algorithm: str
    closure_size: int
    iterations: int
    elapsed_seconds: float                 # simulated makespan
    comm_seconds: float                    # max-over-ranks total comm time
    per_iteration: List[Dict]              # merged Fig. 11/12 records


def transitive_closure_rank(comm: Communicator, edges: Sequence[Edge], *,
                            algorithm: str = "two_phase_bruck",
                            ) -> FixpointResult:
    """One rank's SPMD body: compute TC of ``edges`` collectively.

    Every rank receives the full edge list (deterministic input, as if
    read from shared storage) and keeps only its hash-partitioned share.
    """
    p = comm.size
    g = LocalRelation(arity=2, key_column=0)   # G(y, z) at hash(y)
    t = LocalRelation(arity=2, key_column=1)   # T(x, y) at hash(y)
    seed_delta: List[Edge] = []
    for (u, v) in edges:
        if hash_owner(u, p) == comm.rank:
            g.add((u, v))
        if hash_owner(v, p) == comm.rank:
            if t.add((u, v)):
                seed_delta.append((u, v))

    def rule(delta: List[Edge]) -> Dict[int, List[Edge]]:
        outgoing: Dict[int, List[Edge]] = {}
        produced = 0
        for (x, y) in delta:
            for (_, z) in g.matching(y):
                outgoing.setdefault(hash_owner(z, p), []).append((x, z))
                produced += 1
        comm.charge_compute(len(delta) * _JOIN_PROBE_COST
                            + produced * _PRODUCE_COST)
        return outgoing

    return run_fixpoint(comm, t, seed_delta, rule, algorithm=algorithm)


def run_transitive_closure(edges: Sequence[Edge], nprocs: int, *,
                           machine: MachineProfile = LOCAL,
                           algorithm: str = "two_phase_bruck") -> TCResult:
    """Launch the SPMD TC job and aggregate per-rank results.

    The returned ``per_iteration`` records carry, for every iteration, the
    max-over-ranks simulated comm time and the global max block size ``N``
    — the two series Fig. 12 plots (and Fig. 11 sums).
    """
    result = run_spmd(
        lambda comm: transitive_closure_rank(comm, edges,
                                             algorithm=algorithm),
        nprocs, config=ExecutionConfig(machine=machine, trace=False))
    fixpoints: List[FixpointResult] = result.returns
    iterations = fixpoints[0].iterations
    if any(f.iterations != iterations for f in fixpoints):
        raise AssertionError("ranks disagree on iteration count")
    closure_size = sum(len(f.relation) for f in fixpoints)
    per_iteration: List[Dict] = []
    for i in range(iterations):
        records: List[IterationRecord] = [f.history[i] for f in fixpoints]
        per_iteration.append({
            "iteration": i + 1,
            "comm_seconds": max(r.comm_seconds for r in records),
            "max_block_bytes": records[0].max_block_bytes,
            "new_tuples": sum(r.new_tuples for r in records),
        })
    return TCResult(
        nprocs=nprocs,
        algorithm=algorithm,
        closure_size=closure_size,
        iterations=iterations,
        elapsed_seconds=result.elapsed,
        comm_seconds=max(f.total_comm_seconds for f in fixpoints),
        per_iteration=per_iteration,
    )

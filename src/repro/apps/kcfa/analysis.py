"""Distributed k-CFA abstract interpreter over BPRA (paper §5.2, Fig. 12).

Abstract domain (closure-free CPS core, see :mod:`.syntax`):

* an abstract **value** is a lambda label;
* a **variable** is identified by ``(lambda label, parameter index)``;
* a **contour** is the packed string of the last ``k`` call labels;
* the **store** maps ``(variable, contour)`` to a set of values;
* a **state** ``(lambda, contour)`` means that lambda's body call is
  reachable under that contour.

Both fact kinds are keyed by their contour, so every store lookup a state
needs is owned by the state's own rank — the joins of the analysis are
local and only the *derived* facts travel, through one non-uniform
all-to-all per fixed-point iteration (the paper's structure: "an
all-to-all exchange propagates analysis facts to their managing process").

Fact encoding (int tuples, arity 5, key column 2 = contour):

* bind: ``(0, var_code, contour, value_label, 0)`` with
  ``var_code = lam_label * 64 + param_index``;
* reach: ``(1, lam_label, contour, 0, 0)``.

Semi-naive refiring: a new *reach* fact fires its state's transition; a
new *bind* fact refires the already-reachable state it feeds (its operand
sets just grew).  Duplicated products are deduped on arrival by the BPRA
relation, exactly like the TC application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ...bpra.fixpoint import FixpointResult, run_fixpoint
from ...bpra.relation import LocalRelation, hash_owner
from ...simmpi.communicator import Communicator
from ...simmpi.executor import ExecutionConfig, run_spmd
from ...simmpi.machine import LOCAL, MachineProfile
from .syntax import MAX_LABEL, Lam, Program, pack_contour, push_contour

__all__ = ["KCFAResult", "kcfa_rank", "run_kcfa", "sequential_kcfa"]

IntTuple = Tuple[int, ...]

_BIND, _REACH = 0, 1
_ROOT_LABEL = 0        # pseudo-lambda wrapping the program's root call
_MAX_PARAMS = 64       # var_code = lam_label * 64 + param_index

_FIRE_COST = 1.2e-7    # simulated CPU per fired state transition
_PRODUCT_COST = 5.0e-8  # simulated CPU per produced fact


def _registry(program: Program) -> Dict[int, Lam]:
    lams = dict(program.lambdas)
    if _ROOT_LABEL in lams:
        raise ValueError("lambda label 0 is reserved for the root")
    lams[_ROOT_LABEL] = Lam(label=_ROOT_LABEL, params=(),
                            body=program.root)
    for lam in lams.values():
        if len(lam.params) > _MAX_PARAMS:
            raise ValueError(
                f"lambda {lam.label} has {len(lam.params)} params; the "
                f"fact encoding supports at most {_MAX_PARAMS}")
    return lams


class _LocalState:
    """One rank's store/reach indexes plus the transition function."""

    def __init__(self, lams: Dict[int, Lam], k: int) -> None:
        self.lams = lams
        self.k = k
        self.store: Dict[Tuple[int, int], Set[int]] = {}
        self.reach: Set[Tuple[int, int]] = set()

    def absorb(self, fact: IntTuple) -> List[Tuple[int, int]]:
        """Index one fact; return the states it makes fireable."""
        kind = fact[0]
        if kind == _REACH:
            state = (fact[1], fact[2])
            self.reach.add(state)
            return [state]
        var_code, ctx, value = fact[1], fact[2], fact[3]
        self.store.setdefault((var_code, ctx), set()).add(value)
        owner_lam = var_code // _MAX_PARAMS
        state = (owner_lam, ctx)
        return [state] if state in self.reach else []

    def _values(self, lam: Lam, ctx: int, item) -> Set[int]:
        if isinstance(item, Lam):
            return {item.label}
        idx = lam.params.index(item.name)
        return self.store.get((lam.label * _MAX_PARAMS + idx, ctx), set())

    def fire(self, state: Tuple[int, int]) -> List[IntTuple]:
        """All facts derivable from one reachable state right now."""
        lam_label, ctx = state
        lam = self.lams[lam_label]
        body = lam.body
        if body is None:
            return []
        fn_vals = self._values(lam, ctx, body.fn)
        arg_vals = [self._values(lam, ctx, a) for a in body.args]
        out: List[IntTuple] = []
        for callee_label in fn_vals:
            callee = self.lams.get(callee_label)
            if callee is None or callee_label == _ROOT_LABEL:
                continue
            ctx2 = push_contour(ctx, body.label, self.k)
            out.append((_REACH, callee_label, ctx2, 0, 0))
            for i, _param in enumerate(callee.params):
                if i >= len(arg_vals):
                    break  # under-application: parameter stays unbound
                code = callee_label * _MAX_PARAMS + i
                for v in arg_vals[i]:
                    out.append((_BIND, code, ctx2, v, 0))
        return out


@dataclass
class KCFAResult:
    """Aggregated outcome of a distributed kCFA run."""

    nprocs: int
    k: int
    algorithm: str
    total_facts: int
    iterations: int
    elapsed_seconds: float
    comm_seconds: float
    per_iteration: List[Dict]


def _entry_seeds(entries: int, k: int) -> List[IntTuple]:
    """Seed reach facts: one per analysis entry point.

    Entry ``e > 0`` starts under a synthetic contour ``[MAX_LABEL - e]``
    (as if the program were invoked from ``e`` distinct external call
    sites) — the standard multi-entry setup, and the lever that scales the
    Fig. 12 workload.
    """
    if entries < 1:
        raise ValueError(f"entries must be >= 1, got {entries}")
    seeds: List[IntTuple] = [(_REACH, _ROOT_LABEL, 0, 0, 0)]
    for e in range(1, entries):
        ctx = pack_contour([MAX_LABEL - e]) if k > 0 else 0
        seeds.append((_REACH, _ROOT_LABEL, ctx, 0, 0))
    return seeds


def kcfa_rank(comm: Communicator, program: Program, k: int, *,
              algorithm: str = "two_phase_bruck",
              entries: int = 1) -> FixpointResult:
    """One rank's SPMD body: run the k-CFA fixed point collectively."""
    if k < 0 or k > 8:
        raise ValueError(f"k must be in [0, 8], got {k}")
    lams = _registry(program)
    local = _LocalState(lams, k)
    facts = LocalRelation(arity=5, key_column=2)

    seed_delta: List[IntTuple] = []
    for seed_fact in _entry_seeds(entries, k):
        if hash_owner(seed_fact[2], comm.size) == comm.rank:
            facts.add(seed_fact)
            seed_delta.append(seed_fact)

    def rule(delta: List[IntTuple]) -> Dict[int, List[IntTuple]]:
        fire_set: Set[Tuple[int, int]] = set()
        for fact in delta:
            fire_set.update(local.absorb(fact))
        outgoing: Dict[int, List[IntTuple]] = {}
        produced = 0
        for state in fire_set:
            for fact in local.fire(state):
                produced += 1
                outgoing.setdefault(
                    hash_owner(fact[2], comm.size), []).append(fact)
        comm.charge_compute(len(fire_set) * _FIRE_COST
                            + produced * _PRODUCT_COST)
        return outgoing

    return run_fixpoint(comm, facts, seed_delta, rule, algorithm=algorithm)


def run_kcfa(program: Program, k: int, nprocs: int, *,
             machine: MachineProfile = LOCAL,
             algorithm: str = "two_phase_bruck",
             entries: int = 1) -> KCFAResult:
    """Launch the SPMD kCFA job and aggregate Fig. 12's per-iteration
    series (comm time and max block size ``N``)."""
    result = run_spmd(
        lambda comm: kcfa_rank(comm, program, k, algorithm=algorithm,
                               entries=entries),
        nprocs, config=ExecutionConfig(machine=machine, trace=False))
    fixpoints: List[FixpointResult] = result.returns
    iterations = fixpoints[0].iterations
    per_iteration: List[Dict] = []
    for i in range(iterations):
        records = [f.history[i] for f in fixpoints]
        per_iteration.append({
            "iteration": i + 1,
            "comm_seconds": max(r.comm_seconds for r in records),
            "max_block_bytes": records[0].max_block_bytes,
            "new_tuples": sum(r.new_tuples for r in records),
        })
    return KCFAResult(
        nprocs=nprocs, k=k, algorithm=algorithm,
        total_facts=sum(len(f.relation) for f in fixpoints),
        iterations=iterations,
        elapsed_seconds=result.elapsed,
        comm_seconds=max(f.total_comm_seconds for f in fixpoints),
        per_iteration=per_iteration,
    )


def sequential_kcfa(program: Program, k: int,
                    entries: int = 1) -> Set[IntTuple]:
    """Single-process reference: the fixed point as a plain worklist.

    Returns the complete fact set; tests check the distributed run derives
    exactly the same facts.
    """
    lams = _registry(program)
    local = _LocalState(lams, k)
    all_facts: Set[IntTuple] = set(_entry_seeds(entries, k))
    worklist: List[IntTuple] = list(all_facts)
    while worklist:
        fact = worklist.pop()
        for state in local.absorb(fact):
            for new in local.fire(state):
                if new not in all_facts:
                    all_facts.add(new)
                    worklist.append(new)
    return all_facts

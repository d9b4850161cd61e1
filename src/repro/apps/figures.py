"""Application-figure drivers: Fig. 11 (TC) and Fig. 12 (kCFA).

Scaled-down functional reproductions: the paper runs these at 256–4096
ranks on Theta; the per-rank simulator runs the same code at 8–64
ranks (the divergence-driving property — per-iteration all-to-all load —
is preserved by the workload generators; see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..simmpi.machine import THETA, MachineProfile
from .graphs import graph1, graph2
from .kcfa.analysis import KCFAResult, run_kcfa
from .kcfa.generator import kcfa_worstcase
from .transitive_closure import TCResult, run_transitive_closure

__all__ = ["fig11_tc_strong_scaling", "fig12_kcfa", "Fig12Data"]


def fig11_tc_strong_scaling(
    procs: Sequence[int] = (8, 16, 32, 64),
    machine: MachineProfile = THETA,
    algorithms: Sequence[str] = ("vendor", "two_phase_bruck"),
    graph_scale: float = 1.0,
) -> Dict[str, Dict[int, Dict[str, TCResult]]]:
    """Fig. 11: TC strong scaling on the two graph archetypes.

    Returns ``{graph_name: {P: {algorithm: TCResult}}}``.  The paper's
    qualitative claims: two-phase improves Graph 1 (improvement growing
    with P) and *hurts* Graph 2.
    """
    graphs = {"graph1": graph1(graph_scale), "graph2": graph2(graph_scale)}
    out: Dict[str, Dict[int, Dict[str, TCResult]]] = {}
    for name, edges in graphs.items():
        out[name] = {}
        for p in procs:
            out[name][p] = {
                alg: run_transitive_closure(edges, p, machine=machine,
                                            algorithm=alg)
                for alg in algorithms
            }
    return out


@dataclass
class Fig12Data:
    """Fig. 12's two panels: per-iteration comm time (both algorithms)
    and per-iteration max block size N."""

    results: Dict[str, KCFAResult]  # algorithm -> result

    @property
    def iterations(self) -> int:
        return next(iter(self.results.values())).iterations

    def comm_series(self, algorithm: str) -> List[float]:
        return [r["comm_seconds"]
                for r in self.results[algorithm].per_iteration]

    def n_series(self) -> List[int]:
        any_result = next(iter(self.results.values()))
        return [r["max_block_bytes"] for r in any_result.per_iteration]

    def wins(self, algorithm: str, over: str) -> int:
        """Iterations where ``algorithm``'s comm was strictly faster."""
        a = self.comm_series(algorithm)
        b = self.comm_series(over)
        return sum(1 for x, y in zip(a, b) if x < y)


def fig12_kcfa(nprocs: int = 32, k: int = 8,
               machine: MachineProfile = THETA,
               n_payloads: int = 6, chain_len: int = 12,
               entries: int = 1) -> Fig12Data:
    """Fig. 12: kCFA-8 per-iteration comm time and N, vendor vs two-phase.

    Both runs analyze the identical program, so the iteration count and
    the N series coincide; only the comm times differ.
    """
    program = kcfa_worstcase(n_payloads, chain_len)
    results = {
        alg: run_kcfa(program, k, nprocs, machine=machine, algorithm=alg,
                      entries=entries)
        for alg in ("vendor", "two_phase_bruck")
    }
    iters = {alg: r.iterations for alg, r in results.items()}
    if len(set(iters.values())) != 1:
        raise AssertionError(f"iteration counts diverged: {iters}")
    return Fig12Data(results=results)

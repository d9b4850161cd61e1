"""Fig. 11 — transitive closure strong scaling (functional runs).

Runs the real distributed TC application on the per-rank simulator for
both graph archetypes and both alltoallv implementations.  Scaled down
from the paper's 256–2048 ranks to 8–48 simulated ranks (the per-iteration
load contrast that drives the figure is preserved by the generators; see
DESIGN.md).

Expected shape: two-phase improves Graph 1 (high diameter, cheap
iterations) with the improvement growing with P, and *hurts* Graph 2
(dense, heavy iterations) — the paper's diverging result.
"""

from repro.apps import fig11_tc_strong_scaling, graph1, graph2
from repro.apps.graphs import sequential_transitive_closure

from _common import once, save_report

PROCS = (8, 16, 32, 48)


def test_fig11(benchmark):
    out = once(benchmark, lambda: fig11_tc_strong_scaling(procs=PROCS))
    lines = ["Fig. 11: TC strong scaling (simulated seconds, Theta profile)",
             f"{'graph':>8} {'P':>4} {'vendor':>10} {'two-phase':>10} "
             f"{'improv%':>8} {'iters':>6} {'closure':>9}"]
    for gname, per_p in out.items():
        for p, res in per_p.items():
            vendor = res["vendor"]
            tp = res["two_phase_bruck"]
            gain = (1 - tp.elapsed_seconds / vendor.elapsed_seconds) * 100
            lines.append(
                f"{gname:>8} {p:>4} {vendor.elapsed_seconds * 1e3:>10.2f} "
                f"{tp.elapsed_seconds * 1e3:>10.2f} {gain:>8.1f} "
                f"{tp.iterations:>6} {tp.closure_size:>9}")

    # Correctness embedded in the benchmark: closure sizes are exact.
    assert out["graph1"][PROCS[0]]["vendor"].closure_size == \
        len(sequential_transitive_closure(graph1(1.0)))
    assert out["graph2"][PROCS[0]]["vendor"].closure_size == \
        len(sequential_transitive_closure(graph2(1.0)))

    # Shape: Graph 1 improves at scale, improvement grows with P.
    gains1 = []
    for p in PROCS:
        res = out["graph1"][p]
        gains1.append(1 - res["two_phase_bruck"].elapsed_seconds
                      / res["vendor"].elapsed_seconds)
    assert gains1[-1] > 0.02, "two-phase must win on graph1 at scale"
    assert gains1[-1] > gains1[0], "improvement must grow with P"

    # Shape: Graph 2 regresses (negative or ~zero improvement).
    res2 = out["graph2"][PROCS[-2]]
    gain2 = 1 - res2["two_phase_bruck"].elapsed_seconds \
        / res2["vendor"].elapsed_seconds
    assert gain2 < 0.05, "two-phase must not meaningfully win on graph2"

    # Shape: the iteration-count contrast that explains the divergence.
    it1 = out["graph1"][PROCS[0]]["vendor"].iterations
    it2 = out["graph2"][PROCS[0]]["vendor"].iterations
    lines.append(f"\niterations: graph1={it1}, graph2={it2} "
                 f"(paper: 2,933 vs 89)")
    assert it1 > 5 * it2
    save_report("fig11_tc_strong_scaling", "\n".join(lines))

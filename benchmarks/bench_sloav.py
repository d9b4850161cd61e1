"""§6.1 — two-phase Bruck vs SLOAV (the prior log-time algorithm).

The paper claims two-phase Bruck improves on SLOAV by (1) decoupling
metadata from data, (2) replacing the growable temp/pointer-array store
with a monolithic buffer, (3) removing the final rotation, and (4)
removing the final scan.  This bench runs both *functionally* on the
per-rank simulator and reports where the streamlining pays off: SLOAV's
overheads grow with the data volume (extra copy passes), two-phase's
fixed cost is one allreduce, so two-phase pulls ahead as P·N grows.
"""

from repro.simmpi import format_phase_table
from repro.workloads import UniformBlocks, block_size_matrix

from _common import once, run_alltoallv, save_report

CONFIGS = ((32, 64), (64, 256), (128, 1024), (256, 2048))


def _run(algorithm, sizes, trace=False):
    return run_alltoallv(algorithm, sizes, trace=trace)


def test_sloav_vs_two_phase(benchmark):
    def run():
        rows = []
        for p, n in CONFIGS:
            sizes = block_size_matrix(UniformBlocks(n), p, seed=1)
            sloav = _run("sloav", sizes).elapsed
            tp = _run("two_phase_bruck", sizes).elapsed
            rows.append((p, n, sloav, tp))
        return rows

    rows = once(benchmark, run)
    lines = ["§6.1: two-phase Bruck vs SLOAV (functional runs, Theta)",
             f"{'P':>6} {'N':>6} {'SLOAV(ms)':>11} {'two-phase(ms)':>14} "
             f"{'tp faster':>10}"]
    for p, n, sloav, tp in rows:
        gain = (1 - tp / sloav) * 100
        lines.append(f"{p:>6} {n:>6} {sloav * 1e3:>11.3f} {tp * 1e3:>14.3f} "
                     f"{gain:>9.1f}%")
    # The streamlining wins once the data volume amortizes the allreduce.
    p, n, sloav, tp = rows[-1]
    assert tp < sloav, "two-phase must beat SLOAV at the largest config"
    # And the advantage must grow along the sweep.
    gains = [1 - tp / sloav for (_, _, sloav, tp) in rows]
    assert gains[-1] > gains[0]
    save_report("sloav_comparison", "\n".join(lines))


def test_sloav_overhead_phases(benchmark):
    """SLOAV pays rotation + scan phases two-phase doesn't have."""
    def run():
        sizes = block_size_matrix(UniformBlocks(256), 32, seed=2)
        sloav = _run("sloav", sizes, trace=True)
        tp = _run("two_phase_bruck", sizes, trace=True)
        return sloav.phase_times(), tp.phase_times()

    sloav_phases, tp_phases = once(benchmark, run)
    lines = [
        format_phase_table(sloav_phases,
                           header="SLOAV phase split (max over ranks, ms):"),
        format_phase_table(tp_phases,
                           header="two-phase phase split (ms):"),
    ]
    assert sloav_phases["final_rotation"] > 0
    assert sloav_phases["scan"] > 0
    assert "final_rotation" not in tp_phases
    assert "scan" not in tp_phases
    save_report("sloav_phase_overheads", "\n".join(lines))

"""Reliability transport overhead under injected message loss.

Sweeps drop probability over three non-uniform algorithms with the
acked/retransmitting transport (``on_fault="retry"``) and reports the
*simulated* completion-time overhead relative to the clean fabric, plus
the injected fault mix.  Every cell is deterministic (fixed plan + seed),
so the committed table is bit-reproducible.

Expected shape: overhead grows with drop rate and with an algorithm's
message count — retransmissions serialize behind the per-message RTO
backoff, so chatty schemes (spread_out posts P-1 pairwise exchanges per
rank) pay more than aggregating ones.  The zero-drop row isolates the
pure ack overhead of the transport itself (one o_send per delivered
message).
"""

from repro.core.registry import get_algorithm
from repro.simmpi import ExecutionConfig, THETA, run_spmd
from repro.workloads import PowerLawBlocks, block_size_matrix, build_vargs

from _common import once, save_report

P = 64
N = 1024
ALGORITHMS = ("two_phase_bruck", "spread_out", "padded_bruck")
DROP_RATES = (0.0, 0.01, 0.05, 0.10)
SEED = 11


def _run(algorithm, sizes, *, fault_plan, on_fault, reliability=None):
    fn = get_algorithm(algorithm, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=False)
        fn(comm, *vargs.as_tuple())

    config = ExecutionConfig(machine=THETA, trace="metrics",
                             backend="coop", wire="phantom",
                             fault_plan=fault_plan, fault_seed=SEED,
                             on_fault=on_fault, reliability=reliability)
    return run_spmd(prog, P, config=config)


def test_fault_overhead(benchmark):
    def run():
        rows = []
        for algorithm in ALGORITHMS:
            sizes = block_size_matrix(PowerLawBlocks(N), P, seed=3)
            clean = _run(algorithm, sizes, fault_plan=None,
                         on_fault="fail-fast")
            for rate in DROP_RATES:
                plan = f"drop:p={rate}" if rate else None
                faulted = _run(algorithm, sizes, fault_plan=plan,
                               on_fault="retry", reliability="retry")
                counts = (dict(faulted.metrics.fault_counts)
                          if faulted.metrics else {})
                rows.append((algorithm, rate, clean.elapsed,
                             faulted.elapsed, counts))
        return rows

    rows = once(benchmark, run)
    lines = ["reliability transport overhead vs drop rate "
             f"(P={P}, power-law N={N}, Theta profile, coop backend, "
             "phantom wire, fixed fault seed)",
             f"{'algorithm':>16} {'drop':>6} {'clean(ms)':>10} "
             f"{'retry(ms)':>10} {'overhead':>9} {'drops':>6} "
             f"{'retries':>8}"]
    for algorithm, rate, clean_t, retry_t, counts in rows:
        overhead = (retry_t / clean_t - 1.0) * 100.0
        lines.append(
            f"{algorithm:>16} {rate:>6.2f} {clean_t * 1e3:>10.4f} "
            f"{retry_t * 1e3:>10.4f} {overhead:>8.2f}% "
            f"{counts.get('drop', 0):>6} {counts.get('retry', 0):>8}")
        # Sanity: the reliability transport never loses time relative to
        # the clean fabric, and dropping more never makes the run faster.
        assert retry_t >= clean_t
    lines.append("")
    lines.append("overhead = simulated completion time vs the same "
                 "algorithm on a clean fabric without the transport; "
                 "the 0.00 row is the pure ack cost (one o_send per "
                 "delivered message).")
    save_report("fault_overhead", "\n".join(lines))


if __name__ == "__main__":
    class _Pedantic:
        @staticmethod
        def pedantic(fn, rounds=1, iterations=1):
            return fn()

    test_fault_overhead(_Pedantic())

"""Verified-transport overhead: verify vs retry vs none.

Measures what the integrity tier costs on a *clean* fabric and under a
seeded Byzantine plan (corrupt + forge), at P in {64, 256}.  Three
transport tiers per cell:

* **none** — lossy wire, no acks, no checks (clean fabric only: under a
  Byzantine plan this tier would deliver tampered bytes);
* **retry** — the acked/retransmitting transport (one o_send ack per
  delivered message, no integrity checking);
* **verify** — retry plus a per-message checksum + auth tag: one
  copy-through hash pass at post and one at delivery, detection and
  retransmission of tampered envelopes, rejection of forged ones.

Every cell is deterministic (fixed plan + seed), so the committed table
is bit-reproducible.  Expected shape: verify's clean-fabric surcharge is
the two hash passes per message — it scales with bytes moved, not with
the fault rate — while under the Byzantine plan verify pays the same
surcharge plus one retransmission round per detected tampering.  The
retry row under chaos is reported for clock comparison only: its buffers
are *not* byte-correct (Byzantine delivery).

The workload is the direct pairwise exchange (``spread_out``): it ships
no count metadata on the wire, so the unverified chaos cell degrades
bytes instead of crashing on a corrupted count — the aggregating Bruck
schemes abort there (see ``tests/simmpi/test_chaos.py``'s arm 4), which
would leave nothing to time.
"""

from repro.core.registry import get_algorithm
from repro.simmpi import ExecutionConfig, THETA, run_spmd
from repro.workloads import PowerLawBlocks, block_size_matrix, build_vargs

from _common import once, save_report

N = 1024
SIZES_SEED = 3
ALGORITHM = "spread_out"
NPROCS = (64, 256)
BYZANTINE_PLAN = "corrupt:p=0.02;forge:p=0.01"
FAULT_SEED = 23

#: (label, reliability, on_fault) — the reliability ladder.
TIERS = (("none", None, "fail-fast"),
         ("retry", "retry", "retry"),
         ("verify", "verify", "retry"))


def _run(nprocs, sizes, *, reliability, on_fault, fault_plan):
    fn = get_algorithm(ALGORITHM, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=False)
        fn(comm, *vargs.as_tuple())

    config = ExecutionConfig(machine=THETA, trace="metrics",
                             backend="coop", wire="phantom",
                             fault_plan=fault_plan, fault_seed=FAULT_SEED,
                             on_fault=on_fault, reliability=reliability)
    return run_spmd(prog, nprocs, config=config)


def test_verify_overhead(benchmark):
    def run():
        rows = []
        for nprocs in NPROCS:
            sizes = block_size_matrix(PowerLawBlocks(N), nprocs,
                                      seed=SIZES_SEED)
            baseline = {}
            for fabric, plan in (("clean", None),
                                 ("byzantine", BYZANTINE_PLAN)):
                for label, reliability, on_fault in TIERS:
                    if fabric == "byzantine" and label == "none":
                        # Fail-fast under guaranteed tampering with no
                        # detection = a correct-looking wrong answer;
                        # nothing meaningful to time.
                        continue
                    res = _run(nprocs, sizes, reliability=reliability,
                               on_fault=on_fault, fault_plan=plan)
                    counts = (dict(res.metrics.fault_counts)
                              if res.metrics else {})
                    if fabric == "clean" and label == "none":
                        baseline[nprocs] = res.elapsed
                    rows.append((nprocs, fabric, label, res.elapsed,
                                 baseline[nprocs],
                                 res.metrics.total_messages,
                                 res.metrics.total_bytes, counts))
        return rows

    rows = once(benchmark, run)
    lines = [f"verified-transport overhead ({ALGORITHM}, power-law "
             f"N={N}, Theta profile, coop backend, phantom wire, "
             f"byzantine plan '{BYZANTINE_PLAN}' seed={FAULT_SEED})",
             f"{'P':>4} {'fabric':>9} {'tier':>7} {'sim(ms)':>10} "
             f"{'overhead':>9} {'messages':>9} {'bytes':>12} "
             f"{'detected':>9} {'rejected':>9}"]
    for nprocs, fabric, label, t, base, messages, nbytes, counts in rows:
        overhead = (t / base - 1.0) * 100.0
        lines.append(
            f"{nprocs:>4} {fabric:>9} {label:>7} {t * 1e3:>10.4f} "
            f"{overhead:>8.2f}% {messages:>9} {nbytes:>12} "
            f"{counts.get('corrupt_detected', 0):>9} "
            f"{counts.get('forge_rejected', 0):>9}")
        # The ladder only ever adds simulated time, rung by rung.
        assert t >= base
    lines.append("")
    lines.append("overhead = simulated completion time vs the bare lossy "
                 "wire on a clean fabric at the same P.  verify's clean "
                 "rows price the integrity tier itself (two hash passes "
                 "per message); its byzantine rows add one retransmission "
                 "per detection.  retry/byzantine completes but its "
                 "buffers are NOT byte-correct (no integrity checking) — "
                 "clock comparison only.")
    save_report("verify_overhead", "\n".join(lines))


if __name__ == "__main__":
    class _Pedantic:
        @staticmethod
        def pedantic(fn, rounds=1, iterations=1):
            return fn()

    test_verify_overhead(_Pedantic())

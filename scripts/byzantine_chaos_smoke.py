"""Byzantine chaos smoke: the quadchotomy at CI scale.

Exercises the corrupt/forge fault kinds against the verified transport
in two regimes, under one wall budget:

* P=256 on the coop backend with the phantom wire — the four-arm
  guarantee at scale, one run per arm:

  1. *byte-correct*: ``reliability="verify"`` + ``on_fault="retry"``
     absorbs every tampered and forged envelope (detections match
     injections that reached a receiver; survivors none the wiser);
  2. *typed error*: the same plan under ``fail-fast`` surfaces as a
     :class:`MessageCorruptError` — never a hang;
  3. *verified partial*: a saturating corrupt plan under ``degrade``
     convicts and tombstones the lying sender, flagging the result;
  4. *Byzantine-delivered*: without the verify tier the transport is
     blind — injections land, zero detections — which is exactly why
     the tier exists.

* P=16 on the coop backend with the bytes wire — the same verified
  transport with real payloads, byte-verified end to end against the
  expected all-to-allv result.

Usage: PYTHONPATH=src python scripts/byzantine_chaos_smoke.py [budget_s]
"""

import sys
import time

from repro.core.registry import get_algorithm
from repro.simmpi import (
    ExecutionConfig,
    MessageCorruptError,
    THETA,
    run_spmd,
)
from repro.workloads import (
    PowerLawBlocks,
    block_size_matrix,
    build_vargs,
    verify_recv,
)

ALGORITHM = "spread_out"       # direct pairwise: every channel exercised
PLAN = "corrupt:p=0.02;forge:p=0.01;dup:p=0.03"
SEED = 23


def _prog(sizes, *, fill, verify):
    fn = get_algorithm(ALGORITHM, kind="nonuniform").fn

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=fill)
        fn(comm, *vargs.as_tuple())
        if verify:
            verify_recv(comm.rank, sizes, vargs.recvbuf)
        return comm.rank

    return prog


def _cfg(**kw):
    defaults = dict(machine=THETA, trace="metrics", backend="coop",
                    wire="phantom", fault_seed=SEED)
    defaults.update(kw)
    return ExecutionConfig(**defaults)


def check_quadchotomy_at_scale(nprocs: int) -> None:
    sizes = block_size_matrix(PowerLawBlocks(64), nprocs, seed=3)
    prog = _prog(sizes, fill=False, verify=False)

    # Arm 1: verified transport absorbs the chaos.
    t0 = time.perf_counter()
    res = run_spmd(prog, nprocs, config=_cfg(
        fault_plan=PLAN, on_fault="retry", reliability="verify"))
    wall = time.perf_counter() - t0
    counts = dict(res.metrics.fault_counts)
    assert res.returns == list(range(nprocs))
    assert not res.degraded_ranks
    assert counts.get("corrupt", 0) > 0, "plan injected no tampering"
    assert counts.get("forge", 0) > 0, "plan injected no forgeries"
    assert counts.get("corrupt_detected", 0) > 0, "verify saw nothing"
    assert counts.get("forge_rejected", 0) == counts.get("forge", 0), (
        "a forged envelope escaped the auth check")
    print(f"P={nprocs:>4} arm 1 (verify+retry):  {wall:6.2f}s host wall, "
          f"{res.elapsed * 1e3:9.4f} simulated ms, faults {counts}")

    # Arm 2: the same plan under fail-fast is a typed error, instantly.
    try:
        run_spmd(prog, nprocs, config=_cfg(
            fault_plan=PLAN, on_fault="fail-fast", reliability="verify"))
    except Exception as exc:
        original = getattr(exc, "original", exc)
        assert isinstance(original, MessageCorruptError), original
        print(f"P={nprocs:>4} arm 2 (fail-fast):     typed "
              f"{type(original).__name__}: {original}")
    else:
        raise AssertionError("fail-fast returned success under tampering")

    # Arm 3: a saturating liar under degrade is convicted, not obeyed.
    res = run_spmd(prog, nprocs, config=_cfg(
        fault_plan="corrupt:p=1,src=3", on_fault="degrade",
        reliability="verify"))
    assert res.degraded_ranks == [3], res.degraded_ranks
    assert res.degraded
    print(f"P={nprocs:>4} arm 3 (degrade):       convicted and tombstoned "
          f"rank {res.degraded_ranks}, survivors completed")

    # Arm 4: without the verify tier the transport is provably blind.
    res = run_spmd(prog, nprocs, config=_cfg(
        fault_plan=PLAN, on_fault="retry", reliability="retry"))
    counts = dict(res.metrics.fault_counts)
    assert counts.get("corrupt", 0) > 0
    assert counts.get("corrupt_detected", 0) == 0, (
        "plain retry claims detections it cannot make")
    assert counts.get("forge_rejected", 0) == 0
    print(f"P={nprocs:>4} arm 4 (no verify):     {counts.get('corrupt')} "
          f"tampered + {counts.get('forge')} forged envelopes delivered "
          f"undetected — Byzantine delivery possible, as documented")


def check_byte_verified(nprocs: int) -> None:
    sizes = block_size_matrix(PowerLawBlocks(64), nprocs, seed=3)
    prog = _prog(sizes, fill=True, verify=True)
    t0 = time.perf_counter()
    res = run_spmd(prog, nprocs, config=_cfg(
        wire="bytes", fault_plan=PLAN, on_fault="retry",
        reliability="verify"))
    wall = time.perf_counter() - t0
    counts = dict(res.metrics.fault_counts)
    assert res.returns == list(range(nprocs))
    assert counts.get("corrupt_detected", 0) > 0
    print(f"P={nprocs:>4} bytes wire:            {wall:6.2f}s host wall, "
          f"byte-verified on every rank under {counts}")


def main(wall_budget: float = 300.0) -> int:
    start = time.perf_counter()
    check_quadchotomy_at_scale(256)
    check_byte_verified(16)
    total = time.perf_counter() - start
    print(f"\nbyzantine chaos smoke: {total:.1f}s host wall "
          f"(budget {wall_budget:.0f}s)")
    if total >= wall_budget:
        print(f"FAIL: exceeded the {wall_budget:.0f}s wall budget")
        return 1
    return 0


if __name__ == "__main__":
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 300.0
    sys.exit(main(budget))

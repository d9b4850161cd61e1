"""Small probes that call one layer's public API directly.

Each probe returns ``{per-layer metric name: value}`` on the host clock.
They run in the traced pass only, inside the workload whose cost they
explain.  :func:`run_probe` is the boundary that keeps the run alive when a
later PR removes a probe's target: the metric becomes ``None`` with the
reason recorded, because per-layer numbers explain and end-to-end numbers
gate.
"""

from __future__ import annotations

import gc
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Optional, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent

Metrics = Dict[str, Optional[float]]


def run_probe(out: Metrics, notes: Dict[str, str], names: Sequence[str],
              fn: Callable[..., Metrics], *args, **kwargs) -> None:
    """Merge ``fn(*args)`` into ``out``; on any failure report ``names``
    as ``None`` and say why in ``notes``."""
    try:
        out.update(fn(*args, **kwargs))
    except Exception:  # noqa: BLE001 - a broken probe must not fail the run
        reason = traceback.format_exc().strip().splitlines()[-1]
        for name in names:
            out[name] = None
            notes[name] = reason


def timed(fn: Callable[[], object]) -> float:
    """Host seconds of one call, garbage collected beforehand."""
    gc.collect()
    start = perf_counter()
    fn()
    return perf_counter() - start


def median_wall(fn: Callable[[], object], repeats: int = 3) -> float:
    return statistics.median(timed(fn) for _ in range(repeats))


def _coop_off():
    from repro.simmpi import ExecutionConfig, THETA
    return ExecutionConfig(machine=THETA, trace="off", backend="coop",
                           wire="phantom")


def scheduler_pingpong(round_trips: int) -> Metrics:
    """Two ranks, blocking send/recv: the per-message floor of the coop
    scheduler + network + communicator with no kernel around it."""
    from repro.simmpi import run_spmd

    def program(comm):
        buf = np.zeros(8, dtype=np.uint8)
        peer = 1 - comm.rank
        if comm.rank == 0:
            for _ in range(round_trips):
                comm.send(buf, peer, 1)
                comm.recv(buf, peer, 2)
        else:
            for _ in range(round_trips):
                comm.recv(buf, peer, 1)
                comm.send(buf, peer, 2)

    wall = timed(lambda: run_spmd(program, 2, config=_coop_off()))
    return {"scheduler.pingpong_us_per_msg": wall / (2 * round_trips) * 1e6}


def scheduler_barrier(nprocs: int, barriers: int) -> Metrics:
    """Barriers with every rank runnable: the full-run-queue switch cost."""
    from repro.simmpi import run_spmd

    def program(comm):
        for _ in range(barriers):
            comm.barrier()

    wall = timed(lambda: run_spmd(program, nprocs, config=_coop_off()))
    return {"scheduler.barrier_us_per_rank": wall / (nprocs * barriers) * 1e6}


def executor_launch(nprocs: int) -> Metrics:
    from repro.simmpi import run_spmd

    wall = median_wall(
        lambda: run_spmd(lambda comm: None, nprocs, config=_coop_off()))
    return {"executor.launch_us_per_rank": wall / nprocs * 1e6}


def network_post_collect(messages: int) -> Metrics:
    """``Network.post`` + ``Network.collect`` with no scheduler at all."""
    from repro.simmpi import THETA, Envelope, Network

    def loop():
        net = Network(2, THETA, wire="phantom")
        for _ in range(messages):
            net.post(Envelope(0, 1, 5, None, 0.0, nbytes=64))
            net.collect(0, 1, 5)

    return {"network.post_collect_us_per_msg": timed(loop) / messages * 1e6}


def communicator_charge_copies(calls: int) -> Metrics:
    from repro.simmpi import run_spmd

    def program(comm):
        counts = np.full(512, 100, dtype=np.int64)
        for _ in range(calls):
            comm.charge_copies(counts)

    wall = timed(lambda: run_spmd(program, 1, config=_coop_off()))
    return {"communicator.charge_copies_us_per_call": wall / calls * 1e6}


def workloads_build_vargs(sizes: np.ndarray) -> Metrics:
    from repro.workloads import build_vargs

    nprocs = sizes.shape[0]
    wall = median_wall(lambda: [build_vargs(rank, sizes, fill=False)
                                for rank in range(nprocs)])
    return {"workloads.build_vargs_us_per_rank": wall / nprocs * 1e6}


def machine_serial_time(calls: int) -> Metrics:
    from repro.simmpi import THETA

    def loop():
        serial_time = THETA.serial_time
        for _ in range(calls):
            serial_time(1024, 512)

    return {"machine.serial_time_us_per_call": timed(loop) / calls * 1e6}


def machine_serial_time_vec(elements: int) -> Metrics:
    from repro.simmpi import THETA
    from repro.timing.engine import serial_time_vec

    nbytes = np.arange(elements) % 20000   # straddles the eager threshold
    wall = median_wall(lambda: serial_time_vec(THETA, nbytes, 512), 5)
    return {"machine.serial_time_vec_ns_per_elem": wall / elements * 1e9}


def faults_on_post(plan: str, seed: int, messages: int) -> Metrics:
    from repro.simmpi import Envelope, FaultInjector, FaultPlan

    def loop():
        injector = FaultInjector(FaultPlan.parse(plan), seed)
        for _ in range(messages):
            injector.on_post(Envelope(0, 1, 5, None, 0.0, nbytes=64), None)

    return {"faults.on_post_us_per_msg": timed(loop) / messages * 1e6}


def faults_payload_digest(payloads: int) -> Metrics:
    from repro.simmpi.faults import payload_digest

    payload = bytes(range(256)) * 4   # 1 KiB

    def loop():
        for _ in range(payloads):
            payload_digest(payload)

    return {"faults.payload_digest_mb_per_s":
            payloads * len(payload) / timed(loop) / 1e6}


def cost_model_best_radix(calls: int) -> Metrics:
    from repro.core.cost_model import best_radix
    from repro.simmpi import THETA

    def loop():
        for _ in range(calls):
            best_radix(4096, 64, THETA, algorithm="two_phase_bruck")

    return {"cost_model.best_radix_us": timed(loop) / calls * 1e6}


def ledger_and_warm_tuner(model, records: int, decides: int) -> Metrics:
    """A synthetic ledger in a temporary directory beside this file (the
    benchmark writes nowhere outside its checkout): append, read back, and
    answer tuner requests the warm way."""
    from repro.bench.ledger import append_record, read_ledger, run_record
    from repro.core.tuner import AutoTuner
    from repro.simmpi import (ExecutionConfig, THETA, TensorAlltoallv,
                              run_spmd)

    nprocs, block = 64, 64
    result = run_spmd(TensorAlltoallv("two_phase_bruck", block), nprocs,
                      config=ExecutionConfig(machine=THETA, trace="metrics",
                                             backend="tensor",
                                             wire="phantom"))
    groups = [(algorithm, radix)
              for algorithm in ("two_phase_bruck", "padded_bruck")
              for radix in (2, 4, 8)]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = str(Path(tmp) / "ledger.jsonl")

        def append_all():
            for i in range(records):
                algorithm, radix = groups[i % len(groups)]
                append_record(path, run_record(
                    result, algorithm=algorithm,
                    extra={"radix": radix, "max_block": block}))

        append_s = timed(append_all)
        read_s = median_wall(lambda: read_ledger(path))
        tuner = AutoTuner(THETA, path, model=model)
        tuner.refresh()
        decisions = []
        warm_s = timed(lambda: decisions.extend(
            tuner.decide(nprocs, block) for _ in range(decides)))
    if decisions[0].source != "ledger":
        raise AssertionError(f"warm decision came from {decisions[0].source}")
    return {"ledger.append_us_per_record": append_s / records * 1e6,
            "ledger.read_us_per_record": read_s / records * 1e6,
            "tuner.warm_decide_ms": warm_s / decides * 1e3}

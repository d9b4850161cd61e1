"""The seven workloads of the host-time benchmark.

A workload builds its inputs from the seed (``build``), runs one timed
iteration through the library's public API (``iterate``), checks that
iteration's output (``verify``) and, in the traced pass, measures the
layers it leans on (``layers``).  Every workload is a closed loop with one
client on the ``THETA`` machine model: the next iteration starts when the
previous one returns.  The program under test only ever receives generated
inputs — never a workload name, never the seed itself.

``size`` is the measured configuration and ``small`` the reduced one used
for the warm-up run inside set-up and by ``run.py --selftest``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

import probes
from probes import Metrics, median_wall, run_probe
from spans import Spans

from repro.apps.graphs import graph1, sequential_transitive_closure
from repro.apps.transitive_closure import transitive_closure_rank
from repro.core.registry import get_algorithm, list_algorithms
from repro.core.selector import (DEFAULT_BLOCKS, DEFAULT_PROCS,
                                 PerformanceModel)
from repro.core.tuner import AutoTuner
from repro.simmpi import (ExecutionConfig, THETA, TensorAlltoall,
                          TensorAlltoallv, run_spmd)
import repro.timing as timing_layer
from repro.timing import predict_alltoallv
from repro.workloads import (PowerLawBlocks, block_size_matrix, build_vargs,
                             verify_recv)

ALGORITHM = "two_phase_bruck"
FAULT_PLAN = "corrupt:p=0.02;forge:p=0.01;drop:p=0.02;dup:p=0.03"


@contextmanager
def _count_calls(module, name: str, enabled: bool) -> Iterator[List[int]]:
    """Count calls of ``module.name`` made through the module attribute
    (how ``PerformanceModel.fit`` reaches the predictor) — traced pass only."""
    calls = [0]
    if not enabled:
        yield calls
        return
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield calls
    finally:
        setattr(module, name, original)


def _config(**kwargs) -> ExecutionConfig:
    return ExecutionConfig(machine=THETA, **kwargs)


def _alltoallv_program(algorithm: str, sizes: np.ndarray, *, fill: bool):
    """The rank program of the figure scripts: registry kernel over
    ``build_vargs``; returns the receive buffer when it holds real bytes."""
    fn = get_algorithm(algorithm, kind="nonuniform").fn

    def program(comm):
        vargs = build_vargs(comm.rank, sizes, fill=fill)
        fn(comm, *vargs.as_tuple())
        return vargs.recvbuf if fill else None

    return program


@dataclass
class Iteration:
    """What one timed iteration produced."""

    results: List[Any]      # the SPMDResult of every run, in order
    work: int               # simulated messages (predictor cells on advisor)
    sim_elapsed: float      # simulated seconds, summed over the runs
    clocks: Any             # what the per-iteration digest is taken over
    aux: Dict[str, Any] = field(default_factory=dict)


def engine_iteration(results: List[Any], **aux: Any) -> Iteration:
    return Iteration(results=results,
                     work=sum(r.total_messages for r in results),
                     sim_elapsed=sum(r.elapsed for r in results),
                     clocks=[r.clocks for r in results], aux=aux)


class Workload:
    name: str
    why: str                # one line, copied into BENCHMARK.json
    iters: int              # timed iterations of a full run
    size: Any
    small: Any
    work_unit = "msgs/s"
    #: ``trace=`` of the traced pass; "off" where the engine cannot afford
    #: one at this size (the reason is then in ``untraced_reason``).
    traced_mode = "full"
    untraced_reason: Optional[str] = None

    def build(self, seed: int, size: Any, spans: Spans) -> Any:
        raise NotImplementedError

    def iterate(self, state: Any, spans: Spans, trace: str) -> Iteration:
        raise NotImplementedError

    def verify(self, state: Any, it: Iteration, spans: Spans) -> None:
        """Raise ``AssertionError`` if the iteration's output is wrong."""
        raise NotImplementedError

    def verify_deep(self, state: Any, it: Iteration) -> None:
        """Checks too costly for every iteration; run on the first one."""

    def tamper(self, it: Iteration) -> None:
        """Flip one clock, so the self-test can see verification bite."""
        it.results[0].clocks[0] += 1e-9

    def layers(self, state: Any, it: Iteration, spans: Spans,
               ref_wall: float, notes: Dict[str, str]) -> Metrics:
        """Per-layer metrics only this workload measures (traced pass).
        ``ref_wall`` is the untraced median iteration wall of this run."""
        return {}


# ---------------------------------------------------------------------------

class CoopTwoPhase(Workload):
    name = "coop_twophase_p512"
    why = ("per-rank functional path: scheduler, network, communicator and "
           "core kernels do all the work; tensor, faults and tracing none")
    iters = 12
    size = 512
    small = 64

    def build(self, seed, size, spans):
        sizes = spans.call("workloads.block_size_matrix", block_size_matrix,
                           PowerLawBlocks(32), size, seed=seed)
        reference = run_spmd(
            TensorAlltoallv(ALGORITHM, sizes), size,
            config=_config(trace="off", backend="tensor", wire="phantom"))
        return {"nprocs": size, "sizes": sizes,
                "program": _alltoallv_program(ALGORITHM, sizes, fill=False),
                "tensor_clocks": reference.clocks}

    def iterate(self, state, spans, trace):
        config = _config(trace=trace, backend="coop", wire="phantom")
        return engine_iteration([spans.call(
            "executor.run_spmd", run_spmd, state["program"],
            state["nprocs"], config=config)])

    def verify(self, state, it, spans):
        if it.results[0].clocks != state["tensor_clocks"]:
            raise AssertionError("coop clocks differ from the tensor "
                                 "backend's on the same size matrix")

    def layers(self, state, it, spans, ref_wall, notes):
        out: Metrics = {}
        nprocs = state["nprocs"]
        scale = nprocs / self.size      # reduced probes under --selftest
        run_probe(out, notes, ["scheduler.pingpong_us_per_msg"],
                  probes.scheduler_pingpong, max(200, int(20000 * scale)))
        run_probe(out, notes, ["scheduler.barrier_us_per_rank"],
                  probes.scheduler_barrier, nprocs, max(2, int(50 * scale)))
        run_probe(out, notes, ["executor.launch_us_per_rank"],
                  probes.executor_launch, nprocs)
        run_probe(out, notes, ["network.post_collect_us_per_msg"],
                  probes.network_post_collect, max(1000, int(100000 * scale)))
        run_probe(out, notes, ["communicator.charge_copies_us_per_call"],
                  probes.communicator_charge_copies,
                  max(100, int(10000 * scale)))
        run_probe(out, notes, ["workloads.build_vargs_us_per_rank"],
                  probes.workloads_build_vargs, state["sizes"])
        run_probe(out, notes, ["machine.serial_time_us_per_call"],
                  probes.machine_serial_time, max(1000, int(200000 * scale)))
        floor = out.get("scheduler.pingpong_us_per_msg")
        network = out.get("network.post_collect_us_per_msg")
        if floor is not None and network is not None:
            out["communicator.pingpong_minus_network_us"] = floor - network
        if floor is not None:
            out["core.kernel_residual_us_per_msg"] = \
                ref_wall / it.work * 1e6 - floor
        result = it.results[0]
        if result.metrics is not None:
            out["core.steps"] = len(result.metrics.per_step)
        out["core.msgs_per_rank"] = result.total_messages / nprocs
        return out


class TensorLanes(Workload):
    name = "tensor_lanes_p4096"
    why = ("whole-fabric path with L=P lanes: the tensor step loop, lane "
           "folds and P x P size-matrix slicing do all the work")
    iters = 3
    size = 4096
    small = 64
    traced_mode = "metrics"

    @staticmethod
    def _run(sizes, trace):
        return run_spmd(
            TensorAlltoallv(ALGORITHM, sizes), sizes.shape[0],
            config=_config(trace=trace, backend="tensor", wire="phantom"))

    def build(self, seed, size, spans):
        dist = PowerLawBlocks(32)
        sizes = spans.call("workloads.block_size_matrix", block_size_matrix,
                           dist, size, seed=seed)
        # The per-rank backend cannot reach this P; pin the same spec to
        # it where it can.
        check_p = min(size, 256)
        check = block_size_matrix(dist, check_p, seed=seed)
        coop = run_spmd(_alltoallv_program(ALGORITHM, check, fill=False),
                        check_p, config=_config(trace="off", backend="coop",
                                                wire="phantom"))
        if coop.clocks != self._run(check, "off").clocks:
            raise AssertionError(f"tensor clocks differ from coop's at "
                                 f"P={check_p}")
        return {"nprocs": size, "sizes": sizes, "dist": dist, "seed": seed}

    def iterate(self, state, spans, trace):
        return engine_iteration([spans.call(
            "executor.run_spmd", self._run, state["sizes"], trace)])

    def verify(self, state, it, spans):
        result = it.results[0]
        if len(result.clocks) != state["nprocs"] or min(result.clocks) <= 0:
            raise AssertionError("a rank finished with a clock <= 0")
        if result.total_messages <= 0:
            raise AssertionError("no simulated messages")

    def layers(self, state, it, spans, ref_wall, notes):
        out: Metrics = {"tensor.us_per_msg": ref_wall / it.work * 1e6}
        half = state["nprocs"] // 2
        sizes = block_size_matrix(state["dist"], half, seed=state["seed"])
        off = median_wall(lambda: self._run(sizes, "off"))
        metrics = median_wall(lambda: self._run(sizes, "metrics"))
        out["tensor.run_s_p2048"] = off
        out["tensor.growth_2048_4096_x"] = ref_wall / off
        out["tensor.metrics_overhead_x"] = metrics / off
        run_probe(out, notes, ["machine.serial_time_vec_ns_per_elem"],
                  probes.machine_serial_time_vec,
                  min(1_000_000, state["nprocs"] ** 2))
        return out


class TensorRegistry(Workload):
    name = "tensor_registry_p32768"
    why = ("same tensor layer used the other way: every registered kernel "
           "in the L=1 lockstep collapse at the paper's largest P")
    iters = 3
    size = 32768
    small = 64
    traced_mode = "off"
    untraced_reason = ("trace='metrics' keeps per-link aggregates; the "
                       "spread-out kernels have P^2 links at P=32768")
    BLOCK = 64

    def build(self, seed, size, spans):
        # Constant-size blocks are what makes the lockstep collapse legal,
        # so this workload has no seeded input.
        specs = [(name, TensorAlltoall(name, self.BLOCK))
                 for name in list_algorithms("uniform")]
        specs += [(name, TensorAlltoallv(name, self.BLOCK))
                  for name in list_algorithms("nonuniform")]
        return {"nprocs": size, "specs": specs}

    def iterate(self, state, spans, trace):
        config = _config(trace=trace, backend="tensor", wire="phantom")
        results = []
        for name, spec in state["specs"]:
            span = name if name in ("grouped", "sloav") else "rest"
            results.append(spans.call(
                "executor.run_spmd", spans.call, f"tensor.registry.{span}",
                run_spmd, spec, state["nprocs"], config=config))
        return engine_iteration(results)

    def verify(self, state, it, spans):
        for (name, _), result in zip(state["specs"], it.results):
            if len(result.clocks) != state["nprocs"] \
                    or min(result.clocks) <= 0:
                raise AssertionError(f"{name}: a rank's clock is <= 0")
            if result.total_messages <= 0:
                raise AssertionError(f"{name}: no simulated messages")


class VerifyChaos(Workload):
    name = "verify_chaos_p128"
    why = ("fault decisions, the verified transport's checksum passes, "
           "retransmissions, real payload copies and metrics dispatch")
    iters = 12
    size = 128
    small = 32

    def build(self, seed, size, spans):
        sizes = spans.call("workloads.block_size_matrix", block_size_matrix,
                           PowerLawBlocks(1024), size, seed=seed)
        return {"nprocs": size, "sizes": sizes, "fault_seed": 20 + seed,
                "program": _alltoallv_program("spread_out", sizes, fill=True)}

    @staticmethod
    def _clean(state, *, wire="bytes", reliability="none",
               on_fault="fail-fast"):
        """The same cell on a clean fabric, at a chosen reliability tier."""
        program = _alltoallv_program("spread_out", state["sizes"],
                                     fill=wire == "bytes")
        config = _config(trace="metrics", backend="coop", wire=wire,
                         reliability=reliability, on_fault=on_fault)
        return run_spmd(program, state["nprocs"], config=config)

    def iterate(self, state, spans, trace):
        # Metrics are part of this workload; the traced pass adds events.
        config = _config(trace="metrics" if trace == "off" else trace,
                         backend="coop", wire="bytes", reliability="verify",
                         on_fault="retry", fault_plan=FAULT_PLAN,
                         fault_seed=state["fault_seed"])
        return engine_iteration([spans.call(
            "executor.run_spmd", run_spmd, state["program"],
            state["nprocs"], config=config)])

    def verify(self, state, it, spans):
        result = it.results[0]

        def every_rank():
            for rank, recvbuf in enumerate(result.returns):
                verify_recv(rank, state["sizes"], recvbuf)

        spans.call("workloads.verify_recv", every_rank)
        counts = result.metrics.fault_counts
        if counts.get("forge_rejected", 0) != counts.get("forge", 0):
            raise AssertionError("a forged envelope escaped the auth check")

    def tamper(self, it):
        it.results[0].returns[0][0] ^= 0xFF     # one byte of rank 0

    def layers(self, state, it, spans, ref_wall, notes):
        out: Metrics = {}
        counts = it.results[0].metrics.fault_counts
        outcomes = ("retry", "corrupt_detected", "forge_rejected")
        out["faults.injected"] = sum(n for kind, n in counts.items()
                                     if kind not in outcomes)
        out["faults.retries"] = counts.get("retry", 0)
        hostile = counts.get("corrupt", 0) + counts.get("forge", 0)
        if hostile:
            out["faults.detected_ratio"] = (
                counts.get("corrupt_detected", 0)
                + counts.get("forge_rejected", 0)) / hostile
        none = median_wall(lambda: self._clean(state))
        retry = median_wall(lambda: self._clean(
            state, reliability="retry", on_fault="retry"))
        verify = median_wall(lambda: self._clean(
            state, reliability="verify", on_fault="retry"))
        phantom = median_wall(lambda: self._clean(state, wire="phantom"))
        out["faults.retry_overhead_x"] = retry / none
        out["faults.verify_overhead_x"] = verify / none
        out["network.bytes_over_phantom_x"] = none / phantom
        scale = state["nprocs"] / self.size
        run_probe(out, notes, ["faults.on_post_us_per_msg"],
                  probes.faults_on_post, FAULT_PLAN, state["fault_seed"],
                  max(500, int(50000 * scale)))
        run_probe(out, notes, ["faults.payload_digest_mb_per_s"],
                  probes.faults_payload_digest, max(1000, int(100000 * scale)))
        return out


class ObserveFull(Workload):
    name = "observe_full_p256"
    why = ("observability path: tracing, metrics, critical_path and "
           "trace_export on the coop two-phase cell with trace='full'")
    iters = 3
    size = 256
    small = 32

    def build(self, seed, size, spans):
        sizes = spans.call("workloads.block_size_matrix", block_size_matrix,
                           PowerLawBlocks(32), size, seed=seed)
        return {"nprocs": size,
                "program": _alltoallv_program(ALGORITHM, sizes, fill=False)}

    @staticmethod
    def _run(state, trace):
        return run_spmd(state["program"], state["nprocs"],
                        config=_config(trace=trace, backend="coop",
                                       wire="phantom"))

    def iterate(self, state, spans, trace):
        # Tracing *is* the work here: both passes run trace="full".
        result = spans.call("executor.run_spmd", self._run, state, "full")
        path = spans.call("critical_path.analyze", result.critical_path)
        document = spans.call("trace_export.chrome_trace",
                              result.export_chrome_trace, None,
                              critical_path=True)
        return engine_iteration([result], critical_path=path,
                                document=document)

    def verify(self, state, it, spans):
        result, path = it.results[0], it.aux["critical_path"]
        for attribution in path.per_rank:
            # total() is the math.fsum of the six buckets.
            if attribution.total() != result.clocks[attribution.rank]:
                raise AssertionError(
                    f"rank {attribution.rank}: buckets do not sum to "
                    f"its clock")
        if path.path[-1].end != result.elapsed:
            raise AssertionError("critical path does not end at the makespan")
        if not it.aux["document"]["traceEvents"]:
            raise AssertionError("empty trace document")

    def verify_deep(self, state, it):
        document = it.aux["document"]
        if json.loads(json.dumps(document)) != document:
            raise AssertionError("trace document does not round-trip "
                                 "through json")

    def layers(self, state, it, spans, ref_wall, notes):
        out: Metrics = {}
        off = median_wall(lambda: self._run(state, "off"))
        out["metrics.overhead_x"] = \
            median_wall(lambda: self._run(state, "metrics")) / off
        out["tracing.events_overhead_x"] = \
            median_wall(lambda: self._run(state, "full")) / off
        exported = len(it.aux["document"]["traceEvents"])
        out["trace_export.us_per_event"] = \
            spans.last("trace_export.chrome_trace") / exported * 1e6
        return out


class TcGraph1(Workload):
    name = "tc_graph1_p32"
    why = ("the paper's application: thousands of tiny collectives with "
           "pickled control messages, dominated by per-message floor cost")
    iters = 4
    size = (32, 1.0)        # (ranks, graph1 scale)
    small = (8, 0.2)

    def build(self, seed, size, spans):
        nprocs, scale = size
        # graph1's own seed moves the closure size by +-10 % (41..51
        # fixpoint iterations), which would read as host-time noise.  The
        # seed instead permutes the vertex labels: every tuple hashes to a
        # different owner rank, the amount of work stays put.
        edges = graph1(scale)
        nodes = sorted({v for edge in edges for v in edge})
        order = np.random.default_rng(seed).permutation(len(nodes))
        label = {v: int(order[i]) for i, v in enumerate(nodes)}
        edges = sorted((label[u], label[v]) for u, v in edges)
        return {"nprocs": nprocs, "edges": edges,
                "closure": len(sequential_transitive_closure(edges))}

    def iterate(self, state, spans, trace):
        edges = state["edges"]
        config = _config(trace=trace, backend="coop", wire="bytes")
        return engine_iteration([spans.call(
            "executor.run_spmd", run_spmd,
            lambda comm: transitive_closure_rank(comm, edges,
                                                 algorithm=ALGORITHM),
            state["nprocs"], config=config)])

    def verify(self, state, it, spans):
        fixpoints = it.results[0].returns
        if len({f.iterations for f in fixpoints}) != 1:
            raise AssertionError("ranks disagree on the iteration count")
        closure = sum(len(f.relation) for f in fixpoints)
        if closure != state["closure"]:
            raise AssertionError(f"closure has {closure} paths, sequential "
                                 f"reference has {state['closure']}")

    def tamper(self, it):
        relation = it.results[0].returns[0].relation
        relation.add((10 ** 6, 10 ** 6))        # one path that is not there

    def layers(self, state, it, spans, ref_wall, notes):
        fixpoints = it.results[0].returns
        return {"bpra.fixpoint_iterations": fixpoints[0].iterations,
                "bpra.us_per_msg": ref_wall / it.work * 1e6,
                "bpra.sim_comm_s": max(f.total_comm_seconds
                                       for f in fixpoints)}


class AdvisorFit(Workload):
    name = "advisor_fit"
    why = ("the which-algorithm query: timing, selector, tuner and "
           "cost_model only; no engine runs, so simmpi changes bypass it")
    iters = 2
    work_unit = "cells/s"
    traced_mode = "off"     # nothing to trace but the host spans
    KERNELS = ("two_phase_bruck", "padded_bruck", "vendor")
    size = {"procs": DEFAULT_PROCS, "blocks": DEFAULT_BLOCKS,
            "ask_procs": tuple(2 ** k for k in range(6, 16)),
            "ask_blocks": tuple(2 ** k for k in range(4, 11)),
            "clt_p": 32768, "exact_p": 2048, "parity_p": 256}
    small = {"procs": (64, 128), "blocks": (16, 64),
             "ask_procs": (64, 128), "ask_blocks": (16, 64),
             "clt_p": 4096, "exact_p": 128, "parity_p": 32}

    def build(self, seed, size, spans):
        dist = PowerLawBlocks(32)
        # The predictor's exact mode must agree with the engine it stands
        # in for, on the very matrix it samples.
        sizes = block_size_matrix(dist, size["parity_p"], seed=seed)
        parity = 0.0
        for kernel in self.KERNELS:
            simulated = run_spmd(
                TensorAlltoallv(kernel, sizes), size["parity_p"],
                config=_config(trace="off", backend="tensor",
                               wire="phantom")).elapsed
            predicted = predict_alltoallv(kernel, THETA, size["parity_p"],
                                          dist, seed=seed,
                                          mode="exact").elapsed
            parity = max(parity, abs(predicted - simulated) / simulated)
        return dict(size, seed=seed, dist=dist, parity_rel_err=parity)

    def iterate(self, state, spans, trace):
        seed, dist = state["seed"], state["dist"]
        with _count_calls(timing_layer, "predict_alltoallv",
                          spans.enabled) as fit_calls:
            model = spans.call("selector.fit", PerformanceModel.fit, THETA,
                               procs=state["procs"], blocks=state["blocks"],
                               seed=seed)
        tuner = AutoTuner(THETA, model=model)
        decisions = spans.call("tuner.cold_decide", lambda: [
            tuner.decide(p, n)
            for p in state["ask_procs"] for n in state["ask_blocks"]])
        clt = [spans.call("timing.predict_clt_p32768", predict_alltoallv,
                          kernel, THETA, state["clt_p"], dist, seed=seed,
                          mode="clt") for kernel in self.KERNELS]
        exact = [spans.call("timing.predict_exact_p2048", predict_alltoallv,
                            kernel, THETA, state["exact_p"], dist, seed=seed,
                            mode="exact") for kernel in self.KERNELS]
        predicted = [t.elapsed for t in clt + exact]
        fit_cells = len(state["procs"]) * len(state["blocks"]) \
            * len(self.KERNELS)
        return Iteration(
            results=[], work=fit_cells + len(decisions) + len(predicted),
            sim_elapsed=sum(predicted),
            clocks={"predicted": predicted,
                    "frontiers": [model.two_phase_frontier,
                                  model.padded_frontier],
                    "decisions": [(d.algorithm, d.radix)
                                  for d in decisions]},
            aux={"model": model, "fit_calls": fit_calls[0],
                 "decisions": len(decisions), "exact": exact})

    def verify(self, state, it, spans):
        model = it.aux["model"]
        for frontier in (model.two_phase_frontier, model.padded_frontier):
            if len(frontier) != len(state["procs"]):
                raise AssertionError("a fitted frontier is missing points")
        if not any(c.max_block for c in model.two_phase_frontier):
            raise AssertionError("two-phase Bruck never wins: empty frontier")
        if not state["parity_rel_err"] <= 1e-9:
            raise AssertionError(
                f"exact-mode prediction is {state['parity_rel_err']:.3g} "
                f"off the tensor engine at P={state['parity_p']}")

    def tamper(self, it):
        it.clocks["predicted"][0] += 1e-9

    def layers(self, state, it, spans, ref_wall, notes):
        out: Metrics = {
            "selector.predict_calls": it.aux["fit_calls"],
            "timing.parity_rel_err_p256": state["parity_rel_err"],
            "tuner.cold_decide_ms":
                spans.last("tuner.cold_decide") / it.aux["decisions"] * 1e3,
        }
        clt_err = 0.0
        for kernel, exact in zip(self.KERNELS, it.aux["exact"]):
            clt = predict_alltoallv(kernel, THETA, state["exact_p"],
                                    state["dist"], seed=state["seed"],
                                    mode="clt").elapsed
            clt_err = max(clt_err, abs(clt - exact.elapsed) / exact.elapsed)
        out["timing.clt_rel_err_p2048"] = clt_err
        run_probe(out, notes, ["cost_model.best_radix_us"],
                  probes.cost_model_best_radix, 1000)
        run_probe(out, notes,
                  ["ledger.append_us_per_record", "ledger.read_us_per_record",
                   "tuner.warm_decide_ms"],
                  probes.ledger_and_warm_tuner, it.aux["model"], 600, 100)
        return out


WORKLOADS = (CoopTwoPhase(), TensorLanes(), TensorRegistry(), VerifyChaos(),
             ObserveFull(), TcGraph1(), AdvisorFit())


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; known: "
                   f"{[w.name for w in WORKLOADS]}")

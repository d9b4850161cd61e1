#!/usr/bin/env python3
"""Host-time benchmark of the simulator: what it costs to obtain an answer.

    python benchmarks/host/run.py [--seed 3]          all seven workloads
    python benchmarks/host/run.py --only NAME         one of them
    python benchmarks/host/run.py --repeat-check      two sets must agree
    python benchmarks/host/run.py --selftest          reduced sizes + schema
    python benchmarks/host/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1                                   BENCHMARK.json contract

Every workload runs in a fresh subprocess (this same file with
``--workload``), pinned to one CPU, NumPy held to one thread.  The untraced
pass gives the end-to-end metrics; the traced pass (after it, by default)
gives the per-layer metrics.  README.md beside this file explains every
name.
"""

from __future__ import annotations

import os

# Before NumPy is imported: the load is one process, one thread of control.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np                                      # noqa: E402

from spans import OFF, Spans                            # noqa: E402
from spec import (CONTENDED_CPU_WALL_RATIO, END_TO_END,  # noqa: E402
                  PER_LAYER)
from workloads import (WORKLOADS, Iteration, Workload,  # noqa: E402
                       by_name)

from repro.simmpi import BUCKETS, MACHINE_MODEL_VERSION  # noqa: E402

RESULTS = HERE / "results"
#: Set-up runs this many times per process; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: What a cold interpreter pays before it can build inputs: NumPy, ``repro``
#: and the benchmark's own modules.  ``argv[1:3]`` are HERE and src/.
IMPORT_PROBE = ("import sys, time; start = time.perf_counter(); "
                "sys.path[:0] = sys.argv[1:3]; import workloads; "
                "print(time.perf_counter() - start)")
DETAIL_PREFIX = "DETAIL\t"
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


def pin_to_one_cpu() -> None:
    """Keep the process on one CPU: the coop backend hands control between
    parked carrier threads, and a hand-off that crosses cores costs 2-3x
    one that stays put — scheduler placement, not the program.  Where the
    platform will not pin, the run goes ahead unpinned."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def import_seconds() -> List[float]:
    """Import time in fresh interpreters — it can only be paid once per
    process, so each sample is its own short-lived child."""
    command = [sys.executable, "-c", IMPORT_PROBE, str(HERE),
               str(ROOT / "src")]
    return [float(subprocess.run(command, capture_output=True, text=True,
                                 check=True).stdout)
            for _ in range(SETUP_REPEATS)]


def quartiles(samples: List[float]) -> Dict[str, Any]:
    q1, median, q3 = (statistics.quantiles(samples, n=4)
                      if len(samples) > 1 else [samples[0]] * 3)
    return {"n": len(samples), "min": min(samples), "q1": q1,
            "median": median, "q3": q3, "max": max(samples),
            "samples": samples}


def digest_of(it: Iteration) -> str:
    """sha256 over the iteration's per-rank clocks, work and makespan."""
    return hashlib.sha256(
        repr((it.clocks, it.work, it.sim_elapsed)).encode()).hexdigest()


def check(workload: Workload, state: Any, it: Iteration, spans: Spans,
          expected_digest: Optional[str], deep: bool = False
          ) -> Optional[str]:
    """Why this iteration counts as failed, or ``None``."""
    try:
        workload.verify(state, it, spans)
        if deep:
            workload.verify_deep(state, it)
    except AssertionError as exc:
        return f"verification: {exc}"
    if expected_digest is not None and digest_of(it) != expected_digest:
        return "simulated clocks differ from the first iteration's"
    return None


def simulated_layers(workload: Workload, it: Iteration, spans: Spans,
                     notes: Dict[str, str]) -> Dict[str, Optional[float]]:
    """Exact simulated-clock numbers read off the traced iteration."""
    out: Dict[str, Optional[float]] = {
        "sim.elapsed_s": it.sim_elapsed,
        "sim.messages": sum(r.total_messages for r in it.results),
        "sim.bytes": sum(r.total_bytes for r in it.results),
    }
    # No engine run (advisor_fit) means no simulated time anywhere: zeros.
    # An engine run the traced pass could not trace means unknown: null.
    buckets: Optional[Dict[str, float]] = None
    if workload.untraced_reason is None:
        buckets = dict.fromkeys(BUCKETS, 0.0)
        for result in it.results:
            path = it.aux.get("critical_path") or spans.call(
                "critical_path.analyze", result.critical_path)
            for name, value in path.bucket_totals().items():
                buckets[name] += value
    for name in BUCKETS:
        out[f"sim.{name}_s"] = buckets[name] if buckets else None
        if buckets is None:
            notes[f"sim.{name}_s"] = workload.untraced_reason
    with_metrics = [r.metrics for r in it.results if r.metrics is not None]
    if with_metrics:
        out["metrics.max_in_flight"] = max(m.max_in_flight
                                           for m in with_metrics)
        out["metrics.queue_wait_total_s"] = sum(m.queue_wait_total
                                                for m in with_metrics)
    events = sum(len(trace.events()) for r in it.results
                 if r.traces is not None for trace in r.traces)
    if events:
        out["tracing.events_recorded"] = events
        analyze = spans.last("critical_path.analyze")
        if analyze is not None:
            out["critical_path.us_per_event"] = analyze / events * 1e6
    return out


def run_workload(workload: Workload, seed: int, import_samples: List[float],
                 *, seconds: Optional[float] = None,
                 iters: Optional[int] = None, traced: bool = False,
                 small: bool = False, tamper: bool = False) -> Dict[str, Any]:
    """Set up, time and verify one workload in this process.

    Runs ``iters`` timed iterations, or starts new ones until ``seconds`` of
    iteration time have been measured.
    With ``traced`` the timed iterations are only the reference (a quarter
    of the budget) for one further traced iteration and the layer probes.
    ``tamper`` corrupts the last iteration's output before it is checked.
    """
    size = workload.small if small else workload.size
    spans = Spans(enabled=traced)

    setup_samples = []
    for repeat in range(SETUP_REPEATS):
        recorder = spans if repeat == SETUP_REPEATS - 1 else OFF
        state = None
        gc.collect()
        started = perf_counter()
        state = workload.build(seed, size, recorder)
        # Warm-up run of the same program, discarded: fills lazy imports.
        workload.iterate(workload.build(seed, workload.small, OFF), OFF,
                         "off")
        setup_samples.append(perf_counter() - started)
    setup_s = statistics.median(import_samples) \
        + statistics.median(setup_samples)

    budget = (seconds or 0.0) / (4 if traced else 1)
    walls: List[float] = []
    failures: List[str] = []
    attempted = 0
    cpu_s = wall_s = 0.0
    first: Dict[str, Any] = {}
    timed_s = 0.0       # of every attempt, failed ones included

    def more() -> bool:
        if iters:
            return attempted < iters
        return attempted == 0 or timed_s < budget

    it = None
    while more():
        it = None       # drop the previous output before timing the next
        gc.collect()
        cpu0, t0 = process_time(), perf_counter()
        try:
            it = workload.iterate(state, OFF, "off")
        except Exception:  # noqa: BLE001 - a failed iteration is a datum
            traceback.print_exc()
            failures.append("raised: " + traceback.format_exc()
                            .strip().splitlines()[-1])
        wall = perf_counter() - t0
        cpu = process_time() - cpu0
        attempted += 1
        timed_s += wall
        if it is None:
            continue
        if tamper and attempted == iters:
            workload.tamper(it)
        failure = check(workload, state, it, OFF, first.get("digest"),
                        deep=not first)
        if failure is not None:
            failures.append(failure)
            continue
        walls.append(wall)
        wall_s += wall
        cpu_s += cpu
        if not first:
            first = {"digest": digest_of(it), "work": it.work,
                     "sim_elapsed": it.sim_elapsed}
    it = None
    if not walls:
        raise RuntimeError(f"{workload.name}: no iteration succeeded: "
                           f"{failures}")
    p50 = statistics.median(walls)
    detail: Dict[str, Any] = {
        "workload": workload.name, "seed": seed, "size": repr(size),
        "work": first["work"], "work_unit": workload.work_unit,
        "digest": first["digest"], "iter_wall_s": quartiles(walls),
        "setup_samples_s": setup_samples, "import_samples_s": import_samples,
        "cpu_wall_ratio": cpu_s / wall_s,
    }
    end_to_end = {
        "setup_s": setup_s,
        "iter_wall_s_p50": p50,
        "work_per_host_s": first["work"] / p50,
        "sim_elapsed_s": first["sim_elapsed"],
    }

    if traced:
        notes: Dict[str, str] = {}
        gc.collect()
        cpu0, t0 = process_time(), perf_counter()
        it = workload.iterate(state, spans, workload.traced_mode)
        traced_wall = perf_counter() - t0
        cpu_s += process_time() - cpu0
        wall_s += traced_wall
        attempted += 1
        # Tracing must not move the simulated result.
        failure = check(workload, state, it, spans, first["digest"])
        if failure is not None:
            failures.append(f"traced pass: {failure}")
        layers = simulated_layers(workload, it, spans, notes)
        layers.update(workload.layers(state, it, spans, p50, notes))
        layers.update((name + "_s", spans.total(name))
                      for name in {record[0] for record in spans.records}
                      if name + "_s" in PER_LAYER)
        layers["harness.trace_overhead_x"] = traced_wall / p50
        layers["harness.cpu_wall_ratio"] = cpu_s / wall_s
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from spec.py: "
                               f"{sorted(unknown)}")
        detail["per_layer"] = layers
        detail["notes"] = notes
        detail["traced_iter_wall_s"] = traced_wall

    end_to_end["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end["failed_frac"] = len(failures) / attempted
    detail.update(end_to_end=end_to_end, attempted=attempted,
                  failed=len(failures), failures=failures)
    return detail


# -- reporting --------------------------------------------------------------

def print_metrics(detail: Dict[str, Any]) -> None:
    """Every metric by name with its unit: the end-to-end ones of an
    untraced run, the per-layer ones of a traced run (whose short reference
    loop is no end-to-end measurement)."""
    name = detail["workload"]
    if "per_layer" in detail:
        for layer_name, value in sorted(detail["per_layer"].items()):
            shown = "null" if value is None else f"{value:.6g}"
            reason = detail["notes"].get(layer_name)
            print(f"{name:<24} {layer_name:<40} {shown:>14} "
                  f"{PER_LAYER[layer_name][0]}"
                  + (f"  ({reason})" if reason else ""))
    else:
        walls = detail["iter_wall_s"]
        for metric in END_TO_END:
            value = detail["end_to_end"][metric.name]
            unit = detail["work_unit"] \
                if metric.name == "work_per_host_s" else metric.unit
            extra = ""
            if metric.name == "iter_wall_s_p50":
                extra = (f"  (n={walls['n']}, min {walls['min']:.4g}, "
                         f"quartiles {walls['q1']:.4g}..{walls['q3']:.4g}, "
                         f"max {walls['max']:.4g})")
            print(f"{name:<24} {metric.name:<18} {value:>14.6g} {unit:<7} "
                  f"[{metric.clock} clock]{extra}")
    if detail["cpu_wall_ratio"] < CONTENDED_CPU_WALL_RATIO:
        print(f"WARNING {name}: cpu/wall = {detail['cpu_wall_ratio']:.2f} "
              f"< {CONTENDED_CPU_WALL_RATIO}: the machine was contended, "
              f"host numbers are suspect")
    for failure in detail["failures"]:
        print(f"FAILED {name}: {failure}")


def contract_line(detail: Dict[str, Any], traced: bool) -> str:
    """The one JSON object BENCHMARK.json's driver reads off the last line.
    A per-layer metric this workload does not measure reads 0."""
    if traced:
        layers = detail["per_layer"]
        metrics = {name: {"value": float(layers.get(name) or 0.0),
                          "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {m.name: {"value": detail["end_to_end"][m.name],
                            "unit": m.unit}
                   for m in END_TO_END if m.in_contract}
    return json.dumps({"correct": detail["failed"] == 0,
                       "attempted": detail["attempted"],
                       "failed": detail["failed"], "metrics": metrics})


# -- the full run: one subprocess per workload --------------------------------

def git_revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def header(seed: int, selected: List[Workload]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(),
        "machine_model_version": MACHINE_MODEL_VERSION,
        "seed": seed,
        "iterations": {w.name: w.iters for w in selected},
        "setup_repeats": SETUP_REPEATS,
    }


def run_child(workload: Workload, seed: int, traced: bool) -> Dict[str, Any]:
    """One workload in a fresh subprocess; its metric lines are echoed."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload.name, "--seed", str(seed),
               "--iters", str(1 if traced else workload.iters),
               "--trace", "1" if traced else "0"]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    for line in lines[:-1]:
        if not line.startswith(DETAIL_PREFIX):
            print(line)
    sys.stdout.flush()
    if child.returncode != 0:
        raise SystemExit(f"{workload.name} exited with {child.returncode}")
    return next(json.loads(line[len(DETAIL_PREFIX):]) for line in lines
                if line.startswith(DETAIL_PREFIX))


def full_run(selected: List[Workload], seed: int, traced: bool,
             sets: int = 1) -> List[Dict[str, Any]]:
    """``sets`` untraced result sets, then the traced pass into the first.
    The sets alternate per workload, so that all of them see the same
    stretch of machine weather."""
    head = header(seed, selected)
    print("# " + json.dumps(head))
    documents = [{"schema": 1, "header": head, "workloads": {}}
                 for _ in range(sets)]
    print("# untraced pass: end-to-end metrics")
    for workload in selected:
        for document in documents:
            document["workloads"][workload.name] = \
                run_child(workload, seed, traced=False)
    if traced:
        print("# traced pass: per-layer metrics")
        for workload in selected:
            detail = run_child(workload, seed, traced=True)
            target = documents[0]["workloads"][workload.name]
            for key in ("per_layer", "notes", "traced_iter_wall_s"):
                target[key] = detail[key]
            # Against the untraced pass proper, not the traced child's
            # short reference loop.
            target["per_layer"]["harness.trace_overhead_x"] = (
                detail["traced_iter_wall_s"]
                / target["end_to_end"]["iter_wall_s_p50"])
            target["failures"] += detail["failures"]
            target["traced_failed"] = detail["failed"]
    return documents


def write_result(document: Dict[str, Any], name: str) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {path.relative_to(ROOT)}")


def any_failed(document: Dict[str, Any]) -> bool:
    return any(d["failed"] or d.get("traced_failed")
               for d in document["workloads"].values())


def repeat_check(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Two sets of the same code: no host metric of the second worse than
    the first by more than its bound (the rule the bounds are written
    for), everything simulated or counted exactly equal."""
    problems = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric in END_TO_END:
            x = a["end_to_end"][metric.name]
            y = b["end_to_end"][metric.name]
            if metric.bound == 0.0:
                if x != y:
                    problems.append(f"{name} {metric.name}: {x!r} != {y!r} "
                                    f"(must repeat exactly)")
            elif metric.worse_by(x, y) > metric.bound:
                problems.append(
                    f"{name} {metric.name}: {x:.6g} -> {y:.6g} is "
                    f"{metric.worse_by(x, y):.1%} of {x:.6g} worse, bound "
                    f"{metric.bound:.0%}")
        for key in ("digest", "work"):
            if a[key] != b[key]:
                problems.append(f"{name} {key}: {a[key]!r} != {b[key]!r}")
    return problems


# -- the self-test ----------------------------------------------------------

def selftest(seed: int) -> List[str]:
    """Every workload at reduced size through ``run_workload``, sabotage
    seen by every verification, and the schema of what comes out."""
    problems = []
    emitted = {}
    import_samples = import_seconds()
    for workload in WORKLOADS:
        detail = run_workload(workload, seed, import_samples, iters=1,
                              traced=True, small=True)
        emitted[workload.name] = detail
        if detail["failed"]:
            problems.append(f"{workload.name}: {detail['failures']}")
        sabotaged = run_workload(workload, seed, import_samples, iters=2,
                                 small=True, tamper=True)
        if sabotaged["failed"] != 1:
            problems.append(f"{workload.name}: tampered output was not "
                            f"counted as a failed iteration")
        print(f"selftest {workload.name}: ok={not detail['failed']} "
              f"tamper_caught={sabotaged['failed'] == 1}")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w.name for w in WORKLOADS]
    if len(names) != 7 or [w["name"] for w in contract["workloads"]] != names:
        problems.append("BENCHMARK.json workloads differ from the runner's")
    if contract["paths"] != [str(HERE.relative_to(ROOT))]:
        problems.append(f"BENCHMARK.json paths is {contract['paths']}")
    expected = [{"name": m.name, "unit": m.unit, "better": m.better,
                 "bound": m.bound} for m in END_TO_END if m.in_contract]
    if contract["end_to_end"] != expected:
        problems.append("BENCHMARK.json end_to_end differs from spec.py")
    expected = [{"name": name, "unit": unit, "better": better}
                for name, (unit, better) in PER_LAYER.items()]
    if contract["per_layer"] != expected:
        problems.append("BENCHMARK.json per_layer differs from spec.py")
    if len(END_TO_END) != 6 or len(PER_LAYER) > 128:
        problems.append("metric counts off")
    measured_somewhere = set()
    for name, detail in emitted.items():
        if set(detail["end_to_end"]) != {m.name for m in END_TO_END}:
            problems.append(f"{name}: end-to-end metrics missing")
        measured_somewhere |= {k for k, v in detail["per_layer"].items()
                               if v is not None}
        for traced in (False, True):
            line = json.loads(contract_line(detail, traced))
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: contract line keys")
            for metric_name, entry in line["metrics"].items():
                if not NAME_PATTERN.fullmatch(metric_name) \
                        or not entry["unit"] \
                        or not isinstance(entry["value"], float):
                    problems.append(f"{name}: bad entry {metric_name}")
    unmeasured = set(PER_LAYER) - measured_somewhere
    if unmeasured:
        problems.append(f"per-layer metrics no workload measured: "
                        f"{sorted(unmeasured)}")
    return problems


# -- command line -------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3,
                        help="reaches input generation only")
    parser.add_argument("--only", metavar="NAME", action="append",
                        help="full run of just this workload (repeatable)")
    parser.add_argument("--no-traced", action="store_true",
                        help="skip the traced (per-layer) pass")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    single = parser.add_argument_group("one workload, in this process")
    single.add_argument("--workload", metavar="NAME")
    single.add_argument("--seconds", type=float, default=10.0,
                        help="start iterations for this long")
    single.add_argument("--iters", type=int,
                        help="fixed iteration count (overrides --seconds)")
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload:
        pin_to_one_cpu()
        detail = run_workload(by_name(args.workload), args.seed,
                              import_seconds(), seconds=args.seconds,
                              iters=args.iters, traced=bool(args.trace))
        print_metrics(detail)
        print(DETAIL_PREFIX + json.dumps(detail))
        print(contract_line(detail, bool(args.trace)))
        return 0

    if args.selftest:
        pin_to_one_cpu()
        started = perf_counter()
        problems = selftest(args.seed)
        for problem in problems:
            print(f"SELFTEST FAILED: {problem}")
        print(f"selftest: {len(problems)} problem(s) in "
              f"{perf_counter() - started:.1f} s")
        return 1 if problems else 0

    selected = [by_name(n) for n in args.only] if args.only \
        else list(WORKLOADS)
    documents = full_run(selected, args.seed, traced=not args.no_traced,
                         sets=2 if args.repeat_check else 1)
    write_result(documents[0], "latest.json")
    failed = any(any_failed(document) for document in documents)
    if args.repeat_check:
        write_result(documents[1], "latest_repeat.json")
        problems = repeat_check(*documents)
        for problem in problems:
            print(f"REPEAT-CHECK FAILED: {problem}")
        print(f"repeat-check: {len(problems)} problem(s)")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

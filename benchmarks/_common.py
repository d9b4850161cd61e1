"""Shared helpers for the per-figure benchmark harness.

Every ``bench_*.py`` regenerates one table/figure of the paper: it runs
the corresponding driver from :mod:`repro.bench` (or the app layer),
renders the reproduced rows/series as text, and writes them to
``benchmarks/results/<name>.txt`` (pytest captures stdout, so files are
the reliable artifact).  ``pytest-benchmark`` wraps the driver call so the
harness also tracks host-side runtime of the reproduction itself.

Run everything with::

    pytest benchmarks/ --benchmark-only

and inspect ``benchmarks/results/`` afterwards; EXPERIMENTS.md catalogues
the expected shapes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.registry import get_algorithm
from repro.simmpi import (ExecutionConfig, MACHINE_MODEL_VERSION, THETA,
                          MachineProfile, format_summary, run_spmd)
from repro.workloads import build_vargs

RESULTS_DIR = Path(__file__).parent / "results"


def save_report(name: str, text: str, data=None) -> None:
    """Write one reproduced figure to benchmarks/results/<name>.txt.

    Every file leads with the machine-model version so a committed
    artifact can be matched against the cost model that produced it.

    When ``data`` (any JSON-able value) is given, the same report is
    additionally emitted machine-readably as a sibling
    ``benchmarks/results/<name>.json`` — the committed perf-trajectory
    artifact.  It carries the machine-model version inside the document,
    so a trend-line consumer can drop records that predate a
    recalibration.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    header = f"# machine-model v{MACHINE_MODEL_VERSION}\n"
    path.write_text(header + text + "\n")
    if data is not None:
        doc = {"name": name,
               "machine_model_version": MACHINE_MODEL_VERSION,
               "data": data}
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
    # Also echo for -s runs.
    print(f"\n[{name}] written to {path}\n{text}")


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark (drivers are too
    heavy for repeated rounds) and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_alltoallv(algorithm: str, sizes, machine: MachineProfile = THETA,
                  trace=True, backend: str = "coop", wire: str = "phantom",
                  **kwargs):
    """Functional run of one registered non-uniform algorithm.

    ``algorithm`` resolves through :mod:`repro.core.registry`; extra
    keyword arguments go to the implementation (e.g. ``group_size`` for
    the grouped scheme).  ``backend`` selects the executor.  Returns the
    :class:`~repro.simmpi.SPMDResult`.

    The benchmarks are simulated-clock artifacts, so the default wire
    mode is ``"phantom"`` (size-only transport; clocks bit-identical to
    bytes mode, proven by ``tests/simmpi/test_backend_equivalence.py``).
    Pass ``wire="bytes"`` to move and verify real payload bytes.
    """
    fn = get_algorithm(algorithm, kind="nonuniform").fn
    fill = wire == "bytes"

    def prog(comm):
        vargs = build_vargs(comm.rank, sizes, fill=fill)
        fn(comm, *vargs.as_tuple(), **kwargs)

    config = ExecutionConfig(machine=machine, trace=trace, backend=backend,
                             wire=wire)
    return run_spmd(prog, sizes.shape[0], config=config)


def summarize(result, title: str = "") -> str:
    """Shared plain-text per-phase / per-step summary of one run."""
    return format_summary(result, title)

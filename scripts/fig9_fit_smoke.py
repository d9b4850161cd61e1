"""Fig. 9 smoke: the full-grid performance model must reproduce the
committed chart and its recommendations exactly, inside one wall budget.

`PerformanceModel.fit(THETA)` runs 216 predictor calls over the paper's
(P, N) grid: exact mode through P=2048, CLT beyond.  Its `describe()`
table and the five worked recommendations must equal
`benchmarks/results/fig9_performance_model.txt` line for line, minus the
machine-model header: the text `benchmarks/bench_fig9_perf_model.py`
writes.  The questions themselves are read from that file.

Usage: PYTHONPATH=src python scripts/fig9_fit_smoke.py [budget_s]
"""

import re
import sys
import time
from pathlib import Path

from repro.core.selector import PerformanceModel
from repro.simmpi import THETA

REPORT = (Path(__file__).resolve().parent.parent / "benchmarks" / "results"
          / "fig9_performance_model.txt")
QUESTION = re.compile(r"recommend\(P=(\d+), N=(\d+)\) -> ")


def main(wall_budget: float = 120.0) -> int:
    expected = REPORT.read_text().splitlines()[1:]
    questions = [(int(m[1]), int(m[2]))
                 for m in map(QUESTION.match, expected) if m]
    start = time.perf_counter()
    model = PerformanceModel.fit(THETA)
    lines = [model.describe(), ""] + [
        f"recommend(P={p}, N={n}) -> {model.recommend(p, n)}"
        for p, n in questions]
    wall = time.perf_counter() - start
    got = "\n".join(lines).splitlines()
    print("\n".join(got))
    print(f"\nfit + {len(questions)} recommendations: {wall:.1f}s host wall "
          f"(budget {wall_budget:.0f}s)")
    if got != expected:
        for i, (want, have) in enumerate(zip(expected, got)):
            if want != have:
                print(f"FAIL: line {i + 2} of {REPORT.name}: expected "
                      f"{want!r}, got {have!r}")
                break
        else:
            print(f"FAIL: {len(got)} lines, {REPORT.name} has "
                  f"{len(expected)}")
        return 1
    if wall >= wall_budget:
        print(f"FAIL: exceeded the {wall_budget:.0f}s wall budget")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]) if len(sys.argv) > 1 else 120.0))

#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py BASE.json NEW.json``.

For every workload and end-to-end metric: base, new, the ratio with its
base, the bound, and a verdict —

* ``identical`` / ``CHANGED`` for the simulated clock and the failure
  count, which must repeat exactly;
* ``unresolved`` when the two files' quartile ranges overlap and either is
  wider than the bound (the run-to-run spread hides the answer);
* ``worse`` when the new median is worse than the base by more than the
  bound, ``better`` when it is better by more than the bound, and
  ``within bound`` otherwise.

Then, for each workload that moved, the per-layer metric that moved most.
A pure reader of the two files; exits 1 if anything is ``worse`` or
``CHANGED``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spec import END_TO_END, EndToEnd  # noqa: E402


def quartile_range(detail: Dict[str, Any],
                   metric: EndToEnd) -> Optional[Tuple[float, float]]:
    """The (q1, q3) of a metric's samples, where the file holds samples."""
    walls = detail["iter_wall_s"]
    if walls["n"] < 2:
        return None
    if metric.name == "iter_wall_s_p50":
        return walls["q1"], walls["q3"]
    if metric.name == "work_per_host_s":
        return detail["work"] / walls["q3"], detail["work"] / walls["q1"]
    return None


def verdict(metric: EndToEnd, base: Dict[str, Any],
            new: Dict[str, Any]) -> str:
    x = base["end_to_end"][metric.name]
    y = new["end_to_end"][metric.name]
    if metric.bound == 0.0:
        return "identical" if x == y else "CHANGED"
    a, b = quartile_range(base, metric), quartile_range(new, metric)
    if a and b and a[0] <= b[1] and b[0] <= a[1] \
            and max(a[1] - a[0], b[1] - b[0]) > metric.bound * x:
        return "unresolved"
    worse_by = metric.worse_by(x, y)
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "better"
    return "within bound"


def largest_mover(base: Dict[str, Any],
                  new: Dict[str, Any]) -> Optional[str]:
    """The per-layer metric with the largest ratio between the files."""
    best: Optional[Tuple[float, str]] = None
    layers_a = base.get("per_layer") or {}
    layers_b = new.get("per_layer") or {}
    for name in sorted(set(layers_a) & set(layers_b)):
        x, y = layers_a[name], layers_b[name]
        if not x or not y or x < 0 or y < 0:
            continue
        moved = abs(math.log(y / x))
        if best is None or moved > best[0]:
            best = (moved, f"{name}: {x:.6g} -> {y:.6g} "
                           f"({y / x:.3f}x of {x:.6g})")
    return best[1] if best and best[0] > 0 else None


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> Tuple[List[str],
                                                                bool]:
    lines = [f"{'workload':<24} {'metric':<17} {'base':>12} {'new':>12} "
             f"{'new/base':>9} {'bound':>6}  verdict"]
    regressed = False
    movers = []
    for name, a in base["workloads"].items():
        b = new["workloads"].get(name)
        if b is None:
            lines.append(f"{name:<24} missing from the new file")
            regressed = True
            continue
        moved = False
        for metric in END_TO_END:
            x = a["end_to_end"][metric.name]
            y = b["end_to_end"][metric.name]
            ratio = f"{y / x:9.3f}" if x else f"{'-':>9}"
            outcome = verdict(metric, a, b)
            lines.append(f"{name:<24} {metric.name:<17} {x:>12.6g} "
                         f"{y:>12.6g} {ratio} {metric.bound:>6.0%}  "
                         f"{outcome}")
            regressed |= outcome in ("worse", "CHANGED")
            moved |= outcome not in ("within bound", "identical")
        if a["digest"] != b["digest"]:
            lines.append(f"{name:<24} per-rank clock digest CHANGED")
            regressed = moved = True
        if moved:
            mover = largest_mover(a, b)
            movers.append(f"{name}: " + (mover or "no per-layer metric in "
                                         "both files moved"))
    if movers:
        lines.append("")
        lines.append("per-layer metric that moved most, per workload "
                     "that changed:")
        lines.extend("  " + m for m in movers)
    return lines, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    if base["header"]["seed"] != new["header"]["seed"]:
        print(f"note: seeds differ ({base['header']['seed']} vs "
              f"{new['header']['seed']}); simulated numbers will too")
    lines, regressed = compare(base, new)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

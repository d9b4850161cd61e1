"""The committed figures are what ``benchmarks/figures.py`` renders.

Every file under ``benchmarks/results/`` (bar the host-time ``pairs/``)
belongs to one ``FIGURES`` entry, and the cheap entries regenerate
byte-identical in memory.  The full set is regenerated by CI's
``figures-check`` job: ``python benchmarks/figures.py``, then
``git diff --exit-code -- benchmarks/results``.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
RESULTS = BENCHMARKS / "results"

_spec = importlib.util.spec_from_file_location("benchmark_figures",
                                               BENCHMARKS / "figures.py")
figures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(figures)

#: About 2 s together; the rest take minutes and run in CI.
CHEAP = ("fig2a_uniform_variants", "fig2b_phase_breakdown",
         "model_equations", "ablation_eager_tier",
         "ablation_rotation_elimination", "radix_crossover",
         "fig8_sensitivity", "sloav_phase_overheads", "grouped_related_work")


def test_results_are_exactly_the_figure_table():
    files = {p.name for p in RESULTS.iterdir() if p.name != "pairs"}
    data = {name for name in files if name.endswith(".json")}
    assert files - data == {f"{name}.txt" for name in figures.FIGURES}
    assert {name[:-len(".json")] for name in data} <= set(figures.FIGURES)


@pytest.mark.parametrize("name", CHEAP)
def test_figure_regenerates_byte_identical(name):
    for fname, content in figures.render(name).items():
        assert content == (RESULTS / fname).read_text(), fname

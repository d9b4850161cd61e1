"""Smoke tests: every shipped example (the README's quickstart) runs.

Each runs once, in process, as ``__main__`` with scaled-down arguments;
every check reads that run's stdout.  Deprecations are errors (pyproject).
"""

import contextlib
import functools
import io
import pathlib
import runpy
import sys
from unittest import mock

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

CASES = {
    "quickstart.py": [],
    "data_scaling_study.py": ["512"],
    "transitive_closure.py": ["16"],
    "kcfa_analysis.py": ["16"],
    "algorithm_advisor.py": ["350", "800"],
    "custom_machine.py": [],
}


@functools.cache
def _run(script):
    """Stdout of one in-process run of ``script``, computed once."""
    path, buf = str(EXAMPLES / script), io.StringIO()
    with mock.patch.object(sys, "argv", [path, *CASES[script]]), \
            contextlib.redirect_stdout(buf):
        runpy.run_path(path, run_name="__main__")
    return buf.getvalue()


@pytest.mark.parametrize("script", list(CASES))
def test_example_runs(script):
    assert _run(script).strip(), "example produced no output"


def test_quickstart_reports_bruck_win():
    out = _run("quickstart.py")
    assert "faster than the vendor" in out
    assert "-" not in out.split("% faster")[0].split()[-1], \
        "quickstart should demonstrate a Bruck win, not a loss"


def test_advisor_answers_paper_question():
    assert "two_phase_bruck" in _run("algorithm_advisor.py")

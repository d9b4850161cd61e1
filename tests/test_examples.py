"""Smoke tests: every shipped example must run to completion.

Examples are the quickstart documentation; a broken one is a broken
README.  Each runs as a subprocess with scaled-down CLI arguments where
the script accepts them.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
# A deprecated call in an example is a broken README too.
PYTHON = [sys.executable, "-W", "error::DeprecationWarning"]

CASES = [
    ("quickstart.py", []),
    ("data_scaling_study.py", ["512"]),
    ("transitive_closure.py", ["16"]),
    ("kcfa_analysis.py", ["16"]),
    ("algorithm_advisor.py", ["350", "800"]),
    ("custom_machine.py", []),
]


@pytest.mark.parametrize("script,args", CASES,
                         ids=[c[0] for c in CASES])
def test_example_runs(script, args):
    proc = subprocess.run(
        [*PYTHON, str(EXAMPLES / script), *args],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_quickstart_reports_bruck_win():
    proc = subprocess.run(
        [*PYTHON, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=300)
    assert "faster than the vendor" in proc.stdout
    assert "-" not in proc.stdout.split("% faster")[0].split()[-1], \
        "quickstart should demonstrate a Bruck win, not a loss"


def test_advisor_answers_paper_question():
    proc = subprocess.run(
        [*PYTHON, str(EXAMPLES / "algorithm_advisor.py"),
         "350", "800"],
        capture_output=True, text=True, timeout=300)
    assert "two_phase_bruck" in proc.stdout

"""Benchmark harness: iteration runner, report formatting, figure drivers,
and the machine-profile calibration tool."""

from .calibrate import (
    PAPER_TARGETS,
    CalibrationResult,
    CalibrationTargets,
    calibrate,
    score_profile,
)
from .figures import (
    NONUNIFORM_SCHEMES,
    UNIFORM_VARIANTS,
    FigureData,
    fig2a_uniform_variants,
    fig2b_phase_breakdown,
    fig6_data_scaling,
    fig7_weak_scaling,
    fig8_sensitivity,
    fig9_performance_model,
    fig10_distributions,
    fig13_other_machines,
)
from .ledger import (
    LEDGER_VERSION,
    append_record,
    append_run,
    config_fingerprint,
    read_ledger,
    run_record,
)
from .reporting import format_series_table, format_speedup, format_table
from .runner import DEFAULT_ITERATIONS, run_iterations

__all__ = [
    "LEDGER_VERSION",
    "append_record",
    "append_run",
    "config_fingerprint",
    "read_ledger",
    "run_record",
    "CalibrationTargets",
    "CalibrationResult",
    "PAPER_TARGETS",
    "calibrate",
    "score_profile",
    "FigureData",
    "UNIFORM_VARIANTS",
    "NONUNIFORM_SCHEMES",
    "fig2a_uniform_variants",
    "fig2b_phase_breakdown",
    "fig6_data_scaling",
    "fig7_weak_scaling",
    "fig8_sensitivity",
    "fig9_performance_model",
    "fig10_distributions",
    "fig13_other_machines",
    "format_table",
    "format_series_table",
    "format_speedup",
    "run_iterations",
    "DEFAULT_ITERATIONS",
]

"""ExecutionConfig: validation, config echo, removed surfaces."""

import pytest

import repro.core.nonuniform
import repro.core.uniform
import repro.simmpi
from repro.simmpi import (
    ExecutionConfig,
    FaultPlan,
    LOCAL,
    ReliabilityConfig,
    THETA,
    run_spmd,
)


def _prog(comm):
    comm.barrier()
    return comm.clock


class TestValidation:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.machine is LOCAL
        assert cfg.trace == "full"
        assert cfg.backend == "coop"
        assert cfg.wire == "bytes"
        assert cfg.on_fault == "fail-fast"
        assert cfg.fault_plan is None and cfg.reliability is None

    def test_unknown_backend_names_valid_set(self):
        with pytest.raises(ValueError, match="coop.*tensor"):
            ExecutionConfig(backend="cuda")

    def test_unknown_wire_names_valid_set(self):
        with pytest.raises(ValueError, match="bytes.*phantom"):
            ExecutionConfig(wire="laser")

    def test_unknown_on_fault_names_valid_set(self):
        with pytest.raises(ValueError, match="fail-fast.*retry.*degrade"):
            ExecutionConfig(on_fault="panic")

    def test_unknown_trace_mode(self):
        with pytest.raises(ValueError, match="trace"):
            ExecutionConfig(trace="verbose")

    @pytest.mark.parametrize("trace,expected", [
        (True, "full"), (False, "off"), (None, "off"),
        ("events", "events"), ("metrics", "metrics"), ("full", "full"),
    ])
    def test_trace_normalization(self, trace, expected):
        assert ExecutionConfig(trace=trace).trace == expected

    def test_bad_machine(self):
        with pytest.raises(ValueError, match="MachineProfile"):
            ExecutionConfig(machine="theta")

    def test_fault_plan_spec_string_parsed(self):
        cfg = ExecutionConfig(fault_plan="delay:d=10us,p=0.5")
        assert isinstance(cfg.fault_plan, FaultPlan)
        assert cfg.faulted

    def test_bad_fault_plan_spec_fails_at_construction(self):
        with pytest.raises(ValueError):
            ExecutionConfig(fault_plan="explode:now")

    def test_retry_implies_reliability(self):
        cfg = ExecutionConfig(on_fault="retry")
        assert isinstance(cfg.reliability, ReliabilityConfig)

    def test_reliability_strings(self):
        assert ExecutionConfig(reliability="none").reliability is None
        assert isinstance(ExecutionConfig(reliability="retry").reliability,
                          ReliabilityConfig)
        with pytest.raises(ValueError, match="reliability"):
            ExecutionConfig(reliability="always")

    def test_frozen(self):
        cfg = ExecutionConfig()
        with pytest.raises(AttributeError):
            cfg.backend = "tensor"

    def test_replace_revalidates(self):
        cfg = ExecutionConfig(machine=THETA)
        tensor = cfg.replace(backend="tensor")
        assert tensor.backend == "tensor" and tensor.machine is THETA
        with pytest.raises(ValueError):
            cfg.replace(backend="cuda")

    def test_derived_views(self):
        assert ExecutionConfig(trace="events").events_on
        assert not ExecutionConfig(trace="events").metrics_on
        assert ExecutionConfig(trace="metrics").metrics_on
        assert not ExecutionConfig(trace=False).events_on


class TestShim:
    def test_config_must_be_execution_config(self):
        with pytest.raises(ValueError, match="ExecutionConfig"):
            run_spmd(_prog, 4, config={"machine": THETA})

    def test_no_kwargs_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_spmd(_prog, 2, config=ExecutionConfig(machine=LOCAL,
                                                      trace=False))

    def test_result_echoes_config(self):
        cfg = ExecutionConfig(machine=THETA, trace=False, backend="coop")
        res = run_spmd(_prog, 4, config=cfg)
        assert res.config is cfg


@pytest.mark.parametrize("access, error, match", [
    (lambda: run_spmd(_prog, 2, machine=THETA), TypeError, None),
    (lambda: run_spmd(_prog, 2, config="coop"), ValueError, None),
    (lambda: repro.UNIFORM_ALGORITHMS, AttributeError, None),
    (lambda: repro.core.NONUNIFORM_ALGORITHMS, AttributeError, None),
    (lambda: repro.core.uniform.UNIFORM_ALGORITHMS, AttributeError, None),
    (lambda: repro.core.nonuniform.NONUNIFORM_ALGORITHMS, AttributeError,
     None),
    (lambda: ExecutionConfig(backend="threads"), ValueError,
     r"\('coop', 'tensor'\)"),
    (lambda: ExecutionConfig(timeout=1), TypeError, "timeout"),
    (lambda: repro.simmpi.CoopNetwork, AttributeError, "CoopNetwork"),
], ids=["loose-kwarg", "config-not-a-config", "repro", "core", "uniform",
        "nonuniform", "threads-backend", "timeout-field", "coop-network"])
def test_removed_surfaces_stay_removed(access, error, match):
    # The kwarg shim and the *_ALGORITHMS alias dicts are gone: one way
    # in (config=), one algorithm table (repro.core.registry).  So are
    # the thread-per-rank backend, its watchdog timeout and the separate
    # cooperative fabric class: one per-rank executor, one Network.
    with pytest.raises(error, match=match):
        access()

"""Tests for the central algorithm registry."""

import numpy as np
import pytest

from repro.core import registry
from repro.core.registry import (
    Algorithm,
    get_algorithm,
    list_algorithms,
    register_algorithm,
)
from repro.core.uniform import alltoall
from repro.simmpi import LOCAL, ExecutionConfig, run_spmd


class TestLookup:
    def test_uniform_names(self):
        names = list_algorithms("uniform")
        assert names == sorted(names)
        assert "basic_bruck" in names and "vendor" in names

    def test_nonuniform_names(self):
        names = list_algorithms("nonuniform")
        assert "two_phase_bruck" in names and "vendor" in names

    def test_all_kinds(self):
        assert set(list_algorithms()) == \
            set(list_algorithms("uniform")) | set(list_algorithms("nonuniform"))

    def test_get_returns_algorithm(self):
        algo = get_algorithm("two_phase_bruck", kind="nonuniform")
        assert isinstance(algo, Algorithm)
        assert algo.name == "two_phase_bruck"
        assert algo.kind == "nonuniform"
        assert callable(algo.fn)
        assert algo.description

    def test_kindless_lookup(self):
        assert get_algorithm("basic_bruck").kind == "uniform"
        assert get_algorithm("two_phase_bruck").kind == "nonuniform"

    def test_vendor_registered_for_both_kinds(self):
        assert get_algorithm("vendor", kind="uniform").kind == "uniform"
        assert get_algorithm("vendor", kind="nonuniform").kind == "nonuniform"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="definitely_not_an_algorithm"):
            get_algorithm("definitely_not_an_algorithm")

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="two_phase_bruck"):
            get_algorithm("nope", kind="nonuniform")

    def test_kind_mismatch(self):
        with pytest.raises(KeyError, match="basic_bruck"):
            get_algorithm("basic_bruck", kind="nonuniform")

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            get_algorithm("basic_bruck", kind="sideways")
        with pytest.raises(ValueError, match="kind"):
            list_algorithms("sideways")


class TestRegistration:
    def test_register_and_lookup(self):
        def fake(comm, *args, **kwargs):
            pass

        register_algorithm("test_only_fake", "uniform", fake, "a test stub")
        try:
            algo = get_algorithm("test_only_fake", kind="uniform")
            assert algo.fn is fake
            assert "test_only_fake" in list_algorithms("uniform")
        finally:
            del registry._REGISTRY[("uniform", "test_only_fake")]

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_algorithm("x", "diagonal", lambda: None)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            register_algorithm("", "uniform", lambda: None)


class TestVendorDispatch:
    def test_vendor_routes_to_builtin(self):
        p, n = 4, 16

        def prog(comm):
            send = np.arange(p * n, dtype=np.uint8)
            recv = np.zeros(p * n, dtype=np.uint8)
            alltoall(comm, send, recv, n, algorithm="vendor")
            return recv.copy()

        res = run_spmd(prog, p, config=ExecutionConfig(machine=LOCAL))
        for rank, out in enumerate(res.returns):
            for src in range(p):
                expect = np.arange(rank * n, (rank + 1) * n, dtype=np.uint8)
                assert np.array_equal(out[src * n:(src + 1) * n], expect)

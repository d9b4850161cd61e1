"""The load-bearing integration tests: the analytic timing engine must
agree with the functional simulator to 1e-12 relative at small P (exact
mode) and be statistically consistent in CLT mode.

These tests pin every constant of :mod:`repro.timing` to
:mod:`repro.simmpi`: any drift between the two engines — a missed copy
charge, a wrong partner index, a changed cost rule — fails here.
"""

import numpy as np
import pytest

from repro.core.nonuniform import alltoallv
from repro.core.uniform import alltoall
from repro.simmpi import (CORI, LOCAL, STAMPEDE2, THETA, ExecutionConfig,
                          run_spmd)
from repro.timing import predict_alltoallv, predict_uniform
from repro.timing.uniform import UNIFORM_PREDICTORS
from repro.workloads import UniformBlocks, block_size_matrix, build_vargs

MACHINES = [THETA, CORI, STAMPEDE2, LOCAL]
NONUNIFORM = ["two_phase_bruck", "padded_bruck", "padded_alltoall",
              "spread_out"]


def functional_uniform(algorithm, machine, p, n):
    def prog(comm):
        send = np.zeros(p * n, dtype=np.uint8)
        recv = np.zeros(p * n, dtype=np.uint8)
        alltoall(comm, send, recv, n, algorithm=algorithm)
    return run_spmd(prog, p,
                    config=ExecutionConfig(machine=machine,
                                           trace=False)).elapsed


def functional_nonuniform(algorithm, machine, sizes):
    def prog(comm):
        args = build_vargs(comm.rank, sizes)
        alltoallv(comm, *args.as_tuple(), algorithm=algorithm)
    return run_spmd(prog, sizes.shape[0],
                    config=ExecutionConfig(machine=machine,
                                           trace=False)).elapsed


class TestUniformParity:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("algorithm", sorted(UNIFORM_PREDICTORS))
    def test_bit_exact_p16(self, machine, algorithm):
        p, n = 16, 32
        functional = functional_uniform(algorithm, machine, p, n)
        predicted = predict_uniform(algorithm, machine, p, n).total
        assert predicted == pytest.approx(functional, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13, 24])
    @pytest.mark.parametrize("n", [1, 64, 1024])
    def test_bit_exact_across_shapes(self, p, n):
        for algorithm in ("zero_rotation_bruck", "basic_bruck_dt",
                          "spread_out"):
            functional = functional_uniform(algorithm, THETA, p, n)
            predicted = predict_uniform(algorithm, THETA, p, n).total
            assert predicted == pytest.approx(functional, rel=1e-12,
                                              abs=1e-15)

    def test_rendezvous_sized_blocks(self):
        # Per-step Bruck messages crossing the eager threshold.
        p = 8
        n = THETA.eager_threshold  # m*n straddles the protocol switch
        for algorithm in ("modified_bruck", "spread_out"):
            functional = functional_uniform(algorithm, THETA, p, n)
            predicted = predict_uniform(algorithm, THETA, p, n).total
            assert predicted == pytest.approx(functional, rel=1e-12)

    def test_zero_block_size(self):
        assert predict_uniform("basic_bruck", THETA, 8, 0).total == 0.0

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            predict_uniform("nope", THETA, 8, 8)

    def test_phase_split_sums_to_total(self):
        t = predict_uniform("basic_bruck", THETA, 32, 64)
        assert t.total == pytest.approx(
            t.initial_rotation + t.communication + t.final_rotation
            + t.index_setup)
        assert t.final_rotation > 0
        t2 = predict_uniform("zero_rotation_bruck", THETA, 32, 64)
        assert t2.final_rotation == 0.0
        assert t2.initial_rotation == 0.0


class TestNonuniformExactParity:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("algorithm", NONUNIFORM)
    def test_bit_exact_p16(self, machine, algorithm):
        dist = UniformBlocks(64)
        sizes = block_size_matrix(dist, 16, seed=9)
        functional = functional_nonuniform(algorithm, machine, sizes)
        predicted = predict_alltoallv(algorithm, machine, 16, dist,
                                      seed=9, mode="exact").elapsed
        assert predicted == pytest.approx(functional, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13, 24])
    def test_bit_exact_across_p(self, p):
        dist = UniformBlocks(48)
        sizes = block_size_matrix(dist, p, seed=p)
        for algorithm in NONUNIFORM:
            functional = functional_nonuniform(algorithm, THETA, sizes)
            predicted = predict_alltoallv(algorithm, THETA, p, dist,
                                          seed=p, mode="exact").elapsed
            assert predicted == pytest.approx(functional, rel=1e-12,
                                              abs=1e-15), algorithm

    @pytest.mark.parametrize("max_n", [0, 1, 1024])
    def test_degenerate_sizes(self, max_n):
        dist = UniformBlocks(max_n)
        sizes = block_size_matrix(dist, 6, seed=1)
        for algorithm in NONUNIFORM:
            functional = functional_nonuniform(algorithm, THETA, sizes)
            predicted = predict_alltoallv(algorithm, THETA, 6, dist,
                                          seed=1, mode="exact").elapsed
            assert predicted == pytest.approx(functional, rel=1e-12,
                                              abs=1e-15)

    def test_vendor_alias(self):
        dist = UniformBlocks(32)
        a = predict_alltoallv("vendor", THETA, 8, dist, seed=0,
                              mode="exact")
        b = predict_alltoallv("spread_out", THETA, 8, dist, seed=0,
                              mode="exact")
        assert a.elapsed == b.elapsed
        assert a.algorithm == "spread_out"

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            predict_alltoallv("bogus", THETA, 8, UniformBlocks(8))

    @pytest.mark.parametrize("algorithm", NONUNIFORM)
    def test_sizes_argument_stands_in_for_the_draw(self, algorithm):
        dist = UniformBlocks(48)
        drawn = predict_alltoallv(algorithm, THETA, 13, dist, seed=4,
                                  mode="exact").elapsed
        sizes = block_size_matrix(dist, 13, seed=4)
        assert predict_alltoallv(algorithm, THETA, 13, dist, seed=99,
                                 mode="exact", sizes=sizes).elapsed == drawn
        # ... and it is the matrix, not the seed, that is evaluated
        functional = functional_nonuniform(algorithm, THETA, 2 * sizes)
        assert predict_alltoallv(algorithm, THETA, 13, dist, mode="exact",
                                 sizes=2 * sizes).elapsed \
            == pytest.approx(functional, rel=1e-12, abs=1e-15)

    def test_sizes_argument_is_exact_mode_only(self):
        dist = UniformBlocks(48)
        clt = predict_alltoallv("two_phase_bruck", THETA, 64, dist, seed=4,
                                mode="clt")
        with_sizes = predict_alltoallv(
            "two_phase_bruck", THETA, 64, dist, seed=4, mode="clt",
            sizes=np.zeros((64, 64), dtype=np.int64))
        assert with_sizes == clt

    @pytest.mark.parametrize("bad,match", [
        (np.zeros((4, 5), dtype=np.int64), "integer"),
        (np.zeros((8, 8), dtype=np.float64), "integer"),
        (-np.ones((8, 8), dtype=np.int64), ">= 0"),
    ])
    def test_sizes_argument_validated(self, bad, match):
        with pytest.raises(ValueError, match=match):
            predict_alltoallv("spread_out", THETA, 8, UniformBlocks(8),
                              mode="exact", sizes=bad)

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            predict_alltoallv("spread_out", THETA, 8, UniformBlocks(8),
                              mode="sorcery")


class TestCLTConsistency:
    """CLT mode must track exact mode closely at a P where both run."""

    @pytest.mark.parametrize("algorithm", NONUNIFORM)
    @pytest.mark.parametrize("max_n", [16, 256, 1024])
    def test_within_ten_percent_of_exact(self, algorithm, max_n):
        p = 512
        dist = UniformBlocks(max_n)
        exact = np.median([
            predict_alltoallv(algorithm, THETA, p, dist, seed=s,
                              mode="exact").elapsed for s in range(3)])
        clt = np.median([
            predict_alltoallv(algorithm, THETA, p, dist, seed=s,
                              mode="clt").elapsed for s in range(3)])
        assert clt == pytest.approx(exact, rel=0.10)

    def test_auto_mode_switches(self):
        dist = UniformBlocks(64)
        small = predict_alltoallv("two_phase_bruck", THETA, 64, dist)
        big = predict_alltoallv("two_phase_bruck", THETA, 4096, dist)
        assert small.mode == "exact"
        assert big.mode == "clt"

    def test_clt_deterministic_per_seed(self):
        dist = UniformBlocks(128)
        a = predict_alltoallv("two_phase_bruck", THETA, 8192, dist, seed=5,
                              mode="clt").elapsed
        b = predict_alltoallv("two_phase_bruck", THETA, 8192, dist, seed=5,
                              mode="clt").elapsed
        assert a == b

    def test_scales_to_32k(self):
        dist = UniformBlocks(64)
        t = predict_alltoallv("two_phase_bruck", THETA, 32768, dist,
                              mode="clt").elapsed
        assert 0 < t < 10.0  # sub-10s simulated; finishes in milliseconds


class TestRadixParity:
    """The analytic predictors track the functional simulator at every
    radix, and the radix-2 parameterization is the unmodified formula."""

    RADICES = (3, 4, 8)

    def functional_uniform_radix(self, algorithm, machine, p, n, radix):
        def prog(comm):
            send = np.zeros(p * n, dtype=np.uint8)
            recv = np.zeros(p * n, dtype=np.uint8)
            alltoall(comm, send, recv, n, algorithm=algorithm, radix=radix)
        return run_spmd(prog, p, config=ExecutionConfig(
            machine=machine, trace=False)).elapsed

    def functional_nonuniform_radix(self, algorithm, machine, sizes, radix):
        def prog(comm):
            args = build_vargs(comm.rank, sizes)
            alltoallv(comm, *args.as_tuple(), algorithm=algorithm,
                      radix=radix)
        return run_spmd(prog, sizes.shape[0], config=ExecutionConfig(
            machine=machine, trace=False)).elapsed

    @pytest.mark.parametrize("radix", RADICES)
    @pytest.mark.parametrize("p", [5, 16, 17])
    def test_uniform_predictors_track_simulator(self, p, radix):
        from repro.core.registry import radix_algorithms
        for algorithm in radix_algorithms("uniform"):
            functional = self.functional_uniform_radix(
                algorithm, THETA, p, 32, radix)
            predicted = predict_uniform(algorithm, THETA, p, 32,
                                        radix=radix).total
            assert predicted == pytest.approx(
                functional, rel=1e-12, abs=1e-15), (algorithm, radix)

    @pytest.mark.parametrize("radix", RADICES)
    @pytest.mark.parametrize("p", [5, 16, 17])
    def test_nonuniform_predictors_track_simulator(self, p, radix):
        from repro.core.registry import radix_algorithms
        dist = UniformBlocks(48)
        sizes = block_size_matrix(dist, p, seed=p)
        for algorithm in radix_algorithms("nonuniform"):
            functional = self.functional_nonuniform_radix(
                algorithm, THETA, sizes, radix)
            predicted = predict_alltoallv(algorithm, THETA, p, dist,
                                          seed=p, mode="exact",
                                          radix=radix).elapsed
            assert predicted == pytest.approx(
                functional, rel=1e-12, abs=1e-15), (algorithm, radix)

    def test_radix_two_is_bit_identical_to_default(self):
        dist = UniformBlocks(64)
        for algorithm in ("two_phase_bruck", "padded_bruck"):
            a = predict_alltoallv(algorithm, THETA, 16, dist, seed=9,
                                  mode="exact").elapsed
            b = predict_alltoallv(algorithm, THETA, 16, dist, seed=9,
                                  mode="exact", radix=2).elapsed
            assert a == b  # exact: same code path, same floats
        assert predict_uniform("modified_bruck", THETA, 16, 32).total == \
            predict_uniform("modified_bruck", THETA, 16, 32, radix=2).total

    @pytest.mark.parametrize("radix", [4, 8])
    def test_clt_mode_accepts_radix(self, radix):
        dist = UniformBlocks(64)
        t = predict_alltoallv("two_phase_bruck", THETA, 8192, dist,
                              mode="clt", radix=radix)
        assert t.mode == "clt" and 0 < t.elapsed < 10.0

    def test_incapable_algorithm_rejected(self):
        with pytest.raises(ValueError, match="radix"):
            predict_uniform("basic_bruck", THETA, 8, 8, radix=4)
        with pytest.raises(ValueError, match="radix"):
            predict_alltoallv("spread_out", THETA, 8, UniformBlocks(8),
                              radix=4)

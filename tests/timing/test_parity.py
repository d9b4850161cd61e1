"""The load-bearing integration tests: the timing engine must agree with
the functional simulator — exactly for uniform predictions, which are
tensor runs, and for two-phase and padded Bruck in non-uniform exact mode
(both engines and the predictor charge a copy batch as one
``copy_time_blocks``); to 1e-12 relative for the spread-out fan-out — and
be statistically consistent in CLT mode.

These tests pin every constant of :mod:`repro.timing` to
:mod:`repro.simmpi`: any drift between the two engines — a missed copy
charge, a wrong partner index, a changed cost rule — fails here.
"""

import numpy as np
import pytest

from repro.core.nonuniform import alltoallv
from repro.core.registry import list_algorithms
from repro.core.uniform import alltoall
from repro.simmpi import (CORI, LOCAL, STAMPEDE2, THETA, ExecutionConfig,
                          run_spmd)
from repro.simmpi.tensor import TensorAlltoallv
from repro.timing import predict_alltoallv, predict_uniform
from repro.workloads import (PowerLawBlocks, UniformBlocks,
                             block_size_matrix, build_vargs)

MACHINES = [THETA, CORI, STAMPEDE2, LOCAL]
UNIFORM = list_algorithms("uniform")
NONUNIFORM = ["two_phase_bruck", "padded_bruck", "padded_alltoall",
              "spread_out"]
#: Kernels whose exact-mode prediction equals the engines' clocks.  The
#: fan-out of the other two prices its overheads as multiplies, not as the
#: engines' per-post additions, so they agree to the last bits only.
EXACT = ("two_phase_bruck", "padded_bruck")


def assert_parity(algorithm, predicted, functional):
    if algorithm in EXACT:
        assert predicted == functional, algorithm
    else:
        assert predicted == pytest.approx(functional, rel=1e-12,
                                          abs=1e-15), algorithm


def functional_uniform_run(algorithm, machine, p, n, radix=2, trace=False):
    def prog(comm):
        send = np.zeros(p * n, dtype=np.uint8)
        recv = np.zeros(p * n, dtype=np.uint8)
        alltoall(comm, send, recv, n, algorithm=algorithm, radix=radix)
    return run_spmd(prog, p,
                    config=ExecutionConfig(machine=machine, trace=trace))


def functional_uniform(algorithm, machine, p, n, radix=2):
    return functional_uniform_run(algorithm, machine, p, n, radix).elapsed


def functional_nonuniform(algorithm, machine, sizes):
    def prog(comm):
        args = build_vargs(comm.rank, sizes)
        alltoallv(comm, *args.as_tuple(), algorithm=algorithm)
    return run_spmd(prog, sizes.shape[0],
                    config=ExecutionConfig(machine=machine,
                                           trace=False)).elapsed


class TestUniformParity:
    """``predict_uniform`` is a tensor run: its total is the coop
    makespan, bit for bit."""

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("algorithm", UNIFORM)
    def test_bit_exact_p16(self, machine, algorithm):
        p, n = 16, 32
        assert predict_uniform(algorithm, machine, p, n).total \
            == functional_uniform(algorithm, machine, p, n)

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13, 24])
    @pytest.mark.parametrize("n", [1, 64, 1024])
    def test_bit_exact_across_shapes(self, p, n):
        for algorithm in UNIFORM:
            assert predict_uniform(algorithm, THETA, p, n).total \
                == functional_uniform(algorithm, THETA, p, n), algorithm

    def test_rendezvous_sized_blocks(self):
        # Per-step Bruck messages crossing the eager threshold.
        p = 8
        n = THETA.eager_threshold  # m*n straddles the protocol switch
        for algorithm in UNIFORM:
            assert predict_uniform(algorithm, THETA, p, n).total \
                == functional_uniform(algorithm, THETA, p, n), algorithm

    def test_zero_block_size(self):
        assert predict_uniform("basic_bruck", THETA, 8, 0).total == 0.0

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            predict_uniform("nope", THETA, 8, 8)

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError, match="nprocs"):
            predict_uniform("basic_bruck", THETA, 0, 8)

    def test_phase_split_sums_to_total(self):
        p, n = 32, 64
        for algorithm in UNIFORM:
            t = predict_uniform(algorithm, THETA, p, n)
            parts = (t.initial_rotation, t.communication, t.final_rotation,
                     t.index_setup)
            assert min(parts) >= 0.0, algorithm
            assert sum(parts) == pytest.approx(t.total, rel=1e-15), algorithm
            # The rotation and index phases are the simulator's own.
            coop = functional_uniform_run(algorithm, THETA, p, n,
                                          trace="metrics").phase_times()
            for name in ("initial_rotation", "final_rotation", "index_setup"):
                assert getattr(t, name) == coop.get(name, 0.0), \
                    (algorithm, name)
            if algorithm.startswith("basic_bruck"):
                assert t.initial_rotation > 0 and t.final_rotation > 0
            if algorithm == "zero_rotation_bruck":
                assert t.initial_rotation == t.final_rotation == 0.0
                assert t.index_setup > 0
            if algorithm in ("spread_out", "vendor"):
                assert t.communication == t.total, algorithm


class TestNonuniformExactParity:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    @pytest.mark.parametrize("algorithm", NONUNIFORM)
    def test_bit_exact_p16(self, machine, algorithm):
        dist = UniformBlocks(64)
        sizes = block_size_matrix(dist, 16, seed=9)
        functional = functional_nonuniform(algorithm, machine, sizes)
        predicted = predict_alltoallv(algorithm, machine, 16, dist,
                                      seed=9, mode="exact").elapsed
        assert_parity(algorithm, predicted, functional)

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13, 24])
    def test_bit_exact_across_p(self, p):
        dist = UniformBlocks(48)
        sizes = block_size_matrix(dist, p, seed=p)
        for algorithm in NONUNIFORM:
            functional = functional_nonuniform(algorithm, THETA, sizes)
            predicted = predict_alltoallv(algorithm, THETA, p, dist,
                                          seed=p, mode="exact").elapsed
            assert_parity(algorithm, predicted, functional)

    @pytest.mark.parametrize("max_n", [0, 1, 1024])
    def test_degenerate_sizes(self, max_n):
        dist = UniformBlocks(max_n)
        sizes = block_size_matrix(dist, 6, seed=1)
        for algorithm in NONUNIFORM:
            functional = functional_nonuniform(algorithm, THETA, sizes)
            predicted = predict_alltoallv(algorithm, THETA, 6, dist,
                                          seed=1, mode="exact").elapsed
            assert_parity(algorithm, predicted, functional)

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
        assert_parity(algorithm,
                      predict_alltoallv(algorithm, THETA, 13, dist,
                                        mode="exact",
                                        sizes=2 * sizes).elapsed,
                      functional)

    @pytest.mark.parametrize("p", [13, 256, 2048])
    @pytest.mark.parametrize("dist", [PowerLawBlocks(32), UniformBlocks(48)],
                             ids=["powerlaw", "uniform"])
    def test_equals_the_tensor_run_at_scale(self, p, dist):
        sizes = block_size_matrix(dist, p, seed=5)
        for algorithm in EXACT:
            tensor = run_spmd(TensorAlltoallv(algorithm, sizes), p,
                              config=ExecutionConfig(
                                  machine=THETA, backend="tensor",
                                  wire="phantom", trace=False)).elapsed
            assert predict_alltoallv(algorithm, THETA, p, dist,
                                     mode="exact",
                                     sizes=sizes).elapsed == tensor, \
                algorithm

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
    """The predictors track the functional simulator at every radix, and
    the radix-2 parameterization is the unmodified formula."""

    RADICES = (3, 4, 8)

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
            assert predict_uniform(algorithm, THETA, p, 32,
                                   radix=radix).total \
                == functional_uniform(algorithm, THETA, p, 32, radix), \
                (algorithm, radix)

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
            assert_parity(algorithm, predicted, functional)

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

"""Tests for the Fig. 9 empirical performance model / selector."""

import numpy as np
import pytest

from repro.core.selector import CrossoverPoint, PerformanceModel
from repro.simmpi import THETA


@pytest.fixture(scope="module")
def fitted():
    # Coarse but fast fit covering the small-to-huge range.  The grid
    # reaches down to N=4: under the piecewise eager model padded Bruck's
    # niche sits at single-digit block sizes (the old model's cost
    # inversion had artificially widened it).
    return PerformanceModel.fit(
        THETA, procs=(128, 1024, 4096, 16384, 32768),
        blocks=(4, 16, 64, 256, 1024, 2048))


class TestFit:
    def test_two_phase_frontier_declines(self, fitted):
        ns = [c.max_block for c in fitted.two_phase_frontier]
        # At scale the winning range must shrink (Fig. 9's main trend).
        assert ns[-1] < ns[0]
        assert ns == sorted(ns, reverse=True)

    def test_padded_niche_small_p_only(self, fitted):
        padded = {c.nprocs: c.max_block for c in fitted.padded_frontier}
        assert padded[128] > 0            # padded has a niche at small P
        assert padded[32768] <= padded[128]

    def test_frontiers_cover_requested_procs(self, fitted):
        assert [c.nprocs for c in fitted.two_phase_frontier] == \
            [128, 1024, 4096, 16384, 32768]


class TestFitDrawsOncePerCell:
    PROCS, BLOCKS = (8, 24), (8, 64)

    @staticmethod
    def reference_fit(machine, procs, blocks, seed):
        """The sweep as first written: every contender samples its own
        (identical) matrix from the seed."""
        from repro.timing import predict_alltoallv
        from repro.workloads import UniformBlocks
        model = PerformanceModel(machine=machine)
        for p in procs:
            largest_tp = largest_padded = 0
            for n in sorted(blocks):
                tp, vendor, padded = (
                    predict_alltoallv(name, machine, p, UniformBlocks(n),
                                      seed=seed).elapsed
                    for name in ("two_phase_bruck", "vendor",
                                 "padded_bruck"))
                if tp < vendor:
                    largest_tp = n
                if padded < tp and padded < vendor:
                    largest_padded = n
            model.two_phase_frontier.append(CrossoverPoint(p, largest_tp))
            model.padded_frontier.append(CrossoverPoint(p, largest_padded))
        return model

    def test_same_frontiers_as_per_call_draws(self):
        procs, blocks = (16, 128, 4096), (4, 16, 64, 256, 1024)
        assert PerformanceModel.fit(THETA, procs, blocks, seed=5) == \
            self.reference_fit(THETA, procs, blocks, seed=5)

    def test_one_draw_three_predictions_per_cell(self, monkeypatch):
        import repro.core.selector as selector
        import repro.timing as timing

        draws, calls = [], []
        draw, predict = selector.block_size_matrix, timing.predict_alltoallv

        def counted_draw(dist, nprocs, seed=0):
            draws.append((nprocs, dist.max_block, seed))
            return draw(dist, nprocs, seed=seed)

        def counted_predict(name, machine, nprocs, dist, **kwargs):
            calls.append((nprocs, dist.max_block, name))
            matrix = kwargs["sizes"]
            assert np.array_equal(
                matrix, draw(dist, nprocs, seed=kwargs["seed"]))
            return predict(name, machine, nprocs, dist, **kwargs)

        monkeypatch.setattr(selector, "block_size_matrix", counted_draw)
        monkeypatch.setattr(timing, "predict_alltoallv", counted_predict)
        PerformanceModel.fit(THETA, self.PROCS, self.BLOCKS, seed=11)
        cells = [(p, n) for p in self.PROCS for n in self.BLOCKS]
        assert draws == [(p, n, 11) for p, n in cells]
        # Still one call per contender through the public module
        # attribute (the host benchmark counts them there).
        assert sorted(calls) == sorted(
            (p, n, name) for p, n in cells
            for name in ("two_phase_bruck", "padded_bruck", "vendor"))

    def test_no_matrix_beyond_the_exact_limit(self, monkeypatch):
        import repro.core.selector as selector
        from repro.timing import EXACT_LIMIT

        def no_draw(*args, **kwargs):
            raise AssertionError("CLT cells must not materialize P x P")

        monkeypatch.setattr(selector, "block_size_matrix", no_draw)
        model = PerformanceModel.fit(THETA, (2 * EXACT_LIMIT,), (16, 256))
        assert len(model.two_phase_frontier) == 1


class TestRecommend:
    def test_vendor_for_huge_blocks(self, fitted):
        assert fitted.recommend(32768, 1 << 20) == "vendor"

    def test_two_phase_in_sweet_spot(self, fitted):
        assert fitted.recommend(4096, 100) == "two_phase_bruck"

    def test_padded_for_tiny_blocks_small_p(self, fitted):
        assert fitted.recommend(128, 4) == "padded_bruck"

    def test_paper_question(self, fitted):
        # "with P = 350 and N = 800, should one use ...?"
        answer = fitted.recommend(350, 800)
        assert answer in ("two_phase_bruck", "padded_bruck")

    def test_interpolation_between_fitted_procs(self, fitted):
        # 2048 was not fitted; threshold must lie between neighbours'.
        t1024 = fitted.two_phase_threshold(1024)
        t4096 = fitted.two_phase_threshold(4096)
        t2048 = fitted.two_phase_threshold(2048)
        assert min(t1024, t4096) <= t2048 <= max(t1024, t4096)

    def test_extrapolation_clamps(self, fitted):
        assert fitted.two_phase_threshold(2) == \
            fitted.two_phase_frontier[0].max_block
        assert fitted.two_phase_threshold(10 ** 6) == \
            fitted.two_phase_frontier[-1].max_block

    def test_invalid_args(self, fitted):
        with pytest.raises(ValueError):
            fitted.recommend(0, 100)
        with pytest.raises(ValueError):
            fitted.recommend(64, -1)

    def test_unfitted_model_raises(self):
        empty = PerformanceModel(machine=THETA)
        with pytest.raises(ValueError, match="fitted"):
            empty.recommend(64, 64)

    def test_describe_mentions_frontiers(self, fitted):
        text = fitted.describe()
        assert "two-phase" in text
        assert "32768" in text


class TestFromMeasurements:
    def test_builds_frontier_from_external_times(self):
        meas = {
            (64, 16): {"two_phase_bruck": 1.0, "padded_bruck": 0.5,
                       "vendor": 2.0},
            (64, 256): {"two_phase_bruck": 1.0, "padded_bruck": 3.0,
                        "vendor": 2.0},
            (64, 1024): {"two_phase_bruck": 5.0, "padded_bruck": 9.0,
                         "vendor": 2.0},
        }
        model = PerformanceModel.from_measurements(THETA, meas)
        assert model.two_phase_frontier == [CrossoverPoint(64, 256)]
        assert model.padded_frontier == [CrossoverPoint(64, 16)]
        assert model.recommend(64, 100) == "two_phase_bruck"
        assert model.recommend(64, 2048) == "vendor"

    def test_missing_algorithm_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            PerformanceModel.from_measurements(
                THETA, {(64, 16): {"two_phase_bruck": 1.0}})


class TestInterpolationEdges:
    """Frontier interpolation at and beyond the fitted grid."""

    def _model(self, tp_points, padded_points=None):
        return PerformanceModel(
            machine=THETA,
            two_phase_frontier=tp_points,
            padded_frontier=padded_points
            or [CrossoverPoint(c.nprocs, 0) for c in tp_points])

    def test_below_fitted_grid_clamps_to_first_point(self):
        model = self._model([CrossoverPoint(128, 512),
                             CrossoverPoint(1024, 128)])
        assert model.two_phase_threshold(2) == 512.0
        assert model.recommend(2, 256) == "two_phase_bruck"
        assert model.recommend(2, 1024) == "vendor"

    def test_above_fitted_grid_clamps_to_last_point(self):
        model = self._model([CrossoverPoint(128, 512),
                             CrossoverPoint(1024, 128)])
        assert model.two_phase_threshold(10 ** 6) == 128.0
        assert model.recommend(10 ** 6, 100) == "two_phase_bruck"
        assert model.recommend(10 ** 6, 200) == "vendor"

    def test_dead_frontier_linear_blend(self):
        # A frontier endpoint of 0 cannot be interpolated in log space;
        # the blend into it is linear.
        model = self._model([CrossoverPoint(128, 64),
                             CrossoverPoint(256, 0)])
        assert model.two_phase_threshold(192) == pytest.approx(32.0)

    def test_log_log_midpoint_is_geometric_mean(self):
        model = self._model([CrossoverPoint(64, 128),
                             CrossoverPoint(256, 512)])
        # P = 128 is the log-space midpoint of [64, 256].
        assert model.two_phase_threshold(128) == pytest.approx(256.0)


class TestRecommendRadix:
    def _model(self):
        return PerformanceModel(
            machine=THETA,
            two_phase_frontier=[CrossoverPoint(128, 2048),
                                CrossoverPoint(32768, 2048)],
            padded_frontier=[CrossoverPoint(128, 16),
                             CrossoverPoint(32768, 16)])

    def test_vendor_pick_pins_radix_two(self):
        model = self._model()
        algo, radix = model.recommend_radix(1024, 100000)
        assert algo == "vendor"
        assert radix == 2

    def test_capable_pick_uses_closed_form(self):
        from repro.core.cost_model import best_radix
        model = self._model()
        algo, radix = model.recommend_radix(8192, 1024)
        assert algo == model.recommend(8192, 1024)
        assert radix == best_radix(8192, 1024, THETA, algorithm=algo)
        assert radix > 2  # big N * P: the radix dial pays off

    def test_matches_recommend_choice(self):
        model = self._model()
        for p, n in ((128, 8), (512, 64), (4096, 1024), (32768, 4096)):
            algo, radix = model.recommend_radix(p, n)
            assert algo == model.recommend(p, n)
            assert radix >= 2


class TestFromMeasurementsNames:
    def test_comparisons_use_registry_resolved_names(self):
        # The frontier comparisons and the missing-key check must agree
        # on names: resolved through the registry in both places.
        from repro.core import selector
        names = selector._contenders()
        meas = {(64, 32): dict(zip(names, (1.0, 3.0, 2.0)))}
        model = PerformanceModel.from_measurements(THETA, meas)
        assert model.two_phase_frontier == [CrossoverPoint(64, 32)]
        assert model.padded_frontier == [CrossoverPoint(64, 0)]

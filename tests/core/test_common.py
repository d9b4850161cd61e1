"""Unit tests for the shared Bruck index math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common import (
    block_moved_before,
    checked_counts_displs,
    num_steps,
    rotation_index_array,
    send_block_distances,
    total_send_blocks_per_step,
    validate_uniform_args,
)


class TestNumSteps:
    @pytest.mark.parametrize("p,expect", [
        (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (1024, 10),
        (1025, 11),
    ])
    def test_values(self, p, expect):
        assert num_steps(p) == expect

    def test_invalid(self):
        with pytest.raises(ValueError):
            num_steps(0)


class TestSendBlockDistances:
    def test_step0_is_odds(self):
        assert send_block_distances(0, 8) == [1, 3, 5, 7]

    def test_step1(self):
        assert send_block_distances(1, 8) == [2, 3, 6, 7]

    def test_last_step_partial_for_non_pow2(self):
        # P = 5: step 2 moves distances {4} only (5,6,7 out of range).
        assert send_block_distances(2, 5) == [4]

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            send_block_distances(-1, 4)

    @given(p=st.integers(2, 600))
    @settings(max_examples=80, deadline=None)
    def test_every_distance_moves_at_its_set_bits(self, p):
        # Union over steps of the distance sets must cover [1, P) with the
        # exact multiplicity popcount(i).
        count = {i: 0 for i in range(1, p)}
        for k in range(num_steps(p)):
            for i in send_block_distances(k, p):
                assert (i >> k) & 1
                count[i] += 1
        for i in range(1, p):
            assert count[i] == bin(i).count("1")

    @given(p=st.integers(2, 600))
    @settings(max_examples=50, deadline=None)
    def test_at_most_half_plus_one_blocks_per_step(self, p):
        # The paper: each step sends at most (P+1)/2 blocks.
        for m in total_send_blocks_per_step(p):
            assert m <= (p + 1) // 2


class TestBlockMovedBefore:
    def test_first_send_step_not_moved(self):
        # distance 4 = 0b100 first moves at step 2.
        assert not block_moved_before(4, 2)
        assert block_moved_before(5, 2)   # 0b101 moved at step 0

    @given(i=st.integers(1, 10000), k=st.integers(0, 14))
    @settings(max_examples=100, deadline=None)
    def test_matches_bit_definition(self, i, k):
        expect = any((i >> b) & 1 for b in range(k))
        assert block_moved_before(i, k) == expect


class TestRotationIndexArray:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 16])
    def test_is_permutation(self, p):
        for rank in range(p):
            rot = rotation_index_array(rank, p)
            assert sorted(rot.tolist()) == list(range(p))

    def test_formula(self):
        rot = rotation_index_array(3, 8)
        for j in range(8):
            assert rot[j] == (2 * 3 - j) % 8

    def test_self_slot_maps_to_self(self):
        # I[rank] == rank always: the self block needs no relocation.
        for p in (2, 5, 9):
            for rank in range(p):
                assert rotation_index_array(rank, p)[rank] == rank


class TestValidation:
    def test_counts_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            checked_counts_displs([1, 2], [0, 1], 3, 100, "send")

    def test_negative_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            checked_counts_displs([1, -2, 1], [0, 1, 2], 3, 100, "send")

    def test_extent_overflow_names_block(self):
        with pytest.raises(ValueError, match="block 2"):
            checked_counts_displs([1, 1, 50], [0, 1, 2], 3, 10, "send")

    def test_valid_passes(self):
        counts, displs = checked_counts_displs([3, 0, 2], [0, 3, 3], 3, 5,
                                               "recv")
        assert counts.tolist() == [3, 0, 2]

    def test_uniform_args_buffer_too_small(self):
        with pytest.raises(ValueError, match="sendbuf"):
            validate_uniform_args(np.zeros(3, dtype=np.uint8),
                                  np.zeros(64, dtype=np.uint8), 4, 4)

    def test_uniform_args_negative_block(self):
        with pytest.raises(ValueError, match="non-negative"):
            validate_uniform_args(np.zeros(64, dtype=np.uint8),
                                  np.zeros(64, dtype=np.uint8), -1, 4)


class TestRadixHelpers:
    """The base-r generalization of the digit schedule."""

    def test_validate_radix(self):
        from repro.core.common import validate_radix
        assert validate_radix(2) == 2
        assert validate_radix(16) == 16
        for bad in (1, 0, -3):
            with pytest.raises(ValueError, match="radix"):
                validate_radix(bad)

    @pytest.mark.parametrize("p,r,expect", [
        (1, 4, 0), (2, 4, 1), (4, 4, 1), (5, 4, 2), (16, 4, 2),
        (17, 4, 3), (27, 3, 3), (28, 3, 4), (32768, 8, 5),
    ])
    def test_radix_num_steps(self, p, r, expect):
        from repro.core.common import radix_num_steps
        assert radix_num_steps(p, r) == expect

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13, 17, 64])
    def test_radix_two_delegates(self, p):
        from repro.core.common import (
            bruck_substeps, radix_block_moved_before, radix_num_steps,
            radix_send_block_distances)
        assert radix_num_steps(p, 2) == num_steps(p)
        for k in range(num_steps(p)):
            assert radix_send_block_distances(k, 1, p, 2) == \
                send_block_distances(k, p)
            for i in range(1, p):
                assert radix_block_moved_before(i, k, 2) == \
                    block_moved_before(i, k)
        subs = bruck_substeps(p, 2)
        assert [s.index for s in subs] == [s.step for s in subs]
        assert [s.jump for s in subs] == [1 << s.step for s in subs]

    @pytest.mark.parametrize("p", [2, 5, 16, 17, 27, 100])
    @pytest.mark.parametrize("r", [2, 3, 4, 8, 16])
    def test_substeps_forward_once_per_nonzero_digit(self, p, r):
        # A block of distance i is forwarded once per nonzero base-r
        # digit of i — the multi-hop structure behind the radix trade:
        # higher radix means fewer nonzero digits, hence less volume.
        from collections import Counter

        from repro.core.common import bruck_substeps
        seen = Counter()
        for sub in bruck_substeps(p, r):
            assert len(sub.distances)  # empty substeps are skipped
            assert sub.jump == sub.digit * r ** sub.step
            assert sub.index == sub.step * (r - 1) + sub.digit - 1
            for i in sub.distances:
                # the digit of i at position `step` selects this substep
                assert (i // r ** sub.step) % r == sub.digit
            seen.update(sub.distances)

        def nonzero_digits(i):
            count = 0
            while i:
                count += int(i % r != 0)
                i //= r
            return count

        assert seen == {i: nonzero_digits(i) for i in range(1, p)}

    @pytest.mark.parametrize("r", [2, 3, 8])
    def test_substep_indices_dense_when_no_skips(self, r):
        from repro.core.common import bruck_substeps
        p = r ** 3  # perfect power: no empty substeps
        subs = bruck_substeps(p, r)
        assert [s.index for s in subs] == list(range(3 * (r - 1)))

    def test_moved_before_is_low_digits_nonzero(self):
        from repro.core.common import radix_block_moved_before
        # distance 9 = 100 base 3: untouched until step 2.
        assert not radix_block_moved_before(9, 0, 3)
        assert not radix_block_moved_before(9, 1, 3)
        assert not radix_block_moved_before(9, 2, 3)
        # distance 10 = 101 base 3: moved at step 0.
        assert radix_block_moved_before(10, 2, 3)

    @pytest.mark.parametrize("p", [2, 16, 17, 100])
    def test_total_forwarded_blocks_decreases_with_radix(self, p):
        from repro.core.common import total_forwarded_blocks
        totals = [total_forwarded_blocks(p, r) for r in (2, 4, 16)]
        assert totals[0] >= totals[1] >= totals[2]
        assert total_forwarded_blocks(p, p if p > 1 else 2) == p - 1


class TestScheduleCache:
    """``bruck_substeps`` is one memoised, immutable schedule per (P, r)."""

    @pytest.mark.parametrize("p", [1, 2, 5, 17, 64, 100])
    @pytest.mark.parametrize("r", [2, 3, 4, 8])
    def test_matches_the_list_helpers(self, p, r):
        # The per-substep list builders stay the reference definition.
        from repro.core.common import (
            bruck_substeps, radix_num_steps, radix_send_block_distances)
        expect = [(k, z, radix_send_block_distances(k, z, p, r))
                  for k in range(radix_num_steps(p, r))
                  for z in range(1, r)]
        expect = [e for e in expect if e[2]]
        subs = bruck_substeps(p, r)
        assert [(s.step, s.digit, s.distances.tolist()) for s in subs] \
            == expect

    def test_same_object_however_it_is_asked_for(self):
        from repro.core.common import bruck_substeps
        first = bruck_substeps(100, 3)
        assert bruck_substeps(100, radix=3) is first
        assert bruck_substeps(np.int64(100), 3) is first
        assert bruck_substeps(100) is bruck_substeps(100, 2)
        assert isinstance(first, tuple)

    def test_schedule_is_read_only(self):
        import dataclasses

        from repro.core.common import bruck_substeps
        subs = bruck_substeps(37, 4)
        for sub in subs:
            assert sub.distances.dtype == np.int64
            assert not sub.distances.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                sub.distances[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            subs[0].jump = 7
        with pytest.raises(TypeError):
            subs[0] = subs[-1]

    def test_cache_is_bounded_and_holds_arrays(self):
        # Memory discipline: a bounded number of entries, each a few
        # int64 arrays (never tuples of Python ints).
        from repro.core.common import _bruck_schedule, bruck_substeps
        assert 0 < _bruck_schedule.cache_info().maxsize <= 16
        subs = bruck_substeps(4096, 2)
        assert sum(s.distances.nbytes for s in subs) == 8 * 2048 * 12

    def test_invalid_arguments_still_raise(self):
        from repro.core.common import bruck_substeps
        with pytest.raises(ValueError, match="radix"):
            bruck_substeps(8, 1)
        with pytest.raises(ValueError, match="nprocs"):
            bruck_substeps(0, 2)


def _wrapped_diagonals(sizes):
    """The closed form ``rows[i, r] = sizes[r, (r - i) % P]``, at int64."""
    n = sizes.shape[0]
    i, rank = np.ogrid[:n, :n]
    return sizes.astype(np.int64)[rank, (rank - i) % n]


class TestBlockSizeState:
    """The distance-major block-size state and its one transition."""

    @given(p=st.integers(2, 96), r=st.sampled_from([2, 3, 4, 8]),
           band=st.sampled_from([1, 3, 7, 256]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_rows_follow_the_closed_form(self, p, r, band, seed):
        from repro.core import common
        from repro.core.common import BlockSizeState, bruck_substeps
        # Small support so the matrix is full of zeros and repeats.
        sizes = np.random.default_rng(seed).integers(0, 4, (p, p))
        # Narrow bands: several of them per matrix, the last one ragged.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(common, "_STATE_BAND", band)
            state = BlockSizeState.from_matrix(sizes)
            arrived = BlockSizeState.from_matrix(sizes.T)
        assert np.array_equal(state.rows, _wrapped_diagonals(sizes))
        ranks = np.arange(p)
        assert state.rows[0].tolist() == np.diagonal(sizes).tolist()
        for sub in bruck_substeps(p, r):
            # Reference — the index arithmetic the exact predictor used
            # before it read the state: the block at working slot
            # (i + rank) at step k originated at s = rank + (i mod r^k)
            # and is destined for s - i, so its size is sizes[s, s - i].
            dist = sub.distances
            low = dist % r ** sub.step
            s = (ranks[:, None] + low[None, :]) % p
            expect = sizes[s, (s - dist[None, :]) % p]      # [rank, a]
            moving = state.read(dist)
            assert moving.shape == (len(dist), p)
            assert np.array_equal(moving.T, expect)
            state.roll(dist, sub.jump, moving)
        # Every block has arrived: row i is what each rank receives from
        # the rank i above it — the receive-side state read backwards.
        for i in range(p):
            assert np.array_equal(state.rows[i], arrived.rows[-i % p])
            assert np.array_equal(arrived.rows[i],
                                  sizes[(ranks - i) % p, ranks])

    @pytest.mark.parametrize("p", [1, 255, 256, 257, 513])
    def test_bands_around_their_width(self, p):
        """One rank short of, at, and past one and two default bands, for
        a C-ordered matrix and for strided views of one — ``sizes.T`` is
        what ``_spread_out_exact`` passes."""
        from repro.core.common import BlockSizeState
        rng = np.random.default_rng(p)
        sizes = rng.integers(0, 300, (p, p))
        for given_sizes in (sizes, sizes.T, np.asfortranarray(sizes),
                            sizes[::-1, ::-1]):
            rows = BlockSizeState.from_matrix(given_sizes).rows
            assert rows.dtype == np.min_scalar_type(int(sizes.max()))
            assert rows.flags.c_contiguous
            assert np.array_equal(rows, _wrapped_diagonals(given_sizes))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_byte_sums_take_uint32_while_they_cannot_wrap(self, dtype):
        from repro.core.common import BlockSizeState
        top = int(np.iinfo(dtype).max)
        edge = (2 ** 32 - 1) // top        # the most rows uint32 still holds
        state = BlockSizeState(np.zeros((2, 2), dtype=dtype))
        assert edge * top < 2 ** 32 <= (edge + 1) * top
        assert state.sum_dtype(edge) == np.uint32
        assert state.sum_dtype(edge + 1) == np.int64
        # At the edge every row at the maximum still sums exactly.
        rows = np.full((min(edge, 70000), 1), top, dtype=dtype)
        assert int(rows.sum(axis=0, dtype=state.sum_dtype(edge))[0]) \
            == len(rows) * top
        # Full-width states (the constant-size lanes) always take int64.
        assert BlockSizeState(np.zeros((2, 1), dtype=np.uint64)) \
            .sum_dtype(1) == np.int64
        assert BlockSizeState.uniform(4, 64, lanes=1).sum_dtype(1) \
            == np.int64

    def test_read_into_scratch(self):
        from repro.core.common import BlockSizeState, bruck_substeps
        sizes = np.arange(49).reshape(7, 7)
        state = BlockSizeState.from_matrix(sizes)
        sub = bruck_substeps(7, 2)[1]
        # Scratch takes the state's narrow dtype; its max is the sentinel.
        sentinel = np.iinfo(state.rows.dtype).max
        scratch = np.full((5, 7), sentinel, dtype=state.rows.dtype)
        got = state.read(sub.distances, out=scratch[:len(sub.distances)])
        assert np.shares_memory(got, scratch)
        assert np.array_equal(got, state.rows[sub.distances])
        assert (scratch[len(sub.distances):] == sentinel).all()

    @given(p=st.integers(1, 64), r=st.sampled_from([2, 3, 4]),
           max_block=st.sampled_from([0, 1, 255, 256, 65535, 65536,
                                      2 ** 32]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_narrow_rows_change_no_prediction(self, p, r, max_block, seed):
        from repro.core.common import BlockSizeState
        from repro.simmpi import THETA, ExecutionConfig, run_spmd
        from repro.simmpi.tensor import TensorAlltoallv
        from repro.timing import nonuniform
        from repro.workloads import UniformBlocks

        class Int64State(BlockSizeState):
            """The reference: full-width rows from the closed form."""

            @classmethod
            def from_matrix(cls, sizes):
                return cls(_wrapped_diagonals(sizes))

        # Mostly tiny blocks, a few at the maximum: the widest value sets
        # the dtype while functional runs stay cheap.
        rng = np.random.default_rng(seed)
        sizes = rng.integers(0, min(max_block, 3) + 1, (p, p))
        sizes.flat[rng.integers(0, p * p, 1 + p // 8)] = max_block
        state = BlockSizeState.from_matrix(sizes)
        reference = Int64State.from_matrix(sizes)
        assert state.rows.dtype == np.min_scalar_type(max_block)
        assert np.array_equal(state.rows, reference.rows)

        def predict(name):
            return nonuniform.predict_alltoallv(
                name, THETA, p, UniformBlocks(max_block), mode="exact",
                radix=r if name == "two_phase_bruck" else 2,
                sizes=sizes).elapsed

        narrow = {name: predict(name)
                  for name in ("two_phase_bruck", "spread_out")}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nonuniform, "BlockSizeState", Int64State)
            assert narrow == {name: predict(name) for name in narrow}
        # A 4 GiB block is past what a functional run can allocate; every
        # other width runs the L=P tensor lanes against the coop kernel.
        if max_block < 2 ** 32:
            spec = TensorAlltoallv("two_phase_bruck", sizes, radix=r)
            clocks = [run_spmd(spec, p, config=ExecutionConfig(
                machine=THETA, trace=False, wire="phantom",
                backend=backend)).clocks for backend in ("coop", "tensor")]
            assert clocks[0] == clocks[1]

    def test_single_lane_never_rolls(self):
        from repro.core.common import BlockSizeState, bruck_substeps
        state = BlockSizeState.uniform(9, 64, lanes=1)
        assert state.rows.shape == (9, 1)
        for sub in bruck_substeps(9, 3):
            moving = state.read(sub.distances)
            assert (moving == 64).all()
            state.roll(sub.distances, sub.jump, moving)
        assert (state.rows == 64).all()
        assert BlockSizeState.uniform(9, 5, lanes=9).rows.shape == (9, 9)

    def test_rejects_non_square(self):
        from repro.core.common import BlockSizeState
        with pytest.raises(ValueError, match="square"):
            BlockSizeState.from_matrix(np.zeros((3, 4), dtype=np.int64))

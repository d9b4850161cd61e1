"""Tests for the BPRA substrate: relations, exchange, fixed point."""

import numpy as np
import pytest

from repro.bpra import (
    ExchangeStats,
    LocalRelation,
    exchange_tuples,
    hash_owner,
    run_fixpoint,
)
from repro.simmpi import LOCAL, THETA, ExecutionConfig, run_spmd


class TestHashOwner:
    def test_deterministic(self):
        assert hash_owner(42, 8) == hash_owner(42, 8)

    def test_in_range(self):
        for v in range(200):
            assert 0 <= hash_owner(v, 7) < 7

    def test_balanced_partitioning(self):
        # The "balanced" in BPRA: consecutive keys spread evenly.
        p = 8
        counts = np.zeros(p)
        for v in range(8000):
            counts[hash_owner(v, p)] += 1
        assert counts.min() > 0.7 * counts.mean()
        assert counts.max() < 1.3 * counts.mean()


class TestLocalRelation:
    def test_add_dedup(self):
        rel = LocalRelation(2)
        assert rel.add((1, 2))
        assert not rel.add((1, 2))
        assert len(rel) == 1

    def test_add_all_returns_delta(self):
        rel = LocalRelation(2)
        rel.add((1, 2))
        fresh = rel.add_all([(1, 2), (3, 4), (3, 4), (5, 6)])
        assert fresh == [(3, 4), (5, 6)]
        assert len(rel) == 3

    def test_index_matching(self):
        rel = LocalRelation(2, key_column=0)
        rel.add((7, 1))
        rel.add((7, 2))
        rel.add((8, 3))
        assert sorted(rel.matching(7)) == [(7, 1), (7, 2)]
        assert rel.matching(99) == []

    def test_key_column_selects_index(self):
        rel = LocalRelation(2, key_column=1)
        rel.add((1, 7))
        rel.add((2, 7))
        assert sorted(rel.matching(7)) == [(1, 7), (2, 7)]

    def test_arity_enforced(self):
        rel = LocalRelation(2)
        with pytest.raises(ValueError, match="arity"):
            rel.add((1, 2, 3))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            LocalRelation(0)
        with pytest.raises(ValueError):
            LocalRelation(2, key_column=5)

    def test_contains_and_iter(self):
        rel = LocalRelation(3)
        rel.add((1, 2, 3))
        assert (1, 2, 3) in rel
        assert list(rel) == [(1, 2, 3)]


class TestExchangeTuples:
    @pytest.mark.parametrize("algorithm", ["vendor", "two_phase_bruck",
                                           "padded_bruck", "spread_out"])
    def test_tuples_routed_correctly(self, algorithm):
        p = 6

        def prog(comm):
            # rank r sends tuple (r, dest, r*dest) to every dest
            outgoing = {d: [(comm.rank, d, comm.rank * d)] for d in range(p)}
            received, stats = exchange_tuples(comm, outgoing, 3,
                                              algorithm=algorithm)
            assert sorted(received) == [(s, comm.rank, s * comm.rank)
                                        for s in range(p)]
            assert stats.sent_tuples == p
            assert stats.received_tuples == p
            assert stats.comm_seconds > 0
            return stats.max_block_bytes
        res = run_spmd(prog, p, config=ExecutionConfig(machine=THETA))
        # one 3-tuple of int64 per destination: N = 24 everywhere
        assert set(res.returns) == {24}

    def test_empty_exchange(self):
        def prog(comm):
            received, stats = exchange_tuples(comm, {}, 2)
            assert received == []
            assert stats.max_block_bytes == 0
        run_spmd(prog, 4)

    def test_uneven_load(self):
        p = 4

        def prog(comm):
            outgoing = {}
            if comm.rank == 0:
                outgoing[2] = [(i, i) for i in range(10)]
            received, stats = exchange_tuples(comm, outgoing, 2)
            if comm.rank == 2:
                assert len(received) == 10
            else:
                assert received == []
            assert stats.max_block_bytes == 160
        run_spmd(prog, p)

    def test_invalid_destination(self):
        def prog(comm):
            exchange_tuples(comm, {99: [(1, 2)]}, 2)
        with pytest.raises(ValueError, match="destination"):
            run_spmd(prog, 2)

    def test_wrong_arity_payload(self):
        def prog(comm):
            exchange_tuples(comm, {0: [(1, 2, 3)]}, 2)
        with pytest.raises(ValueError, match="arity"):
            run_spmd(prog, 2)


class TestFixpoint:
    def test_counting_chain(self):
        # Rule: fact (v,) produces (v+1,) until 10, owner = hash(v+1).
        def prog(comm):
            rel = LocalRelation(1, key_column=0)
            seed = []
            if hash_owner(0, comm.size) == comm.rank:
                rel.add((0,))
                seed.append((0,))

            def rule(delta):
                out = {}
                for (v,) in delta:
                    if v < 10:
                        out.setdefault(hash_owner(v + 1, comm.size),
                                       []).append((v + 1,))
                return out

            return run_fixpoint(comm, rel, seed, rule)
        res = run_spmd(prog, 4)
        total = sum(len(f.relation) for f in res.returns)
        assert total == 11  # facts 0..10
        iters = {f.iterations for f in res.returns}
        assert len(iters) == 1  # all ranks agree

    def test_history_records_per_iteration(self):
        def prog(comm):
            rel = LocalRelation(1)
            seed = []
            if comm.rank == hash_owner(0, comm.size):
                rel.add((0,))
                seed.append((0,))

            def rule(delta):
                out = {}
                for (v,) in delta:
                    if v < 5:
                        out.setdefault(hash_owner(v + 1, comm.size),
                                       []).append((v + 1,))
                return out
            return run_fixpoint(comm, rel, seed, rule)
        res = run_spmd(prog, 3)
        fp = res.returns[0]
        assert len(fp.history) == fp.iterations
        assert fp.total_comm_seconds > 0
        assert fp.total_new_tuples >= 0

    def test_max_iterations_guard(self):
        def prog(comm):
            rel = LocalRelation(1)
            seed = []
            if comm.rank == hash_owner(0, comm.size):
                rel.add((0,))
                seed.append((0,))

            def rule(delta):  # never converges: always a new fact
                out = {}
                for (v,) in delta:
                    out.setdefault(hash_owner(v + 1, comm.size),
                                   []).append((v + 1,))
                return out
            return run_fixpoint(comm, rel, seed, rule, max_iterations=5)
        with pytest.raises(RuntimeError, match="converge"):
            run_spmd(prog, 2)

    def test_duplicate_products_deduped(self):
        def prog(comm):
            rel = LocalRelation(1)
            seed = []
            if comm.rank == hash_owner(0, comm.size):
                rel.add((0,))
                seed.append((0,))

            def rule(delta):
                out = {}
                for (v,) in delta:
                    if v < 3:
                        owner = hash_owner(v + 1, comm.size)
                        # send the same fact thrice
                        out.setdefault(owner, []).extend([(v + 1,)] * 3)
                return out
            return run_fixpoint(comm, rel, seed, rule)
        res = run_spmd(prog, 2)
        assert sum(len(f.relation) for f in res.returns) == 4  # 0..3

"""Unit tests for the network fabric: matching, FIFO, failure paths."""

from collections import defaultdict, deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from repro.simmpi import LOCAL, THETA
from repro.simmpi.errors import CommAbortedError, RankFailedError
from repro.simmpi.network import Envelope, Network


def make_net(nprocs=4, machine=LOCAL):
    return Network(nprocs, machine)


class TestPostCollect:
    def test_roundtrip(self):
        net = make_net()
        net.post(Envelope(0, 1, 7, b"hello", depart=1.0))
        env = net.collect(0, 1, 7)
        assert env.payload == b"hello"
        assert env.depart == 1.0
        assert env.nbytes == 5

    def test_fifo_per_channel(self):
        net = make_net()
        for i in range(5):
            net.post(Envelope(0, 1, 3, bytes([i]), depart=float(i)))
        got = [net.collect(0, 1, 3).payload[0] for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]

    def test_channels_are_independent(self):
        net = make_net()
        net.post(Envelope(0, 1, 1, b"a", 0.0))
        net.post(Envelope(0, 1, 2, b"b", 0.0))
        net.post(Envelope(2, 1, 1, b"c", 0.0))
        assert net.collect(2, 1, 1).payload == b"c"
        assert net.collect(0, 1, 2).payload == b"b"
        assert net.collect(0, 1, 1).payload == b"a"

    def test_statistics(self):
        net = make_net()
        net.post(Envelope(0, 1, 0, b"abc", 0.0))
        net.post(Envelope(1, 0, 0, b"defg", 0.0))
        assert net.total_messages == 2
        assert net.total_bytes == 7


class TestProbe:
    def test_probe_empty(self):
        net = make_net()
        assert net.probe(0, 1, 0) is None

    def test_probe_returns_head_size(self):
        net = make_net()
        net.post(Envelope(0, 1, 0, b"ab", 0.0))
        net.post(Envelope(0, 1, 0, b"cdef", 0.0))
        assert net.probe(0, 1, 0) == 2  # head of the FIFO

    def test_probe_does_not_consume(self):
        net = make_net()
        net.post(Envelope(0, 1, 0, b"ab", 0.0))
        net.probe(0, 1, 0)
        assert net.collect(0, 1, 0).payload == b"ab"


class TestTiming:
    def test_head_time(self):
        net = make_net(machine=THETA)
        env = Envelope(0, 1, 0, b"x" * 100, depart=2.0)
        assert net.head_time(env) == pytest.approx(2.0 + THETA.head_latency(100))

    def test_serial_time_uses_job_size_congestion(self):
        small = Network(2, THETA)
        big = Network(2048, THETA)
        env = Envelope(0, 1, 0, b"x" * 1000, 0.0)
        assert big.serial_time(env) > small.serial_time(env)


class TestFailurePaths:
    def test_post_after_shutdown_raises(self):
        net = make_net()
        net.shutdown()
        with pytest.raises(CommAbortedError):
            net.post(Envelope(0, 1, 0, b"x", 0.0))

    def test_collect_after_shutdown_raises(self):
        net = make_net()
        net.shutdown()
        with pytest.raises(CommAbortedError):
            net.collect(0, 1, 0)

    def test_first_abort_wins(self):
        net = make_net()
        net.abort(1, ValueError("first"))
        net.abort(2, ValueError("second"))
        with pytest.raises(RankFailedError, match="rank 1"):
            net.collect(0, 1, 0)

    def test_pending_summary_lists_channels(self):
        net = make_net()
        assert "no pending" in net.pending_summary()
        net.post(Envelope(0, 1, 5, b"xyz", 0.0))
        summary = net.pending_summary()
        assert "src=0 dst=1 tag=5" in summary
        assert "3 byte" in summary

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            Network(0, LOCAL)


# ----------------------------------------------------------------------
# state-machine fuzz: the fabric against a reference model
# ----------------------------------------------------------------------

NPROCS = 3
RANKS = st.integers(0, NPROCS - 1)
TAGS = st.integers(0, 1)
CLOCKS = st.floats(0.0, 10.0, allow_nan=False)
KEYS = [(s, d, t) for s in range(NPROCS) for d in range(NPROCS)
        for t in range(2)]


class FabricModel:
    """Reference semantics of the fabric outside a scheduler run."""

    def __init__(self):
        self.channels = defaultdict(deque)  # key -> posted envelopes
        self.dead = {}          # rank -> crash clock (first wins)
        self.tombstoned = {}    # rank -> detection clock (first wins)
        self.aborted_by = None  # first aborting rank
        self.shut = False
        self.messages = self.bytes = 0

    def closed_error(self):
        if self.aborted_by is not None:  # abort outranks shutdown
            return RankFailedError
        return CommAbortedError if self.shut else None

    def collectable(self, key):
        return (self.closed_error() is not None
                or bool(self.channels[key]) or key[0] in self.dead)


class FabricMachine(RuleBasedStateMachine):
    """Drives a :class:`Network` with no scheduler run.  ``collect`` only
    runs where it cannot block: a non-empty channel, a dead source, or a
    closed fabric."""

    def __init__(self):
        super().__init__()
        self.net = Network(NPROCS, LOCAL)
        self.model = FabricModel()
        self.departs = 0

    @rule(src=RANKS, dst=RANKS, tag=TAGS, nbytes=st.integers(0, 8),
          phantom=st.booleans(), lost=st.booleans())
    def post(self, src, dst, tag, nbytes, phantom, lost):
        self.departs += 1  # unique departures make FIFO order checkable
        env = Envelope(src, dst, tag, None if phantom else bytes(nbytes),
                       depart=float(self.departs), nbytes=nbytes,
                       mark="lost" if lost else None)
        error = self.model.closed_error()
        if error is not None:
            with pytest.raises(error):
                self.net.post(env)
            return
        assert self.net.post(env) is None
        self.model.channels[(src, dst, tag)].append(env)
        if not lost:  # tombstones are not traffic
            self.model.messages += 1
            self.model.bytes += nbytes

    @precondition(lambda self: any(self.model.collectable(k) for k in KEYS))
    @rule(data=st.data())
    def collect(self, data):
        key = data.draw(st.sampled_from(
            [k for k in KEYS if self.model.collectable(k)]))
        error = self.model.closed_error()
        if error is not None:
            with pytest.raises(error) as info:
                self.net.collect(*key)
            if error is RankFailedError:
                assert info.value.failed_rank == self.model.aborted_by
            return
        env = self.net.collect(*key)
        chan = self.model.channels[key]
        if chan:
            assert env is chan.popleft()  # FIFO per channel
            return
        assert env.mark == "dead" and env.nbytes == 0
        assert env.payload == b""
        assert env.depart == self.model.dead[key[0]]

    @rule(rank=RANKS, clock=CLOCKS)
    def mark_dead(self, rank, clock):
        self.net.mark_dead(rank, clock)
        self.model.dead.setdefault(rank, clock)

    @rule(rank=RANKS, clock=CLOCKS)
    def report_tombstone(self, rank, clock):
        self.net.report_tombstone(rank, clock)
        self.model.tombstoned.setdefault(rank, clock)

    @rule(rank=RANKS)
    def abort(self, rank):
        self.net.abort(rank, ValueError(f"rank {rank} failed"))
        if self.model.aborted_by is None:
            self.model.aborted_by = rank

    @rule()
    def shutdown(self):
        self.net.shutdown()
        self.model.shut = True

    @invariant()
    def statistics_match(self):
        assert self.net.total_messages == self.model.messages
        assert self.net.total_bytes == self.model.bytes

    @invariant()
    def probe_reports_head_size(self):
        for key in KEYS:
            chan = self.model.channels[key]
            assert self.net.probe(*key) == (chan[0].nbytes if chan else None)

    @invariant()
    def excision_bookkeeping_matches(self):
        assert self.net.dead_ranks == self.model.dead
        assert self.net.tombstoned_ranks == self.model.tombstoned


def test_fabric_matches_reference_model():
    run_state_machine_as_test(FabricMachine, settings=settings(
        max_examples=150, stateful_step_count=40, deadline=None))

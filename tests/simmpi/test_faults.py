"""Unit tests for the fault-injection engine.

Covers the ``FaultPlan`` spec grammar, rule matching, the injector's
per-message determinism, the drop/delay/duplicate/reorder transformations,
the reliability retransmission schedule (including retry exhaustion into a
``mark="lost"`` tombstone), and the straggler/crash rule lookups.
"""

import pytest

from repro.simmpi import (
    FAULT_KINDS,
    KNOWN_FAULT_CLAUSES,
    LOCAL,
    CrashRule,
    ExecutionConfig,
    FaultInjector,
    FaultPlan,
    FaultRule,
    MessageCorruptError,
    MessageLostError,
    ReliabilityConfig,
    StragglerRule,
    run_spmd,
)
from repro.simmpi.faults import auth_tag, payload_digest
from repro.simmpi.network import Envelope


def env(src=0, dst=1, tag=0, nbytes=64, depart=0.0):
    return Envelope(src, dst, tag, b"\0" * nbytes, depart)


class TestSpecGrammar:
    def test_full_spec_round_trip(self):
        plan = FaultPlan.parse(
            "drop:p=0.02;delay:d=50us,jitter=20us;dup:p=0.1,src=3;"
            "reorder:p=0.05,tag=7;crash:rank=5,step=200;"
            "crash:rank=6,at=2ms;straggler:ranks=0:3,factor=4")
        kinds = [r.kind for r in plan.rules]
        assert kinds == ["drop", "delay", "duplicate", "reorder"]
        assert plan.rules[0].prob == 0.02
        assert plan.rules[1].delay == pytest.approx(50e-6)
        assert plan.rules[1].jitter == pytest.approx(20e-6)
        assert plan.rules[2].src == 3
        assert plan.rules[3].tag == 7
        assert plan.crashes == (CrashRule(rank=5, step=200),
                                CrashRule(rank=6, time=2e-3))
        assert plan.stragglers == (StragglerRule(ranks=(0, 3), factor=4.0),)

    def test_time_suffixes(self):
        plan = FaultPlan.parse("delay:d=1500us;crash:rank=0,at=0.5s")
        assert plan.rules[0].delay == pytest.approx(1.5e-3)
        assert plan.crashes[0].time == pytest.approx(0.5)

    def test_empty_and_whitespace(self):
        assert FaultPlan.parse("").empty
        assert FaultPlan.parse(" ; ; ").empty

    @pytest.mark.parametrize("bad", [
        "explode:p=1",              # unknown kind
        "drop:p=2",                 # prob out of range
        "drop:frequency=1",         # unknown parameter
        "crash:step=5",             # crash without a rank
        "crash:rank=1",             # crash without step/time
        "crash:rank=1,step=0",      # step is 1-based
        "straggler:factor=2",       # straggler without ranks
        "straggler:ranks=1,factor=0.5",  # factor < 1
        "drop:p",                   # not key=value
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_duplicate_crash_rule_rejected(self):
        with pytest.raises(ValueError, match="duplicate crash"):
            FaultPlan.parse("crash:rank=1,step=2;crash:rank=1,step=9")

    def test_rule_matching_wildcards(self):
        rule = FaultRule("drop", src=1, phase="exchange")
        assert rule.matches(1, 5, 9, "exchange")
        assert not rule.matches(2, 5, 9, "exchange")
        assert not rule.matches(1, 5, 9, "rotate")
        assert FaultRule("drop").matches(7, 3, 0, None)


class TestPlanLookups:
    def test_straggle_factor_composes(self):
        plan = FaultPlan(stragglers=(StragglerRule((1, 2), 2.0),
                                     StragglerRule((2,), 3.0)))
        assert plan.straggle_factor(0) == 1.0
        assert plan.straggle_factor(1) == 2.0
        assert plan.straggle_factor(2) == 6.0

    def test_crash_rule_lookup(self):
        plan = FaultPlan(crashes=(CrashRule(rank=3, step=10),))
        assert plan.crash_rule(3).step == 10
        assert plan.crash_rule(0) is None


class TestInjectorDeterminism:
    PLAN = FaultPlan(rules=(FaultRule("drop", prob=0.3),
                            FaultRule("delay", delay=10e-6, jitter=5e-6,
                                      prob=0.5)))

    def _decisions(self, injector, n=64):
        out = []
        for i in range(n):
            e = env(depart=float(i))
            deposits, records = injector.on_post(e, None)
            out.append((len(deposits), tuple((r.kind, r.delay)
                                             for r in records)))
        return out

    def test_same_seed_same_decisions(self):
        a = self._decisions(FaultInjector(self.PLAN, seed=42))
        b = self._decisions(FaultInjector(self.PLAN, seed=42))
        assert a == b

    def test_different_seed_different_decisions(self):
        a = self._decisions(FaultInjector(self.PLAN, seed=42))
        b = self._decisions(FaultInjector(self.PLAN, seed=43))
        assert a != b

    def test_decision_depends_on_channel_not_arrival_order(self):
        # The RNG keys on (src, dst, tag, seq): interleaving posts from
        # other channels must not shift a channel's decisions.
        inj1 = FaultInjector(self.PLAN, seed=1)
        alone = [inj1.on_post(env(depart=float(i)), None)[1]
                 for i in range(8)]
        inj2 = FaultInjector(self.PLAN, seed=1)
        interleaved = []
        for i in range(8):
            interleaved.append(inj2.on_post(env(depart=float(i)), None)[1])
            inj2.on_post(env(src=5, dst=6, depart=float(i)), None)
        assert alone == interleaved


class TestTransformations:
    def test_certain_drop_without_reliability_vanishes(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule("drop"),)))
        deposits, records = inj.on_post(env(), None)
        assert deposits == []
        assert [r.kind for r in records] == ["drop"]

    def test_certain_delay_shifts_departure(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule("delay",
                                                       delay=7e-6),)))
        e = env(depart=1.0)
        deposits, records = inj.on_post(e, None)
        assert deposits == [e]
        assert e.depart == pytest.approx(1.0 + 7e-6)
        assert records[0].delay == pytest.approx(7e-6)

    def test_certain_duplicate_deposits_twice(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule("duplicate"),)))
        e = env()
        deposits, records = inj.on_post(e, None)
        assert len(deposits) == 2
        assert deposits[0] is e
        assert deposits[1].mark == "dup"
        assert deposits[1].nbytes == e.nbytes

    def test_reorder_holds_until_next_post_and_flush(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule("reorder", tag=1),)))
        first = env(tag=1)
        deposits, records = inj.on_post(first, None)
        assert deposits == []          # held
        assert records[0].kind == "reorder"
        second = env(tag=2)
        deposits, _ = inj.on_post(second, None)
        assert deposits == [second, first]  # released behind the successor
        # A hold with no successor is released by the program-end flush.
        third = env(tag=1, depart=9.0)
        deposits, _ = inj.on_post(third, None)
        assert deposits == []
        assert inj.flush(0) is third
        assert inj.flush(0) is None

    def test_phase_matcher(self):
        inj = FaultInjector(FaultPlan(rules=(
            FaultRule("drop", phase="exchange"),)))
        deposits, _ = inj.on_post(env(), "rotate")
        assert len(deposits) == 1      # wrong phase: untouched
        deposits, _ = inj.on_post(env(), "exchange")
        assert deposits == []


class TestReliability:
    def test_deadline_offset_is_backoff_sum(self):
        rel = ReliabilityConfig(rto=1e-4, backoff=2.0, max_retries=3)
        assert rel.deadline_offset() == pytest.approx(
            1e-4 * (1 + 2 + 4 + 8))

    def test_sequence_numbers_assigned_per_channel(self):
        inj = FaultInjector(FaultPlan(), reliability=ReliabilityConfig())
        a, b = env(), env()
        other = env(dst=2)
        inj.on_post(a, None)
        inj.on_post(other, None)
        inj.on_post(b, None)
        assert (a.seq, b.seq, other.seq) == (0, 1, 0)

    def test_certain_drop_exhausts_into_lost_tombstone(self):
        rel = ReliabilityConfig(rto=1e-4, backoff=2.0, max_retries=2)
        inj = FaultInjector(FaultPlan(rules=(FaultRule("drop"),)),
                            reliability=rel)
        e = env(depart=1.0)
        deposits, records = inj.on_post(e, None)
        assert deposits == [e]
        assert e.mark == "lost"
        assert e.depart == pytest.approx(1.0 + rel.deadline_offset())
        kinds = [r.kind for r in records]
        assert kinds == ["drop", "retry", "drop", "retry", "drop", "lost"]

    def test_partial_drop_delays_by_backoff(self):
        # Seed chosen so the first transmission drops and the first
        # retransmission survives: departure shifts by exactly one RTO.
        rel = ReliabilityConfig(rto=1e-4, backoff=2.0, max_retries=5)
        rule = FaultRule("drop", prob=0.5)
        found = False
        for seed in range(64):
            inj = FaultInjector(FaultPlan(rules=(rule,)), seed=seed,
                                reliability=rel)
            e = env(depart=1.0)
            deposits, records = inj.on_post(e, None)
            kinds = [r.kind for r in records]
            if kinds == ["drop", "retry"]:
                assert deposits == [e]
                assert e.mark is None
                assert e.depart == pytest.approx(1.0 + rel.rto)
                found = True
                break
        assert found, "no seed produced drop-then-recover in 64 tries"

    def test_lost_message_raises_typed_error_not_hang(self):
        import numpy as np
        plan = FaultPlan.parse("drop:p=1,src=0,dst=1")

        def prog(comm):
            buf = np.zeros(4, dtype=np.uint8)
            if comm.rank == 0:
                comm.send(buf, 1)
            elif comm.rank == 1:
                comm.recv(buf, 0)

        with pytest.raises(MessageLostError, match="lost"):
            run_spmd(prog, 2,
                     config=ExecutionConfig(machine=LOCAL, backend="coop",
                                            fault_plan=plan, on_fault="retry"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(rto=0.0)
        with pytest.raises(ValueError):
            ReliabilityConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retries=-1)


class TestSpecRoundTrip:
    """Property: ``FaultPlan.parse(plan.to_spec()) == plan`` for every
    kind × matcher combination expressible in the grammar."""

    MATCHERS = [
        {},
        {"prob": 0.25},
        {"src": 3},
        {"dst": 7},
        {"tag": 11},
        {"phase": "exchange"},
        {"prob": 0.5, "src": 1, "dst": 2, "tag": 3, "phase": "rotate"},
    ]

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("matcher", range(len(MATCHERS)))
    def test_rule_round_trip(self, kind, matcher):
        params = dict(self.MATCHERS[matcher])
        if kind == "delay":
            params.update(delay=50e-6, jitter=20e-6)
        plan = FaultPlan(rules=(FaultRule(kind, **params),))
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_crash_and_straggler_round_trip(self):
        plan = FaultPlan(
            crashes=(CrashRule(rank=5, step=200), CrashRule(rank=6, time=2e-3)),
            stragglers=(StragglerRule(ranks=(0, 3), factor=4.0),))
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_full_plan_round_trip(self):
        plan = FaultPlan(
            rules=tuple(FaultRule(k, prob=0.1 * (i + 1))
                        for i, k in enumerate(FAULT_KINDS)),
            crashes=(CrashRule(rank=1, step=9),),
            stragglers=(StragglerRule(ranks=(2,), factor=2.0),))
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_dup_alias_normalizes_to_duplicate(self):
        # "dup" parses to kind="duplicate", whose to_spec re-parses fine.
        plan = FaultPlan.parse("dup:p=0.1")
        assert plan.rules[0].kind == "duplicate"
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_parse_error_lists_all_known_clauses(self):
        with pytest.raises(ValueError) as exc:
            FaultPlan.parse("explode:p=1")
        for kind in KNOWN_FAULT_CLAUSES:
            assert kind in str(exc.value)


class TestCorruptForgeTransforms:
    def test_certain_corrupt_flips_payload_bits(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule("corrupt"),)))
        e = env()
        deposits, records = inj.on_post(e, None)
        assert deposits == [e]
        assert e.tampered
        assert e.payload != b"\0" * e.nbytes
        assert e.nbytes == 64            # size never changes: clocks agree
        assert [r.kind for r in records] == ["corrupt"]

    def test_certain_corrupt_in_phantom_skews_declared_size(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule("corrupt"),)),
                            reliability=ReliabilityConfig(verify=True))
        e = Envelope(0, 1, 0, None, 0.0, 64)   # phantom: no payload
        deposits, _ = inj.on_post(e, None)
        assert deposits == [e]
        assert e.tampered
        assert e.declared != e.nbytes

    def test_corrupt_decision_identical_across_wire_modes(self):
        plan = FaultPlan(rules=(FaultRule("corrupt", prob=0.5),))
        decisions = []
        for payload in (b"\0" * 64, None):
            inj = FaultInjector(plan, seed=9)
            got = []
            for i in range(64):
                e = Envelope(0, 1, 0, payload, float(i), 64)
                _, records = inj.on_post(e, None)
                got.append(tuple(r.kind for r in records))
            decisions.append(got)
        assert decisions[0] == decisions[1]

    def test_certain_forge_injects_spoofed_envelope_first(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule("forge"),)))
        e = env()
        deposits, records = inj.on_post(e, None)
        assert len(deposits) == 2
        forged, genuine = deposits
        assert genuine is e
        assert forged.seq is None
        assert forged.nbytes == e.nbytes
        assert forged.payload != e.payload
        assert [r.kind for r in records] == ["forge"]

    def test_forged_envelope_fails_auth_under_verify(self):
        inj = FaultInjector(FaultPlan(rules=(FaultRule("forge"),)),
                            reliability=ReliabilityConfig(verify=True))
        e = env()
        deposits, _ = inj.on_post(e, None)
        forged, genuine = deposits
        # The attacker can compute a valid checksum over its own bytes...
        assert forged.checksum == payload_digest(forged.payload)
        # ...but not the channel auth tag, which is what convicts it.
        assert forged.auth != auth_tag(forged.src, forged.dst, forged.tag,
                                       genuine.seq)
        assert genuine.auth == auth_tag(genuine.src, genuine.dst,
                                        genuine.tag, genuine.seq)

    def test_corrupt_retry_dialogue_ends_with_clean_copy(self):
        # prob=0.5 with some seed: initial tamper then a clean retry.
        rel = ReliabilityConfig(verify=True, rto=1e-4, max_retries=5)
        rule = FaultRule("corrupt", prob=0.5)
        found = False
        for seed in range(64):
            inj = FaultInjector(FaultPlan(rules=(rule,)), seed=seed,
                                reliability=rel, on_fault="retry")
            e = env(depart=1.0)
            deposits, records = inj.on_post(e, None)
            kinds = [r.kind for r in records]
            if kinds == ["corrupt", "retry"]:
                assert len(deposits) == 2
                assert deposits[0].tampered
                assert not deposits[1].tampered
                assert deposits[1].payload == b"\0" * 64
                found = True
                break
        assert found, "no seed produced corrupt-then-recover in 64 tries"

    def test_certain_corrupt_exhausts_into_corrupt_lost_tombstone(self):
        rel = ReliabilityConfig(verify=True, rto=1e-4, backoff=2.0,
                                max_retries=2)
        inj = FaultInjector(FaultPlan(rules=(FaultRule("corrupt"),)),
                            reliability=rel, on_fault="retry")
        e = env(depart=1.0)
        deposits, records = inj.on_post(e, None)
        assert deposits[-1].mark == "corrupt_lost"
        assert deposits[-1].depart == pytest.approx(
            1.0 + rel.deadline_offset())
        assert records[-1].kind == "corrupt_lost"
        # every non-tombstone deposit is a tampered copy
        assert all(d.tampered for d in deposits[:-1])


class TestVerifiedTransport:
    def _prog(self, comm):
        import numpy as np
        buf = np.arange(32, dtype=np.uint8)
        if comm.rank == 0:
            comm.send(buf, 1)
        elif comm.rank == 1:
            out = np.zeros(32, dtype=np.uint8)
            comm.recv(out, 0)
            assert out.tobytes() == buf.tobytes()

    def _cfg(self, **kw):
        defaults = dict(machine=LOCAL, backend="coop", trace="metrics",
                        reliability="verify")
        defaults.update(kw)
        return ExecutionConfig(**defaults)

    def test_clean_verify_run_is_byte_correct(self):
        run_spmd(self._prog, 2, config=self._cfg())

    def test_corrupt_fail_fast_raises_typed(self):
        with pytest.raises(MessageCorruptError) as exc:
            run_spmd(self._prog, 2, config=self._cfg(
                fault_plan="corrupt:p=1,src=0,dst=1"))
        assert exc.value.reason == "corrupt"

    def test_forge_fail_fast_raises_typed(self):
        with pytest.raises(MessageCorruptError) as exc:
            run_spmd(self._prog, 2, config=self._cfg(
                fault_plan="forge:p=1,src=0,dst=1"))
        assert exc.value.reason == "forged"

    def test_corrupt_retry_recovers_byte_correct(self):
        res = run_spmd(self._prog, 2, config=self._cfg(
            fault_plan="corrupt:p=0.5", on_fault="retry", fault_seed=3))
        counts = res.metrics.fault_counts
        assert counts.get("corrupt_detected", 0) >= 1
        assert counts["corrupt_detected"] <= counts["corrupt"]

    def test_forge_retry_rejects_and_delivers_genuine(self):
        res = run_spmd(self._prog, 2, config=self._cfg(
            fault_plan="forge:p=1,src=0,dst=1", on_fault="retry"))
        assert res.metrics.fault_counts["forge_rejected"] == 1

    def test_corrupt_exhaustion_raises_exhausted(self):
        rel = ReliabilityConfig(verify=True, max_retries=2)
        with pytest.raises(MessageCorruptError) as exc:
            run_spmd(self._prog, 2, config=self._cfg(
                reliability=rel, fault_plan="corrupt:p=1,src=0,dst=1",
                on_fault="retry"))
        assert exc.value.reason == "exhausted"

    def test_degrade_tombstones_corrupting_sender(self):
        import numpy as np

        def prog(comm):
            buf = np.arange(16, dtype=np.uint8)
            if comm.rank == 0:
                comm.send(buf, 2)
            elif comm.rank == 1:
                comm.send(buf, 2)
            else:
                a = np.zeros(16, dtype=np.uint8)
                b = np.zeros(16, dtype=np.uint8)
                comm.recv(a, 0)
                comm.recv(b, 1)
                return (a.sum(), b.sum())

        res = run_spmd(prog, 3, config=self._cfg(
            fault_plan="corrupt:p=1,src=0", on_fault="degrade"))
        assert res.degraded_ranks == [0]
        assert res.degraded
        got_a, got_b = res.returns[2]
        assert got_a == 0                       # excised sender reads zeros
        assert got_b == sum(range(16))          # honest sender intact

    def test_verify_without_faults_changes_no_bytes(self):
        # The verify tier costs simulated time but never perturbs data.
        import numpy as np

        def prog(comm):
            vals = np.full(8, comm.rank, dtype=np.uint8)
            return comm.allgather(vals).tolist()

        plain = run_spmd(prog, 4, config=self._cfg(reliability="retry"))
        verified = run_spmd(prog, 4, config=self._cfg())
        assert plain.returns == verified.returns
        assert verified.elapsed > plain.elapsed   # checksum passes cost time

    def test_reliability_verify_string_resolves(self):
        cfg = ExecutionConfig(machine=LOCAL, reliability="verify")
        assert cfg.reliability.verify
        with pytest.raises(ValueError, match="verify"):
            ExecutionConfig(machine=LOCAL, reliability="checksum")

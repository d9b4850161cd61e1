"""Bracha/Dolev reliable broadcast under Byzantine ranks and wire chaos.

Pins the two classic guarantees for ``f < P/3`` — *validity* (an honest
broadcaster's value is delivered by every honest rank) and *agreement*
(honest ranks never deliver different values) — at P ∈ {8, 16, 32}, and
the safety half of the bound at ``f >= ⌈P/3⌉``: with every liar flooding
SEND/ECHO/READY for a forged value, the forged value provably cannot
collect ``2f + 1`` READYs, so no honest rank ever delivers it (liveness
may be lost; safety is not).

The protocols run over the simulator's control plane, so the seeded
corrupt+forge+dup+reorder plans compose underneath them via the verified
transport — the app-level adversary and the wire-level adversary are
independent, and determinism holds across wire modes and schedules.
"""

import math
from functools import partial

import pytest

from repro.simmpi import ExecutionConfig, THETA, run_spmd
from repro.workloads import (
    FORGED_VALUE,
    bracha_broadcast,
    dolev_broadcast,
    get_byzantine_workload,
    list_byzantine_workloads,
)

VALUE = "the-genuine-payload"

#: Wire-level chaos layered under the app-level adversary.  No drops: a
#: lockstep round protocol cannot complete if a message never arrives,
#: and masking drops is the (already-tested) retry transport's job.
CHAOS_PLAN = "corrupt:p=0.04;forge:p=0.03;dup:p=0.06;reorder:p=0.06"


def _bracha_prog(comm, **kw):
    return bracha_broadcast(comm, VALUE, **kw)


def _dolev_prog(comm, **kw):
    return dolev_broadcast(comm, VALUE, **kw)


def _cfg(**kw):
    defaults = dict(machine=THETA, wire="bytes", trace="metrics")
    defaults.update(kw)
    return ExecutionConfig(**defaults)


def _honest(result):
    return [o for o in result.returns if not o.byzantine]


class TestBrachaAgreementValidity:
    @pytest.mark.parametrize("nprocs", [8, 16, 32])
    def test_validity_under_max_tolerable_liars(self, nprocs):
        """Honest broadcaster, f = max tolerable liars flooding a forged
        value: every honest rank delivers the genuine value."""
        f = (nprocs - 1) // 3
        byz = tuple(range(1, 1 + f))
        result = run_spmd(
            partial(_bracha_prog, broadcaster=0, f=f, byzantine=byz,
                    strategy="forge"),
            nprocs, config=_cfg())
        honest = _honest(result)
        assert len(honest) == nprocs - f
        assert {o.delivered for o in honest} == {VALUE}

    @pytest.mark.parametrize("nprocs", [8, 16, 32])
    def test_agreement_under_equivocating_broadcaster(self, nprocs):
        """A Byzantine broadcaster sends different values to different
        ranks: honest ranks may fail to deliver, but those that do
        deliver must agree on one value."""
        f = (nprocs - 1) // 3
        byz = (0,) + tuple(range(2, 1 + f))   # broadcaster itself lies
        result = run_spmd(
            partial(_bracha_prog, broadcaster=0, f=f, byzantine=byz,
                    strategy="equivocate"),
            nprocs, config=_cfg())
        delivered = {o.delivered for o in _honest(result)
                     if o.delivered is not None}
        assert len(delivered) <= 1, delivered

    def test_silent_liars_cost_liveness_not_safety(self):
        """Crash-style Byzantine ranks (send nothing): the genuine value
        still goes through for f < P/3."""
        result = run_spmd(
            partial(_bracha_prog, broadcaster=0, f=2, byzantine=(3, 6),
                    strategy="silent"),
            8, config=_cfg())
        assert {o.delivered for o in _honest(result)} == {VALUE}


class TestBrachaSafetyBound:
    @pytest.mark.parametrize("nprocs", [8, 9, 16])
    def test_forged_value_never_delivered_at_or_above_the_bound(
            self, nprocs):
        """f >= ⌈P/3⌉ flooding liars: delivery of the forged value needs
        2f+1 READYs, but only the f liars ever READY it (honest ranks
        neither see an echo quorum for it nor amplify below f+1), so no
        honest rank can deliver it — safety survives the broken bound."""
        f = math.ceil(nprocs / 3)
        byz = tuple(range(1, 1 + f))
        result = run_spmd(
            partial(_bracha_prog, broadcaster=0, f=f, byzantine=byz,
                    strategy="forge"),
            nprocs, config=_cfg())
        honest = _honest(result)
        assert all(o.delivered != FORGED_VALUE for o in honest)
        for o in honest:
            # The forged value's READY support is exactly the liars.
            assert o.ready_counts.get(FORGED_VALUE, 0) <= f
            assert o.ready_counts.get(FORGED_VALUE, 0) < 2 * f + 1


class TestDolev:
    @pytest.mark.parametrize("nprocs,f", [(8, 2), (16, 5), (32, 10)])
    def test_relay_delivers_for_f_liars(self, nprocs, f):
        byz = tuple(range(2, 2 + f))
        result = run_spmd(
            partial(_dolev_prog, broadcaster=0, f=f, byzantine=byz,
                    strategy="forge"),
            nprocs, config=_cfg())
        honest = _honest(result)
        assert {o.delivered for o in honest} == {VALUE}
        for o in honest:
            assert o.voucher_counts.get(FORGED_VALUE, 0) <= f

    def test_forged_value_lacks_vouchers(self):
        """f liars can produce at most f vouchers for the forged value —
        one short of the f+1 the delivery rule demands."""
        result = run_spmd(
            partial(_dolev_prog, broadcaster=0, f=3, byzantine=(1, 4, 6),
                    strategy="forge"),
            12, config=_cfg())
        for o in _honest(result):
            assert o.delivered == VALUE
            assert o.voucher_counts.get(FORGED_VALUE, 0) == 3


class TestUnderWireChaos:
    @pytest.mark.parametrize("wire", ["bytes", "phantom"])
    def test_bracha_survives_seeded_chaos_under_verify(self, wire):
        """The tentpole composition: app-level liars AND wire-level
        corrupt+forge+dup+reorder, masked by the verified transport —
        validity still holds, on both wires."""
        result = run_spmd(
            partial(_bracha_prog, broadcaster=0, f=2, byzantine=(1, 4),
                    strategy="forge"),
            16, config=_cfg(wire=wire, reliability="verify",
                            on_fault="retry", fault_plan=CHAOS_PLAN,
                            fault_seed=11))
        assert {o.delivered for o in _honest(result)} == {VALUE}
        counts = result.metrics.fault_counts
        assert counts.get("corrupt", 0) > 0, "plan injected nothing"

    def test_chaos_runs_bit_identical_across_matrix(self):
        """Clocks and fault counts agree across both wire cells for the
        chaos-composed Bracha run."""
        signatures = set()
        for wire in ("bytes", "phantom"):
            result = run_spmd(
                partial(_bracha_prog, broadcaster=0, f=2, byzantine=(1, 4),
                        strategy="forge"),
                16, config=_cfg(wire=wire, reliability="verify",
                                on_fault="retry", fault_plan=CHAOS_PLAN,
                                fault_seed=11))
            signatures.add((tuple(result.clocks),
                            tuple(sorted(
                                result.metrics.fault_counts.items()))))
        assert len(signatures) == 1


class TestRegistry:
    def test_workloads_registered(self):
        assert list_byzantine_workloads() == ["bracha", "dolev"]
        assert get_byzantine_workload("bracha") is bracha_broadcast
        assert get_byzantine_workload("dolev") is dolev_broadcast

    def test_unknown_workload_names_known_ones(self):
        with pytest.raises(KeyError, match="bracha"):
            get_byzantine_workload("paxos")

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            run_spmd(partial(_bracha_prog, strategy="bribe"), 4,
                     config=_cfg())

"""Deterministic fault injection and the reliability model.

The simulator's clean-fabric assumption (every posted message arrives,
exactly once, in FIFO order) is what PR 2's failure semantics tear down
*after* something already went wrong.  This module is the other half of a
robustness story: a way to *cause* faults on purpose, deterministically,
and to *tolerate* them with a measurable cost.

Three pieces:

* :class:`FaultPlan` — a declarative, pure-literal description of what to
  break: per-message **drop**, **delay/jitter**, **duplicate**,
  **reorder**, **corrupt** (seeded bit-flips; in phantom wire mode a
  tamper flag plus a declared-vs-actual size skew, so detection works
  without payload bytes) and **forge** (a spoofed envelope synthesized on
  a matched channel) rules matched by ``(src, dst, tag, phase)``;
  **crash** rules killing a rank at its *k*-th communication operation or
  at a simulated time; **straggler** rules multiplying a rank's
  CPU/serialization charges.  Plans parse from a compact CLI spec grammar
  (:meth:`FaultPlan.parse`) and print back to it (:meth:`FaultPlan.to_spec`).
* :class:`ReliabilityConfig` — the opt-in transport ladder: acked
  delivery with per-channel sequence numbers, retransmission of dropped
  messages with exponential backoff up to a cap (each retry *delays* the
  delivery in simulated time — the cost of reliability is measurable),
  duplicate suppression, and in-order reassembly of reordered messages.
  A message whose every retransmission is dropped surfaces as a typed
  :class:`~repro.simmpi.errors.MessageLostError` at its simulated
  retry-exhaustion deadline — never a hang.  The ``verify=True`` tier
  (``reliability="verify"``) additionally stamps every posted envelope
  with a blake2b payload checksum and a ``(src, channel-seq)`` auth tag;
  the receiving communicator checks both at delivery and turns a failed
  check into a typed :class:`~repro.simmpi.errors.MessageCorruptError`,
  a NACK + retransmission, or a sender tombstone, depending on the
  ``on_fault`` policy.
* :class:`FaultInjector` — the engine the
  :class:`~repro.simmpi.network.Network` consults on its post hot path.

Determinism
-----------
Every probabilistic decision is a **pure function of the message's
identity**, never of arrival order: the RNG for message *n* on channel
``(src, dst, tag)`` is seeded from ``(plan seed, src, dst, tag, n)``
(per-channel sequence numbers are deterministic because each channel has
a single sender posting in program order).  The order in which ranks run
therefore cannot change any fault decision, and the same ``(plan, seed)``
produces bit-identical per-rank clocks, message counts, and fault-event
sequences under every schedule, for both wire modes —
``tests/simmpi/test_backend_equivalence.py`` and
``tests/simmpi/test_schedule_independence.py`` enforce exactly that.

All injected faults are charged under the LogGP cost model in *simulated*
time (a delayed message departs later; a retransmitted message arrives
after its backoff schedule; a straggler pays multiplied ``o``/``beta``
charges).  No fault consults the host clock.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .network import ChannelKey, Envelope

__all__ = [
    "FaultRule",
    "CrashRule",
    "StragglerRule",
    "FaultPlan",
    "ReliabilityConfig",
    "FaultRecord",
    "FaultInjector",
    "FAULT_KINDS",
    "KNOWN_FAULT_CLAUSES",
    "auth_tag",
    "payload_digest",
]

#: Message-level fault kinds a :class:`FaultRule` can inject.
FAULT_KINDS = ("drop", "delay", "duplicate", "reorder", "corrupt", "forge")

#: Every clause kind the ``--faults`` grammar accepts: the message-level
#: rules plus the rank-level crash/straggler clauses.  The single source
#: of truth for "known kinds" listings (parse errors, CLI help) — a new
#: kind added to :data:`FAULT_KINDS` can never drift out of them.
KNOWN_FAULT_CLAUSES = FAULT_KINDS + ("crash", "straggler")


def auth_tag(src: int, dst: int, tag: int, seq: Optional[int]) -> int:
    """The verified transport's per-message authentication tag.

    A pure function of the message's channel identity ``(src, dst, tag,
    seq)`` — the simulator's stand-in for a MAC under a shared channel
    key.  Stamped by :meth:`FaultInjector.on_post`, recomputed and
    compared by the receiving communicator; a forged envelope cannot
    carry a valid tag because the forger (the fault engine acting as the
    adversary) stamps garbage instead of this value.
    """
    key = f"auth|{src}|{dst}|{tag}|{seq}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def payload_digest(payload: bytes) -> int:
    """blake2b checksum of a payload, as stamped on verified envelopes."""
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class FaultRule:
    """One message-matched fault rule.

    ``src``/``dst``/``tag``/``phase`` of ``None`` are wildcards; ``phase``
    matches the *sender's* innermost open ``comm.phase(...)`` name at post
    time.  ``prob`` is the per-message firing probability (per
    *transmission attempt* for ``drop`` and ``corrupt`` under
    reliability).  ``delay`` and ``jitter`` apply to ``kind="delay"``: the
    message's departure is shifted by ``delay + U[0, jitter)`` simulated
    seconds.  ``corrupt`` flips 1–4 seeded payload bits (in phantom wire
    mode it skews the envelope's declared size instead, so the verified
    transport detects the tamper without payload bytes); ``forge``
    deposits a spoofed envelope — same channel, adversarial contents,
    invalid auth — in front of the genuine message.
    """

    kind: str
    src: Optional[int] = None
    dst: Optional[int] = None
    tag: Optional[int] = None
    phase: Optional[str] = None
    prob: float = 1.0
    delay: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if self.delay < 0 or self.jitter < 0:
            raise ValueError("delay and jitter must be non-negative")

    def matches(self, src: int, dst: int, tag: int,
                phase: Optional[str]) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst)
                and (self.tag is None or self.tag == tag)
                and (self.phase is None or self.phase == phase))

    def to_spec(self) -> str:
        """This rule as one clause of the ``--faults`` grammar.

        Only non-default parameters are emitted, so
        ``FaultRule.to_spec()`` round-trips through
        :meth:`FaultPlan.parse` to an equal rule.
        """
        params = []
        if self.prob != 1.0:
            params.append(f"p={self.prob!r}")
        if self.delay:
            params.append(f"d={self.delay!r}")
        if self.jitter:
            params.append(f"jitter={self.jitter!r}")
        for name in ("src", "dst", "tag", "phase"):
            value = getattr(self, name)
            if value is not None:
                params.append(f"{name}={value}")
        return self.kind + (":" + ",".join(params) if params else "")


@dataclass(frozen=True)
class CrashRule:
    """Kill ``rank`` at its ``step``-th communication operation (1-based
    count over posted sends + receives) or at the first operation where
    its simulated clock reaches ``time`` seconds."""

    rank: int
    step: Optional[int] = None
    time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.step is None and self.time is None:
            raise ValueError("crash rule needs step= or time=")
        if self.step is not None and self.step < 1:
            raise ValueError("crash step is 1-based; must be >= 1")

    def to_spec(self) -> str:
        params = [f"rank={self.rank}"]
        if self.step is not None:
            params.append(f"step={self.step}")
        if self.time is not None:
            params.append(f"at={self.time!r}")
        return "crash:" + ",".join(params)


@dataclass(frozen=True)
class StragglerRule:
    """Multiply the CPU/serialization charges (``o_send``, ``o_recv`` and
    the per-byte landing cost) of ``ranks`` by ``factor``."""

    ranks: Tuple[int, ...]
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"straggler factor must be >= 1, got {self.factor}")

    def to_spec(self) -> str:
        ranks = ":".join(str(r) for r in self.ranks)
        return f"straggler:ranks={ranks},factor={self.factor!r}"


@dataclass(frozen=True)
class FaultPlan:
    """A declarative bundle of fault rules (pure literal, no callables).

    Build directly::

        plan = FaultPlan(
            rules=(FaultRule("drop", prob=0.02),
                   FaultRule("delay", delay=50e-6, jitter=20e-6)),
            crashes=(CrashRule(rank=3, step=40),),
            stragglers=(StragglerRule(ranks=(5,), factor=4.0),),
        )

    or parse the CLI spec grammar (rules separated by ``;``, parameters by
    ``,``)::

        FaultPlan.parse("drop:p=0.02;delay:d=50us,jitter=20us;"
                        "crash:rank=3,step=40;straggler:ranks=5,factor=4")
    """

    rules: Tuple[FaultRule, ...] = ()
    crashes: Tuple[CrashRule, ...] = ()
    stragglers: Tuple[StragglerRule, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for c in self.crashes:
            if c.rank in seen:
                raise ValueError(f"duplicate crash rule for rank {c.rank}")
            seen.add(c.rank)

    @property
    def empty(self) -> bool:
        return not (self.rules or self.crashes or self.stragglers)

    def straggle_factor(self, rank: int) -> float:
        factor = 1.0
        for s in self.stragglers:
            if rank in s.ranks:
                factor *= s.factor
        return factor

    def crash_rule(self, rank: int) -> Optional[CrashRule]:
        for c in self.crashes:
            if c.rank == rank:
                return c
        return None

    def to_spec(self) -> str:
        """Print this plan back to the ``--faults`` grammar.

        The inverse of :meth:`parse`: ``FaultPlan.parse(plan.to_spec())
        == plan`` for every plan expressible in the grammar (the
        round-trip property ``tests/simmpi/test_faults.py`` pins).
        """
        clauses = [r.to_spec() for r in self.rules]
        clauses += [c.to_spec() for c in self.crashes]
        clauses += [s.to_spec() for s in self.stragglers]
        return ";".join(clauses)

    # ------------------------------------------------------------------
    # spec grammar
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the compact ``--faults`` grammar.

        ``spec`` is ``;``-separated clauses, each ``kind:key=val,...``:

        ========== =====================================================
        clause     parameters
        ========== =====================================================
        drop       ``p`` (prob), ``src``, ``dst``, ``tag``, ``phase``
        delay      ``d`` (seconds; ``us``/``ms`` suffixes ok), ``jitter``,
                   ``p``, ``src``, ``dst``, ``tag``, ``phase``
        dup        same matchers as drop (``duplicate`` also accepted)
        reorder    same matchers as drop
        corrupt    same matchers as drop (seeded payload bit-flips)
        forge      same matchers as drop (spoofed envelope injection)
        crash      ``rank``, ``step`` (1-based op index) or ``at`` (sim s)
        straggler  ``ranks`` (``:``-separated), ``factor``
        ========== =====================================================

        Example: ``drop:p=0.02;straggler:ranks=0:3,factor=4;crash:rank=5,step=200``
        """
        rules: List[FaultRule] = []
        crashes: List[CrashRule] = []
        stragglers: List[StragglerRule] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            kind, _, params = clause.partition(":")
            kind = kind.strip().lower()
            kv = _parse_params(params, clause)
            if kind in ("dup", "duplicate"):
                kind = "duplicate"
            if kind in FAULT_KINDS:
                rules.append(FaultRule(
                    kind=kind,
                    src=_get_int(kv, "src"),
                    dst=_get_int(kv, "dst"),
                    tag=_get_int(kv, "tag"),
                    phase=kv.pop("phase", None),
                    prob=_get_float(kv, "p", _get_float(kv, "prob", 1.0)),
                    delay=_get_time(kv, "d", _get_time(kv, "delay", 0.0)),
                    jitter=_get_time(kv, "jitter", 0.0),
                ))
            elif kind == "crash":
                rank = _get_int(kv, "rank")
                if rank is None:
                    raise ValueError(f"crash clause needs rank=: {clause!r}")
                crashes.append(CrashRule(
                    rank=rank, step=_get_int(kv, "step"),
                    time=_get_time(kv, "at", _get_time(kv, "time", None))))
            elif kind == "straggler":
                ranks_s = kv.pop("ranks", None) or kv.pop("rank", None)
                if ranks_s is None:
                    raise ValueError(
                        f"straggler clause needs ranks=: {clause!r}")
                ranks = tuple(int(r) for r in str(ranks_s).split(":"))
                stragglers.append(StragglerRule(
                    ranks=ranks, factor=_get_float(kv, "factor", 2.0)))
            else:
                raise ValueError(
                    f"unknown fault clause kind {kind!r} in {clause!r}; "
                    f"known: {KNOWN_FAULT_CLAUSES}")
            if kv:
                raise ValueError(
                    f"unknown parameter(s) {sorted(kv)} in clause {clause!r}")
        return cls(rules=tuple(rules), crashes=tuple(crashes),
                   stragglers=tuple(stragglers))


def _parse_params(params: str, clause: str) -> Dict[str, str]:
    kv: Dict[str, str] = {}
    for part in params.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, val = part.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {part!r} in {clause!r}")
        kv[key.strip().lower()] = val.strip()
    return kv


def _get_int(kv: Dict[str, str], key: str,
             default: Optional[int] = None) -> Optional[int]:
    return int(kv.pop(key)) if key in kv else default


def _get_float(kv: Dict[str, str], key: str, default: float) -> float:
    return float(kv.pop(key)) if key in kv else default


def _get_time(kv: Dict[str, str], key: str, default):
    """Parse a simulated-time literal; bare numbers are seconds, with
    ``us``/``ms``/``s`` suffixes accepted."""
    if key not in kv:
        return default
    text = kv.pop(key).lower()
    scale = 1.0
    for suffix, s in (("us", 1e-6), ("ms", 1e-3), ("s", 1.0)):
        if text.endswith(suffix):
            text, scale = text[: -len(suffix)], s
            break
    return float(text) * scale


@dataclass(frozen=True)
class ReliabilityConfig:
    """Parameters of the ``reliability="retry"`` transport.

    All times are *simulated* seconds.  A dropped transmission is
    retransmitted after ``rto * backoff**i`` (attempt ``i``), up to
    ``max_retries`` retransmissions; exhaustion surfaces as
    :class:`~repro.simmpi.errors.MessageLostError` at the simulated
    deadline.  ``ack_overhead`` charges the receiver one ``o_send`` per
    delivered message (the ack injection), so reliability costs simulated
    time even on a clean fabric.

    ``verify=True`` is the top rung of the reliability ladder
    (``reliability="verify"``): every posted envelope is stamped with a
    blake2b payload checksum and a ``(src, channel-seq)`` auth tag, both
    checked at delivery.  The check costs one ``copy_time(nbytes)`` at
    each end (hashing is a pass over the bytes), so verification has a
    measurable simulated price even on a clean fabric.
    """

    rto: float = 100e-6
    backoff: float = 2.0
    max_retries: int = 5
    ack_overhead: bool = True
    verify: bool = False

    def __post_init__(self) -> None:
        if self.rto <= 0:
            raise ValueError("rto must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def deadline_offset(self) -> float:
        """Total simulated wait after which a message is declared lost."""
        return sum(self.rto * self.backoff ** i
                   for i in range(self.max_retries + 1))


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, as reported by the network's post path.

    ``clock`` is the simulated time the fault takes effect (departure for
    drops/dups, delayed departure for delays, the retransmission instant
    for retries).
    """

    kind: str
    src: int
    dst: int
    tag: int
    nbytes: int
    clock: float
    detail: str = ""
    #: Simulated seconds this event added to the message's departure
    #: (``delay`` rules and ``retry`` backoffs; zero otherwise).
    delay: float = 0.0


class FaultInjector:
    """The per-run fault engine, shared by every rank through the network.

    Exactly one rank runs at a time, so the engine's state needs no lock.
    Per-channel counters are touched only by that channel's single sender,
    so their values are deterministic regardless of interleaving.
    """

    def __init__(self, plan: Optional[FaultPlan], seed: int = 0,
                 reliability: Optional[ReliabilityConfig] = None,
                 on_fault: str = "fail-fast") -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = int(seed)
        self.reliability = reliability
        #: The run's failure policy.  The injector needs it because the
        #: verified transport's retransmission dialogue is precomputed at
        #: post time: a corrupted copy is followed by its retransmissions
        #: only when the receiver would actually NACK (``on_fault=
        #: "retry"``), never under fail-fast/degrade.
        self.on_fault = on_fault
        #: Per-channel post counters: message identity for RNG seeding and
        #: (under reliability) the wire sequence number.
        self._chan_seq: Dict[ChannelKey, int] = {}
        #: Reorder holds, keyed by *sender*: a held message is deposited
        #: behind the sender's next post (any channel), or at program end
        #: via :meth:`flush` — both pure program-order triggers, so the
        #: perturbed deposit order is still deterministic.
        self._held: Dict[int, Envelope] = {}

    # ------------------------------------------------------------------
    def _rng(self, src: int, dst: int, tag: int, seq: int,
             salt: str = "") -> random.Random:
        """Per-message RNG: a pure function of the message identity.

        ``salt`` gives each independent decision family (corrupt, forge)
        its own stream, so e.g. a plan with both ``drop:p=0.1`` and
        ``corrupt:p=0.1`` does not fire them on exactly the same
        messages.
        """
        text = f"{self.seed}|{src}|{dst}|{tag}|{seq}"
        if salt:
            text += f"|{salt}"
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        return random.Random(int.from_bytes(digest, "big"))

    @property
    def verify(self) -> bool:
        """True when the verified-transport tier is on."""
        return self.reliability is not None and self.reliability.verify

    def straggle_factor(self, rank: int) -> float:
        return self.plan.straggle_factor(rank)

    def crash_rule(self, rank: int) -> Optional[CrashRule]:
        return self.plan.crash_rule(rank)

    # ------------------------------------------------------------------
    def on_post(self, env: Envelope, phase: Optional[str]
                ) -> Tuple[List[Envelope], List[FaultRecord]]:
        """Transform one posted envelope into the envelope(s) to deposit.

        Returns ``(deposits, records)``: the envelopes that actually enter
        the channel (possibly empty for a drop or a reorder hold, possibly
        several for duplicates or a released reorder) and the fault
        records describing every injected event.
        """
        key = (env.src, env.dst, env.tag)
        seq = self._chan_seq.get(key, 0)
        self._chan_seq[key] = seq + 1
        if self.reliability is not None:
            env.seq = seq
            if self.reliability.verify:
                # Verified-transport stamps.  ``declared`` mirrors the
                # true size so phantom-mode tampering (a size skew) is
                # detectable without payload bytes.
                env.auth = auth_tag(env.src, env.dst, env.tag, seq)
                env.declared = env.nbytes
                if env.payload is not None:
                    env.checksum = payload_digest(env.payload)

        records: List[FaultRecord] = []
        rng: Optional[random.Random] = None

        def fired(rule: FaultRule) -> bool:
            nonlocal rng
            if rule.prob >= 1.0:
                return True
            if rng is None:
                rng = self._rng(env.src, env.dst, env.tag, seq)
            return rng.random() < rule.prob

        dropped = False
        duplicate = False
        reorder = False
        corrupt_rule: Optional[FaultRule] = None
        forge_rule: Optional[FaultRule] = None
        for rule in self.plan.rules:
            if not rule.matches(env.src, env.dst, env.tag, phase):
                continue
            if rule.kind == "drop" and not dropped:
                dropped = self._apply_drop(env, rule, seq, records)
            elif rule.kind == "delay":
                if fired(rule):
                    extra = rule.delay
                    if rule.jitter > 0.0:
                        if rng is None:
                            rng = self._rng(env.src, env.dst, env.tag, seq)
                        extra += rng.random() * rule.jitter
                    env.depart += extra
                    records.append(FaultRecord(
                        "delay", env.src, env.dst, env.tag, env.nbytes,
                        env.depart, f"+{extra:.3g}s", delay=extra))
            elif rule.kind == "duplicate":
                duplicate = duplicate or fired(rule)
            elif rule.kind == "reorder":
                reorder = reorder or fired(rule)
            elif rule.kind == "corrupt" and corrupt_rule is None:
                corrupt_rule = rule
            elif rule.kind == "forge" and forge_rule is None:
                forge_rule = rule

        deposits: List[Envelope] = []
        if dropped and env.mark != "lost":
            # Fully dropped, no reliability: the message vanishes.  The
            # receiver's blocked collect is the deadlock detector's
            # problem now — a typed error, never a hang.
            pass
        else:
            deposits.append(env)
            if duplicate and not dropped:
                dup = Envelope(env.src, env.dst, env.tag, env.payload,
                               env.depart, env.nbytes, seq=env.seq,
                               mark="dup")
                # A duplicate is a re-send of the genuine message, so it
                # carries the genuine stamps (taken before any tamper —
                # corrupt runs below and replaces, never mutates, the
                # stamped fields).
                dup.auth = env.auth
                dup.checksum = env.checksum
                dup.declared = env.declared
                deposits.append(dup)
                records.append(FaultRecord(
                    "duplicate", env.src, env.dst, env.tag, env.nbytes,
                    env.depart))

        # Byzantine injections.  Corrupt tampers the delivered copy
        # (post-drop-resolution, so a retransmitted survivor can still be
        # corrupted) and, under the verified transport's retry policy,
        # precomputes the NACK/retransmission dialogue.  Forge deposits a
        # spoofed envelope *in front of* the genuine traffic on the same
        # channel — single-sender program order keeps the perturbed
        # deposit order deterministic.
        if corrupt_rule is not None and deposits and env.mark != "lost":
            self._apply_corrupt(env, corrupt_rule, seq, deposits, records)
        if forge_rule is not None:
            forged = self._apply_forge(env, forge_rule, seq, records)
            if forged is not None:
                deposits.insert(0, forged)

        # Reorder bookkeeping: a held predecessor from this sender is
        # released *behind* whatever this post deposits (adjacent posts
        # swap deposit order); a fresh reorder hit holds this message for
        # the sender's next post.  Messages within one channel really
        # invert (FIFO broken — the injected fault); across channels only
        # the deposit instant moves, which the receiver matches by tag
        # anyway.  :meth:`flush` releases a sender's final hold when its
        # program returns, so a hold can never outlive the run.
        held = self._held.pop(env.src, None)
        if reorder and held is None and deposits:
            self._held[env.src] = deposits.pop(0)
            records.append(FaultRecord(
                "reorder", env.src, env.dst, env.tag, env.nbytes,
                env.depart, "held behind sender's next post"))
        if held is not None:
            deposits.append(held)
        return deposits, records

    def flush(self, sender: int) -> Optional[Envelope]:
        """Release ``sender``'s outstanding reorder hold, if any.

        Called (through the network) when the sender's rank program
        returns; the envelope is deposited then, guaranteeing no message
        is held forever.
        """
        return self._held.pop(sender, None)

    def _apply_drop(self, env: Envelope, rule: FaultRule, seq: int,
                    records: List[FaultRecord]) -> bool:
        """Decide the fate of one message under a drop rule.

        Without reliability a single draw decides delivery.  With
        reliability each transmission attempt draws independently; the
        first surviving attempt delivers the message delayed by the
        accumulated backoff, and exhaustion converts the envelope into a
        ``mark="lost"`` tombstone carrying its simulated deadline (so the
        receiver fails typed instead of hanging).
        """
        rng = self._rng(env.src, env.dst, env.tag, seq)
        if rng.random() >= rule.prob:
            return False
        records.append(FaultRecord(
            "drop", env.src, env.dst, env.tag, env.nbytes, env.depart))
        rel = self.reliability
        if rel is None:
            return True
        delay = 0.0
        for attempt in range(rel.max_retries):
            step = rel.rto * rel.backoff ** attempt
            delay += step
            records.append(FaultRecord(
                "retry", env.src, env.dst, env.tag, env.nbytes,
                env.depart + delay, f"attempt {attempt + 1}", delay=step))
            if rng.random() >= rule.prob:  # this retransmission survives
                env.depart += delay
                return False
            records.append(FaultRecord(
                "drop", env.src, env.dst, env.tag, env.nbytes,
                env.depart + delay, f"retry {attempt + 1} dropped"))
        # Every attempt dropped: tombstone at the exhaustion deadline.
        delay += rel.rto * rel.backoff ** rel.max_retries
        env.mark = "lost"
        env.payload = b""
        env.depart += delay
        records.append(FaultRecord(
            "lost", env.src, env.dst, env.tag, env.nbytes, env.depart,
            f"gave up after {rel.max_retries} retries"))
        return True

    # ------------------------------------------------------------------
    # Byzantine injections
    # ------------------------------------------------------------------
    @staticmethod
    def _tamper(env: Envelope, rng: random.Random) -> int:
        """Corrupt one envelope in place; returns the bit-flip count.

        Every random draw happens in both wire modes and depends only on
        ``nbytes`` (wire-identical), so the decision stream — and with it
        every later fault decision — is bit-identical across bytes and
        phantom.  Bytes mode (and any control-plane message, which
        carries payload in both modes) flips distinct payload bits, so
        the tampered bytes always differ from the original; phantom
        data envelopes skew the declared size instead — the wire image
        the checksum/size check sees is wrong either way, while
        ``nbytes`` (the cost driver) never changes.
        """
        nbits = env.nbytes * 8
        k = min(1 + rng.randrange(4), nbits)
        positions = rng.sample(range(nbits), k)
        skew = 1 + rng.randrange(255)
        env.tampered = True
        if env.payload is not None:
            data = bytearray(env.payload)
            for pos in positions:
                data[pos >> 3] ^= 1 << (pos & 7)
            env.payload = bytes(data)
        else:
            env.declared = env.nbytes + skew
        return k

    def _apply_corrupt(self, env: Envelope, rule: FaultRule, seq: int,
                       deposits: List[Envelope],
                       records: List[FaultRecord]) -> None:
        """Decide and apply in-flight corruption of one message.

        Without the verified transport the tampered copy is simply
        delivered — silent corruption is exactly the failure mode the
        verify tier exists to rule out.  With ``verify`` + ``on_fault=
        "retry"`` the receiver NACKs a failed check, so the dialogue is
        precomputed here like :meth:`_apply_drop`'s: each retransmission
        attempt draws corruption independently; the first clean copy ends
        the exchange, and exhaustion deposits a ``mark="corrupt_lost"``
        tombstone the receiver converts into a typed
        :class:`~repro.simmpi.errors.MessageCorruptError` at the
        simulated deadline.
        """
        rng = self._rng(env.src, env.dst, env.tag, seq, salt="corrupt")
        if rng.random() >= rule.prob or env.nbytes == 0:
            return
        original = (env.payload, env.auth, env.checksum, env.declared)

        def clean_copy(depart: float, mark: Optional[str] = None) -> Envelope:
            copy = Envelope(env.src, env.dst, env.tag, original[0], depart,
                            env.nbytes, seq=env.seq, mark=mark)
            copy.auth, copy.checksum, copy.declared = original[1:]
            return copy

        flips = self._tamper(env, rng)
        records.append(FaultRecord(
            "corrupt", env.src, env.dst, env.tag, env.nbytes, env.depart,
            f"flips={flips}"))
        rel = self.reliability
        if rel is None or not rel.verify or self.on_fault != "retry":
            return
        delay = 0.0
        for attempt in range(rel.max_retries):
            step = rel.rto * rel.backoff ** attempt
            delay += step
            records.append(FaultRecord(
                "retry", env.src, env.dst, env.tag, env.nbytes,
                env.depart + delay, f"attempt {attempt + 1}", delay=step))
            copy = clean_copy(env.depart + delay)
            if rng.random() >= rule.prob:  # this retransmission is clean
                deposits.append(copy)
                return
            flips = self._tamper(copy, rng)
            records.append(FaultRecord(
                "corrupt", env.src, env.dst, env.tag, env.nbytes,
                env.depart + delay,
                f"retry {attempt + 1} corrupted (flips={flips})"))
            deposits.append(copy)
        # Every retransmission tampered: tombstone at the deadline.
        delay += rel.rto * rel.backoff ** rel.max_retries
        tomb = clean_copy(env.depart + delay, mark="corrupt_lost")
        tomb.payload = b"" if original[0] is not None else None
        records.append(FaultRecord(
            "corrupt_lost", env.src, env.dst, env.tag, env.nbytes,
            env.depart + delay,
            f"gave up after {rel.max_retries} retries"))
        deposits.append(tomb)

    def _apply_forge(self, env: Envelope, rule: FaultRule, seq: int,
                     records: List[FaultRecord]) -> Optional[Envelope]:
        """Synthesize a spoofed envelope on the matched channel, or None.

        The forgery claims the genuine message's ``(src, dst, tag)`` and
        size but carries adversarial contents and (under the verified
        transport) a garbage auth tag — an internally consistent
        checksum, because a checksum is attacker-computable; only the
        auth tag is not.  It carries no wire sequence number: an
        unverified receiver delivers it ahead of the genuine traffic (a
        Byzantine delivery), a verifying receiver rejects it on the auth
        check.  Draw order is fixed (auth before payload bytes, payload
        last) so phantom mode, which synthesizes no payload, consumes an
        identical RNG prefix.
        """
        rng = self._rng(env.src, env.dst, env.tag, seq, salt="forge")
        if rng.random() >= rule.prob:
            return None
        forged = Envelope(env.src, env.dst, env.tag, None, env.depart,
                          env.nbytes)
        fake_auth = rng.getrandbits(64)
        if self.verify:
            forged.auth = fake_auth
            forged.declared = env.nbytes
        if env.payload is not None:
            forged.payload = rng.randbytes(env.nbytes)
            if self.verify:
                forged.checksum = payload_digest(forged.payload)
        records.append(FaultRecord(
            "forge", env.src, env.dst, env.tag, env.nbytes, env.depart,
            "spoofed envelope injected"))
        return forged

"""Antibody distribution: the Sweeper community (§3.3 "Distribution", §6).

Producers publish antibodies *piecemeal, as each analysis step
completes* — the initial VSEF first (tens of milliseconds), the improved
VSEF and the input signature later — because applying a VSEF early and
verifying later only risks wasted cycles, never new behaviour.

:class:`CommunityBus` is a virtual-time event log: ``publish`` stamps
each bundle with the producer's availability time plus the dissemination
latency γ₂.  Consumers are *subscribers with pending queues*: each
``poll`` returns only bundles the subscriber has not seen that have
arrived by its local clock, in a deterministic order — availability
time first, publish order as the tie-break — so a fleet of consumers
polling off one bus applies antibodies in a reproducible sequence
regardless of scheduling.  The stateless ``available`` view remains for
one-shot callers.  The worm model consumes the resulting end-to-end
γ = γ₁ + γ₂.

The bus is indexed for fleet scale.  ``_log`` stays append-only (seq ==
list index), but three structures keep every read path off it:

- an availability-sorted index (``bisect``-maintained) makes
  ``available(now)`` a binary search plus slice instead of a full scan;
- per-app running minima make ``first_available_time`` O(1) — it is
  called on every scheduler event to bound the epidemic horizon;
- per-subscriber *pending heaps*, fanned out at publish time, make
  ``poll`` O(delivered · log backlog): a subscriber pops exactly its
  unseen-and-available bundles, never rescanning the log.  A late
  subscriber's heap is seeded with the full backlog, so joining the
  community late never loses antibodies, and a popped entry is gone —
  exactly-once delivery by construction.

Subscriber clocks must be monotone: each subscriber has a high-water
mark and ``poll`` raises on a ``now`` earlier than its previous poll,
because answering would present an availability order inconsistent with
what ``available()`` showed between the two polls.

Bundle ids are assigned *per bus* at publish time (``ab-1``, ``ab-2``,
…), so many buses in one process — one per fleet, one per test — never
interleave their counters and runs stay reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right, insort
from dataclasses import dataclass, field

from repro.errors import ReproError


@dataclass
class AntibodyBundle:
    """What a producer shares: VSEFs, signatures, and the exploit input.

    Including the exploit-triggering input lets untrusting consumers
    regenerate or verify antibodies themselves (§2.1).
    """

    app: str
    vsefs: list = field(default_factory=list)          # list[VSEF]
    signatures: list = field(default_factory=list)     # Exact/TokenSignature
    exploit_input: bytes | None = None
    produced_at: float = 0.0       # producer-local virtual seconds
    stage: str = "initial"         # "initial" | "improved" | "final"
    #: Assigned by the first :meth:`CommunityBus.publish` (per-bus
    #: counter); empty for a bundle that was never published.
    bundle_id: str = ""

    def to_dict(self) -> dict:
        return {
            "bundle_id": self.bundle_id,
            "app": self.app,
            "stage": self.stage,
            "produced_at": self.produced_at,
            "vsefs": [v.to_dict() for v in self.vsefs],
            "signatures": [s.to_dict() for s in self.signatures],
            "exploit_input": (self.exploit_input.hex()
                              if self.exploit_input is not None else None),
        }

    @staticmethod
    def from_dict(data: dict) -> "AntibodyBundle":
        """Revive a bundle from its wire form (inverse of to_dict).

        A bundle serialized before it was ever published carries no
        ``bundle_id`` — it gets one from whichever bus publishes it
        next, so the key is optional on the wire.
        """
        from repro.antibody.signatures import (ExactSignature,
                                               TokenSignature)
        from repro.antibody.vsef import VSEF

        signatures = []
        for entry in data.get("signatures", []):
            if entry["type"] == "exact":
                signatures.append(ExactSignature.from_dict(entry))
            else:
                signatures.append(TokenSignature.from_dict(entry))
        raw_input = data.get("exploit_input")
        return AntibodyBundle(
            app=data["app"],
            vsefs=[VSEF.from_dict(v) for v in data.get("vsefs", [])],
            signatures=signatures,
            exploit_input=bytes.fromhex(raw_input)
            if raw_input is not None else None,
            produced_at=data.get("produced_at", 0.0),
            stage=data.get("stage", "initial"),
            bundle_id=data.get("bundle_id", ""))


@dataclass
class _Delivery:
    bundle: AntibodyBundle
    available_at: float
    seq: int                       # publish order; the deterministic tie-break


class CommunityBus:
    """Virtual-time antibody dissemination with latency γ₂.

    See the module docstring for the index structures.  Delivery
    semantics are unchanged from the cursor-based bus: each subscriber
    sees every bundle exactly once, in ``(available_at, seq)`` order,
    with an inclusive γ₂ boundary; a late-published bundle whose
    availability precedes already-drained ones is still delivered on
    the next poll, never skipped.
    """

    def __init__(self, dissemination_latency: float = 3.0):
        #: γ₂ — Vigilante measured < 3 s for initial alert dissemination;
        #: the paper adopts that figure (§6.3).
        self.dissemination_latency = dissemination_latency
        self._log: list[_Delivery] = []
        self._ids = itertools.count(1)
        #: Availability order: sorted list of (available_at, seq).
        self._avail_index: list[tuple[float, int]] = []
        #: Per-app (and global, key None) earliest availability.
        self._first_avail: dict[str | None, float] = {}
        #: Per-subscriber min-heaps of undelivered (available_at, seq).
        self._pending: dict[str, list[tuple[float, int]]] = {}
        #: Per-subscriber poll-clock high-water marks.
        self._high_water: dict[str, float] = {}
        self.published: list[AntibodyBundle] = []

    def publish(self, bundle: AntibodyBundle) -> AntibodyBundle:
        if not bundle.bundle_id:
            bundle.bundle_id = f"ab-{next(self._ids)}"
        self.published.append(bundle)
        delivery = _Delivery(
            bundle=bundle,
            available_at=bundle.produced_at + self.dissemination_latency,
            seq=len(self._log))
        self._log.append(delivery)
        entry = (delivery.available_at, delivery.seq)
        insort(self._avail_index, entry)
        for key in (None, bundle.app):
            first = self._first_avail.get(key)
            if first is None or delivery.available_at < first:
                self._first_avail[key] = delivery.available_at
        for pending in self._pending.values():
            heapq.heappush(pending, entry)
        return bundle

    # -- subscriber queues ---------------------------------------------------

    def subscribe(self, name: str) -> str:
        """Register (idempotently) a named subscriber; returns ``name``.

        A fresh subscriber starts with the full backlog pending: it will
        see every bundle, including ones already available — joining the
        community late must not lose antibodies.
        """
        if name not in self._pending:
            backlog = [(d.available_at, d.seq) for d in self._log]
            heapq.heapify(backlog)
            self._pending[name] = backlog
            self._high_water[name] = float("-inf")
        return name

    def poll(self, name: str, now: float) -> list[AntibodyBundle]:
        """New-to-``name`` bundles available by virtual time ``now``.

        Ordering is deterministic: by availability time, then by publish
        order for simultaneous arrivals.  The boundary is inclusive — a
        consumer polling exactly at γ₂ sees the bundle.  ``now`` must
        not precede the subscriber's previous poll (the high-water
        mark): a rewinding clock would observe an order inconsistent
        with :meth:`available`.
        """
        self.subscribe(name)
        if now < self._high_water[name]:
            raise ReproError(
                f"subscriber {name!r} polled at {now} after polling at "
                f"{self._high_water[name]}: poll clocks must be monotone")
        self._high_water[name] = now
        pending = self._pending[name]
        batch = []
        while pending and pending[0][0] <= now:
            _, seq = heapq.heappop(pending)
            batch.append(self._log[seq].bundle)
        return batch

    def subscriber_backlog(self, name: str) -> int:
        """Undelivered bundles currently queued for ``name`` (the
        pending heap compacts as the subscriber drains it)."""
        return len(self._pending.get(name, ()))

    # -- specification hooks -------------------------------------------------
    # Pure read-only views the executable spec (repro.spec) compares
    # against its reference model; nothing in the delivery path calls
    # them.

    def log_entries(self) -> list[tuple[int, str, str, float, float]]:
        """The append-only log as plain tuples
        ``(seq, bundle_id, app, produced_at, available_at)`` in publish
        order — the bus's canonical history."""
        return [(d.seq, d.bundle.bundle_id, d.bundle.app,
                 d.bundle.produced_at, d.available_at) for d in self._log]

    def subscribers(self) -> list[str]:
        """Registered subscriber names, in subscription order."""
        return list(self._pending)

    def high_water(self, name: str) -> float:
        """``name``'s lifetime poll-clock high-water mark."""
        return self._high_water[name]

    # -- stateless views -----------------------------------------------------

    def available(self, now: float) -> list[AntibodyBundle]:
        """Bundles any consumer polling at virtual time ``now`` can see,
        in the same deterministic order ``poll`` uses."""
        ready = bisect_right(self._avail_index, (now, len(self._log)))
        return [self._log[seq].bundle
                for _, seq in self._avail_index[:ready]]

    def first_available_time(self, app: str | None = None) -> float | None:
        """When the earliest (initial) antibody reaches consumers."""
        return self._first_avail.get(app)

    def response_time(self, app: str | None = None) -> float | None:
        """γ = γ₁ + γ₂ for the earliest antibody, measured from attack."""
        return self.first_available_time(app)

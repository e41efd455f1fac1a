"""Executable protocol specifications for the community defense.

The community-defense correctness claims — exactly-once
``(available_at, seq)`` bundle delivery, no-skip on late publishes,
verifier rejection soundness under forged bundles — carry the weight of
the fleet/ρ pipeline, and until now were pinned only by example-based
tests.  This package ports the machine-checked-spec idiom (the Zeus
EuroSys'21 artifact ships its protocol as a TLA+ spec; the
formal-spec-of-attestation line models exactly our bundle shape —
untrusted producer, evidence, verifier) to Python: each protocol gets a
small, obviously-correct **reference model** whose state the real
implementation must refine, plus the protocol **invariants stated once**
as assertable predicates.

- :mod:`repro.spec.invariants` — the predicates (exactly-once, global
  ``(available_at, seq)`` order, no-skip, no-redeliver, rejection
  soundness, acceptance completeness), stated once, asserted everywhere.
- :mod:`repro.spec.bus` — :class:`BusModel`, the append-only-log +
  per-subscriber-cursor semantics of
  :class:`~repro.antibody.distribution.CommunityBus`.
- :mod:`repro.spec.verifier` — :class:`VerifierModel`, the
  :class:`~repro.antibody.verify.SandboxVerifier` verdict pipeline
  (input-None deferral, signature byte check, audit screen, memoized
  trial) with its counter evolution.
- :mod:`repro.spec.delivery` — :class:`DeliveryModel`, the
  :meth:`~repro.runtime.sweeper.Sweeper.apply_bundle`
  accept/reject/withhold outcomes and the installed-antibody state.

The models are *specs*, not reimplementations: they are deliberately
naive (linear scans, no heaps, no indices) so that reading one is
reading the protocol.  ``tests/test_spec_*.py`` drive the real
implementations against them with ``hypothesis`` stateful suites —
randomized publish / poll / late-publish / join / crash-restore /
Byzantine-producer interleavings — asserting after every step that
implementation state refines model state.
"""

from repro.spec.bus import BusModel, PollRewound, assert_bus_refines
from repro.spec.delivery import (DeliveryModel, DISPOSITION_APPLY,
                                 DISPOSITION_INSTALL, DISPOSITION_REJECT,
                                 DISPOSITION_WITHHOLD, disposition)
from repro.spec.invariants import SpecViolation
from repro.spec.verifier import (DEFERRED, REJECTED_AUDIT, REJECTED_FORGED,
                                 REJECTED_UNDETECTED, VERIFIED,
                                 VerifierModel, classify_result,
                                 model_verdict)

__all__ = [
    "BusModel", "PollRewound", "assert_bus_refines",
    "DeliveryModel", "disposition",
    "DISPOSITION_APPLY", "DISPOSITION_INSTALL", "DISPOSITION_REJECT",
    "DISPOSITION_WITHHOLD",
    "SpecViolation",
    "VerifierModel", "classify_result", "model_verdict",
    "VERIFIED", "DEFERRED", "REJECTED_FORGED", "REJECTED_AUDIT",
    "REJECTED_UNDETECTED",
]

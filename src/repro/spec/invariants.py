"""The community-defense protocol invariants, stated once.

Every predicate here raises :class:`SpecViolation` — an
``AssertionError`` subclass so plain ``pytest`` and ``hypothesis``
shrinking both treat a violation as a failing example — and is phrased
against *model-level* data (sequence numbers, availability times,
verdict categories), never against implementation internals.  The
stateful suites in ``tests/test_spec_*.py`` call these after every
rule.  One statement of each invariant, asserted everywhere it must
hold.

Delivery invariants (the :class:`~repro.spec.bus.BusModel` refinement):

- **exactly-once** — no subscriber ever receives the same log entry
  twice (:func:`assert_exactly_once`);
- **ordered** — each poll batch is in strictly increasing
  ``(available_at, seq)`` order (:func:`assert_batch_ordered`);
- **no-skip** — after a poll at local time ``now``, nothing available
  by ``now`` remains undelivered (:func:`assert_no_skip`);
- **no-redeliver across crash/restore** — exactly-once is stated over
  the subscriber's whole lifetime, so a consumer that crashes and
  resubscribes under the same name must not see drained entries again
  (the same :func:`assert_exactly_once`, applied to the concatenated
  history).

Verifier invariants (the :class:`~repro.spec.verifier.VerifierModel`
refinement):

- **rejection soundness** — every rejection has the spec-prescribed
  cause: forged filter, failed audit, or undetected exploit
  (:func:`assert_rejection_sound`);
- **acceptance completeness** — every bundle the spec says is genuine
  is verified, never spuriously rejected
  (:func:`assert_acceptance_complete`).
"""

from __future__ import annotations


class SpecViolation(AssertionError):
    """The real implementation diverged from the reference model."""


def fail(invariant: str, detail: str):
    raise SpecViolation(f"[{invariant}] {detail}")


# -- delivery -----------------------------------------------------------------

def assert_exactly_once(name: str, delivered_seqs) -> None:
    """No log entry is delivered to ``name`` more than once — over the
    subscriber's whole lifetime, crashes and restores included."""
    seen = set()
    for seq in delivered_seqs:
        if seq in seen:
            fail("exactly-once",
                 f"subscriber {name!r} received seq {seq} twice "
                 f"(history: {list(delivered_seqs)})")
        seen.add(seq)


def assert_batch_ordered(name: str, batch) -> None:
    """One poll batch is in strictly increasing ``(available_at, seq)``
    order: availability time first, publish order as the tie-break."""
    keys = [(available_at, seq) for available_at, seq in batch]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        fail("ordered",
             f"subscriber {name!r} batch out of (available_at, seq) "
             f"order: {keys}")


def assert_no_skip(name: str, now: float, delivered_seqs, log) -> None:
    """After a poll at ``now``, every log entry available by ``now`` has
    been delivered — late publishes with early availability included.

    ``log`` is an iterable of ``(seq, available_at)`` pairs covering the
    whole published history.
    """
    held = set(delivered_seqs)
    for seq, available_at in log:
        if available_at <= now and seq not in held:
            fail("no-skip",
                 f"subscriber {name!r} polled at {now} but seq {seq} "
                 f"(available at {available_at}) was never delivered")


# -- verification -------------------------------------------------------------

def assert_rejection_sound(desc: str, impl_category: str,
                           model_category: str, verified_cat: str) -> None:
    """A rejection (or deferral) must have the spec-prescribed cause —
    the implementation never rejects for a reason the model does not,
    and never rejects what the model accepts."""
    if impl_category != verified_cat and impl_category != model_category:
        fail("rejection-sound",
             f"{desc}: implementation says {impl_category!r} but the "
             f"spec says {model_category!r}")


def assert_acceptance_complete(desc: str, impl_category: str,
                               model_category: str,
                               verified_cat: str) -> None:
    """Every spec-genuine bundle is verified — protection is never
    spuriously refused."""
    if model_category == verified_cat and impl_category != verified_cat:
        fail("acceptance-complete",
             f"{desc}: spec says genuine ({verified_cat!r}) but the "
             f"implementation answered {impl_category!r}")

"""Stateful model checking of the Sweeper delivery path against
``repro.spec.delivery``.

Each example builds a real consumer stack — a cvs Sweeper with
``verify_foreign`` on, a real :class:`CommunityBus` and the shared
:class:`SandboxVerifier` — and drives it through randomized publish /
poll-and-apply / crash-restart / benign-service interleavings from the
fixed bundle pool (genuine, forged-filter, byte-tampered, deferred,
other-app bundles), mirroring the fleet's poll-on-wake consumer
discipline (:meth:`repro.worm.fleet._FleetRun._apply_bus`).  After every step the real
Sweeper must refine the composed models:

- **rejection soundness, consumer side** — a rejected bundle installs
  *nothing*: no VSEF key appears, no filter lands on the proxy;
- **acceptance completeness** — verified bundles install their VSEFs
  (deduplicated by :func:`~repro.runtime.sweeper.vsef_key`) and their
  signatures (appended, not deduplicated);
- **withholding** — inputless bundles apply VSEFs but never filters;
- the bundle log's verified/rejected/deferred trail matches the model
  disposition for every delivery, in order;
- **no false positives, ever** — benign traffic is served unfiltered at
  every reachable state (the installed filter set, whatever subset of
  the pool produced it, never censors);
- **immunity** — once a genuine filter is installed, the worm's exploit
  is filtered at the proxy and never reaches the process;
- a crash-restart (:meth:`Sweeper._restart`) preserves the installed
  antibody state exactly.
"""

from __future__ import annotations

from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.antibody.distribution import AntibodyBundle
from repro.antibody.verify import SandboxVerifier
from repro.apps.exploits import cvs_exploit
from repro.runtime.sweeper import Sweeper, SweeperConfig, vsef_key
from repro.spec.bus import BusModel, assert_bus_refines
from repro.spec.delivery import (DISPOSITION_INSTALL, OUTCOME_VERIFIED,
                                 DeliveryModel, assert_delivery_refines)
from repro.spec.invariants import SpecViolation
from repro.spec.verifier import model_verdict
from tests.spec_harness import BENIGN_CVS, bundle_pool, spec_settings

IMAGES, POOL = bundle_pool()
#: Pool bundles a cvs consumer can receive (other apps ride the bus too
#: and must be skipped by the app filter — keep one to prove it).
LABELS = [e.label for e in POOL]

GAMMA2 = 1.0

#: Shared across examples: this machine checks the *Sweeper's* state,
#: never the verifier's counters, so keeping the sandbox boot warm
#: across examples changes nothing it asserts (verdicts are memoized /
#: re-derived deterministically either way).
SHARED_VERIFIER = SandboxVerifier()


def _verdict(entry) -> str:
    return model_verdict(entry.has_input, entry.signatures_match,
                         entry.audit_ok, bool(entry.attack_detected))


class DeliveryMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.entries = {e.label: e for e in POOL}
        self.bus_model = BusModel(latency=GAMMA2)
        self.delivery = DeliveryModel(verify_foreign=True)
        from repro.antibody.distribution import CommunityBus
        self.bus = CommunityBus(dissemination_latency=GAMMA2)
        self.bus.subscribe("consumer")
        self.bus_model.subscribe("consumer")
        self.verifier = SHARED_VERIFIER
        self.consumer = Sweeper(
            IMAGES["cvs"], app_name="cvs",
            config=SweeperConfig(seed=9, enable_membug=False,
                                 enable_taint=False, enable_slicing=False,
                                 publish_antibodies=False,
                                 randomize_layout=True, entropy_bits=4))
        self.now = 0.0
        #: Whether the model says a filter matching cvs_exploit() is
        #: live (only genuine pool bundles carry one).
        self.exploit_filter_live = False

    # -- rules ---------------------------------------------------------------

    @rule(label=st.sampled_from(LABELS),
          delay=st.sampled_from([0.0, 0.5, 2.0]))
    def publish(self, label, delay):
        """A producer publishes one pool bundle as a fresh wire copy
        (so republished labels are duplicate content with distinct
        identity, like real re-shares), produced ``delay`` after the
        consumer's current clock — availability lags by γ₂, and polls
        before then must not see it."""
        entry = self.entries[label]
        bundle = AntibodyBundle.from_dict(entry.bundle.to_dict())
        bundle.produced_at = self.now + delay
        self.bus_model.publish(bundle.app, bundle.produced_at,
                               bundle_id=bundle.bundle_id)
        self.bus.publish(bundle)
        # The wire copy carries the pool's preset id; publish preserves
        # any non-empty id (that id is how the model tracks labels).
        if bundle.bundle_id != entry.bundle.bundle_id:
            raise SpecViolation(
                f"publish rewrote the preset id of {label}")

    @rule(advance=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    def poll_and_apply(self, advance):
        """The consumer wakes at a later local time and applies every
        newly available own-app bundle — the fleet's poll-on-wake
        discipline, model-checked bundle by bundle."""
        self.now += advance
        expected = self.bus_model.poll("consumer", self.now)
        batch = self.bus.poll("consumer", self.now)
        if [b.bundle_id for b in batch] != \
                [e.bundle_id for e in expected]:
            raise SpecViolation(
                f"poll batch diverged: impl "
                f"{[b.bundle_id for b in batch]} model "
                f"{[e.bundle_id for e in expected]}")
        for bundle in batch:
            if bundle.app != self.consumer.app_name:
                continue
            entry = next(e for e in POOL
                         if e.bundle.bundle_id == bundle.bundle_id)
            outcome = self.consumer.apply_bundle(bundle,
                                                 verifier=self.verifier)
            disposition = self.delivery.apply_bundle(
                bundle.bundle_id,
                [vsef_key(v) for v in bundle.vsefs],
                len(bundle.signatures), entry.has_input, _verdict(entry))
            if outcome.verified is not OUTCOME_VERIFIED[disposition]:
                raise SpecViolation(
                    f"{entry.label}: outcome.verified="
                    f"{outcome.verified!r} but model disposition is "
                    f"{disposition!r}")
            if disposition == DISPOSITION_INSTALL and bundle.signatures:
                self.exploit_filter_live = True

    @rule()
    def serve_benign(self):
        """The no-false-positives invariant, executed: whatever filters
        the pool has installed so far, benign traffic flows."""
        filtered_before = self.consumer.proxy.filtered_count
        responses = self.consumer.submit(BENIGN_CVS)
        if not responses:
            raise SpecViolation(
                "benign request drew no response after bundle deliveries")
        if self.consumer.proxy.filtered_count != filtered_before:
            raise SpecViolation(
                "an installed filter censored benign traffic — the "
                "forged-filter DoS the verification protocol exists to "
                "prevent")

    @precondition(lambda self: self.exploit_filter_live)
    @rule()
    def serve_exploit(self):
        """Immunity, executed: with a genuine filter installed the
        worm's exploit dies at the proxy and no attack record forms."""
        filtered_before = self.consumer.proxy.filtered_count
        attacks_before = len(self.consumer.attacks)
        self.consumer.submit(cvs_exploit())
        if self.consumer.proxy.filtered_count != filtered_before + 1:
            raise SpecViolation(
                "exploit was not filtered despite an installed genuine "
                "signature")
        if len(self.consumer.attacks) != attacks_before:
            raise SpecViolation("filtered exploit still reached the "
                                "process as an attack")

    @rule()
    def crash_and_restart(self):
        """The node crashes and reboots (the Sweeper restart path —
        fresh process, ``seed + 1`` layout): every installed antibody
        must be reinstalled, none duplicated, filters intact."""
        before = self.consumer.installed_vsef_keys()
        sigs_before = self.consumer.active_signature_ids()
        self.consumer._restart()
        if self.consumer.installed_vsef_keys() != before:
            raise SpecViolation(
                f"restart changed the installed VSEF set: "
                f"{sorted(before)} -> "
                f"{sorted(self.consumer.installed_vsef_keys())}")
        if self.consumer.active_signature_ids() != sigs_before:
            raise SpecViolation("restart changed the proxy filter set")

    # -- the refinement, after every step ------------------------------------

    @invariant()
    def refines(self):
        assert_delivery_refines(self.delivery, self.consumer)
        assert_bus_refines(self.bus_model, self.bus)


# Guest execution makes delivery steps the priciest in the spec tier;
# shorter chains keep 200 examples affordable while every pairwise rule
# interleaving still occurs many times per run.
DeliveryMachine.TestCase.settings = spec_settings(stateful_step_count=15)
TestDeliveryRefinement = DeliveryMachine.TestCase

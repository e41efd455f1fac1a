"""The Sweeper orchestrator: the end-to-end defense loop of Fig. 3.

``Sweeper`` wraps one protected process with the full stack: lightweight
monitoring + checkpointing during normal execution; rollback/replay
analysis after a detection; antibody generation, installation and
publication; and rollback/re-execute recovery.  It also maintains the
global virtual clock used by every timing experiment — a clock that,
unlike the process's cycle counter, never rewinds across rollbacks.

Typical use::

    sweeper = Sweeper(image, app_name="squid")
    responses = sweeper.submit(benign_request)
    responses = sweeper.submit(exploit)       # detected, analyzed, healed
    assert sweeper.antibodies                 # VSEFs + signature now live
    responses = sweeper.submit(benign_request)  # service continues
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.pipeline import AnalysisOutcome, AnalysisPipeline
from repro.analysis.taint import TaintViolation
from repro.antibody.distribution import AntibodyBundle, CommunityBus
from repro.antibody.signatures import generate_exact
from repro.antibody.verify import verify_antibody
from repro.antibody.vsef import VSEF, InstalledVSEF, install_vsef
from repro.errors import AttackDetected, RecoveryFailed, VMFault
from repro.isa.assembler import Image, assemble
from repro.machine.cpu import CPU_HZ
from repro.machine.layout import (AddressSpaceLayout, ReferenceLayout,
                                  randomized_layout)
from repro.machine.process import Process
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.clock import VirtualClock
from repro.runtime.monitor import (Detection, detection_from_fault,
                                   detection_from_vsef)
from repro.runtime.proxy import NetworkProxy
from repro.runtime.recovery import RecoveryManager, RecoveryResult
from repro.runtime.sampling import RequestSampler

_RUN_STEP_BUDGET = 50_000_000


def vsef_key(vsef: VSEF) -> tuple:
    """The identity under which installed VSEFs are deduplicated:
    ``(kind, sorted stringified params)``.  Module-level so the
    executable spec (:mod:`repro.spec.delivery`) and the Sweeper agree
    on one definition."""
    return (vsef.kind, tuple(sorted(
        (k, str(v)) for k, v in vsef.params.items())))


def boot_layout(config: "SweeperConfig",
                seed: int | None = None) -> AddressSpaceLayout:
    """The concrete address-space layout a Sweeper with ``config`` loads.

    Exposed so fleet tooling can name a node's golden-image cache key
    without materializing the node; must match what ``_new_process``
    hands to :class:`~repro.machine.process.Process` exactly (a
    randomized layout draws from ``random.Random(seed)``, as the
    process loader would).

    ``config.layout_seed`` (when set) overrides every other seed source
    — including the restart path's ``seed + 1`` — so all members of one
    layout cohort load the same layout and keep it across restarts,
    which is what lets them share a single golden boot image.
    """
    if config.layout_seed is not None:
        seed = config.layout_seed
    elif seed is None:
        seed = config.seed
    if config.randomize_layout:
        return randomized_layout(random.Random(seed),
                                 entropy_bits=config.entropy_bits,
                                 pin=config.layout_pin)
    return ReferenceLayout()


@dataclass
class SweeperConfig:
    """Tunables; defaults follow §5.1 (200 ms interval, 20 checkpoints)."""

    checkpoint_interval_ms: float = 200.0
    max_checkpoints: int = 20
    entropy_bits: int = 12
    seed: int = 0
    enable_membug: bool = True
    enable_taint: bool = True
    enable_slicing: bool = True
    isolate_by_replay: bool = True
    strict_recovery: bool = False
    publish_antibodies: bool = True
    #: γ₂ dissemination latency for the community bus (Vigilante's <3 s).
    dissemination_latency: float = 3.0
    #: §4.2 sampling: run taint analysis on every Nth request (0 = off).
    #: Catches attacks that defeat address randomization (the ρ case).
    sample_every: int = 0
    #: Proactive protection (§3.1).  True slides every region by a random
    #: page offset (the ρ = 2^-entropy attenuation); False loads the
    #: reference layout — an *unprotected* host, which is what the fleet
    #: uses for susceptible consumer nodes so a worm's hijack genuinely
    #: lands instead of faulting.
    randomize_layout: bool = True
    #: Layout-draw seed.  ``None`` draws from ``seed`` (a private layout
    #: per node); a shared value puts several nodes in one layout
    #: *cohort* — identical region slides, hence one shared golden boot
    #: image — while each keeps its own process seed (rng, pid).
    layout_seed: int | None = None
    #: Forced region slides applied after the layout draw (see
    #: :func:`~repro.machine.layout.randomized_layout`); how stratified
    #: cohort sampling pins the exploit-critical slide to its stratum.
    layout_pin: dict[str, int] | None = None
    #: Verify foreign antibody bundles in a sandbox before installing
    #: them (:meth:`Sweeper.apply_bundle`).  Bundles that carry their
    #: exploit input replay it in a sandboxed fork of the clean program:
    #: if nothing detects the attack the bundle is rejected and never
    #: installed.  Bundles without the input yet (piecemeal early
    #: stages) are applied immediately and verified when it arrives —
    #: the paper's deferrable-verification discipline (§3.3).
    verify_foreign: bool = True


@dataclass
class SweeperEvent:
    """One entry in the virtual-time event log (drives Figure 5).

    ``wall_seconds`` carries any *host* wall-clock measurement (e.g. how
    long analysis really took on this machine).  It lives outside
    ``detail`` so the (virtual_time, kind, detail) triple is reproducible
    byte-for-byte across runs of the same seed.
    """

    virtual_time: float
    kind: str
    detail: str = ""
    wall_seconds: float | None = None


@dataclass
class BundleOutcome:
    """What :meth:`Sweeper.apply_bundle` did with one foreign bundle.

    ``verified`` is tri-state: ``True`` — the bundle replayed in a
    sandbox, its signatures matched its attack input and something
    detected the attack; ``False`` — rejected (nothing detected the
    input, or a signature failed to match it): no VSEF installed, no
    signature added; ``None`` — not verifiable yet (no exploit input,
    or verification disabled) and applied on the paper's
    apply-now-verify-later discipline — though an unverifiable bundle's
    *signatures* are withheld (filters can DoS benign traffic; VSEFs
    cannot), so ``signatures`` counts only what was installed.
    """

    bundle_id: str
    stage: str
    verified: bool | None
    vsefs: list[VSEF] = field(default_factory=list)   # newly installed
    signatures: int = 0                               # filters added
    detail: str = ""

    @property
    def rejected(self) -> bool:
        return self.verified is False


@dataclass
class AttackRecord:
    """Everything Sweeper did about one attack."""

    detection: Detection
    outcome: AnalysisOutcome | None
    recovery: RecoveryResult | None
    vsefs_installed: list[VSEF] = field(default_factory=list)
    signature_ids: list[str] = field(default_factory=list)
    detected_at: float = 0.0
    first_vsef_at: float | None = None
    recovered_at: float | None = None


class Sweeper:
    """Protects one server process end to end."""

    def __init__(self, image: Image | str, app_name: str = "app",
                 config: SweeperConfig | None = None,
                 bus: CommunityBus | None = None,
                 clock: VirtualClock | None = None,
                 golden=None):
        if isinstance(image, str):
            image = assemble(image)
        self.image = image
        self.app_name = app_name
        self.config = config or SweeperConfig()
        self.vclock = clock if clock is not None else VirtualClock()
        #: Optional :class:`~repro.runtime.golden.GoldenImageCache`: the
        #: first node booted per (image, layout, checkpoint config)
        #: donates its boot state, later ones fork it copy-on-write.
        self.golden = golden
        self.booted_from_golden = False
        self.process = self._new_process(self.config.seed)
        self.proxy = NetworkProxy(clock=self.vclock)
        self.checkpoints = CheckpointManager(
            interval_ms=self.config.checkpoint_interval_ms,
            max_checkpoints=self.config.max_checkpoints,
            clock=self.vclock)
        self.recovery = RecoveryManager(strict=self.config.strict_recovery)
        self.pipeline = AnalysisPipeline(
            self.process, self.checkpoints, self.proxy,
            enable_membug=self.config.enable_membug,
            enable_taint=self.config.enable_taint,
            enable_slicing=self.config.enable_slicing,
            isolate_by_replay=self.config.isolate_by_replay)
        self.bus = bus if bus is not None else (
            CommunityBus(self.config.dissemination_latency)
            if self.config.publish_antibodies else None)

        self.sampler = RequestSampler(every=self.config.sample_every)
        self._last_cycles = self.process.cpu.cycles
        self._inbox: deque = deque()        # scheduled, not-yet-served requests
        self.events: list[SweeperEvent] = []
        self.attacks: list[AttackRecord] = []
        self.bundle_log: list[BundleOutcome] = []
        self.detections: list[Detection] = []
        self.antibodies: list[VSEF] = []
        self._installed: list[InstalledVSEF] = []
        self._vsef_keys: set[tuple] = set()

        self._boot()

    # -- clock / events ---------------------------------------------------------

    @property
    def clock(self) -> float:
        """Current virtual time (seconds); never rewinds."""
        return self.vclock.now

    def _new_process(self, seed: int) -> Process:
        return Process(self.image, layout=boot_layout(self.config, seed),
                       seed=seed, name=self.app_name)

    def _sync_clock(self):
        delta = self.process.cpu.cycles - self._last_cycles
        if delta > 0:
            self.vclock.advance(delta / CPU_HZ)
        self._last_cycles = self.process.cpu.cycles

    def _rebase_cycles(self):
        """After a rollback the cycle counter rewound; re-anchor it."""
        self._last_cycles = self.process.cpu.cycles

    def _event(self, kind: str, detail: str = "",
               wall_seconds: float | None = None):
        self.events.append(SweeperEvent(virtual_time=self.clock, kind=kind,
                                        detail=detail,
                                        wall_seconds=wall_seconds))

    # -- normal operation -----------------------------------------------------------

    def _boot(self):
        """Run server initialization up to its first recv.

        With a golden cache attached, the first boot per (image, layout,
        checkpoint config) runs eagerly and donates its state; every
        later boot forks that state copy-on-write instead of executing
        initialization again — bit-identical by construction (see
        :mod:`repro.runtime.golden`).
        """
        key = None
        boot_start = self.vclock.now
        if self.golden is not None:
            key = self.golden.key_for(self.image, self.process.layout,
                                      self.config.checkpoint_interval_ms,
                                      self.config.max_checkpoints)
            image = self.golden.get(key, self.image)
            if image is not None:
                self._boot_from_golden(image, boot_start)
                return
        result = self.process.run(max_steps=_RUN_STEP_BUDGET)
        self._sync_clock()
        if result.reason != "idle":
            raise RecoveryFailed(
                f"server failed to initialize ({result.reason})")
        checkpoint_virtual = self.vclock.now
        checkpoint = self.checkpoints.take(self.process)
        self._sync_clock()
        self._event("boot", "server initialized; first checkpoint taken")
        if key is not None:
            self.golden.offer(
                key, self.image, self.process, checkpoint.snapshot,
                checkpoint_virtual_delta=checkpoint_virtual - boot_start,
                boot_clock_delta=self.vclock.now - boot_start,
                checkpoint_cost_cycles=self.checkpoints.total_cost_cycles,
                last_dirty_pages=self.checkpoints.last_dirty_pages)

    def _boot_from_golden(self, image, boot_start: float):
        """Fork a booted sibling's state instead of executing boot."""
        snapshot = image.fork_into(self.process)
        self.vclock.advance_to(boot_start + image.checkpoint_virtual_delta)
        self.checkpoints.adopt_boot_checkpoint(
            self.process, snapshot,
            cost_cycles=image.checkpoint_cost_cycles,
            last_dirty_pages=image.last_dirty_pages,
            virtual_time=self.vclock.now)
        self.vclock.advance_to(boot_start + image.boot_clock_delta)
        self._last_cycles = self.process.cpu.cycles
        self.booted_from_golden = True
        self._event("boot", "server initialized; first checkpoint taken")

    def advance_busy(self, cycles: int):
        """Account ``cycles`` of additional per-request service work
        (cache lookups, disk I/O, compression — work a real server does
        that the miniature guest programs do not).  Checkpoints fire on
        schedule throughout, so throughput experiments see the same
        contention a saturated server would."""
        remaining = cycles
        while remaining > 0:
            until_due = self.checkpoints.cycles_until_due(self.process)
            if until_due <= 0:
                self.checkpoints.take(self.process)
                continue
            chunk = min(remaining, until_due)
            self.process.cpu.cycles += chunk
            remaining -= chunk
        self._sync_clock()

    def submit(self, data: bytes) -> list[bytes]:
        """Feed one request through the proxy; returns new responses.

        Equivalent to :meth:`schedule` followed by :meth:`advance` — the
        single-node convenience the fleet scheduler decomposes.
        """
        self.schedule(data)
        return self.advance()

    def schedule(self, data: bytes):
        """Phase 1: log one inbound request (filters apply now, at
        arrival) and queue it for service.  Returns the logged message."""
        message = self.proxy.submit(data)
        self._inbox.append(message)
        return message

    def advance(self) -> list[bytes]:
        """Phase 2: serve every scheduled request in arrival order;
        returns the new responses.  A steppable scheduler calls this
        once per delivered event; ``submit`` calls it immediately."""
        responses: list[bytes] = []
        while self._inbox:
            responses.extend(self._serve(self._inbox.popleft()))
        return responses

    def _serve(self, message) -> list[bytes]:
        if message.filtered_by is not None:
            self._event("filtered",
                        f"msg {message.msg_id} blocked by "
                        f"{message.filtered_by}")
            self.detections.append(Detection(
                kind="filter", virtual_time=self.clock,
                msg_id=message.msg_id, signature_id=message.filtered_by))
            return []
        sent_before = len(self.process.sent)
        tracker = None
        if self.sampler.should_sample():
            # §4.2: heavyweight taint monitoring for this request only.
            tracker = self.sampler.make_tool()
            self.process.hooks.attach(tracker, self.process)
        cycles_start = self.process.cpu.cycles
        self.proxy.deliver(message, self.process)
        try:
            self._run_protected()
        except TaintViolation as violation:
            self._handle_sampled_detection(message, tracker, violation)
        finally:
            if tracker is not None:
                if tracker in self.process.hooks.tools:
                    self.process.hooks.detach(tracker, self.process)
                # Charge the sampled request's instrumentation overhead.
                executed = self.process.cpu.cycles - cycles_start
                if executed > 0:
                    self.vclock.advance(
                        executed / CPU_HZ
                        * (self.sampler.overhead_factor - 1.0))
        responses = []
        for sent in self.process.sent[sent_before:]:
            self.proxy.commit(sent.msg_id, sent.data)
            responses.append(sent.data)
        return responses

    def _run_protected(self):
        """Run until idle, checkpointing on schedule, handling attacks."""
        while True:
            budget = self.checkpoints.cycles_until_due(self.process)
            try:
                if budget <= 0:
                    self.checkpoints.take(self.process)
                    self._sync_clock()
                    continue
                result = self.process.run(max_cycles=budget,
                                          max_steps=_RUN_STEP_BUDGET)
                self._sync_clock()
                if result.reason in ("idle", "exit"):
                    return
            except VMFault as fault:
                self._sync_clock()
                self._handle_fault(fault)
                return
            except AttackDetected as blocked:
                self._sync_clock()
                self._handle_vsef_block(blocked)
                return

    # -- attack handling -----------------------------------------------------------------

    def _handle_fault(self, fault: VMFault):
        detection = detection_from_fault(fault, self.clock,
                                         self.process.current_msg_id)
        self.detections.append(detection)
        self._event("detect", detection.describe())
        record = AttackRecord(detection=detection, outcome=None,
                              recovery=None, detected_at=self.clock)
        self.attacks.append(record)

        wall_start = time.perf_counter()
        outcome = self.pipeline.analyze(fault)
        record.outcome = outcome
        self._rebase_cycles()

        # Advance the clock step by step, publishing antibodies piecemeal
        # as each stage completes (§3.3 "Distribution").
        base = self.clock
        published_initial = False
        for step in outcome.steps:
            self.vclock.advance_to(base + step.cumulative_virtual)
            self._event(f"analysis:{step.name}", step.summary)
            new_vsefs = self._install_new(step.vsefs)
            record.vsefs_installed.extend(new_vsefs)
            if new_vsefs and record.first_vsef_at is None:
                record.first_vsef_at = self.clock
                self._event("antibody:first-vsef",
                            new_vsefs[0].describe())
            if new_vsefs and self.bus is not None:
                stage = "initial" if not published_initial else "improved"
                published_initial = True
                self.bus.publish(AntibodyBundle(
                    app=self.app_name, vsefs=list(new_vsefs),
                    produced_at=self.clock, stage=stage))

        # Input signature once the exploit input is isolated.
        if outcome.exploit_input is not None:
            signature = generate_exact(outcome.exploit_input)
            self.proxy.signatures.add(signature)
            record.signature_ids.append(signature.sig_id)
            self._event("antibody:signature",
                        f"exact-match filter {signature.sig_id}")
            self.proxy.mark_malicious(outcome.malicious_msg_ids)
            if self.bus is not None:
                self.bus.publish(AntibodyBundle(
                    app=self.app_name, vsefs=list(record.vsefs_installed),
                    signatures=[signature],
                    exploit_input=outcome.exploit_input,
                    produced_at=self.clock, stage="final"))

        # Recovery: rollback & re-execute without the malicious input.
        record.recovery = self._recover(outcome,
                                        suspect=detection.msg_id)
        record.recovered_at = self.clock
        self._event("recovered", "service restored",
                    wall_seconds=time.perf_counter() - wall_start)

    def _recover(self, outcome: AnalysisOutcome,
                 suspect: int | None = None) -> RecoveryResult | None:
        drop = set(outcome.malicious_msg_ids)
        if not drop and suspect is not None:
            # Analysis could not isolate the input; drop the request that
            # was being served when the monitor tripped.
            drop = {suspect}
        checkpoint = outcome.checkpoint
        if drop:
            candidate = self.checkpoints.before_message(
                self._delivery_index(min(drop)))
            if candidate is not None:
                checkpoint = candidate
        if checkpoint is None:
            self._event("recovery:restart",
                        "no usable checkpoint; restarting process")
            self._restart()
            return None
        try:
            result = self.recovery.recover(self.process, self.proxy,
                                           self.checkpoints, checkpoint,
                                           drop)
        except RecoveryFailed as failed:
            self._event("recovery:restart", str(failed))
            self._restart()
            return None
        self._rebase_cycles()
        self.vclock.advance(result.virtual_seconds)
        return result

    def _delivery_index(self, msg_id: int) -> int:
        try:
            return self.proxy.delivered.index(msg_id)
        except ValueError:
            return len(self.proxy.delivered)

    def _restart(self):
        """Full restart: the expensive fallback Sweeper tries to avoid."""
        self.vclock.advance(5.0)  # §1.1: "restarting ... takes up to several seconds"
        config = self.config
        self.process = self._new_process(config.seed + 1)
        self.checkpoints = CheckpointManager(
            interval_ms=config.checkpoint_interval_ms,
            max_checkpoints=config.max_checkpoints,
            clock=self.vclock)
        self.pipeline = AnalysisPipeline(
            self.process, self.checkpoints, self.proxy,
            enable_membug=config.enable_membug,
            enable_taint=config.enable_taint,
            enable_slicing=config.enable_slicing,
            isolate_by_replay=config.isolate_by_replay)
        self.proxy.rewind_delivery(0)
        self.proxy.delivered.clear()
        self._installed.clear()
        self._last_cycles = self.process.cpu.cycles
        self._boot()
        for vsef in self.antibodies:
            self._installed.append(install_vsef(vsef, self.process))

    def _handle_sampled_detection(self, message, tracker, violation):
        """A sampled request tripped taint analysis *before* corruption
        took effect: derive taint-grade antibodies on the spot, then drop
        the request via rollback (§4.2).

        This path fires even when the exploit would have *succeeded*
        (layouts guessed correctly): the sink check does not depend on
        the attack crashing.
        """
        report = tracker.report()
        # Detach before recovery so replay does not re-trip the sink.
        if tracker in self.process.hooks.tools:
            self.process.hooks.detach(tracker, self.process)
        self.sampler.record(message.msg_id, report, self.clock)
        detection = Detection(kind="sampled", virtual_time=self.clock,
                              msg_id=message.msg_id,
                              suspicion=str(violation))
        self.detections.append(detection)
        self._event("sampled-detect", str(violation))

        drop = set(report.malicious_msg_ids) or {message.msg_id}
        vsef = report.derive_vsef(self.process)
        new_vsefs = self._install_new([vsef] if vsef else [])
        signatures = []
        first = min(drop)
        if 0 <= first < len(self.proxy.log):
            signature = generate_exact(self.proxy.log[first].data)
            self.proxy.signatures.add(signature)
            signatures.append(signature)
            self.proxy.mark_malicious(sorted(drop))
        if (new_vsefs or signatures) and self.bus is not None:
            self.bus.publish(AntibodyBundle(
                app=self.app_name, vsefs=new_vsefs, signatures=signatures,
                exploit_input=self.proxy.log[first].data
                if signatures else None,
                produced_at=self.clock, stage="initial"))
        if new_vsefs:
            self._event("antibody:first-vsef", new_vsefs[0].describe())

        checkpoint = self.checkpoints.before_message(
            self._delivery_index(first)) or self.checkpoints.latest()
        if checkpoint is None:
            self._restart()
            return
        try:
            result = self.recovery.recover(self.process, self.proxy,
                                           self.checkpoints, checkpoint,
                                           drop)
        except RecoveryFailed as failed:
            self._event("recovery:restart", str(failed))
            self._restart()
            return
        self._rebase_cycles()
        self.vclock.advance(result.virtual_seconds)
        self._event("recovered", "sampled detection handled cleanly")

    def _handle_vsef_block(self, blocked: AttackDetected):
        """An antibody fired: clean block, no corruption, cheap recovery."""
        detection = detection_from_vsef(blocked, self.clock,
                                        self.process.current_msg_id)
        self.detections.append(detection)
        self._event("vsef-block", detection.describe())
        drop = {self.process.current_msg_id} \
            if self.process.current_msg_id is not None else set()
        checkpoint = None
        if drop:
            checkpoint = self.checkpoints.before_message(
                self._delivery_index(min(drop)))
        if checkpoint is None:
            checkpoint = self.checkpoints.latest()
        if checkpoint is None:
            return
        try:
            result = self.recovery.recover(self.process, self.proxy,
                                           self.checkpoints, checkpoint,
                                           drop)
        except RecoveryFailed as failed:
            self._event("recovery:restart", str(failed))
            self._restart()
            return
        self._rebase_cycles()
        self.vclock.advance(result.virtual_seconds)
        if drop:
            self.proxy.mark_malicious(sorted(drop))

    # -- antibody management ---------------------------------------------------------------

    def _vsef_key(self, vsef: VSEF) -> tuple:
        return vsef_key(vsef)

    def _install_new(self, vsefs: list[VSEF]) -> list[VSEF]:
        installed = []
        for vsef in vsefs:
            key = self._vsef_key(vsef)
            if key in self._vsef_keys:
                continue
            self._vsef_keys.add(key)
            vsef.app = self.app_name
            self._installed.append(install_vsef(vsef, self.process))
            self.antibodies.append(vsef)
            installed.append(vsef)
        return installed

    def apply_foreign_vsefs(self, vsefs: list[VSEF]) -> list[VSEF]:
        """Apply antibodies received from the community (consumer role)."""
        return self._install_new(vsefs)

    def apply_bundle(self, bundle: AntibodyBundle,
                     verifier=None) -> BundleOutcome:
        """Apply one community bundle, verifying it in a sandbox first.

        The §3.3 consumer delivery path.  When ``config.verify_foreign``
        is on and the bundle carries its exploit input, the bundle
        replays in a sandboxed fork of the clean program (``verifier``,
        a :class:`~repro.antibody.verify.SandboxVerifier`, shares one
        boot across bundles and consumers; without one a throwaway
        sandbox is booted).  A bundle whose input is *not* detected —
        or whose signatures do not match its own attack input — is
        rejected — logged, nothing installed, no signature added — so a
        tampered bundle can neither plant a bogus filter (denial of
        service on benign traffic) nor masquerade as protection.  Early
        bundles without the input yet apply their VSEFs immediately (a
        bogus VSEF only wastes cycles, §3.3) and verify when the input
        arrives; any *signatures* such a bundle carries are withheld —
        a filter cannot be validated without the attack it claims to
        block, and the producer protocol always pairs signatures with
        their input.

        Verification runs off the service path (its cost is host wall
        clock, not consumer virtual time), matching the paper's
        "verify when convenient" discipline.
        """
        verified = None
        signatures = list(bundle.signatures)
        if self.config.verify_foreign:
            if bundle.exploit_input is not None:
                result = (verifier.verify(self.image, bundle)
                          if verifier is not None
                          else verify_antibody(self.image, bundle))
                if not result.verified:
                    outcome = BundleOutcome(
                        bundle_id=bundle.bundle_id, stage=bundle.stage,
                        verified=False, detail=result.detail)
                    self.bundle_log.append(outcome)
                    self._event("antibody:rejected",
                                f"bundle "
                                f"{bundle.bundle_id or '<unpublished>'} "
                                f"failed sandbox verification: "
                                f"{result.detail}")
                    return outcome
                verified = True
                self._event("antibody:verified",
                            f"bundle {bundle.bundle_id or '<unpublished>'} "
                            f"detected by {result.detected_by} in sandbox")
            elif signatures:
                # No input means no verification: VSEFs still apply (a
                # bogus one only wastes cycles) but a filter that cannot
                # be checked against its attack is exactly the forged
                # benign-traffic DoS, so the signatures are withheld.
                signatures = []
                self._event("antibody:signatures-withheld",
                            f"bundle {bundle.bundle_id or '<unpublished>'} "
                            f"carries signatures but no exploit input; "
                            f"filters withheld pending a verifiable bundle")
        applied = self.apply_foreign_vsefs(bundle.vsefs)
        for signature in signatures:
            self.proxy.signatures.add(signature)
        outcome = BundleOutcome(
            bundle_id=bundle.bundle_id, stage=bundle.stage,
            verified=verified, vsefs=applied,
            signatures=len(signatures))
        self.bundle_log.append(outcome)
        return outcome

    # -- introspection ------------------------------------------------------------------------

    @property
    def boot_count(self) -> int:
        """How many times this node booted: 1, plus one per restart.

        Each eager-or-golden boot logs exactly one ``boot`` event, so
        the event log is the authoritative count."""
        return sum(1 for event in self.events if event.kind == "boot")

    def installed_vsef_keys(self) -> frozenset:
        """The identity keys (:func:`vsef_key`) of every installed
        antibody — the deduplication state the executable spec
        (:mod:`repro.spec.delivery`) checks refinement against."""
        return frozenset(self._vsef_keys)

    def active_signature_ids(self) -> tuple[str, ...]:
        """``sig_id`` of every filter on the proxy, in install order
        (exact then token, mirroring the proxy's match order)."""
        return tuple(s.sig_id for s in self.proxy.signatures.exact) \
            + tuple(s.sig_id for s in self.proxy.signatures.token)

    def memory_page_identities(self) -> set[int]:
        """Identity set of every page this node holds — live memory plus
        all checkpoint snapshots.  COW-shared pages (golden forks,
        clean-interval checkpoints) appear once however many holders
        reference them, which is exactly what the fleet's sharing-factor
        accounting sums per node and unions across a fleet."""
        pages = self.process.memory.page_identities()
        for checkpoint in self.checkpoints.checkpoints:
            pages |= checkpoint.snapshot.memory.page_identities()
        return pages

    def stats(self) -> dict:
        cpu = self.process.cpu
        return {
            "virtual_time": self.clock,
            "requests_seen": len(self.proxy.log),
            "requests_filtered": self.proxy.filtered_count,
            "attacks_handled": len(self.attacks),
            "detections": len(self.detections),
            "antibodies": len(self.antibodies),
            "checkpoints_taken": self.checkpoints.total_taken,
            "checkpoint_cost_seconds":
                self.checkpoints.total_cost_cycles / CPU_HZ,
            # Execution-core introspection: how much of the guest is
            # served by the predecoded fast path, how many traces are
            # planned and how many got hot enough to compile, and how
            # much memory churn the last checkpoint interval saw.
            "predecoded_insns": cpu.predecoded_count,
            "fused_traces": cpu.fused_trace_count,
            "compiled_supercells": cpu.compiled_trace_count,
            "cow_page_copies": self.process.memory.cow_copies,
            "dirty_pages_last_checkpoint":
                self.checkpoints.last_dirty_pages,
        }

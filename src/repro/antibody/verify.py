"""Sandboxed antibody verification (§3.3 "Distribution").

A consumer that does not trust a producer can verify a bundle itself:
spin up a sandboxed copy of the vulnerable program, apply the received
VSEFs, feed the included exploit input, and confirm that *something*
detects the attack — either a VSEF fires (clean detection) or the
lightweight monitor still crashes the sandbox (the VSEF was unnecessary
but harmless).  Verification is deliberately deferrable: hosts apply
VSEFs immediately and verify when convenient, because a bogus VSEF can
only waste cycles (§3.3).

Signatures face a stricter test than VSEFs, because a signature is a
*filter*: a forged one that happens to match benign traffic is a denial
of service, not wasted cycles.  Genuine signatures are derived from the
attack payload (exact-match is the payload itself, token signatures are
its invariant substrings), so every signature the bundle carries must
match the bundle's own exploit input.  One that does not match the very
attack it claims to block is unverifiable by construction — replaying
the attack says nothing about what else it filters — and the bundle is
rejected without booting a sandbox.

After the byte check, a **static audit** (:mod:`repro.antibody.audit`)
screens the bundle against the application's recovered CFG: VSEF code
locations must decode at real instruction boundaries on input-reachable
paths, and token filters must not be satisfiable by benign dispatch
literals alone.  Both forgeries the replay trial cannot expose — a
wasted-cycles patch offset and a censoring filter — die here, still
without booting a sandbox.

:class:`SandboxVerifier` is the one verification pipeline, used on a
fleet's delivery path (:meth:`~repro.runtime.sweeper.Sweeper.apply_bundle`).
It boots **one** sandbox per program image, snapshots the post-boot
state, and replays each bundle against a copy-on-write restore of that
snapshot — a sandboxed *fork*, so N consumers verifying the same bundle
pay one boot plus one replay, not N boots.  Results are memoized per
(image, bundle): verification is deterministic given both, so the
cached verdict is exactly what a re-run would produce.
:func:`verify_antibody` is the one-shot form: a fresh verifier, used
once and thrown away.

The sandbox loads its own fixed-seed layout, never the consumer's:
verification answers "is this input genuinely detected as an attack",
and must not depend on where the consumer's regions happen to sit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AttackDetected, VMFault
from repro.antibody.audit import StaticAuditor
from repro.antibody.distribution import AntibodyBundle
from repro.antibody.vsef import install_vsef
from repro.machine.process import Process

_SANDBOX_STEP_BUDGET = 2_000_000

#: One unverifiable-bundle result; callers treat it as "apply now,
#: verify when the exploit input arrives" (piecemeal distribution).
_NO_INPUT = ("none", "bundle carries no exploit input yet")


@dataclass
class VerificationResult:
    verified: bool
    detected_by: str          # "vsef" | "fault" | "none"
    detail: str = ""
    #: Which pipeline stage produced this verdict: "deferred" (no
    #: exploit input yet), "prescreen" (signature byte check),
    #: "audit" (static audit), or "trial" (sandbox replay ran).  The
    #: executable spec (:mod:`repro.spec.verifier`) classifies results
    #: by this field; it never changes which verdict is produced.
    stage: str = "trial"


def _unmatched_signature(bundle: AntibodyBundle):
    """The first bundle signature that does *not* match the bundle's
    own exploit input, or None when every signature does.

    A pure byte check, independent of the sandbox: genuine signatures
    are generated from the attack payload and must match it.  A
    mismatch is evidence of tampering (a filter smuggled alongside a
    real attack input), so callers reject before paying for a boot.
    """
    for signature in bundle.signatures:
        if not signature.matches(bundle.exploit_input):
            return signature
    return None


def _prescreen(bundle: AntibodyBundle) -> VerificationResult | None:
    """The sandbox-free gates: deferral for a bundle without its
    exploit input, rejection for one whose signatures fail the byte
    check.  None means the bundle may proceed to the audit and trial."""
    if bundle.exploit_input is None:
        return VerificationResult(False, *_NO_INPUT, stage="deferred")
    bogus = _unmatched_signature(bundle)
    if bogus is not None:
        return VerificationResult(
            False, "none",
            f"signature {bogus.sig_id} does not match the bundle's own "
            f"exploit input — unverifiable filter, likely forged",
            stage="prescreen")
    return None


def _run_trial(sandbox: Process, bundle: AntibodyBundle
               ) -> VerificationResult:
    """Feed the bundle's exploit input to a booted sandbox with its
    VSEFs installed; verified iff something detects the attack."""
    installed = [install_vsef(vsef, sandbox) for vsef in bundle.vsefs]
    try:
        sandbox.feed(bundle.exploit_input)
        result = sandbox.run(max_steps=_SANDBOX_STEP_BUDGET)
    except AttackDetected as detected:
        return VerificationResult(True, "vsef", str(detected))
    except VMFault as fault:
        return VerificationResult(True, "fault", str(fault))
    finally:
        for binding in installed:
            binding.uninstall()
    return VerificationResult(False, "none",
                              f"exploit did not trigger ({result.reason})")


class SandboxVerifier:
    """Delivery-path verification with forked sandboxes and memoization.

    One verifier is shared by every consumer of a fleet (or by one
    consumer across many bundles).  Per program image it boots a single
    sandbox and snapshots the post-boot state; each trial restores that
    snapshot — restored pages arrive frozen and copy-on-write, exactly
    like checkpoint rollback, so a trial never pays boot again and
    trials cannot contaminate each other.  Verdicts are cached per
    (image, bundle) identity: the trial is deterministic given both
    (fixed sandbox seed), so the cache is semantics-free sharing.
    """

    def __init__(self, seed: int = 1234):
        self.seed = seed
        #: id(image) -> (image, sandbox process, post-boot snapshot);
        #: the image reference is retained so a recycled id can never
        #: alias (lookups identity-check it), mirroring GoldenImageCache.
        self._sandboxes: dict[int, tuple] = {}
        #: (id(image), id(bundle)) -> (image, bundle, result).
        self._verdicts: dict[tuple[int, int], tuple] = {}
        self.auditor = StaticAuditor()
        self.boots = 0
        self.trials = 0
        self.cache_hits = 0
        self.audit_screens = 0
        self.audit_rejects = 0

    def verify(self, image, bundle: AntibodyBundle) -> VerificationResult:
        screened = _prescreen(bundle)
        if screened is not None:
            return screened
        self.audit_screens += 1
        report = self.auditor.audit(image, bundle)
        if not report.ok:
            self.audit_rejects += 1
            return VerificationResult(
                False, "none",
                f"static audit rejected bundle: {report.detail}",
                stage="audit")
        key = (id(image), id(bundle))
        cached = self._verdicts.get(key)
        if cached is not None and cached[0] is image and cached[1] is bundle:
            self.cache_hits += 1
            return cached[2]
        sandbox, snapshot = self._sandbox(image)
        sandbox.restore_full(snapshot, keep_log=False)
        self.trials += 1
        result = _run_trial(sandbox, bundle)
        self._verdicts[key] = (image, bundle, result)
        return result

    def _sandbox(self, image) -> tuple[Process, object]:
        entry = self._sandboxes.get(id(image))
        if entry is not None and entry[0] is image:
            return entry[1], entry[2]
        sandbox = Process(image, seed=self.seed, name="sandbox")
        sandbox.run(max_steps=_SANDBOX_STEP_BUDGET)
        snapshot = sandbox.snapshot_full()
        self.boots += 1
        self._sandboxes[id(image)] = (image, sandbox, snapshot)
        return sandbox, snapshot

    def stats(self) -> dict:
        return {"boots": self.boots, "trials": self.trials,
                "cache_hits": self.cache_hits,
                "audit_screens": self.audit_screens,
                "audit_rejects": self.audit_rejects}


def verify_antibody(image, bundle: AntibodyBundle,
                    seed: int = 1234) -> VerificationResult:
    """Verify ``bundle`` against the program ``image`` in a sandbox.

    Returns ``verified=True`` when the exploit input is detected with the
    bundle's VSEFs installed.  A bundle without an exploit input cannot
    be verified (the paper's piecemeal distribution means early bundles
    may not carry it yet) — callers treat that as "apply now, verify when
    the input arrives".
    """
    return SandboxVerifier(seed).verify(image, bundle)

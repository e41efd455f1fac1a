"""The executed community fleet: N real Sweeper nodes on one shared bus.

Everything §6 of the paper claims about the *community* — producers pay
for analysis once, consumers are protected within γ = γ₁ + γ₂ — was
previously modeled only as ODE/Gillespie aggregates (:mod:`si_model`,
:mod:`simulation`).  This module closes the loop: a discrete-event,
virtual-time scheduler boots N *actual* ``Sweeper``-protected guest
processes (mixed httpd/squidp/cvsd, mixed producer/consumer roles),
drives them with interleaved benign traffic and worm contacts, and lets
producers publish antibodies that consumers apply off one shared
:class:`~repro.antibody.distribution.CommunityBus` — so t₀, γ and the
final infection ratio are **measured from executed nodes**.

Roles map onto the epidemic model exactly:

- **Producers** (the α fraction) run the full Sweeper stack on a
  *randomized* layout: a worm contact faults (the lightweight
  detection), triggers real rollback/replay analysis, and publishes
  VSEFs + signatures on the bus.  γ₁ is whatever the executed pipeline
  takes.
- **Susceptible consumers** run *without* proactive protection
  (reference layout, ``randomize_layout=False``) and without analysis
  modules: a worm contact genuinely hijacks control flow — the httpd
  backdoor answers ``OWNED!`` and the host is infected.  Once a bundle
  is available on the bus, a consumer applies it before its next event
  and the same contact is *blocked by an executed VSEF* instead.

**Cross-validation by construction.**  The worm contact process draws
from its rng in *exactly* the sequence :func:`simulate_outbreak` does —
one ``expovariate(β·I)`` gap per contact, one uniform roll to pick the
target bucket (producers / susceptible / rest), one ρ draw in the
susceptible branch — while node *identities* within a bucket come from
a separate rng.  A fleet run with seed *s* therefore realizes the same
stochastic trajectory as ``simulate_outbreak(seed=s, γ=measured γ)``:
t₀ matches to float precision and infection counts match exactly,
*provided the executed defenses behave as the model assumes*.  Any
divergence (an antibody that fails to block, an exploit that fails to
land) breaks the match — which is precisely what makes the comparison a
test of the executed system.  The ODE solution is compared with a loose
tolerance (one stochastic realization at small N sits well off the
continuum limit).

**ρ < 1 is emergent, not assumed.**  With ``entropy_bits = 0`` (the
default) susceptible consumers are unrandomized and every landed
contact owns them — the reactive Slammer/Fig. 6 regime, ρ = 1.  With
``entropy_bits = b > 0`` consumers load *randomized* layouts: the worm
payload still embeds the reference-layout gadget address, so a hijack
lands only on a consumer whose exploit-critical region slide happens to
be 0 — probability 2^-b per layout, the paper's ρ — and faults
(detected, recovered, host stays clean) everywhere else.  Nothing
consults ρ to decide the outcome; the executed collision does.
Consumers are grouped into *layout cohorts* that share one layout draw,
so golden-image COW forking keeps working (one boot per cohort, not per
node); ``layout_sampling="stratified"`` pins cohort k's critical slide
to stratum k — stratum 0 is the colliding class — which both guarantees
the rare stratum is populated (importance splitting: measure a 2^-12
event without 2^12 nodes) and gives the reweighted estimator
ρ̂ = 2^-b·ĥ₀ + (1-2^-b)·ĥ_rest with per-stratum binomial variance.
Trials are *first* worm contacts per node (layouts are frozen at boot,
so re-contacts replay the same outcome and are not independent
evidence), delivered before the node holds any antibody.

**Bundles are verified before installation.**  Consumers poll the bus
and hand each bundle to :meth:`Sweeper.apply_bundle`: a bundle carrying
its exploit input replays in a sandboxed fork (one shared
:class:`~repro.antibody.verify.SandboxVerifier` boot per app, restored
copy-on-write per trial) and is *rejected — logged, never installed —*
unless something detects the attack; input-less early bundles apply
immediately and verify when the input arrives (§3.3's deferrable
verification).  Verification costs host wall clock only, never consumer
virtual time, so the ρ = 1 trajectory is bit-identical with it on.

**Scale.**  Fleets of hundreds of nodes pay three structural costs, all
fixed here without changing a single popped-event order at any N:

- *Boot and checkpoint memory*: nodes sharing an (image, layout) fork a
  :class:`~repro.runtime.golden.GoldenImageCache` golden image instead
  of re-executing initialization, and the forked pages are shared
  copy-on-write — so N idle consumers hold ~1 copy of the post-boot
  working set, not N (the CXL-style structural-sharing move).
- *Lazy materialization*: a node builds its Sweeper stack only on first
  contact/request; untouched nodes report their (golden-derived) boot
  state and cost nothing.  Exactness is free because a node's virtual
  clock is its own — boot advances it identically whenever it runs.
- *Scheduling*: the single flat event heap becomes a
  :class:`ShardedEventQueue` — per-shard heaps merged through a
  head-pointer heap, with batch (heapify) scheduling of the initial
  benign traffic.  A process-wide push counter keeps the pop order
  bit-identical to the flat heap's, so determinism never depends on the
  shard map.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass, field

from repro.antibody.distribution import CommunityBus
from repro.antibody.verify import SandboxVerifier
from repro.apps.cvsd import build_cvsd
from repro.apps.exploits import APP_EXPLOITS, EXPLOITS, ExploitStream
from repro.apps.httpd import build_httpd
from repro.apps.squidp import build_squidp
from repro.apps.workload import TrafficStream
from repro.errors import ReproError
from repro.machine.layout import randomized_layout
from repro.machine.memory import PAGE_SIZE
from repro.runtime.golden import GoldenImageCache
from repro.runtime.sweeper import Sweeper, SweeperConfig
from repro.worm.simulation import GillespieHalo, simulate_outbreak

_BUILDERS = {"httpd": build_httpd, "squidp": build_squidp, "cvsd": build_cvsd}

#: What the httpd backdoor answers when a hijack lands: the infection
#: signal the fleet reads off the executed responses.
_INFECTION_MARKER = b"OWNED!"

#: Exploits that genuinely *own* an unrandomized host (reach a gadget
#: that answers with the marker) rather than just crashing it; only
#: these can play the worm.  Today that is the Apache1 stack smash.
_OWNING_EXPLOITS = {"Apache1"}

_KIND_BENIGN = 0
_KIND_CONTACT = 1


class FleetDivergence(ReproError):
    """The executed fleet departed from the epidemic process it mirrors
    (e.g. a patient-zero exploit failed to land)."""


@dataclass(frozen=True)
class FleetConfig:
    """One fleet scenario.

    The worm targets ``vulnerable_app``; those nodes form the epidemic
    population N (``producers`` of them run full analysis, so
    α = producers / N).  ``extra_apps`` nodes ride along serving benign
    traffic only — mixed-workload realism plus aggregate throughput.
    """

    seed: int = 0
    vulnerable_app: str = "httpd"
    vulnerable_nodes: int = 20          # epidemic population N
    producers: int = 4                  # α·N of the vulnerable population
    #: (app, consumers, producers) triples of along-for-the-ride nodes.
    extra_apps: tuple[tuple[str, int, int], ...] = (("squidp", 2, 1),
                                                    ("cvsd", 2, 1))
    worm_exploit: str = "Apache1"       # must own an unrandomized host
    beta: float = 0.4                   # worm contacts/s per infected node
    #: The analytic ρ the run is cross-validated against.  Not a free
    #: knob: 1.0 (derived — the reactive regime at entropy_bits = 0, or
    #: 2^-entropy_bits when entropy is set) or explicitly equal to
    #: 2^-entropy_bits.  The *executed* outcome never consults it.
    rho: float = 1.0
    #: ρ < 1, executably.  0 keeps reference-layout consumers (every
    #: landed contact owns the host).  b > 0 randomizes susceptible
    #: consumers with b bits of per-region entropy, so a hijack lands
    #: only via an executed layout collision — analytic ρ = 2^-b.
    entropy_bits: int = 0
    #: Layout cohorts across the susceptible consumers: one layout draw
    #: — and one golden boot image — per cohort, nodes assigned
    #: round-robin.  0 picks min(2^entropy_bits, susceptible nodes).
    layout_cohorts: int = 0
    #: "stratified": cohort k's exploit-critical slide is pinned to
    #: stratum k (stratum 0 collides; non-zero strata sampled without
    #: replacement when cohorts < 2^b) — the importance-splitting design
    #: that populates the rare stratum by construction.  "iid": every
    #: cohort draws all slides independently — plain sampling, which at
    #: high entropy will usually miss the colliding stratum entirely.
    layout_sampling: str = "stratified"
    #: Sandbox-verify bundles on the consumer delivery path; rejected
    #: bundles are logged and never installed.  Trajectory-neutral (the
    #: sandbox spends host wall clock, not consumer virtual time).
    verify_bundles: bool = True
    benign_rate: float = 0.3            # benign requests/s per node
    gamma2: float = 3.0                 # bus dissemination latency γ₂
    horizon: float = 60.0               # hard virtual-time stop
    #: Keep running this long past community immunity so blocked
    #: contacts are demonstrated, then stop (everything after immunity
    #: is epidemiologically frozen).
    post_immunity_slack: float = 6.0
    checkpoint_interval_ms: float = 200.0
    max_contacts: int = 100_000
    #: Every node runs in this process; 0 is the only accepted value.
    #: Scale comes from the Gillespie halo below, not from more cores.
    workers: int = 0
    #: Gillespie halo: modeled hosts surrounding the executed core.  The
    #: epidemic population becomes ``vulnerable_nodes + halo_hosts``,
    #: contacts cross the core↔halo boundary in both directions, and
    #: conservation (no host in both tiers) is asserted per contact.
    #: 0 runs the pure-executed fleet, bit-identical to before the halo
    #: existed (the halo consumes no extra epidemic rng draws).
    halo_hosts: int = 0

    @property
    def total_nodes(self) -> int:
        return self.vulnerable_nodes + sum(c + p for _, c, p
                                           in self.extra_apps)


class ShardedEventQueue:
    """K per-shard heaps merged through a heap of shard-head pointers.

    ``push``/``pop`` keep each shard's heap small (events for one slice
    of the fleet), and the top-level heap only tracks one pointer per
    non-empty shard.  Entries carry a queue-wide monotone sequence
    number, so the pop order is exactly the flat-heap order ``(t, seq)``
    regardless of how nodes map to shards.  Head pointers go stale when
    a push supersedes a shard's head; stale pointers are skipped on pop
    (sequence numbers are unique, so a match is exact and nothing pops
    twice).  ``extend`` batch-schedules with one heapify per shard
    instead of N pushes — how the initial benign traffic is seeded.
    """

    __slots__ = ("_heaps", "_top", "_seq", "_len")

    def __init__(self, shards: int = 1):
        self._heaps: list[list[tuple[float, int, int, int]]] = \
            [[] for _ in range(max(1, shards))]
        self._top: list[tuple[float, int, int]] = []
        self._seq = itertools.count()
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def shards(self) -> int:
        return len(self._heaps)

    def push(self, t: float, kind: int, idx: int):
        shard = idx % len(self._heaps)
        heap = self._heaps[shard]
        entry = (t, next(self._seq), kind, idx)
        heapq.heappush(heap, entry)
        self._len += 1
        if heap[0] is entry:
            heapq.heappush(self._top, (t, entry[1], shard))

    def extend(self, items):
        """Batch-schedule ``(t, kind, idx)`` triples (sequence numbers
        follow iteration order, matching one-by-one pushes)."""
        for t, kind, idx in items:
            self._heaps[idx % len(self._heaps)].append(
                (t, next(self._seq), kind, idx))
            self._len += 1
        self._top = []
        for shard, heap in enumerate(self._heaps):
            heapq.heapify(heap)
            if heap:
                self._top.append((heap[0][0], heap[0][1], shard))
        heapq.heapify(self._top)

    def pop(self) -> tuple[float, int, int] | None:
        """The globally earliest event as ``(t, kind, idx)``."""
        while self._top:
            t, seq, shard = heapq.heappop(self._top)
            heap = self._heaps[shard]
            if not heap or heap[0][0] != t or heap[0][1] != seq:
                continue                      # stale head pointer
            entry = heapq.heappop(heap)
            self._len -= 1
            if heap:
                heapq.heappush(self._top, (heap[0][0], heap[0][1], shard))
            return entry[0], entry[2], entry[3]
        return None


@dataclass
class LayoutCohort:
    """One shared layout draw across a slice of susceptible consumers.

    Members load the identical randomized layout (``layout_seed`` +
    optional pinned critical slide), so they fork one golden boot image
    — the COW savings survive randomization.  The cohort is also the
    estimator's stratum: ``trials``/``hits`` tally each member's *first*
    pre-immunity worm contact and whether it genuinely owned the host.
    """

    index: int
    layout_seed: int
    pin: dict[str, int] | None
    critical_slide: int         # realized slide of the exploit-critical region
    collides: bool              # slide == 0: the worm's address guess lands
    nodes: int = 0
    trials: int = 0
    hits: int = 0

    def report(self) -> dict:
        return {"cohort": self.index, "critical_slide": self.critical_slide,
                "collides": self.collides, "nodes": self.nodes,
                "trials": self.trials, "hits": self.hits}


@dataclass
class FleetNode:
    """One executed node and its epidemic bookkeeping.

    The Sweeper stack is *lazy*: ``sweeper`` stays ``None`` until the
    scheduler first delivers an event to this node, at which point the
    node materializes — forked from a golden boot image when one exists
    for its (app, layout).  An untouched node is pure bookkeeping.
    """

    index: int
    name: str
    app: str
    role: str                           # "producer" | "consumer"
    vulnerable: bool
    config: SweeperConfig
    traffic: TrafficStream
    arrivals: random.Random             # inter-arrival draws (per-node)
    sweeper: Sweeper | None = None
    infected: bool = False
    infected_at: float | None = None
    immune_at: float | None = None
    requests: int = 0
    responses: int = 0
    contacts: int = 0
    worm: ExploitStream | None = None   # armed when this node is infected
    #: Layout cohort membership (emergent-ρ consumers only).
    cohort: int | None = None
    collides: bool | None = None

    def report(self) -> dict:
        sweeper = self.sweeper
        return {
            "name": self.name, "app": self.app, "role": self.role,
            "vulnerable": self.vulnerable,
            "infected": self.infected, "infected_at": self.infected_at,
            "immune_at": self.immune_at,
            "benign_requests": self.requests,
            "benign_responses": self.responses,
            "worm_contacts": self.contacts,
            "attacks_analyzed": len(sweeper.attacks),
            "detections": len(sweeper.detections),
            "antibodies": len(sweeper.antibodies),
            "requests_filtered": sweeper.proxy.filtered_count,
            "bundles_verified": sum(1 for o in sweeper.bundle_log
                                    if o.verified is True),
            "bundles_rejected": sum(1 for o in sweeper.bundle_log
                                    if o.verified is False),
            "virtual_time": sweeper.clock,
        }

    def boot_stub_report(self, boot_clock: float) -> dict:
        """What :meth:`report` would say for a node that booted but was
        never touched — synthesized so untouched nodes need not boot."""
        return {
            "name": self.name, "app": self.app, "role": self.role,
            "vulnerable": self.vulnerable,
            "infected": False, "infected_at": None, "immune_at": None,
            "benign_requests": 0, "benign_responses": 0,
            "worm_contacts": 0, "attacks_analyzed": 0, "detections": 0,
            "antibodies": 0, "requests_filtered": 0,
            "bundles_verified": 0, "bundles_rejected": 0,
            "virtual_time": boot_clock,
        }


@dataclass
class FleetResult:
    """What one executed fleet run measured."""

    population: int
    producers: int
    producer_ratio: float
    beta: float
    rho: float
    seed: int
    total_nodes: int
    t0: float | None                    # first producer contact (fleet time)
    availability: float | None          # first bundle reachable on the bus
    gamma_measured: float | None        # availability - t0 = γ₁ + γ₂
    gamma1_first_vsef: float | None     # detect → first VSEF, first analysis
    infected_final: int
    infection_ratio: float
    contacts: int
    contacts_to_producers: int
    contacts_blocked: int               # delivered to a consumer, defended
    contacts_wasted: int                # landed on an already-infected host
    #: Hijacks defeated by an executed layout collision failure: the
    #: exploit's address guess missed and the consumer faulted clean
    #: (always 0 in the ρ = 1 regime).
    contacts_faulted: int
    benign_sent: int
    benign_responses: int
    bundles_published: int
    total_guest_cycles: int
    wall_seconds: float
    aggregate_insns_per_second: float
    #: Scale accounting: how many nodes ever materialized a Sweeper
    #: stack, and how the golden-image cache served them.
    nodes_materialized: int = 0
    golden: dict | None = None          # GoldenImageCache.stats()
    #: Checkpoint/live page sharing across the fleet (bytes); excluded
    #: from regression gates, asserted sub-linear by the scale bench.
    memory: dict | None = None
    #: Emergent-ρ accounting (None in the ρ = 1 regime): cohort design,
    #: per-stratum trial/hit tallies and the reweighted estimator.
    layout: dict | None = None
    #: Sandbox bundle-verification accounting (None when disabled).
    verification: dict | None = None
    #: Gillespie-halo accounting (None without a halo): modeled-tier
    #: counts, boundary crossings and the conservation check.
    halo: dict | None = None
    nodes: list[dict] = field(default_factory=list)
    gillespie: dict | None = None       # matched-seed simulate_outbreak
    model: dict | None = None           # solve_outbreak (needs scipy)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        # An absent halo stays absent from the payload, so tracked
        # baselines written before the halo existed remain byte-stable
        # and the regression gate's key walk never sees a one-sided key.
        if self.halo is None:
            data.pop("halo")
        return data


def _validate(config: FleetConfig):
    if config.entropy_bits < 0:
        raise ReproError("entropy_bits must be >= 0")
    # Checked in every regime so a typo staged at rho = 1 surfaces
    # immediately, not when entropy_bits is later flipped on.
    if config.layout_sampling not in ("iid", "stratified"):
        raise ReproError(f"unknown layout_sampling "
                         f"{config.layout_sampling!r} "
                         "(expected 'iid' or 'stratified')")
    if config.layout_cohorts < 0:
        raise ReproError("layout_cohorts must be >= 0")
    if config.entropy_bits == 0:
        if config.rho != 1.0:
            raise ReproError(
                "rho is not a free knob: with entropy_bits = 0 the fleet "
                "executes the reactive regime rho = 1.0 (susceptible "
                "consumers run unrandomized so worm contacts genuinely "
                "land); set entropy_bits = b to execute rho = 2^-b as "
                "emergent layout collisions instead of assuming it")
    else:
        derived = 2.0 ** -config.entropy_bits
        if config.rho not in (1.0, derived):
            raise ReproError(
                f"rho is derived from entropy_bits "
                f"(2^-{config.entropy_bits} = {derived}); leave it at the "
                f"default or set it to the derived value")
        if config.layout_cohorts > 2 ** config.entropy_bits:
            raise ReproError(
                f"layout_cohorts = {config.layout_cohorts} exceeds the "
                f"2^{config.entropy_bits} distinct strata of the critical "
                f"slide — cohorts beyond that cannot be distinct")
    if config.producers < 1:
        raise ReproError("a community needs at least one producer")
    if config.producers >= config.vulnerable_nodes:
        raise ReproError("the vulnerable population must contain "
                         "susceptible consumers")
    spec = EXPLOITS.get(config.worm_exploit)
    if spec is None or spec.app != config.vulnerable_app or \
            config.worm_exploit not in APP_EXPLOITS[config.vulnerable_app]:
        raise ReproError(f"worm exploit {config.worm_exploit!r} does not "
                         f"target {config.vulnerable_app!r}")
    if config.worm_exploit not in _OWNING_EXPLOITS:
        raise ReproError(
            f"worm exploit {config.worm_exploit!r} cannot own a host: only "
            f"control-flow hijacks that succeed on an unrandomized layout "
            f"({', '.join(sorted(_OWNING_EXPLOITS))}) are executable as "
            f"infections — the others merely crash the target")
    if config.entropy_bits > 0 and spec.hijack_region is None:
        raise ReproError(
            f"worm exploit {config.worm_exploit!r} embeds no absolute "
            f"address guess (hijack_region is None), so randomization "
            f"cannot attenuate it — emergent rho < 1 needs a layout-"
            f"dependent hijack")
    if config.workers != 0:
        raise ReproError(f"workers = {config.workers}: the fleet runs "
                         f"every node in this process; only 0 is accepted")
    if config.halo_hosts < 0:
        raise ReproError("halo_hosts must be >= 0")


# -- roster construction ---------------------------------------------------
#
# Building the fleet roster is a pure function of the config: cohort
# planning, node configs, traffic/arrival rngs, image construction —
# no booting, no rng shared with the epidemic process.

def plan_cohorts(config: FleetConfig) -> list[LayoutCohort]:
    """Draw the susceptible population's layout cohorts.

    Each cohort is one concrete randomized layout; members fork one
    golden boot image.  Stratified sampling pins cohort k's
    exploit-critical slide to stratum value k — stratum 0 *is* the
    colliding class, so the rare event is populated by construction
    (the importance-splitting move); with fewer cohorts than strata
    the non-zero strata are sampled without replacement from a
    dedicated rng.  The layout draw itself mirrors
    :func:`~repro.runtime.sweeper.boot_layout` exactly, so the
    planned slide is the slide the booted node genuinely loads.
    """
    bits = config.entropy_bits
    susceptible = config.vulnerable_nodes - config.producers
    count = config.layout_cohorts or min(2 ** bits, susceptible)
    count = max(1, min(count, susceptible))
    region = EXPLOITS[config.worm_exploit].hijack_region
    if config.layout_sampling == "stratified":
        if count == 2 ** bits:
            strata = list(range(count))
        else:
            picker = random.Random(config.seed ^ 0x57A7B17E)
            strata = [0] + sorted(picker.sample(
                range(1, 2 ** bits), count - 1))
    else:
        strata = [None] * count
    cohorts = []
    for k, stratum in enumerate(strata):
        layout_seed = config.seed * 4_900_019 + 1009 * k + 7
        pin = {region: stratum} if stratum is not None else None
        layout = randomized_layout(random.Random(layout_seed),
                                   entropy_bits=bits, pin=pin)
        slide = layout.slide_pages[region]
        cohorts.append(LayoutCohort(
            index=k, layout_seed=layout_seed, pin=pin,
            critical_slide=slide, collides=slide == 0))
    return cohorts


def _node_config(config: FleetConfig, role: str, vulnerable: bool,
                 seed: int, cohort: LayoutCohort | None = None,
                 layout_seed: int | None = None) -> SweeperConfig:
    producer = role == "producer"
    susceptible = vulnerable and not producer
    if susceptible and cohort is not None:
        # Emergent ρ: a randomized consumer on its cohort's layout.
        randomize, entropy = True, config.entropy_bits
        layout_seed, layout_pin = cohort.layout_seed, cohort.pin
    else:
        # Susceptible consumers in the ρ = 1 regime are the model's
        # unprotected hosts: no address randomization, so the worm
        # owns them.  Producers/riders randomize at full entropy
        # (layout_seed shares producer cohort draws when set).
        randomize, entropy = not susceptible, None
        layout_pin = None
    kwargs = {} if entropy is None else {"entropy_bits": entropy}
    return SweeperConfig(
        seed=seed,
        checkpoint_interval_ms=config.checkpoint_interval_ms,
        enable_membug=producer, enable_taint=producer,
        enable_slicing=producer,
        publish_antibodies=producer,
        dissemination_latency=config.gamma2,
        randomize_layout=randomize,
        layout_seed=layout_seed, layout_pin=layout_pin,
        verify_foreign=config.verify_bundles,
        **kwargs)


def build_roster(config: FleetConfig
                 ) -> tuple[list[FleetNode], dict[str, object],
                            list[LayoutCohort]]:
    """Build the fleet roster as pure bookkeeping; no node boots here.

    Returns ``(nodes, images, cohorts)``.  Sweeper stacks materialize
    on first delivered event (see :meth:`_FleetRun._sweeper`), so a
    512-node fleet only ever pays for the nodes the outbreak actually
    touches.  The caller subscribes the nodes to its bus.
    """
    emergent = config.entropy_bits > 0
    cohorts = plan_cohorts(config) if emergent else []
    images: dict[str, object] = {}
    nodes: list[FleetNode] = []
    roster: list[tuple[str, str, bool]] = []
    for i in range(config.producers):
        roster.append((config.vulnerable_app, "producer", True))
    for i in range(config.vulnerable_nodes - config.producers):
        roster.append((config.vulnerable_app, "consumer", True))
    for app, consumers, producers in config.extra_apps:
        for i in range(producers):
            roster.append((app, "producer", False))
        for i in range(consumers):
            roster.append((app, "consumer", False))
    counters: dict[tuple[str, str], itertools.count] = {}
    # Emergent mode shares layout draws: susceptible consumers join
    # their round-robin cohort, and producers form layout cohorts of
    # their own (capped at the consumer-cohort count) so randomized
    # producers fork golden boot images too.
    producer_cohorts = (min(config.producers, len(cohorts))
                        if emergent else 0)
    susceptible_seen = producers_seen = 0
    for index, (app, role, vulnerable) in enumerate(roster):
        if app not in images:
            images[app] = _BUILDERS[app]()
        ordinal = next(counters.setdefault((app, role),
                                           itertools.count(1)))
        cohort = producer_layout_seed = None
        if emergent and vulnerable:
            if role == "consumer":
                cohort = cohorts[susceptible_seen % len(cohorts)]
                cohort.nodes += 1
                susceptible_seen += 1
            else:
                producer_layout_seed = (
                    config.seed * 7_700_011
                    + 101 * (producers_seen % producer_cohorts) + 13)
                producers_seen += 1
        nodes.append(FleetNode(
            index=index,
            name=f"{app}-{role[0]}{ordinal}",
            app=app, role=role, vulnerable=vulnerable,
            config=_node_config(config, role, vulnerable,
                                seed=config.seed * 31 + index,
                                cohort=cohort,
                                layout_seed=producer_layout_seed),
            traffic=TrafficStream(
                app, seed=config.seed * 9_000_007 + index),
            arrivals=random.Random(config.seed * 1_000_003
                                   + 7919 * index + 11),
            cohort=cohort.index if cohort is not None else None,
            collides=cohort.collides if cohort is not None else None))
    return nodes, images, cohorts


class _FleetRun:
    """One in-flight execution of :func:`run_fleet`."""

    def __init__(self, config: FleetConfig):
        _validate(config)
        self.config = config
        #: Emergent-ρ regime: consumer layouts randomized, ρ = 2^-b.
        self.emergent = config.entropy_bits > 0
        #: The analytic ρ cross-validation runs against — derived, never
        #: steering an executed outcome.
        self.rho = (2.0 ** -config.entropy_bits if self.emergent
                    else config.rho)
        #: The epidemic rng — consumed in exactly simulate_outbreak's
        #: draw order so a fleet run is a matched Gillespie realization.
        self.rng_contacts = random.Random(config.seed)
        #: Node-identity rng: which concrete node within a drawn bucket.
        self.detail = random.Random((config.seed << 16) ^ 0x5F1EE7)
        self.bus = CommunityBus(dissemination_latency=config.gamma2)
        self.golden = GoldenImageCache()
        self.verifier = SandboxVerifier() if config.verify_bundles else None
        self.materialized = 0
        self.nodes, self.images, self.cohorts = build_roster(config)
        for node in self.nodes:
            self.bus.subscribe(node.name)
        self.v_producers = [n for n in self.nodes
                            if n.vulnerable and n.role == "producer"]
        self.v_consumers = [n for n in self.nodes
                            if n.vulnerable and n.role == "consumer"]
        self.population = len(self.v_producers) + len(self.v_consumers)
        self.susceptible = list(self.v_consumers)
        self.infected: list[FleetNode] = []
        #: The modeled tier: aggregate Gillespie state around the core.
        self.halo = (GillespieHalo(config.halo_hosts, self.rho)
                     if config.halo_hosts else None)
        #: One payload stream for all halo attackers (a modeled attacker
        #: has no per-node identity; the stream seed is disjoint from
        #: every executed node's worm stream and from patient zero's).
        self.halo_worm = (ExploitStream(config.worm_exploit,
                                        seed=config.seed * 5_000_011 - 2)
                          if self.halo else None)
        self.total_population = self.population + config.halo_hosts
        #: Core↔halo contact bookkeeping by (attacker tier, target tier).
        self.boundary = {"core_to_core": 0, "core_to_halo": 0,
                         "halo_to_core": 0, "halo_to_halo": 0}
        self.queue = ShardedEventQueue(
            max(1, int(round(config.total_nodes ** 0.5))))
        self.t0: float | None = None
        self.contacts = 0
        self.contacts_to_producers = 0
        self.contacts_blocked = 0
        self.contacts_wasted = 0
        self.contacts_faulted = 0
        self.benign_sent = 0
        self.benign_responses = 0

    # -- scheduling ---------------------------------------------------------

    def _cutoff(self) -> float:
        avail = self.bus.first_available_time(self.config.vulnerable_app)
        if avail is None:
            return self.config.horizon
        return min(self.config.horizon,
                   avail + self.config.post_immunity_slack)

    # -- delivery -----------------------------------------------------------

    def _sweeper(self, node: FleetNode) -> Sweeper:
        """The node's Sweeper stack, materializing it on first use.

        Materialization order cannot perturb the trajectory: boot state
        is deterministic per (image, layout, seed) — golden-forked or
        eager — and each node's virtual clock is its own, advanced by
        boot identically whenever boot happens.
        """
        if node.sweeper is None:
            node.sweeper = Sweeper(
                self.images[node.app], app_name=node.app,
                config=node.config,
                bus=self.bus if node.role == "producer" else None,
                golden=self.golden)
            self.materialized += 1
        return node.sweeper

    def _apply_bus(self, node: FleetNode, sweeper: Sweeper, t: float):
        """Antibodies available by ``t`` apply before the node serves its
        next event — the consumer's poll-on-wake discipline.  Each bundle
        goes through the verified delivery path: replayed in a sandboxed
        fork when it carries its exploit input, rejected (never
        installed) when nothing detects the attack."""
        for bundle in self.bus.poll(node.name, t):
            if bundle.app != node.app:
                continue
            outcome = sweeper.apply_bundle(bundle, verifier=self.verifier)
            if (outcome.vsefs or outcome.signatures) \
                    and node.immune_at is None:
                node.immune_at = t

    def _deliver(self, node: FleetNode, data: bytes, t: float) -> list[bytes]:
        sweeper = self._sweeper(node)
        self._apply_bus(node, sweeper, t)
        sweeper.vclock.advance_to(t)
        # The steppable split: arrival is logged (and filtered) at the
        # event time, then the node advances through its inbox.
        sweeper.schedule(data)
        return sweeper.advance()

    def _deliver_contact(self, node: FleetNode, payload: bytes,
                         t: float) -> bool:
        """Deliver one worm contact; returns True if the host was owned."""
        responses = self._deliver(node, payload, t)
        node.contacts += 1
        owned = any(_INFECTION_MARKER in r for r in responses)
        if owned and not node.infected:
            node.infected = True
            node.infected_at = t
            node.worm = ExploitStream(
                self.config.worm_exploit,
                seed=self.config.seed * 5_000_011 + node.index)
            self.infected.append(node)
            if node in self.susceptible:
                self.susceptible.remove(node)
        return owned

    def _infected_total(self) -> int:
        return len(self.infected) + \
            (self.halo.infected if self.halo is not None else 0)

    def _draw_attacker(self) -> tuple[bool, FleetNode | None]:
        """Uniform attacker draw over *all* infected hosts, executed and
        modeled: ``(from_halo, node)`` with ``node`` None for a halo
        attacker.  With no halo this is exactly the historical
        ``detail.randrange(len(infected))`` draw."""
        executed = len(self.infected)
        k = self.detail.randrange(self._infected_total())
        if k < executed:
            return False, self.infected[k]
        return True, None

    def _worm_payload(self) -> tuple[bytes, bool]:
        """One worm payload and whether its attacker is a halo host."""
        from_halo, attacker = self._draw_attacker()
        if from_halo:
            return self.halo_worm.next_payload(), True
        return attacker.worm.next_payload(), False

    def _count_boundary(self, from_halo: bool, to_halo: bool):
        if self.halo is None:
            return
        self.boundary[f"{'halo' if from_halo else 'core'}_to_"
                      f"{'halo' if to_halo else 'core'}"] += 1

    def _assert_conservation(self):
        """No host counted in both tiers, none lost: the executed core
        partitions into producers/susceptible/infected and the halo into
        susceptible/infected, summing to the combined population after
        every contact."""
        halo = self.halo
        if halo is None:
            return
        core = len(self.v_producers) + len(self.susceptible) \
            + len(self.infected)
        if core != self.population \
                or halo.susceptible + halo.infected != halo.hosts:
            raise FleetDivergence(
                f"core/halo conservation violated at contact "
                f"{self.contacts}: core {core}/{self.population}, halo "
                f"{halo.susceptible}+{halo.infected}/{halo.hosts}")

    # -- event handlers -----------------------------------------------------

    def _handle_benign(self, node: FleetNode, t: float):
        if node.infected:
            return                      # owned host: out of service
        responses = self._deliver(node, node.traffic.next_request(), t)
        node.requests += 1
        node.responses += len(responses)
        self.benign_sent += 1
        self.benign_responses += len(responses)
        if self.config.benign_rate > 0:
            nxt = t + node.arrivals.expovariate(self.config.benign_rate)
            if nxt <= self._cutoff():
                self.queue.push(nxt, _KIND_BENIGN, node.index)

    def _handle_contact(self, t: float):
        """One worm contact, mirroring simulate_outbreak's draws:
        uniform roll over the *combined* population picks the bucket, a
        ρ draw is consumed in each susceptible branch, and the realized
        outcome is whatever the executed node does with the payload —
        or, in the halo bucket, what the model's ρ draw decides for a
        modeled host.  With ``halo_hosts = 0`` the draw sequence is
        byte-identical to the historical pure-executed one."""
        rng = self.rng_contacts
        halo = self.halo
        self.contacts += 1
        roll = rng.random() * self.total_population
        n_producers = len(self.v_producers)
        if roll < n_producers:
            target = self.v_producers[self.detail.randrange(n_producers)]
            self.contacts_to_producers += 1
            if self.t0 is None:
                self.t0 = t
            payload, from_halo = self._worm_payload()
            self._count_boundary(from_halo, to_halo=False)
            self._deliver_contact(target, payload, t)
        elif roll < n_producers + len(self.susceptible):
            # The model's ρ draw is consumed to mirror its sequence, but
            # never decides the outcome: at ρ = 1 every delivered hijack
            # genuinely lands, and in the emergent regime the target's
            # executed layout collision decides.
            rng.random()
            target = self.susceptible[
                self.detail.randrange(len(self.susceptible))]
            first_contact = target.contacts == 0
            payload, from_halo = self._worm_payload()
            self._count_boundary(from_halo, to_halo=False)
            owned = self._deliver_contact(target, payload, t)
            if not owned:
                if target.immune_at is not None:
                    self.contacts_blocked += 1
                else:
                    # Emergent layout defense: the address guess missed
                    # and the consumer faulted clean.
                    self.contacts_faulted += 1
            if first_contact and target.cohort is not None and \
                    (owned or target.immune_at is None):
                # One estimator trial per node: its first worm contact,
                # delivered before any antibody reached it.  Layouts are
                # frozen at boot, so re-contacts replay the same outcome
                # and are not independent evidence.
                cohort = self.cohorts[target.cohort]
                cohort.trials += 1
                if owned:
                    cohort.hits += 1
        elif halo is not None and roll < n_producers \
                + len(self.susceptible) + halo.susceptible:
            # A modeled susceptible host.  Same draws as the executed
            # susceptible branch — one ρ draw, one attacker-identity
            # draw — so the combined process is one Gillespie
            # realization whichever tier the roll lands in; here the ρ
            # draw *decides* (there is no layout to collide with), and
            # community immunity blocks exactly as it freezes the core.
            draw = rng.random()
            from_halo, _ = self._draw_attacker()
            self._count_boundary(from_halo, to_halo=True)
            avail = self.bus.first_available_time(
                self.config.vulnerable_app)
            halo.contact(draw, immune=avail is not None and t >= avail)
        else:
            # Contact on an already-infected host (either tier): wasted,
            # like the model's "else" bucket.  Not delivered — the
            # process there is the worm now, not the server.
            self.contacts_wasted += 1
        self._assert_conservation()
        if self.contacts < self.config.max_contacts:
            gap = rng.expovariate(self.config.beta * self._infected_total())
            if t + gap <= self._cutoff():
                self.queue.push(t + gap, _KIND_CONTACT, -1)

    # -- main loop ----------------------------------------------------------

    def run(self) -> FleetResult:
        config = self.config
        wall_start = time.perf_counter()

        if config.benign_rate > 0:
            # Batch-scheduled: one heapify per shard, not N heap pushes.
            self.queue.extend(
                (node.arrivals.expovariate(config.benign_rate),
                 _KIND_BENIGN, node.index) for node in self.nodes)

        # Patient zero (t = 0): an external attacker owns one consumer —
        # the model's single initially-infected host.  In the emergent
        # regime the attacker's foothold is necessarily a host whose
        # layout its exploit defeats, so patient zero is drawn from the
        # colliding stratum (its forced contact never counts as a trial:
        # trials are tallied only for scheduler-delivered contacts).
        attacker = ExploitStream(config.worm_exploit,
                                 seed=config.seed * 5_000_011 - 1)
        candidates = self.v_consumers
        if self.emergent:
            candidates = [n for n in self.v_consumers if n.collides]
            if not candidates:
                raise FleetDivergence(
                    f"no susceptible consumer drew the colliding layout "
                    f"(entropy_bits={config.entropy_bits}, "
                    f"{len(self.cohorts)} {config.layout_sampling} "
                    f"cohorts): patient zero cannot exist — stratified "
                    f"sampling populates stratum 0 by construction")
        patient = candidates[self.detail.randrange(len(candidates))]
        if not self._deliver_contact(patient, attacker.next_payload(), 0.0):
            raise FleetDivergence(
                f"patient-zero exploit failed to own {patient.name}")
        # First contact gap, exactly as the Gillespie loop draws it.
        gap = self.rng_contacts.expovariate(config.beta * len(self.infected))
        if gap <= self._cutoff():
            self.queue.push(gap, _KIND_CONTACT, -1)

        while True:
            event = self.queue.pop()
            if event is None:
                break
            t, kind, idx = event
            if t > self._cutoff():
                break
            if kind == _KIND_BENIGN:
                self._handle_benign(self.nodes[idx], t)
            else:
                self._handle_contact(t)

        return self._result(time.perf_counter() - wall_start)

    # -- results ------------------------------------------------------------

    def _boot_clock_for(self, node: FleetNode) -> tuple[float, int] | None:
        """(virtual clock, guest cycles) an untouched ``node`` would show
        after boot.

        Boot statistics are layout-independent, so *any* golden image of
        the node's app under the same checkpoint config serves — an
        untouched randomized-layout producer reads its numbers off the
        consumer image instead of booting."""
        golden = self.golden.boot_stats(
            self.images[node.app], node.config.checkpoint_interval_ms,
            node.config.max_checkpoints)
        if golden is None:
            return None
        return golden.boot_clock_delta, golden.boot_cycles

    def _node_report(self, node: FleetNode) -> tuple[dict, int]:
        """(report dict, guest cycles) — synthesizing the boot stub for
        untouched nodes once any sibling image exists, materializing
        (boot state only, identical to eager) at most once per app."""
        if node.sweeper is None:
            boot = self._boot_clock_for(node)
            if boot is not None:
                return node.boot_stub_report(boot[0]), boot[1]
            self._sweeper(node)
        return node.report(), node.sweeper.process.cpu.cycles

    def _rho_report(self) -> dict | None:
        """The emergent-ρ measurement: per-stratum tallies plus the
        reweighted estimator.

        ``rho_measured`` is the raw executed hijack ratio over trials —
        under proportional (round-robin, equal-size cohort) allocation
        it estimates ρ directly.  ``rho_estimate`` reweights per-stratum
        rates by the strata's true probabilities, which is what makes
        the importance-split design unbiased when the colliding stratum
        is deliberately over-allocated: ρ̂ = w₀·ĥ₀ + (1-w₀)·ĥ_rest with
        w₀ = 2^-b, and the stated variance is the per-stratum binomial
        sum.  ``iid`` sampling has no design weights: estimate ==
        measured, variance p̂(1-p̂)/T.
        """
        if not self.emergent:
            return None
        config = self.config
        w0 = self.rho
        trials = sum(c.trials for c in self.cohorts)
        hits = sum(c.hits for c in self.cohorts)
        colliding = [c for c in self.cohorts if c.collides]
        rest = [c for c in self.cohorts if not c.collides]
        n0 = sum(c.trials for c in colliding)
        h0_hits = sum(c.hits for c in colliding)
        nr = sum(c.trials for c in rest)
        hr_hits = sum(c.hits for c in rest)
        measured = hits / trials if trials else None
        estimate = variance = None
        if config.layout_sampling == "stratified":
            if n0:
                h0 = h0_hits / n0
                hr = hr_hits / nr if nr else 0.0
                estimate = w0 * h0 + (1.0 - w0) * hr
                variance = w0 ** 2 * h0 * (1.0 - h0) / n0
                if nr:
                    variance += (1.0 - w0) ** 2 * hr * (1.0 - hr) / nr
        elif trials:
            estimate = measured
            variance = measured * (1.0 - measured) / trials
        return {
            "entropy_bits": config.entropy_bits,
            "sampling": config.layout_sampling,
            "cohorts": len(self.cohorts),
            "critical_region":
                EXPLOITS[config.worm_exploit].hijack_region,
            "colliding_nodes": sum(c.nodes for c in colliding),
            "trials": trials,
            "hits": hits,
            "rho_analytic": w0,
            "rho_measured": measured,
            "rho_estimate": estimate,
            "rho_stddev": (math.sqrt(variance)
                           if variance is not None else None),
            "per_cohort": [c.report() for c in self.cohorts],
        }

    def _verification_report(self) -> dict | None:
        """Fleet-wide sandbox verification tallies (delivery path)."""
        if self.verifier is None:
            return None
        verified = rejected = deferred = 0
        for node in self.nodes:
            if node.sweeper is None:
                continue
            for outcome in node.sweeper.bundle_log:
                if outcome.verified is True:
                    verified += 1
                elif outcome.verified is False:
                    rejected += 1
                else:
                    deferred += 1
        return {"bundles_verified": verified,
                "bundles_rejected": rejected,
                "bundles_applied_unverified": deferred,
                "sandbox": self.verifier.stats()}

    def _memory_stats(self) -> dict:
        """Fleet-wide page sharing: bytes held per node summed (what N
        private copies would cost) vs bytes held once across the fleet
        (what COW golden forking actually costs)."""
        fleet_pages: set[int] = set()
        per_node_sum = 0
        for node in self.nodes:
            if node.sweeper is None:
                continue
            node_pages = node.sweeper.memory_page_identities()
            per_node_sum += len(node_pages)
            fleet_pages |= node_pages
        return {
            "page_bytes_unique": len(fleet_pages) * PAGE_SIZE,
            "page_bytes_per_node_sum": per_node_sum * PAGE_SIZE,
            "sharing_factor": (per_node_sum / len(fleet_pages)
                               if fleet_pages else 1.0),
        }

    def _halo_report(self) -> dict | None:
        if self.halo is None:
            return None
        core = len(self.v_producers) + len(self.susceptible) \
            + len(self.infected)
        halo_sum = self.halo.susceptible + self.halo.infected
        return {**self.halo.report(),
                "core_population": self.population,
                "core_infected": len(self.infected),
                "boundary": dict(self.boundary),
                "conservation": {
                    "core": core, "halo": halo_sum,
                    "total": self.total_population,
                    "ok": core == self.population
                    and halo_sum == self.halo.hosts}}

    def _result(self, wall_seconds: float) -> FleetResult:
        config = self.config
        availability = self.bus.first_available_time(config.vulnerable_app)
        gamma = (availability - self.t0
                 if availability is not None and self.t0 is not None
                 else None)
        gamma1 = None
        for node in self.v_producers:
            if node.sweeper is not None and node.sweeper.attacks:
                record = node.sweeper.attacks[0]
                if record.first_vsef_at is not None:
                    gamma1 = record.first_vsef_at - record.detected_at
                break
        # Accounting snapshots *before* report synthesis, which may
        # materialize golden-less untouched nodes just to read their
        # boot state.
        memory = self._memory_stats()
        materialized = self.materialized
        golden_stats = self.golden.stats()
        verification = self._verification_report()
        reports = []
        total_cycles = 0
        for node in self.nodes:
            report, cycles = self._node_report(node)
            reports.append(report)
            total_cycles += cycles
        infected_core = len(self.infected)
        infected_final = infected_core + \
            (self.halo.infected if self.halo is not None else 0)
        result = FleetResult(
            population=self.total_population,
            producers=len(self.v_producers),
            producer_ratio=len(self.v_producers) / self.total_population,
            beta=config.beta, rho=self.rho, seed=config.seed,
            total_nodes=len(self.nodes),
            t0=self.t0, availability=availability, gamma_measured=gamma,
            gamma1_first_vsef=gamma1,
            infected_final=infected_final,
            infection_ratio=infected_final / self.total_population,
            contacts=self.contacts,
            contacts_to_producers=self.contacts_to_producers,
            contacts_blocked=self.contacts_blocked,
            contacts_wasted=self.contacts_wasted,
            contacts_faulted=self.contacts_faulted,
            benign_sent=self.benign_sent,
            benign_responses=self.benign_responses,
            bundles_published=len(self.bus.published),
            total_guest_cycles=total_cycles,
            wall_seconds=wall_seconds,
            aggregate_insns_per_second=total_cycles / wall_seconds
            if wall_seconds > 0 else 0.0,
            nodes_materialized=materialized,
            golden=golden_stats,
            memory=memory,
            layout=self._rho_report(),
            verification=verification,
            halo=self._halo_report(),
            nodes=reports)
        self._cross_validate(result)
        return result

    def _cross_validate(self, result: FleetResult):
        """Replay the same epidemic in the aggregate models with the
        *measured* γ plugged in."""
        if result.gamma_measured is None:
            return
        config = self.config
        sim = simulate_outbreak(
            beta=config.beta, population=result.population,
            producer_ratio=result.producer_ratio,
            gamma=result.gamma_measured, rho=self.rho, seed=config.seed)
        result.gillespie = {
            "t0": sim.t0,
            "final_infected": sim.final_infected,
            "infection_ratio": sim.infection_ratio,
        }
        try:
            from repro.worm.si_model import WormParams, solve_outbreak
        except ImportError:             # scipy not available: skip the ODE
            return
        ode = solve_outbreak(WormParams(
            beta=config.beta, population=result.population,
            producer_ratio=result.producer_ratio,
            gamma=result.gamma_measured, rho=self.rho))
        result.model = {
            "t0": ode.t0,
            "infection_ratio": ode.infection_ratio,
        }


def run_fleet(config: FleetConfig | None = None) -> FleetResult:
    """Boot the fleet, run the outbreak, measure, cross-validate."""
    return _FleetRun(config or FleetConfig()).run()

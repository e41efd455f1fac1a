"""The benchmark's three workloads: ``serve``, ``attack`` and ``outbreak``.

A run is made of whole passes.  A pass is a seeded list of operations
lasting a few seconds, with the same mix in every pass; per-operation
cost drifts with node age (long-lived nodes fragment their heaps), so
whole passes keep the mix identical however long a run lasts.  Pass
``i`` of seed ``s`` is always the same list; successive passes draw
fresh inputs, so a run averages over many of them, and a traced run
repeats pass 0.  Each workload drives one single-threaded process
(fleets run in-process, ``workers = 0``) through a closed loop with one
client: service is simulated in virtual time, so host time is the
simulator's cost per operation.

Every operation's outputs are checked, and a failed check counts the
operation as failed.  The simulated statistics are the oracle: a change
that only makes the simulator faster leaves them identical.

The ``rec`` argument of ``run_pass`` is the recorder in ``run.py``: it
times ``rec.setup``/``rec.op`` calls, counts ``rec.fail`` and forwards
``rec.note``/``rec.nodes_done`` to the tracer in a traced pass.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
from dataclasses import dataclass

from repro.antibody.distribution import CommunityBus
from repro.antibody.verify import SandboxVerifier
from repro.apps.cvsd import build_cvsd
from repro.apps.exploits import ExploitStream, squid_exploit
from repro.apps.httpd import build_httpd
from repro.apps.squidp import build_squidp
from repro.apps.workload import TrafficStream
from repro.machine.process import Process
from repro.runtime.sweeper import Sweeper, SweeperConfig, boot_layout
from repro.worm.fleet import FleetConfig, run_fleet

BUILDERS = {"httpd": build_httpd, "squidp": build_squidp, "cvsd": build_cvsd}
APPS = ("httpd", "squidp", "cvsd")
#: Fig. 4's modeled per-request service work.  At the paper's 200 ms
#: checkpoint interval and the 2 MHz guest clock a checkpoint fires
#: about every 20 requests.
BUSY_CYCLES = 20_000
CHECKPOINT_INTERVAL_MS = 200.0
#: The httpd backdoor's answer: a hijacked (owned) host.
OWNED = b"OWNED!"
_STEP_BUDGET = 50_000_000


def _absorb(digest, responses: list[bytes]):
    digest.update(len(responses).to_bytes(4, "little"))
    for data in responses:
        digest.update(len(data).to_bytes(4, "little"))
        digest.update(data)


def _serve(node: Sweeper, data: bytes) -> list[bytes]:
    responses = node.submit(data)
    node.advance_busy(BUSY_CYCLES)
    return responses


class Serve:
    """One ``TrafficStream`` request per operation, round-robin over an
    httpd, a squidp and a cvsd node, each served by ``Sweeper.submit``
    plus Fig. 4's busy work.

    A pass is one session: each node serves ``SESSION`` requests and is
    then replaced by a fresh node.  squidp's and cvsd's first-fit free
    lists never coalesce, so per-request cost climbs with node age; a
    fixed session length keeps that climb the same in every pass.  Each
    pass draws its own node seeds and traffic, so a run averages over
    many heap histories.  Setup is booting a session's three nodes and
    serving their warm-up.
    """

    name = "serve"
    SESSION = 600
    WARMUP = 20

    def __init__(self, seed: int, expected: list | None):
        self.seed = seed
        self.expected = expected
        self.values: dict[int, dict] = {}

    def prepare(self):
        self.images = {app: BUILDERS[app]() for app in APPS}

    def _session(self, index: int) -> tuple[dict, dict]:
        """The pass's node configs and requests (warm-up first)."""
        base = (self.seed * 1_000_003 + index) * len(APPS)
        configs, requests = {}, {}
        for k, app in enumerate(APPS):
            configs[app] = SweeperConfig(
                seed=base + k, checkpoint_interval_ms=CHECKPOINT_INTERVAL_MS)
            requests[app] = TrafficStream(app, seed=base + k).take(
                self.WARMUP + self.SESSION)
        return configs, requests

    def _unprotected_digest(self, app: str, config: SweeperConfig,
                            requests: list[bytes]) -> str:
        process = Process(self.images[app], layout=boot_layout(config),
                          seed=config.seed, name=app)
        process.run(max_steps=_STEP_BUDGET)
        digest = hashlib.sha256()
        for data in requests:
            before = len(process.sent)
            process.feed(data)
            process.run(max_steps=_STEP_BUDGET)
            _absorb(digest, [sent.data for sent in process.sent[before:]])
        return digest.hexdigest()

    def _boot_session(self, configs: dict, requests: dict):
        nodes, digests = {}, {}
        for app in APPS:
            node = Sweeper(self.images[app], app_name=app,
                           config=configs[app])
            digest = hashlib.sha256()
            for data in requests[app][:self.WARMUP]:
                _absorb(digest, _serve(node, data))
            nodes[app], digests[app] = node, digest
        return nodes, digests

    def run_pass(self, index: int, rec):
        configs, requests = self._session(index)
        # The oracle: an unprotected process with the same image, layout
        # and seed, fed the same requests, answers byte-identically.
        reference = {app: self._unprotected_digest(app, configs[app],
                                                   requests[app])
                     for app in APPS}
        recorded = _compare(reference, index, self.values, self.expected)
        nodes, digests = rec.setup(self._boot_session, configs, requests)
        failed: dict[str, set[int]] = {app: set() for app in APPS}
        for i in range(self.SESSION * len(APPS)):
            app = APPS[i % len(APPS)]
            data = requests[app][self.WARMUP + i // len(APPS)]
            ok, responses = rec.op(_serve, nodes[app], data)
            if ok and responses:
                _absorb(digests[app], responses)
            else:
                failed[app].add(i)
                rec.problem(f"{app} request {i} unanswered"
                            if ok else responses)
        for k, (app, node) in enumerate(nodes.items()):
            if node.detections:
                problem = f"{app}: benign traffic detected as " \
                          f"{node.detections[0].kind}"
            elif digests[app].hexdigest() != reference[app]:
                problem = f"{app}: responses differ from the unprotected " \
                          f"reference"
            else:
                problem = recorded
            if problem:
                failed[app].update(range(k, self.SESSION * len(APPS),
                                         len(APPS)))
                rec.problem(f"session {index}: {problem}")
        rec.fail(sum(len(ops) for ops in failed.values()))
        rec.nodes_done()
        del nodes
        gc.collect()


@dataclass(frozen=True)
class AttackOp:
    exploit: str
    app: str
    first: bytes               # the exploit the producer analyzes
    second: bytes              # the variant the consumer must stop
    producer_seed: int
    consumer_seed: int
    traffic: tuple[bytes, ...]  # producer warm-up, then one benign probe


class Attack:
    """One seeded variant of a Table-1 exploit per operation, cycling
    Apache1, Apache2, CVS and Squid.

    The exploit goes to a fresh randomized producer with full analysis
    that has served ``PRODUCER_WARMUP`` requests (so it lands mid
    checkpoint interval).  The operation ends when an unprotected
    consumer (reference layout, no analysis) has polled and installed
    every bundle through the pass's shared ``SandboxVerifier``; γ₂ is
    virtual and is not waited for.  Each operation ends with
    ``gc.collect()`` inside its timed region.  Setup is booting the
    producer and the consumer and serving the producer's warm-up; it is
    timed per cycle of the four exploits and reported per operation, so
    its median does not sit between two apps' boot costs.
    """

    name = "attack"
    CYCLE = ("Apache1", "Apache2", "CVS", "Squid")
    CYCLES_PER_PASS = 4
    PRODUCER_WARMUP = 30
    #: Benign requests the consumer serves before the second variant, so
    #: it blocks the variant while in service (mid checkpoint interval).
    CONSUMER_TRAFFIC = 4
    #: Squid payload lengths (escaped user bytes).  Producer outage grows
    #: with length; the stream's 3600-4400 B would make a pass take ten
    #: times longer.
    SQUID_LENGTHS = (100, 1000)
    SQUID_FILLS = (b"\\", b"~", b"^", b"|", b"<")
    #: Squid lengths come in mirrored pairs (L, low + high - L), so every
    #: pass has the same mean length; L follows a golden-ratio sequence
    #: from a seeded phase, so any prefix of a run spreads evenly.
    _GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

    def __init__(self, seed: int, expected: list | None):
        self.seed = seed
        self.expected = expected
        self.values: dict[int, list] = {}

    def prepare(self):
        self.images = {app: BUILDERS[app]() for app in APPS}
        self.phase = random.Random(self.seed).random()

    def plan(self, index: int) -> list[AttackOp]:
        rng = random.Random(self.seed * 1_000_003 + index)
        low, high = self.SQUID_LENGTHS
        ops = []
        for cycle in range(self.CYCLES_PER_PASS):
            for name in self.CYCLE:
                if name == "Squid":
                    pair = (index * self.CYCLES_PER_PASS + cycle) // 2
                    share = (self.phase + pair * self._GOLDEN) % 1.0
                    length = low + int((high - low) / 2 * share)
                    if cycle % 2:
                        length = low + high - length
                    first = squid_exploit(user_len=length,
                                          fill=rng.choice(self.SQUID_FILLS))
                    second = squid_exploit(
                        user_len=rng.randrange(low, high + 1),
                        fill=rng.choice(self.SQUID_FILLS))
                    app = "squidp"
                else:
                    stream = ExploitStream(name, seed=rng.randrange(1 << 30))
                    first, second = stream.next_payload(), \
                        stream.next_payload()
                    app = stream.spec.app
                ops.append(AttackOp(
                    exploit=name, app=app, first=first, second=second,
                    producer_seed=rng.randrange(1 << 30),
                    consumer_seed=rng.randrange(1 << 30),
                    traffic=tuple(TrafficStream(
                        app, seed=rng.randrange(1 << 30)).take(
                            self.PRODUCER_WARMUP + 1))))
        return ops

    def _boot_cycle(self, ops: list[AttackOp]) -> list[tuple]:
        return [self._boot_pair(op) for op in ops]

    def _boot_pair(self, op: AttackOp):
        image = self.images[op.app]
        bus = CommunityBus()
        producer = Sweeper(image, app_name=op.app,
                           config=SweeperConfig(
                               seed=op.producer_seed,
                               checkpoint_interval_ms=CHECKPOINT_INTERVAL_MS),
                           bus=bus)
        consumer = Sweeper(image, app_name=op.app, config=SweeperConfig(
            seed=op.consumer_seed,
            checkpoint_interval_ms=CHECKPOINT_INTERVAL_MS,
            randomize_layout=False, enable_membug=False, enable_taint=False,
            enable_slicing=False, publish_antibodies=False))
        for data in op.traffic[:self.PRODUCER_WARMUP]:
            _serve(producer, data)
        return producer, consumer, bus

    @staticmethod
    def _attack(op: AttackOp, producer: Sweeper, consumer: Sweeper,
                bus: CommunityBus, verifier: SandboxVerifier):
        producer.submit(op.first)
        outcomes = [consumer.apply_bundle(bundle, verifier=verifier)
                    for bundle in bus.poll("consumer", math.inf)
                    if bundle.app == op.app]
        gc.collect()
        return outcomes

    def _check(self, op: AttackOp, producer: Sweeper, consumer: Sweeper,
               outcomes) -> tuple[list | None, str | None]:
        if not producer.attacks or not producer.antibodies:
            return None, "producer did not detect the exploit or " \
                "install a VSEF"
        finals = [o for o in outcomes if o.stage == "final"]
        if not finals or finals[-1].verified is not True:
            return None, "consumer did not verify the final bundle"
        if any(o.rejected for o in outcomes):
            return None, "consumer rejected a genuine bundle"
        for data in op.traffic[:self.CONSUMER_TRAFFIC]:
            consumer.submit(data)
        detected = len(consumer.detections)
        responses = consumer.submit(op.second)
        if any(OWNED in data for data in responses):
            return None, "second variant owned the consumer"
        if len(consumer.detections) == detected:
            return None, "consumer neither detected nor filtered the variant"
        if not producer.submit(op.traffic[self.PRODUCER_WARMUP]):
            return None, "producer stopped answering benign requests"
        outcome = producer.attacks[0].outcome
        return [op.exploit, outcome.time_to_first_vsef,
                outcome.initial_analysis_time,
                outcome.total_analysis_time], None

    def run_pass(self, index: int, rec):
        verifier = SandboxVerifier()
        plan = self.plan(index)
        cycle = len(self.CYCLE)
        for first in range(0, len(plan), cycle):
            ops = plan[first:first + cycle]
            pairs = rec.setup(self._boot_cycle, ops, per=cycle)
            for position, (op, (producer, consumer, bus)) in enumerate(
                    zip(ops, pairs), start=first):
                number = index * len(plan) + position
                ok, outcomes = rec.op(self._attack, op, producer, consumer,
                                      bus, verifier)
                value, problem = (
                    self._check(op, producer, consumer, outcomes)
                    if ok else (None, outcomes))
                problem = problem or _compare(value, number, self.values,
                                              self.expected)
                if problem:
                    rec.fail(1)
                    rec.problem(f"{op.exploit} #{number}: {problem}")
            del pairs
            rec.nodes_done()


def _compare(value, number: int, seen: dict, expected: list | None):
    """Check one operation's values against an earlier run of the same
    operation (the traced pass repeats pass 0) and the recorded ones."""
    if number in seen and seen[number] != value:
        return f"values {value} differ from the first run's {seen[number]}"
    seen[number] = value
    if expected is not None and number < len(expected) \
            and expected[number] != value:
        return f"values {value} differ from the recorded {expected[number]}"
    return None


class Outbreak:
    """One in-process ``run_fleet`` per operation: 12 vulnerable httpd
    nodes (2 producers) plus squidp and cvsd riders, ρ = 1.  Fleet seeds
    follow on from the workload seed, so every fleet of a run is
    distinct.  Each operation ends with ``gc.collect()`` inside its
    timed region.  Setup is cold-booting one node per app (assemble,
    load, run to the first recv): what a fleet pays per image before
    golden forks take over.
    """

    name = "outbreak"
    FLEETS_PER_PASS = 10
    FLEET = {"vulnerable_nodes": 12, "producers": 2,
             "extra_apps": (("squidp", 1, 1), ("cvsd", 1, 1)),
             "workers": 0}

    def __init__(self, seed: int, expected: list | None):
        self.seed = seed
        self.expected = expected
        self.values: dict[int, list] = {}

    def prepare(self):
        pass

    def _cold_boot(self, index: int):
        for k, app in enumerate(APPS):
            Sweeper(BUILDERS[app](), app_name=app, config=SweeperConfig(
                seed=self.seed * 31 + index * len(APPS) + k,
                checkpoint_interval_ms=CHECKPOINT_INTERVAL_MS))

    @staticmethod
    def _fleet(seed: int):
        result = run_fleet(FleetConfig(seed=seed, **Outbreak.FLEET))
        gc.collect()
        return result

    def run_pass(self, index: int, rec):
        rec.setup(self._cold_boot, index)
        for position in range(self.FLEETS_PER_PASS):
            number = index * self.FLEETS_PER_PASS + position
            seed = self.seed * 1000 + number
            ok, result = rec.op(self._fleet, seed)
            if ok:
                value = [seed, result.t0, result.infected_final,
                         result.contacts, result.benign_sent,
                         result.bundles_published]
                problem = _check_fleet(result) or _compare(
                    value, number, self.values, self.expected)
                rec.note("worm.contacts", result.contacts)
                rec.note("worm.benign_sent", result.benign_sent)
                rec.note("worm.nodes_materialized",
                         result.nodes_materialized)
            else:
                problem = result
            if problem:
                rec.fail(1)
                rec.problem(f"fleet seed {seed}: {problem}")
            rec.nodes_done()


def _check_fleet(result) -> str | None:
    """The executed fleet's first producer contact must be its matched-
    seed Gillespie run's t0 (both consume one contact rng identically).

    Infection counts are checked against recorded values only: a
    producer whose randomized layout collides with the worm's address
    guess is owned instead of detecting, which the Gillespie model
    (producers always detect) does not follow."""
    gillespie = result.gillespie
    if gillespie is None:
        return None if result.t0 is None else \
            "a producer was contacted but no antibody became available"
    if result.t0 != gillespie["t0"]:
        return (f"executed t0 {result.t0} departs from Gillespie "
                f"t0 {gillespie['t0']}")
    return None


WORKLOADS = {cls.name: cls for cls in (Serve, Attack, Outbreak)}

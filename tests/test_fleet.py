"""Fleet subsystem tests: the injectable clock, the schedule/advance
split, and the executed community fleet cross-validated against the
Gillespie process it mirrors."""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random
import re

import pytest

from repro.apps.exploits import EXPLOITS
from repro.apps.workload import benign_requests
from repro.errors import ReproError
from repro.machine.layout import randomized_layout
from repro.runtime.clock import VirtualClock
from repro.runtime.sweeper import Sweeper, SweeperConfig, boot_layout
from repro.worm.fleet import FleetConfig, ShardedEventQueue, run_fleet

#: Small-but-real fleet: 6 vulnerable httpd nodes (1 producer), no
#: extra apps — fast enough for tier-1 while still executing the whole
#: producer → bus → consumer loop.
SMALL = FleetConfig(seed=2, vulnerable_nodes=6, producers=1,
                    extra_apps=(), beta=1.0, benign_rate=0.3,
                    horizon=40.0)


@pytest.fixture(scope="module")
def small_fleet():
    return run_fleet(SMALL)


class TestVirtualClock:
    def test_advance_and_advance_to(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        clock.advance(1.5)
        assert clock.now == 1.5
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_never_rewinds(self):
        clock = VirtualClock(start=2.0)
        clock.advance_to(1.0)          # past target: no-op
        assert clock.now == 2.0
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_injected_clock_is_shared_across_layers(self):
        clock = VirtualClock()
        sweeper = Sweeper(EXPLOITS["CVS"].build_image(), app_name="cvsd",
                          config=SweeperConfig(seed=3), clock=clock)
        assert sweeper.vclock is clock
        assert sweeper.proxy.clock is clock
        assert sweeper.checkpoints.clock is clock
        assert sweeper.clock == clock.now > 0        # boot advanced it
        clock.advance_to(10.0)
        assert sweeper.clock == 10.0
        message = sweeper.schedule(b"noop\n")
        assert message.arrival_time == 10.0          # proxy stamps from it
        sweeper.advance()
        checkpoint = sweeper.checkpoints.take(sweeper.process)
        assert checkpoint.virtual_time is not None
        assert checkpoint.virtual_time >= 10.0


class TestScheduleAdvance:
    def _requests(self):
        spec = EXPLOITS["CVS"]
        return spec, benign_requests("cvsd", 4) + [spec.payload()] \
            + benign_requests("cvsd", 2, seed=23)

    def test_split_equals_submit(self):
        """schedule()+advance() is submit(), across an attack."""
        spec, requests = self._requests()
        one = Sweeper(spec.build_image(), app_name="cvsd",
                      config=SweeperConfig(seed=5))
        two = Sweeper(spec.build_image(), app_name="cvsd",
                      config=SweeperConfig(seed=5))
        out_one, out_two = [], []
        for data in requests:
            out_one.append(one.submit(data))
            two.schedule(data)
            out_two.append(two.advance())
        assert out_one == out_two
        assert len(one.attacks) == len(two.attacks) == 1
        assert [(e.virtual_time, e.kind) for e in one.events] == \
            [(e.virtual_time, e.kind) for e in two.events]

    def test_batched_schedule_serves_in_arrival_order(self):
        spec = EXPLOITS["CVS"]
        sweeper = Sweeper(spec.build_image(), app_name="cvsd",
                          config=SweeperConfig(seed=5))
        for data in (b"Entry main.c\n", b"noop\n", b"Directory /src\n"):
            sweeper.schedule(data)
        assert len(sweeper.proxy.log) == 3        # logged at arrival...
        assert not sweeper.proxy.delivered        # ...but not yet served
        responses = sweeper.advance()
        assert len(sweeper.proxy.delivered) == 3
        assert sweeper.proxy.delivered == [0, 1, 2]
        assert responses
        assert sweeper.advance() == []            # inbox drained

    def test_filtered_requests_counted_at_serve_time(self):
        spec, requests = self._requests()
        sweeper = Sweeper(spec.build_image(), app_name="cvsd",
                          config=SweeperConfig(seed=5))
        for data in requests:
            sweeper.submit(data)
        filtered_before = sweeper.proxy.filtered_count
        sweeper.submit(spec.payload())            # exact signature match
        assert sweeper.proxy.filtered_count == filtered_before + 1


class TestEventLogReproducibility:
    """Satellite: wall time lives in its own field, so the
    (virtual_time, kind, detail) log replays identically per seed."""

    _GENERATED_IDS = re.compile(r"(sig-(exact|token)|vsef|ab)-\d+")

    def _attack_events(self):
        spec = EXPLOITS["Squid"]
        sweeper = Sweeper(spec.build_image(), app_name=spec.app,
                          config=SweeperConfig(seed=5))
        for request in benign_requests(spec.app, 3):
            sweeper.submit(request)
        sweeper.submit(spec.payload())
        return sweeper.events

    def test_wall_time_out_of_detail(self):
        events = self._attack_events()
        recovered = [e for e in events if e.kind == "recovered"]
        assert recovered
        assert recovered[0].wall_seconds is not None
        assert recovered[0].wall_seconds > 0
        for event in events:
            assert "wall" not in event.detail

    def test_log_reproducible_across_runs(self):
        """Two same-seed runs produce identical logs (module-global
        antibody/signature counters are normalized out — they are
        deterministic across fresh processes, not within one)."""
        def normalized(events):
            return [(e.virtual_time, e.kind,
                     self._GENERATED_IDS.sub("<id>", e.detail))
                    for e in events]

        assert normalized(self._attack_events()) == \
            normalized(self._attack_events())


class TestShardedEventQueue:
    def _drive(self, shards: int, seed: int) -> list[tuple]:
        """Interleave pushes and pops; mirror against one flat heap."""
        rng = random.Random(seed)
        queue = ShardedEventQueue(shards)
        flat: list[tuple] = []
        seq = itertools.count()
        popped = []
        for step in range(400):
            if rng.random() < 0.6 or not flat:
                t = round(rng.uniform(0, 50), 3)
                kind = rng.randrange(2)
                idx = rng.randrange(-1, 37)
                queue.push(t, kind, idx)
                heapq.heappush(flat, (t, next(seq), kind, idx))
            else:
                got = queue.pop()
                t, fseq, kind, idx = heapq.heappop(flat)
                assert got == (t, kind, idx)
                popped.append(got)
            assert len(queue) == len(flat)
        while flat:
            t, fseq, kind, idx = heapq.heappop(flat)
            assert queue.pop() == (t, kind, idx)
            popped.append((t, kind, idx))
        assert queue.pop() is None
        assert len(queue) == 0
        return popped

    @pytest.mark.parametrize("shards", [1, 3, 8, 64])
    def test_identical_to_flat_heap(self, shards):
        for seed in (0, 1, 2):
            self._drive(shards, seed)

    def test_shard_count_does_not_change_order(self):
        runs = [self._drive(shards, seed=9) for shards in (1, 5, 16)]
        assert runs[0] == runs[1] == runs[2]

    def test_batch_extend_matches_sequential_pushes(self):
        items = [(float(t), 0, i) for i, t in
                 enumerate([5, 1, 3, 3, 2, 8, 0])]
        batched = ShardedEventQueue(3)
        batched.extend(items)
        pushed = ShardedEventQueue(3)
        for t, kind, idx in items:
            pushed.push(t, kind, idx)
        out_b = [batched.pop() for _ in range(len(items))]
        out_p = [pushed.pop() for _ in range(len(items))]
        assert out_b == out_p
        # Simultaneous events drain in scheduling order (seq ties).
        assert out_b[3:5] == [(3.0, 0, 2), (3.0, 0, 3)]


class TestFleetAtScale:
    """Lazy materialization + golden forking, exercised at tier-1 size."""

    #: Contained outbreak with sparse benign traffic: immunity freezes
    #: the epidemic while many consumers are still untouched.
    LAZY = FleetConfig(seed=7, vulnerable_nodes=48, producers=6,
                       extra_apps=(), beta=0.4, benign_rate=0.01,
                       horizon=300.0, post_immunity_slack=4.0)

    @pytest.fixture(scope="class")
    def lazy_fleet(self):
        return run_fleet(self.LAZY)

    def test_untouched_nodes_never_materialize(self, lazy_fleet):
        assert lazy_fleet.nodes_materialized < lazy_fleet.total_nodes
        assert len(lazy_fleet.nodes) == lazy_fleet.total_nodes
        untouched = [n for n in lazy_fleet.nodes
                     if n["benign_requests"] == 0
                     and n["worm_contacts"] == 0 and not n["infected"]]
        assert untouched
        for node in untouched:
            assert node["virtual_time"] > 0        # boot-stub timeline
            assert node["antibodies"] == 0

    def test_consumers_fork_golden_images(self, lazy_fleet):
        golden = lazy_fleet.golden
        assert golden["forks"] >= 1
        # One httpd consumer image + producer layouts at most.
        assert golden["images"] <= self.LAZY.producers + 1

    def test_checkpoint_pages_shared_across_nodes(self, lazy_fleet):
        memory = lazy_fleet.memory
        assert memory["page_bytes_unique"] < \
            memory["page_bytes_per_node_sum"]
        assert memory["sharing_factor"] > 1.5

    def test_gillespie_match_holds_with_lazy_boot(self, lazy_fleet):
        gillespie = lazy_fleet.gillespie
        assert gillespie is not None
        assert lazy_fleet.t0 == gillespie["t0"]
        assert lazy_fleet.infected_final == gillespie["final_infected"]
        assert lazy_fleet.contacts_blocked >= 1


class TestEntropyThreading:
    """Satellite: ``SweeperConfig.entropy_bits`` must genuinely thread
    into the layout draw — the number of distinct region slides equals
    2^entropy_bits, which is what makes ρ = 2^-b an executed quantity
    rather than a label."""

    REGIONS = ("code", "data", "heap", "lib", "stack")

    def _slides(self, bits: int, seeds: int = 256) -> list[dict]:
        return [boot_layout(SweeperConfig(seed=s, randomize_layout=True,
                                          entropy_bits=bits)).slide_pages
                for s in range(seeds)]

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_each_region_draws_exactly_2_pow_b_slides(self, bits):
        draws = self._slides(bits)
        for region in self.REGIONS:
            values = {d[region] for d in draws}
            assert values == set(range(2 ** bits))

    def test_one_bit_yields_exactly_32_distinct_layouts(self):
        layouts = {tuple(sorted(d.items())) for d in self._slides(1)}
        assert len(layouts) == 2 ** (5 * 1)      # 2^b per region, 5 regions

    def test_entropy_recorded_on_layout(self):
        layout = boot_layout(SweeperConfig(seed=3, randomize_layout=True,
                                           entropy_bits=5))
        assert layout.entropy_bits == 5
        assert layout.randomized

    def test_layout_seed_overrides_node_seed_and_restart_path(self):
        """Cohort members (different node seeds, one layout_seed) load
        one layout and keep it across the restart path's seed + 1."""
        a = SweeperConfig(seed=1, randomize_layout=True, entropy_bits=4,
                          layout_seed=99)
        b = SweeperConfig(seed=2, randomize_layout=True, entropy_bits=4,
                          layout_seed=99)
        assert boot_layout(a).slide_pages == boot_layout(b).slide_pages
        assert boot_layout(a, seed=a.seed + 1).slide_pages == \
            boot_layout(a).slide_pages

    def test_pin_forces_only_the_pinned_region(self):
        plain = randomized_layout(random.Random(5), entropy_bits=4)
        pinned = randomized_layout(random.Random(5), entropy_bits=4,
                                   pin={"code": 9})
        assert pinned.slide_pages["code"] == 9
        for region in self.REGIONS:
            if region != "code":
                assert pinned.slide_pages[region] == \
                    plain.slide_pages[region]

    def test_pin_validation(self):
        with pytest.raises(ValueError, match="unknown region"):
            randomized_layout(random.Random(0), entropy_bits=4,
                              pin={"bss": 1})
        with pytest.raises(ValueError, match="outside"):
            randomized_layout(random.Random(0), entropy_bits=4,
                              pin={"code": 16})


class TestEmergentRho:
    """ρ < 1 as an executed property: randomized-layout consumers,
    layout cohorts sharing golden images, hijack success decided by the
    collision, the verified delivery path riding along."""

    #: b = 2 over 18 httpd nodes: four cohorts (stratum 0 collides),
    #: enough contacts for faults, hits and an executed epidemic.
    EMERGENT = FleetConfig(seed=0, vulnerable_nodes=18, producers=2,
                           extra_apps=(), entropy_bits=2, beta=1.0,
                           benign_rate=0.05, gamma2=4.0, horizon=120.0,
                           post_immunity_slack=4.0)

    @pytest.fixture(scope="class")
    def emergent_fleet(self):
        return run_fleet(self.EMERGENT)

    def test_rho_is_derived_not_assumed(self, emergent_fleet):
        assert emergent_fleet.rho == 0.25
        layout = emergent_fleet.layout
        assert layout is not None
        assert layout["entropy_bits"] == 2
        assert layout["rho_analytic"] == 0.25
        assert layout["sampling"] == "stratified"
        assert layout["cohorts"] == 4

    def test_hijacks_land_only_via_layout_collisions(self, emergent_fleet):
        layout = emergent_fleet.layout
        colliding = [c for c in layout["per_cohort"] if c["collides"]]
        rest = [c for c in layout["per_cohort"] if not c["collides"]]
        assert len(colliding) == 1                # stratum 0, by design
        assert all(c["critical_slide"] == 0 for c in colliding)
        assert all(c["hits"] == 0 for c in rest)
        assert sum(c["hits"] for c in colliding) >= 1
        assert emergent_fleet.contacts_faulted >= 1

    def test_faulted_hosts_stay_clean(self, emergent_fleet):
        """Every infection is patient zero or a counted colliding-layout
        hit: a faulted contact never owned anybody."""
        assert emergent_fleet.infected_final == \
            1 + sum(c["hits"] for c in emergent_fleet.layout["per_cohort"])

    def test_stratified_estimator_is_exact_when_stratum_sampled(
            self, emergent_fleet):
        layout = emergent_fleet.layout
        colliding_trials = sum(c["trials"]
                               for c in layout["per_cohort"]
                               if c["collides"])
        assert colliding_trials >= 1
        assert layout["rho_estimate"] == 0.25    # pure strata: exact
        assert layout["rho_stddev"] == 0.0

    def test_cohorts_share_golden_boot_images(self, emergent_fleet):
        """Randomization must not defeat COW forking: distinct cached
        layouts are bounded by cohorts (+ producer cohorts), not by
        node count."""
        golden = emergent_fleet.golden
        assert golden["layouts"] <= \
            emergent_fleet.layout["cohorts"] + self.EMERGENT.producers
        assert golden["forks"] >= 1
        assert emergent_fleet.nodes_materialized > golden["images"]

    def test_verified_delivery_path_rode_along(self, emergent_fleet):
        verification = emergent_fleet.verification
        assert verification is not None
        assert verification["bundles_rejected"] == 0   # honest producers
        assert verification["bundles_verified"] >= 1
        sandbox = verification["sandbox"]
        assert sandbox["boots"] == 1                   # one app image
        assert sandbox["cache_hits"] >= 1              # shared verdicts

    def test_emergent_run_is_deterministic(self):
        def run():
            data = run_fleet(self.EMERGENT).to_dict()
            data.pop("wall_seconds")
            data.pop("aggregate_insns_per_second")
            return data

        assert run() == run()

    def test_rho1_regime_is_unchanged(self, small_fleet):
        """entropy_bits = 0 keeps the reactive regime: no layout
        report, no faulted contacts, ρ stays 1."""
        assert small_fleet.rho == 1.0
        assert small_fleet.layout is None
        assert small_fleet.contacts_faulted == 0

    def test_emergent_validation(self):
        with pytest.raises(ReproError, match="entropy_bits"):
            run_fleet(FleetConfig(entropy_bits=-1))
        with pytest.raises(ReproError, match="derived"):
            run_fleet(FleetConfig(entropy_bits=2, rho=0.5))
        with pytest.raises(ReproError, match="strata"):
            run_fleet(FleetConfig(entropy_bits=2, layout_cohorts=5))
        with pytest.raises(ReproError, match="layout_sampling"):
            run_fleet(FleetConfig(entropy_bits=2,
                                  layout_sampling="bogus"))
        # Layout knobs are validated in every regime, so a typo staged
        # at rho = 1 fails here, not when entropy is later flipped on.
        with pytest.raises(ReproError, match="layout_sampling"):
            run_fleet(FleetConfig(layout_sampling="stratifed"))
        with pytest.raises(ReproError, match="layout_cohorts"):
            run_fleet(FleetConfig(layout_cohorts=-5))
        # The derived value is accepted explicitly.
        assert run_fleet(dataclasses.replace(
            self.EMERGENT, rho=0.25)).rho == 0.25


class TestFleet:
    def test_acceptance_shape(self, small_fleet):
        result = small_fleet
        assert result.population == 6
        assert result.producers == 1
        assert result.total_nodes == 6
        assert result.t0 is not None
        assert result.bundles_published >= 1
        # γ = γ₁ + γ₂: availability strictly after t0 by at least γ₂.
        assert result.gamma_measured > SMALL.gamma2
        assert result.gamma1_first_vsef is not None
        assert 1 <= result.infected_final < result.population

    def test_matches_gillespie_exactly(self, small_fleet):
        """The executed fleet realizes the same trajectory as the
        matched-seed Gillespie run with the measured γ plugged in."""
        g = small_fleet.gillespie
        assert g is not None
        assert small_fleet.t0 == g["t0"]
        assert small_fleet.infected_final == g["final_infected"]

    def test_epidemic_freezes_at_availability(self, small_fleet):
        """No executed infection lands after antibodies are reachable:
        community immunity is enforced by real VSEFs, not bookkeeping."""
        for node in small_fleet.nodes:
            if node["infected"]:
                assert node["infected_at"] <= small_fleet.availability

    def test_consumers_apply_foreign_antibodies(self, small_fleet):
        immune = [n for n in small_fleet.nodes
                  if n["role"] == "consumer" and n["immune_at"] is not None]
        assert immune
        for node in immune:
            assert node["antibodies"] >= 1
            assert node["attacks_analyzed"] == 0   # consumers never analyze

    def test_deterministic_from_seed(self):
        def run():
            data = run_fleet(SMALL).to_dict()
            data.pop("wall_seconds")
            data.pop("aggregate_insns_per_second")
            return data

        assert run() == run()

    def test_config_validation(self):
        with pytest.raises(ReproError):
            run_fleet(FleetConfig(rho=0.5))
        with pytest.raises(ReproError):
            run_fleet(FleetConfig(producers=0))
        with pytest.raises(ReproError):
            run_fleet(FleetConfig(worm_exploit="CVS"))
        # App-consistent but merely-crashing exploits cannot play the
        # worm: they never own a host, only fault it.
        with pytest.raises(ReproError):
            run_fleet(FleetConfig(vulnerable_app="cvsd",
                                  worm_exploit="CVS"))

    def test_workers_accepts_only_zero(self, small_fleet):
        """Every node runs in this process: ``workers=0`` runs the
        fleet, any other count is refused before anything boots."""
        assert run_fleet(dataclasses.replace(SMALL, workers=0)).t0 \
            == small_fleet.t0
        for workers in (1, -1):
            with pytest.raises(ReproError, match="workers"):
                run_fleet(dataclasses.replace(SMALL, workers=workers))

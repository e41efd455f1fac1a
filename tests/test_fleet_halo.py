"""Gillespie halo: an executed core embedded in a modeled population.

Three obligations from the hybrid design:

- **Conservation** — no host is ever counted in both tiers or lost:
  the core partitions into producers/susceptible/infected, the halo
  into susceptible/infected, and contacts cross the boundary in *both*
  directions.
- **Matched-seed exactness** — the combined core+halo process consumes
  the epidemic rng in exactly :func:`simulate_outbreak`'s sequence, so
  a hybrid run must realize the same trajectory as the aggregate
  Gillespie simulation over the combined population (t₀ to float
  precision, infection counts exactly).
- **Neutrality** — ``halo_hosts=0`` consumes zero extra draws, so the
  pure-executed trajectory is byte-identical to the pre-halo fleet
  (guarded transitively by the tracked-baseline regression gates).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ReproError
from repro.worm.community import SLAMMER, HITLIST_1K, hybrid_fleet_config
from repro.worm.fleet import FleetConfig, run_fleet
from repro.worm.simulation import GillespieHalo, simulate_outbreak

#: Small hybrid: 20 executed httpd nodes inside 2 020 total hosts.
HYBRID = FleetConfig(seed=0, halo_hosts=2000, beta=0.6,
                     max_contacts=20_000)


@pytest.fixture(scope="module")
def hybrid_result():
    return run_fleet(HYBRID)


class TestHaloUnit:
    def test_contact_bookkeeping(self):
        halo = GillespieHalo(hosts=10, rho=1.0)
        assert halo.contact(0.3, immune=False) is True
        assert halo.contact(0.9, immune=True) is False
        assert (halo.susceptible, halo.infected) == (9, 1)
        assert (halo.infections, halo.blocked, halo.resisted) == (1, 1, 0)

    def test_rho_decides(self):
        halo = GillespieHalo(hosts=10, rho=0.25)
        assert halo.contact(0.24, immune=False) is True
        assert halo.contact(0.25, immune=False) is False
        assert halo.resisted == 1

    def test_matched_seed_reproduces_gillespie(self):
        """Driving a halo-only loop with simulate_outbreak's exact draw
        sequence reproduces its trajectory — the equivalence the fleet's
        halo branch relies on, isolated from any executed node."""
        beta, population, gamma, seed = 0.5, 400, 12.0, 9
        producer_ratio = 0.05
        reference = simulate_outbreak(beta=beta, population=population,
                                      producer_ratio=producer_ratio,
                                      gamma=gamma, seed=seed)
        rng = random.Random(seed)
        producers = int(round(producer_ratio * population))
        halo = GillespieHalo(hosts=population - producers - 1, rho=1.0)
        infected = 1
        contacted_producers = 0
        t, t0 = 0.0, None
        while True:
            deadline = (t0 + gamma) if t0 is not None else float("inf")
            t += rng.expovariate(beta * (infected + halo.infected))
            if t >= deadline:
                break
            roll = rng.random() * population
            if roll < producers:
                if contacted_producers < producers:
                    contacted_producers += 1
                    if contacted_producers == 1:
                        t0 = t
            elif roll < producers + halo.susceptible:
                halo.contact(rng.random(), immune=False)
        assert t0 == reference.t0
        assert infected + halo.infected == reference.final_infected


class TestHybridFleet:
    def test_conservation_holds_and_is_reported(self, hybrid_result):
        conservation = hybrid_result.halo["conservation"]
        assert conservation["ok"]
        assert conservation["total"] == hybrid_result.population \
            == HYBRID.vulnerable_nodes + HYBRID.halo_hosts

    def test_contacts_cross_both_directions(self, hybrid_result):
        boundary = hybrid_result.halo["boundary"]
        assert boundary["core_to_halo"] > 0
        assert boundary["halo_to_core"] > 0

    def test_both_tiers_infected(self, hybrid_result):
        halo = hybrid_result.halo
        assert halo["infected_final"] > 0
        assert hybrid_result.infected_final == \
            halo["core_infected"] + halo["infected_final"]
        assert halo["blocked"] > 0, \
            "community immunity never reached the modeled tier"

    def test_hybrid_matches_combined_gillespie(self, hybrid_result):
        gillespie = hybrid_result.gillespie
        assert gillespie is not None
        assert abs(hybrid_result.t0 - gillespie["t0"]) < 1e-9
        assert hybrid_result.infected_final == \
            gillespie["final_infected"]

    def test_halo_block_absent_without_halo(self):
        result = run_fleet(FleetConfig(seed=2, vulnerable_nodes=6,
                                       producers=1, extra_apps=(),
                                       beta=1.0, horizon=40.0))
        assert result.halo is None
        assert "halo" not in result.to_dict()


class TestHybridFactory:
    def test_slammer_mapping(self):
        config = hybrid_fleet_config(SLAMMER, executed_nodes=128,
                                     producers=8, seed=7)
        assert config.beta == SLAMMER.beta
        assert config.vulnerable_nodes + config.halo_hosts \
            == SLAMMER.population
        assert config.rho == 1.0 and config.extra_apps == ()

    def test_rejects_emergent_rho_scenarios(self):
        with pytest.raises(ValueError):
            hybrid_fleet_config(HITLIST_1K, executed_nodes=128,
                                producers=8)

    def test_rejects_oversized_core(self):
        with pytest.raises(ValueError):
            hybrid_fleet_config(SLAMMER,
                                executed_nodes=SLAMMER.population + 1,
                                producers=8)

    def test_negative_halo_rejected(self):
        with pytest.raises(ReproError):
            run_fleet(FleetConfig(halo_hosts=-1))

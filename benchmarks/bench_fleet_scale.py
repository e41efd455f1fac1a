"""Fleet at scale: 128/512 *executed* nodes at near-constant per-node cost.

PR 3 proved the community claim with 26 executed nodes; this bench
proves the scaling story that makes large executed outbreaks affordable
on one machine:

- **Golden-image COW forking** — consumers share one booted image per
  (app, layout); private bytes accrue only for pages a node actually
  writes, so fleet checkpoint memory grows with the *touched* working
  set, not with N.  Asserted: unique page bytes at N=512 grow
  sub-linearly versus N=128 (4x the nodes, well under 4x the bytes).
- **Lazy materialization** — a contained outbreak (immunity freezes the
  epidemic) touches a bounded set of nodes; the rest never build a
  Sweeper stack at all.  Asserted: untouched nodes exist at N=512.
- **Sharded scheduler + indexed bus** — event order is pinned by the
  regression gate (identical trajectory fields), so the structures are
  proven order-preserving, not just fast.

The second test runs the ROADMAP's executed-fleet α-grid sweep: small-N
fleets across the producer-ratio grid, overlaid against the ODE curves
(Figure 6's axes, executed instead of integrated) and matched exactly
against seeded Gillespie runs.

Results go to ``benchmarks/results/BENCH_fleet_scale.json`` (scratch);
the *recorded* baseline is tracked at
``benchmarks/BENCH_fleet_scale.json`` and
``check_fleet_scale_regression.py`` fails CI if any seed-deterministic
trajectory quantity drifts.  Wall-clock and memory-byte fields are
reported but never gated (memory is asserted sub-linear here instead).
"""

from __future__ import annotations

import json
import time

from repro.worm.fleet import FleetConfig, run_fleet

from conftest import RESULTS_DIR, report

#: Fleet sizes for the scale runs (vulnerable httpd populations).
SCALE_NS = (128, 512)
#: Executed-vs-ODE band for one small-N realization per α point: the
#: continuum limit is compared multiplicatively (branching noise at
#: N=64 is large — the fig6 stochastic cross-check uses the same form).
ODE_RATIO_BAND = 6.0
ODE_RATIO_FLOOR = 0.1
#: 4x the nodes must cost well under 4x the unique page bytes.
SUBLINEAR_FACTOR = 3.0

#: α grid for the executed Figure-6-style sweep (producers out of 64).
SWEEP_POPULATION = 64
SWEEP_PRODUCERS = (2, 4, 8, 16)

#: Hybrid tier: executed core embedded in a modeled halo (§6 at the
#: paper's internet scale — 10⁶ total hosts, 10³ of them executed).
HYBRID_EXECUTED = 1000
HYBRID_PRODUCERS = 64
HYBRID_HALO = 1_000_000


def _hybrid_config() -> FleetConfig:
    return FleetConfig(seed=13, vulnerable_nodes=HYBRID_EXECUTED,
                       producers=HYBRID_PRODUCERS, extra_apps=(),
                       beta=0.4, benign_rate=0.005, gamma2=3.0,
                       horizon=120.0, post_immunity_slack=4.0,
                       halo_hosts=HYBRID_HALO, max_contacts=250_000)


def _scale_config(n: int) -> FleetConfig:
    """A contained outbreak: α is fixed at 1/16 so t₀ (and hence the
    epidemic's frozen size) is comparable across N, and benign traffic
    is sparse enough that untouched consumers stay unmaterialized."""
    return FleetConfig(seed=7, vulnerable_nodes=n, producers=n // 16,
                       extra_apps=(), beta=0.6, benign_rate=0.01,
                       gamma2=3.0, horizon=300.0, post_immunity_slack=4.0)


def _sweep_config(producers: int) -> FleetConfig:
    return FleetConfig(seed=11, vulnerable_nodes=SWEEP_POPULATION,
                       producers=producers, extra_apps=(), beta=0.6,
                       benign_rate=0.01, gamma2=3.0, horizon=300.0,
                       post_immunity_slack=4.0)


def _trajectory_fields(result) -> dict:
    """The seed-deterministic aggregates the regression gate pins
    (node-level reports stay in BENCH_fleet.json's 26-node record)."""
    return {
        "population": result.population,
        "producers": result.producers,
        "total_nodes": result.total_nodes,
        "t0": result.t0,
        "availability": result.availability,
        "gamma_measured": result.gamma_measured,
        "infected_final": result.infected_final,
        "infection_ratio": result.infection_ratio,
        "contacts": result.contacts,
        "contacts_to_producers": result.contacts_to_producers,
        "contacts_blocked": result.contacts_blocked,
        "contacts_wasted": result.contacts_wasted,
        "benign_sent": result.benign_sent,
        "bundles_published": result.bundles_published,
        "nodes_materialized": result.nodes_materialized,
        "golden": result.golden,
        "gillespie": result.gillespie,
    }


def test_fleet_scale():
    runs = {}
    lines = ["FLEET AT SCALE — executed outbreaks, golden-fork COW "
             "memory, lazy boot", ""]
    for n in SCALE_NS:
        config = _scale_config(n)
        wall_start = time.perf_counter()
        result = run_fleet(config)
        wall = time.perf_counter() - wall_start

        # -- the epidemic executed end to end --------------------------
        assert result.t0 is not None
        assert result.bundles_published >= 1
        assert result.contacts_blocked >= 1
        assert result.infected_final == result.gillespie["final_infected"]
        assert abs(result.t0 - result.gillespie["t0"]) < 1e-9

        # -- lazy boot: a contained outbreak leaves nodes untouched ----
        assert result.nodes_materialized < result.total_nodes, \
            "every node materialized; outbreak not contained"
        # -- golden forking: consumers share boot images ---------------
        assert result.golden["forks"] >= \
            result.nodes_materialized - result.golden["images"] - 1

        runs[n] = {"wall_seconds": wall, "memory": result.memory,
                   **_trajectory_fields(result)}
        m = result.memory
        lines += [
            f"N={n:>4}  wall {wall:6.2f} s   t0 {result.t0:7.3f} s   "
            f"infected {result.infected_final} "
            f"({result.infection_ratio:.0%})   "
            f"blocked {result.contacts_blocked}",
            f"        materialized {result.nodes_materialized}/"
            f"{result.total_nodes} nodes   golden forks "
            f"{result.golden['forks']} off {result.golden['images']} "
            f"images",
            f"        page bytes: {m['page_bytes_unique'] / 1e6:.2f} MB "
            f"unique vs {m['page_bytes_per_node_sum'] / 1e6:.2f} MB "
            f"per-node sum (sharing x{m['sharing_factor']:.1f})",
        ]

    # -- checkpoint memory is sub-linear in N --------------------------
    small, large = runs[SCALE_NS[0]], runs[SCALE_NS[-1]]
    growth = SCALE_NS[-1] / SCALE_NS[0]
    byte_growth = (large["memory"]["page_bytes_unique"]
                   / small["memory"]["page_bytes_unique"])
    lines += ["", f"unique-page growth N x{growth:.0f} -> bytes "
              f"x{byte_growth:.2f} (sub-linear bound x{SUBLINEAR_FACTOR})"]
    assert byte_growth < SUBLINEAR_FACTOR, \
        f"checkpoint memory grew x{byte_growth:.2f} for x{growth:.0f} nodes"

    report("fleet_scale", lines)

    payload = {
        "unit": "virtual_seconds_ratios_and_bytes",
        "config": {
            "seed": 7, "beta": 0.6, "benign_rate": 0.01, "gamma2": 3.0,
            "alpha": "1/16", "ns": list(SCALE_NS),
            "sublinear_factor": SUBLINEAR_FACTOR,
        },
        "results": {str(n): runs[n] for n in SCALE_NS},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_fleet_scale.json"
    existing = json.loads(path.read_text()) if path.exists() else {}
    existing.update(payload)
    path.write_text(json.dumps(existing, indent=2) + "\n")


def test_fleet_alpha_sweep():
    """Figures 6-8, executed: infection ratio vs deployment ratio α from
    real fleets, overlaid on the ODE with the *measured* γ plugged in
    and matched exactly against the seeded Gillespie realization."""
    points = []
    for producers in SWEEP_PRODUCERS:
        result = run_fleet(_sweep_config(producers))
        assert result.gillespie is not None
        assert abs(result.t0 - result.gillespie["t0"]) < 1e-9
        assert result.infected_final == result.gillespie["final_infected"]
        point = {
            "alpha": producers / SWEEP_POPULATION,
            "producers": producers,
            "executed_ratio": result.infection_ratio,
            "gillespie_ratio": result.gillespie["infection_ratio"],
            "gamma_measured": result.gamma_measured,
            "t0": result.t0,
            "infected_final": result.infected_final,
            "ode_ratio": (result.model["infection_ratio"]
                          if result.model else None),
        }
        if point["ode_ratio"] is not None:
            ode = point["ode_ratio"]
            assert point["executed_ratio"] \
                >= ode / ODE_RATIO_BAND - ODE_RATIO_FLOOR
            assert point["executed_ratio"] \
                <= min(1.0, ode * ODE_RATIO_BAND + ODE_RATIO_FLOOR)
        points.append(point)

    # More producers -> earlier t0: the α axis works as the model says.
    t0s = [p["t0"] for p in points]
    assert t0s == sorted(t0s, reverse=True)

    lines = [f"EXECUTED α-GRID SWEEP — N={SWEEP_POPULATION} real nodes "
             "per point, overlaid on ODE (Fig. 6 axes)", "",
             "alpha     t0        gamma     executed  gillespie ode"]
    for p in points:
        ode = "n/a" if p["ode_ratio"] is None else f"{p['ode_ratio']:.3f}"
        lines.append(
            f"{p['alpha']:<9.4f} {p['t0']:<9.3f} "
            f"{p['gamma_measured']:<9.3f} {p['executed_ratio']:<9.3f} "
            f"{p['gillespie_ratio']:<9.3f} {ode}")
    report("fleet_alpha_sweep", lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_fleet_scale.json"
    existing = json.loads(path.read_text()) if path.exists() else {}
    existing["alpha_sweep"] = {
        "population": SWEEP_POPULATION,
        "seed": 11,
        "ode_ratio_band": ODE_RATIO_BAND,
        "points": points,
    }
    path.write_text(json.dumps(existing, indent=2) + "\n")


def test_fleet_hybrid_internet_scale():
    """The Gillespie halo at the paper's scale: 1 000 executed Sweeper
    nodes embedded in a modeled population of 10⁶ hosts, contacts
    crossing the core↔halo boundary in both directions, conservation
    asserted per contact and the whole trajectory matched exactly
    against the aggregate Gillespie process over the combined
    population."""
    config = _hybrid_config()
    wall_start = time.perf_counter()
    result = run_fleet(config)
    wall = time.perf_counter() - wall_start

    halo = result.halo
    assert halo["conservation"]["ok"]
    assert result.population == HYBRID_EXECUTED + HYBRID_HALO
    # Infections and crossings happen in both tiers/directions.
    assert halo["core_infected"] > 0 and halo["infected_final"] > 0
    assert halo["boundary"]["core_to_halo"] > 0
    assert halo["boundary"]["halo_to_core"] > 0
    # Community immunity reached both tiers.
    assert result.contacts_blocked > 0 and halo["blocked"] > 0
    # The hybrid is the matched-seed Gillespie realization exactly.
    assert result.gillespie is not None
    assert abs(result.t0 - result.gillespie["t0"]) < 1e-9
    assert result.infected_final == result.gillespie["final_infected"]

    lines = [
        "FLEET HYBRID — 1 000 executed nodes in a 10⁶-host modeled "
        "population", "",
        f"wall {wall:6.2f} s   contacts {result.contacts}   "
        f"t0 {result.t0:.3f} s   gamma {result.gamma_measured:.3f} s",
        f"infected {result.infected_final} "
        f"({result.infection_ratio:.2%}) = core "
        f"{halo['core_infected']} + halo {halo['infected_final']}",
        f"boundary {halo['boundary']}",
        f"blocked: core {result.contacts_blocked}, halo "
        f"{halo['blocked']}   materialized {result.nodes_materialized}/"
        f"{result.total_nodes}",
        f"gillespie(combined N={result.population}): t0 "
        f"{result.gillespie['t0']:.3f}, infected "
        f"{result.gillespie['final_infected']}  -> exact match",
    ]
    report("fleet_hybrid", lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_fleet_scale.json"
    existing = json.loads(path.read_text()) if path.exists() else {}
    existing["hybrid"] = {
        "config": {"seed": 13, "executed": HYBRID_EXECUTED,
                   "producers": HYBRID_PRODUCERS,
                   "halo_hosts": HYBRID_HALO, "beta": 0.4,
                   "benign_rate": 0.005, "max_contacts": 250_000},
        "wall_seconds": wall,
        "t0": result.t0,
        "availability": result.availability,
        "gamma_measured": result.gamma_measured,
        "infected_final": result.infected_final,
        "infection_ratio": result.infection_ratio,
        "contacts": result.contacts,
        "nodes_materialized": result.nodes_materialized,
        "halo": halo,
        "gillespie": result.gillespie,
    }
    path.write_text(json.dumps(existing, indent=2) + "\n")

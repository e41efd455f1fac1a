"""Fail CI when the scale fleet drifts from its recorded trajectory.

Compares the fresh ``benchmarks/results/BENCH_fleet_scale.json``
(written by ``bench_fleet_scale.py``) against the tracked baseline
``benchmarks/BENCH_fleet_scale.json`` with the same field-level walk
and drift report as ``check_fleet_regression.py``.  Everything gated is
seed-deterministic virtual-time trajectory data — t₀, γ, infection and
contact counts, materialization and golden-fork tallies, the α-sweep
points and the hybrid tier's halo/boundary/conservation accounting.
Only the shared wall-clock/memory set is excluded.

Files are loaded through :mod:`baseline_util`, so a missing or
half-written file fails with the one-line regeneration command instead
of a traceback.

Usage: ``PYTHONPATH=src python benchmarks/check_fleet_scale_regression.py``
(after running the bench).
"""

from __future__ import annotations

import sys
from pathlib import Path

from baseline_util import load_pair
from check_fleet_regression import compare_payloads

HERE = Path(__file__).resolve().parent
BASELINE_PATH = HERE / "BENCH_fleet_scale.json"
FRESH_PATH = HERE / "results" / "BENCH_fleet_scale.json"


def main() -> int:
    baseline, fresh = load_pair(BASELINE_PATH, FRESH_PATH)
    return compare_payloads(baseline, fresh, "fleet-scale")


if __name__ == "__main__":
    sys.exit(main())

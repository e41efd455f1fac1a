"""Record the check values ``run.py`` compares operations against.

    python3 perfbench/record.py

For the default seed and one held-out seed, runs the first ``PASSES``
passes of each workload untimed and writes every operation's check
values to ``expected.json``: the unprotected reference digests per
session for ``serve``, the Table-3 analysis times per exploit for
``attack`` and the outbreak statistics per fleet for ``outbreak``.  A
run that goes past the recorded operations still checks the rest live.
Re-record only when a change is meant to alter the simulated
statistics.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the program on sys.path)

DEFAULT_SEED = 1
HELD_OUT_SEED = 11
#: Passes recorded per seed: more than a run of this benchmark makes.
PASSES = 15


class _Untimed:
    """The recorder interface of ``run.Recorder``, without timing; any
    failed check aborts the recording."""

    def setup(self, fn, *args, per: int = 1):
        return fn(*args)

    def op(self, fn, *args):
        return True, fn(*args)

    def fail(self, count: int):
        if count:
            raise SystemExit(f"record: {count} operation(s) failed")

    def problem(self, message: str):
        raise SystemExit(f"record: {message}")

    def note(self, name: str, value: int):
        pass

    def nodes_done(self):
        pass


def dump(recorded: dict) -> str:
    """``recorded`` as JSON with one operation's values per line."""
    workloads_json = []
    for name, seeds in recorded.items():
        seeds_json = []
        for seed, values in seeds.items():
            rows = ",\n".join("   " + json.dumps(value) for value in values)
            seeds_json.append(f"  {json.dumps(seed)}: [\n{rows}\n  ]")
        workloads_json.append(f" {json.dumps(name)}: {{\n"
                              + ",\n".join(seeds_json) + "\n }")
    return "{\n" + ",\n".join(workloads_json) + "\n}\n"


def main():
    recorded = {}
    for name, cls in workloads.WORKLOADS.items():
        recorded[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            workload = cls(seed, None)
            workload.prepare()
            for index in range(PASSES):
                workload.run_pass(index, _Untimed())
            recorded[name][str(seed)] = [workload.values[i]
                                         for i in sorted(workload.values)]
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(dump(recorded))


if __name__ == "__main__":
    main()

"""Benchmark entry point: one workload, one process, one thread.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

Runs whole passes of the workload (see ``workloads.py``) until
``--seconds`` have passed and at least ``MIN_OPS`` operations are done,
checks every operation's outputs, and prints diagnostics followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run then repeats its first pass with per-layer spans on (``tracing.py``)
and reports the per-layer metrics.  Every timing is normalized to a
nominal host speed against an interleaved reference kernel
(``refclock.py``); raw values are printed beside them.

Run it from the repository root; it imports the program from ``src/``
and exits non-zero, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import NOMINAL_REF_S, RefClock, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
#: Every run holds at least this many operations, so ``op_p90_ms`` has at
#: least ten samples beyond it.
MIN_OPS = 100
#: Cold-start subprocesses timed for ``bench.import_s``.
IMPORT_SAMPLES = 3


class Recorder:
    """Times setups and operations, interleaves reference-kernel samples
    and counts failures; forwards notes to the tracer in a traced pass."""

    def __init__(self, ref: RefClock, tracer=None):
        self.ref = ref
        self.tracer = tracer
        self.ops: list[tuple[float, float]] = []
        #: (start, end, operations the setup prepares)
        self.setups: list[tuple[float, float, int]] = []
        self.failed = 0
        self.problems: list[str] = []

    def setup(self, fn, *args, per: int = 1):
        """Time one setup; ``per`` operations share it, so it counts as
        ``1/per`` of its time per operation."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.setups.append((start, end, per))
        self.ref.pay(end - start)
        return result

    def op(self, fn, *args):
        """Time one operation; returns ``(True, result)``, or ``(False,
        message)`` when it raised (the caller counts it as failed)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(len(self.ops))
        start = time.perf_counter()
        try:
            result, ok = fn(*args), True
        except Exception as exc:    # a failed operation; the run goes on
            result, ok = f"{type(exc).__name__}: {exc}", False
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        self.ops.append((start, end))
        self.ref.pay(end - start)
        return ok, result

    def fail(self, count: int):
        self.failed += count

    def problem(self, message: str):
        self.problems.append(message)

    def note(self, name: str, value: int):
        if self.tracer is not None:
            self.tracer.note(name, value)

    def nodes_done(self):
        if self.tracer is not None:
            self.tracer.drain()

    def normalized(self, intervals) -> list[float]:
        return [(end - start) * self.ref.factor(start, end)
                for start, end in intervals]

    def setup_times(self) -> list[float]:
        """Normalized setup time per operation prepared, per setup."""
        return [(end - start) * self.ref.factor(start, end) / per
                for start, end, per in self.setups]


def _import_seconds() -> float:
    """Median wall time of a cold ``import repro`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], env=env,
                       cwd=ROOT, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    recorded = json.loads(EXPECTED.read_text()).get(args.workload, {})
    workload = workloads.WORKLOADS[args.workload](
        args.seed, recorded.get(str(args.seed)))
    workload.prepare()

    ref = RefClock()
    for _ in range(20):      # neighbours for the first timed interval
        ref.sample()
    rec = Recorder(ref)
    pass_ops = []            # operations per pass
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds \
            or len(rec.ops) < MIN_OPS:
        before = len(rec.ops)
        workload.run_pass(len(pass_ops), rec)
        pass_ops.append(len(rec.ops) - before)
    measured = time.perf_counter() - started

    ops = rec.normalized(rec.ops)
    raw = [end - start for start, end in rec.ops]
    setups = rec.setup_times()
    failed, problems = rec.failed, list(rec.problems)
    print(f"{args.workload} seed={args.seed}: {len(pass_ops)} passes, "
          f"{len(ops)} operations ({pass_ops[0]} per pass), "
          f"{len(setups)} setups in {measured:.1f} s; "
          f"op_p90_ms over {len(ops)} samples")
    print(f"  normalized: {len(ops) / sum(ops):.4g} ops/s, "
          f"p50 {percentile(ops, 50) * 1e3:.4g} ms, "
          f"p90 {percentile(ops, 90) * 1e3:.4g} ms, "
          f"setup {percentile(setups, 50):.4g} s")
    print(f"  raw:        {len(raw) / sum(raw):.4g} ops/s, "
          f"p50 {percentile(raw, 50) * 1e3:.4g} ms, "
          f"p90 {percentile(raw, 90) * 1e3:.4g} ms; "
          f"bench.ref_ms {ref.median_ms():.4g} "
          f"(nominal {NOMINAL_REF_S * 1e3:.4g})")

    if not args.trace:
        metrics = {
            "setup_s": _metric(percentile(setups, 50), "s"),
            "ops_per_s": _metric(len(ops) / sum(ops), "1/s"),
            "op_p50_ms": _metric(percentile(ops, 50) * 1e3, "ms"),
            "op_p90_ms": _metric(percentile(ops, 90) * 1e3, "ms"),
            "peak_rss_mb": _metric(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        import tracing
        untraced = sum(ops[:pass_ops[0]])
        tracer = tracing.Tracer()
        traced_rec = Recorder(ref, tracer)
        tracer.install()
        try:
            workload.run_pass(0, traced_rec)
        finally:
            tracer.uninstall()
        failed += traced_rec.failed
        problems += traced_rec.problems
        factors = [ref.factor(start, end) for start, end in traced_rec.ops]
        n = len(traced_rec.ops)
        layers, self_sum, unattributed = tracer.reduce(traced_rec.ops,
                                                       factors)
        wall = sum(traced_rec.normalized(traced_rec.ops))
        print(f"  traced pass: {n} operations, {len(tracer.spans)} spans; "
              f"wall {wall:.6f} s, layer self {self_sum:.6f} s + "
              f"unattributed {unattributed:.6f} s = "
              f"{self_sum + unattributed:.6f} s; untraced wall of the same "
              f"pass {untraced:.6f} s (overhead {wall - untraced:+.6f} s)")
        if abs(wall - self_sum - unattributed) > 1e-9 * wall:
            problems.append("layer self times plus the unattributed "
                            "remainder do not add up to the traced wall")
        for name, unit in tracing.LAYER_METRICS:
            if layers[name]:
                print(f"    {name:34s} {layers[name]:>14.6g} {unit}")
        metrics = {name: _metric(layers[name], unit)
                   for name, unit in tracing.LAYER_METRICS}
        metrics.update({
            "bench.ref_ms": _metric(ref.median_ms(), "ms"),
            "bench.raw_ops_per_s": _metric(len(raw) / sum(raw), "1/s"),
            "bench.raw_op_p50_ms": _metric(
                percentile(raw, 50) * 1e3, "ms"),
            "bench.import_s": _metric(_import_seconds(), "s"),
            "trace.wall_ms": _metric(wall * 1e3 / n, "ms"),
            "trace.self_sum_ms": _metric(self_sum * 1e3 / n, "ms"),
            "trace.unattributed_frac": _metric(unattributed / wall,
                                               "ratio"),
            "trace.overhead_frac": _metric(
                (wall - untraced) / untraced, "ratio"),
        })
    for message in problems[:10]:
        print(f"  FAILED CHECK: {message}")
    attempted = len(rec.ops) + (len(traced_rec.ops) if args.trace else 0)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

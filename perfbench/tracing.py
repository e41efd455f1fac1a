"""Per-layer spans for the traced pass, recorded around each layer's
public calls from outside the program.

``install`` replaces every wrapped callable (class attributes, entries
of ``machine.natives.NATIVES`` and module-level functions wherever a
``repro`` module imported them) with a wrapper; ``uninstall`` restores
the originals.  A wrapper records a span only while an operation is
open, so preparation and checks between operations pay one attribute
test.  Spans are kept in memory as columns (name, start, end, parent,
op, cycles, stage) and reduced once, after the pass.

Self time is a span's duration minus its child spans'.  Spans inside
``AnalysisPipeline.analyze`` are charged to the analysis stage they
serve: a replay's ``Process.run`` to the stage of its attached tool
(none: ``reproduce``), the restore and checkpoint read that precede it
to the same stage, and everything nested below to its stage.  The
operation is the root span; its self time is the unattributed
remainder, so layer self times plus that remainder equal the traced
wall exactly.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array
from collections import Counter

from repro.analysis.coredump import CoreDumpAnalyzer
from repro.analysis.membug import MemoryBugDetector
from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.slicing import BackwardSlicer
from repro.analysis.static import cfg as cfg_module
from repro.analysis.taint import TaintTracker
from repro.antibody.audit import StaticAuditor
from repro.antibody.distribution import CommunityBus
from repro.antibody.verify import SandboxVerifier
from repro.errors import ReproError
from repro.instrument.hooks import HookManager
from repro.isa import assembler
from repro.machine.allocator import HEADER_SIZE, Allocator
from repro.machine.natives import NATIVES
from repro.machine.process import Process
from repro.runtime.checkpoint import Checkpoint, CheckpointManager
from repro.runtime.golden import GoldenImageCache
from repro.runtime.proxy import NetworkProxy
from repro.runtime.recovery import RecoveryManager
from repro.runtime.sweeper import Sweeper
from repro.worm.fleet import ShardedEventQueue

ANALYZE = "analysis.analyze"
_REPRODUCE = "analysis.reproduce"
_STAGES = {MemoryBugDetector: "analysis.memory_bug",
           TaintTracker: "analysis.input_taint",
           BackwardSlicer: "analysis.slicing"}

#: Span name -> the count of calls it yields.
_SPAN_COUNTS = {
    "machine.load": "machine.loads",
    "machine.natives": "machine.native_calls",
    "machine.malloc": "machine.malloc_calls",
    "machine.restore": "machine.restores",
    "runtime.boot": "runtime.boots",
    "runtime.ckpt_take": "runtime.ckpt_takes",
    "runtime.ckpt_materialize": "runtime.ckpt_materializations",
    "runtime.recover": "runtime.recoveries",
    ANALYZE: "analysis.analyses",
    "antibody.audit": "antibody.audits",
    "antibody.apply": "antibody.bundles_applied",
}
_CYCLES = {"machine.run_plain": "machine.cycles_plain",
           "machine.run_checked": "machine.cycles_checked",
           "machine.run_instrumented": "machine.cycles_instrumented"}

#: Every layer metric the reduction yields, with its unit.
LAYER_METRICS = (
    ("isa.assemble_ms", "ms"),
    ("machine.load_ms", "ms"), ("machine.loads", "count"),
    ("machine.run_plain_ms", "ms"), ("machine.cycles_plain", "cycles"),
    ("machine.natives_ms", "ms"), ("machine.native_calls", "count"),
    ("machine.malloc_ms", "ms"), ("machine.malloc_calls", "count"),
    ("machine.free_list_max", "count"),
    ("machine.run_checked_ms", "ms"), ("machine.cycles_checked", "cycles"),
    ("machine.run_instrumented_ms", "ms"),
    ("machine.cycles_instrumented", "cycles"),
    ("machine.restore_ms", "ms"), ("machine.restores", "count"),
    ("instrument.attaches", "count"),
    ("runtime.boot_ms", "ms"), ("runtime.boots", "count"),
    ("runtime.golden_hits", "count"), ("runtime.golden_misses", "count"),
    ("runtime.proxy_ms", "ms"),
    ("runtime.ckpt_take_ms", "ms"), ("runtime.ckpt_takes", "count"),
    ("runtime.ckpt_materialize_ms", "ms"),
    ("runtime.ckpt_materializations", "count"),
    ("runtime.recover_ms", "ms"), ("runtime.recoveries", "count"),
    ("runtime.restarts", "count"),
    ("analysis.analyze_ms", "ms"), ("analysis.analyses", "count"),
    ("analysis.memory_state_ms", "ms"), ("analysis.reproduce_ms", "ms"),
    ("analysis.memory_bug_ms", "ms"), ("analysis.input_taint_ms", "ms"),
    ("analysis.slicing_ms", "ms"), ("analysis.replay_cycles", "cycles"),
    ("analysis.static.cfg_ms", "ms"), ("analysis.static.cfgs", "count"),
    ("antibody.audit_ms", "ms"), ("antibody.audits", "count"),
    ("antibody.audit_rejects", "count"),
    ("antibody.verify_ms", "ms"), ("antibody.trials", "count"),
    ("antibody.verify_cache_hits", "count"),
    ("antibody.sandbox_boots", "count"),
    ("antibody.verify_hit_ratio", "ratio"),
    ("antibody.apply_ms", "ms"), ("antibody.bundles_applied", "count"),
    ("antibody.bus_ms", "ms"), ("antibody.bus_polls", "count"),
    ("antibody.bus_delivered", "count"), ("antibody.poll_yield", "ratio"),
    ("worm.sched_ms", "ms"), ("worm.events", "count"),
    ("worm.contacts", "count"), ("worm.benign_sent", "count"),
    ("worm.nodes_materialized", "count"),
    ("bench.gc_ms", "ms"),
)


def free_list_length(process: Process) -> int:
    """Blocks on the process's allocator free list (a corrupted list is
    counted up to the first unreadable link)."""
    memory = process.memory
    cursor = process.allocator.free_head
    length = 0
    try:
        while cursor and length < 1_000_000:
            length += 1
            cursor = memory.read_word(cursor + HEADER_SIZE)
    except ReproError:
        pass
    return length


class _Spans:
    """Span columns.  Arrays hold no Python objects, so a traced pass adds
    nothing to the heap that an operation's own ``gc.collect`` walks."""

    def __init__(self):
        self._table = [None]                 # code -> name; 0 is "none"
        self._codes: dict[str, int] = {}
        self.name, self.stage = array("H"), array("H")
        self.start, self.end = array("d"), array("d")
        self.parent, self.op = array("l"), array("l")
        self.cycles = array("q")

    def __len__(self) -> int:
        return len(self.start)

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self._table)
            self._table.append(name)
        return self._codes[name]

    def open(self, name: int, stage: int, op: int, stack: list[int]) -> int:
        index = len(self.start)
        self.name.append(name)
        self.stage.append(stage)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(op)
        self.cycles.append(0)
        self.start.append(0.0)
        self.end.append(0.0)
        stack.append(index)
        return index

    def rows(self) -> list[tuple]:
        """``(name, start, end, parent, op, cycles, stage)`` per span."""
        table = self._table
        return list(zip((table[c] for c in self.name), self.start, self.end,
                        self.parent, self.op, self.cycles,
                        (table[c] for c in self.stage)))


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans = _Spans()
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: Counter = Counter()
        self.free_list_max = 0
        self.sweepers: list[Sweeper] = []
        self._originals: list[tuple] = []

    # -- operations -----------------------------------------------------

    def begin_op(self, op: int):
        self.op = op

    def end_op(self):
        self.op = None

    def note(self, name: str, value: int):
        self.counts[name] += value

    def drain(self):
        """Read the gauges of every node booted since the last drain:
        restarts (``boot_count`` - 1) and the longest free list."""
        for sweeper in self.sweepers:
            self.counts["runtime.restarts"] += sweeper.boot_count - 1
            self.free_list_max = max(self.free_list_max,
                                     free_list_length(sweeper.process))
        self.sweepers.clear()

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn):
        tracer, spans, stack = self, self.spans, self.stack
        starts, ends, code = spans.start, spans.end, spans.code(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            index = spans.open(code, 0, op, stack)
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
        return traced

    def _run(self, fn):
        """``Process.run``, named by tier; records executed cycles and
        the analysis stage its attached tool serves."""
        tracer, spans, stack = self, self.spans, self.stack
        starts, ends, cycles = spans.start, spans.end, spans.cycles
        plain, checked, instrumented = (
            spans.code(f"machine.run_{tier}")
            for tier in ("plain", "checked", "instrumented"))
        stages = {tool: spans.code(stage) for tool, stage in _STAGES.items()}
        analyze, reproduce = spans.code(ANALYZE), spans.code(_REPRODUCE)
        clock = time.perf_counter

        def traced(process, *args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(process, *args, **kwargs)
            tools = process.hooks.tools
            if tools:
                name, stage = instrumented, stages.get(type(tools[0]),
                                                       analyze)
            else:
                name = checked if process.cpu.pre_checks else plain
                stage = reproduce
            index = spans.open(name, stage, op, stack)
            before = process.cpu.cycles
            starts[index] = clock()
            try:
                return fn(process, *args, **kwargs)
            finally:
                ends[index] = clock()
                cycles[index] = process.cpu.cycles - before
                stack.pop()
        return traced

    def _counted(self, fn, count):
        """Call ``count(args, result)`` after each call inside an op."""
        tracer = self

        def traced(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.op is not None:
                count(args, result)
            return result
        return traced

    def _verify(self, fn):
        tracer, counts, inner = self, self.counts, \
            self._span("antibody.verify", fn)

        def traced(verifier, *args, **kwargs):
            if tracer.op is None:
                return fn(verifier, *args, **kwargs)
            before = (verifier.trials, verifier.cache_hits, verifier.boots)
            result = inner(verifier, *args, **kwargs)
            counts["antibody.trials"] += verifier.trials - before[0]
            counts["antibody.verify_cache_hits"] += \
                verifier.cache_hits - before[1]
            counts["antibody.sandbox_boots"] += verifier.boots - before[2]
            return result
        return traced

    def _sweeper_init(self, fn):
        inner, sweepers = self._span("runtime.boot", fn), self.sweepers

        def traced(sweeper, *args, **kwargs):
            inner(sweeper, *args, **kwargs)
            sweepers.append(sweeper)
        return traced

    def _snapshot_property(self, prop):
        getter = prop.fget
        materialize = self._span("runtime.ckpt_materialize", getter)

        def snapshot(checkpoint):
            if checkpoint._snapshot is None:
                return materialize(checkpoint)
            return getter(checkpoint)
        return property(snapshot)

    # -- install / uninstall --------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        original = (owner[attr] if isinstance(owner, dict)
                    else getattr(owner, attr))
        self._originals.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def _patch_function(self, function, wrapper):
        """Replace ``function`` in every ``repro`` module that holds it."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(module, function.__name__, None) is function:
                self._patch(module, function.__name__, wrapper)

    def _patch_method(self, cls, attr: str, name: str):
        self._patch(cls, attr, self._span(name, cls.__dict__[attr]))

    def install(self):
        counts = self.counts

        def bump(key):
            def count(args, result):
                counts[key] += 1
            return count

        def golden(args, result):
            counts["runtime.golden_hits" if result is not None
                   else "runtime.golden_misses"] += 1

        def audit(args, result):
            counts["antibody.audit_rejects"] += not result.ok

        def poll(args, result):
            counts["antibody.bus_polls"] += 1
            counts["antibody.bus_delivered"] += len(result)

        def pop(args, result):
            counts["worm.events"] += result is not None

        self._patch_function(assembler.assemble, self._span(
            "isa.assemble", assembler.assemble))
        for fn in (cfg_module.recover_image_cfg, cfg_module.cfg_from_stream):
            self._patch_function(fn, self._span("analysis.static.cfg", fn))
        self._patch_function(cfg_module.build_cfg, self._counted(
            self._span("analysis.static.cfg", cfg_module.build_cfg),
            bump("analysis.static.cfgs")))
        for native in list(NATIVES):
            self._patch(NATIVES, native,
                        self._span("machine.natives", NATIVES[native]))
        self._patch_method(Allocator, "malloc", "machine.malloc")
        self._patch_method(Allocator, "free", "machine.malloc")
        self._patch_method(Process, "__init__", "machine.load")
        self._patch(Process, "run", self._run(Process.run))
        self._patch_method(Process, "restore_full", "machine.restore")
        self._patch(HookManager, "attach", self._counted(
            HookManager.attach, bump("instrument.attaches")))
        self._patch(Sweeper, "__init__", self._sweeper_init(Sweeper.__init__))
        self._patch(GoldenImageCache, "get", self._counted(
            GoldenImageCache.get, golden))
        for method in ("submit", "deliver", "commit"):
            self._patch_method(NetworkProxy, method, "runtime.proxy")
        self._patch_method(CheckpointManager, "take", "runtime.ckpt_take")
        self._patch(Checkpoint, "snapshot", self._snapshot_property(
            Checkpoint.__dict__["snapshot"]))
        self._patch_method(RecoveryManager, "recover", "runtime.recover")
        self._patch_method(AnalysisPipeline, "analyze", ANALYZE)
        self._patch_method(CoreDumpAnalyzer, "analyze",
                           "analysis.memory_state")
        self._patch(StaticAuditor, "audit", self._counted(
            self._span("antibody.audit", StaticAuditor.audit), audit))
        self._patch(SandboxVerifier, "verify",
                    self._verify(SandboxVerifier.verify))
        self._patch_method(Sweeper, "apply_bundle", "antibody.apply")
        self._patch_method(CommunityBus, "publish", "antibody.bus")
        self._patch(CommunityBus, "poll", self._counted(
            self._span("antibody.bus", CommunityBus.poll), poll))
        for method in ("push", "extend"):
            self._patch_method(ShardedEventQueue, method, "worm.sched")
        self._patch(ShardedEventQueue, "pop", self._counted(
            self._span("worm.sched", ShardedEventQueue.pop), pop))
        # The collection that ends each attack and outbreak operation.
        self._patch(gc, "collect", self._span("bench.gc", gc.collect))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def reduce(self, intervals: list[tuple[float, float]],
               factors: list[float]) -> tuple[dict, float, float]:
        """Per-layer metrics over the pass, the sum of all layer self
        times and the operations' own (unattributed) self time, both in
        normalized seconds.  ``intervals[op]`` is an operation's
        ``(start, end)`` and ``factors[op]`` takes its wall time to
        nominal; ``_ms`` metrics are normalized self time per
        operation."""
        spans = self.spans.rows()
        ops = len(intervals)
        unattributed = [end - start for start, end in intervals]
        child = [0.0] * len(spans)
        in_analysis = [False] * len(spans)
        charge: list[str] = [""] * len(spans)
        analyze_children: dict[int, list[int]] = {}
        for i, (name, start, end, parent, op, *_rest) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                if spans[parent][0] == ANALYZE:
                    analyze_children.setdefault(parent, []).append(i)
            else:
                unattributed[op] -= end - start
        # A direct child of ``analyze`` serves the stage of its replay:
        # a run by its tool, anything else the next run after it (the
        # restore and checkpoint read that set the replay up), or
        # ``analyze`` itself when no replay follows.
        for children in analyze_children.values():
            stage = ANALYZE
            for i in reversed(children):
                name = spans[i][0]
                if spans[i][6] is not None:          # a run
                    stage = spans[i][6]
                    charge[i] = stage
                elif name == "analysis.memory_state":
                    charge[i] = name
                else:
                    charge[i] = stage
                in_analysis[i] = True
        counts = Counter(self.counts)
        layer_ms: Counter = Counter()
        total = 0.0
        for i, (name, start, end, parent, op, cycles, stage) in \
                enumerate(spans):
            if not in_analysis[i]:
                if parent >= 0 and in_analysis[parent]:
                    in_analysis[i] = True
                    charge[i] = charge[parent]
                else:
                    charge[i] = name
            own = (end - start - child[i]) * factors[op]
            layer_ms[charge[i]] += own
            total += own
            if name in _SPAN_COUNTS:
                counts[_SPAN_COUNTS[name]] += 1
            if name in _CYCLES:
                counts["analysis.replay_cycles" if in_analysis[i]
                       else _CYCLES[name]] += cycles
        metrics = {}
        for metric, unit in LAYER_METRICS:
            if unit == "ms":
                metrics[metric] = layer_ms[metric[:-3]] * 1e3 / ops
            else:
                metrics[metric] = counts[metric]
        metrics["machine.free_list_max"] = self.free_list_max
        verdicts = counts["antibody.trials"] + counts[
            "antibody.verify_cache_hits"]
        metrics["antibody.verify_hit_ratio"] = (
            counts["antibody.verify_cache_hits"] / verdicts
            if verdicts else 0.0)
        polls = counts["antibody.bus_polls"]
        metrics["antibody.poll_yield"] = (
            counts["antibody.bus_delivered"] / polls if polls else 0.0)
        unknown = set(layer_ms) - {m[:-3] for m, u in LAYER_METRICS
                                   if u == "ms"}
        if unknown:
            raise RuntimeError(f"spans charged to no layer metric: {unknown}")
        return metrics, total, sum(
            own * factor for own, factor in zip(unattributed, factors))

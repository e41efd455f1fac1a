"""Guest instruction throughput: the execution core's perf baseline.

Measures wall-clock guest instructions/second in the deployment modes
the paper cares about:

- **plain** — no tool, no VSEF: the fused loop over supercells and
  predecoded executable cells (the common case whose cost Sweeper
  promises is ~0).
- **vsef** — one armed vulnerability-specific filter at the helper
  entry: the same fused loop, where the watched pc misses to ``step()``
  (which runs the check) and the traces covering it run per cell.
- **instrumented** — a lightweight analysis tool attached (ins/mem/reg/
  branch events): the fully instrumented step() path.
- **stepped** — the plain deployment driven one step() at a time, i.e.
  the shape of the per-instruction loop every caller used before the
  batched run() API existed.

Results are printed, persisted as a table, and emitted as
``benchmarks/results/BENCH_exec_throughput.json`` (scratch output; the
*recorded* baseline lives at ``benchmarks/BENCH_exec_throughput.json``
and is compared by ``check_throughput_regression.py``).  Trajectory on
the reference container: the pre-refactor seed executed the mixed
workload at ~0.33M insns/s and the ALU loop at ~0.47M insns/s; the
batched cell core (PR 1) reached ~1.8M and ~2.3M (≈5x); trace-fusion
supercells (PR 2) reach ~3.5M and ~4.0M (a further ≈1.9x/1.7x).  The
assertions below are self-contained regression guards rather than
absolute-speed claims.

CFG-driven trace extension (superblock fusion through unconditional
jumps and into single-entry call targets, plus page-probe CSE within a
trace) lifts the mixed workload further — the call/helper/ret cycle
that used to cost three dispatch-loop iterations per request becomes
one supercell, and its stack traffic hits the cached write page.  The
ALU loop is unchanged by design: a tight conditional loop has no
unconditional transfer to fuse through and no memory traffic to cache.
"""

from __future__ import annotations

import json
import os
import time

from repro.errors import ProcessExited
from repro.instrument.hooks import Tool
from repro.machine.process import load_program

from conftest import RESULTS_DIR, report

#: A request-service-shaped mix: inner data loop, call/ret + stack
#: traffic, flag tests.  ``r1`` scales iteration count.
MIXED_SOURCE = """
.text
main:
 mov r6, buf
 mov r0, 0
 mov r1, {iters}
outer:
 mov r2, 0
inner:
 st [r6+0], r2
 ld r3, [r6+0]
 add r2, 1
 cmp r2, 4
 jne inner
 call helper
 add r0, 1
 cmp r0, r1
 jne outer
 halt
helper:
 push fp
 mov fp, sp
 mov r4, r0
 xor r4, r2
 pop fp
 ret
.data
buf: .space 64
"""

ALU_SOURCE = """
.text
main:
 mov r0, 0
 mov r1, {iters}
loop:
 add r0, 1
 cmp r0, r1
 jne loop
 halt
"""

MIXED_ITERS = 25_000
ALU_ITERS = 250_000


class _LightAnalysis(Tool):
    """A counting tool shaped like lightweight always-on analysis."""

    name = "light-analysis"

    def __init__(self):
        self.ins = 0
        self.mem = 0
        self.regs = 0
        self.branches = 0

    def on_ins(self, pc, insn, cpu):
        self.ins += 1

    def on_mem_read(self, pc, addr, size):
        self.mem += 1

    def on_mem_write(self, pc, addr, size, data):
        self.mem += 1

    def on_reg_write(self, pc, reg, value):
        self.regs += 1

    def on_branch(self, pc, target, taken):
        self.branches += 1


def _arm_vsef(process):
    """A benign null_check-shaped probe at the helper entry: the cost
    being measured, as in §5.3, is that pc's step() fallback and the
    traces covering it running per cell."""
    addr = process.symbols.get("helper", process.symbols["main"])

    def check(cpu, insn):
        cpu.cycles += 2
        if cpu.regs[8] < 0x1000:      # never true: SP stays in the stack
            raise AssertionError("benign VSEF fired")

    process.cpu.pre_checks[addr] = [check]


def _time_run(source_template: str, iters: int, mode: str) -> tuple:
    """Run one mode; returns (elapsed_seconds, final_cycles)."""
    process = load_program(source_template.format(iters=iters))
    if mode == "instrumented":
        process.hooks.attach(_LightAnalysis(), process)
    elif mode == "vsef":
        _arm_vsef(process)
    start = time.perf_counter()
    if mode == "stepped":
        try:
            while True:
                process.cpu.step()
        except ProcessExited:
            pass
    else:
        result = process.run()
        assert result.reason == "exit"
    return time.perf_counter() - start, process.cpu.cycles


def _throughput_matrix() -> dict:
    matrix: dict[str, dict[str, float]] = {}
    for workload, template, iters in (
            ("mixed", MIXED_SOURCE, MIXED_ITERS),
            ("alu", ALU_SOURCE, ALU_ITERS)):
        # The workloads are deterministic pure-guest code (no natives,
        # no syscalls), so the plain run's cycle count IS the executed
        # instruction count; armed checks charge extra cycles, so the
        # same count is reused for every mode to report true insns/s.
        plain_elapsed, insns = _time_run(template, iters, "plain")
        modes = {"plain": insns / plain_elapsed}
        for mode in ("vsef", "instrumented", "stepped"):
            elapsed, _cycles = _time_run(template, iters, mode)
            modes[mode] = insns / elapsed
        matrix[workload] = modes
    return matrix


def test_exec_throughput(benchmark):
    matrix = benchmark.pedantic(_throughput_matrix, rounds=1, iterations=1)

    lines = ["EXEC THROUGHPUT — guest instructions per wall second", ""]
    header = (f"{'workload':>10s} {'plain':>12s} {'vsef':>12s} "
              f"{'instrumented':>13s} {'stepped':>12s}")
    lines.append(header)
    lines.append("-" * len(header))
    for workload, modes in matrix.items():
        lines.append(
            f"{workload:>10s} {modes['plain']:>12,.0f} "
            f"{modes['vsef']:>12,.0f} {modes['instrumented']:>13,.0f} "
            f"{modes['stepped']:>12,.0f}")
    report("exec_throughput", lines)

    payload = {
        "unit": "guest_insns_per_wall_second",
        "workloads": matrix,
        "reference": {
            "note": "seed = pre-refactor interpreter; pr1 = batched cell "
                    "core before trace fusion; contiguous_fusion = "
                    "block-bounded supercells before CFG-driven "
                    "extension (all measured on the reference container "
                    "class)",
            "seed_mixed_plain": 330_000,
            "seed_alu_plain": 470_000,
            "pr1_mixed_plain": 1_787_000,
            "pr1_alu_plain": 2_294_000,
            "contiguous_fusion_mixed_plain": 3_495_000,
            "contiguous_fusion_alu_plain": 4_034_000,
            "speedup_mixed_vs_seed": matrix["mixed"]["plain"] / 330_000,
            "speedup_alu_vs_seed": matrix["alu"]["plain"] / 470_000,
            "speedup_mixed_vs_pr1": matrix["mixed"]["plain"] / 1_787_000,
            "speedup_alu_vs_pr1": matrix["alu"]["plain"] / 2_294_000,
            "speedup_mixed_vs_contiguous_fusion":
                matrix["mixed"]["plain"] / 3_495_000,
            "speedup_alu_vs_contiguous_fusion":
                matrix["alu"]["plain"] / 4_034_000,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_exec_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    for workload, modes in matrix.items():
        plain = modes["plain"]
        # The batched cell loop must decisively beat per-step dispatch
        # and attached-tool execution; VSEF arming must stay cheap.
        # Relative ratios are machine-independent regression guards.
        assert plain >= 1.5 * modes["stepped"], workload
        assert plain >= 2.0 * modes["instrumented"], workload
        assert modes["vsef"] >= 0.5 * plain, workload
    # Against the recorded seed numbers, the uninstrumented fast path
    # must hold the batched-core win plus the trace-fusion multiple
    # (>=1.5x over PR 1 at introduction; ~6x over the seed with margin
    # for machine noise).  This is an absolute wall-clock floor, only
    # meaningful on reference-class hardware — skipped on shared CI
    # runners (CI env var), which may be arbitrarily slow.
    if not os.environ.get("CI"):
        assert matrix["mixed"]["plain"] >= 6 * 330_000
        assert matrix["alu"]["plain"] >= 6 * 470_000

"""Randomized differential conformance for trace fusion.

A seeded generator produces guest programs mixing ALU soup, bounded
loops, forward branches, loads/stores (aligned, unaligned and
page-crossing), call/ret (direct and indirect), native library calls,
balanced stack traffic, self-patching code executed from writable
memory, and occasional faulting accesses.  Every program is executed
under four drivers — the fused loop with every planned trace compiled
before its first entry, the fused loop at the default
``FUSION_THRESHOLD`` (heads hand over from their cells to supercells
mid-run), the plain tier (the fused loop with no trace ever compiled),
and a raw ``step()`` loop — through the same schedule of step-budget
slices, with a benign VSEF check armed inside a trace and disarmed
between slices (so budgets can pause execution mid-trace, the armed pc
misses to step() while its trace runs per cell, and the disarm brings
the trace back).  At
every slice boundary the full architectural state must be bit-identical:
registers, flags, PC, cycle count, control ring, every memory page, the
dirty-page bitmap, sent messages, VSEF hit sequences and any fault.

Alongside the generator, targeted regression tests pin the invalidation
story: patching code mid-trace must drop/re-split the supercell (both
forward and across a checkpoint rollback), and mid-trace faults must
charge exactly the executed prefix.  Handover tests pin lazy
compilation at the default threshold: a head crossing the threshold at
a slice boundary, a patch over a pending plan, and a rollback that
re-plans and restarts the entry counts.  Arming tests pin that a
watched pc takes only its own trace off fusion, for as long as it is
armed.

Seeds and program count come from ``FUSION_DIFF_SEED`` (comma-separated)
and ``FUSION_DIFF_PROGRAMS``; CI runs the suite under two seeds.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.errors import ProcessExited, VMFault
from repro.isa.assembler import assemble
from repro.isa.encoding import decode
from repro.isa.opcodes import Op
from repro.machine import cpu as cpu_module
from repro.machine.process import Process, _WouldBlock
from tests.conftest import (PLAIN_THRESHOLD, counting_supercells,
                            fusion_threshold)

SEEDS = [int(s) for s in
         os.environ.get("FUSION_DIFF_SEED", "11,23").split(",")]
NUM_PROGRAMS = int(os.environ.get("FUSION_DIFF_PROGRAMS", "200"))

_ALU = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr"]
_COND = ["je", "jne", "jl", "jle", "jg", "jge", "jb", "jae"]


# ---------------------------------------------------------------------------
# Program generator
# ---------------------------------------------------------------------------

def _soup_line(rng: random.Random) -> str:
    """One straight-line instruction over r0-r4 and the r6-based buffer."""
    roll = rng.random()
    if roll < 0.30:
        op = rng.choice(_ALU)
        rd = rng.randrange(5)
        if rng.random() < 0.5:
            return f" {op} r{rd}, r{rng.randrange(5)}"
        return f" {op} r{rd}, {rng.randrange(1 << 32)}"
    if roll < 0.40:
        return f" mov r{rng.randrange(5)}, {rng.randrange(1 << 32)}"
    if roll < 0.55:
        mnem = rng.choice(["st", "stb"])
        return f" {mnem} [r6+{_disp(rng)}], r{rng.randrange(5)}"
    if roll < 0.70:
        mnem = rng.choice(["ld", "ldb"])
        return f" {mnem} r{rng.randrange(5)}, [r6+{_disp(rng)}]"
    if roll < 0.80:
        if rng.random() < 0.5:
            return f" cmp r{rng.randrange(5)}, r{rng.randrange(5)}"
        return f" cmp r{rng.randrange(5)}, {rng.randrange(1 << 16)}"
    if roll < 0.90:
        # Division: occasionally by a live register (which may be zero —
        # a DIV_ZERO fault is a legitimate differential outcome).
        op = rng.choice(["div", "mod"])
        if rng.random() < 0.7:
            return f" or r3, 1\n {op} r{rng.randrange(3)}, r3"
        return f" {op} r{rng.randrange(3)}, r{rng.randrange(5)}"
    return " nop"


def _disp(rng: random.Random) -> int:
    """A buffer displacement: usually aligned, sometimes odd, sometimes
    right at a page boundary so word accesses straddle pages."""
    roll = rng.random()
    if roll < 0.6:
        return rng.randrange(0, 8000, 4)
    if roll < 0.8:
        return rng.randrange(0, 8000)
    return rng.choice([4093, 4094, 4095, 4096, 8090])


def _patch_gadget(rng: random.Random) -> list[str]:
    """Write ``mov r0, imm; ret`` into the writable wbuf and call it —
    self-patching code, executed from writable memory (step path in
    every tier), re-patched with a different immediate each time."""
    imm = rng.randrange(1 << 32)
    return [
        " mov r7, wbuf",
        f" mov r4, {Op.MOVRI:#x}",
        " stb [r7+0], r4",
        " mov r4, 0",
        " stb [r7+1], r4",
        f" mov r4, {imm}",
        " st [r7+2], r4",
        f" mov r4, {Op.RET:#x}",
        " stb [r7+6], r4",
        " call r7",
    ]


def _native_gadget(rng: random.Random) -> list[str]:
    roll = rng.random()
    if roll < 0.4:
        return [" mov r0, msg", " call @strlen"]
    if roll < 0.7:
        return [" mov r0, buf", " mov r1, msg", " call @strcpy"]
    return [" mov r0, 48", " call @malloc", " mov r5, r0",
            " mov r0, r5", " call @free"]


def _loop_gadget(rng: random.Random, index: int) -> list[str]:
    """A bounded loop of 1, 4, 9 or 16 iterations: its head is entered
    below, exactly at and past the default ``FUSION_THRESHOLD``."""
    lines = [f" mov r5, {rng.randrange(1, 5) ** 2}", f"LP{index}:"]
    for _ in range(rng.randrange(2, 5)):
        lines.append(_soup_line(rng))
    lines += [" sub r5, 1", " cmp r5, 0", f" jne LP{index}"]
    return lines


def _stack_gadget(rng: random.Random) -> list[str]:
    if rng.random() < 0.2:
        return [" push sp", f" pop r{rng.randrange(5)}"]
    a, b = rng.randrange(5), rng.randrange(5)
    return [f" push r{a}", f" push r{b}", f" pop r{b}", f" pop r{a}"]


def generate_program(rng: random.Random, segments: int = 14) -> str:
    """A random terminating program for the differential harness."""
    helpers = []
    for h in range(3):
        body = [f"fn{h}:", " push fp", " mov fp, sp"]
        for _ in range(rng.randrange(1, 5)):
            body.append(_soup_line(rng))
        body += [" pop fp", " ret"]
        helpers.append("\n".join(body))

    # fn2 is called exactly once, directly, and its address is never
    # taken — a guaranteed single-entry callee, so every generated
    # program exercises CFG-driven call-target trace extension.
    lines = [".text", "main:", " mov r6, buf", " call fn2"]
    for index in range(segments):
        lines.append(f"S{index}:")
        roll = rng.random()
        if roll < 0.45:
            for _ in range(rng.randrange(2, 6)):
                lines.append(_soup_line(rng))
        elif roll < 0.55:
            lines.extend(_loop_gadget(rng, index))
        elif roll < 0.65:
            if rng.random() < 0.5:
                lines.append(f" call fn{rng.randrange(2)}")
            else:
                lines.append(f" mov r7, fn{rng.randrange(2)}")
                lines.append(" call r7")
        elif roll < 0.73:
            lines.extend(_native_gadget(rng))
        elif roll < 0.81:
            lines.extend(_stack_gadget(rng))
        elif roll < 0.87:
            lines.extend(_patch_gadget(rng))
        elif roll < 0.97:
            lines.append(f" cmp r{rng.randrange(5)}, {rng.randrange(64)}")
            target = rng.randrange(index + 1, segments + 1)
            lines.append(f" {rng.choice(_COND)} S{target}")
        else:
            # A wild access: usually faults (SEGV/NULL), always
            # deterministically, in every tier.
            lines.append(f" ld r0, [r6+{0x300000 + rng.randrange(64)}]")
    lines.append(f"S{segments}:")
    lines.append(" halt")
    lines += helpers
    lines += [".data", "buf: .space 8192", "wbuf: .space 64",
              'msg: .asciiz "fusion-differential"']
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Drivers: one per execution tier, same slice/arm/disarm schedule
# ---------------------------------------------------------------------------

def _state(process: Process) -> dict:
    cpu = process.cpu
    memory = process.memory
    return {
        "regs": list(cpu.regs), "pc": cpu.pc,
        "flags": (cpu.zf, cpu.sf, cpu.cf), "cycles": cpu.cycles,
        "ring": list(cpu.control_ring),
        "pages": {index: bytes(page)
                  for index, page in memory._pages.items()},
        "dirty": memory.dirty_page_indices(),
        "sent": [(m.msg_id, m.data) for m in process.sent],
    }


def _run_slice_batched(process: Process, max_steps: int):
    return process.run(max_steps=max_steps).reason


def _run_slice_stepped(process: Process, max_steps: int):
    """A step()-at-a-time driver replicating Process.run's contract."""
    cpu = process.cpu
    done = 0
    try:
        while done < max_steps:
            cpu.step()
            done += 1
        return "steps"
    except _WouldBlock:
        cpu.pc = process._sys_pc
        return "idle"
    except ProcessExited:
        return "exit"


def _drive(image, seed: int, tier: str, schedule, check_pc: int | None):
    """Run one process through the slice schedule; return the per-slice
    observations (run reason, state snapshot, fault, check hits).

    ``fused`` compiles every planned trace before its first entry;
    ``plain`` never compiles one; ``handover`` runs at the default
    ``FUSION_THRESHOLD``."""
    threshold = {"fused": 0, "plain": PLAIN_THRESHOLD}.get(
        tier, cpu_module.FUSION_THRESHOLD)
    with fusion_threshold(threshold):
        process = Process(image, seed=seed)
        run_slice = _run_slice_stepped if tier == "stepped" \
            else _run_slice_batched
        return _run_schedule(process, run_slice, schedule, check_pc)


def _run_schedule(process: Process, run_slice, schedule,
                  check_pc: int | None):
    hits: list[int] = []

    def check(cpu, insn):
        hits.append(cpu.pc)

    observations = []
    dead = False
    for max_steps, action in schedule:
        if check_pc is not None:
            if action == "arm":
                process.cpu.pre_checks[check_pc] = [check]
            elif action == "disarm":
                process.cpu.pre_checks.pop(check_pc, None)
        if dead:
            continue
        reason = fault = None
        try:
            reason = run_slice(process, max_steps)
        except VMFault as err:
            fault = (err.kind, err.pc, err.addr)
            dead = True
        if reason == "exit":
            dead = True
        observations.append((reason, fault, _state(process), list(hits)))
    return observations


def _check_pc_inside_trace(image, seed: int) -> int | None:
    """A pc in the *middle* of some fused trace of a reference process —
    the interesting place to arm a VSEF check."""
    reference = Process(image, seed=seed)
    candidates = [members[idx][0]
                  for _fn, _k, _end, members in reference.cpu._traces.values()
                  for idx in range(1, len(members))]
    if not candidates:
        return None
    return candidates[len(candidates) // 2]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_bit_identical_across_tiers(seed):
    rng = random.Random(seed)
    programs_fused = 0
    handover_executed = 0
    with counting_supercells() as counter:
        for index in range(NUM_PROGRAMS):
            source = generate_program(rng)
            image = assemble(source)
            proc_seed = seed * 1000 + index
            check_pc = _check_pc_inside_trace(image, proc_seed)
            schedule = [
                (rng.randrange(7, 157), None),
                (rng.randrange(7, 157), "arm"),
                (rng.randrange(7, 157), None),
                (rng.randrange(7, 157), "disarm"),
                (30_000, None),
            ]
            before = counter.executed
            baseline = _drive(image, proc_seed, "fused", schedule, check_pc)
            programs_fused += counter.executed > before
            for tier in ("handover", "plain", "stepped"):
                before = counter.executed
                other = _drive(image, proc_seed, tier, schedule, check_pc)
                if tier == "handover":
                    handover_executed += counter.executed - before
                elif tier == "plain":
                    assert counter.executed == before
                assert other == baseline, \
                    f"seed={seed} program={index} tier={tier} diverged"
    # The generator must actually exercise fusion, not vacuously pass:
    # supercells must *execute*, both compiled up front and after heads
    # get hot at the default threshold (and never on the plain tier).
    assert programs_fused > NUM_PROGRAMS * 0.8
    assert handover_executed > 0


# ---------------------------------------------------------------------------
# Targeted mid-trace fault accounting
# ---------------------------------------------------------------------------

def _tier_faults(source: str, seed: int = 3):
    """Run ``source`` to its fault on the fused tier, with every trace
    compiled up front, and on its plain twin; return ``(process,
    fault)`` for each."""
    image = assemble(source)
    runs = []
    for threshold in (0, PLAIN_THRESHOLD):
        with fusion_threshold(threshold):
            process = Process(image, seed=seed)
            runs.append((process, _run_to_fault(process)))
    return runs


def _run_to_fault(process: Process):
    try:
        process.run(max_steps=1_000)
        raise AssertionError("expected a fault")
    except VMFault as fault:
        return (fault.kind, fault.pc, fault.addr)


def test_mid_trace_push_fault_charges_prefix_and_decrements_sp():
    source = ".text\nmain:\n mov r0, 7\n mov sp, 16\n push r0\n halt\n"
    (fused, fault_fused), (plain, fault_plain) = _tier_faults(source)
    assert fused.cpu.fused_trace_count >= 1
    assert fault_fused == fault_plain
    assert fused.cpu.cycles == plain.cpu.cycles == 3
    assert fused.cpu.regs == plain.cpu.regs     # SP left decremented: 12
    assert fused.cpu.regs[8] == 12
    assert fused.cpu.pc == plain.cpu.pc         # the faulting push


def test_mid_trace_div_zero_charges_prefix():
    source = (".text\nmain:\n mov r1, 0\n mov r0, 5\n div r0, r1\n"
              " add r0, 1\n halt\n")
    (fused, fault_fused), (plain, fault_plain) = _tier_faults(source)
    assert fault_fused == fault_plain
    assert fault_fused[0] == "DIV_ZERO"
    assert fused.cpu.cycles == plain.cpu.cycles == 3
    assert fused.cpu.regs == plain.cpu.regs
    assert fused.cpu.pc == plain.cpu.pc


# ---------------------------------------------------------------------------
# Invalidation and rollback: no stale supercell may ever execute
# ---------------------------------------------------------------------------

_STRAIGHT = (".text\nmain:\n mov r0, 0\n add r0, 1\n add r0, 2\n"
             " add r0, 4\n halt\n")


def _addri_at(process: Process, offset: int) -> int:
    pc = process.symbols["main"] + offset
    assert process.cpu._decode_cache[pc].op is Op.ADDRI
    return pc


@pytest.mark.usefixtures("eager_fusion")
def test_patch_mid_trace_drops_stale_supercell():
    """Patching an instruction in the middle of a fused trace must take
    effect on the next execution — the supercell may not replay the old
    bytes."""
    process = Process(assemble(_STRAIGHT), seed=1)
    assert process.cpu.fused_trace_count == 1
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[0] == 7
    patch_pc = _addri_at(process, 12)            # the 'add r0, 2'
    process.memory.write_unchecked(patch_pc + 2,
                                   (0x20).to_bytes(4, "little"))
    # The patched pc is forgotten and no surviving trace spans it.
    assert patch_pc not in process.cpu._decode_cache
    assert all(not (head <= patch_pc < trace[2])
               for head, trace in process.cpu._traces.items())
    process.cpu.pc = process.symbols["main"]
    process.exited = False
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[0] == 1 + 0x20 + 4


@pytest.mark.usefixtures("eager_fusion")
def test_rollback_across_patch_rebuilds_traces_from_restored_bytes():
    """A checkpoint rollback that crosses a code patch (a code-epoch
    change) must re-split/rebuild the fused traces from the *restored*
    bytes: executing the stale supercell — or the patched-timeline one —
    would replay the wrong instructions."""
    process = Process(assemble(_STRAIGHT), seed=2)
    snap = process.snapshot_full()
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[0] == 7
    patch_pc = _addri_at(process, 12)
    process.memory.write_unchecked(patch_pc + 2,
                                   (0x20).to_bytes(4, "little"))
    process.restore_full(snap)
    # Traces were rebuilt by re-predecode, from the rolled-back bytes.
    assert process.cpu.fused_trace_count == 1
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[0] == 7


@pytest.mark.usefixtures("eager_fusion")
def test_patch_resplits_trace_into_prefix_and_suffix():
    source = (".text\nmain:\n mov r1, 1\n add r1, 2\n add r1, 3\n"
              " add r1, 4\n add r1, 5\n add r1, 6\n add r1, 7\n halt\n")
    process = Process(assemble(source), seed=4)
    main = process.symbols["main"]
    assert process.cpu._traces[main][1] == 7
    patch_pc = _addri_at(process, 18)            # the 'add r1, 4'
    process.memory.write_unchecked(patch_pc + 2,
                                   (10).to_bytes(4, "little"))
    traces = process.cpu._traces
    assert main in traces and traces[main][1] == 3           # prefix
    assert patch_pc + 6 in traces and traces[patch_pc + 6][1] == 3  # suffix
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[1] == 1 + 2 + 3 + 10 + 5 + 6 + 7


@pytest.mark.usefixtures("eager_fusion")
def test_budget_pause_mid_trace_resumes_on_checked_tier():
    """A step budget can pause execution in the middle of a fused trace;
    a VSEF check armed at the next pc must fire when execution resumes
    (that pc misses to step())."""
    source = (".text\nmain:\n mov r0, 0\n add r0, 1\n add r0, 2\n"
              " add r0, 4\n add r0, 8\n halt\n")
    process = Process(assemble(source), seed=0)
    assert process.cpu.fused_trace_count == 1
    result = process.run(max_steps=3)           # pauses inside the trace
    assert result.reason == "steps"
    hits = []
    process.cpu.pre_checks[process.cpu.pc] = [
        lambda cpu, insn: hits.append(cpu.pc)]
    result = process.run(max_steps=1_000)
    assert result.reason == "exit"
    assert process.cpu.regs[0] == 15
    assert len(hits) == 1


# ---------------------------------------------------------------------------
# Handover: at the default threshold a trace compiles when its head is hot
# ---------------------------------------------------------------------------

#: A counted loop.  ``LP`` heads a planned six-instruction trace; the
#: two movs before it plan a trace of their own, entered once.
_LOOP = """
.text
main:
 mov r0, 0
 mov r5, {iters}
LP:
 add r0, 3
 add r0, 5
 xor r0, r5
 sub r5, 1
 cmp r5, 0
 jne LP
 halt
"""
_LOOP_PROLOGUE = 2
_LOOP_BODY = 6


def _handover_twins(iters: int, seed: int = 5):
    """The loop at the default threshold, and its plain twin (which
    :func:`_run_both` runs with no trace ever compiled)."""
    image = assemble(_LOOP.format(iters=iters))
    hot = Process(image, seed=seed)
    with fusion_threshold(PLAIN_THRESHOLD):
        plain = Process(image, seed=seed)
    return hot, plain


def _steps_before_entry(entry: int) -> int:
    """Steps executed when ``LP`` is about to be entered for the
    ``entry``-th time (1-based)."""
    return _LOOP_PROLOGUE + _LOOP_BODY * (entry - 1)


def _run_both(hot: Process, plain: Process, max_steps: int) -> str:
    """One slice on each twin; registers, flags, pc, cycles, control
    ring, memory and dirty bitmap must agree after it."""
    reason = hot.run(max_steps=max_steps).reason
    with fusion_threshold(PLAIN_THRESHOLD):
        assert plain.run(max_steps=max_steps).reason == reason
    assert _state(hot) == _state(plain)
    return reason


def test_head_crossing_threshold_at_slice_boundary_hands_over():
    """A slice that pauses exactly at the crossing: its last step is the
    head's threshold-th entry, which runs the head's own cell and
    compiles the supercell; the next slice resumes mid-trace per cell
    and runs the supercell from the following entry on."""
    threshold = cpu_module.FUSION_THRESHOLD
    hot, plain = _handover_twins(iters=threshold + 3)
    head = hot.symbols["LP"]
    with counting_supercells() as counter:
        assert _run_both(hot, plain,
                         _steps_before_entry(threshold)) == "steps"
        assert hot.cpu.pc == head
        assert hot.cpu._traces[head][0] is None       # still pending
        assert hot.cpu._hot[head][1] == 1
        assert _run_both(hot, plain, 1) == "steps"
        assert hot.cpu.pc == head + 6                 # paused mid-trace
        assert hot.cpu._traces[head][0] is not None   # for the next visit
        assert hot.cpu._hot[head][1] == _LOOP_BODY
        assert counter.executed == 0
        assert _run_both(hot, plain, 1_000) == "exit"
    assert counter.compiled == 1
    assert counter.executed == 3


def test_patch_over_pending_trace_resplits_before_compiling():
    """A ``write_unchecked`` patch over a member of a planned, not yet
    compiled trace re-splits the plan: the patched bytes run, the
    surviving suffix is planned afresh and compiles once its own head
    gets hot, and the stale instruction is never compiled."""
    threshold = cpu_module.FUSION_THRESHOLD
    hot, plain = _handover_twins(iters=2 * threshold + 2)
    head = hot.symbols["LP"]
    patch_pc = head + 6                               # the 'add r0, 5'
    with counting_supercells() as counter:
        assert _run_both(hot, plain,
                         _steps_before_entry(threshold)) == "steps"
        assert hot.cpu._traces[head][0] is None
        for process in (hot, plain):
            process.memory.write_unchecked(patch_pc + 2,
                                           (0x40).to_bytes(4, "little"))
        traces = hot.cpu._traces
        assert head not in traces
        assert all(patch_pc not in (pc for pc, _insn in trace[3])
                   for trace in traces.values())
        assert traces[patch_pc + 6][0] is None        # suffix, pending
        assert _state(hot) == _state(plain)
        assert _run_both(hot, plain, 1_000) == "exit"
    assert counter.compiled == 1 and counter.executed >= 1
    assert all(pc != patch_pc
               for items in counter.compiled_items for pc, _insn in items)
    fresh = decode(hot.memory.read, patch_pc)
    assert fresh.operands[1] == 0x40
    assert hot.cpu._decode_cache[patch_pc] == fresh


def test_rollback_across_code_epoch_replans_and_restarts_counts():
    """A rollback across a code patch drops every plan and supercell;
    ``restore_full`` re-plans the text from the restored bytes with
    fresh entry counts, so the head compiles again only on its
    threshold-th entry after the rollback."""
    threshold = cpu_module.FUSION_THRESHOLD
    hot, plain = _handover_twins(iters=threshold + 3)
    head = hot.symbols["LP"]
    planned = hot.cpu.fused_trace_count
    snaps = [process.snapshot_full() for process in (hot, plain)]
    with counting_supercells() as counter:
        assert _run_both(hot, plain, 1_000) == "exit"
        assert hot.cpu.compiled_trace_count == 1
        for process, snap in zip((hot, plain), snaps):
            process.memory.write_unchecked(head + 8,
                                           (0x40).to_bytes(4, "little"))
            process.restore_full(snap)
        assert _state(hot) == _state(plain)
        assert hot.cpu.fused_trace_count == planned
        assert hot.cpu.compiled_trace_count == 0
        assert _run_both(hot, plain,
                         _steps_before_entry(threshold)) == "steps"
        assert hot.cpu._traces[head][0] is None       # counts restarted
        assert _run_both(hot, plain, 1) == "steps"
        assert hot.cpu._traces[head][0] is not None
        assert _run_both(hot, plain, 1_000) == "exit"
    assert counter.compiled == 2 and counter.executed == 6


# ---------------------------------------------------------------------------
# Arming: a watched pc takes only the traces covering it off fusion
# ---------------------------------------------------------------------------

#: Loops ``A`` and ``B`` run twice per round; each heads a planned trace.
_TWO_LOOPS = """
.text
main:
 mov r6, {rounds}
round:
 mov r5, 2
A:
 add r0, 3
 add r0, 5
 xor r0, r5
 sub r5, 1
 cmp r5, 0
 jne A
 mov r4, 2
B:
 add r1, 7
 xor r1, r4
 sub r4, 1
 cmp r4, 0
 jne B
 sub r6, 1
 cmp r6, 0
 jne round
 halt
"""
#: Steps per round: a mov, A's six-instruction body twice, a mov, B's
#: five twice, and the round's three-instruction tail.
_ROUND = 1 + 2 * 6 + 1 + 2 * 5 + 3


def test_armed_check_keeps_other_traces_fused_until_disarmed():
    """A check armed inside loop A fires on every pass while loop B
    keeps executing its supercell; A's own trace runs per cell until
    the check is disarmed, when its supercell comes back."""
    image = assemble(_TWO_LOOPS.format(rounds=30))
    hot = Process(image, seed=5)
    with fusion_threshold(PLAIN_THRESHOLD):
        plain = Process(image, seed=5)
    loop_a, loop_b = hot.symbols["A"], hot.symbols["B"]
    watched = loop_a + 6                              # A's second add
    hot_hits, plain_hits = [], []
    with counting_supercells() as counter:
        assert _run_both(hot, plain, 1 + 5 * _ROUND) == "steps"
        assert hot.cpu._traces[loop_a][0] is not None
        assert hot.cpu._traces[loop_b][0] is not None
        for process, seen in ((hot, hot_hits), (plain, plain_hits)):
            process.cpu.pre_checks[watched] = [
                lambda cpu, insn, seen=seen: seen.append(cpu.pc)]
        before = counter.executed_at.copy()
        assert _run_both(hot, plain, 10 * _ROUND) == "steps"
        assert hot_hits == plain_hits == [watched] * 20
        assert counter.executed_at[loop_a] == before[loop_a]
        assert counter.executed_at[loop_b] - before[loop_b] == 20
        assert watched not in hot.cpu._hot
        assert hot.cpu._hot[loop_a][1] == 1
        for process in (hot, plain):
            del process.cpu.pre_checks[watched]
        before = counter.executed_at.copy()
        assert _run_both(hot, plain, 1_000) == "exit"
        assert counter.executed_at[loop_a] - before[loop_a] == 30
        assert counter.executed_at[loop_b] - before[loop_b] == 30
    assert hot_hits == plain_hits == [watched] * 20


# ---------------------------------------------------------------------------
# Static CFG recovery must cover dynamic execution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_executed_text_pcs_lie_on_recovered_cfg(seed):
    """Every pc the machine actually executes from read-only text must
    be an instruction boundary inside a block the static CFG recovered
    — the soundness property the antibody audit and the CFG-driven
    fusion both stand on.  (Self-patched code runs from writable pages
    and is rightly outside the static view.)"""
    from repro.analysis.static import recover_image_cfg

    rng = random.Random(seed + 7)
    checked = 0
    for index in range(min(NUM_PROGRAMS, 40)):
        image = assemble(generate_program(rng))
        cfg = recover_image_cfg(image)
        process = Process(image, seed=seed * 77 + index)
        code_base = process.symbols["main"] - image.symbols["main"][1]
        executed = set()
        try:
            for _ in range(30_000):
                pc = process.cpu.pc
                region = process.memory.region_at(pc)
                if region is not None and not region.writable:
                    executed.add(pc)
                process.cpu.step()
        except (ProcessExited, VMFault, _WouldBlock):
            pass
        assert executed
        for pc in sorted(executed):
            offset = pc - code_base
            assert offset in cfg.insns, \
                f"seed={seed} program={index}: executed pc {pc:#x} " \
                f"(text+{offset:#x}) not a recovered instruction boundary"
            assert offset in cfg.owner, \
                f"seed={seed} program={index}: executed pc {pc:#x} " \
                f"(text+{offset:#x}) outside every recovered basic block"
            checked += 1
    assert checked > 0

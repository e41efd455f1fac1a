"""Shared fixtures and helpers for the Sweeper reproduction test suite."""

from __future__ import annotations

import contextlib
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.isa.assembler import assemble
from repro.machine import cpu as cpu_module
from repro.machine.layout import ReferenceLayout
from repro.machine.process import Process

#: A minimal echo server: reads a message, echoes it back, repeats.
ECHO_SOURCE = """
.text
main:
loop:
    mov r0, buf
    mov r1, 512
    sys recv
    cmp r0, 0
    je loop
    mov r1, r0
    mov r0, buf
    sys send
    jmp loop
.data
buf: .space 512
"""

#: A server exercising the heap on every request: dup the message into a
#: fresh allocation, echo from the copy, free it.
HEAP_ECHO_SOURCE = """
.text
main:
loop:
    mov r0, buf
    mov r1, 512
    sys recv
    cmp r0, 0
    je loop
    mov r4, r0              ; length
    add r0, 1
    call @malloc
    mov r5, r0
    mov r1, buf
    call @strcpy
    mov r0, r5
    mov r1, r4
    sys send
    mov r0, r5
    call @free
    jmp loop
.data
buf: .space 520
"""


def run_fragment(body: str, data: str = "", max_steps: int = 200_000,
                 seed: int = 0, layout=None) -> Process:
    """Assemble ``body`` (instructions after ``main:``), run to HALT."""
    source = f".text\nmain:\n{body}\n halt\n"
    if data:
        source += f".data\n{data}\n"
    process = Process(assemble(source), seed=seed, layout=layout)
    result = process.run(max_steps=max_steps)
    assert result.reason == "exit", f"fragment did not halt: {result.reason}"
    return process


@pytest.fixture
def echo_process() -> Process:
    return Process(assemble(ECHO_SOURCE), seed=7)


@pytest.fixture
def heap_echo_process() -> Process:
    return Process(assemble(HEAP_ECHO_SOURCE), seed=7)


@pytest.fixture
def reference_layout():
    return ReferenceLayout()


#: A ``FUSION_THRESHOLD`` no trace head reaches: under it the fused loop
#: compiles nothing and runs cells only, the tier differentials' plain
#: tier.  A pending head reads the threshold on every entry, so that
#: tier's runs, not just its process builds, must be inside
#: ``fusion_threshold(PLAIN_THRESHOLD)``.
PLAIN_THRESHOLD = 1 << 62


@contextlib.contextmanager
def fusion_threshold(value: int):
    """Run the block with ``FUSION_THRESHOLD`` set to ``value``.  The
    tier differentials plan their fused tier at 0, which compiles every
    planned trace through the same install code when it is planned, so
    that tier runs supercells from a head's first entry; their plain
    tier runs at ``PLAIN_THRESHOLD``."""
    saved = cpu_module.FUSION_THRESHOLD
    cpu_module.FUSION_THRESHOLD = value
    try:
        yield
    finally:
        cpu_module.FUSION_THRESHOLD = saved


@pytest.fixture
def eager_fusion():
    """Compile every trace when it is planned (at load, on re-split and
    on re-predecode), so a test exercises real supercells."""
    with fusion_threshold(0):
        yield


@contextlib.contextmanager
def counting_supercells():
    """Count the supercells compiled and executed inside the block.

    Each compiled trace is wrapped in a shim that bumps ``executed``
    (and ``executed_at[head]``) and calls through; ``compiled_items``
    keeps every compiled member list, so a test can show which bytes
    were ever compiled."""
    counter = SimpleNamespace(compiled=0, executed=0, executed_at=Counter(),
                              compiled_items=[])
    compile_trace = cpu_module.compile_trace

    def compile_counted(cpu, items):
        fn = compile_trace(cpu, items)
        head = items[0][0]
        counter.compiled += 1
        counter.compiled_items.append(tuple(items))

        def counted(machine):
            counter.executed += 1
            counter.executed_at[head] += 1
            return fn(machine)
        return counted

    cpu_module.compile_trace = compile_counted
    try:
        yield counter
    finally:
        cpu_module.compile_trace = compile_trace

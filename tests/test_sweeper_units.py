"""Unit-level Sweeper orchestrator tests (integration in test_sweeper_e2e)."""

import random

import pytest

from repro.antibody.vsef import VSEF
from repro.apps.cvsd import build_cvsd
from repro.apps.httpd import build_httpd
from repro.apps.workload import benign_requests
from repro.errors import VMFault
from repro.machine.layout import randomized_layout
from repro.machine.memory import PAGE_SIZE
from repro.runtime.sweeper import Sweeper, SweeperConfig


@pytest.fixture
def sweeper():
    return Sweeper(build_httpd(), app_name="httpd",
                   config=SweeperConfig(seed=3))


class TestSubmitSemantics:
    def test_benign_request_returns_responses(self, sweeper):
        responses = sweeper.submit(b"GET / HTTP/1.0\n")
        assert len(responses) == 1

    def test_filtered_request_returns_empty(self, sweeper):
        from repro.antibody.signatures import generate_exact

        sweeper.proxy.signatures.add(generate_exact(b"BLOCKED"))
        assert sweeper.submit(b"BLOCKED") == []
        assert sweeper.detections[-1].kind == "filter"

    def test_responses_committed_to_proxy(self, sweeper):
        sweeper.submit(b"GET / HTTP/1.0\n")
        assert len(sweeper.proxy.committed) == 1
        assert sweeper.proxy.committed[0].msg_id == 0

    def test_source_string_accepted(self):
        source = """
.text
main:
loop:
    mov r0, buf
    mov r1, 64
    sys recv
    cmp r0, 0
    je loop
    mov r1, r0
    mov r0, buf
    sys send
    jmp loop
.data
buf: .space 64
"""
        sweeper = Sweeper(source, app_name="echo")
        assert sweeper.submit(b"ping") == [b"ping"]


class TestClockAndCheckpoints:
    def test_advance_busy_takes_scheduled_checkpoints(self, sweeper):
        taken_before = sweeper.checkpoints.total_taken
        interval = sweeper.checkpoints.interval_cycles
        sweeper.advance_busy(interval * 5)
        assert sweeper.checkpoints.total_taken >= taken_before + 4

    def test_advance_busy_advances_clock(self, sweeper):
        from repro.machine.cpu import CPU_HZ

        before = sweeper.clock
        sweeper.advance_busy(CPU_HZ)      # one virtual second
        assert sweeper.clock == pytest.approx(before + 1.0, rel=0.05)

    def test_stats_keys(self, sweeper):
        sweeper.submit(b"GET / HTTP/1.0\n")
        stats = sweeper.stats()
        for key in ("virtual_time", "requests_seen", "requests_filtered",
                    "attacks_handled", "detections", "antibodies",
                    "checkpoints_taken", "checkpoint_cost_seconds"):
            assert key in stats
        assert stats["requests_seen"] == 1

    def test_stats_report_planned_and_compiled_traces(self):
        """Traces are planned at load and compile only once their heads
        get hot, so a fresh node reports plans but few supercells, and
        serving traffic compiles some of them."""
        sweeper = Sweeper(build_cvsd(), app_name="cvsd",
                          config=SweeperConfig(seed=3))
        booted = sweeper.stats()
        cpu = sweeper.process.cpu
        assert booted["fused_traces"] == cpu.fused_trace_count > 0
        assert booted["compiled_supercells"] < booted["fused_traces"]
        for request in benign_requests("cvsd", 8, seed=1):
            sweeper.submit(request)
        served = sweeper.stats()
        assert served["fused_traces"] == booted["fused_traces"]
        assert booted["compiled_supercells"] \
            < served["compiled_supercells"] <= served["fused_traces"]
        assert served["compiled_supercells"] == cpu.compiled_trace_count


class TestForeignVSEFs:
    def test_apply_foreign_vsefs_installs_once(self, sweeper):
        vsef = VSEF(kind="double_free", params={"caller": None})
        first = sweeper.apply_foreign_vsefs([vsef])
        second = sweeper.apply_foreign_vsefs([vsef])
        assert first == [vsef]
        assert second == []
        assert sweeper.antibodies == [vsef]

    def test_equivalent_vsefs_deduplicated(self, sweeper):
        a = VSEF(kind="double_free", params={"caller": None})
        b = VSEF(kind="double_free", params={"caller": None})
        installed = sweeper.apply_foreign_vsefs([a, b])
        assert len(installed) == 1


class TestErrorFormatting:
    def test_vmfault_message_fields(self):
        fault = VMFault("SEGV", pc=0x1234, addr=0x5678,
                        source_pc=0x9ABC, detail="why")
        text = str(fault)
        assert "SEGV" in text
        assert "0x00001234" in text
        assert "0x00005678" in text
        assert "0x00009abc" in text
        assert "why" in text

    def test_attack_detected_message(self):
        from repro.errors import AttackDetected

        blocked = AttackDetected("vsef-1", 0x40, "double free")
        assert "vsef-1" in str(blocked)
        assert blocked.reason == "double free"


class TestLayoutSafety:
    def test_extreme_slides_never_overlap(self):
        """Even maximal slides keep every region window disjoint, so a
        randomized process can always be loaded."""
        from repro.apps.squidp import build_squidp
        from repro.machine.process import Process

        class MaxRandom(random.Random):
            def randrange(self, stop):
                return stop - 1

        layout = randomized_layout(MaxRandom(), entropy_bits=12)
        process = Process(build_squidp(), layout=layout, seed=0)
        process.run(max_steps=2_000_000)
        process.feed(b"GET http://x/y")
        process.run(max_steps=2_000_000)
        assert process.sent

    def test_slides_respect_entropy_budget(self):
        for seed in range(5):
            layout = randomized_layout(random.Random(seed),
                                       entropy_bits=8)
            assert all(0 <= slide < 2 ** 8
                       for slide in layout.slide_pages.values())
            assert layout.code_base % PAGE_SIZE == 0


class TestEventLog:
    def test_boot_event_first(self, sweeper):
        assert sweeper.events[0].kind == "boot"

    def test_filtered_event_recorded(self, sweeper):
        from repro.antibody.signatures import generate_exact

        sweeper.proxy.signatures.add(generate_exact(b"X"))
        sweeper.submit(b"X")
        assert any(e.kind == "filtered" for e in sweeper.events)

"""Guest process: loader, syscall layer, run loop, state snapshot.

A :class:`Process` bundles one CPU, one paged memory, the allocator, the
native map and the syscall layer.  The Sweeper runtime drives it through
three verbs:

- ``run()`` — execute until the process blocks on input ("idle"), exits,
  exhausts a cycle budget, or faults (faults propagate to the monitor);
- ``snapshot_full()`` / ``restore_full()`` — the checkpoint primitive;
- ``feed()`` / collected ``sent`` — message-level I/O, normally wired to
  the network proxy.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from repro.errors import LoaderError, ProcessExited, ReproError, VMFault
from repro.instrument.hooks import HookManager
from repro.isa.assembler import Image
from repro.isa.opcodes import FP, SP
from repro.machine.allocator import Allocator
from repro.machine.cpu import CPU, ControlEvent
from repro.machine.layout import (AddressSpaceLayout, STACK_SIZE,
                                  randomized_layout)
from repro.machine.memory import MemorySnapshot, PagedMemory
from repro.machine.natives import NATIVE_OFFSETS, NATIVES, NativeContext
from repro.machine.syscalls import (SYS_EXIT, SYS_GETPID, SYS_LOG, SYS_RAND,
                                    SYS_RECV, SYS_SEND, SYS_TIME,
                                    SyscallLog, SyscallRecord)


class _WouldBlock(ReproError):
    """Internal: recv had no message available."""


@dataclass
class RunResult:
    """Why ``Process.run`` returned."""

    reason: str            # "idle" | "exit" | "cycles" | "steps"
    cycles: int            # cycles executed during this run call
    exit_status: int | None = None


@dataclass
class ProcessSnapshot:
    """Everything needed to roll a process back: the Rx checkpoint."""

    memory: MemorySnapshot
    cpu_state: dict
    rng_state: object
    syscall_log_len: int
    current_msg_id: int | None
    msg_cursor: int
    taken_at_cycles: int = 0

    def __post_init__(self):
        self.taken_at_cycles = self.cpu_state["cycles"]


@dataclass
class SentMessage:
    """An outbound message attributed to the request being served."""

    msg_id: int | None
    data: bytes


@dataclass
class Message:
    """An inbound message (one request)."""

    msg_id: int
    data: bytes
    arrival_cycles: int = 0


class Process:
    """One protected guest process."""

    def __init__(self, image: Image, layout: AddressSpaceLayout | None = None,
                 seed: int = 0, name: str = "guest",
                 hooks: HookManager | None = None):
        self.image = image
        self.name = name
        self.layout = layout or randomized_layout(random.Random(seed))
        self.hooks = hooks or HookManager()
        self.memory = PagedMemory()
        self.cpu = CPU(self.memory, self.hooks)
        self.allocator = Allocator(self.memory, self.layout.heap_base)
        self.rng = random.Random(seed ^ 0x5EED)
        self.syscall_log = SyscallLog()
        self.replay_mode = False
        self.sandboxed = False
        self.exited = False
        self.pid = 1000 + (seed % 1000)
        self.debug_log: list[bytes] = []
        #: How many times the guest asked for its pid.  The pid is
        #: seed-derived, so a boot that reads it cannot donate a shared
        #: golden image (see :mod:`repro.runtime.golden`).
        self.getpid_calls = 0

        # Message-level I/O.  The runtime proxy swaps these for its own.
        self.input_queue: deque[Message] = deque()
        self.sent: list[SentMessage] = []
        self.current_msg_id: int | None = None
        self.msg_cursor = 0       # count of messages consumed (proxy replay)

        self.symbols: dict[str, int] = {}
        self._text_symbols: list[tuple[int, str]] = []
        self.native_addresses: dict[str, int] = {}
        self._sys_pc = 0

        # Checkpoint-path caches.  A take over a quiet interval (only
        # modeled cycles charged, no instruction executed) reuses the
        # previous take's frozen cpu-state dict and rng state instead of
        # re-copying them; ``cpu.state_version`` guards the former, rand
        # draws and restores invalidate the latter.
        self._cpu_state_cache: tuple[int, dict] | None = None
        self._rng_state_cache: object | None = None

        self._load()
        self.cpu.syscall_handler = self._syscall

    # -- loading ---------------------------------------------------------------

    def _load(self):
        image, layout = self.image, self.layout
        memory = self.memory
        memory.map_region("code", layout.code_base,
                          max(len(image.text), 1), writable=False)
        memory.map_region("data", layout.data_base, max(len(image.data), 1))
        memory.map_region("heap", layout.heap_base, 4096)
        memory.map_region("stack", layout.stack_base, STACK_SIZE)
        memory.write_unchecked(layout.code_base, image.text)
        memory.write_unchecked(layout.data_base, image.data)
        self._apply_relocations()
        # Relocations are patched; compile the (immutable) text section
        # into the executable-form stream the batched loop runs.
        self.cpu.predecode(layout.code_base, layout.code_base + len(image.text))
        self.allocator.initialize()

        for name, (section, offset) in image.symbols.items():
            base = layout.code_base if section == "text" else layout.data_base
            self.symbols[name] = base + offset
            if section == "text":
                self._text_symbols.append((base + offset, name))
        self._text_symbols.sort()

        for name, offset in NATIVE_OFFSETS.items():
            addr = layout.lib_base + offset
            self.native_addresses[name] = addr
            self.cpu.native_entries[addr] = self._make_native_handler(name)

        entry = self.symbols[image.entry]
        self.cpu.pc = entry
        self.cpu.regs[SP] = layout.stack_top - 16
        self.cpu.regs[FP] = self.cpu.regs[SP]

    def _apply_relocations(self):
        layout = self.layout
        for reloc in self.image.relocations:
            if reloc.target == "text":
                value = layout.code_base + int(reloc.value) + reloc.addend
            elif reloc.target == "data":
                value = layout.data_base + int(reloc.value) + reloc.addend
            elif reloc.target == "native":
                offset = NATIVE_OFFSETS.get(str(reloc.value))
                if offset is None:
                    raise LoaderError(f"unknown native {reloc.value!r}")
                value = layout.lib_base + offset + reloc.addend
            else:
                raise LoaderError(f"bad relocation target {reloc.target!r}")
            base = (layout.code_base if reloc.section == "text"
                    else layout.data_base)
            self.memory.write_unchecked(
                base + reloc.offset, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    # -- symbols ------------------------------------------------------------------

    def function_at(self, addr: int) -> str | None:
        """The enclosing function's name.

        Prefers the nearest preceding text symbol that has actually been
        observed as a CALL target (or is the entry point), so local jump
        labels inside a function do not shadow its name; falls back to
        the nearest symbol when nothing qualifies.
        """
        entries = self.cpu.known_call_targets
        entry_addr = self.symbols.get(self.image.entry)
        best = best_any = None
        for sym_addr, name in self._text_symbols:
            if sym_addr > addr:
                break
            best_any = name
            if sym_addr in entries or sym_addr == entry_addr:
                best = name
        return best or best_any

    def describe_address(self, addr: int) -> str:
        """Human-readable location, in the paper's reporting style."""
        for name, native_addr in self.native_addresses.items():
            if native_addr == addr:
                return f"{addr:#010x} (lib. {name})"
        region = self.memory.region_at(addr)
        if region and region.name == "code":
            function = self.function_at(addr)
            if function:
                return f"{addr:#010x} ({function})"
        return f"{addr:#010x}"

    # -- natives --------------------------------------------------------------------

    def _make_native_handler(self, name: str):
        fn = NATIVES[name]

        def handler(cpu: CPU, pc: int):
            hk = self.hooks.sink
            hk.native(pc, name, tuple(cpu.regs[:4]))
            ctx = NativeContext(self, pc, name)
            try:
                result = fn(ctx)
            except VMFault as fault:
                if fault.pc in (-1, None):
                    raise VMFault(fault.kind, pc=pc, addr=fault.addr,
                                  source_pc=ctx.caller,
                                  detail=fault.detail or f"in {name}")
                raise
            cpu.regs[0] = result & 0xFFFFFFFF
            hk.reg_write(pc, 0, cpu.regs[0])
            sp_before = cpu.regs[SP]
            target = cpu.pop(pc)
            cpu.control_ring.append(ControlEvent("ret", pc, target))
            hk.ret(pc, target, sp_before)
            cpu.cycles += 4
            cpu.pc = target

        return handler

    # -- syscalls ---------------------------------------------------------------------

    def feed(self, data: bytes, msg_id: int | None = None) -> int:
        """Queue one inbound message; returns its id."""
        if msg_id is None:
            msg_id = self.msg_cursor + len(self.input_queue)
        self.input_queue.append(Message(msg_id=msg_id, data=data,
                                        arrival_cycles=self.cpu.cycles))
        return msg_id

    def _syscall(self, number: int, pc: int):
        self._sys_pc = pc
        cpu = self.cpu
        args = tuple(cpu.regs[:4])
        if number == SYS_EXIT:
            raise ProcessExited(args[0])
        if number == SYS_RECV:
            result = self._sys_recv(args[0], args[1], pc)
        elif number == SYS_SEND:
            result = self._sys_send(args[0], args[1])
        elif number == SYS_TIME:
            result = self._replayable(SYS_TIME,
                                      lambda: int(cpu.virtual_time() * 1000))
        elif number == SYS_RAND:
            result = self._replayable(SYS_RAND, self._rand_draw)
        elif number == SYS_LOG:
            data = self.memory.read(args[0], args[1])
            self.debug_log.append(data)
            result = args[1]
        elif number == SYS_GETPID:
            self.getpid_calls += 1
            result = self.pid
        else:
            raise VMFault("ILLEGAL_OPCODE", pc=pc,
                          detail=f"unknown syscall {number}")
        cpu.regs[0] = result & 0xFFFFFFFF
        hk = self.hooks.sink
        hk.reg_write(pc, 0, cpu.regs[0])
        hk.syscall(pc, number, args, result)
        cpu.cycles += 8

    def _rand_draw(self) -> int:
        """Draw guest entropy, invalidating the cached rng state."""
        self._rng_state_cache = None
        return self.rng.getrandbits(32)

    def set_rng_state(self, state):
        """Install an rng state (rollback/golden fork), keeping the
        checkpoint-path cache coherent.  All rng mutations outside the
        SYS_RAND draw must go through here."""
        self.rng.setstate(state)
        self._rng_state_cache = state

    def _replayable(self, number: int, live_fn):
        if self.replay_mode:
            record = self.syscall_log.next_matching(number)
            if record is not None:
                return record.result
            # Diverged from the log (e.g. a dropped message changed the
            # syscall sequence); fall back to live values.
        result = live_fn()
        if not self.replay_mode:
            self.syscall_log.append(SyscallRecord(number=number, result=result))
        return result

    def _sys_recv(self, buf: int, max_len: int, pc: int) -> int:
        if not self.input_queue:
            raise _WouldBlock()
        message = self.input_queue.popleft()
        self.msg_cursor += 1
        data = message.data[:max_len]
        self.memory.write(buf, data)
        self.current_msg_id = message.msg_id
        hk = self.hooks.sink
        hk.mem_write(pc, buf, len(data), data)
        hk.syscall(pc, SYS_RECV, (buf, max_len, 0, 0),
                   {"msg_id": message.msg_id, "data": data, "buf": buf})
        if not self.replay_mode:
            self.syscall_log.append(SyscallRecord(
                number=SYS_RECV, result=len(data),
                msg_id=message.msg_id, payload=data))
        return len(data)

    def _sys_send(self, buf: int, length: int) -> int:
        data = self.memory.read(buf, length)
        self.hooks.sink.mem_read(self._sys_pc, buf, length)
        self.sent.append(SentMessage(msg_id=self.current_msg_id, data=data))
        if not self.replay_mode:
            self.syscall_log.append(SyscallRecord(
                number=SYS_SEND, result=length,
                msg_id=self.current_msg_id, payload=data))
        return length

    # -- execution -----------------------------------------------------------------------

    def run(self, max_cycles: int | None = None,
            max_steps: int | None = None) -> RunResult:
        """Run until idle/exit/budget; faults propagate to the caller.

        Execution is batched: the CPU runs its fused loop over
        supercells and predecoded cells (the instrumented one while a
        tool is attached) until a budget trips or the guest
        blocks/exits/faults.
        """
        start = self.cpu.cycles
        try:
            reason = self.cpu.run(max_steps=max_steps, max_cycles=max_cycles)
            return RunResult(reason, self.cpu.cycles - start)
        except _WouldBlock:
            self.cpu.pc = self._sys_pc
            return RunResult("idle", self.cpu.cycles - start)
        except ProcessExited as exited:
            self.exited = True
            return RunResult("exit", self.cpu.cycles - start,
                             exit_status=exited.status)

    # -- checkpoint / rollback ------------------------------------------------------------

    def _checkpoint_cpu_state(self) -> dict:
        """The cpu-state dict a checkpoint records, cached across quiet
        intervals.  When no instruction ran since the last take (the
        ``state_version`` guard) only the cycle counter can differ, so
        the frozen register file and control ring are shared and at most
        a small dict is rebuilt; consumers never mutate these dicts
        (rollback copies contents out in place)."""
        cpu = self.cpu
        version = cpu.state_version
        cached = self._cpu_state_cache
        if cached is not None and cached[0] == version:
            state = cached[1]
            if state["cycles"] != cpu.cycles:
                state = {**state, "cycles": cpu.cycles}
                self._cpu_state_cache = (version, state)
            return state
        state = cpu.snapshot_state()
        self._cpu_state_cache = (version, state)
        return state

    def snapshot_ingredients(self) -> tuple:
        """The raw makings of a :class:`ProcessSnapshot`, captured now.

        This is the cheap checkpoint-path primitive: the memory delta
        snapshot *is* taken (pages must freeze at take time), but the
        ``ProcessSnapshot`` wrapper itself can be assembled lazily —
        see :class:`repro.runtime.checkpoint.Checkpoint`.
        """
        rng_state = self._rng_state_cache
        if rng_state is None:
            rng_state = self.rng.getstate()
            self._rng_state_cache = rng_state
        return (self.memory.snapshot(), self._checkpoint_cpu_state(),
                rng_state, len(self.syscall_log), self.current_msg_id,
                self.msg_cursor)

    def snapshot_full(self) -> ProcessSnapshot:
        memory, cpu_state, rng_state, log_len, msg_id, cursor = \
            self.snapshot_ingredients()
        return ProcessSnapshot(
            memory=memory,
            cpu_state=cpu_state,
            rng_state=rng_state,
            syscall_log_len=log_len,
            current_msg_id=msg_id,
            msg_cursor=cursor)

    def restore_full(self, snap: ProcessSnapshot, keep_log: bool = True):
        """Roll back to ``snap``.

        ``keep_log=True`` keeps syscall records past the snapshot for
        deterministic replay (rollback-for-analysis); ``False`` discards
        them (rollback-for-recovery re-executes live).

        A rollback that crosses a code-change epoch drops every
        predecoded cell and planned trace (they may describe bytes that
        no longer exist on this timeline); the text section is
        re-predecoded from the restored bytes so the fast path is
        rebuilt rather than decaying to lazy per-pc decode.  That
        re-plans its traces with fresh entry counts: each compiles
        again only once its head gets hot.
        """
        epoch_crossed = snap.memory.code_epoch != self.memory.code_epoch
        self.memory.restore(snap.memory)
        self.cpu.restore_state(snap.cpu_state)
        # The restored state *is* the snapshot's: seed the checkpoint
        # caches so an immediately following quiet take shares it.
        self._cpu_state_cache = (self.cpu.state_version, snap.cpu_state)
        self.set_rng_state(snap.rng_state)
        self.current_msg_id = snap.current_msg_id
        self.msg_cursor = snap.msg_cursor
        self.input_queue.clear()
        self.exited = False
        if keep_log:
            self.syscall_log.cursor = snap.syscall_log_len
        else:
            self.syscall_log.truncate(snap.syscall_log_len)
        if epoch_crossed:
            self.cpu.predecode(self.layout.code_base,
                               self.layout.code_base + len(self.image.text))


def load_program(source: str, entry: str = "main", seed: int = 0,
                 layout: AddressSpaceLayout | None = None,
                 name: str = "guest") -> Process:
    """Assemble ``source`` and load it into a fresh process."""
    from repro.isa.assembler import assemble

    return Process(assemble(source, entry=entry), layout=layout, seed=seed,
                   name=name)

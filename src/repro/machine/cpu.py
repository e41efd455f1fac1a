"""The CPU: fetch/decode/execute with faults, hooks and VSEF checks.

Design notes tied to the paper:

- **Fault model** — data accesses to unmapped memory raise SEGV, accesses
  under the NULL guard page raise NULL_DEREF, fetches from unmapped
  memory raise BAD_PC (carrying the *source* control transfer for blame),
  and undecodable bytes raise ILLEGAL_OPCODE.  These faults are the
  lightweight monitor's trigger.

- **Control-event ring** — the CPU always records the last 64 control
  transfers (calls/rets/branches), standing in for a hardware LBR.  The
  core-dump analyzer uses it to attribute a wild-PC crash to the ``ret``
  (or indirect jump) that launched it.  Its cost is a deque append on
  control transfers only, consistent with "lightweight".

- **Two-speed execution** — the paper's whole bargain is that the common
  case (no deployed analysis) is nearly free while full analysis may be
  20-1000x.  The CPU therefore has a batched :meth:`run` that selects an
  inner loop *once* per batch: the **fused** loop over supercells and
  predecoded executable cells (no hook calls, no pre-check probes, no
  per-step decode), or the **instrumented** loop when any tool is
  attached.  Both produce the same guest-visible state and cycle counts
  as :meth:`step`, bit for bit.

- **VSEF fast path** — deployed vulnerability-specific execution filters
  register per-PC pre-execution checks in ``pre_checks``.  A watched pc
  has no entry in the fused loop's dispatch table, so only it misses to
  :meth:`step`, which runs its checks; every other instruction, and
  every trace that does not cover a watched pc, stays fused.  This is
  why VSEF overhead is ~1% while full analysis is 20-1000x (§5.3).

- **Virtual clock** — one cycle per instruction, plus per-byte costs in
  natives.  ``CPU_HZ`` converts cycles to the virtual seconds used by all
  timing experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple

from repro.errors import (FAULT_BADPC, FAULT_DIVZERO, FAULT_ILLEGAL,
                          EncodingError, ProcessExited, VMFault)
from repro.isa.encoding import (OP_LENGTHS, Insn, block_leaders, decode,
                                decode_range)
from repro.isa.opcodes import (ALU_FUNCS, ALU_OPS, CONTROL_TRANSFER_OPS,
                               OP_SIGNATURES, PREDICATE_FUNCS, SP, Op,
                               to_signed, to_unsigned)
from repro.machine.execcore import (compile_cell, compile_instrumented_cell,
                                    compile_trace)
from repro.machine.memory import PagedMemory

#: Virtual CPU frequency: cycles per virtual second.  2 MHz is chosen so
#: that (a) checkpoint cost vs. interval reproduces Figure 4's overhead
#: band (~5% at 30 ms, <1% at 200 ms), and (b) instrumented-replay
#: analysis times land in the same order of magnitude as Table 3 (tens
#: of seconds for slicing) while experiments stay fast in wall time.
CPU_HZ = 2_000_000

CONTROL_RING_SIZE = 64

#: Widest encodable instruction (opcode + operand bytes); invalidation
#: uses it to catch instructions whose operand bytes straddle a changed
#: code range.
MAX_INSN_LENGTH = max(OP_LENGTHS.values())

#: Longest straight-line run fused into one supercell.  Bounds generated
#: code size and how often a step budget smaller than a trace forces the
#: per-cell tail path; the fused loop relies on it as the most any one
#: dispatch can execute.
FUSION_LIMIT = 32

#: Entries into a planned trace's head before its supercell is compiled.
#: Planning is cheap, but compiling a trace execs ~1.4 KB of generated
#: source (~0.5 ms), and most traces planned at load (golden forks,
#: restarts, sandbox boots, instrumented replays) never run often, so
#: the fused loop runs a pending head on its own cell and compiles the
#: supercell on the ``FUSION_THRESHOLD``-th entry, for the next visit.
#: 0 compiles every trace when it is planned.
FUSION_THRESHOLD = 4


class ControlEvent(NamedTuple):
    """One control transfer: kind is 'call', 'ret', 'branch' or 'native'.

    A named tuple rather than a dataclass: the ring append is on the
    fast path of every taken branch/call/ret, and tuple construction is
    about twice as cheap as a frozen dataclass ``__init__``.
    """

    kind: str
    pc: int
    target: int


class CPU:
    """A single-threaded 32-bit CPU bound to one guest memory."""

    #: Execution cells reach the event class through the instance to
    #: avoid a circular import with the execcore module.
    CONTROL_EVENT = ControlEvent

    def __init__(self, memory: PagedMemory, hooks):
        self.memory = memory
        self.hooks = hooks
        self.regs = [0] * 10
        self.pc = 0
        self.zf = False
        self.sf = False
        self.cf = False
        self.cycles = 0
        #: Monotone counter bumped whenever architectural state (regs,
        #: pc, flags, ring — anything but the cycle counter) may have
        #: changed: at every ``run``/``step`` entry and on every
        #: ``restore_state``.  Pure cycle charging (modeled busy work)
        #: does not bump it, which lets checkpoint takes over quiet
        #: intervals share one frozen cpu-state dict instead of
        #: re-copying the register file and control ring each time.
        self.state_version = 0
        self.control_ring: deque[ControlEvent] = deque(maxlen=CONTROL_RING_SIZE)
        #: Every address ever observed as a CALL target; used to tell
        #: function entries apart from local jump labels when symbolizing.
        self.known_call_targets: set[int] = set()
        #: pc -> list of callables(cpu, insn); the VSEF check table.
        self.pre_checks: dict[int, list[Callable]] = {}
        #: Native dispatch: absolute address -> handler(cpu, pc).
        self.native_entries: dict[int, Callable] = {}
        #: Syscall dispatch, set by the owning Process.
        self.syscall_handler: Callable[[int, int], int] | None = None
        #: Decoded-instruction cache for read-only (code) regions.  Safe
        #: because those pages cannot change after load; instructions
        #: fetched from writable memory (injected shellcode) are decoded
        #: fresh every time.
        self._decode_cache: dict[int, Insn] = {}
        #: Executable-form cells for the same addresses: pc -> closure.
        self._cells: dict[int, Callable] = {}
        #: Instrumented-form cells, compiled lazily by the analysis-mode
        #: loop (:meth:`_run_instrumented`): pc -> closure replicating
        #: the full ``step()`` event contract with the per-step lookups
        #: hoisted.  Invalidated together with ``_decode_cache``.
        self._icells: dict[int, Callable] = {}
        #: Planned traces: head pc -> (supercell, or None until the head
        #: gets hot; insn count; end address; member (pc, insn) tuple).
        #: Members are kept so the head's threshold entry can compile
        #: the plan and invalidation can re-split a partially stale one.
        self._traces: dict[int, tuple] = {}
        #: The fused loop's dispatch table: pc -> (fn, insn count).
        #: Every cell appears with count 1; a pending trace head maps to
        #: a k=1 entry that counts entries and runs the head's cell, a
        #: compiled one to its supercell.  A watched pc has no entry, so
        #: the loop misses to step(), and a head whose trace covers one
        #: maps to its own cell.
        self._hot: dict[int, tuple] = {}
        #: The pcs ``_hot`` treats as watched: ``pre_checks``' keys as of
        #: the last :meth:`_sync_watched` (on entry to the fused loop and
        #: after each of its step() fallbacks).
        self._watched: set[int] = set()
        #: Set by a faulting supercell: (faulting pc, uncharged cycles).
        self._trace_fault: tuple[int, int] | None = None
        #: Bound-method dispatch table for the general execute path.
        self._dispatch: dict[Op, Callable] = {
            op: getattr(self, name) for op, name in _DISPATCH_NAMES.items()}
        memory.add_code_listener(self.invalidate_code)

    # -- helpers ------------------------------------------------------------

    def fetch(self, addr: int, size: int) -> bytes:
        try:
            return self.memory.read(addr, size)
        except VMFault as fault:
            source = self.control_ring[-1].pc if self.control_ring else None
            raise VMFault(FAULT_BADPC, pc=addr, addr=addr, source_pc=source,
                          detail="instruction fetch from unmapped memory") \
                from fault

    def _data_fault(self, fault: VMFault, pc: int) -> VMFault:
        return VMFault(fault.kind, pc=pc, addr=fault.addr, detail=fault.detail)

    def virtual_time(self) -> float:
        """Virtual seconds elapsed since process start."""
        return self.cycles / CPU_HZ

    def snapshot_state(self) -> dict:
        return {"regs": list(self.regs), "pc": self.pc, "zf": self.zf,
                "sf": self.sf, "cf": self.cf, "cycles": self.cycles,
                "control_ring": list(self.control_ring)}

    def restore_state(self, state: dict):
        # In place: execution cells capture the register file and the
        # control ring by identity, so those objects must survive a
        # rollback (only their contents rewind).
        self.state_version += 1
        self.regs[:] = state["regs"]
        self.pc = state["pc"]
        self.zf = state["zf"]
        self.sf = state["sf"]
        self.cf = state["cf"]
        self.cycles = state["cycles"]
        self.control_ring.clear()
        self.control_ring.extend(state["control_ring"])

    # -- predecode ----------------------------------------------------------

    @property
    def predecoded_count(self) -> int:
        """How many instructions currently have executable cells."""
        return len(self._cells)

    @property
    def fused_trace_count(self) -> int:
        """How many traces are planned, compiled or still pending."""
        return len(self._traces)

    @property
    def compiled_trace_count(self) -> int:
        """How many planned traces have a compiled supercell."""
        return sum(1 for trace in self._traces.values()
                   if trace[0] is not None)

    def predecode(self, start: int, end: int):
        """Predecode the read-only range ``[start, end)`` into executable
        cells (linear sweep; stops quietly at undecodable padding), then
        plan straight-line runs within basic blocks as traces.  No trace
        is compiled here: each compiles when its head gets hot (see
        ``FUSION_THRESHOLD``)."""
        region = self.memory.region_at(start)
        if region is None or region.writable:
            return
        stream = decode_range(self.fetch, start, end)
        for pc, insn in stream.items():
            self._decode_cache[pc] = insn
            cell = compile_cell(self, pc, insn)
            if cell is not None:
                self._cells[pc] = cell
                if pc not in self._traces and pc not in self._watched:
                    self._hot[pc] = (cell, 1)
        self._fuse_stream(stream)

    def _fuse_stream(self, stream: dict[int, Insn]):
        """Plan maximal straight-line runs of fusible instructions —
        each closed by its block's terminating control transfer, when
        present — as traces.  A run ends at any block leader
        (branch/call target, post-call return address), at any control
        transfer (which joins the trace as its tail), at SYS/HALT
        (which never compile), and at ``FUSION_LIMIT``; runs shorter
        than 2 stay per-cell.  Collected runs are then extended along
        the recovered CFG (:meth:`_extend_runs`) and planned
        (:meth:`_plan_traces`); supercells compile later, on demand."""
        if not stream:
            return
        leaders = block_leaders(stream)
        runs: list[list[tuple[int, Insn]]] = []
        run: list[tuple[int, Insn]] = []
        for pc in sorted(stream):
            insn = stream[pc]
            if run and (pc in leaders or pc != run[-1][0] + run[-1][1].length):
                runs.append(run)
                run = []
            if insn.fusible:
                run.append((pc, insn))
            elif insn.op in CONTROL_TRANSFER_OPS:
                run.append((pc, insn))
                runs.append(run)
                run = []
            else:                         # SYS/HALT: runtime re-entry
                runs.append(run)
                run = []
        runs.append(run)
        runs = [r for r in runs if r]
        self._extend_runs(stream, runs)
        for run in runs:
            self._plan_traces(run)

    def _extend_runs(self, stream: dict[int, Insn],
                     runs: list[list[tuple[int, Insn]]]):
        """CFG-driven trace extension: splice a run's control-flow
        successor into the run when the successor is statically unique.

        A run ending in an unconditional immediate jump always
        continues into the jump target's run (the target is the only
        possible successor).  A run ending in a direct call continues
        into the callee when the stream CFG proves the callee
        single-entry — it heads its own block, has exactly one
        predecessor edge, and its address is never taken — so inlining
        it cannot duplicate code another caller reaches.  Extension
        fills up to ``FUSION_LIMIT`` (partial target slices allowed:
        the trace then falls off mid-run onto the target's cells);
        target runs keep their own standalone traces for entries that
        bypass the extended head.
        """
        # Lazy import: repro.analysis pulls the dynamic-analysis
        # pipeline whose runtime imports circle back into machine/.
        # By predecode time every module is fully initialised.
        from repro.analysis.static.cfg import cfg_from_stream
        cfg = cfg_from_stream(stream)
        by_head = {run[0][0]: run for run in runs}
        for run in runs:
            visited = {run[0][0]}
            while len(run) < FUSION_LIMIT:
                last_insn = run[-1][1]
                op = last_insn.op
                if op is Op.JMPI:
                    target = last_insn.operands[0]
                elif op is Op.CALLI:
                    target = last_insn.operands[0]
                    if (cfg.owner.get(target) != target
                            or len(cfg.preds.get(target, ())) != 1
                            or target in cfg.address_taken):
                        break
                else:
                    break
                nxt = by_head.get(target)
                if nxt is None or target in visited:
                    break
                visited.add(target)
                run.extend(nxt[:FUSION_LIMIT - len(run)])

    def _plan_traces(self, run: list[tuple[int, Insn]]):
        """Plan ``run`` as ``FUSION_LIMIT``-sized traces and install
        each head (:meth:`_install_head`)."""
        for base in range(0, len(run), FUSION_LIMIT):
            items = run[base:base + FUSION_LIMIT]
            if len(items) < 2:
                continue
            head = items[0][0]
            last_pc, last_insn = items[-1]
            self._traces[head] = (None, len(items),
                                  last_pc + last_insn.length, tuple(items))
            self._install_head(head)

    def _install_head(self, head: int):
        """Point ``head``'s ``_hot`` entry at its trace: the supercell,
        or a pending k=1 entry that counts entries (with
        ``FUSION_THRESHOLD`` 0 the supercell compiles right away).  A
        trace covering a watched pc is not entered: its head runs its
        own cell, or misses to step() if it is watched itself."""
        fn, k, _end, members = self._traces[head]
        watched = self._watched
        if watched and any(pc in watched for pc, _insn in members):
            self._install_cell(head)
        elif fn is not None:
            self._hot[head] = (fn, k)
        elif FUSION_THRESHOLD > 0:
            self._hot[head] = (self._pending_head(head), 1)
        else:
            self._compile_planned(head)

    def _install_cell(self, pc: int):
        """Point ``_hot[pc]`` at the pc's own cell; no entry when it has
        none or is watched."""
        cell = self._cells.get(pc)
        if cell is None or pc in self._watched:
            self._hot.pop(pc, None)
        else:
            self._hot[pc] = (cell, 1)

    def _pending_head(self, head: int) -> Callable:
        """The ``_hot`` cell of a planned trace's head: count the entry,
        compile the supercell on the ``FUSION_THRESHOLD``-th one (the
        next visit runs it), and execute the head's own cell."""
        cell = self._cells[head]
        entries = 0

        def enter(cpu):
            nonlocal entries
            entries += 1
            if entries >= FUSION_THRESHOLD:
                cpu._compile_planned(head)
            return cell(cpu)
        return enter

    def _compile_planned(self, head: int):
        _fn, k, end, members = self._traces[head]
        fn = compile_trace(self, list(members))
        self._traces[head] = (fn, k, end, members)
        self._install_head(head)

    def _sync_watched(self):
        """Make ``_watched`` equal ``pre_checks``' keys and re-install
        the ``_hot`` entries the difference touches: a newly watched pc
        loses its entry and every trace covering it falls back to its
        head's cell; once no watched pc is left in a trace, its
        supercell or pending entry comes back (a pending head counts
        its entries afresh)."""
        watched = self._watched
        changed = watched.symmetric_difference(self.pre_checks)
        watched.clear()
        watched.update(self.pre_checks)
        heads = [head for head, trace in self._traces.items()
                 if any(pc in changed for pc, _insn in trace[3])]
        for pc in changed.difference(heads):
            self._install_cell(pc)
        for head in heads:
            self._install_head(head)

    def invalidate_code(self, start: int | None = None,
                        end: int | None = None):
        """Forget predecoded instructions overlapping ``[start, end)``
        (everything when no range is given).  Called when a code region
        is unmapped/remapped or patched, so stale decodings can never
        execute.  Traces overlapping the range, compiled or pending, are
        *re-split*: the plan is dropped and its still-valid prefix and
        suffix runs are planned afresh (their entry counts restart), so
        no supercell can replay or later compile stale bytes while
        untouched instructions keep their fast path."""
        if start is None or end is None:
            self._decode_cache.clear()
            self._cells.clear()
            self._icells.clear()
            self._traces.clear()
            self._hot.clear()
            return
        low = start - MAX_INSN_LENGTH
        stale = [pc for pc in self._decode_cache if low < pc < end]
        for pc in stale:
            self._decode_cache.pop(pc, None)
            self._cells.pop(pc, None)
            self._icells.pop(pc, None)
            self._hot.pop(pc, None)
        for head in [h for h, t in self._traces.items()
                     if any(m_pc < end and m_pc + m_insn.length > start
                            for m_pc, m_insn in t[3])]:
            members = self._traces.pop(head)[3]
            self._install_cell(head)
            # Re-split into maximal still-valid chains: members whose
            # cells survived, linked either by address contiguity or by
            # a jump/call whose immediate target is the next member (a
            # CFG-extended splice).  For a contiguous trace this is
            # exactly the classic prefix + suffix around the patch.
            chain: list[tuple[int, Insn]] = []
            for m_pc, m_insn in members:
                alive = m_pc in self._cells
                prev = chain[-1] if chain else None
                linked = (prev is None
                          or prev[0] + prev[1].length == m_pc
                          or (prev[1].op in (Op.JMPI, Op.CALLI)
                              and prev[1].operands[0] == m_pc))
                if alive and linked:
                    chain.append((m_pc, m_insn))
                else:
                    self._plan_traces(chain)
                    chain = [(m_pc, m_insn)] if alive else []
            self._plan_traces(chain)

    def adopt_decoded(self, pcs):
        """Decode (and compile) every pc in ``pcs`` not yet decoded.

        Used when forking a golden boot image: the donor's boot run may
        have lazily decoded instructions past the linear-sweep horizon
        (code after padding reached through jumps), and a forked node
        must start with the identical decoded set so introspection and
        fast-path selection match an eagerly booted sibling exactly.
        """
        for pc in pcs:
            if pc not in self._decode_cache:
                self._decode_at(pc)

    def _decode_at(self, pc: int) -> Insn:
        """Decode at ``pc``; cache (and compile) read-only instructions."""
        try:
            insn = decode(self.fetch, pc)
        except EncodingError as err:
            source = self.control_ring[-1].pc if self.control_ring else None
            raise VMFault(FAULT_ILLEGAL, pc=pc, source_pc=source,
                          detail=str(err)) from None
        region = self.memory.region_at(pc)
        if region is not None and not region.writable:
            self._decode_cache[pc] = insn
            cell = compile_cell(self, pc, insn)
            if cell is not None:
                self._cells[pc] = cell
                if pc not in self._traces and pc not in self._watched:
                    self._hot[pc] = (cell, 1)
        return insn

    # -- stack -----------------------------------------------------------------

    def push(self, value: int, pc: int):
        self.regs[SP] = to_unsigned(self.regs[SP] - 4)
        try:
            self.memory.write_word(self.regs[SP], value)
        except VMFault as fault:
            raise self._data_fault(fault, pc)
        self.hooks.sink.mem_write(pc, self.regs[SP], 4,
                                  (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def pop(self, pc: int) -> int:
        addr = self.regs[SP]
        try:
            value = self.memory.read_word(addr)
        except VMFault as fault:
            raise self._data_fault(fault, pc)
        self.hooks.sink.mem_read(pc, addr, 4)
        self.regs[SP] = to_unsigned(addr + 4)
        return value

    # -- execution ---------------------------------------------------------------

    def step(self):
        """Execute one instruction (or one native call at a native entry).

        This is the general path and the machine's only uninstrumented
        VSEF probe: it runs the pc's pre-checks (``insn`` is None at a
        native entry), emits every instrumentation event through the
        hook sink, and dispatches through the bound-method table.  The
        batched :meth:`run` falls back here for natives, syscalls, HALT,
        writable-memory code and watched pcs.
        """
        self.state_version += 1
        pc = self.pc
        native = self.native_entries.get(pc)
        insn = None
        if native is None:
            insn = self._decode_cache.get(pc)
            if insn is None:
                insn = self._decode_at(pc)
        if self.pre_checks:
            checks = self.pre_checks.get(pc)
            if checks:
                for check in checks:
                    check(self, insn)
        if native is not None:
            native(self, pc)
            return
        hk = self.hooks.sink
        hk.ins(pc, insn, self)
        self.cycles += 1
        self._dispatch[insn.op](pc, insn, hk)

    def run(self, max_steps: int | None = None,
            max_cycles: int | None = None) -> str:
        """Batched execution until a budget is exhausted.

        Runs the fused loop (:meth:`_run_fused`) while no tool is
        attached and the instrumented loop otherwise; a fallback step
        that attaches a tool hands the rest of the budget over.  Armed
        VSEF checks keep the fused loop: their pcs miss to
        :meth:`step`, and only traces covering one run per cell until
        it is disarmed.  Returns ``"steps"`` or ``"cycles"`` (which
        budget tripped); faults, syscall blocking and process exit
        propagate as exceptions.  With no budgets it runs until one of
        those.
        """
        self.state_version += 1
        steps_left = max_steps
        cycle_cap = self.cycles + max_cycles if max_cycles is not None \
            else None
        if not self.hooks.active:
            done, reason = self._run_fused(steps_left, cycle_cap)
            if reason is not None:
                return reason
            if steps_left is not None:
                steps_left -= done
        return self._run_instrumented(steps_left, cycle_cap)

    def _run_instrumented(self, steps_left: int | None,
                          cycle_cap: int | None) -> str:
        """The analysis-mode loop: every event reaches the tools.

        Instead of paying the full ``step()`` per instruction (native
        probe, decode probe, dispatch-table lookup, hook-sink fetch),
        decode-cached read-only code runs through lazily compiled
        *instrumented cells* (:func:`compile_instrumented_cell`) that
        hoist those lookups while emitting the identical event stream —
        so an analysis-mode guest costs closer to the fast tier than to
        the interpreter.  Natives and writable-memory code still take
        ``step()``, which is also what first decodes a pc into the
        cache so its icell can be built on the next visit.
        """
        icells_get = self._icells.get
        icells = self._icells
        decode_get = self._decode_cache.get
        native_entries = self.native_entries
        step = self.step
        done = 0
        while True:
            if cycle_cap is not None and self.cycles >= cycle_cap:
                return "cycles"
            if steps_left is not None and done >= steps_left:
                return "steps"
            pc = self.pc
            cell = icells_get(pc)
            if cell is not None:
                cell(self)
            else:
                insn = decode_get(pc)
                if insn is not None and pc not in native_entries:
                    cell = compile_instrumented_cell(self, pc, insn)
                    icells[pc] = cell
                    cell(self)
                else:
                    step()
            done += 1

    def _run_fused(self, steps_left: int | None,
                   cycle_cap: int | None) -> tuple[int, str | None]:
        """The uninstrumented loop: supercells where traces are
        compiled, cells everywhere else, no VSEF probes, no hook
        dispatch.

        ``_hot`` maps every predecoded pc but the watched ones to
        ``(fn, k)``; one dict probe dispatches either a single cell
        (k=1, including a pending trace head counting its way to
        ``FUSION_THRESHOLD``) or a whole straight-line trace (k
        instructions in one call).  A miss — native entry, SYS/HALT,
        writable-memory, unmapped or watched code — flushes and takes
        :meth:`step`.  The watched set is re-synced on entry and after
        each such step, which may have armed or disarmed a check.

        Cells cost exactly one cycle and a supercell its k, so both
        budgets convert into one instruction count per chunk.  No entry
        is longer than ``FUSION_LIMIT``, so each chunk first runs
        ``chunk - FUSION_LIMIT`` instructions with no per-entry budget
        test; in the rest, a trace larger than what remains is executed
        per-cell instead, so a budget can pause execution mid-trace and
        resume from any member pc.  A faulting supercell reports the
        faulting pc and its uncharged tail cycles through
        ``_trace_fault``; the ``finally`` below settles both, keeping
        fault-time state bit-identical to per-cell execution.  Returns
        ``(steps_executed, reason)``; a ``None`` reason means a fallback
        step attached a tool.
        """
        hot_get = self._hot.get
        cells_get = self._cells.get
        hooks = self.hooks
        prechecks = self.pre_checks
        watched = self._watched
        # Testing truthiness first spares the common case (nothing armed
        # or watched) the set comparison, which costs ~4x as much.
        if (prechecks or watched) and watched != prechecks.keys():
            self._sync_watched()
        pc = self.pc
        done = 0
        n = 0          # instructions executed since the last flush
        try:
            while True:
                chunk = _BIG if steps_left is None else steps_left - done
                if cycle_cap is not None:
                    room = cycle_cap - self.cycles
                    if room < chunk:
                        chunk = room
                        if chunk <= 0:
                            return done, "cycles"
                if chunk <= 0:
                    return done, "steps"
                n = 0
                # No entry runs more than FUSION_LIMIT instructions, so
                # the prefix cannot overrun the chunk.
                prefix = chunk - FUSION_LIMIT
                while n < prefix:
                    entry = hot_get(pc)
                    if entry is None:
                        break
                    fn, k = entry
                    n += k
                    pc = fn(self)
                else:
                    while n < chunk:
                        entry = hot_get(pc)
                        if entry is None:
                            break
                        fn, k = entry
                        m = n + k
                        if m > chunk:
                            # The whole trace does not fit the budget:
                            # take one member cell (k=1 never lands here).
                            n += 1
                            pc = cells_get(pc)(self)
                            continue
                        n = m
                        pc = fn(self)
                    else:
                        # Chunk exhausted without a miss: flush, re-derive.
                        self.cycles += n
                        done += n
                        n = 0
                        continue
                # Hot miss: flush and take the general path.
                self.pc = pc
                self.cycles += n
                done += n
                n = 0
                self.step()
                pc = self.pc
                done += 1
                if hooks.active:
                    return done, None
                if (prechecks or watched) and watched != prechecks.keys():
                    self._sync_watched()
        finally:
            fault = self._trace_fault
            if fault is None:
                self.pc = pc
                self.cycles += n
            else:
                self._trace_fault = None
                self.pc = fault[0]
                self.cycles += n - fault[1]

    # -- general-path opcode handlers (bound-method dispatch) ----------------

    def _op_alu_rr(self, pc: int, insn: Insn, hk):
        rd, rs = insn.operands
        regs = self.regs
        try:
            value = _ALU_BY_OP[insn.op](regs[rd], regs[rs]) & 0xFFFFFFFF
        except ZeroDivisionError:
            raise VMFault(FAULT_DIVZERO, pc=pc) from None
        regs[rd] = value
        hk.reg_write(pc, rd, value)
        self.pc = pc + insn.length

    def _op_alu_ri(self, pc: int, insn: Insn, hk):
        rd, imm = insn.operands
        regs = self.regs
        try:
            value = _ALU_BY_OP[insn.op](regs[rd], imm) & 0xFFFFFFFF
        except ZeroDivisionError:
            raise VMFault(FAULT_DIVZERO, pc=pc) from None
        regs[rd] = value
        hk.reg_write(pc, rd, value)
        self.pc = pc + insn.length

    def _op_movrr(self, pc: int, insn: Insn, hk):
        rd, rs = insn.operands
        value = self.regs[rs]
        self.regs[rd] = value
        hk.reg_write(pc, rd, value)
        self.pc = pc + insn.length

    def _op_movri(self, pc: int, insn: Insn, hk):
        rd, imm = insn.operands
        self.regs[rd] = imm
        hk.reg_write(pc, rd, imm)
        self.pc = pc + insn.length

    def _op_load(self, pc: int, insn: Insn, hk):
        rd, base, disp = insn.operands
        addr = to_unsigned(self.regs[base] + to_signed(disp))
        size = 4 if insn.op == Op.LDW else 1
        try:
            raw = self.memory.read(addr, size)
        except VMFault as fault:
            raise self._data_fault(fault, pc)
        hk.mem_read(pc, addr, size)
        value = int.from_bytes(raw, "little")
        self.regs[rd] = value
        hk.reg_write(pc, rd, value)
        self.pc = pc + insn.length

    def _op_store(self, pc: int, insn: Insn, hk):
        base, disp, rs = insn.operands
        addr = to_unsigned(self.regs[base] + to_signed(disp))
        size = 4 if insn.op == Op.STW else 1
        data = (self.regs[rs] & (0xFFFFFFFF if size == 4 else 0xFF)
                ).to_bytes(size, "little")
        try:
            self.memory.write(addr, data)
        except VMFault as fault:
            raise self._data_fault(fault, pc)
        hk.mem_write(pc, addr, size, data)
        self.pc = pc + insn.length

    def _op_cmp(self, pc: int, insn: Insn, hk):
        a = self.regs[insn.operands[0]]
        b = self.regs[insn.operands[1]] if insn.op == Op.CMPRR \
            else insn.operands[1]
        self.zf = a == b
        self.sf = to_signed(a) < to_signed(b)
        self.cf = a < b
        self.pc = pc + insn.length

    def _op_jmp(self, pc: int, insn: Insn, hk):
        target = insn.operands[0] if insn.op == Op.JMPI \
            else self.regs[insn.operands[0]]
        self.control_ring.append(ControlEvent("branch", pc, target))
        hk.branch(pc, target, True)
        self.pc = target

    def _op_cond_branch(self, pc: int, insn: Insn, hk):
        taken = PREDICATE_FUNCS[insn.op](self.zf, self.sf, self.cf)
        target = insn.operands[0]
        hk.branch(pc, target, taken)
        if taken:
            self.control_ring.append(ControlEvent("branch", pc, target))
            self.pc = target
        else:
            self.pc = pc + insn.length

    def _op_call(self, pc: int, insn: Insn, hk):
        next_pc = pc + insn.length
        target = insn.operands[0] if insn.op == Op.CALLI \
            else self.regs[insn.operands[0]]
        self.push(next_pc, pc)
        self.known_call_targets.add(target)
        self.control_ring.append(ControlEvent("call", pc, target))
        hk.call(pc, target, next_pc)
        self.pc = target

    def _op_ret(self, pc: int, insn: Insn, hk):
        sp_before = self.regs[SP]
        target = self.pop(pc)
        self.control_ring.append(ControlEvent("ret", pc, target))
        hk.ret(pc, target, sp_before)
        self.pc = target

    def _op_push(self, pc: int, insn: Insn, hk):
        value = self.regs[insn.operands[0]] if insn.op == Op.PUSHR \
            else insn.operands[0]
        self.push(value, pc)
        self.pc = pc + insn.length

    def _op_pop(self, pc: int, insn: Insn, hk):
        value = self.pop(pc)
        rd = insn.operands[0]
        self.regs[rd] = value
        hk.reg_write(pc, rd, value)
        self.pc = pc + insn.length

    def _op_sys(self, pc: int, insn: Insn, hk):
        if self.syscall_handler is None:
            raise VMFault(FAULT_ILLEGAL, pc=pc, detail="no syscall handler")
        # The handler may raise _WouldBlock; the Process rewinds pc to
        # re-execute the SYS on resume, so update pc first.
        self.pc = pc + insn.length
        self.syscall_handler(insn.operands[0], pc)

    def _op_nop(self, pc: int, insn: Insn, hk):
        self.pc = pc + insn.length

    def _op_halt(self, pc: int, insn: Insn, hk):
        raise ProcessExited(self.regs[0])


#: ALU opcode -> semantic callable (shared with the execution cells).
_ALU_BY_OP = {op: ALU_FUNCS[name] for op, name in ALU_OPS.items()}

_BIG = 1 << 62

#: Opcode -> general-path handler method name; instances bind these into
#: their dispatch table.  Replaces the monolithic if/elif execute ladder.
_DISPATCH_NAMES: dict[Op, str] = {}
for _op in ALU_OPS:
    _DISPATCH_NAMES[_op] = ("_op_alu_rr" if OP_SIGNATURES[_op] == "rr"
                            else "_op_alu_ri")
for _op in PREDICATE_FUNCS:
    _DISPATCH_NAMES[_op] = "_op_cond_branch"
_DISPATCH_NAMES.update({
    Op.MOVRR: "_op_movrr",
    Op.MOVRI: "_op_movri",
    Op.LDW: "_op_load",
    Op.LDB: "_op_load",
    Op.STW: "_op_store",
    Op.STB: "_op_store",
    Op.CMPRR: "_op_cmp",
    Op.CMPRI: "_op_cmp",
    Op.JMPI: "_op_jmp",
    Op.JMPR: "_op_jmp",
    Op.CALLI: "_op_call",
    Op.CALLR: "_op_call",
    Op.RET: "_op_ret",
    Op.PUSHR: "_op_push",
    Op.PUSHI: "_op_push",
    Op.POPR: "_op_pop",
    Op.SYS: "_op_sys",
    Op.NOP: "_op_nop",
    Op.HALT: "_op_halt",
})
assert set(_DISPATCH_NAMES) == set(OP_SIGNATURES), "dispatch table incomplete"

"""Executable-form instruction cells: the predecoded fast path.

The batched CPU loop executes read-only code through *cells*: one
closure per instruction address, compiled once when the instruction is
first decoded.  A cell has its operands unpacked, its ALU/predicate
function bound, its signed displacement pre-converted and its fall-through
address precomputed, so executing it is a single call that returns the
next program counter.  Cells contain **no** instrumentation calls, no
pre-check probes and no cycle bookkeeping — the batched loop accounts one
cycle per cell call and only runs cells while no tool or VSEF needs the
slow path.  This is how the common case ("no deployed analysis") gets
paper-grade (~0%) instrumentation cost without losing any of it when a
tool attaches.

Semantics are bit-for-bit those of :meth:`repro.machine.cpu.CPU.step`:
identical register/flag/memory updates, identical fault kinds and fault
PCs, identical control-ring events and identical cycle counts.  The
differential tests in ``tests/test_fastpath_differential.py`` hold the
two paths to that contract.

``SYS`` and ``HALT`` are deliberately *not* compiled: they re-enter the
runtime (syscall dispatch, process exit) and fall back to the general
``step()`` path, as does any address that is not read-only code.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import FAULT_DIVZERO, VMFault
from repro.isa.encoding import Insn
from repro.isa.opcodes import (ALU_FUNCS, ALU_OPS, CONTROL_TRANSFER_OPS,
                               OP_SIGNATURES, PREDICATE_FUNCS, SP, Op,
                               to_signed)
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, u32_get, u32_put

WORD_MASK = 0xFFFFFFFF
_SIGN_BIT = 0x80000000

#: ``fn(cpu) -> next_pc``; raises the same exceptions ``step()`` would.
Cell = Callable[["object"], int]

_FACTORIES: dict[Op, Callable] = {}


def _factory(*ops: Op):
    def register(fn):
        for op in ops:
            _FACTORIES[op] = fn
        return fn
    return register


def compile_cell(cpu, pc: int, insn: Insn) -> Cell | None:
    """Compile ``insn`` at ``pc`` into an executable cell for ``cpu``.

    Returns ``None`` for opcodes that must take the general path.  The
    closure captures stable per-process objects (the register file, the
    bound memory accessors, the control ring), which is why
    ``CPU.restore_state`` mutates those objects in place rather than
    replacing them.
    """
    factory = _FACTORIES.get(insn.op)
    if factory is None:
        return None
    return factory(cpu, pc, insn)


# ---------------------------------------------------------------------------
# Data movement and ALU
# ---------------------------------------------------------------------------

def _alu_factory(cpu, pc: int, insn: Insn):
    fn = ALU_FUNCS[ALU_OPS[insn.op]]
    regs = cpu.regs
    next_pc = pc + insn.length
    rd = insn.operands[0]
    if OP_SIGNATURES[insn.op] == "rr":
        rs = insn.operands[1]

        def run(cpu):
            try:
                regs[rd] = fn(regs[rd], regs[rs]) & WORD_MASK
            except ZeroDivisionError:
                raise VMFault(FAULT_DIVZERO, pc=pc) from None
            return next_pc
    else:
        imm = insn.operands[1]

        def run(cpu):
            try:
                regs[rd] = fn(regs[rd], imm) & WORD_MASK
            except ZeroDivisionError:
                raise VMFault(FAULT_DIVZERO, pc=pc) from None
            return next_pc
    return run


for _op in ALU_OPS:
    _FACTORIES[_op] = _alu_factory


@_factory(Op.MOVRR)
def _movrr(cpu, pc, insn):
    regs = cpu.regs
    rd, rs = insn.operands
    next_pc = pc + insn.length

    def run(cpu):
        regs[rd] = regs[rs]
        return next_pc
    return run


@_factory(Op.MOVRI)
def _movri(cpu, pc, insn):
    regs = cpu.regs
    rd, imm = insn.operands
    next_pc = pc + insn.length

    def run(cpu):
        regs[rd] = imm
        return next_pc
    return run


@_factory(Op.NOP)
def _nop(cpu, pc, insn):
    next_pc = pc + insn.length

    def run(cpu):
        return next_pc
    return run


# ---------------------------------------------------------------------------
# Memory access
#
# Loads/stores (and the stack traffic of CALL/RET/PUSH/POP below) inline
# the single-page access path: one shift/mask for the page index, one
# dict probe for the owning region, one dirty-bitmap probe for writes.
# Anything irregular — page-straddling access, unmapped/NULL/read-only
# target, first write to a frozen page — drops to the PagedMemory slow
# path, which re-runs full checking and raises the canonical faults.
# The captured containers (page table, page-region index, dirty bitmap)
# are mutated in place by snapshot/restore, never replaced.
# ---------------------------------------------------------------------------

_PAGE_SHIFT = PAGE_SHIFT
_PAGE_MASK = PAGE_SIZE - 1
_WORD_FIT = PAGE_SIZE - 4



def _reraise_data_fault(fault: VMFault, pc: int):
    raise VMFault(fault.kind, pc=pc, addr=fault.addr,
                  detail=fault.detail) from None


@_factory(Op.LDW)
def _ldw(cpu, pc, insn):
    regs = cpu.regs
    memory = cpu.memory
    pages = memory._pages
    page_region = memory._page_region
    read_word = memory.read_word
    rd, base, disp = insn.operands
    disp = to_signed(disp)
    next_pc = pc + insn.length

    def run(cpu):
        addr = (regs[base] + disp) & WORD_MASK
        offset = addr & _PAGE_MASK
        index = addr >> _PAGE_SHIFT
        if offset <= _WORD_FIT and index in page_region:
            page = pages.get(index)
            regs[rd] = 0 if page is None else u32_get(page, offset)[0]
            return next_pc
        try:
            regs[rd] = read_word(addr)
        except VMFault as fault:
            _reraise_data_fault(fault, pc)
        return next_pc
    return run


@_factory(Op.LDB)
def _ldb(cpu, pc, insn):
    regs = cpu.regs
    memory = cpu.memory
    pages = memory._pages
    page_region = memory._page_region
    read = memory.read
    rd, base, disp = insn.operands
    disp = to_signed(disp)
    next_pc = pc + insn.length

    def run(cpu):
        addr = (regs[base] + disp) & WORD_MASK
        index = addr >> _PAGE_SHIFT
        if index in page_region:
            page = pages.get(index)
            regs[rd] = 0 if page is None else page[addr & _PAGE_MASK]
            return next_pc
        try:
            regs[rd] = read(addr, 1)[0]
        except VMFault as fault:
            _reraise_data_fault(fault, pc)
        return next_pc
    return run


@_factory(Op.STW)
def _stw(cpu, pc, insn):
    regs = cpu.regs
    memory = cpu.memory
    pages = memory._pages
    page_region = memory._page_region
    dirty = memory._dirty
    page_for_write = memory._page_for_write
    write_word = memory.write_word
    base, disp, rs = insn.operands
    disp = to_signed(disp)
    next_pc = pc + insn.length

    def run(cpu):
        addr = (regs[base] + disp) & WORD_MASK
        offset = addr & _PAGE_MASK
        index = addr >> _PAGE_SHIFT
        if offset <= _WORD_FIT:
            region = page_region.get(index)
            if region is not None and region.writable:
                page = pages[index] if index in dirty else \
                    page_for_write(index)
                u32_put(page, offset, regs[rs] & WORD_MASK)
                return next_pc
        try:
            write_word(addr, regs[rs])
        except VMFault as fault:
            _reraise_data_fault(fault, pc)
        return next_pc
    return run


@_factory(Op.STB)
def _stb(cpu, pc, insn):
    regs = cpu.regs
    memory = cpu.memory
    pages = memory._pages
    page_region = memory._page_region
    dirty = memory._dirty
    page_for_write = memory._page_for_write
    write = memory.write
    base, disp, rs = insn.operands
    disp = to_signed(disp)
    next_pc = pc + insn.length

    def run(cpu):
        addr = (regs[base] + disp) & WORD_MASK
        index = addr >> _PAGE_SHIFT
        region = page_region.get(index)
        if region is not None and region.writable:
            page = pages[index] if index in dirty else page_for_write(index)
            page[addr & _PAGE_MASK] = regs[rs] & 0xFF
            return next_pc
        try:
            write(addr, bytes([regs[rs] & 0xFF]))
        except VMFault as fault:
            _reraise_data_fault(fault, pc)
        return next_pc
    return run


# ---------------------------------------------------------------------------
# Flags and control transfer
# ---------------------------------------------------------------------------

@_factory(Op.CMPRR)
def _cmprr(cpu, pc, insn):
    regs = cpu.regs
    r1, r2 = insn.operands
    next_pc = pc + insn.length

    def run(cpu):
        a = regs[r1]
        b = regs[r2]
        cpu.zf = a == b
        # Biased compare == signed compare for 32-bit two's complement.
        cpu.sf = (a ^ _SIGN_BIT) < (b ^ _SIGN_BIT)
        cpu.cf = a < b
        return next_pc
    return run


@_factory(Op.CMPRI)
def _cmpri(cpu, pc, insn):
    regs = cpu.regs
    r1, imm = insn.operands
    biased_imm = imm ^ _SIGN_BIT
    next_pc = pc + insn.length

    def run(cpu):
        a = regs[r1]
        cpu.zf = a == imm
        cpu.sf = (a ^ _SIGN_BIT) < biased_imm
        cpu.cf = a < imm
        return next_pc
    return run


@_factory(Op.JMPI)
def _jmpi(cpu, pc, insn):
    ring = cpu.control_ring
    event_cls = type(cpu).CONTROL_EVENT
    target = insn.operands[0]

    def run(cpu):
        ring.append(event_cls("branch", pc, target))
        return target
    return run


@_factory(Op.JMPR)
def _jmpr(cpu, pc, insn):
    regs = cpu.regs
    ring = cpu.control_ring
    event_cls = type(cpu).CONTROL_EVENT
    rs = insn.operands[0]

    def run(cpu):
        target = regs[rs]
        ring.append(event_cls("branch", pc, target))
        return target
    return run


def _cond_factory(cpu, pc: int, insn: Insn):
    pred = PREDICATE_FUNCS[insn.op]
    ring = cpu.control_ring
    event_cls = type(cpu).CONTROL_EVENT
    target = insn.operands[0]
    next_pc = pc + insn.length

    def run(cpu):
        if pred(cpu.zf, cpu.sf, cpu.cf):
            ring.append(event_cls("branch", pc, target))
            return target
        return next_pc
    return run


for _op in PREDICATE_FUNCS:
    _FACTORIES[_op] = _cond_factory


def _call_factory(cpu, pc: int, insn: Insn):
    regs = cpu.regs
    memory = cpu.memory
    pages = memory._pages
    page_region = memory._page_region
    dirty = memory._dirty
    page_for_write = memory._page_for_write
    write_word = memory.write_word
    ring = cpu.control_ring
    event_cls = type(cpu).CONTROL_EVENT
    known = cpu.known_call_targets
    indirect = insn.op == Op.CALLR
    operand = insn.operands[0]
    next_pc = pc + insn.length

    def run(cpu):
        target = regs[operand] if indirect else operand
        sp = (regs[SP] - 4) & WORD_MASK
        regs[SP] = sp
        offset = sp & _PAGE_MASK
        index = sp >> _PAGE_SHIFT
        region = page_region.get(index)
        if offset <= _WORD_FIT and region is not None and region.writable:
            page = pages[index] if index in dirty else page_for_write(index)
            u32_put(page, offset, next_pc)
        else:
            try:
                write_word(sp, next_pc)
            except VMFault as fault:
                _reraise_data_fault(fault, pc)
        known.add(target)
        ring.append(event_cls("call", pc, target))
        return target
    return run


_FACTORIES[Op.CALLI] = _call_factory
_FACTORIES[Op.CALLR] = _call_factory


@_factory(Op.RET)
def _ret(cpu, pc, insn):
    regs = cpu.regs
    memory = cpu.memory
    pages = memory._pages
    page_region = memory._page_region
    read_word = memory.read_word
    ring = cpu.control_ring
    event_cls = type(cpu).CONTROL_EVENT

    def run(cpu):
        sp = regs[SP]
        offset = sp & _PAGE_MASK
        index = sp >> _PAGE_SHIFT
        if offset <= _WORD_FIT and index in page_region:
            page = pages.get(index)
            target = 0 if page is None else u32_get(page, offset)[0]
        else:
            try:
                target = read_word(sp)
            except VMFault as fault:
                _reraise_data_fault(fault, pc)
        regs[SP] = (sp + 4) & WORD_MASK
        ring.append(event_cls("ret", pc, target))
        return target
    return run


@_factory(Op.PUSHR, Op.PUSHI)
def _push(cpu, pc, insn):
    regs = cpu.regs
    memory = cpu.memory
    pages = memory._pages
    page_region = memory._page_region
    dirty = memory._dirty
    page_for_write = memory._page_for_write
    write_word = memory.write_word
    from_reg = insn.op == Op.PUSHR
    operand = insn.operands[0]
    next_pc = pc + insn.length

    def run(cpu):
        value = regs[operand] if from_reg else operand
        sp = (regs[SP] - 4) & WORD_MASK
        regs[SP] = sp
        offset = sp & _PAGE_MASK
        index = sp >> _PAGE_SHIFT
        region = page_region.get(index)
        if offset <= _WORD_FIT and region is not None and region.writable:
            page = pages[index] if index in dirty else page_for_write(index)
            u32_put(page, offset, value & WORD_MASK)
        else:
            try:
                write_word(sp, value)
            except VMFault as fault:
                _reraise_data_fault(fault, pc)
        return next_pc
    return run


@_factory(Op.POPR)
def _popr(cpu, pc, insn):
    regs = cpu.regs
    memory = cpu.memory
    pages = memory._pages
    page_region = memory._page_region
    read_word = memory.read_word
    rd = insn.operands[0]
    next_pc = pc + insn.length

    def run(cpu):
        sp = regs[SP]
        offset = sp & _PAGE_MASK
        index = sp >> _PAGE_SHIFT
        if offset <= _WORD_FIT and index in page_region:
            page = pages.get(index)
            value = 0 if page is None else u32_get(page, offset)[0]
        else:
            try:
                value = read_word(sp)
            except VMFault as fault:
                _reraise_data_fault(fault, pc)
        # Order matters when rd is SP itself: the increment happens
        # first, then the popped value lands, exactly as step() does.
        regs[SP] = (sp + 4) & WORD_MASK
        regs[rd] = value
        return next_pc
    return run


def compile_instrumented_cell(cpu, pc: int, insn: Insn):
    """Compile the *instrumented* form of ``insn`` at ``pc``.

    The analysis-mode counterpart of :func:`compile_cell`: where plain
    cells strip every hook call, an instrumented cell keeps the full
    ``step()`` event contract — the VSEF pre-check probe, the ``ins``
    event, the one-cycle charge and the general-path dispatch (whose
    handlers emit the per-operand ``mem_*``/``reg_write``/control
    events) — but hoists the per-step lookups ``step()`` repeats every
    instruction: the native-entry probe (instrumented cells exist only
    for decode-cached read-only code, which native entries never are),
    the decode-cache probe and the dispatch-table lookup.  Tools
    observe a bit-identical event stream; only the per-instruction
    dispatch overhead shrinks.

    The closure captures the hook *manager* and the pre-check table by
    identity and re-reads ``hooks.sink``/the pc's check list every
    execution, so tools attaching or detaching and filters arming or
    disarming mid-run behave exactly as on the step() path.  Unlike
    plain cells, SYS and HALT compile too — their general-path handlers
    re-enter the runtime just as step() would.
    """
    dispatch = cpu._dispatch[insn.op]
    hooks = cpu.hooks
    prechecks = cpu.pre_checks

    def run(cpu):
        if prechecks:
            checks = prechecks.get(pc)
            if checks:
                for check in checks:
                    check(cpu, insn)
        hk = hooks.sink
        hk.ins(pc, insn, cpu)
        cpu.cycles += 1
        dispatch(pc, insn, hk)

    return run


# ---------------------------------------------------------------------------
# Trace fusion: supercells
#
# A *supercell* is one generated Python function that executes a whole
# straight-line run of fusible instructions (see
# :data:`repro.isa.opcodes.FUSIBLE_OPS`), optionally closed by the basic
# block's terminating control transfer: operands are unpacked at compile
# time, guest registers and flags are coalesced into Python locals
# (loaded on first read, flushed once at the end), ALU semantics are
# inlined as operators, loads/stores inline the same single-page fast
# path the per-instruction cells use, and the run ends in a single PC
# return — the fall-through address, or the terminator's (possibly
# conditional) target.  The batched loop charges the trace's full
# instruction count in one add, so cycle accounting stays bit-identical
# to per-cell execution.
#
# Faults mid-trace must look exactly like per-cell faults: architectural
# state reflects every instruction before the faulting one, the faulting
# instruction's own partial effects match step() (e.g. PUSH leaves SP
# decremented), the fault carries the faulting instruction's PC, and
# only the executed prefix is charged cycles.  Each potentially faulting
# site therefore gets its own handler that flushes the registers written
# so far and reports, through ``cpu._trace_fault``, the faulting PC and
# how many of the trace's pre-charged cycles were *not* earned; the
# fused run loop consumes that to settle ``pc`` and ``cycles``.
# ---------------------------------------------------------------------------

_M = "0xFFFFFFFF"

#: ALU semantics as inline expression templates over already-masked
#: 32-bit operands.  ``and/or/xor/shr`` cannot overflow 32 bits, so they
#: skip the re-mask; div/mod are handled separately (fault path).
_ALU_EXPR = {
    "add": "({a} + {b}) & " + _M,
    "sub": "({a} - {b}) & " + _M,
    "mul": "({a} * {b}) & " + _M,
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "shl": "({a} << ({b} & 31)) & " + _M,
    "shr": "{a} >> ({b} & 31)",
}


def _fused_data_fault(cpu, fault, pc, shortfall):
    """Re-raise a data fault from inside a supercell.

    ``shortfall`` is the number of the trace's pre-charged cycles that
    were not executed (instructions past the faulting one); the fused
    run loop subtracts it and rewinds ``cpu.pc`` to ``pc``.
    """
    cpu._trace_fault = (pc, shortfall)
    raise VMFault(fault.kind, pc=pc, addr=fault.addr,
                  detail=fault.detail) from None


def _fused_div_fault(cpu, pc, shortfall):
    cpu._trace_fault = (pc, shortfall)
    raise VMFault(FAULT_DIVZERO, pc=pc) from None


#: Branch predicates as expression templates over the flag value names
#: (mirrors :data:`repro.isa.opcodes.PREDICATE_FUNCS`).
_PRED_EXPR = {
    Op.JE: "{zf}",
    Op.JNE: "not {zf}",
    Op.JL: "{sf}",
    Op.JLE: "({sf} or {zf})",
    Op.JG: "not ({sf} or {zf})",
    Op.JGE: "not {sf}",
    Op.JB: "{cf}",
    Op.JAE: "not {cf}",
}


class _TraceCompiler:
    """Emits the Python source of one supercell."""

    def __init__(self, items: list[tuple[int, Insn]]):
        self.items = items
        self.k = len(items)
        self.lines: list[str] = []
        self._bound: set[int] = set()     # guest regs with a live local
        self._written: set[int] = set()   # locals differing from _regs
        self._flags_local = False         # a CMP put flags in locals
        # Page-probe CSE: cache the last written (writable, dirty) page
        # in `_wi`/`_wp` locals so repeated traffic to the same page —
        # stack pushes, struct fills — skips the region probe and the
        # dirty-bitmap check.  Only worth the init + compare when the
        # trace has enough memory traffic for a second access to hit.
        writes = reads = 0
        for _pc, insn in items:
            op = insn.op
            if op in (Op.STW, Op.STB, Op.PUSHR, Op.PUSHI,
                      Op.CALLI, Op.CALLR):
                writes += 1
            elif op in (Op.LDW, Op.LDB, Op.POPR, Op.RET):
                reads += 1
        self.cse = writes >= 2 or (writes >= 1 and reads >= 1)

    # -- register locals ---------------------------------------------------

    def use(self, reg: int) -> str:
        """Local name for a register read (loads it on first touch)."""
        if reg not in self._bound:
            self.lines.append(f"    r{reg} = _regs[{reg}]")
            self._bound.add(reg)
        return f"r{reg}"

    def define(self, reg: int) -> str:
        """Mark a register as written; its local is flushed at the end
        (and by any later fault handler)."""
        self._bound.add(reg)
        self._written.add(reg)
        return f"r{reg}"

    def flag(self, name: str) -> str:
        """Where the current value of flag ``name`` lives: a local once
        any CMP in this trace has written it, ``cpu.<name>`` before."""
        return f"_{name}" if self._flags_local else f"cpu.{name}"

    # -- state flushes and fault handlers ----------------------------------

    def _flush_lines(self, indent: str) -> list[str]:
        """Statements writing every dirty local (registers, flags) back
        to the architectural state."""
        out = [f"{indent}_regs[{reg}] = r{reg}"
               for reg in sorted(self._written)]
        if self._flags_local:
            out.append(f"{indent}cpu.zf = _zf")
            out.append(f"{indent}cpu.sf = _sf")
            out.append(f"{indent}cpu.cf = _cf")
        return out

    def _handler(self, indent: str, catch: str, raise_stmt: str):
        """An except block flushing the state written *so far*."""
        self.lines.append(f"{indent}except {catch}:")
        self.lines.extend(self._flush_lines(indent + "    "))
        self.lines.append(f"{indent}    {raise_stmt}")

    def data_handler(self, indent: str, pc: int, j: int):
        self._handler(indent, "VMFault as _f",
                      f"_fault(cpu, _f, {pc}, {self.k - j - 1})")

    def div_handler(self, indent: str, pc: int, j: int):
        self._handler(indent, "ZeroDivisionError",
                      f"_divfault(cpu, {pc}, {self.k - j - 1})")

    # -- addressing --------------------------------------------------------

    def addr_expr(self, base: int, disp: int) -> str:
        """Local or temp holding ``(regs[base] + signed(disp)) & mask``.

        With a zero displacement the (invariantly masked) register local
        is used directly; the emitters only read the address before any
        register local could be reassigned, so the alias is safe.
        """
        sdisp = to_signed(disp)
        name = self.use(base)
        if sdisp == 0:
            return name
        self.lines.append(f"    _a = ({name} + {sdisp}) & {_M}")
        return "_a"

    # -- per-opcode emitters ----------------------------------------------

    def emit(self, j: int, pc: int, insn: Insn):
        op = insn.op
        if op is Op.NOP:
            return
        if op is Op.MOVRR:
            rd, rs = insn.operands
            src = self.use(rs)
            self.lines.append(f"    {self.define(rd)} = {src}")
        elif op is Op.MOVRI:
            rd, imm = insn.operands
            self.lines.append(f"    {self.define(rd)} = {imm}")
        elif op in ALU_OPS:
            self._emit_alu(j, pc, insn)
        elif op is Op.CMPRR:
            a = self.use(insn.operands[0])
            b = self.use(insn.operands[1])
            self.lines.append(f"    _zf = {a} == {b}")
            self.lines.append(
                f"    _sf = ({a} ^ 0x80000000) < ({b} ^ 0x80000000)")
            self.lines.append(f"    _cf = {a} < {b}")
            self._flags_local = True
        elif op is Op.CMPRI:
            a = self.use(insn.operands[0])
            imm = insn.operands[1]
            self.lines.append(f"    _zf = {a} == {imm}")
            self.lines.append(
                f"    _sf = ({a} ^ 0x80000000) < {imm ^ 0x80000000}")
            self.lines.append(f"    _cf = {a} < {imm}")
            self._flags_local = True
        elif op is Op.LDW:
            self._emit_ldw(j, pc, insn)
        elif op is Op.LDB:
            self._emit_ldb(j, pc, insn)
        elif op is Op.STW:
            self._emit_stw(j, pc, insn)
        elif op is Op.STB:
            self._emit_stb(j, pc, insn)
        elif op is Op.PUSHR or op is Op.PUSHI:
            self._emit_push(j, pc, insn)
        elif op is Op.POPR:
            self._emit_pop(j, pc, insn)
        else:                                      # pragma: no cover
            raise AssertionError(f"unfusible opcode {op!r} in trace")

    def _emit_alu(self, j: int, pc: int, insn: Insn):
        name = ALU_OPS[insn.op]
        rd = insn.operands[0]
        if OP_SIGNATURES[insn.op] == "rr":
            a = self.use(rd)
            b = self.use(insn.operands[1])
            if name in ("div", "mod"):
                oper = "//" if name == "div" else "%"
                self.lines.append("    try:")
                self.lines.append(f"        r{rd} = {a} {oper} {b}")
                self.div_handler("    ", pc, j)
                self.define(rd)
                return
            expr = _ALU_EXPR[name].format(a=a, b=b)
        else:
            a = self.use(rd)
            imm = insn.operands[1]
            if name in ("div", "mod"):
                if imm == 0:
                    # Constant division by zero: always faults, exactly
                    # as the cell/step paths would.
                    self.lines.extend(self._flush_lines("    "))
                    self.lines.append(
                        f"    _divfault(cpu, {pc}, {self.k - j - 1})")
                    return
                oper = "//" if name == "div" else "%"
                expr = f"{a} {oper} {imm}"
            elif name == "shl":
                expr = f"({a} << {imm & 31}) & {_M}"
            elif name == "shr":
                expr = f"{a} >> {imm & 31}"
            else:
                expr = _ALU_EXPR[name].format(a=a, b=imm)
        self.lines.append(f"    {self.define(rd)} = {expr}")

    def _emit_ldw(self, j: int, pc: int, insn: Insn):
        rd, base, disp = insn.operands
        addr = self.addr_expr(base, disp)
        L = self.lines
        L.append(f"    _i = {addr} >> 12")
        L.append(f"    _o = {addr} & 4095")
        if self.cse:
            L.append("    if _i == _wi and _o <= 4092:")
            L.append(f"        r{rd} = _up(_wp, _o)[0]")
            L.append("    elif _o <= 4092 and _i in _pr:")
        else:
            L.append("    if _o <= 4092 and _i in _pr:")
        L.append("        _p = _pages.get(_i)")
        L.append(f"        r{rd} = 0 if _p is None else _up(_p, _o)[0]")
        L.append("    else:")
        L.append("        try:")
        L.append(f"            r{rd} = _rw({addr})")
        self.data_handler("        ", pc, j)
        self.define(rd)

    def _emit_ldb(self, j: int, pc: int, insn: Insn):
        rd, base, disp = insn.operands
        addr = self.addr_expr(base, disp)
        L = self.lines
        L.append(f"    _i = {addr} >> 12")
        if self.cse:
            L.append("    if _i == _wi:")
            L.append(f"        r{rd} = _wp[{addr} & 4095]")
            L.append("    elif _i in _pr:")
        else:
            L.append("    if _i in _pr:")
        L.append("        _p = _pages.get(_i)")
        L.append(f"        r{rd} = 0 if _p is None else _p[{addr} & 4095]")
        L.append("    else:")
        L.append("        try:")
        L.append(f"            r{rd} = _rdm({addr}, 1)[0]")
        self.data_handler("        ", pc, j)
        self.define(rd)

    def _word_store(self, j: int, pc: int, addr: str, fast_val: str,
                    slow_stmt: str):
        """The probed word store ``mem32[addr] <- val``; ``_i``/``_o``
        must already hold the page index and offset.  With CSE on, a
        store to the cached page skips probe and dirty check; a probe
        miss that lands on a writable page (re)fills the cache — the
        page object is dirty from that point on, so the cached
        reference stays the live page for the rest of the trace."""
        L = self.lines
        if self.cse:
            L.append("    if _i == _wi and _o <= 4092:")
            L.append(f"        _pk(_wp, _o, {fast_val})")
            L.append("    else:")
            L.append("        _rg = _pr.get(_i) if _o <= 4092 else None")
            L.append("        if _rg is not None and _rg.writable:")
            L.append("            _wp = _pages[_i] if _i in _dirty "
                     "else _pfw(_i)")
            L.append("            _wi = _i")
            L.append(f"            _pk(_wp, _o, {fast_val})")
            L.append("        else:")
            L.append("            try:")
            L.append(f"                {slow_stmt}")
            self.data_handler("            ", pc, j)
        else:
            L.append("    _rg = _pr.get(_i) if _o <= 4092 else None")
            L.append("    if _rg is not None and _rg.writable:")
            L.append("        _p = _pages[_i] if _i in _dirty else _pfw(_i)")
            L.append(f"        _pk(_p, _o, {fast_val})")
            L.append("    else:")
            L.append("        try:")
            L.append(f"            {slow_stmt}")
            self.data_handler("        ", pc, j)

    def _emit_stw(self, j: int, pc: int, insn: Insn):
        base, disp, rs = insn.operands
        val = self.use(rs)
        addr = self.addr_expr(base, disp)
        self.lines.append(f"    _i = {addr} >> 12")
        self.lines.append(f"    _o = {addr} & 4095")
        self._word_store(j, pc, addr, f"{val} & {_M}", f"_ww({addr}, {val})")

    def _emit_stb(self, j: int, pc: int, insn: Insn):
        base, disp, rs = insn.operands
        val = self.use(rs)
        addr = self.addr_expr(base, disp)
        L = self.lines
        L.append(f"    _i = {addr} >> 12")
        if self.cse:
            L.append("    if _i == _wi:")
            L.append(f"        _wp[{addr} & 4095] = {val} & 0xFF")
            L.append("    else:")
            L.append("        _rg = _pr.get(_i)")
            L.append("        if _rg is not None and _rg.writable:")
            L.append("            _wp = _pages[_i] if _i in _dirty "
                     "else _pfw(_i)")
            L.append("            _wi = _i")
            L.append(f"            _wp[{addr} & 4095] = {val} & 0xFF")
            L.append("        else:")
            L.append("            try:")
            L.append(f"                _wrm({addr}, bytes(({val} & 0xFF,)))")
            self.data_handler("            ", pc, j)
        else:
            L.append("    _rg = _pr.get(_i)")
            L.append("    if _rg is not None and _rg.writable:")
            L.append("        _p = _pages[_i] if _i in _dirty else _pfw(_i)")
            L.append(f"        _p[{addr} & 4095] = {val} & 0xFF")
            L.append("    else:")
            L.append("        try:")
            L.append(f"            _wrm({addr}, bytes(({val} & 0xFF,)))")
            self.data_handler("        ", pc, j)

    def _emit_push(self, j: int, pc: int, insn: Insn):
        if insn.op is Op.PUSHR:
            rs = insn.operands[0]
            val = self.use(rs)
            if rs == SP:
                # The pushed value is SP *before* the decrement.
                self.lines.append(f"    _v = {val}")
                val = "_v"
        else:
            val = str(insn.operands[0])
        sp = self.use(SP)
        self.lines.append(f"    {self.define(SP)} = ({sp} - 4) & {_M}")
        self.lines.append(f"    _i = r{SP} >> 12")
        self.lines.append(f"    _o = r{SP} & 4095")
        # SP is already in the written set: a faulting PUSH leaves it
        # decremented, exactly like step().
        self._word_store(j, pc, f"r{SP}", f"{val} & {_M}",
                         f"_ww(r{SP}, {val})")

    def _emit_pop(self, j: int, pc: int, insn: Insn):
        rd = insn.operands[0]
        sp = self.use(SP)
        L = self.lines
        L.append(f"    _i = {sp} >> 12")
        L.append(f"    _o = {sp} & 4095")
        if self.cse:
            L.append("    if _i == _wi and _o <= 4092:")
            L.append("        _v = _up(_wp, _o)[0]")
            L.append("    elif _o <= 4092 and _i in _pr:")
        else:
            L.append("    if _o <= 4092 and _i in _pr:")
        L.append("        _p = _pages.get(_i)")
        L.append("        _v = 0 if _p is None else _up(_p, _o)[0]")
        L.append("    else:")
        L.append("        try:")
        L.append(f"            _v = _rw({sp})")
        self.data_handler("        ", pc, j)            # SP untouched yet
        # Increment first, then land the value: bit-exact with step()
        # (and the cell) when rd is SP itself.
        self.lines.append(f"    {self.define(SP)} = ({sp} + 4) & {_M}")
        self.lines.append(f"    {self.define(rd)} = _v")

    # -- block terminators -------------------------------------------------
    #
    # A trace may close with its basic block's control transfer.  The
    # terminator computes the outgoing PC, appends the same control-ring
    # event the per-instruction cell would, and returns — so a whole
    # block is one call.  Flushes happen before the return on every
    # path; ring/call-target bookkeeping only after any stack access
    # succeeded, exactly like the cells.

    def emit_terminator(self, j: int, pc: int, insn: Insn):
        op = insn.op
        if op in _PRED_EXPR:
            target = insn.operands[0]
            pred = _PRED_EXPR[op].format(zf=self.flag("zf"),
                                         sf=self.flag("sf"),
                                         cf=self.flag("cf"))
            self.lines.extend(self._flush_lines("    "))
            self.lines.append(f"    if {pred}:")
            self.lines.append(
                f"        _ring(_EV('branch', {pc}, {target}))")
            self.lines.append(f"        return {target}")
            self.lines.append(f"    return {pc + insn.length}")
        elif op is Op.JMPI:
            target = insn.operands[0]
            self.lines.extend(self._flush_lines("    "))
            self.lines.append(f"    _ring(_EV('branch', {pc}, {target}))")
            self.lines.append(f"    return {target}")
        elif op is Op.JMPR:
            target = self.use(insn.operands[0])
            self.lines.extend(self._flush_lines("    "))
            self.lines.append(f"    _ring(_EV('branch', {pc}, {target}))")
            self.lines.append(f"    return {target}")
        elif op is Op.CALLI or op is Op.CALLR:
            self._emit_call(j, pc, insn)
        elif op is Op.RET:
            self._emit_ret(j, pc, insn)
        else:                                      # pragma: no cover
            raise AssertionError(f"bad terminator {op!r}")

    def _emit_call(self, j: int, pc: int, insn: Insn):
        next_pc = pc + insn.length
        if insn.op is Op.CALLR:
            target = self.use(insn.operands[0])
            if insn.operands[0] == SP:
                self.lines.append(f"    _t = {target}")
                target = "_t"
        else:
            target = str(insn.operands[0])
        sp = self.use(SP)
        self.lines.append(f"    {self.define(SP)} = ({sp} - 4) & {_M}")
        self.lines.append(f"    _i = r{SP} >> 12")
        self.lines.append(f"    _o = r{SP} & 4095")
        # SP stays decremented on a faulting stack store.
        self._word_store(j, pc, f"r{SP}", str(next_pc),
                         f"_ww(r{SP}, {next_pc})")
        self.lines.extend(self._flush_lines("    "))
        self.lines.append(f"    _known({target})")
        self.lines.append(f"    _ring(_EV('call', {pc}, {target}))")
        self.lines.append(f"    return {target}")

    def emit_mid_transfer(self, j: int, pc: int, insn: Insn):
        """A control transfer *inside* an extended trace.

        CFG-driven extension only fuses through transfers whose target
        is statically known to be the next member — immediate jumps and
        direct calls into single-entry functions — so no outgoing PC is
        computed or returned.  Only the architectural side effects
        happen, in cell order: for a jump the ring event; for a call
        the return-address push (SP stays decremented on a faulting
        store, like step()), then known-target bookkeeping and the ring
        event once the store succeeded.
        """
        op = insn.op
        if op is Op.JMPI:
            target = insn.operands[0]
            self.lines.append(f"    _ring(_EV('branch', {pc}, {target}))")
        elif op is Op.CALLI:
            target = insn.operands[0]
            next_pc = pc + insn.length
            sp = self.use(SP)
            self.lines.append(f"    {self.define(SP)} = ({sp} - 4) & {_M}")
            self.lines.append(f"    _i = r{SP} >> 12")
            self.lines.append(f"    _o = r{SP} & 4095")
            self._word_store(j, pc, f"r{SP}", str(next_pc),
                             f"_ww(r{SP}, {next_pc})")
            self.lines.append(f"    _known({target})")
            self.lines.append(f"    _ring(_EV('call', {pc}, {target}))")
        else:                                      # pragma: no cover
            raise AssertionError(f"unfusible mid-trace transfer {op!r}")

    def _emit_ret(self, j: int, pc: int, insn: Insn):
        sp = self.use(SP)
        L = self.lines
        L.append(f"    _i = {sp} >> 12")
        L.append(f"    _o = {sp} & 4095")
        if self.cse:
            L.append("    if _i == _wi and _o <= 4092:")
            L.append("        _t = _up(_wp, _o)[0]")
            L.append("    elif _o <= 4092 and _i in _pr:")
        else:
            L.append("    if _o <= 4092 and _i in _pr:")
        L.append("        _p = _pages.get(_i)")
        L.append("        _t = 0 if _p is None else _up(_p, _o)[0]")
        L.append("    else:")
        L.append("        try:")
        L.append(f"            _t = _rw({sp})")
        self.data_handler("        ", pc, j)       # SP untouched yet
        self.lines.append(f"    {self.define(SP)} = ({sp} + 4) & {_M}")
        self.lines.extend(self._flush_lines("    "))
        self.lines.append(f"    _ring(_EV('ret', {pc}, _t))")
        self.lines.append("    return _t")

    # -- assembly ----------------------------------------------------------

    def source(self) -> str:
        if self.cse:
            self.lines.append("    _wi = -1")
        last_j = self.k - 1
        last_pc, last_insn = self.items[last_j]
        terminated = last_insn.op in CONTROL_TRANSFER_OPS
        straight = self.items[:-1] if terminated else self.items
        for j, (pc, insn) in enumerate(straight):
            if insn.op in CONTROL_TRANSFER_OPS:
                self.emit_mid_transfer(j, pc, insn)
            else:
                self.emit(j, pc, insn)
        if terminated:
            self.emit_terminator(last_j, last_pc, last_insn)
        else:
            self.lines.extend(self._flush_lines("    "))
            self.lines.append(f"    return {last_pc + last_insn.length}")
        header = ("def _trace(cpu, _regs=_REGS, _pages=_PAGES, _pr=_PR, "
                  "_dirty=_DIRTY, _pfw=_PFW, _rw=_RW, _ww=_WW, _rdm=_RDM, "
                  "_wrm=_WRM, _ring=_RING, _known=_KNOWN, _EV=_EVC, "
                  "_up=_UP, _pk=_PK):")
        return header + "\n" + "\n".join(self.lines)


def compile_trace(cpu, items: list[tuple[int, Insn]]) -> Cell | None:
    """Compile a run of predecoded instructions into one supercell:
    ``fn(cpu) -> next_pc`` executing the whole run.

    ``items`` is the ordered ``(pc, insn)`` list: fusible
    (straight-line) opcodes, optionally closed by the block's control
    transfer as the final item.  A run need not be address-contiguous:
    CFG-driven extension may splice in an immediate jump or a direct
    call whose *next member is its static target* (unconditional
    ``JMPI``, ``CALLI`` into a single-entry function) — those mid-trace
    transfers emit their architectural side effects and fall through
    into the inlined target.  Like cells, the generated function
    captures the per-process containers (register file, page table,
    page-region index, dirty bitmap, control ring) by identity, so
    snapshot/restore keeps it valid; code *content* changes must drop
    it (see ``CPU.invalidate_code``).
    """
    if len(items) < 2:
        return None
    memory = cpu.memory
    namespace = {
        "_REGS": cpu.regs,
        "_PAGES": memory._pages,
        "_PR": memory._page_region,
        "_DIRTY": memory._dirty,
        "_PFW": memory._page_for_write,
        "_RW": memory.read_word,
        "_WW": memory.write_word,
        "_RDM": memory.read,
        "_WRM": memory.write,
        "_RING": cpu.control_ring.append,
        "_KNOWN": cpu.known_call_targets.add,
        "_EVC": type(cpu).CONTROL_EVENT,
        "_UP": u32_get,
        "_PK": u32_put,
        "VMFault": VMFault,
        "_fault": _fused_data_fault,
        "_divfault": _fused_div_fault,
    }
    exec(_TraceCompiler(items).source(), namespace)
    return namespace["_trace"]

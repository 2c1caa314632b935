"""The instruction compiler: generated unit functions and compiled regions.

The interpretive path in :mod:`repro.machine.core` re-inspects ``Instr``
metadata on every unit — isinstance checks on operands, a dict lookup on the
mnemonic, several helper-method calls. All of that is static per
instruction, so this module writes Python source for it instead, from one
set of per-mnemonic *templates* (``_TEMPLATES``), and compiles it into two
kinds of function:

- a *unit function* ``fn(engine, port) -> outcome | None`` runs one unit of
  the instruction at its pc and updates ``pc`` and ``retired`` itself.
  :func:`decoded_program` is the unit table, indexed by pc, of an engine
  with the decode cache: ``Kernel.run``'s loop, ``Machine.step_core``,
  ``Engine.step`` and replay's unit loop in ``Replayer.step_chunk`` call
  its entries directly. An engine without the decode cache has the same
  kind of table, holding ``core._interpret`` (the interpretive handler,
  with the same contract) at every pc;
- a *region function* ``fn(engine, port, budget) -> units`` runs the basic
  blocks of one region back to back, entering each next block only while
  it fits in ``budget`` units. A region is a strongly connected component
  of the block graph, such as a loop, or a single block in no cycle.
  :func:`region_table` is the table of them, indexed by block leader, that
  the same replay loop enters where the block at the pc fits.

Both tables are memoized per ``Program`` object (replay spawns one engine
per thread over the same program; they share its tables), and every entry
compiles on its first run.

Equivalence contract (pinned by ``tests/property/test_property_decode.py``
and ``tests/property/test_property_blocks.py``): generated code performs
*bit-identical* state transitions to the interpretive handlers — registers,
pc, flags, ``retired``/``cur_memops``, the load/store counters, the rolling
``load_hash``, fault messages, and trap outcomes all match, including
mid-``rep`` save/restore resumability.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable

from ..errors import MachineFault
from ..isa.instructions import Instr
from ..isa.operands import Imm, Mem, Reg
from ..isa.program import Program
from ..isa.registers import NUM_REGS, RAX, RCX, RDI, RSI, SP
from .core import _DISPATCH, OUTCOME_NONDET, OUTCOME_SYSCALL

MASK32 = 0xFFFFFFFF
_HASH_MASK = (1 << 64) - 1
_FNV_PRIME = 0x100000001B3

#: A unit function: returns None for OK or an OUTCOME_* string for a trap.
UnitFn = Callable[[object, object], str | None]

# -- code generation ----------------------------------------------------------
# Registers stay in ``regs[...]``; flags, ``load_hash`` and the load/store
# counters live in locals and are committed when the function exits, also
# when a memory access raises. Inside a block only memory instructions can
# raise, and each sets ``engine.pc`` to its own pc before touching the port,
# so the fault (and a port that reads ``engine.pc``) sees the faulting pc
# and the units retired before it are ``engine.pc - leader`` (in a region,
# plus the units of the blocks it ran before). A unit function starts with
# ``engine.pc`` at its own pc and needs neither.
# Neither kind writes ``cur_memops``: it is nonzero only while the engine
# is parked mid-``rep_*`` (delivering a signal clears it), and only the
# ``rep_*`` templates touch it. The flag arithmetic relies on every register
# holding a 32-bit unsigned value, which every writer of ``regs`` guarantees
# by masking.

#: Condition of each conditional jump over the flag locals.
_JCC = {
    "je": ("zf == 1", ("zf",)),
    "jne": ("zf == 0", ("zf",)),
    "jl": ("sf != of", ("sf", "of")),
    "jge": ("sf == of", ("sf", "of")),
    "jle": ("zf == 1 or sf != of", ("zf", "sf", "of")),
    "jg": ("zf == 0 and sf == of", ("zf", "sf", "of")),
    "jb": ("cf == 1", ("cf",)),
    "jae": ("cf == 0", ("cf",)),
    "jbe": ("cf == 1 or zf == 1", ("cf", "zf")),
    "ja": ("cf == 0 and zf == 0", ("cf", "zf")),
    "js": ("sf == 1", ("sf",)),
    "jns": ("sf == 0", ("sf",)),
}

#: Mnemonics that end a block; the block includes them as its last unit.
_BLOCK_ENDS = frozenset({"jmp", "call", "ret", *_JCC})

#: Mnemonics compiled only as unit functions. A block stops before them:
#: they raise without a memory access (``div``/``mod``), lock the bus
#: (atomics, fences), retire in several units (``rep_*``) or trap.
_UNIT_ONLY = frozenset({"div", "mod", "xadd", "xchg", "cmpxchg", "mfence",
                        "rep_movs", "rep_stos", "syscall", "rdtsc", "rdrand",
                        "cpuid"})

_M = str(MASK32)
_FLAGS = ("zf", "sf", "cf", "of")


def _val(op) -> str:
    """Source text reading a 'v' operand (register or immediate)."""
    return f"regs[{op.number}]" if type(op) is Reg else str(op.value)


def _ea(mem: Mem) -> str:
    """Source text of :meth:`~repro.isa.operands.Mem.effective_address`."""
    base, index, scale, disp = mem.base, mem.index, mem.scale, mem.disp
    if base is None and index is None:
        return str(disp)
    if index is None:
        return f"(regs[{base}] + {disp}) & {_M}"
    if base is None:
        return f"(regs[{index}] * {scale} + {disp}) & {_M}"
    return f"(regs[{base}] + regs[{index}] * {scale} + {disp}) & {_M}"


def _aligned(mem: Mem) -> bool:
    """Is every effective address of ``mem`` word aligned, whatever the
    registers hold? (Masking to 32 bits keeps the low two bits.)"""
    return (mem.base is None and (mem.index is None or mem.scale % 4 == 0)
            and mem.disp % 4 == 0)


class _Writer:
    """The body of one generated function, and which state it touches."""

    def __init__(self, unit: bool, next_pc: str = "e.pc"):
        self.unit = unit
        # Where a control transfer writes the next pc: the engine, or the
        # ``lead`` local a region dispatches on.
        self.next_pc = next_pc
        self.lines: list[str] = []
        self.loads = False
        self.stores = False
        # The template set pc and retired itself (rep_*, traps).
        self.retires = False
        self.flags_written: set[str] = set()
        self._indent = ""
        self._assigned: set[str] = set()
        self._read_first: set[str] = set()
        # Flags still unassigned at each point that can raise: the exit
        # commit reaches them there, so they must hold the entry value.
        self._unassigned_at_raise: set[str] = set()

    def emit(self, line: str) -> None:
        self.lines.append(self._indent + line)

    def branch(self, condition: str | None, body: Callable[[], None]) -> None:
        """Emit ``if condition:`` (``else:`` when None) with ``body``."""
        self.emit(f"if {condition}:" if condition is not None else "else:")
        self._indent += "    "
        body()
        self._indent = self._indent[:-4]

    def flags_loaded(self) -> set[str]:
        """Flags the function reads from the engine on entry. (Only a
        function that touches memory commits on a raise.)"""
        if not (self.loads or self.stores):
            return self._read_first
        return self._read_first | (self.flags_written
                                   & self._unassigned_at_raise)

    def flags_used(self) -> set[str]:
        """Flags the body reads or writes anywhere."""
        return self._read_first | self.flags_written

    def read_flags(self, flags) -> None:
        self._read_first.update(set(flags) - self._assigned)

    def set_flags(self, zf: str, sf: str, cf: str, of: str) -> None:
        for name, expr in zip(_FLAGS, (zf, sf, cf, of)):
            self.emit(f"{name} = {expr}")
        self._assigned.update(_FLAGS)
        self.flags_written.update(_FLAGS)

    def logic_flags(self) -> None:
        """Engine._flags_logic over the local ``r``."""
        self.set_flags("0 if r else 1", "r >> 31", "0", "0")

    def may_raise(self, pc: int) -> None:
        """The unit at ``pc`` can raise from here: inside a block, publish
        its pc first."""
        self._unassigned_at_raise.update(set(_FLAGS) - self._assigned)
        if not self.unit:
            self.emit(f"e.pc = {pc}")

    def fault_if(self, pc: int, condition: str, message: str) -> None:
        """Raise ``MachineFault(message)`` at ``pc`` when ``condition``
        holds (``message`` is source text; call :meth:`may_raise` first)."""
        self.branch(condition,
                    lambda: self.emit(f"raise MachineFault({message}, "
                                      f"pc={pc})"))

    def access(self, pc: int, addr: str, kind: str | None) -> None:
        """Start the memory access of the unit at ``pc``: fault unless
        ``addr`` is word aligned (``kind`` None: no alignment rule, or
        statically aligned; else the access named in the fault)."""
        self.may_raise(pc)
        if kind is not None:
            self.fault_if(pc, f"{addr} & 3",
                          f'f"misaligned {kind} at {{{addr}:#x}}"')

    def load(self, dest: str, addr: str, size: int,
             op: str = "load") -> None:
        self.loads = True
        self.emit(f"{dest} = port.{op}({addr}, {size})")
        self.emit("ld += 1")
        self.emit(f"h = ((h * {_FNV_PRIME}) + {dest} + 1) & {_HASH_MASK}")

    def store(self, addr: str, size: int, value: str,
              op: str = "store") -> None:
        self.stores = True
        self.emit(f"port.{op}({addr}, {size}, {value})")
        self.emit("st += 1")

    def locked_load(self, dest: str, addr: str) -> None:
        """The read half of an atomic: drain the store buffer, then load
        under the bus lock."""
        self.emit("port.fence()")
        self.load(dest, addr, 4, op="atomic_load")


def _mem_addr(w: _Writer, mem: Mem) -> str:
    """Bind the effective address of ``mem``; returns the name to use."""
    text = _ea(mem)
    if text.isdigit():
        return text
    w.emit(f"addr = {text}")
    return "addr"


def _t_mov(w, i, pc):
    w.emit(f"regs[{i.ops[0].number}] = {_val(i.ops[1])}")


def _t_lea(w, i, pc):
    w.emit(f"regs[{i.ops[0].number}] = {_ea(i.ops[1])}")


def _t_load(w, i, pc):
    mem = i.ops[1]
    addr = _mem_addr(w, mem)
    w.access(pc, addr, None if _aligned(mem) else "word load")
    w.load("v", addr, 4)
    w.emit(f"regs[{i.ops[0].number}] = v & {_M}")


def _t_loadb(w, i, pc):
    addr = _mem_addr(w, i.ops[1])
    w.access(pc, addr, None)
    w.load("v", addr, 1)
    w.emit(f"regs[{i.ops[0].number}] = v & {_M}")


def _t_store(w, i, pc):
    mem = i.ops[0]
    addr = _mem_addr(w, mem)
    w.access(pc, addr, None if _aligned(mem) else "word store")
    w.store(addr, 4, _val(i.ops[1]))


def _t_storeb(w, i, pc):
    addr = _mem_addr(w, i.ops[0])
    w.access(pc, addr, None)
    w.store(addr, 1, f"{_val(i.ops[1])} & 255")


def _t_push(w, i, pc):
    w.emit(f"sp = (regs[{SP}] - 4) & {_M}")
    w.access(pc, "sp", "word store")
    w.store("sp", 4, _val(i.ops[0]))
    w.emit(f"regs[{SP}] = sp")


def _t_pop(w, i, pc):
    w.emit(f"addr = regs[{SP}]")
    w.access(pc, "addr", "word load")
    w.load("v", "addr", 4)
    w.emit(f"regs[{SP}] = (addr + 4) & {_M}")
    w.emit(f"regs[{i.ops[0].number}] = v & {_M}")


def _add_flags(w: _Writer) -> None:
    """Engine._flags_add over the locals ``a``, ``b``; result in ``r``."""
    w.emit("raw = a + b")
    w.emit(f"r = raw & {_M}")
    w.set_flags("0 if r else 1", "r >> 31", "raw >> 32",
                "((a ^ r) & (b ^ r)) >> 31")


def _sub_flags(w: _Writer) -> None:
    """Engine._flags_sub over the locals ``a``, ``b``; result in ``r``."""
    w.emit(f"r = (a - b) & {_M}")
    w.set_flags("0 if r else 1", "r >> 31", "1 if a < b else 0",
                "((a ^ b) & (a ^ r)) >> 31")


def _alu_template(flags: Callable[[_Writer], None]):
    """A three-operand ALU op: ``flags`` computes ``r`` from locals a, b."""
    def template(w, i, pc):
        w.emit(f"a = {_val(i.ops[1])}")
        w.emit(f"b = {_val(i.ops[2])}")
        flags(w)
        w.emit(f"regs[{i.ops[0].number}] = r")
    return template


def _logic_template(expr: str, divide: bool = False):
    """A logic-flag ALU op whose result is ``expr`` over locals a, b
    (``divide``: fault first on a zero divisor)."""
    def template(w, i, pc):
        w.emit(f"a = {_val(i.ops[1])}")
        w.emit(f"b = {_val(i.ops[2])}")
        if divide:
            w.may_raise(pc)
            w.fault_if(pc, "b == 0", '"division by zero"')
        w.emit(f"r = {expr}")
        w.logic_flags()
        w.emit(f"regs[{i.ops[0].number}] = r")
    return template


def _t_cmp(w, i, pc):
    w.emit(f"a = regs[{i.ops[0].number}]")
    w.emit(f"b = {_val(i.ops[1])}")
    _sub_flags(w)


def _t_neg(w, i, pc):
    w.emit(f"b = regs[{i.ops[1].number}]")
    w.emit(f"r = -b & {_M}")
    w.set_flags("0 if r else 1", "r >> 31", "1 if b else 0",
                "(b & r) >> 31")
    w.emit(f"regs[{i.ops[0].number}] = r")


def _t_not(w, i, pc):
    w.emit(f"r = regs[{i.ops[1].number}] ^ {_M}")
    w.logic_flags()
    w.emit(f"regs[{i.ops[0].number}] = r")


def _t_test(w, i, pc):
    w.emit(f"r = regs[{i.ops[0].number}] & {_val(i.ops[1])}")
    w.logic_flags()


def _t_nop(w, i, pc):
    pass


def _t_jmp(w, i, pc):
    w.emit(f"{w.next_pc} = {i.ops[0].value}")


def _jcc_template(mnemonic: str):
    condition, flags = _JCC[mnemonic]

    def template(w, i, pc):
        w.read_flags(flags)
        w.emit(f"{w.next_pc} = {i.ops[0].value} if {condition} "
               f"else {pc + 1}")
    return template


def _t_call(w, i, pc):
    w.emit(f"sp = (regs[{SP}] - 4) & {_M}")
    w.access(pc, "sp", "word store")
    w.store("sp", 4, str((pc + 1) & MASK32))
    w.emit(f"regs[{SP}] = sp")
    w.emit(f"{w.next_pc} = {i.ops[0].value}")


def _t_ret(w, i, pc):
    w.emit(f"addr = regs[{SP}]")
    w.access(pc, "addr", "word load")
    w.load("t", "addr", 4)
    w.emit(f"regs[{SP}] = (addr + 4) & {_M}")
    w.emit(f"{w.next_pc} = t")


def _t_xadd(w, i, pc):
    addr = _mem_addr(w, i.ops[0])
    w.access(pc, addr, "xadd")
    w.locked_load("a", addr)
    w.emit(f"b = regs[{i.ops[1].number}]")
    _add_flags(w)
    w.store(addr, 4, "r", op="atomic_store")
    w.emit(f"regs[{i.ops[1].number}] = a & {_M}")


def _t_xchg(w, i, pc):
    addr = _mem_addr(w, i.ops[0])
    w.access(pc, addr, "xchg")
    w.locked_load("a", addr)
    w.store(addr, 4, f"regs[{i.ops[1].number}]", op="atomic_store")
    w.emit(f"regs[{i.ops[1].number}] = a & {_M}")


def _t_cmpxchg(w, i, pc):
    addr = _mem_addr(w, i.ops[0])
    w.access(pc, addr, "cmpxchg")
    w.locked_load("a", addr)

    def swap():
        w.store(addr, 4, f"regs[{i.ops[1].number}]", op="atomic_store")
        w.emit("zf = 1")

    def keep():
        w.emit(f"regs[{RAX}] = a")
        w.emit("zf = 0")
    w.branch(f"a == regs[{RAX}]", swap)
    w.branch(None, keep)
    w.flags_written.add("zf")


def _t_mfence(w, i, pc):
    w.may_raise(pc)
    w.emit("port.fence()")


def _rep_template(move: bool):
    """One iteration of ``rep_movs`` (``move``) or ``rep_stos``: the pc
    stays put and ``cur_memops`` counts the iteration's memory operations
    until ``rcx`` reaches zero and the instruction retires."""
    def template(w, i, pc):
        def iterate():
            if move:
                w.emit(f"src = regs[{RSI}]")
                w.access(pc, "src", "word load")
                w.load("v", "src", 4)
            w.emit(f"dst = regs[{RDI}]")
            w.access(pc, "dst", "word store")
            w.store("dst", 4, f"v & {_M}" if move else f"regs[{RAX}]")
            if move:
                w.emit(f"regs[{RSI}] = (src + 4) & {_M}")
            w.emit(f"regs[{RDI}] = (dst + 4) & {_M}")
            w.emit("c -= 1")
            w.emit(f"regs[{RCX}] = c")

        def retire():
            w.emit(f"e.pc = {pc + 1}")
            w.emit("e.retired += 1")
            w.emit("e.cur_memops = 0")
        w.retires = True
        w.emit(f"c = regs[{RCX}]")
        w.branch("c", iterate)
        w.branch("c", lambda: w.emit(f"e.cur_memops += {2 if move else 1}"))
        w.branch(None, retire)
    return template


def _trap_template(outcome: str):
    """A trap: return ``outcome`` with all state untouched; the kernel or
    replayer supplies the result through ``Engine.complete_trap``."""
    def template(w, i, pc):
        w.retires = True
        w.emit(f"return {outcome!r}")
    return template


_TEMPLATES: dict[str, Callable] = {
    "mov": _t_mov,
    "lea": _t_lea,
    "load": _t_load,
    "loadb": _t_loadb,
    "store": _t_store,
    "storeb": _t_storeb,
    "push": _t_push,
    "pop": _t_pop,
    "add": _alu_template(_add_flags),
    "sub": _alu_template(_sub_flags),
    "and": _logic_template("a & b"),
    "or": _logic_template("a | b"),
    "xor": _logic_template("a ^ b"),
    "shl": _logic_template(f"(a << (b & 31)) & {_M}"),
    "shr": _logic_template("a >> (b & 31)"),
    "sar": _logic_template(
        f"((a - 4294967296 if a & 2147483648 else a) >> (b & 31)) & {_M}"),
    "mul": _logic_template(f"(a * b) & {_M}"),
    "div": _logic_template("a // b", divide=True),
    "mod": _logic_template("a % b", divide=True),
    "neg": _t_neg,
    "not": _t_not,
    "cmp": _t_cmp,
    "test": _t_test,
    "nop": _t_nop,
    "pause": _t_nop,
    "jmp": _t_jmp,
    **{mnemonic: _jcc_template(mnemonic) for mnemonic in _JCC},
    "call": _t_call,
    "ret": _t_ret,
    "xadd": _t_xadd,
    "xchg": _t_xchg,
    "cmpxchg": _t_cmpxchg,
    "mfence": _t_mfence,
    "rep_movs": _rep_template(move=True),
    "rep_stos": _rep_template(move=False),
    "syscall": _trap_template(OUTCOME_SYSCALL),
    "rdtsc": _trap_template(OUTCOME_NONDET),
    "rdrand": _trap_template(OUTCOME_NONDET),
    "cpuid": _trap_template(OUTCOME_NONDET),
}


def _is_reg(number) -> bool:
    return type(number) is int and 0 <= number < NUM_REGS


def _compilable(instr: Instr) -> bool:
    """May ``instr``'s operands be pasted into generated source? They come
    from the bundle's program image: every register number must be a
    valid int, and every immediate, displacement and scale an int.
    Anything else runs its interpretive handler instead."""
    for op in instr.ops:
        kind = type(op)
        if kind is Reg:
            ok = _is_reg(op.number)
        elif kind is Imm:
            ok = type(op.value) is int
        elif kind is Mem:
            ok = (all(reg is None or _is_reg(reg)
                      for reg in (op.base, op.index))
                  and type(op.scale) is int and type(op.disp) is int)
        else:
            ok = False
        if not ok:
            return False
    return True


def _in_block(instr: Instr) -> bool:
    """Can ``instr`` run inside a block?"""
    return instr.mnemonic not in _UNIT_ONLY and _compilable(instr)


def _write_block(w: _Writer, instructions, leader: int, units: int) -> None:
    """Emit the ``units`` units at ``leader`` into ``w``, then the write
    of the next pc when the last unit does not transfer control."""
    for pc in range(leader, leader + units):
        instr = instructions[pc]
        _TEMPLATES[instr.mnemonic](w, instr, pc)
    end = leader + units
    if not w.retires and instructions[end - 1].mnemonic not in _BLOCK_ENDS:
        w.emit(f"{w.next_pc} = {end}")


def _frame(writers: list[_Writer], loaded: set[str]) -> tuple[list, list]:
    """The prologue that loads the engine state ``writers`` keep in locals
    (flags ``loaded``), and the commit that writes it back."""
    prologue = ["regs = e.regs"] if any("regs[" in line for w in writers
                                        for line in w.lines) else []
    prologue += [f"{flag} = e.{flag}" for flag in _FLAGS if flag in loaded]
    commit = [f"e.{flag} = {flag}" for flag in _FLAGS
              if any(flag in w.flags_written for w in writers)]
    if any(w.loads for w in writers):
        prologue += ["h = e.load_hash", "ld = e.loads"]
        commit += ["e.load_hash = h", "e.loads = ld"]
    if any(w.stores for w in writers):
        prologue.append("st = e.stores")
        commit.append("e.stores = st")
    return prologue, commit


def _source(instructions, leader: int, units: int, unit: bool) -> str:
    w = _Writer(unit)
    _write_block(w, instructions, leader, units)
    prologue, commit = _frame([w], w.flags_loaded())
    body = [f"def unit_{leader}(e, port):" if unit
            else f"def block_{leader}(e, port, budget):"]
    body += ["    " + line for line in prologue]
    if w.loads or w.stores:
        body.append("    try:")
        body += ["        " + line for line in w.lines]
        if not unit:
            body += ["    except BaseException:",
                     f"        e.retired += e.pc - {leader}",
                     "        raise"]
        body.append("    finally:")
        body += ["        " + line for line in commit]
    else:
        body += ["    " + line for line in w.lines + commit]
    if not w.retires:
        body.append(f"    e.retired += {units}")
    if not unit:
        body.append(f"    return {units}")
    return "\n".join(body) + "\n"


def unit_source(instructions, pc: int) -> str:
    """Python source of the unit function for the instruction at ``pc``."""
    return _source(instructions, pc, 1, unit=True)


def block_source(instructions, leader: int, units: int) -> str:
    """Python source of the one-block region of ``units`` units at
    ``leader``: the block's units back to back (the caller checked that
    they fit its budget)."""
    return _source(instructions, leader, units, unit=False)


def region_source(instructions, blocks: list[tuple[int, int]]) -> str:
    """Python source of the looping region over ``blocks``, its
    ``(leader, units)`` pairs sorted by leader.

    The function runs block after block while the pc it lands on is one
    of the region's leaders and that block fits the units left of
    ``budget``. It keeps flags, ``load_hash`` and the counters in locals
    across blocks, and finds the block at the pc through a binary ``if``
    tree over the leaders, so one dispatch costs O(log blocks)."""
    writers = []
    for leader, units in blocks:
        w = _Writer(unit=False, next_pc="lead")
        _write_block(w, instructions, leader, units)
        writers.append(w)
    prologue, commit = _frame(writers, set().union(
        *(w.flags_used() for w in writers)))
    body = [f"def region_{blocks[0][0]}(e, port, budget):"]
    body += ["    " + line for line in prologue]
    body += ["    n = 0", "    lead = e.pc", "    try:", "        while True:"]

    def dispatch(low: int, high: int, indent: str) -> None:
        # Recursion depth is log2 of the region's block count.
        if high - low > 1:
            mid = (low + high) // 2
            body.append(f"{indent}if lead < {blocks[mid][0]}:")
            dispatch(low, mid, indent + "    ")
            body.append(f"{indent}else:")
            dispatch(mid, high, indent + "    ")
            return
        leader, units = blocks[low]
        body.extend([f"{indent}if lead != {leader} or n + {units} > budget:",
                     f"{indent}    break"])
        body.extend(indent + line for line in writers[low].lines)
        body.append(f"{indent}n += {units}")
    dispatch(0, len(blocks), " " * 12)
    body += ["    except BaseException:",
             "        e.retired += n + e.pc - lead",
             "        raise",
             "    finally:"]
    body += ["        " + line for line in commit or ["pass"]]
    body += ["    e.pc = lead", "    e.retired += n", "    return n"]
    return "\n".join(body) + "\n"


@functools.lru_cache(maxsize=1024)
def _exec(source: str, filename: str, name: str) -> Callable:
    """Define the function ``name`` of ``source``. Memoized across
    programs: a generated function reads only its arguments and
    ``MachineFault``, and every loaded bundle is a new ``Program`` object
    with the same code."""
    namespace = {"MachineFault": MachineFault}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _compile_unit(instructions, pc: int, name: str) -> UnitFn:
    """The unit function of the instruction at ``pc``: generated code, or
    its interpretive handler when its operands are not compilable."""
    instr = instructions[pc]
    if not _compilable(instr):
        handler = _DISPATCH[instr.mnemonic]

        def interpret(e, port):
            return handler(e, port, instr)
        return interpret
    return _exec(unit_source(instructions, pc), f"<unit {name}@{pc}>",
                 f"unit_{pc}")


def _compile_on_entry(table: list, instructions, pc: int,
                      name: str) -> UnitFn:
    """A stand-in that compiles the unit at ``pc`` on its first run,
    replaces its own table entry with the compiled function, and runs
    it."""
    def first_entry(e, port):
        fn = table[pc] = _compile_unit(instructions, pc, name)
        return fn(e, port)
    return first_entry


def _per_program(build):
    """Memoize ``build(program)`` per program object (keyed by identity;
    evicted when the program is collected)."""
    memo: dict[int, list] = {}

    @functools.wraps(build)
    def table(program: Program) -> list:
        key = id(program)
        entries = memo.get(key)
        if entries is None:
            entries = memo[key] = build(program)
            weakref.finalize(program, memo.pop, key, None)
        return entries
    return table


@_per_program
def decoded_program(program: Program) -> list[UnitFn]:
    """The unit-function table of ``program``, indexed by pc. Every entry
    compiles on its first run."""
    instructions = program.instructions
    table: list = [None] * len(instructions)
    for pc in range(len(instructions)):
        table[pc] = _compile_on_entry(table, instructions, pc, program.name)
    return table


# -- regions ------------------------------------------------------------------
# A block is a straight run of units that ends at ``jmp``, a conditional
# jump, ``call`` or ``ret``, and stops before any unit-only mnemonic and
# any instruction whose operands are not compilable. A region is one
# strongly connected component of the block graph: its edges run from a
# block to each successor that is itself a block leader (the jcc
# fall-through, a jcc/jmp/call target; a ``ret`` has none). A block in no
# cycle is a one-block region. Only replay runs regions: a replayed chunk
# has its thread to itself, so nothing interleaves inside one (see
# ``Replayer.step_chunk``), and a region leaves only at a block boundary,
# where the state is what running its blocks one by one leaves.

def _block_units(instructions, leader: int) -> int:
    """Units in the block at ``leader`` (0: its first unit cannot run in
    a block)."""
    pc = leader
    while pc < len(instructions):
        instr = instructions[pc]
        if not _in_block(instr):
            break
        pc += 1
        if instr.mnemonic in _BLOCK_ENDS:
            break
    return pc - leader


def _block_leaders(program: Program) -> list[int]:
    """Sorted block leaders of ``program``: the entry, every branch target,
    and the pc after each branch or instruction that cannot run in a
    block."""
    instructions = program.instructions
    leaders = {program.entry}
    for pc, instr in enumerate(instructions):
        mnemonic = instr.mnemonic
        if mnemonic in _BLOCK_ENDS:
            leaders.add(pc + 1)
            if mnemonic != "ret":
                leaders.add(instr.ops[0].value)
        elif not _in_block(instr):
            leaders.add(pc + 1)
    return sorted(pc for pc in leaders if 0 <= pc < len(instructions))


def _successors(instructions, leader: int, units: int,
                blocks: dict[int, int]) -> list[int]:
    """Leaders in ``blocks`` that the block at ``leader`` can pass control
    to. A block that ends without a branch stops before a unit-only
    instruction or the end of the code, so no block follows it; a ``ret``
    has no static target."""
    instr = instructions[leader + units - 1]
    mnemonic = instr.mnemonic
    if mnemonic not in _BLOCK_ENDS or mnemonic == "ret":
        return []
    targets = [instr.ops[0].value]
    if mnemonic in _JCC:
        targets.append(leader + units)
    return [pc for pc in targets if pc in blocks]


def _cycles(graph: dict[int, list[int]]) -> list[list[int]]:
    """The strongly connected components of ``graph`` that hold a cycle,
    each sorted: Tarjan's algorithm with an explicit stack, so a long
    chain of blocks cannot exhaust the interpreter's recursion limit."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    found = []
    for root in graph:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] != index[node]:
                    continue
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph[node]:
                    found.append(sorted(component))
    return found


#: A region-table entry at a block leader: ``(units, fn)``, where
#: ``units`` is the block's and ``fn(engine, port, budget) -> units`` runs
#: the region from that leader. None elsewhere.
RegionEntry = tuple[int, Callable[[object, object, int], int]] | None


def _compile_region_on_entry(table: list, instructions,
                             blocks: list[tuple[int, int]],
                             looping: bool, name: str) -> Callable:
    """A stand-in that compiles the region over ``blocks`` on its first
    run, puts the compiled function in the entry of each of its leaders,
    and runs it."""
    def first_entry(e, port, budget):
        first = blocks[0][0]
        if looping:
            fn = _exec(region_source(instructions, blocks),
                       f"<region {name}@{first}>", f"region_{first}")
        else:
            fn = _exec(block_source(instructions, first, blocks[0][1]),
                       f"<block {name}@{first}>", f"block_{first}")
        for leader, units in blocks:
            table[leader] = (units, fn)
        return fn(e, port, budget)
    return first_entry


def _regions(program: Program) -> list[tuple[list[tuple[int, int]], bool]]:
    """The regions of ``program``: each one's ``(leader, units)`` blocks,
    sorted by leader, and whether it loops (holds a cycle)."""
    instructions = program.instructions
    blocks = {}
    for leader in _block_leaders(program):
        units = _block_units(instructions, leader)
        if units:
            blocks[leader] = units
    graph = {leader: _successors(instructions, leader, units, blocks)
             for leader, units in blocks.items()}
    cycles = _cycles(graph)
    in_cycle = {leader for cycle in cycles for leader in cycle}
    return ([([(leader, blocks[leader]) for leader in cycle], True)
             for cycle in cycles]
            + [([(leader, units)], False) for leader, units in blocks.items()
               if leader not in in_cycle])


@_per_program
def region_table(program: Program) -> list[RegionEntry]:
    """The region table of ``program``, indexed by pc. Every block leader
    gets its entry up front, and the leaders of one region share its
    function, which compiles on the region's first entry."""
    entries: list[RegionEntry] = [None] * len(program.instructions)
    for members, looping in _regions(program):
        fn = _compile_region_on_entry(entries, program.instructions, members,
                                      looping, program.name)
        for leader, units in members:
            entries[leader] = (units, fn)
    return entries
